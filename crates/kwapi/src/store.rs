//! The metric store and the ~1 Hz power sampler.
//!
//! The store keeps sampler calls, not samples ([`crate::record`]): a call
//! costs its noise draws and what each wattmeter read before noise, and a
//! wattmeter's samples are derived when they are read, for the calls that
//! overlap the read and only as far back as the label's ring would reach.

use crate::record::{Arenas, Call, Reading, Record, Replay};
use crate::series::{mean_of, ConsolidatedPoint, Fold, RingSeries, WindowAgg};
use rand::rngs::SmallRng;
use std::collections::BTreeMap;
use std::ops::Range;
use ttt_sim::{Buggify, RpcError, SimDuration, SimTime};
use ttt_testbed::{perf, NodeId, SiteId, Testbed};

/// What [`MetricStore::new`] reserves, per sample its labels' rings
/// would hold (at most `RESERVED_SAMPLES`): one reading per 32 samples,
/// one call per 256. A week of the kwapi family on the paper's testbed or
/// the 64-site grid fits in that; a longer run adds chunks and never
/// copies one.
const SAMPLES_PER_READING: usize = 32;
const SAMPLES_PER_CALL: usize = 256;
const RESERVED_SAMPLES: usize = 1 << 24;

/// What the store knows of one label without opening a call.
#[derive(Debug, Clone, Copy, Default)]
struct LabelState {
    /// The instant one nanosecond past its newest sample; `SimTime::ZERO`
    /// while it never sampled.
    until: SimTime,
    /// Its samples over every call.
    total: u64,
    /// The newest call that kept a sample of it.
    last: usize,
}

/// Per-node power series, keyed by *wattmeter label* (which equals the node
/// id when the wiring is correct). A label at or past [`MetricStore::len`]
/// is one the store does not track: it reads as never sampled.
///
/// The store holds what [`PowerSampler`] calls recorded, one record per
/// call, and nothing else: a label's raw series is its newest `capacity`
/// samples and everything older its consolidated history, both derived
/// from the records when read ([`MetricStore::power`]).
#[derive(Debug)]
pub struct MetricStore {
    /// Raw samples a label's series keeps.
    capacity: usize,
    /// Consolidation period of the older samples.
    period: SimDuration,
    labels: Vec<LabelState>,
    records: Vec<Record>,
    arenas: Arenas,
    /// The readings of the call being recorded, kept so a call allocates
    /// nothing once it has seen its widest site.
    readings: Vec<Reading>,
    /// [`MetricStore::windows`] scratch, per label: the fold of its window
    /// and its samples in calls not yet replayed.
    folds: Vec<Fold>,
    newer: Vec<u64>,
    /// Per reading of the call being replayed, its first tick the ring
    /// still holds.
    first_held: Vec<u64>,
    /// Chaos hook: when armed, a window read over the REST API can be
    /// refused. Off by default.
    buggify: Buggify,
    /// Monotone count of window reads — the rng-free buggify salt.
    window_reads: u64,
}

impl MetricStore {
    /// Create a store for `n` nodes, keeping `capacity` raw samples per
    /// node and consolidating older ones over `period`.
    pub fn new(n: usize, capacity: usize, period: SimDuration) -> Self {
        let samples = n.saturating_mul(capacity).min(RESERVED_SAMPLES);
        MetricStore {
            capacity,
            period,
            labels: vec![LabelState::default(); n],
            records: Vec::with_capacity(samples / SAMPLES_PER_CALL),
            arenas: Arenas::new(samples / SAMPLES_PER_READING),
            readings: Vec::new(),
            folds: vec![Fold::default(); n],
            newer: vec![0; n],
            first_held: Vec::with_capacity(n),
            buggify: Buggify::off(),
            window_reads: 0,
        }
    }

    /// Arm (or disarm) the refused-window-read chaos hook. Rate 0 keeps
    /// every read identical to an unarmed store.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Serve one window read as the kwapi REST API would: aggregate the
    /// raw samples of `node` in `[from, to)`. Under chaos the read is
    /// refused instead; the decision hashes a monotone read counter, so
    /// identical read sequences refuse identically across engines.
    pub fn window(
        &mut self,
        node: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> Result<Option<WindowAgg>, RpcError> {
        self.window_reads += 1;
        if self.buggify.fire_hashed("kwapi-window", self.window_reads) {
            return Err(RpcError::Refused);
        }
        Ok(self.power(node).window(from, to))
    }

    /// Serve one [`MetricStore::window`] read per label that ever sampled,
    /// in ascending label order, and hand `row` each aggregate that was
    /// served and is not empty. Labels that never sampled are not read,
    /// so every other label's read has the number a label-by-label walk
    /// gives it. A label whose newest sample is older than `from` has no
    /// row whatever chaos decides: its read is counted and the hash is not
    /// touched. The samples are derived by replaying each call that
    /// reaches the window once, for all its labels.
    pub fn windows(&mut self, from: SimTime, to: SimTime, mut row: impl FnMut(NodeId, WindowAgg)) {
        self.fold_windows(from, to);
        for i in 0..self.labels.len() {
            let fold = std::mem::take(&mut self.folds[i]);
            let until = self.labels[i].until;
            if until == SimTime::ZERO {
                continue;
            }
            self.window_reads += 1;
            if until <= from || self.buggify.fire_hashed("kwapi-window", self.window_reads) {
                continue;
            }
            if let Some(agg) = fold.finish() {
                row(NodeId(i as u32), agg);
            }
        }
    }

    /// Fold every held sample in `[from, to)` into its label's fold.
    fn fold_windows(&mut self, from: SimTime, to: SimTime) {
        // Calls before `first` end before `from`: they can neither hold a
        // sample of the window nor be newer than one.
        let first = self.records.partition_point(|r| r.reach < from);
        for &head in &self.records[first..] {
            for reading in self.arenas.call(head).readings {
                if let Some(newer) = self.newer.get_mut(reading.label.index()) {
                    *newer += u64::from(reading.count);
                }
            }
        }
        let cap = self.capacity as u64;
        for &head in &self.records[first..] {
            let call = self.arenas.call(head);
            self.first_held.clear();
            for (j, reading) in call.readings.iter().enumerate() {
                let held = match self.newer.get_mut(reading.label.index()) {
                    Some(newer) => {
                        *newer -= u64::from(reading.count);
                        first_held(call, j, cap.saturating_sub(*newer))
                    }
                    None => u64::MAX,
                };
                self.first_held.push(held);
            }
            let mut draws = Replay::of(call);
            for k in call.ticks_in(from, to) {
                for (j, reading) in call.readings.iter().enumerate() {
                    if k >= self.first_held[j] && !call.dropped(k, j) {
                        self.folds[reading.label.index()].push(draws.sample(k, j));
                    }
                }
            }
        }
    }

    /// The power series reported for (the wattmeter labelled) `node`.
    pub fn power(&self, node: NodeId) -> PowerSeries<'_> {
        PowerSeries {
            store: self,
            label: node,
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the store tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn call(&self, r: usize) -> Call<'_> {
        self.arenas.call(self.records[r])
    }

    /// The samples of `label` at instants in `[from, to)`, oldest first,
    /// among its newest `keep`.
    fn samples(
        &self,
        label: NodeId,
        from: SimTime,
        to: SimTime,
        keep: u64,
    ) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.spans(label, from, to, keep)
            .flat_map(|(call, j, ticks)| {
                let mut draws = Replay::of(call);
                ticks
                    .filter(move |&k| !call.dropped(k, j))
                    .map(move |k| (call.tick_at(k), draws.sample(k, j)))
            })
    }

    /// Where the samples of [`MetricStore::samples`] are: each call that
    /// holds some, oldest first, with `label`'s reading in it and the
    /// ticks of that reading inside the window and still held. A tick
    /// chaos dropped has no sample.
    fn spans(
        &self,
        label: NodeId,
        from: SimTime,
        to: SimTime,
        keep: u64,
    ) -> impl Iterator<Item = (Call<'_>, usize, Range<u64>)> + '_ {
        let state = self.labels.get(label.index()).copied().unwrap_or_default();
        let end = if state.total == 0 { 0 } else { state.last + 1 };
        // Walk back to the oldest call that can hold such a sample,
        // counting the label's samples on the way.
        let (mut start, mut newer) = (end, 0u64);
        while start > 0 && newer < keep {
            let call = self.call(start - 1);
            if call.head.reach < from {
                break;
            }
            if let Some(j) = call.slot_of(label) {
                // A label's calls are in time order: older ones end earlier.
                if call.end() < from {
                    break;
                }
                newer += u64::from(call.readings[j].count);
            }
            start -= 1;
        }
        (start..end)
            .filter_map(move |r| {
                let call = self.call(r);
                let j = call.slot_of(label)?;
                newer -= u64::from(call.readings[j].count);
                let ticks = call.ticks_in(from, to);
                let held = first_held(call, j, keep.saturating_sub(newer));
                Some((call, j, ticks.start.max(held)..ticks.end))
            })
    }
}

/// The first tick of reading `j` that a ring keeping `room` more samples
/// of its label still holds: the call's samples of it beyond `room` are
/// the oldest and have been evicted.
fn first_held(call: Call<'_>, j: usize, room: u64) -> u64 {
    let count = u64::from(call.readings[j].count);
    call.nth_kept_tick(j, count.saturating_sub(room))
}

/// The power series of one wattmeter label, derived from the store's
/// records when read: its newest `capacity` samples are the raw series,
/// every older one is folded into the consolidated history.
#[derive(Debug, Clone, Copy)]
pub struct PowerSeries<'a> {
    store: &'a MetricStore,
    label: NodeId,
}

impl PowerSeries<'_> {
    fn held(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.store
            .samples(self.label, from, to, self.store.capacity as u64)
    }

    /// The most recent raw sample.
    pub fn latest(&self) -> Option<(SimTime, f64)> {
        let state = self.store.labels.get(self.label.index())?;
        if state.total == 0 || self.store.capacity == 0 {
            return None;
        }
        let call = self.store.call(state.last);
        let j = call.slot_of(self.label)?;
        let k = call.last_kept_tick(j)?;
        Some((call.tick_at(k), Replay::of(call).sample(k, j)))
    }

    /// Raw samples in `[from, to)`, oldest first.
    pub fn range(&self, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.held(from, to).collect()
    }

    /// Mean of raw samples in `[from, to)`, if any.
    pub fn mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        mean_of(self.held(from, to).map(|(_, v)| v))
    }

    /// Aggregate raw samples in `[from, to)` without allocating, if any
    /// fall in the window.
    pub fn window(&self, from: SimTime, to: SimTime) -> Option<WindowAgg> {
        let mut fold = Fold::default();
        for (_, v) in self.held(from, to) {
            fold.push(v);
        }
        fold.finish()
    }

    /// Number of raw samples in `[from, to)`: the count of
    /// [`PowerSeries::window`], from the records' tick ranges and drop
    /// bits alone, with no noise replayed.
    pub fn count(&self, from: SimTime, to: SimTime) -> u32 {
        let held = self.store.spans(self.label, from, to, self.store.capacity as u64);
        held.map(|(call, j, ticks)| call.kept_in(j, ticks)).sum::<u64>() as u32
    }

    /// Number of raw samples held.
    // detlint: allow(pub-fn-only-tests-call) -- the sampler and window model tests count raw samples through it
    pub fn raw_len(&self) -> usize {
        let state = self.store.labels.get(self.label.index());
        let total = state.map_or(0, |s| s.total);
        total.min(self.store.capacity as u64) as usize
    }

    /// Consolidated history (completed periods only): every sample of the
    /// label pushed through a [`RingSeries`] of the store's shape.
    pub fn consolidated(&self) -> Vec<ConsolidatedPoint> {
        let mut ring = RingSeries::new(self.store.capacity, self.store.period);
        for (t, v) in self
            .store
            .samples(self.label, SimTime::ZERO, SimTime::MAX, u64::MAX)
        {
            ring.push(t, v);
        }
        ring.consolidated().to_vec()
    }
}

/// The ~1 Hz power sampler.
///
/// Each tick reads every wattmeter. Crucially, the wattmeter labelled `n`
/// measures `topology.measured_node(n)` — identity under correct cabling,
/// some other node after a `CablingSwap` fault.
///
/// A sampling call holds `&Testbed`, so wiring, loads and hardware cannot
/// change under it: what each wattmeter reads before noise is derived once
/// per call and recorded with the call. A tick then costs the chaos check
/// and the two noise draws per sample, which move the caller's generator
/// exactly as computing the noise would; the noise itself is computed
/// when a sample is read.
#[derive(Debug, Clone)]
pub struct PowerSampler {
    /// Sampling period (the paper: ≈1 Hz). A zero period is a sampler
    /// with no clock: [`PowerSampler::run`] and
    /// [`PowerSampler::run_site`] take no sample at all.
    pub period: SimDuration,
    /// Multiplicative Gaussian sensor noise (stddev as a fraction).
    pub noise: f64,
}

impl Default for PowerSampler {
    fn default() -> Self {
        PowerSampler {
            period: SimDuration::from_secs(1),
            noise: 0.01,
        }
    }
}

impl PowerSampler {
    /// Sample every node once at instant `t`. `loads` carries the current
    /// CPU load per node id (absent = idle).
    pub fn sample_all(
        &self,
        tb: &Testbed,
        loads: &BTreeMap<NodeId, f64>,
        t: SimTime,
        store: &mut MetricStore,
        rng: &mut SmallRng,
    ) {
        let once = (t, SimDuration::ZERO, 1);
        self.sample(tb, all_labels(tb), loads, once, store, rng);
    }

    /// Sample one site continuously from `from` (exclusive) to `to`
    /// (inclusive) at the configured period. The real service is per-site;
    /// this also keeps per-label series time-ordered when several sites'
    /// monitoring checks run in the same campaign tick. Only the site's own
    /// wattmeters are visited, in node order; an unknown site has none.
    #[allow(clippy::too_many_arguments)]
    pub fn run_site(
        &self,
        tb: &Testbed,
        site: SiteId,
        loads: &BTreeMap<NodeId, f64>,
        from: SimTime,
        to: SimTime,
        store: &mut MetricStore,
        rng: &mut SmallRng,
    ) {
        // Site → clusters → member nodes is ascending node-id order, even
        // when the cluster list interleaves sites.
        let labels = tb
            .sites()
            .get(site.index())
            .into_iter()
            .flat_map(|s| &s.clusters)
            .flat_map(|&c| tb.cluster(c).nodes.iter().copied());
        self.sample(tb, labels, loads, self.ticks(from, to), store, rng);
    }

    /// Sample continuously from `from` (exclusive) to `to` (inclusive) at
    /// the configured period.
    pub fn run(
        &self,
        tb: &Testbed,
        loads: &BTreeMap<NodeId, f64>,
        from: SimTime,
        to: SimTime,
        store: &mut MetricStore,
        rng: &mut SmallRng,
    ) {
        self.sample(tb, all_labels(tb), loads, self.ticks(from, to), store, rng);
    }

    /// The sampling instants in `(from, to]` as `(from, period, count)`;
    /// none when the period is zero.
    fn ticks(&self, from: SimTime, to: SimTime) -> (SimTime, SimDuration, u64) {
        let count = match self.period.as_nanos() {
            0 => 0,
            p => to.as_nanos().saturating_sub(from.as_nanos()) / p,
        };
        (from, self.period, count)
    }

    /// Read the wattmeters `labels` at every instant of `ticks`, tick-major
    /// and label-minor, and record the call. A wattmeter the store has no
    /// series for is read like any other — chaos check, two draws — and
    /// never derived, so the labels the store keeps draw exactly what they
    /// draw beside a store that tracks everyone.
    fn sample(
        &self,
        tb: &Testbed,
        labels: impl Iterator<Item = NodeId>,
        loads: &BTreeMap<NodeId, f64>,
        ticks: (SimTime, SimDuration, u64),
        store: &mut MetricStore,
        rng: &mut SmallRng,
    ) {
        let readings = &mut store.readings;
        readings.clear();
        readings.extend(labels.map(|label| {
            let measured = tb.topology().measured_node(label);
            let load = loads.get(&measured).copied().unwrap_or(0.0);
            Reading {
                label,
                count: 0,
                watts: perf::power_draw_w(tb.node(measured), load),
            }
        }));
        if ticks.2 == 0 || readings.is_empty() {
            return;
        }
        let buggify = tb.buggify();
        // The callsite is hashed once per call, not once per sample.
        let chaos = buggify.keyed("kwapi-sample");
        let reach = store.records.last().map_or(SimTime::ZERO, |r| r.reach);
        let head = store.arenas.record(
            readings,
            ticks,
            self.noise,
            reach,
            buggify.enabled(),
            // Buggify: a chaos-armed campaign occasionally loses a sample
            // (flaky wattmeter read). Hashed from (node, instant) — no RNG
            // draw, so the decision replays identically across engines.
            // At the default chaos rates the loss stays far below the 20%
            // per-label gap the kwapi family alarms on.
            |label, t| chaos.fire(label.0 as u64 ^ t.as_nanos()),
            rng,
        );
        let r = store.records.len();
        store.records.push(head);
        let call = store.arenas.call(head);
        for (j, reading) in call.readings.iter().enumerate() {
            let (Some(state), Some(k)) = (
                store.labels.get_mut(reading.label.index()),
                call.last_kept_tick(j),
            ) else {
                continue;
            };
            state.until = call.tick_at(k).saturating_add(SimDuration::from_nanos(1));
            state.total += u64::from(reading.count);
            state.last = r;
        }
    }
}

/// Every wattmeter label of the testbed, in node order.
fn all_labels(tb: &Testbed) -> impl Iterator<Item = NodeId> + '_ {
    tb.nodes().iter().map(|n| n.id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_sim::rng::stream_rng;
    use ttt_testbed::{FaultKind, FaultTarget, SiteId, TestbedBuilder};

    fn setup() -> (Testbed, MetricStore) {
        let tb = TestbedBuilder::small().build();
        let store = MetricStore::new(tb.nodes().len(), 600, SimDuration::from_mins(1));
        (tb, store)
    }

    #[test]
    fn idle_power_is_recorded_at_one_hz() {
        let (tb, mut store) = setup();
        let mut rng = stream_rng(1, "kwapi");
        let sampler = PowerSampler::default();
        sampler.run(
            &tb,
            &BTreeMap::new(),
            SimTime::ZERO,
            SimTime::from_secs(60),
            &mut store,
            &mut rng,
        );
        let n = tb.nodes()[0].id;
        assert_eq!(store.power(n).raw_len(), 60);
        let samples = store.power(n).range(SimTime::ZERO, SimTime::MAX);
        let instants: Vec<u64> = samples.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(instants, (1..=60).collect::<Vec<_>>());
        // Idle draw of an 8-core node is around 55 + 2.2*8 + 18 ≈ 90 W.
        let mean = store
            .power(n)
            .mean(SimTime::ZERO, SimTime::from_secs(61))
            .unwrap();
        assert!((70.0..120.0).contains(&mean), "mean {mean} W");
    }

    #[test]
    fn load_shows_up_on_the_right_wattmeter() {
        let (tb, mut store) = setup();
        let mut rng = stream_rng(2, "kwapi");
        let sampler = PowerSampler::default();
        let target = tb.nodes()[0].id;
        let mut loads = BTreeMap::new();
        loads.insert(target, 1.0);
        sampler.run(
            &tb,
            &loads,
            SimTime::ZERO,
            SimTime::from_secs(30),
            &mut store,
            &mut rng,
        );
        let loaded = store
            .power(target)
            .mean(SimTime::ZERO, SimTime::from_mins(1))
            .unwrap();
        let other = store
            .power(tb.nodes()[1].id)
            .mean(SimTime::ZERO, SimTime::from_mins(1))
            .unwrap();
        assert!(
            loaded > other + 20.0,
            "loaded node should draw visibly more ({loaded} vs {other})"
        );
    }

    #[test]
    fn cabling_swap_misattributes_load() {
        let (mut tb, mut store) = setup();
        let cluster = &tb.clusters()[0];
        let (a, b) = (cluster.nodes[0], cluster.nodes[1]);
        tb.apply_fault(FaultKind::CablingSwap, FaultTarget::NodePair(a, b), SimTime::ZERO)
            .unwrap();
        let mut rng = stream_rng(3, "kwapi");
        let sampler = PowerSampler::default();
        // Load node a only.
        let mut loads = BTreeMap::new();
        loads.insert(a, 1.0);
        sampler.run(
            &tb,
            &loads,
            SimTime::ZERO,
            SimTime::from_secs(30),
            &mut store,
            &mut rng,
        );
        let shown_for_a = store.power(a).mean(SimTime::ZERO, SimTime::from_mins(1)).unwrap();
        let shown_for_b = store.power(b).mean(SimTime::ZERO, SimTime::from_mins(1)).unwrap();
        // The dashboard shows the load on b, not a: the paper's bug.
        assert!(
            shown_for_b > shown_for_a + 20.0,
            "swap should misattribute ({shown_for_a} vs {shown_for_b})"
        );
    }

    #[test]
    fn dead_node_reads_zero() {
        let (mut tb, mut store) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let mut rng = stream_rng(4, "kwapi");
        PowerSampler::default().sample_all(
            &tb,
            &BTreeMap::new(),
            SimTime::from_secs(1),
            &mut store,
            &mut rng,
        );
        let (_, w) = store.power(n).latest().unwrap();
        assert_eq!(w, 0.0);
    }

    #[test]
    fn a_label_the_store_does_not_track_reads_as_never_sampled() {
        // Two rings on a testbed of many wattmeters, beside a store that
        // tracks them all: same calls, same stream.
        let (tb, mut full) = setup();
        assert!(tb.nodes().len() > 2);
        let mut store = MetricStore::new(2, 600, SimDuration::from_mins(1));
        let mut rng = stream_rng(6, "kwapi");
        let mut full_rng = rng.clone();
        let sampler = PowerSampler::default();
        let idle = BTreeMap::new();
        let t = SimTime::from_secs;
        for (store, rng) in [(&mut store, &mut rng), (&mut full, &mut full_rng)] {
            sampler.run(&tb, &idle, t(0), t(30), store, rng);
            sampler.run_site(&tb, SiteId(0), &idle, t(30), t(60), store, rng);
            sampler.sample_all(&tb, &idle, t(61), store, rng);
        }
        // The two labels it keeps hold what the full store holds for them,
        // and the stream stands where the full store left it.
        let everything = (SimTime::ZERO, SimTime::MAX);
        for label in [NodeId(0), NodeId(1)] {
            assert_eq!(store.power(label).raw_len(), 61);
            assert_eq!(
                store.power(label).range(everything.0, everything.1),
                full.power(label).range(everything.0, everything.1)
            );
        }
        assert_eq!(rand::RngCore::next_u64(&mut rng), rand::RngCore::next_u64(&mut full_rng));
        // Everyone else reads as never sampled: an empty series, and a
        // window read that is counted like any other and serves nothing.
        store.set_buggify(Buggify::new(99, 0.3));
        for (read, label) in [NodeId(2), tb.nodes()[9].id, NodeId(9999), NodeId(u32::MAX)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(store.power(label).raw_len(), 0);
            assert_eq!(store.power(label).mean(everything.0, everything.1), None);
            let refused = Buggify::new(99, 0.3).fire_hashed("kwapi-window", read as u64 + 1);
            let expected = if refused { Err(RpcError::Refused) } else { Ok(None) };
            assert_eq!(store.window(label, everything.0, everything.1), expected);
        }
        let mut rows = Vec::new();
        store.windows(everything.0, everything.1, |label, agg| rows.push((label, agg.count)));
        assert!(rows.iter().all(|&(label, count)| label.0 < 2 && count == 61), "{rows:?}");
    }

    #[test]
    fn any_store_shape_constructs_and_reads() {
        // No capacity holds no raw sample and consolidates every one; a
        // capacity no testbed reaches reserves a bounded arena and evicts
        // nothing. 30 samples each, so 29 closed points when every sample
        // is evicted (the newest period stays open).
        let tb = TestbedBuilder::small().build();
        let label = tb.nodes()[0].id;
        let secs = SimDuration::from_secs;
        for (capacity, period, held, folded) in [
            (0, SimDuration::ZERO, 0, 29),
            (0, secs(10), 0, 29),
            (usize::MAX, SimDuration::ZERO, 30, 0),
        ] {
            let mut store = MetricStore::new(tb.nodes().len(), capacity, period);
            let mut rng = stream_rng(7, "kwapi");
            let idle = BTreeMap::new();
            PowerSampler::default().run(&tb, &idle, SimTime::ZERO, SimTime::from_secs(30), &mut store, &mut rng);
            let series = store.power(label);
            assert_eq!(series.raw_len(), held);
            assert_eq!(series.latest().is_some(), held > 0);
            let points = series.consolidated();
            assert_eq!(points.iter().map(|c| c.count).sum::<u32>(), folded);
        }
    }

    #[test]
    fn window_reads_refuse_by_read_count_alone() {
        // The chaos decision hashes the monotone read counter: read `i`
        // is refused exactly when the hook fires on salt `i`, whatever
        // node or window it asks for, and a served read is the ring's own.
        let (tb, mut store) = setup();
        let mut rng = stream_rng(5, "kwapi");
        PowerSampler::default().run(
            &tb,
            &BTreeMap::new(),
            SimTime::ZERO,
            SimTime::from_secs(90),
            &mut store,
            &mut rng,
        );
        let buggify = Buggify::new(99, 0.3);
        store.set_buggify(buggify);
        let (mut refused, mut served) = (0, 0);
        for i in 1..=400u64 {
            let node = tb.nodes()[i as usize % tb.nodes().len()].id;
            // Full, partial, empty and inverted windows alike.
            let from = SimTime::from_secs(i % 120);
            let to = SimTime::from_secs((i * 7) % 120);
            let got = store.window(node, from, to);
            if buggify.fire_hashed("kwapi-window", i) {
                assert_eq!(got, Err(RpcError::Refused), "read {i}");
                refused += 1;
            } else {
                assert_eq!(got, Ok(store.power(node).window(from, to)), "read {i}");
                served += 1;
            }
        }
        assert!(refused > 50 && served > 50, "{refused} refused, {served} served");
    }
}
