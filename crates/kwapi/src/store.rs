//! The metric store and the ~1 Hz power sampler.

use crate::series::{RingSeries, WindowAgg, UNTRACKED};
use rand::Rng;
use std::collections::BTreeMap;
use ttt_sim::{Buggify, RpcError, SimDuration, SimTime};
use ttt_testbed::{perf, NodeId, SiteId, Testbed};

/// Per-node power series, keyed by *wattmeter label* (which equals the node
/// id when the wiring is correct). A label at or past [`MetricStore::len`]
/// is one the store does not track: it reads as never sampled and a push
/// to it is dropped.
///
/// The store is the only writer of its rings — samples arrive through
/// [`MetricStore::push`] alone — so what it keeps beside them stays true.
#[derive(Debug)]
pub struct MetricStore {
    power: Vec<RingSeries>,
    /// Per label, the instant one nanosecond past its newest sample;
    /// `SimTime::ZERO` while it never sampled. Dense, so a section read
    /// ([`MetricStore::windows`]) learns which rings can hold a row
    /// without opening any of them.
    sampled_until: Vec<SimTime>,
    /// Sampler scratch: `(label, watts before sensor noise)` for each
    /// wattmeter of the sampling call in progress. Kept here so a sampling
    /// run allocates nothing once it has seen its widest site.
    readings: Vec<(NodeId, f64)>,
    /// Chaos hook: when armed, a window read over the REST API can be
    /// refused. Off by default.
    buggify: Buggify,
    /// Monotone count of window reads — the rng-free buggify salt.
    window_reads: u64,
}

impl MetricStore {
    /// Create a store for `n` nodes, keeping `capacity` raw samples per
    /// node and consolidating over `period`.
    pub fn new(n: usize, capacity: usize, period: SimDuration) -> Self {
        MetricStore {
            power: (0..n).map(|_| RingSeries::new(capacity, period)).collect(),
            sampled_until: vec![SimTime::ZERO; n],
            readings: Vec::new(),
            buggify: Buggify::off(),
            window_reads: 0,
        }
    }

    /// Arm (or disarm) the refused-window-read chaos hook. Rate 0 keeps
    /// every read identical to an unarmed store.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Record one sample of the wattmeter labelled `node`. Samples of one
    /// label must arrive in non-decreasing time order.
    pub fn push(&mut self, node: NodeId, t: SimTime, watts: f64) {
        if let Some(ring) = self.power.get_mut(node.index()) {
            ring.push(t, watts);
            self.sampled_until[node.index()] = t.saturating_add(SimDuration::from_nanos(1));
        }
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
    /// row whatever chaos decides: its read is counted and neither its
    /// ring nor the hash is touched, so a call costs the labels sampled
    /// since `from` plus eight bytes per label.
    pub fn windows(&mut self, from: SimTime, to: SimTime, mut row: impl FnMut(NodeId, WindowAgg)) {
        for i in 0..self.sampled_until.len() {
            let until = self.sampled_until[i];
            if until == SimTime::ZERO {
                continue;
            }
            if until <= from {
                self.window_reads += 1;
                continue;
            }
            let label = NodeId(i as u32);
            if let Ok(Some(agg)) = self.window(label, from, to) {
                row(label, agg);
            }
        }
    }

    /// The power series reported for (the wattmeter labelled) `node`.
    pub fn power(&self, node: NodeId) -> &RingSeries {
        self.power.get(node.index()).unwrap_or(&UNTRACKED)
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the store tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
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
/// per call, and a tick costs only the chaos check, the noise draw and the
/// push.
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
    pub fn sample_all<R: Rng>(
        &self,
        tb: &Testbed,
        loads: &BTreeMap<NodeId, f64>,
        t: SimTime,
        store: &mut MetricStore,
        rng: &mut R,
    ) {
        self.sample(tb, all_labels(tb), loads, std::iter::once(t), store, rng);
    }

    /// Sample one site continuously from `from` (exclusive) to `to`
    /// (inclusive) at the configured period. The real service is per-site;
    /// this also keeps per-label series time-ordered when several sites'
    /// monitoring checks run in the same campaign tick. Only the site's own
    /// wattmeters are visited, in node order; an unknown site has none.
    #[allow(clippy::too_many_arguments)]
    pub fn run_site<R: Rng>(
        &self,
        tb: &Testbed,
        site: SiteId,
        loads: &BTreeMap<NodeId, f64>,
        from: SimTime,
        to: SimTime,
        store: &mut MetricStore,
        rng: &mut R,
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
    pub fn run<R: Rng>(
        &self,
        tb: &Testbed,
        loads: &BTreeMap<NodeId, f64>,
        from: SimTime,
        to: SimTime,
        store: &mut MetricStore,
        rng: &mut R,
    ) {
        self.sample(tb, all_labels(tb), loads, self.ticks(from, to), store, rng);
    }

    /// The sampling instants in `(from, to]`; none when the period is zero.
    fn ticks(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = SimTime> {
        let period = self.period;
        let count = match period.as_nanos() {
            0 => 0,
            p => to.as_nanos().saturating_sub(from.as_nanos()) / p,
        };
        (1..=count).map(move |k| from + period.saturating_mul(k))
    }

    /// Read the wattmeters `labels` at every instant of `ticks`, tick-major
    /// and label-minor. A wattmeter the store has no ring for is read like
    /// any other — chaos check, one Box–Muller pair — and its sample
    /// dropped, so the labels the store keeps draw exactly what they draw
    /// beside a store that tracks everyone.
    fn sample<R: Rng>(
        &self,
        tb: &Testbed,
        labels: impl Iterator<Item = NodeId>,
        loads: &BTreeMap<NodeId, f64>,
        ticks: impl Iterator<Item = SimTime>,
        store: &mut MetricStore,
        rng: &mut R,
    ) {
        let mut readings = std::mem::take(&mut store.readings);
        readings.clear();
        readings.extend(labels.map(|label| {
            let measured = tb.topology().measured_node(label);
            let load = loads.get(&measured).copied().unwrap_or(0.0);
            (label, perf::power_draw_w(tb.node(measured), load))
        }));
        let buggify = tb.buggify();
        for t in ticks {
            for &(label, true_w) in readings.iter() {
                // Buggify: a chaos-armed campaign occasionally loses a sample
                // (flaky wattmeter read). Hashed from (node, instant) — no RNG
                // draw, so the decision replays identically across engines.
                // At the default chaos rates the loss stays far below the 20%
                // per-label gap the kwapi family alarms on.
                if buggify.fire_hashed("kwapi-sample", label.0 as u64 ^ t.as_nanos()) {
                    continue;
                }
                let noisy = true_w * (1.0 + self.noise * gaussian(rng));
                store.push(label, t, noisy.max(0.0));
            }
        }
        store.readings = readings;
    }
}

/// Every wattmeter label of the testbed, in node order.
fn all_labels(tb: &Testbed) -> impl Iterator<Item = NodeId> + '_ {
    tb.nodes().iter().map(|n| n.id)
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
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
        let hz = store.power(n).observed_hz().unwrap();
        assert!((hz - 1.0).abs() < 1e-9);
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
            store.push(label, t(62), 100.0);
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
