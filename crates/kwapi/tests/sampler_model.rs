//! Model-based check of the power sampler.
//!
//! `PowerSampler::{run, run_site}` derive what each wattmeter reads before
//! noise once per call, over the sampled site's own nodes. The reference
//! below is the sampler they replaced: every simulated second it walks
//! every node of the testbed, filters by site, and looks wiring, load and
//! draw up again for each sample. The two must leave every series — raw
//! ring and consolidated history — and the RNG bit-for-bit equal, whatever
//! the wiring, the loads, the chaos rate or the layout of sites in the
//! node arena.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
use ttt_kwapi::{MetricStore, PowerSampler};
use ttt_sim::rng::stream_rng;
use ttt_sim::{Buggify, SimDuration, SimTime};
use ttt_testbed::gen::{grid_specs, ClusterSpec};
use ttt_testbed::{perf, FaultKind, FaultTarget, NodeId, SiteId, Testbed, TestbedBuilder, Vendor};

/// One tick of the old sampler; `site: None` samples every node.
fn reference_tick(
    sampler: &PowerSampler,
    tb: &Testbed,
    site: Option<SiteId>,
    loads: &BTreeMap<NodeId, f64>,
    t: SimTime,
    store: &mut MetricStore,
    rng: &mut SmallRng,
) {
    for node in tb.nodes() {
        if site.is_some_and(|s| node.site != s) {
            continue;
        }
        if tb
            .buggify()
            .fire_hashed("kwapi-sample", node.id.0 as u64 ^ t.as_nanos())
        {
            continue;
        }
        let measured = tb.topology().measured_node(node.id);
        let load = loads.get(&measured).copied().unwrap_or(0.0);
        let true_w = perf::power_draw_w(tb.node(measured), load);
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let noisy = true_w * (1.0 + sampler.noise * gaussian);
        store.push(node.id, t, noisy.max(0.0));
    }
}

fn reference_run(
    sampler: &PowerSampler,
    tb: &Testbed,
    site: Option<SiteId>,
    loads: &BTreeMap<NodeId, f64>,
    (from, to): (SimTime, SimTime),
    store: &mut MetricStore,
    rng: &mut SmallRng,
) {
    let mut t = from + sampler.period;
    while t <= to {
        reference_tick(sampler, tb, site, loads, t, store, rng);
        t += sampler.period;
    }
}

/// Raw `(instant, watts)` samples, then consolidated `(period start,
/// [min, mean, max], count)` points, floats as their bit patterns.
type SeriesBits = (Vec<(SimTime, u64)>, Vec<(SimTime, [u64; 3], u32)>);

/// Every bit a series holds.
fn bits(store: &MetricStore, node: NodeId) -> SeriesBits {
    let series = store.power(node);
    let raw = series.range(SimTime::ZERO, SimTime::MAX);
    assert_eq!(raw.len(), series.raw_len());
    (
        raw.into_iter().map(|(t, w)| (t, w.to_bits())).collect(),
        series
            .consolidated()
            .iter()
            .map(|c| {
                (
                    c.period_start,
                    [c.min, c.mean, c.max].map(f64::to_bits),
                    c.count,
                )
            })
            .collect(),
    )
}

/// Three sites whose clusters interleave in the spec list, so no site's
/// node ids are contiguous: east 0–2 and 5–6, west 3–4 and 10–13,
/// north 7–9.
fn interleaved() -> Testbed {
    let s = |name, site, nodes, cores| {
        ClusterSpec::new(name, site, nodes, cores, Vendor::Dell, false, false)
    };
    TestbedBuilder::from_specs(vec![
        s("a", "east", 3, 8),
        s("b", "west", 2, 16),
        s("c", "east", 2, 4),
        s("d", "north", 3, 12),
        s("e", "west", 4, 20),
    ])
    .build()
}

#[test]
fn sampler_matches_the_tick_by_tick_reference() {
    // What gets sampled: each site, a site id the testbed does not have,
    // and (`None`) the whole testbed through `run`.
    let targets = [
        Some(SiteId(0)),
        Some(SiteId(1)),
        Some(SiteId(2)),
        Some(SiteId(7)),
        None,
    ];
    let (east, west, north) = (NodeId(5), NodeId(11), NodeId(8));
    for case in 0..16u64 * targets.len() as u64 {
        let site = targets[case as usize % targets.len()];
        let knobs = case / targets.len() as u64;
        let mut tb = interleaved();
        let at = SimTime::ZERO;
        if knobs & 1 != 0 {
            // East's wattmeter 5 now reads a west node and the reverse:
            // whichever of the two sites is sampled, one of its labels
            // measures a node it does not own.
            tb.apply_fault(
                FaultKind::CablingSwap,
                FaultTarget::NodePair(east, west),
                at,
            )
            .unwrap();
            tb.apply_fault(
                FaultKind::CablingSwap,
                FaultTarget::NodePair(NodeId(0), NodeId(2)),
                at,
            )
            .unwrap();
        }
        if knobs & 2 != 0 {
            tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(NodeId(1)), at)
                .unwrap();
            tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(west), at)
                .unwrap();
            tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(north), at)
                .unwrap();
        }
        if knobs & 4 != 0 {
            tb.set_buggify(Buggify::new(case, 0.3));
        }
        let mut loads = BTreeMap::new();
        loads.insert(NodeId(0), 1.0);
        loads.insert(east, 0.6);
        if knobs & 8 != 0 {
            // Load on nodes no sampled east label measures (unless swapped).
            loads.insert(west, 0.8);
            loads.insert(north, 1.7);
        }

        // Seven raw samples per ring and 5 s periods: a minute of sampling
        // evicts into, and closes, several consolidated points per node.
        let new_store = || MetricStore::new(tb.nodes().len(), 7, SimDuration::from_secs(5));
        let (mut got, mut want) = (new_store(), new_store());
        let mut got_rng = stream_rng(case, "sampler-model");
        let mut want_rng = got_rng.clone();
        let sampler = PowerSampler {
            period: SimDuration::from_secs(1),
            noise: 0.05,
        };
        // The kwapi family's two calls — 20 s idle, 40 s loaded — then a
        // third on a coarser clock that overshoots its window.
        let slow = PowerSampler {
            period: SimDuration::from_secs(7),
            noise: 0.2,
        };
        let idle = BTreeMap::new();
        let t = SimTime::from_secs;
        for (sampler, loads, window) in [
            (&sampler, &idle, (t(100), t(120))),
            (&sampler, &loads, (t(120), t(160))),
            (&slow, &loads, (t(160), t(200))),
        ] {
            match site {
                Some(s) => {
                    sampler.run_site(&tb, s, loads, window.0, window.1, &mut got, &mut got_rng)
                }
                None => sampler.run(&tb, loads, window.0, window.1, &mut got, &mut got_rng),
            }
            reference_run(sampler, &tb, site, loads, window, &mut want, &mut want_rng);
        }

        for node in tb.nodes() {
            assert_eq!(
                bits(&got, node.id),
                bits(&want, node.id),
                "case {case}: series of {}",
                node.name
            );
        }
        assert_eq!(
            got_rng.next_u64(),
            want_rng.next_u64(),
            "case {case}: RNG position"
        );
        // The reference is not vacuous: it sampled what the case names.
        let sampled = tb
            .nodes()
            .iter()
            .filter(|n| want.power(n.id).raw_len() > 0)
            .count();
        let expected = match site {
            Some(s) => tb.nodes().iter().filter(|n| n.site == s).count(),
            None => tb.nodes().len(),
        };
        assert_eq!(sampled, expected, "case {case}");
    }
}

#[test]
fn sample_all_is_one_tick_of_the_reference() {
    let mut tb = TestbedBuilder::small().build();
    let (a, b) = (tb.nodes()[1].id, tb.nodes()[9].id);
    tb.apply_fault(
        FaultKind::CablingSwap,
        FaultTarget::NodePair(a, b),
        SimTime::ZERO,
    )
    .unwrap();
    tb.set_buggify(Buggify::new(3, 0.2));
    let loads = BTreeMap::from([(a, 1.0)]);
    let new_store = || MetricStore::new(tb.nodes().len(), 4, SimDuration::from_secs(3));
    let (mut got, mut want) = (new_store(), new_store());
    let mut got_rng = stream_rng(9, "sampler-model");
    let mut want_rng = got_rng.clone();
    let sampler = PowerSampler::default();
    for s in 1..=20 {
        let t = SimTime::from_secs(s);
        sampler.sample_all(&tb, &loads, t, &mut got, &mut got_rng);
        reference_tick(&sampler, &tb, None, &loads, t, &mut want, &mut want_rng);
    }
    for node in tb.nodes() {
        assert_eq!(
            bits(&got, node.id),
            bits(&want, node.id),
            "series of {}",
            node.name
        );
    }
    assert_eq!(got_rng.next_u64(), want_rng.next_u64());
}

#[test]
fn a_kwapi_run_costs_its_own_site() {
    // The 64-site grid of `grid64_week`: 1 024 nodes, 16 per site.
    let tb = TestbedBuilder::from_specs(grid_specs(64, 2, 8)).build();
    let g0 = tb.site_by_name("g0").unwrap().id;
    let own: Vec<NodeId> = tb
        .nodes()
        .iter()
        .filter(|n| n.site == g0)
        .map(|n| n.id)
        .collect();
    assert_eq!((tb.nodes().len(), own.len()), (1024, 16));
    let mut store = MetricStore::new(tb.nodes().len(), 3600, SimDuration::from_mins(1));
    let mut rng = stream_rng(1, "width");
    let mut fresh = rng.clone();

    let sampler = PowerSampler::default();
    let t = SimTime::from_secs;
    sampler.run_site(&tb, g0, &BTreeMap::new(), t(0), t(20), &mut store, &mut rng);
    let loads = BTreeMap::from([(own[0], 1.0)]);
    sampler.run_site(&tb, g0, &loads, t(20), t(60), &mut store, &mut rng);

    for node in tb.nodes() {
        let expected = if node.site == g0 { 60 } else { 0 };
        assert_eq!(store.power(node.id).raw_len(), expected, "{}", node.name);
    }
    // Two draws (one Box–Muller pair) per sample, and none for anyone else.
    for _ in 0..2 * 60 * 16 {
        fresh.next_u64();
    }
    assert_eq!(rng.next_u64(), fresh.next_u64());
}

/// An RNG that refuses to be drawn from more than `left` times.
struct Budget {
    inner: SmallRng,
    left: u32,
}

impl RngCore for Budget {
    fn next_u64(&mut self) -> u64 {
        self.left = self
            .left
            .checked_sub(1)
            .expect("tick budget spent: the sampler is not terminating");
        self.inner.next_u64()
    }
}

#[test]
fn a_zero_period_samples_nothing_and_returns() {
    // Regression: `t += 0` under `while t <= to` never ended. Every tick
    // draws, so the budget turns the hang into a failure.
    let tb = TestbedBuilder::small().build();
    let mut store = MetricStore::new(tb.nodes().len(), 16, SimDuration::from_mins(1));
    let mut rng = Budget {
        inner: stream_rng(1, "zero"),
        left: 10_000,
    };
    let stopped = PowerSampler {
        period: SimDuration::ZERO,
        noise: 0.01,
    };
    let (from, to) = (SimTime::from_secs(5), SimTime::from_secs(65));
    stopped.run(&tb, &BTreeMap::new(), from, to, &mut store, &mut rng);
    stopped.run_site(
        &tb,
        SiteId(0),
        &BTreeMap::new(),
        from,
        to,
        &mut store,
        &mut rng,
    );
    assert_eq!(rng.left, 10_000, "no tick, no draw");
    assert!(tb.nodes().iter().all(|n| store.power(n.id).raw_len() == 0));
    // `sample_all` names its instant and has no clock to stop.
    stopped.sample_all(&tb, &BTreeMap::new(), to, &mut store, &mut rng);
    assert!(tb.nodes().iter().all(|n| store.power(n.id).raw_len() == 1));
}
