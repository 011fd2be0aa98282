//! Model-based check of the power sampler and the store it records into.
//!
//! `PowerSampler::{run, run_site, sample_all}` record one call each and the
//! store derives a wattmeter's samples when they are read. The reference
//! (`model/mod.rs`) is the sampler as it was before either: every
//! simulated second it walks every node of the testbed and pushes each
//! noisy sample into a ring per label. The two must leave every series —
//! raw samples, newest sample, consolidated history — every window read
//! and the RNG bit-for-bit equal, whatever the wiring, the loads, the
//! chaos rate, the interleaving of calls or the layout of sites in the
//! node arena.

mod model;

use model::{model_bits, model_window_bits, store_bits, store_window_bits, Model};
use rand::{Rng, RngCore};
use std::collections::BTreeMap;
use ttt_kwapi::{MetricStore, PowerSampler};
use ttt_sim::rng::stream_rng;
use ttt_sim::{Buggify, SimDuration, SimTime};
use ttt_testbed::gen::{grid_specs, ClusterSpec};
use ttt_testbed::{FaultKind, FaultTarget, NodeId, SiteId, Testbed, TestbedBuilder, Vendor};

/// The store's series of every node equals the model's, bit for bit.
fn assert_same_series(tb: &Testbed, got: &MetricStore, want: &Model, what: &str) {
    for node in tb.nodes() {
        assert_eq!(
            store_bits(got, node.id),
            model_bits(want, node.id),
            "{what}: series of {}",
            node.name
        );
    }
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
        let (n, period) = (tb.nodes().len(), SimDuration::from_secs(5));
        let (mut got, mut want) = (MetricStore::new(n, 7, period), Model::new(n, 7, period));
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
            want.run(sampler, &tb, site, loads, window, &mut want_rng);
        }

        assert_same_series(&tb, &got, &want, &format!("case {case}"));
        assert_eq!(
            got_rng.next_u64(),
            want_rng.next_u64(),
            "case {case}: RNG position"
        );
        // The reference is not vacuous: it sampled what the case names.
        let sampled = tb
            .nodes()
            .iter()
            .filter(|n| want.pushed[n.id.index()] > 0)
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
    let (n, period) = (tb.nodes().len(), SimDuration::from_secs(3));
    let (mut got, mut want) = (MetricStore::new(n, 4, period), Model::new(n, 4, period));
    let mut got_rng = stream_rng(9, "sampler-model");
    let mut want_rng = got_rng.clone();
    let sampler = PowerSampler::default();
    for s in 1..=20 {
        let t = SimTime::from_secs(s);
        sampler.sample_all(&tb, &loads, t, &mut got, &mut got_rng);
        want.tick(&sampler, &tb, None, &loads, t, &mut want_rng);
    }
    assert_same_series(&tb, &got, &want, "sample_all");
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

#[test]
fn a_zero_period_samples_nothing_and_returns() {
    // Regression: `t += 0` under `while t <= to` never ended. A zero
    // period has no tick, so no draw and no record.
    let tb = TestbedBuilder::small().build();
    let mut store = MetricStore::new(tb.nodes().len(), 16, SimDuration::from_mins(1));
    let mut rng = stream_rng(1, "zero");
    let untouched = rng.clone();
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
    assert_eq!(rng, untouched, "no tick, no draw");
    assert!(tb.nodes().iter().all(|n| store.power(n.id).raw_len() == 0));
    // `sample_all` names its instant and has no clock to stop.
    stopped.sample_all(&tb, &BTreeMap::new(), to, &mut store, &mut rng);
    assert!(tb.nodes().iter().all(|n| store.power(n.id).raw_len() == 1));
}

#[test]
fn interleaved_calls_read_alike_before_at_and_past_the_wrap() {
    // Sites sampled in turn on clocks of their own, so calls overlap in
    // time across sites; whole-testbed ticks and runs in between; chaos
    // on the samples and on the window reads; two labels the store does
    // not track. After every step every read must agree.
    const CAPACITY: usize = 50;
    let period = SimDuration::from_secs(5);
    let secs = SimDuration::from_secs;
    // Reads of a label whose ring had not yet filled, was exactly full,
    // or had wrapped.
    let (mut before, mut at, mut past) = (0, 0, 0);
    for seed in 0..8u64 {
        let mut tb = interleaved();
        tb.set_buggify(Buggify::new(seed, 0.2));
        if seed % 2 == 1 {
            tb.apply_fault(
                FaultKind::CablingSwap,
                FaultTarget::NodePair(NodeId(5), NodeId(11)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let tracked = tb.nodes().len() - 2;
        let mut got = MetricStore::new(tracked, CAPACITY, period);
        let mut want = Model::new(tracked, CAPACITY, period);
        got.set_buggify(Buggify::new(seed + 100, 0.3));
        want.set_buggify(Buggify::new(seed + 100, 0.3));
        let mut draws = stream_rng(seed, "interleaved-model");
        let mut rng = stream_rng(seed, "interleaved-noise");
        let mut want_rng = rng.clone();
        let sampler = PowerSampler::default();
        let idle = BTreeMap::new();
        let loaded = BTreeMap::from([(NodeId(0), 1.0), (NodeId(11), 0.5)]);
        let sites = tb.sites().len();
        // Per site (and one the testbed lacks), the last instant sampled.
        let mut clocks = vec![SimTime::from_secs(1_000); sites + 1];
        for step in 0..40 {
            let newest = *clocks.iter().max().unwrap();
            let loads = if draws.gen_bool(0.5) { &loaded } else { &idle };
            match draws.gen_range(0..7u8) {
                0..=3 => {
                    let s = draws.gen_range(0..=sites);
                    let (from, to) = (clocks[s], clocks[s] + secs(draws.gen_range(0..=30)));
                    let site = SiteId(s as u16);
                    sampler.run_site(&tb, site, loads, from, to, &mut got, &mut rng);
                    want.run(&sampler, &tb, Some(site), loads, (from, to), &mut want_rng);
                    clocks[s] = to;
                }
                4 => {
                    let t = newest + secs(draws.gen_range(0..=2));
                    sampler.sample_all(&tb, loads, t, &mut got, &mut rng);
                    want.tick(&sampler, &tb, None, loads, t, &mut want_rng);
                    clocks.fill(t);
                }
                5 => {
                    let to = newest + secs(draws.gen_range(0..=10));
                    sampler.run(&tb, loads, newest, to, &mut got, &mut rng);
                    want.run(&sampler, &tb, None, loads, (newest, to), &mut want_rng);
                    clocks.fill(to);
                }
                _ => clocks.fill(newest + secs(draws.gen_range(0..=200))),
            }
            let what = format!("seed {seed} step {step}");
            assert_eq!(rng, want_rng, "{what}: RNG position");
            assert_same_series(&tb, &got, &want, &what);
            let newest = *clocks.iter().max().unwrap();
            for _ in 0..16 {
                let label = NodeId(draws.gen_range(0..tb.nodes().len() as u32));
                let from = newest - secs(draws.gen_range(0..=120u64).min(newest.as_secs()));
                let to = from + secs(draws.gen_range(0..=90));
                assert_eq!(
                    store_window_bits(&got, label, from, to),
                    model_window_bits(&want, label, from, to),
                    "{what}: [{from:?}, {to:?}) of {label:?}"
                );
                assert_eq!(
                    got.window(label, from, to),
                    want.window(label, from, to),
                    "{what}: REST read of {label:?}"
                );
                if let Some(&pushed) = want.pushed.get(label.index()) {
                    match pushed.cmp(&CAPACITY) {
                        std::cmp::Ordering::Less => before += 1,
                        std::cmp::Ordering::Equal => at += 1,
                        std::cmp::Ordering::Greater => past += 1,
                    }
                }
            }
            // The section read of a recent window, and of everything held.
            let from = newest - secs(draws.gen_range(0..=60u64).min(newest.as_secs()));
            let to = newest + secs(draws.gen_range(0..=2));
            for (from, to) in [(from, to), (SimTime::ZERO, SimTime::MAX)] {
                assert_eq!(
                    model::store_windows(&mut got, from, to),
                    want.windows(from, to),
                    "{what}: section read [{from:?}, {to:?})"
                );
            }
        }
    }
    assert!(before > 1_000 && at > 10 && past > 1_000, "{before} / {at} / {past}");
}
