//! Model-based check of the store's section read.
//!
//! `MetricStore::windows` serves a whole epoch's power windows in one call,
//! replaying each recorded call that reaches the window once for all its
//! labels. The reference is the eager model (`model/mod.rs`) read as the
//! publisher once read it: label by label, skip the labels that never
//! sampled, one counted `window` read for every other. Store and model
//! take the same samples under armed chaos; after every step the two reads
//! must give the same rows, bit for bit, and leave the read counter — the
//! salt of every later chaos decision — at the same number.

mod model;

use model::{store_windows, Model};
use rand::Rng;
use std::collections::BTreeMap;
use ttt_kwapi::{MetricStore, PowerSampler};
use ttt_sim::rng::stream_rng;
use ttt_sim::{Buggify, SimDuration, SimTime};
use ttt_testbed::gen::grid_specs;
use ttt_testbed::{NodeId, SiteId, Testbed, TestbedBuilder};

const CAPACITY: usize = 600;

fn run(tb: &Testbed, seed: u64, steps: usize) -> (usize, usize, usize) {
    let n = tb.nodes().len();
    let mut got = MetricStore::new(n, CAPACITY, SimDuration::from_mins(1));
    let mut want = Model::new(n, CAPACITY, SimDuration::from_mins(1));
    got.set_buggify(Buggify::new(seed, 0.3));
    want.set_buggify(Buggify::new(seed, 0.3));
    let mut draws = stream_rng(seed, "windows-model");
    let mut noise = stream_rng(seed, "windows-model-noise");
    let mut want_noise = noise.clone();
    let sampler = PowerSampler::default();
    let idle = BTreeMap::new();
    let secs = SimDuration::from_secs;
    // The newest instant anything sampled at, and the one before that run.
    let (mut clock, mut before) = (SimTime::from_secs(10_000), SimTime::from_secs(10_000));
    let (mut rows_seen, mut skipped_rings, mut refusals) = (0, 0, 0);
    for step in 0..steps {
        match draws.gen_range(0..8u8) {
            // A kwapi test: up to 90 s of one site (or of a site the
            // testbed does not have), its first sample 1 s after `clock`.
            0..=2 => {
                let site = SiteId(draws.gen_range(0..tb.sites().len() as u16 + 1));
                let to = clock + secs(draws.gen_range(0..=90));
                sampler.run_site(tb, site, &idle, clock, to, &mut got, &mut noise);
                want.run(&sampler, tb, Some(site), &idle, (clock, to), &mut want_noise);
                (before, clock) = (clock, to);
            }
            3 => {
                let t = clock + secs(draws.gen_range(0..=2));
                sampler.sample_all(tb, &idle, t, &mut got, &mut noise);
                want.tick(&sampler, tb, None, &idle, t, &mut want_noise);
                (before, clock) = (clock, t);
            }
            // Quiet time: the next window may hold nothing at all.
            4 => clock += secs(draws.gen_range(1..=7_200)),
            _ => {}
        }
        // The section read. `from` inclusive and `to` exclusive are probed
        // on sample instants: `clock` and `before + 1 s` are ones.
        let back = secs(draws.gen_range(0..=4_000));
        let (from, to) = match draws.gen_range(0..8u8) {
            0 => (clock - back, clock),
            1 => (clock, clock + secs(1)),
            2 => (before + secs(1), clock + secs(1)),
            3 => (clock - back, before + secs(1)),
            4 => (clock, clock),
            5 => (clock, clock - back),
            6 => (clock + secs(1), SimTime::MAX),
            _ => (clock - back, clock + secs(draws.gen_range(0..=120))),
        };
        assert_eq!(noise, want_noise, "seed {seed} step {step}: RNG position");
        let rows = store_windows(&mut got, from, to);
        let expected = want.windows(from, to);
        assert_eq!(
            rows, expected,
            "seed {seed} step {step}: [{from:?}, {to:?})"
        );
        rows_seen += rows.len();
        skipped_rings += (0..n as u32)
            .filter_map(|l| want.ring(NodeId(l)).and_then(|r| r.latest()))
            .filter(|&(t, _)| t < from)
            .count();
        // Both counters stand where the walk left its own: the next reads
        // are refused on the same read numbers.
        for _ in 0..64 {
            let label = NodeId(draws.gen_range(0..n as u32 + 2));
            let from = clock - secs(draws.gen_range(0..=600));
            let (a, b) = (
                got.window(label, from, clock),
                want.window(label, from, clock),
            );
            assert_eq!(a, b, "seed {seed} step {step}: read of {label:?}");
            refusals += usize::from(a.is_err());
        }
    }
    let wrapped = (0..n as u32)
        .filter(|&l| want.pushed[l as usize] > CAPACITY)
        .count();
    assert!(wrapped > 0, "seed {seed}: no ring went past its capacity");
    (rows_seen, skipped_rings, refusals)
}

#[test]
fn section_read_matches_the_label_by_label_walk() {
    // Five sites of 4 nodes: most reads find most rings stale.
    let tb = TestbedBuilder::from_specs(grid_specs(5, 2, 2)).build();
    assert_eq!((tb.sites().len(), tb.nodes().len()), (5, 20));
    let (mut rows, mut skipped, mut refusals) = (0, 0, 0);
    for seed in 0..6 {
        let (r, s, f) = run(&tb, seed, 300);
        rows += r;
        skipped += s;
        refusals += f;
    }
    // Not vacuous: rows were served, rings were skipped, reads refused.
    assert!(rows > 1_000, "{rows} rows");
    assert!(skipped > 1_000, "{skipped} stale rings");
    assert!(refusals > 10_000, "{refusals} refusals");
}

/// `PowerSeries::count` is `window`'s count read off the records' tick
/// ranges and drop bits, with no noise replayed. Over random windows of a
/// store whose sampler drops samples under chaos and whose rings wrap
/// many times, the two agree for every label, untracked ones included.
#[test]
fn count_is_the_window_count_without_a_replay() {
    let mut tb = TestbedBuilder::from_specs(grid_specs(3, 2, 2)).build();
    let n = tb.nodes().len();
    let secs = SimDuration::from_secs;
    let (mut dropped, mut wrapped, mut counted) = (0, 0, 0u64);
    for seed in 0..8u64 {
        let chaos = if seed % 4 == 3 { 0.0 } else { 0.3 };
        tb.set_buggify(Buggify::new(seed, chaos));
        let mut store = MetricStore::new(n, 64, SimDuration::from_mins(1));
        let mut draws = stream_rng(seed, "count-model");
        let mut noise = stream_rng(seed, "count-model-noise");
        let idle = BTreeMap::new();
        // A first call over everything, before any ring wraps: under chaos
        // it keeps fewer samples than it took.
        let mut clock = SimTime::from_secs(10_000);
        PowerSampler::default().run(&tb, &idle, clock - secs(60), clock, &mut store, &mut noise);
        let kept: u32 = (0..n as u32)
            .map(|l| store.power(NodeId(l)).count(SimTime::ZERO, SimTime::MAX))
            .sum();
        assert_eq!(kept < 60 * n as u32, chaos > 0.0, "seed {seed}: {kept} kept");
        dropped += usize::from(kept < 60 * n as u32);
        for _ in 0..200 {
            let sampler = PowerSampler {
                period: secs([1, 1, 7][draws.gen_range(0..3usize)]),
                noise: 0.01,
            };
            match draws.gen_range(0..4u8) {
                0 | 1 => {
                    let site = SiteId(draws.gen_range(0..tb.sites().len() as u16));
                    let to = clock + secs(draws.gen_range(0..=120));
                    sampler.run_site(&tb, site, &idle, clock, to, &mut store, &mut noise);
                    clock = to;
                }
                2 => {
                    clock += secs(draws.gen_range(1..=3));
                    sampler.sample_all(&tb, &idle, clock, &mut store, &mut noise);
                }
                _ => clock += secs(draws.gen_range(1..=600)),
            }
            for _ in 0..16 {
                let label = NodeId(draws.gen_range(0..n as u32 + 2));
                let from = clock - secs(draws.gen_range(0..=900));
                let to = match draws.gen_range(0..4u8) {
                    0 => clock + secs(1),
                    1 => SimTime::MAX,
                    2 => from,
                    _ => clock - secs(draws.gen_range(0..=900)),
                };
                let series = store.power(label);
                let count = series.count(from, to);
                assert_eq!(
                    count,
                    series.window(from, to).map_or(0, |w| w.count),
                    "seed {seed}: {label:?} over [{from:?}, {to:?})"
                );
                counted += u64::from(count);
            }
        }
        wrapped += (0..n as u32)
            .filter(|&l| store.power(NodeId(l)).raw_len() == 64)
            .count();
    }
    // Not vacuous: chaos dropped samples, rings wrapped, samples counted.
    assert_eq!(dropped, 6);
    assert!(wrapped > 40 && counted > 10_000, "{wrapped} wrapped, {counted} counted");
}
