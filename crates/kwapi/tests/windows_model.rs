//! Model-based check of the store's section read.
//!
//! `MetricStore::windows` serves a whole epoch's power windows in one call
//! and never opens a ring whose newest sample is older than the window.
//! The reference below is the walk it replaced, as the publisher ran it:
//! label by label, skip the rings that never sampled, one counted `window`
//! read for every other. Twin stores under armed chaos take the same
//! samples; after every step the two reads must give the same rows, bit
//! for bit, and leave the read counter — the salt of every later chaos
//! decision — where the walk leaves it.

use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use ttt_kwapi::{MetricStore, PowerSampler, WindowAgg};
use ttt_sim::rng::stream_rng;
use ttt_sim::{Buggify, SimDuration, SimTime};
use ttt_testbed::gen::grid_specs;
use ttt_testbed::{NodeId, SiteId, Testbed, TestbedBuilder};

const CAPACITY: usize = 600;

/// A row with its floats as bit patterns.
type RowBits = (u32, u32, [u64; 3]);

fn row_bits(label: NodeId, w: WindowAgg) -> RowBits {
    (label.0, w.count, [w.min, w.mean, w.max].map(f64::to_bits))
}

/// The publisher's walk before the store answered the section itself.
fn reference_windows(store: &mut MetricStore, from: SimTime, to: SimTime) -> Vec<RowBits> {
    let mut rows = Vec::new();
    for label in (0..store.len() as u32).map(NodeId) {
        if store.power(label).raw_len() == 0 {
            continue;
        }
        if let Ok(Some(agg)) = store.window(label, from, to) {
            rows.push(row_bits(label, agg));
        }
    }
    rows
}

/// One sampling step, applied alike to both stores: each draws from where
/// `rng` stood, and `rng` ends where either left it.
fn sample_both(
    stores: [&mut MetricStore; 2],
    rng: &mut SmallRng,
    step: impl Fn(&mut MetricStore, &mut SmallRng),
) {
    let before = rng.clone();
    for store in stores {
        *rng = before.clone();
        step(store, rng);
    }
}

fn run(tb: &Testbed, seed: u64, steps: usize) -> (usize, usize, usize) {
    let n = tb.nodes().len();
    let new_store = || {
        let mut store = MetricStore::new(n, CAPACITY, SimDuration::from_mins(1));
        store.set_buggify(Buggify::new(seed, 0.3));
        store
    };
    let (mut got, mut want) = (new_store(), new_store());
    let mut draws = stream_rng(seed, "windows-model");
    let mut noise = stream_rng(seed, "windows-model-noise");
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
                sample_both([&mut got, &mut want], &mut noise, |store, rng| {
                    sampler.run_site(tb, site, &idle, clock, to, store, rng)
                });
                (before, clock) = (clock, to);
            }
            3 => {
                let t = clock + secs(draws.gen_range(0..=2));
                sample_both([&mut got, &mut want], &mut noise, |store, rng| {
                    sampler.sample_all(tb, &idle, t, store, rng)
                });
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
        let mut rows = Vec::new();
        got.windows(from, to, |label, agg| rows.push(row_bits(label, agg)));
        let expected = reference_windows(&mut want, from, to);
        assert_eq!(
            rows, expected,
            "seed {seed} step {step}: [{from:?}, {to:?})"
        );
        rows_seen += rows.len();
        skipped_rings += (0..n as u32)
            .map(|l| want.power(NodeId(l)).latest())
            .filter(|newest| newest.is_some_and(|(t, _)| t < from))
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
        .filter(|&l| !want.power(NodeId(l)).consolidated().is_empty())
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
