//! The yardstick: a fixed piece of work of the benchmark's own, timed in
//! millisecond slices between the samples of an untraced run, so that the
//! run knows how fast its host was while it measured.
//!
//! The benchmark's hosts are a few virtual CPUs of a shared machine whose
//! speed on memory-touching code wanders by up to 2x for seconds to minutes
//! at a time (an arithmetic-only loop barely notices; `runq_wait_share`
//! stays near zero). No median inside a 20-second run removes a slow phase
//! that outlasts the run, and ten runs of one binary then spread by 15-30 %.
//! The yardstick slows with the program, and no change to the program can
//! move it, so clocks divided by it repeat to a few percent (README, "Noise").

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Entries in the map the yardstick looks up: about 400 KiB of keys, nodes
/// and values, the program's kind of working set.
const ENTRIES: u32 = 4096;
/// Lookups in one timed slice, about a millisecond.
const SLICE_OPS: u32 = 4000;
/// Share of a run's wall time the yardstick takes.
const SHARE: f64 = 0.10;
/// Lookups per second at host speed 1: what the reference host (a 2.1 GHz
/// Xeon guest) does when nothing disturbs it. Only a unit: it scales parent
/// and change alike.
const NOMINAL_OPS_PER_S: f64 = 4.5e6;

/// The map, the generator that draws keys, and the slices timed so far.
pub struct Yardstick {
    map: BTreeMap<String, Vec<u32>>,
    x: u64,
    rates: Vec<f64>,
    spent: Duration,
}

fn key(i: u32) -> String {
    format!("node-{i}.site-{}", i % 64)
}

impl Yardstick {
    /// Build the map; nothing is timed yet.
    pub fn new() -> Self {
        Yardstick {
            map: (0..ENTRIES)
                .map(|i| (key(i), (0..i % 7 + 2).collect()))
                .collect(),
            x: 88_172_645_463_325_252,
            // Pre-sized for a 600-second run, so it never regrows.
            rates: Vec::with_capacity(1 << 16),
            spent: Duration::ZERO,
        }
    }

    /// One timed slice: format a key, find it, copy and fold its value --
    /// string formatting, pointer chasing and small allocations, the mix
    /// the campaign and the query engine are made of.
    fn slice(&mut self) {
        // detlint: allow(no-wall-clock) -- host speed is the measured quantity
        let start = Instant::now();
        let mut fold = 0u64;
        for _ in 0..SLICE_OPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let wanted = key((self.x % u64::from(ENTRIES)) as u32);
            if let Some(value) = self.map.get(&wanted) {
                let copy: Vec<u32> = value.iter().map(|e| e + 1).collect();
                fold += copy.iter().map(|e| u64::from(*e)).sum::<u64>();
            }
        }
        black_box(fold);
        let wall = start.elapsed();
        self.spent += wall;
        self.rates.push(f64::from(SLICE_OPS) / wall.as_secs_f64());
    }

    /// Time slices until the yardstick has had its share of `elapsed`, the
    /// wall time of the run so far. Called between samples, so the slices
    /// fall all along the run.
    pub fn keep_up(&mut self, elapsed: Duration) {
        while self.spent < elapsed.mul_f64(SHARE) {
            self.slice();
        }
    }

    /// The host's speed over the run: the median slice's rate over the
    /// nominal one.
    pub fn host_speed(&self) -> f64 {
        median(&self.rates) / NOMINAL_OPS_PER_S
    }
}
