//! The untraced run: end-to-end metrics of one workload, two clock reads
//! per rep and nothing else inside the timed region. Clocks are reported
//! at host speed 1 (see `yardstick.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use ttt_core::{Campaign, CampaignConfig};
use ttt_scengen::CampaignDigest;

use crate::alloc;
use crate::readers;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use crate::yardstick::Yardstick;

/// Timed `Campaign::new` calls before each campaign rep, the samples
/// behind `setup_s`.
const SETUPS_PER_REP: usize = 3;
/// Share of the measuring time spent on set-ups and campaign reps; the
/// rest serves queries.
const RUN_SHARE: f64 = 0.65;

/// A median with its quartiles and sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile (the median itself below two samples).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples summarised.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let m = median(samples);
        let (q1, q3) = quartiles(samples).unwrap_or((m, m));
        Summary {
            median: m,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A rate measured at host speed `speed`, as it would read at speed 1.
    fn at_speed_1(self, speed: f64) -> Self {
        Summary {
            median: self.median / speed,
            q1: self.q1 / speed,
            q3: self.q3 / speed,
            n: self.n,
        }
    }

    /// `quartiles [q1 .. q3] over n <what>`, for the printed line.
    pub fn detail(&self, what: &str) -> String {
        format!(
            "quartiles [{:.4} .. {:.4}] over {} {what}",
            self.q1, self.q3, self.n
        )
    }
}

/// One timed `Campaign::run`.
pub struct Rep {
    /// Wall seconds of `run`.
    pub wall_s: f64,
    /// Allocator calls during `run`.
    pub allocs: u64,
    /// Bytes requested during `run`.
    pub alloc_bytes: u64,
    /// Allocator high-water of live bytes over `new + run`, above the
    /// live bytes at the start of `new`.
    pub peak_live: i64,
    /// The finished campaign's digest.
    pub digest: CampaignDigest,
    /// Events in the structured log (0 unless the workload records it).
    pub events: usize,
    /// Snapshot epochs published (0 with the read plane disarmed).
    pub epochs: u64,
}

/// Build a campaign and run it to its horizon, timing only `run`.
pub fn rep(w: &Workload, cfg: &CampaignConfig) -> Rep {
    let cfg = cfg.clone();
    let live_before = alloc::stats().live;
    alloc::reset_peak();
    let mut campaign = Campaign::new(cfg);
    if w.record_events {
        campaign.record_events();
    }
    let before = alloc::stats();
    // detlint: allow(no-wall-clock) -- host seconds per simulated day is the measured quantity
    let start = Instant::now();
    campaign.run();
    let wall_s = start.elapsed().as_secs_f64();
    let after = alloc::stats();
    Rep {
        wall_s,
        allocs: after.calls - before.calls,
        alloc_bytes: after.bytes - before.bytes,
        peak_live: after.peak - live_before,
        digest: CampaignDigest::capture(&campaign),
        events: campaign.take_event_log().map_or(0, |log| log.len()),
        epochs: campaign.snapshot_hub().map_or(0, |hub| hub.published()),
    }
}

/// Wall seconds of one `Campaign::new`.
fn setup_once(cfg: &CampaignConfig) -> f64 {
    let cfg = cfg.clone();
    // detlint: allow(no-wall-clock) -- host seconds of set-up is the measured quantity
    let start = Instant::now();
    let campaign = Campaign::new(cfg);
    let s = start.elapsed().as_secs_f64();
    drop(campaign);
    s
}

/// Everything an untraced run reports. The three clocks are scaled to host
/// speed 1; multiply a rate (divide `setup_s`) by `host_speed` for the value
/// the wall clock read.
pub struct EndToEnd {
    /// The yardstick's median rate over the run, as a share of nominal.
    pub host_speed: f64,
    /// Median wall seconds of `Campaign::new`.
    pub setup_s: f64,
    /// Simulated days per wall second of `Campaign::run`.
    pub sim_days_per_s: Summary,
    /// Allocator calls per simulated day of `run`, median over reps (a
    /// count: reps agree to within a call or two, see `core.alloc_jitter`).
    pub allocs_per_sim_day: f64,
    /// KiB requested per simulated day of `run`, median over reps.
    pub alloc_kib_per_sim_day: f64,
    /// High-water of live MiB over `new + run`, median over reps.
    pub peak_live_mib: f64,
    /// Verified answers per wall second of the one closed-loop reader.
    pub queries_per_s: Summary,
    /// Operations attempted: campaign reps plus queries answered.
    pub attempted: u64,
    /// Operations failed: reps that panicked or whose digest differs from
    /// the first rep's, and answers whose fold mismatches the reference.
    pub failed: u64,
}

/// Processors the host offers (`host.cpus`).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Measure one workload end to end for about `seconds` wall seconds.
///
/// Set-ups, campaign reps, query passes and yardstick slices alternate for
/// the whole run, so a slow phase of the host falls on every metric's
/// samples and on the yardstick's alike.
pub fn measure(w: &Workload, seed: u64, seconds: f64, quick: bool) -> EndToEnd {
    let cfg = w.config(quick);
    let days = cfg.duration.as_secs_f64() / 86_400.0;
    let queries = if quick {
        readers::BATCH / 10
    } else {
        readers::BATCH
    };
    let held = readers::hold(&cfg, seed, queries);
    let pass_len = held.batch.len() / readers::PASSES;
    let budget = Duration::from_secs_f64(seconds);

    let mut reps: Vec<Rep> = Vec::with_capacity(1024);
    let mut setups: Vec<f64> = Vec::with_capacity(4096);
    let mut qps: Vec<f64> = Vec::with_capacity(1 << 16);
    let (mut diverged, mut panicked, mut mismatches) = (0u64, 0u64, 0u64);
    // One timed pass; returns its wall seconds.
    let pass = |qps: &mut Vec<f64>, mismatches: &mut u64| {
        let from = (qps.len() % readers::PASSES) * pass_len;
        let (wall_s, bad) = readers::serve(&held, from..from + pass_len);
        qps.push(pass_len as f64 / wall_s);
        *mismatches += bad;
        wall_s
    };
    let mut yard = Yardstick::new();
    let (mut run_side, mut read_side) = (0.0f64, 0.0f64);
    // detlint: allow(no-wall-clock) -- bounds how long the benchmark measures
    let start = Instant::now();
    // At least two reps, so every run checks that a digest repeats; a
    // workload that keeps panicking is reported, not retried to the end.
    while (reps.len() < 2 || start.elapsed() < budget) && panicked < 3 {
        // detlint: allow(no-wall-clock) -- apportions the run between its two sides
        let phase = Instant::now();
        setups.extend((0..SETUPS_PER_REP).map(|_| setup_once(&cfg)));
        match catch_unwind(AssertUnwindSafe(|| rep(w, &cfg))) {
            Ok(r) => {
                diverged += u64::from(reps.first().is_some_and(|first| r.digest != first.digest));
                reps.push(r);
            }
            Err(_) => panicked += 1,
        }
        run_side += phase.elapsed().as_secs_f64();
        yard.keep_up(start.elapsed());
        while read_side < run_side * (1.0 - RUN_SHARE) / RUN_SHARE {
            read_side += pass(&mut qps, &mut mismatches);
            yard.keep_up(start.elapsed());
        }
    }
    // Every slice of the batch is answered at least once.
    while qps.len() < readers::PASSES {
        pass(&mut qps, &mut mismatches);
    }

    let over_reps = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let rates: Vec<f64> = reps.iter().map(|r| days / r.wall_s).collect();
    let host_speed = yard.host_speed();
    EndToEnd {
        host_speed,
        setup_s: median(&setups) * host_speed,
        sim_days_per_s: Summary::of(&rates).at_speed_1(host_speed),
        allocs_per_sim_day: over_reps(|r| r.allocs as f64) / days,
        alloc_kib_per_sim_day: over_reps(|r| r.alloc_bytes as f64) / 1024.0 / days,
        peak_live_mib: over_reps(|r| r.peak_live as f64) / (1024.0 * 1024.0),
        queries_per_s: Summary::of(&qps).at_speed_1(host_speed),
        attempted: reps.len() as u64 + panicked + (qps.len() * pass_len) as u64,
        failed: diverged + panicked + mismatches,
    }
}
