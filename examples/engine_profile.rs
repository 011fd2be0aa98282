//! Ad-hoc profiling driver for the paper-scale one-day workload (the
//! `campaign/paper_scale/one_day` bench body, runnable under a profiler).
//!
//! Pass a repeat count and optionally an engine name (`next-event`, the
//! default, or `lockstep`), e.g.
//! `cargo run --release --example engine_profile 20 lockstep`.

use std::time::Instant;
use throughout::core::scenario::scheduling_scenario;
use throughout::core::{Campaign, Engine, SchedulingMode};
use throughout::scengen::parse_engine;
use throughout::sim::SimDuration;

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let engine = match std::env::args().nth(2) {
        None => Engine::NextEvent,
        Some(name) => parse_engine(&name).unwrap_or_else(|| {
            eprintln!("unknown engine {name:?} (next-event | lockstep)");
            std::process::exit(2);
        }),
    };
    let mut total = 0u64;
    // detlint: allow(no-wall-clock) -- operator-facing timing, not simulation state
    let start = Instant::now();
    for _ in 0..reps {
        let mut cfg = scheduling_scenario(42, SchedulingMode::External);
        cfg.duration = SimDuration::from_days(1);
        cfg.engine = engine;
        // detlint: allow(no-wall-clock) -- operator-facing timing, not simulation state
        let build = Instant::now();
        let mut campaign = Campaign::new(cfg);
        let built = build.elapsed();
        // detlint: allow(no-wall-clock) -- operator-facing timing, not simulation state
        let run = Instant::now();
        campaign.run();
        println!(
            "build {:>8.2?}  run {:>8.2?}  tests_run {} stats {:?}",
            built,
            run.elapsed(),
            campaign.metrics().tests_run,
            campaign.scheduler().stats
        );
        total += campaign.metrics().tests_run;
    }
    println!(
        "{reps} reps in {:.2?} ({engine:?}), tests_run total {total}",
        start.elapsed()
    );
}
