//! Experiment E12 (slides 16–17): the external scheduler vs. the naive
//! baseline, plus the per-node-scheduling ablation (slide 23's open
//! question).
//!
//! The naive baseline is what the paper warns against: Jenkins-native cron
//! triggers with blocking waits — every build submits its testbed job and
//! holds a CI executor until the job starts, competing with user requests.
//! The external scheduler instead polls availability, retries with
//! exponential backoff, avoids peak hours and caps per-site concurrency,
//! and cancels (marking unstable) testbed jobs that cannot start at once.
//!
//! Run with: `cargo run --release --example scheduler_policies [seed]`

use throughout::core::scenario::scheduling_scenario;
use throughout::core::{Campaign, SchedulingMode};
use throughout::sim::SimDuration;

struct Row {
    label: &'static str,
    tests_run: u64,
    success: f64,
    exec_busy: f64,
    user_wait_h: f64,
    latency_h: f64,
    unstable: u64,
}

fn run(label: &'static str, seed: u64, mode: SchedulingMode, per_node: bool) -> Row {
    let mut cfg = scheduling_scenario(seed, mode);
    cfg.per_node_hardware = per_node;
    let mut c = Campaign::new(cfg);
    c.run();
    let m = c.metrics();
    Row {
        label,
        tests_run: m.tests_run,
        success: m.success_ratio() * 100.0,
        exec_busy: m.executor_busy.mean() * 100.0,
        user_wait_h: m.user_wait_hours.mean(),
        latency_h: m.test_latency_hours.mean(),
        unstable: m.unstable_builds,
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017);
    println!("30-day scheduling comparison on the paper-scale testbed (seed {seed})\n");

    let rows = vec![
        run(
            "external scheduler",
            seed,
            SchedulingMode::External,
            false,
        ),
        run(
            "naive cron + blocking wait",
            seed,
            SchedulingMode::NaiveCron {
                period: SimDuration::from_days(1),
            },
            false,
        ),
        run(
            "external + per-node hardware tests",
            seed,
            SchedulingMode::External,
            true,
        ),
    ];

    println!(
        "{:<36} {:>9} {:>9} {:>10} {:>11} {:>11} {:>9}",
        "mode", "tests", "success", "exec busy", "user wait", "latency", "unstable"
    );
    for r in rows {
        println!(
            "{:<36} {:>9} {:>8.1}% {:>9.1}% {:>9.2} h {:>9.2} h {:>9}",
            r.label, r.tests_run, r.success, r.exec_busy, r.user_wait_h, r.latency_h, r.unstable
        );
    }

    println!("\nexpected shape (paper, slide 16):");
    println!("  the naive baseline burns executors on waiting and competes with users;");
    println!("  the external scheduler completes more tests with lower executor");
    println!("  occupancy; per-node hardware tests trade coverage depth for cadence.");
}
