//! Experiment E13 (slides 18–19): the status page.
//!
//! Runs a short campaign on the paper-scale testbed and renders the
//! external status page from the CI server's read API (the job histories
//! a published epoch holds): per-test × per-target weather grid, per-site
//! rollups, and the success-rate series.
//!
//! Run with: `cargo run --release --example status_page [seed]`

use throughout::core::scenario::scheduling_scenario;
use throughout::core::{Campaign, SchedulingMode};
use throughout::sim::{SimDuration, SimTime};
use throughout::status::{success_series, ServicesPanel, StatusGrid};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017);
    let mut cfg = scheduling_scenario(seed, SchedulingMode::External);
    cfg.duration = SimDuration::from_days(10);
    let mut campaign = Campaign::new(cfg);
    // The status page is a read-plane consumer: it renders from the last
    // published snapshot epoch, never from the live campaign state.
    let hub = campaign.arm_snapshots();
    println!("running 10 days of testing (seed {seed})...\n");
    campaign.run_until(SimTime::from_days(10));

    let snap = hub.latest().expect("campaign published snapshots");
    let grid = StatusGrid::from_jobs(&snap.jobs);
    println!("== weather grid (tests × targets), slide 19 ==\n");
    println!("{}", grid.render());

    println!("== per-test status, all targets (slide 18 requirement 1) ==");
    for job in &grid.jobs {
        println!("  {:<15} {:>5.1}%", job, grid.job_ratio(job) * 100.0);
    }

    println!("\n== per-target status, all tests (slide 18 requirement 2) ==");
    let mut targets: Vec<(&String, f64)> = grid
        .targets
        .iter()
        .map(|t| (t, grid.target_ratio(t)))
        .collect();
    targets.sort_by(|a, b| a.1.total_cmp(&b.1));
    for (target, ratio) in targets.iter().take(12) {
        println!("  {:<15} {:>5.1}%", target, ratio * 100.0);
    }

    println!("\n== historical perspective (slide 18 requirement 3) ==");
    let series = success_series(&snap.jobs, SimDuration::from_days(1));
    for (day, mean) in series.means() {
        println!("  day {:>2}: {:>5.1}%", day + 1, mean * 100.0);
    }

    println!("\n== service processes (daemon liveness + chaos ledger) ==");
    println!("{}", ServicesPanel::new(snap.services.clone()).render());
}
