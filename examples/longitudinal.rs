//! Experiments E8 and E9 (slides 22–23): the longitudinal campaign.
//!
//! Runs the paper scenario — six months on the paper-scale testbed, staged
//! test rollout, calibrated fault arrivals and operator capacity — and
//! prints:
//!
//! * bugs filed/fixed over time (paper: "118 bugs filed (inc. 84 already
//!   fixed)" at submission time);
//! * the monthly test success rate (paper: "85 % of tests successful in
//!   February → 93 % today, despite the addition of new tests").
//!
//! Run with: `cargo run --release --example longitudinal [seed]`

use throughout::core::scenario::paper_scenario;
use throughout::core::Campaign;
use throughout::sim::SimTime;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017);
    let mut campaign = Campaign::new(paper_scenario(seed));
    println!("running the 180-day paper scenario (seed {seed})...");

    for month in 1..=6 {
        campaign.run_until(SimTime::from_days(30 * month));
        let filed = campaign.tracker().filed();
        let fixed = campaign.tracker().fixed();
        println!(
            "  month {month}: {filed:>4} bugs filed, {fixed:>4} fixed, {} tests run",
            campaign.metrics().tests_run
        );
    }
    // Flush final metrics.
    campaign.run_until(SimTime::from_days(180));

    let m = campaign.metrics();
    println!("\n== E9: monthly success rate (paper: 85% Feb -> 93% Jun) ==");
    for (month, pct) in m.monthly_success_percent() {
        // The boundary tick at day 180 leaves a token month-7 bucket.
        if m.monthly_success.periods()[month].count() < 100 {
            continue;
        }
        println!("  month {:>2}: {:>5.1}%  {}", month + 1, pct, bar(pct));
    }

    let filed = campaign.tracker().filed();
    let fixed = campaign.tracker().fixed();
    println!("\n== E8: bug volume (paper: 118 filed, 84 fixed) ==");
    println!("  filed: {filed}");
    println!("  fixed: {fixed}");
    println!("  open : {}", campaign.tracker().open().len());

    println!("\n== scheduler decisions ==");
    let s = campaign.trigger().stats();
    println!("  triggered            : {}", s.triggered);
    println!("  deferred (resources) : {}", s.deferred_resources);
    println!("  deferred (peak hours): {}", s.deferred_peak);
    println!("  deferred (same site) : {}", s.deferred_site);
    println!("  cancelled→unstable   : {}", s.cancelled_not_immediate);

    println!("\n== per-family completions ==");
    for (family, n) in &m.completions_per_family {
        println!("  {family:<15} {n:>6}");
    }

    println!("\n== load ==");
    println!(
        "  CI executors busy (mean): {:.1}%",
        m.executor_busy.mean() * 100.0
    );
    println!(
        "  OAR utilization (mean)  : {:.1}%",
        m.oar_utilization.mean() * 100.0
    );
    println!(
        "  user job waiting (mean) : {:.2} h",
        m.user_wait_hours.mean()
    );
}

fn bar(pct: f64) -> String {
    let n = (pct / 2.0).round() as usize;
    "#".repeat(n.min(50))
}
