//! Monte-Carlo sweep of the longitudinal scenario across seeds, run in
//! parallel (campaigns are fully independent by construction — every
//! stochastic stream derives from the campaign seed). `TTT_WORKERS` sets
//! the width.
//!
//! Quantifies the run-to-run variability behind EXPERIMENTS.md's E8/E9
//! claims: bugs filed/fixed and the final success rate.
//!
//! Run with: `cargo run --release --example seed_sweep [n_seeds] [days]`

use throughout::core::scenario::paper_scenario;
use throughout::core::Campaign;
use throughout::scengen::{par_map, seed_block, worker_count};
use throughout::sim::{OnlineStats, SimDuration};

struct Outcome {
    seed: u64,
    filed: usize,
    fixed: usize,
    final_month_pct: f64,
    first_month_pct: f64,
}

fn main() {
    let n_seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let days: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(180);

    println!("sweeping {n_seeds} seeds × {days} days in parallel on {} threads...", worker_count());
    let outcomes = par_map(&seed_block(2017, n_seeds), |&seed| {
        let mut cfg = paper_scenario(seed);
        cfg.duration = SimDuration::from_days(days);
        let mut c = Campaign::new(cfg);
        c.run();
        let months = c.metrics().monthly_success_percent();
        let full: Vec<&(usize, f64)> = months
            .iter()
            .filter(|(m, _)| c.metrics().monthly_success.periods()[*m].count() >= 100)
            .collect();
        Outcome {
            seed,
            filed: c.tracker().filed(),
            fixed: c.tracker().fixed(),
            first_month_pct: full.first().map(|(_, p)| *p).unwrap_or(0.0),
            final_month_pct: full.last().map(|(_, p)| *p).unwrap_or(0.0),
        }
    });

    println!("\n{:>6} {:>7} {:>7} {:>12} {:>12}", "seed", "filed", "fixed", "month-1", "final month");
    let mut filed = OnlineStats::new();
    let mut fixed = OnlineStats::new();
    let mut final_pct = OnlineStats::new();
    for o in &outcomes {
        println!(
            "{:>6} {:>7} {:>7} {:>11.1}% {:>11.1}%",
            o.seed, o.filed, o.fixed, o.first_month_pct, o.final_month_pct
        );
        filed.push(o.filed as f64);
        fixed.push(o.fixed as f64);
        final_pct.push(o.final_month_pct);
    }
    println!(
        "\nfiled: {:.0} ± {:.0}   fixed: {:.0} ± {:.0}   final success: {:.1}% ± {:.1}",
        filed.mean(),
        filed.stddev(),
        fixed.mean(),
        fixed.stddev(),
        final_pct.mean(),
        final_pct.stddev()
    );
    println!("paper reference: 118 filed, 84 fixed, 93% success");
}
