//! Bug census: signatures by class over a 120-day paper campaign —
//! the reproduction of slide 22's bug list ("disk drives configuration,
//! CPU settings, different disk firmware versions, cabling issues,
//! various weak spots…"), with filed/fixed counts per class.
//!
//! Run with: `cargo run --release --example bug_census`
use std::collections::BTreeMap;
use throughout::core::scenario::paper_scenario;
use throughout::core::Campaign;
use throughout::sim::SimTime;

fn main() {
    let mut c = Campaign::new(paper_scenario(2017));
    c.run_until(SimTime::from_days(120));
    let mut by_symptom: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for bug in c.tracker().bugs() {
        let e = by_symptom.entry(bug.signature.symptom.name()).or_default();
        e.0 += 1;
        if bug.state == throughout::bugs::BugState::Fixed {
            e.1 += 1;
        }
    }
    println!("{:<24} {:>6} {:>6}", "symptom", "filed", "fixed");
    for (p, (filed, fixed)) in &by_symptom {
        println!("{p:<24} {filed:>6} {fixed:>6}");
    }
    println!("\nactive faults at day 120: {}", c.testbed().active_faults().len());
    println!("filed {} fixed {}", c.tracker().filed(), c.tracker().fixed());
    // Top recurring signatures (possible fix-refile loops).
    let mut sig_count: BTreeMap<String, usize> = BTreeMap::new();
    for bug in c.tracker().bugs() {
        *sig_count.entry(bug.signature.to_string()).or_default() += 1;
    }
    let mut v: Vec<_> = sig_count.into_iter().filter(|(_, n)| *n > 1).collect();
    v.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("\nsignatures filed more than once:");
    for (sig, n) in v.into_iter().take(15) {
        println!("  {n}x {sig}");
    }
}
