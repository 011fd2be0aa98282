//! Ablation: per-node conformity checks (g5k-checks alone) vs. the full
//! test-family suite.
//!
//! The paper's central argument for a *framework* rather than a node
//! checker: many real bug classes are behavioural — dead consoles, stuck
//! VLAN ports, mis-wired wattmeters, flaky services, spontaneous reboots —
//! and invisible to hardware probes. This example injects one fault of
//! every class, on the rows of `ttt_suite`'s coverage table and through
//! the harness loop the swarm and `tests/detection_matrix.rs` use, and
//! reports which detector sees it.
//!
//! Run with: `cargo run --release --example ablation_coverage`

use throughout::suite::coverage_for;
use throughout::suite::testutil::Harness;
use throughout::testbed::FaultKind;

fn main() {
    println!(
        "{:<20} {:>16} {:>22}",
        "fault class", "g5k-checks only", "owning test family"
    );
    println!("{}", "-".repeat(60));
    let (mut checks_only, mut full) = (0, 0);
    for kind in FaultKind::ALL {
        let row = coverage_for(kind);
        let mut h = Harness::with_stream(kind as u64 + 100, "ablation");
        let Ok(fault) = h.inject(&row) else {
            println!("{:<20} {:>16} {:>22}", kind.to_string(), "n/a", "n/a");
            continue;
        };
        // Detector 1: a g5k-checks sweep over the cluster. Detector 2: the
        // owning family, within the row's retry budget.
        let by_checks = h.node_checks_flag(row.cluster);
        let by_family = h.detects(&row, &fault);
        checks_only += by_checks as u32;
        full += (by_checks || by_family) as u32;
        println!(
            "{:<20} {:>16} {:>22}",
            kind.to_string(),
            if by_checks { "detected" } else { "silent" },
            if by_family {
                format!("detected ({})", row.family)
            } else {
                "missed".to_string()
            }
        );
    }
    println!("{}", "-".repeat(60));
    let n = FaultKind::ALL.len();
    println!("coverage: g5k-checks alone {checks_only}/{n}  |  full framework {full}/{n}");
    println!("\nthe gap is the paper's thesis: behavioural bugs need behavioural tests.");
}
