//! The coverage table: which test family detects which fault kind, and the
//! one harness loop that proves it.
//!
//! The paper's claim is a pairing — the bug classes of slide 22 are found
//! by the families of slide 21, most of them invisibly to per-node checks
//! (slide 13). [`coverage_for`] is that pairing, one row per
//! [`FaultKind`]; [`detection_failure`] is the inject → assign → run →
//! attribute loop that holds a row to its word on the shared
//! [`Harness`]. The swarm's detection-soundness oracle, the detection
//! matrix (`tests/detection_matrix.rs`) and `examples/ablation_coverage.rs`
//! all read these rows and run this loop.

use crate::config::{Family, Target, TestConfig};
use crate::testutil::Harness;
use ttt_nodecheck::check_node;
use ttt_sim::SimTime;
use ttt_testbed::{find_fault, Fault, FaultKind, NodeId};

/// One coverage claim: `family`, run against `target`, detects `kind`
/// injected on `cluster` of the small harness testbed within `max_runs`
/// runs.
#[derive(Debug)]
pub struct Coverage {
    /// The fault kind injected.
    pub kind: FaultKind,
    /// The family that owns its detection.
    pub family: Family,
    /// What the family is run against.
    pub target: Target,
    /// Retry budget: 1 where detection is deterministic, more where the
    /// symptom is probabilistic.
    pub max_runs: usize,
    /// The cluster the canonical injection target is taken from.
    pub cluster: &'static str,
}

/// Where each fault kind is detected on the shared small-testbed harness.
/// Exhaustive match — adding a [`FaultKind`] without declaring its
/// coverage is a compile error — with retry budgets that hold on any seed
/// (the 23 × 8 detection matrix and every swarm scenario pin them).
pub fn coverage_for(kind: FaultKind) -> Coverage {
    use Family::*;
    let on_alpha = |family, target, max_runs| Coverage {
        kind,
        family,
        target,
        max_runs,
        cluster: "alpha",
    };
    let cluster = || Target::Cluster("alpha".into());
    let site = || Target::Site("east".into());
    match kind {
        FaultKind::DiskWriteCacheDrift => on_alpha(Disk, cluster(), 1),
        FaultKind::DiskFirmwareDrift => on_alpha(Disk, cluster(), 1),
        FaultKind::CpuCStatesDrift => on_alpha(Refapi, cluster(), 1),
        FaultKind::HyperthreadingDrift => on_alpha(Refapi, cluster(), 1),
        FaultKind::TurboDrift => on_alpha(StdEnv, cluster(), 40),
        FaultKind::BiosVersionDrift => on_alpha(DellBios, cluster(), 1),
        FaultKind::DimmFailure => on_alpha(OarProperties, cluster(), 1),
        // alpha is an old 1G cluster where a downgrade cannot apply; beta
        // is the 10G one.
        FaultKind::NicDowngrade => Coverage {
            cluster: "beta",
            ..on_alpha(OarProperties, Target::Cluster("beta".into()), 1)
        },
        FaultKind::CablingSwap => on_alpha(Kwapi, site(), 1),
        FaultKind::KernelBootRace => on_alpha(MultiReboot, cluster(), 40),
        FaultKind::RandomReboots => on_alpha(MultiReboot, cluster(), 600),
        FaultKind::OfedFlaky => on_alpha(MpiGraph, cluster(), 150),
        FaultKind::ConsoleDead => on_alpha(Console, cluster(), 1),
        FaultKind::VlanPortStuck => on_alpha(Kavlan, site(), 1),
        FaultKind::ServiceFlaky => on_alpha(Cmdline, site(), 150),
        FaultKind::ServiceDown => on_alpha(Cmdline, site(), 1),
        FaultKind::NodeDead => on_alpha(OarState, site(), 1),
        FaultKind::SitePowerOutage => on_alpha(OarState, site(), 1),
        FaultKind::SiteLinkPartition => on_alpha(Kavlan, Target::Global, 1),
        FaultKind::ClockSkew => on_alpha(Cmdline, site(), 1),
        // A dead process refuses deterministically — one probe suffices.
        FaultKind::ServiceCrash => on_alpha(Cmdline, site(), 1),
        FaultKind::ServiceRestart => on_alpha(Cmdline, site(), 1),
        // Loss is probabilistic (0.25/call), so allow a few probe rounds.
        FaultKind::RpcDegraded => on_alpha(Cmdline, site(), 30),
    }
}

impl Harness {
    /// Inject `row.kind` on the canonical target its shape has on
    /// `row.cluster`, and pin the node assignment the row's family would
    /// get: hardware-centric families take the cluster, site tests two of
    /// its nodes, the global configuration one node on each of two sites,
    /// everything else the faulty node. `Err(detail)` is a miswired row
    /// (unknown cluster, a testbed too small for it, a fault that cannot
    /// apply there) — never a pass.
    pub fn inject(&mut self, row: &Coverage) -> Result<Fault, String> {
        let Coverage { kind, cluster, .. } = *row;
        let miswired = |why: &str| format!("{kind} {why} {cluster} — coverage entry is miswired");
        let on = self
            .tb
            .cluster_by_name(cluster)
            .ok_or_else(|| miswired("is declared on unknown cluster"))?;
        let nodes = on.nodes.clone();
        let target = kind
            .spec()
            .shape
            .canonical_target(&self.tb, on)
            .ok_or_else(|| miswired("has no target of its shape on"))?;
        let fault = self
            .tb
            .apply_fault(kind, target, SimTime::ZERO)
            .ok_or_else(|| miswired("cannot be injected on"))?;
        let node = |i: usize| nodes.get(i).copied();
        let remote = || {
            let cluster = *self.tb.sites().get(1)?.clusters.first()?;
            self.tb.cluster(cluster).nodes.first().copied()
        };
        let assigned: Option<Vec<NodeId>> = if row.family.hardware_centric() {
            Some(nodes.clone())
        } else {
            match row.target {
                Target::Global => node(0).zip(remote()).map(|(a, b)| vec![a, b]),
                Target::Site(_) => node(0).zip(node(2)).map(|(a, b)| vec![a, b]),
                _ => node(0).map(|a| vec![a]),
            }
        };
        self.assigned = assigned.ok_or_else(|| miswired("finds too few nodes to assign on"))?;
        Ok(fault)
    }

    /// Run `row.family` up to `row.max_runs` times at the harness's
    /// instant; true as soon as one diagnostic resolves through
    /// [`find_fault`] back to `fault`.
    pub fn detects(&mut self, row: &Coverage, fault: &Fault) -> bool {
        let cfg = TestConfig {
            family: row.family,
            target: row.target.clone(),
        };
        (0..row.max_runs).any(|_| {
            let report = self.run_static(&cfg);
            report
                .diagnostics
                .iter()
                .any(|d| find_fault(&self.tb, &d.signature).is_some_and(|f| f.id == fault.id))
        })
    }

    /// Whether a g5k-checks sweep over `cluster` flags any of its nodes —
    /// the per-node detector that, alone, misses the behavioural classes.
    pub fn node_checks_flag(&self, cluster: &str) -> bool {
        let Some((desc, cluster)) = self.refapi.latest().zip(self.tb.cluster_by_name(cluster))
        else {
            return false;
        };
        cluster
            .nodes
            .iter()
            .any(|&n| !check_node(&self.tb, desc, n).passed())
    }
}

/// The inject → assign → run → attribute loop shared by the swarm's
/// detection-soundness oracle and the end-to-end detection matrix: on a
/// fresh small-testbed harness drawing from `(seed, stream)`, inject the
/// row's kind and require its family to file, within the row's budget, a
/// diagnostic that [`find_fault`] resolves back to the injected fault.
/// `Some(detail)` describes the failure; `None` means detected.
pub fn detection_failure(row: &Coverage, seed: u64, stream: &str) -> Option<String> {
    let mut h = Harness::with_stream(seed, stream);
    let fault = match h.inject(row) {
        Ok(fault) => fault,
        Err(detail) => return Some(detail),
    };
    (!h.detects(row, &fault)).then(|| {
        format!(
            "{} not detected by {} within {} runs (seed {seed})",
            row.kind, row.family, row.max_runs
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miswired_rows_are_reported_not_panicked() {
        let unknown = Coverage {
            cluster: "omega",
            ..coverage_for(FaultKind::ConsoleDead)
        };
        let detail = detection_failure(&unknown, 1, "t").expect("no such cluster");
        assert!(detail.contains("unknown cluster omega"), "{detail}");
        // alpha's NICs are 1G: a downgrade cannot apply there.
        let inapplicable = Coverage {
            cluster: "alpha",
            ..coverage_for(FaultKind::NicDowngrade)
        };
        let detail = detection_failure(&inapplicable, 1, "t").expect("cannot apply");
        assert!(detail.contains("cannot be injected on alpha"), "{detail}");
    }
}
