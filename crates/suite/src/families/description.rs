//! Description-correctness families: `refapi`, `oarproperties`, `dellbios`.
//!
//! Slide 21: "Homogeneity and correctness of testbed description (refapi,
//! oarproperties, dellbios)".

use super::nodecheck_diagnostics;
use crate::ctx::TestCtx;
use crate::report::{Diagnostic, TestReport};
use ttt_nodecheck::{check_node, probe_node};
use ttt_sim::SimDuration;
use ttt_testbed::Symptom;

/// `refapi`: sweep every alive node of the target cluster with g5k-checks
/// against the latest Reference API description.
pub fn refapi(cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(5);
    let Some(desc) = ctx.refapi.latest() else {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::RefapiEmpty.on(cluster),
                "no Reference API description published",
            )],
            duration,
        );
    };
    let mut diagnostics = Vec::new();
    let Some(cl) = ctx.tb.cluster_by_name(cluster) else {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::UnknownCluster.on(cluster),
                "cluster not found on testbed",
            )],
            duration,
        );
    };
    for &node in &cl.nodes {
        let report = check_node(ctx.tb, desc, node);
        diagnostics.extend(nodecheck_diagnostics(&report));
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `oarproperties`: audit the OAR resource database against probed reality
/// for the assigned node(s): memory size and 10G connectivity are the
/// properties users select on, so stale values silently corrupt selections.
pub fn oarproperties(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(3);
    let mut diagnostics = Vec::new();
    for &node in ctx.assigned {
        let name = ctx.tb.node(node).name.clone();
        let Some(probe) = probe_node(ctx.tb, node) else {
            diagnostics.push(Diagnostic::new(
                Symptom::NodeDead.on(&name),
                format!("{name} does not answer probes"),
            ));
            continue;
        };
        let props = ctx.oar.properties(node);
        // memnode vs probed memory.
        if let (Some(db), Some(real)) = (
            props.get("memnode").and_then(|v| v.as_int()),
            probe.get("memory/total_gb").and_then(|v| v.parse::<i64>().ok()),
        ) {
            if db != real {
                diagnostics.push(Diagnostic::new(
                    Symptom::DimmFailure.on(&name),
                    format!("{name}: OAR DB says memnode={db} GB, node has {real} GB"),
                ));
            }
        }
        // eth10g vs probed NIC rate.
        let db_10g = props
            .get("eth10g")
            .map(|v| v.render() == "YES")
            .unwrap_or(false);
        let real_10g = probe
            .get("network/eth0/rate_gbps")
            .and_then(|v| v.parse::<u32>().ok())
            .map(|r| r >= 10)
            .unwrap_or(false);
        if db_10g && !real_10g {
            diagnostics.push(Diagnostic::new(
                Symptom::NicDowngrade.on(&name),
                format!("{name}: OAR DB says eth10g=YES but the link negotiated below 10G"),
            ));
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `dellbios`: check BIOS version homogeneity of a Dell cluster against
/// the Reference API (Dell BIOS needs manual configuration; drift is the
/// paper's canonical maintenance bug).
pub fn dellbios(cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(4);
    let mut diagnostics = Vec::new();
    let expected = ctx
        .refapi
        .latest()
        .and_then(|d| d.cluster(cluster))
        .and_then(|c| c.nodes.first())
        .map(|n| n.hardware.bios.version.clone());
    let Some(expected) = expected else {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::RefapiEmpty.on(cluster),
                "no described BIOS version for cluster",
            )],
            duration,
        );
    };
    let Some(cl) = ctx.tb.cluster_by_name(cluster) else {
        return TestReport::from_diagnostics(vec![], duration);
    };
    for &node in &cl.nodes {
        let n = ctx.tb.node(node);
        if !n.condition.alive {
            continue; // oarstate owns dead-node reporting
        }
        if n.hardware.bios.version != expected {
            diagnostics.push(Diagnostic::new(
                Symptom::BiosVersion.on(&n.name),
                format!(
                    "{}: BIOS {} differs from cluster reference {}",
                    n.name, n.hardware.bios.version, expected
                ),
            ));
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

#[cfg(test)]
mod tests {
    use crate::config::{Family, Target, TestConfig};
    use crate::testutil::Harness;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, Symptom};

    #[test]
    fn refapi_passes_on_clean_testbed() {
        let mut h = Harness::new(1);
        let cfg = TestConfig {
            family: Family::Refapi,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn refapi_detects_every_drift_kind_on_cluster() {
        let mut h = Harness::new(2);
        let nodes = h.tb.cluster_by_name("alpha").unwrap().nodes.clone();
        h.tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(nodes[0]), SimTime::ZERO)
            .unwrap();
        h.tb.apply_fault(FaultKind::DiskWriteCacheDrift, FaultTarget::Node(nodes[1]), SimTime::ZERO)
            .unwrap();
        h.tb.apply_fault(FaultKind::BiosVersionDrift, FaultTarget::Node(nodes[2]), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::Refapi,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        let sigs: Vec<String> = report.diagnostics.iter().map(|d| d.signature.to_string()).collect();
        assert!(sigs.iter().any(|s| s == "cpu-cstates@alpha-1"), "{sigs:?}");
        assert!(sigs.iter().any(|s| s == "disk-write-cache@alpha-2"), "{sigs:?}");
        assert!(sigs.iter().any(|s| s == "bios-version@alpha-3"), "{sigs:?}");
    }

    #[test]
    fn oarproperties_detects_dimm_failure_on_assigned_node() {
        let mut h = Harness::new(3);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::DimmFailure, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::OarProperties,
            target: Target::Cluster("alpha".into()),
        };
        h.assigned = vec![node];
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::DimmFailure.on("alpha-1"));
    }

    #[test]
    fn dellbios_detects_version_drift() {
        let mut h = Harness::new(4);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[2];
        h.tb.apply_fault(FaultKind::BiosVersionDrift, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::DellBios,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].signature, Symptom::BiosVersion.on("alpha-3"));
    }

    #[test]
    fn dellbios_ignores_dead_nodes() {
        let mut h = Harness::new(5);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::DellBios,
            target: Target::Cluster("alpha".into()),
        };
        assert!(h.run(&cfg).passed());
    }
}
