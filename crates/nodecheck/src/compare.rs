//! Comparison of probed reality against the Reference API description.

use crate::probe::{expected_report, probe_node, ProbeReport};
use ttt_refapi::TestbedDescription;
use ttt_testbed::{NodeId, Testbed};

/// One disagreement between description and reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Probe key, e.g. `"cpu/cstates"`.
    pub key: String,
    /// Value according to the Reference API.
    pub expected: String,
    /// Value actually probed (`"<absent>"` when the key is missing).
    pub actual: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: expected {}, probed {}",
            self.key, self.expected, self.actual
        )
    }
}

/// Result of checking one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Host name of the checked node.
    pub node: String,
    /// Whether the node answered probes at all.
    pub reachable: bool,
    /// Whether the node was described in the Reference API.
    pub described: bool,
    /// All disagreements found (empty = conformant).
    pub mismatches: Vec<Mismatch>,
}

impl CheckReport {
    /// Whether the check passed: node reachable, described, no mismatch.
    pub fn passed(&self) -> bool {
        self.reachable && self.described && self.mismatches.is_empty()
    }

    /// Mismatch keys, for signature building.
    pub fn keys(&self) -> Vec<&str> {
        self.mismatches.iter().map(|m| m.key.as_str()).collect()
    }
}

/// Diff two probe reports (expected vs actual).
pub fn diff_reports(expected: &ProbeReport, actual: &ProbeReport) -> Vec<Mismatch> {
    let mut out = Vec::new();
    for (k, ev) in expected {
        match actual.get(k) {
            Some(av) if av == ev => {}
            Some(av) => out.push(Mismatch {
                key: k.clone(),
                expected: ev.clone(),
                actual: av.clone(),
            }),
            None => out.push(Mismatch {
                key: k.clone(),
                expected: ev.clone(),
                actual: "<absent>".into(),
            }),
        }
    }
    for (k, av) in actual {
        if !expected.contains_key(k) {
            out.push(Mismatch {
                key: k.clone(),
                expected: "<absent>".into(),
                actual: av.clone(),
            });
        }
    }
    out
}

/// Find a node's description, looking inside its own cluster first — a
/// couple of dozen name compares instead of a scan over the whole testbed
/// — with the global scan kept as a fallback for descriptions that
/// disagree about cluster membership.
fn describe_node<'d>(
    tb: &Testbed,
    desc: &'d TestbedDescription,
    node: NodeId,
) -> Option<&'d ttt_refapi::NodeDescription> {
    let n = tb.node(node);
    let cluster = &tb.cluster(n.cluster).name;
    desc.cluster(cluster)
        .and_then(|c| c.nodes.iter().find(|d| d.name == n.name))
        .or_else(|| desc.node(&n.name))
}

/// Run the full g5k-checks pass on one node: probe it and compare with the
/// given Reference API description.
pub fn check_node(tb: &Testbed, desc: &TestbedDescription, node: NodeId) -> CheckReport {
    let n = tb.node(node);
    if !n.condition.alive {
        return CheckReport {
            node: n.name.clone(),
            reachable: false,
            described: describe_node(tb, desc, node).is_some(),
            mismatches: Vec::new(),
        };
    }
    let Some(described) = describe_node(tb, desc, node) else {
        return CheckReport {
            node: n.name.clone(),
            reachable: true,
            described: false,
            mismatches: Vec::new(),
        };
    };
    // Fast path for the overwhelmingly common case — nothing drifted: a
    // field-by-field struct compare, no probe-report maps, no allocation.
    if n.hardware == described.hardware
        && n.effective_memory_gb() == described.hardware.memory_gb()
    {
        return CheckReport {
            node: n.name.clone(),
            reachable: true,
            described: true,
            mismatches: Vec::new(),
        };
    }
    // detlint: allow(no-unwrap-in-lib) -- the node is alive (checked on entry), and `probe_node` answers every alive node
    let actual = probe_node(tb, node).expect("alive node answers probes");
    let expected = expected_report(described);
    CheckReport {
        node: n.name.clone(),
        reachable: true,
        described: true,
        mismatches: diff_reports(&expected, &actual),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};

    fn setup() -> (Testbed, TestbedDescription) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        (tb, desc)
    }

    #[test]
    fn pristine_testbed_passes_everywhere() {
        let (tb, desc) = setup();
        for node in tb.nodes() {
            let r = check_node(&tb, &desc, node.id);
            assert!(r.passed(), "{}: {:?}", r.node, r.mismatches);
        }
    }

    #[test]
    fn cstates_drift_is_detected_with_the_right_key() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert_eq!(r.keys(), vec!["cpu/cstates"]);
        assert_eq!(r.mismatches[0].expected, "disabled");
        assert_eq!(r.mismatches[0].actual, "enabled");
    }

    #[test]
    fn firmware_drift_is_detected() {
        let (mut tb, desc) = setup();
        // alpha is disk-checkable.
        let n = tb.cluster_by_name("alpha").unwrap().nodes[0];
        tb.apply_fault(FaultKind::DiskFirmwareDrift, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let r = check_node(&tb, &desc, n);
        assert_eq!(r.keys(), vec!["disk/sda/firmware"]);
        assert_eq!(r.mismatches[0].actual, "GA63");
    }

    #[test]
    fn ht_drift_changes_thread_count_too() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(
            FaultKind::HyperthreadingDrift,
            FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        let r = check_node(&tb, &desc, n);
        let keys = r.keys();
        assert!(keys.contains(&"cpu/ht"));
        assert!(keys.contains(&"cpu/threads"));
    }

    #[test]
    fn dead_node_reported_unreachable() {
        let (mut tb, desc) = setup();
        let n = tb.nodes()[0].id;
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert!(!r.reachable);
        assert!(r.mismatches.is_empty());
    }

    #[test]
    fn behavioural_faults_are_invisible_to_node_checks() {
        // The ablation the paper motivates: per-node conformity checking
        // cannot see consoles, VLAN ports, monitoring wiring or flaky
        // reboots. These need behavioural tests.
        let (mut tb, desc) = setup();
        let cluster = &tb.clusters()[0];
        let (a, b) = (cluster.nodes[0], cluster.nodes[1]);
        for (kind, target) in [
            (FaultKind::ConsoleDead, FaultTarget::Node(a)),
            (FaultKind::VlanPortStuck, FaultTarget::Node(a)),
            (FaultKind::RandomReboots, FaultTarget::Node(a)),
            (FaultKind::KernelBootRace, FaultTarget::Node(a)),
            (FaultKind::CablingSwap, FaultTarget::NodePair(a, b)),
        ] {
            tb.apply_fault(kind, target, SimTime::ZERO).unwrap();
        }
        let r = check_node(&tb, &desc, a);
        assert!(
            r.passed(),
            "behavioural faults should not show up in probes: {:?}",
            r.mismatches
        );
    }

    #[test]
    fn undescribed_node_is_flagged() {
        let (tb, mut desc) = setup();
        // Remove one node from the description.
        desc.sites[0].clusters[0].nodes.remove(0);
        let n = tb.cluster_by_name("alpha").unwrap().nodes[0];
        let r = check_node(&tb, &desc, n);
        assert!(!r.passed());
        assert!(!r.described);
    }

    #[test]
    fn diff_reports_catches_extra_keys() {
        let mut expected = ProbeReport::new();
        expected.insert("a".into(), "1".into());
        let mut actual = ProbeReport::new();
        actual.insert("a".into(), "1".into());
        actual.insert("b".into(), "2".into());
        let d = diff_reports(&expected, &actual);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].key, "b");
        assert_eq!(d[0].expected, "<absent>");
    }
}
