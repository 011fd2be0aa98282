//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use std::sync::Arc;
use throughout::nodecheck::{check_node, diff_hardware, CheckReport};
use throughout::oar::gantt::NodeTimeline;
use throughout::oar::{parse_request, JobId};
use throughout::refapi::{describe, TestbedDescription};
use throughout::sim::{stream_rng, EventQueue, ExponentialBackoff, SimDuration, SimTime};
use throughout::testbed::{FaultKind, FaultTarget, NodeId, Testbed, TestbedBuilder};

/// Every fault kind that targets one node: the hardware drifts and the
/// condition faults.
const NODE_KINDS: [FaultKind; 12] = [
    FaultKind::DiskWriteCacheDrift,
    FaultKind::DiskFirmwareDrift,
    FaultKind::CpuCStatesDrift,
    FaultKind::HyperthreadingDrift,
    FaultKind::TurboDrift,
    FaultKind::BiosVersionDrift,
    FaultKind::NicDowngrade,
    FaultKind::DimmFailure,
    FaultKind::NodeDead,
    FaultKind::ConsoleDead,
    FaultKind::OfedFlaky,
    FaultKind::KernelBootRace,
];

/// g5k-checks as it decided conformance before nodes shared their
/// cluster's template: a deep `==` of the two hardware values and of the
/// probed memory, the walk only where they differ.
fn deep_check<'t>(tb: &'t Testbed, desc: &TestbedDescription, node: NodeId) -> CheckReport<'t> {
    let n = tb.node(node);
    let described = desc.node(&n.name);
    let memory_gb = n.effective_memory_gb();
    let mismatches = match described {
        Some(d) if n.condition.alive => {
            if *n.hardware == *d.hardware && memory_gb == d.hardware.memory_gb() {
                Vec::new()
            } else {
                diff_hardware(&d.hardware, &n.hardware, memory_gb)
            }
        }
        _ => Vec::new(),
    };
    CheckReport {
        node: &n.name,
        reachable: n.condition.alive,
        described: described.is_some(),
        mismatches,
    }
}

/// A description with the same values and no template shared with the
/// testbed, as one built elsewhere (parsed, or from another testbed) is.
fn unshared(desc: &TestbedDescription) -> TestbedDescription {
    let mut copy = desc.clone();
    for cluster in copy.sites.iter_mut().flat_map(|s| &mut s.clusters) {
        for node in &mut cluster.nodes {
            node.hardware = Arc::new((*node.hardware).clone());
        }
    }
    copy
}

proptest! {
    /// The event queue always pops in non-decreasing time order, with FIFO
    /// tie-breaking.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, seq)) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt);
                // Among equal times, insertion order is preserved.
                if t == lt {
                    prop_assert!(seq > lseq);
                }
            }
            last = Some((t, seq));
        }
    }

    /// A timeline never double-books: after any sequence of reservations
    /// in free windows, all reservations are pairwise disjoint.
    #[test]
    fn gantt_reservations_stay_disjoint(
        offsets in prop::collection::vec((0u64..500, 1u64..48), 1..60)
    ) {
        let mut tl = NodeTimeline::new();
        for (i, &(start_h, len_h)) in offsets.iter().enumerate() {
            let start = SimTime::from_hours(start_h);
            let d = SimDuration::from_hours(len_h);
            if tl.is_free(start, d) {
                tl.reserve(start, d, JobId(i as u64));
            }
        }
        let rs = tl.reservations();
        for w in rs.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    /// Rendering a parsed request and re-parsing it yields the same AST
    /// (display/parse round-trip on the subset Display emits).
    #[test]
    fn request_display_roundtrips(nodes in 1u32..50, hours in 1u64..100) {
        let input = format!("{{cluster='grisou'}}/nodes={nodes},walltime={hours}");
        let parsed = parse_request(&input, SimDuration::from_hours(1)).unwrap();
        prop_assert_eq!(parsed.walltime, SimDuration::from_hours(hours));
        let rendered = parsed.to_string();
        // The rendered form embeds the walltime in humanized units, so we
        // re-parse only the resource part.
        let resource_part = rendered.split(",walltime").next().unwrap();
        let reparsed = parse_request(resource_part, parsed.walltime).unwrap();
        prop_assert_eq!(reparsed.groups, parsed.groups);
    }

    /// Backoff delays are monotonically non-decreasing and capped.
    #[test]
    fn backoff_monotone_and_capped(attempts in 1u32..64) {
        let b = ExponentialBackoff::default();
        let mut last = SimDuration::ZERO;
        for a in 0..attempts {
            let d = b.delay(a);
            prop_assert!(d >= last);
            prop_assert!(d <= b.max);
            last = d;
        }
    }

    /// Fault apply + repair is an exact involution on node hardware for
    /// every node-targeted drift kind.
    #[test]
    fn fault_repair_restores_hardware(seed in 0u64..500) {
        let mut tb = TestbedBuilder::small().build();
        let kinds = [
            FaultKind::DiskWriteCacheDrift,
            FaultKind::DiskFirmwareDrift,
            FaultKind::CpuCStatesDrift,
            FaultKind::HyperthreadingDrift,
            FaultKind::TurboDrift,
            FaultKind::BiosVersionDrift,
            FaultKind::NicDowngrade,
        ];
        let kind = kinds[(seed % kinds.len() as u64) as usize];
        let node = tb.nodes()[(seed as usize / 7) % tb.nodes().len()].id;
        let before = tb.node(node).hardware.clone();
        if let Some(fault) = tb.apply_fault(kind, FaultTarget::Node(node), SimTime::ZERO) {
            prop_assert!(tb.node(node).hardware != before, "{kind} must change hardware");
            tb.repair(fault.id);
            prop_assert_eq!(&tb.node(node).hardware, &before);
            // Conforming again, the node shares its template once more.
            let reference = &tb.cluster(tb.node(node).cluster).reference;
            prop_assert!(Arc::ptr_eq(&tb.node(node).hardware, reference), "{kind}");
        }
    }

    /// After any sequence of node faults applied and repaired in any
    /// order: g5k-checks' verdict on every node is the deep `==` check's,
    /// against the generated description (the node and its description
    /// share a template) and against an unshared copy of it; a node equal
    /// to its cluster's template shares it; an apply that changes nothing
    /// leaves the node's hardware where it was. The description shares
    /// each cluster's template in every node it describes.
    #[test]
    fn conformant_nodes_share_their_template(
        ops in prop::collection::vec((0u8..3, 0usize..1_000, 0usize..1_000), 1..60)
    ) {
        let mut tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let elsewhere = unshared(&desc);
        for (_, cluster) in desc.clusters() {
            let reference = &tb.cluster_by_name(&cluster.name).expect("described cluster").reference;
            for node in &cluster.nodes {
                prop_assert!(Arc::ptr_eq(&node.hardware, reference), "{}", node.name);
            }
        }
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            if op < 2 {
                let kind = NODE_KINDS[a % NODE_KINDS.len()];
                let node = tb.nodes()[b % tb.nodes().len()].id;
                let before = Arc::as_ptr(&tb.node(node).hardware);
                if tb.apply_fault(kind, FaultTarget::Node(node), SimTime::ZERO).is_none() {
                    prop_assert_eq!(
                        Arc::as_ptr(&tb.node(node).hardware), before,
                        "step {}: a no-op {} moved the node's hardware", step, kind
                    );
                }
            } else if !tb.active_faults().is_empty() {
                let id = tb.active_faults()[a % tb.active_faults().len()].id;
                prop_assert!(tb.repair(id));
            }
            for n in tb.nodes() {
                let reference = &tb.cluster(n.cluster).reference;
                if n.hardware == *reference {
                    prop_assert!(Arc::ptr_eq(&n.hardware, reference), "step {}: {} holds a copy", step, n.name);
                }
                prop_assert_eq!(check_node(&tb, &desc, n.id), deep_check(&tb, &desc, n.id));
                prop_assert_eq!(check_node(&tb, &elsewhere, n.id), deep_check(&tb, &elsewhere, n.id));
            }
        }
    }

    /// Deterministic streams: the same (seed, label) always yields the
    /// same sequence; different labels diverge.
    #[test]
    fn rng_streams_are_stable(seed in 0u64..10_000) {
        use rand::Rng;
        let mut a = stream_rng(seed, "x");
        let mut b = stream_rng(seed, "x");
        let mut c = stream_rng(seed, "y");
        let (va, vb): (Vec<u64>, Vec<u64>) =
            ((0..8).map(|_| a.gen()).collect(), (0..8).map(|_| b.gen()).collect());
        prop_assert_eq!(&va, &vb);
        let vc: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        prop_assert_ne!(&va, &vc);
    }
}
