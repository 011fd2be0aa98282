//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use throughout::oar::gantt::NodeTimeline;
use throughout::oar::{parse_request, JobId};
use throughout::sim::{stream_rng, EventQueue, ExponentialBackoff, SimDuration, SimTime};
use throughout::testbed::{FaultKind, FaultTarget, TestbedBuilder};

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
