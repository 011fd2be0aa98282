//! Property tests for the Gantt's end index, the planner's cache of
//! candidate instants: every cached answer must equal an uncached linear
//! scan over the node timelines, under arbitrary op sequences.

use proptest::prelude::*;
use throughout::oar::gantt::Gantt;
use throughout::oar::{Expr, JobId, JobKind, JobState, OarServer, Queue, ResourceRequest};
use throughout::refapi::describe;
use throughout::sim::{SimDuration, SimTime};
use throughout::testbed::TestbedBuilder;

/// One randomized op against a small six-node Gantt.
#[derive(Debug, Clone)]
enum Op {
    /// Book a job on the nodes of `mask` at hour `start` for `hours`.
    Book { mask: u8, start: u64, hours: u64 },
    /// Release the job created by book #`k` (modulo issued).
    Release { k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Tagged-tuple encoding (the vendored proptest has no `prop_oneof`):
    // half the ops book, the rest release.
    (0u8..6, 1u8..64, 0u64..200, 1u64..30, 0usize..40).prop_map(
        |(tag, mask, start, hours, k)| match tag {
            0..=2 => Op::Book { mask, start, hours },
            _ => Op::Release { k },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any sequence of the Gantt's own operations, its consistency
    /// check finds nothing and the index's candidate instants and first end beyond
    /// an instant equal a brute-force scan of the timelines.
    #[test]
    fn end_index_matches_linear_scan(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut gantt = Gantt::new(6);
        // (job, its nodes)
        let mut issued: Vec<(JobId, Vec<usize>)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Book { mask, start, hours } => {
                    let start = SimTime::from_hours(start);
                    let d = SimDuration::from_hours(hours);
                    let nodes: Vec<usize> = (0..6).filter(|n| mask & (1 << n) != 0).collect();
                    if nodes.iter().all(|&n| gantt.timeline(n).is_free(start, d)) {
                        let job = JobId(issued.len() as u64 + 1);
                        gantt.book(job, nodes.iter().copied(), start, d);
                        issued.push((job, nodes));
                    }
                }
                Op::Release { k } => {
                    if issued.is_empty() { continue; }
                    let (job, nodes) = &issued[k % issued.len()];
                    gantt.release(*job, nodes.iter().copied());
                    prop_assert!(nodes.iter().all(|&n| gantt.timeline(n).end_of(*job).is_none()));
                }
            }
            prop_assert_eq!(gantt.divergence(), None);

            // Uncached linear scan over every timeline.
            let mut scan_ends: Vec<SimTime> = (0..6)
                .flat_map(|node| gantt.timeline(node).reservations().iter().map(|r| r.end))
                .collect();
            scan_ends.sort_unstable();
            scan_ends.dedup();
            // Cached candidate instants == scanned distinct ends, over
            // several probe windows.
            for (after, upto) in [(0u64, 400u64), (10, 50), (30, 31), (100, 150)] {
                let (after, upto) = (SimTime::from_hours(after), SimTime::from_hours(upto));
                let mut cached = Vec::new();
                gantt.ends().candidates_into(after, upto, &mut cached);
                let scanned: Vec<SimTime> =
                    scan_ends.iter().copied().filter(|&e| e > after && e <= upto).collect();
                prop_assert_eq!(&cached, &scanned, "window {}..{}", after, upto);
            }
            // Cached first end beyond an instant == scanned minimum.
            for probe in [0u64, 5, 25, 75, 150] {
                let probe = SimTime::from_hours(probe);
                let scanned_min = scan_ends.iter().copied().find(|&e| e > probe);
                prop_assert_eq!(gantt.ends().first_beyond(probe), scanned_min, "probe {}", probe);
            }
        }
    }

    /// The live OAR server keeps its end-index cache and its alive/busy
    /// counts exactly in sync with its timelines, and its chart to the
    /// reservations of its scheduled and running jobs, through arbitrary
    /// submit/advance/cancel/complete streams.
    #[test]
    fn server_end_index_stays_consistent(
        steps in prop::collection::vec(
            (0u64..2000, 0usize..5, 1u32..4, 1u64..50, 0u8..4), 1..40)
    ) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let mut server = OarServer::new(&tb, &desc);
        let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
        let mut ids = Vec::new();
        let mut sorted = steps.clone();
        sorted.sort_by_key(|s| s.0);
        for (mins, cluster, nodes, wall_hours, action) in sorted {
            server.advance(SimTime::from_mins(mins));
            match action {
                // Submit a job.
                0 | 1 => {
                    let filter = if action == 0 {
                        Expr::True
                    } else {
                        Expr::eq("cluster", &clusters[cluster % clusters.len()])
                    };
                    let req = ResourceRequest::nodes(
                        filter, nodes, SimDuration::from_hours(wall_hours));
                    if let Ok(id) = server.submit("prop", Queue::Default, JobKind::User, req) {
                        ids.push(id);
                    }
                }
                // Cancel some earlier job.
                2 => {
                    if let Some(&id) = ids.get(cluster) {
                        server.cancel(id);
                    }
                }
                // Complete some earlier job early.
                _ => {
                    if let Some(&id) = ids.get(cluster) {
                        if server.job(id).map(|j| j.state) == Some(JobState::Running) {
                            server.complete_early(id);
                        }
                    }
                }
            }
            prop_assert!(
                server.check_consistency().is_ok(),
                "{:?}",
                server.check_consistency()
            );
        }
        // Push far forward so every remaining end fires.
        server.advance(SimTime::from_days(40));
        prop_assert!(server.check_consistency().is_ok());
    }
}
