//! Property tests for the Gantt's end index, the planner's cache of
//! candidate instants: every cached answer must equal an uncached linear
//! scan over the node timelines, under arbitrary op sequences.

use proptest::prelude::*;
use throughout::oar::gantt::Gantt;
use throughout::oar::{Expr, JobId, JobKind, JobState, OarServer, Queue, ResourceRequest};
use throughout::refapi::describe;
use throughout::sim::{SimDuration, SimTime};
use throughout::testbed::TestbedBuilder;

/// One randomized op against a small two-cluster Gantt.
#[derive(Debug, Clone)]
enum Op {
    /// Book a job on the nodes of `mask` at hour `start` for `hours`.
    Book { mask: u8, start: u64, hours: u64 },
    /// Release the job created by book #`k` (modulo issued).
    Release { k: usize },
    /// Truncate the job created by book #`k` at `percent`% of its span.
    Truncate { k: usize, percent: u64 },
    /// Collect everything that ended by `hour`.
    Gc { hour: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Tagged-tuple encoding (the vendored proptest has no `prop_oneof`):
    // half the ops book, the rest split release/truncate/gc.
    (0u8..6, 1u8..64, 0u64..200, 1u64..30, 0usize..40, 0u64..101).prop_map(
        |(tag, mask, start, hours, k, percent)| match tag {
            0..=2 => Op::Book { mask, start, hours },
            3 => Op::Release { k },
            4 => Op::Truncate { k, percent },
            _ => Op::Gc { hour: start },
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
        // Six nodes, two "clusters": nodes 0-2 → cluster 0, 3-5 → cluster 1.
        let cluster_of: Vec<u32> = vec![0, 0, 0, 1, 1, 1];
        let mut gantt = Gantt::new(cluster_of.clone(), 2);
        // (job, its nodes, booked start, booked end)
        let mut issued: Vec<(JobId, Vec<usize>, SimTime, SimTime)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Book { mask, start, hours } => {
                    let start = SimTime::from_hours(start);
                    let d = SimDuration::from_hours(hours);
                    let nodes: Vec<usize> = (0..6).filter(|n| mask & (1 << n) != 0).collect();
                    if nodes.iter().all(|&n| gantt.timeline(n).is_free(start, d)) {
                        let job = JobId(issued.len() as u64 + 1);
                        gantt.book(job, nodes.iter().copied(), start, d);
                        issued.push((job, nodes, start, start + d));
                    }
                }
                Op::Release { k } => {
                    if issued.is_empty() { continue; }
                    let (job, nodes, ..) = &issued[k % issued.len()];
                    gantt.release(*job, nodes.iter().copied());
                    prop_assert!(nodes.iter().all(|&n| gantt.timeline(n).end_of(*job).is_none()));
                }
                Op::Truncate { k, percent } => {
                    if issued.is_empty() { continue; }
                    let (job, nodes, start, end) = &issued[k % issued.len()];
                    // Inside the booked span; a no-op where the job no
                    // longer holds a reservation covering it.
                    let at = *start + (*end - *start) * (percent as f64 / 100.0);
                    gantt.truncate(*job, nodes.iter().copied(), at);
                    prop_assert!(nodes.iter().all(|&n| gantt.timeline(n).end_of(*job).is_none_or(|e| e <= at)));
                }
                Op::Gc { hour } => gantt.gc(SimTime::from_hours(hour)),
            }
            prop_assert_eq!(gantt.divergence(), None);

            // Uncached linear scan over every timeline; the last entry is
            // every cluster together.
            let mut scan_ends: Vec<Vec<SimTime>> = vec![Vec::new(); 3];
            for (node, &cluster) in cluster_of.iter().enumerate() {
                for r in gantt.timeline(node).reservations() {
                    scan_ends[cluster as usize].push(r.end);
                    scan_ends[2].push(r.end);
                }
            }
            for (c, ends) in scan_ends.iter_mut().enumerate() {
                ends.sort_unstable();
                ends.dedup();
                // Cached candidate instants == scanned distinct ends, over
                // several probe windows.
                for (after, upto) in [(0u64, 400u64), (10, 50), (30, 31), (100, 150)] {
                    let (after, upto) = (SimTime::from_hours(after), SimTime::from_hours(upto));
                    let mut cached = Vec::new();
                    match c {
                        2 => gantt.ends().global_candidates_into(after, upto, &mut cached),
                        _ => gantt.ends().candidates_into(c, after, upto, &mut cached),
                    }
                    let scanned: Vec<SimTime> =
                        ends.iter().copied().filter(|&e| e > after && e <= upto).collect();
                    prop_assert_eq!(&cached, &scanned, "cluster {} window {}..{}", c, after, upto);
                }
            }
            // Cached first end beyond an instant == scanned minimum.
            for probe in [0u64, 5, 25, 75, 150] {
                let probe = SimTime::from_hours(probe);
                let scanned_min = scan_ends[2].iter().copied().find(|&e| e > probe);
                prop_assert_eq!(gantt.ends().first_beyond(probe), scanned_min, "probe {}", probe);
            }
        }
    }

    /// The live OAR server keeps its end-index cache exactly in sync with
    /// its timelines through arbitrary submit/advance/cancel/complete
    /// streams (including GC).
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
                server.check_end_index_consistency().is_ok(),
                "{:?}",
                server.check_end_index_consistency()
            );
        }
        // Push far forward so GC and remaining ends both fire.
        server.advance(SimTime::from_days(40));
        prop_assert!(server.check_end_index_consistency().is_ok());
    }
}
