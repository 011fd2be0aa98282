//! Property tests on the OAR scheduler: invariants that must hold under
//! arbitrary job streams.

use proptest::prelude::*;
use throughout::oar::{Expr, JobKind, JobState, OarServer, Queue, ResourceRequest};
use throughout::refapi::describe;
use throughout::sim::{SimDuration, SimTime};
use throughout::testbed::TestbedBuilder;

/// A compact encoding of one submitted job for the generator.
#[derive(Debug, Clone)]
struct JobSpec {
    cluster: Option<usize>,
    nodes: u32,
    walltime_mins: u64,
    submit_offset_mins: u64,
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    (
        prop::option::of(0usize..4),
        1u32..5,
        10u64..240,
        0u64..600,
    )
        .prop_map(|(cluster, nodes, walltime_mins, submit_offset_mins)| JobSpec {
            cluster,
            nodes,
            walltime_mins,
            submit_offset_mins,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the submission stream, (a) a node never carries two
    /// running jobs at once, (b) assigned nodes always match the job's
    /// filter, and (c) terminated jobs ran exactly their walltime or less.
    #[test]
    fn scheduler_invariants(jobs in prop::collection::vec(job_strategy(), 1..40)) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let mut server = OarServer::new(&tb, &desc);
        let cluster_names: Vec<String> =
            tb.clusters().iter().map(|c| c.name.clone()).collect();

        // Submit in time order.
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|j| j.submit_offset_mins);
        let mut ids = Vec::new();
        for spec in &sorted {
            server.advance(SimTime::from_mins(spec.submit_offset_mins));
            let filter = match spec.cluster {
                Some(c) => Expr::eq("cluster", &cluster_names[c % cluster_names.len()]),
                None => Expr::True,
            };
            let request = ResourceRequest::nodes(
                filter,
                spec.nodes,
                SimDuration::from_mins(spec.walltime_mins),
            );
            if let Ok(id) = server.submit("prop", Queue::Default, JobKind::User, request) {
                ids.push(id);
            }
        }

        // Walk time forward in hour steps; at each instant the running
        // jobs' assignments must be disjoint.
        for h in 0..48u64 {
            server.advance(SimTime::from_mins(600) + SimDuration::from_hours(h));
            let mut seen = std::collections::HashSet::new();
            for id in &ids {
                let job = server.job(*id).unwrap();
                if job.state == JobState::Running {
                    for n in &job.assigned {
                        prop_assert!(seen.insert(*n), "node {n} double-booked");
                    }
                }
            }
        }

        // Post-hoc: every finished job respected its request.
        server.advance(SimTime::from_days(30));
        for id in &ids {
            let job = server.job(*id).unwrap();
            prop_assert!(job.state.is_final(), "{id} still {:?}", job.state);
            if job.state == JobState::Terminated {
                // Ran at most its walltime (early completion allowed).
                let ran = job.runtime().unwrap();
                prop_assert!(ran <= job.request.walltime);
                // Assigned node count honoured the request.
                let wanted: u32 = job
                    .request
                    .groups
                    .iter()
                    .filter_map(|g| g.node_count())
                    .sum();
                prop_assert_eq!(job.assigned.len() as u32, wanted);
                // Every assigned node matches the group's filter (single
                // group in this generator).
                let filter = &job.request.groups[0].filter;
                for n in &job.assigned {
                    let props = server.properties(*n);
                    prop_assert!(
                        throughout::oar::eval::eval(filter, props),
                        "node {n} violates filter {filter}"
                    );
                }
            }
        }
    }

    /// Waiting times are never negative and utilization stays in [0, 1].
    #[test]
    fn utilization_bounds(n_jobs in 1usize..30, seed_mins in 0u64..120) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let mut server = OarServer::new(&tb, &desc);
        for i in 0..n_jobs {
            server.advance(SimTime::from_mins(seed_mins + i as u64 * 7));
            let _ = server.submit(
                "prop",
                Queue::Default,
                JobKind::User,
                ResourceRequest::nodes(Expr::True, 2, SimDuration::from_hours(1)),
            );
            let u = server.utilization();
            prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        server.advance(SimTime::from_days(10));
        for job in server.jobs().iter() {
            if let Some(w) = job.waiting_time() {
                prop_assert!(w >= SimDuration::ZERO);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Federation placement: the pruned walk against an exhaustive reference.
// ---------------------------------------------------------------------

use rand::Rng;
use throughout::oar::{
    Count, Federation, Level, NodeState, Placement, RequestGroup,
};
use throughout::sim::stream_rng;
use throughout::testbed::gen::ClusterSpec;
use throughout::testbed::hardware::Vendor;
use throughout::testbed::{FaultKind, FaultTarget, LinkModelSpec, ServiceKind, Testbed};

/// The domain a request group is statically pinned to (its implied
/// cluster's site, else its implied site), as the federation defines it.
fn pinned_domain(tb: &Testbed, group: &RequestGroup) -> Option<usize> {
    if let Some(cluster) = group.filter.implied_cluster() {
        return tb.cluster_by_name(cluster).map(|c| c.site.index());
    }
    let site = group.filter.implied_eq("site")?;
    tb.site_by_name(site).map(|s| s.id.index())
}

/// `Federation::place` as specified, with no pruning: every decision is
/// taken by asking every domain, home first, then ascending site order.
fn exhaustive_place(
    tb: &Testbed,
    fed: &Federation,
    home: Option<usize>,
    request: &ResourceRequest,
) -> Placement {
    let home = home.filter(|&h| h < fed.len());
    let oar = |d: usize| &fed.domain(d).oar;
    let linked = |a: usize, b: usize| tb.backbone_reachable(fed.domain(a).site, fed.domain(b).site);

    // Cross-site co-allocation: every group pinned, at least two domains.
    let mut parts: Vec<(usize, ResourceRequest)> = Vec::new();
    let pinned = request.groups.iter().all(|group| {
        let Some(d) = pinned_domain(tb, group) else { return false };
        match parts.iter_mut().find(|(pd, _)| *pd == d) {
            Some((_, part)) => part.groups.push(group.clone()),
            None => parts.push((
                d,
                ResourceRequest { groups: vec![group.clone()], walltime: request.walltime },
            )),
        }
        true
    });
    if pinned && parts.len() >= 2 {
        let all_now = parts.iter().enumerate().all(|(i, (a, part))| {
            oar(*a).process_up()
                && parts[i + 1..].iter().all(|(b, _)| linked(*a, *b))
                && oar(*a).immediate_assignment(part).is_some()
        });
        return if all_now { Placement::Split(parts) } else { Placement::Nowhere };
    }

    let order: Vec<usize> = home
        .into_iter()
        .chain((0..fed.len()).filter(|&d| Some(d) != home && home.is_none_or(|h| linked(h, d))))
        .filter(|&d| oar(d).process_up())
        .collect();
    if let Some(&d) = order.iter().find(|&&d| oar(d).immediate_assignment(request).is_some()) {
        return Placement::Immediate(d);
    }
    match order.iter().find(|&&d| oar(d).can_satisfy(request)) {
        Some(&d) => Placement::Queued(d),
        None => Placement::Nowhere,
    }
}

/// A random world: 2–5 sites whose clusters interleave in spec order (so a
/// site's node ids are not contiguous), one GPU cluster in three.
fn random_world(rng: &mut impl Rng) -> Testbed {
    let sites = rng.gen_range(2..=5usize);
    let clusters = rng.gen_range(sites..=3 * sites);
    let specs = (0..clusters)
        .map(|c| {
            // Round-robin first so every site exists, then anywhere.
            let site = if c < sites { c } else { rng.gen_range(0..sites) };
            let spec = ClusterSpec::new(
                &format!("c{c}"),
                &format!("s{site}"),
                rng.gen_range(1..=5),
                8,
                Vendor::Dell,
                false,
                false,
            );
            if rng.gen_range(0..3) == 0 { spec.with_gpu() } else { spec }
        })
        .collect();
    TestbedBuilder::from_specs(specs).build()
}

/// A random filter: `True`, a cluster, a site, `gpu`, or a conjunction.
fn random_filter(tb: &Testbed, rng: &mut impl Rng) -> Expr {
    // One index past the end: a name nothing answers to.
    let cluster = Expr::eq("cluster", &format!("c{}", rng.gen_range(0..=tb.clusters().len())));
    let site = Expr::eq("site", &format!("s{}", rng.gen_range(0..=tb.sites().len())));
    let gpu = Expr::eq("gpu", "YES");
    match rng.gen_range(0..8) {
        0 | 1 => Expr::True,
        2 | 3 => cluster,
        4 => site,
        5 => gpu,
        6 => site.and(gpu),
        _ => gpu.and(cluster),
    }
}

/// Mostly `nodes=N` or `nodes=ALL`; sometimes the same under `cluster=C/`
/// (several clusters, each giving that many), sometimes `core=K` (whole
/// nodes for the equivalent node count).
fn random_group(tb: &Testbed, rng: &mut impl Rng) -> RequestGroup {
    let count = match rng.gen_range(0..6) {
        0 => Count::All,
        _ => Count::Exact(rng.gen_range(1..=4)),
    };
    let hierarchy = match rng.gen_range(0..8) {
        0 | 1 => vec![(Level::Cluster, Count::Exact(rng.gen_range(1..=3))), (Level::Nodes, count)],
        2 => vec![(Level::Core, Count::Exact(rng.gen_range(1..=8)))],
        _ => vec![(Level::Nodes, count)],
    };
    RequestGroup { filter: random_filter(tb, rng), hierarchy }
}

/// Mostly one group; sometimes two unrelated ones (which walk the
/// candidates unless both happen to be pinned), sometimes two pinned to
/// different sites (a cross-site co-allocation).
fn random_request(tb: &Testbed, rng: &mut impl Rng) -> ResourceRequest {
    let mut groups = vec![random_group(tb, rng)];
    match rng.gen_range(0..8) {
        0 => groups.push(random_group(tb, rng)),
        1 => {
            let a = rng.gen_range(0..tb.sites().len());
            let b = (a + rng.gen_range(1..tb.sites().len())) % tb.sites().len();
            groups[0].filter = Expr::eq("site", &format!("s{a}"));
            let mut other = random_group(tb, rng);
            other.filter = Expr::eq("site", &format!("s{b}"));
            groups.push(other);
        }
        _ => {}
    }
    ResourceRequest { groups, walltime: SimDuration::from_mins(rng.gen_range(20..400)) }
}

/// `None`, a real domain, or (rarely) an index past the last one.
fn random_home(fed: &Federation, rng: &mut impl Rng) -> Option<usize> {
    match rng.gen_range(0..8) {
        0..=2 => None,
        3 => Some(fed.len() + rng.gen_range(0..1000usize)),
        _ => Some(rng.gen_range(0..fed.len())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Placement asks only the sites that host a request, and each domain
    /// keeps only its own site's state. Neither may be observable: on
    /// random interleaved worlds under load, with dead nodes, a crashed OAR
    /// process and a partitioned backbone, `place` equals the exhaustive
    /// walk and every domain's counters equal a scan of the whole arena.
    #[test]
    fn placement_and_domain_counters_match_exhaustive_scans(seed in 0u64..u64::MAX) {
        let mut rng = stream_rng(seed, "federation-props");
        let mut tb = random_world(&mut rng);
        let desc = describe(&tb, 1, SimTime::ZERO);
        let mut fed = Federation::new(&tb, &desc);
        let mut now = SimTime::ZERO;

        for round in 0..4 {
            // Load: whatever `place` decides is booked, so later rounds
            // see running, scheduled and waiting jobs.
            for _ in 0..rng.gen_range(0..12) {
                now += SimDuration::from_mins(rng.gen_range(0..90));
                fed.advance(now);
                let (home, request) = (random_home(&fed, &mut rng), random_request(&tb, &mut rng));
                let _ = fed.submit("prop", Queue::Default, JobKind::User, request, home);
            }
            // Chaos, one kind per round, each synced the way the campaign
            // engine does.
            match round {
                1 => {
                    for _ in 0..rng.gen_range(1..4) {
                        let victim = tb.nodes()[rng.gen_range(0..tb.nodes().len())].id;
                        let _ = tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(victim), now);
                    }
                    let dirty = tb.take_alive_dirty();
                    fed.sync_dirty_nodes(&tb, &dirty);
                }
                2 => {
                    let site = tb.sites()[rng.gen_range(0..tb.sites().len())].id;
                    let target = FaultTarget::Service(site, ServiceKind::OarServer);
                    let _ = tb.apply_fault(FaultKind::ServiceCrash, target, now);
                    fed.sync_process_liveness(&tb);
                }
                3 => {
                    let model = if rng.gen_bool(0.5) {
                        LinkModelSpec::DistanceTiered
                    } else {
                        LinkModelSpec::Uniform { latency_s: 0.01, loss_prob: 0.0 }
                    };
                    tb.set_link_model(model);
                    let (a, b) = (rng.gen_range(0..fed.len()), rng.gen_range(0..fed.len()));
                    if a != b {
                        tb.topology_mut().set_site_link(fed.domain(a).site, fed.domain(b).site, false);
                    }
                    fed.sync_backbone(&tb);
                }
                _ => {}
            }

            for _ in 0..24 {
                let (home, request) = (random_home(&fed, &mut rng), random_request(&tb, &mut rng));
                prop_assert_eq!(
                    fed.place(home, &request),
                    exhaustive_place(&tb, &fed, home, &request),
                    "round {}, home {:?}, request {}", round, home, request
                );
            }

            for domain in fed.domains() {
                let mut alive = 0;
                for node in tb.nodes() {
                    let mine = node.site == domain.site;
                    let want = match (mine, tb.node_alive(node.id)) {
                        (false, _) => NodeState::Absent,
                        (true, true) => NodeState::Alive,
                        (true, false) => NodeState::Dead,
                    };
                    prop_assert_eq!(domain.oar.node_state(node.id), want, "{} on {}", node.name, domain.name);
                    alive += usize::from(want == NodeState::Alive);
                }
                let busy: Vec<_> = domain
                    .oar
                    .jobs()
                    .iter()
                    .filter(|j| j.state == JobState::Running)
                    .flat_map(|j| j.assigned.iter().copied())
                    .collect();
                prop_assert!(busy.iter().all(|&n| tb.node(n).site == domain.site));
                prop_assert_eq!(domain.oar.alive_nodes(), alive);
                prop_assert_eq!(domain.oar.busy_nodes(), busy.len());
                let utilization = if alive == 0 { 0.0 } else { busy.len() as f64 / alive as f64 };
                prop_assert_eq!(domain.oar.utilization(), utilization);
                prop_assert!(domain.oar.check_consistency().is_ok());
            }
        }
    }

    /// "Can this ever run here?" and "could this start right now?" are one
    /// planner: with nothing reserved they are the same question, whatever
    /// the request's shape and whichever nodes are dead — per domain and
    /// for a stand-alone server. A request accepted on the first answer
    /// that the second can never confirm would wait forever.
    #[test]
    fn satisfiable_means_startable_when_nothing_is_reserved(seed in 0u64..u64::MAX) {
        let mut rng = stream_rng(seed, "satisfiable-props");
        let mut tb = random_world(&mut rng);
        let desc = describe(&tb, 1, SimTime::ZERO);
        let mut fed = Federation::new(&tb, &desc);
        let mut alone = OarServer::new(&tb, &desc);
        for _ in 0..rng.gen_range(0..tb.nodes().len()) {
            let victim = tb.nodes()[rng.gen_range(0..tb.nodes().len())].id;
            let _ = tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(victim), SimTime::ZERO);
        }
        let dirty = tb.take_alive_dirty();
        fed.sync_dirty_nodes(&tb, &dirty);
        alone.sync_dirty_nodes(&tb, &dirty);

        for _ in 0..32 {
            let request = random_request(&tb, &mut rng);
            let servers = fed.domains().iter().map(|d| (d.name.as_str(), &d.oar));
            for (name, oar) in servers.chain([("stand-alone", &alone)]) {
                prop_assert_eq!(
                    oar.can_satisfy(&request),
                    oar.immediate_assignment(&request).is_some(),
                    "{} on {}", request, name
                );
            }
        }
    }
}
