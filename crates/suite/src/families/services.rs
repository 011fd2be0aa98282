//! Service-behaviour families: `oarstate`, `cmdline`, `sidapi`, `console`,
//! `kavlan`, `kwapi`.

use crate::ctx::TestCtx;
use crate::report::{Diagnostic, TestReport};
use std::collections::BTreeMap;
use ttt_kavlan::{VlanKind, DEFAULT_VLAN};
use ttt_kwapi::PowerSampler;
use ttt_sim::{RpcError, SimDuration};
use ttt_testbed::{CallFailure, FaultTarget, ServiceKind, SiteId, Symptom};

/// Call one site service `attempts` times through the RPC envelope and
/// classify what came back:
///
/// * every call refused → `service-crash` (the *process* is gone — a
///   crashed or restarting daemon, not a sick one);
/// * every call reached the service and failed → `service-down` (the
///   legacy health signature);
/// * a mix of failures → `service-flaky` (health flakiness, buggify
///   perturbations and partial refusals all blend into this noise);
/// * any call dropped on the wire → additionally `rpc-degraded` against
///   the site, since a lossy link is a site-level condition, not the
///   service's fault.
fn probe_service(
    ctx: &mut TestCtx,
    site: SiteId,
    kind: ServiceKind,
    attempts: u32,
    diagnostics: &mut Vec<Diagnostic>,
) {
    let mut refused = 0;
    let mut dropped = 0;
    let mut sick = 0;
    for _ in 0..attempts {
        match ctx.tb.service_call(site, kind, ctx.rng) {
            Ok(_) => {}
            Err(CallFailure::Rpc(RpcError::Refused)) => refused += 1,
            Err(CallFailure::Rpc(RpcError::Dropped)) => dropped += 1,
            Err(CallFailure::Service(_)) => sick += 1,
        }
    }
    if refused == attempts {
        diagnostics.push(Diagnostic::new(
            Symptom::ServiceCrash.on(FaultTarget::Service(site, kind)),
            format!("{kind} on {site}: connection refused on all {attempts} attempts — the process is down"),
        ));
    } else if sick == attempts {
        diagnostics.push(Diagnostic::new(
            Symptom::ServiceDown.on(FaultTarget::Service(site, kind)),
            format!("{kind} on {site}: {sick}/{attempts} calls failed"),
        ));
    } else if refused + sick > 0 {
        diagnostics.push(Diagnostic::new(
            Symptom::ServiceFlaky.on(FaultTarget::Service(site, kind)),
            format!("{kind} on {site}: {n}/{attempts} calls failed", n = refused + sick),
        ));
    }
    if dropped > 0 {
        diagnostics.push(Diagnostic::new(
            Symptom::RpcDegraded.on(site),
            format!("{kind} on {site}: {dropped}/{attempts} calls lost on the wire"),
        ));
    }
}

fn site_id(ctx: &TestCtx, site: &str) -> Option<SiteId> {
    ctx.tb.site_by_name(site).map(|s| s.id)
}

/// `oarstate`: report nodes of the site that are dead or excluded — the
/// "testbed status" check. A whole-site power outage is reported once as
/// the site-level fault, not as hundreds of per-node deaths.
pub fn oarstate(site: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(2);
    let mut diagnostics = Vec::new();
    let Some(sid) = site_id(ctx, site) else {
        return TestReport::from_diagnostics(vec![], duration);
    };
    // The status view is federation-wide (the real status page aggregates
    // every site), so a run hosted on a healthy site still reports a peer
    // site's blackout — which is the only way it CAN be reported: a dead
    // site cannot host the test that would diagnose it.
    for peer in ctx.tb.sites() {
        if !ctx.tb.site_powered(peer.id) {
            diagnostics.push(Diagnostic::new(
                Symptom::SitePowerOutage.on(peer.id),
                format!("{}: every node unreachable — the site lost power", peer.name),
            ));
        } else if !ctx.tb.process_up(peer.id, ServiceKind::OarServer) {
            // Powered site, dead scheduler process: the opposite corner of
            // the availability matrix from a blackout. The distinction
            // matters — an outage repair crew is the wrong fix for a
            // daemon that needs restarting, and vice versa.
            diagnostics.push(Diagnostic::new(
                Symptom::ServiceCrash.on(FaultTarget::Service(peer.id, ServiceKind::OarServer)),
                format!(
                    "{}: site is powered but its OAR server refuses connections",
                    peer.name
                ),
            ));
        }
    }
    if !ctx.tb.site_powered(sid) {
        // Own site dark: the per-node sweep would just repeat the outage.
        return TestReport::from_diagnostics(diagnostics, duration);
    }
    for node in ctx.tb.nodes() {
        if node.site != sid {
            continue;
        }
        if !node.condition.alive {
            diagnostics.push(Diagnostic::new(
                Symptom::NodeDead.on(&node.name),
                format!("{} is dead (OAR state should not be Alive)", node.name),
            ));
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `cmdline`: exercise the site's command-line-reachable services, and
/// run the actual `oarstat`/`oarnodes` text tools against the server.
pub fn cmdline(site: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(3);
    let mut diagnostics = Vec::new();
    if let Some(sid) = site_id(ctx, site) {
        for kind in [
            ServiceKind::OarServer,
            ServiceKind::KadeployServer,
            ServiceKind::KavlanServer,
            ServiceKind::ConsoleServer,
        ] {
            probe_service(ctx, sid, kind, 4, &mut diagnostics);
        }
    }
    // The frontend's clock must agree with the federation's NTP reference
    // (a skewed site corrupts every cross-site timestamp comparison).
    if let Some(sid) = site_id(ctx, site) {
        let skew = ctx.tb.clock_skew_of(sid);
        if skew.abs() > 1.0 {
            diagnostics.push(Diagnostic::new(
                Symptom::ClockSkew.on(sid),
                format!("{site}: frontend clock is {skew:.0}s off the NTP reference"),
            ));
        }
    }
    // The CLI tools must produce well-formed output. Both print every row,
    // as the real tools do; only the headers are checked, so only the
    // first line is kept.
    let mut header = FirstLine::default();
    let _ = ttt_oar::oarstat_into(ctx.oar, &mut header);
    if !header.line.starts_with("Job id") {
        diagnostics.push(Diagnostic::new(
            Symptom::CmdlineOarstat.on(site),
            "oarstat output lost its header",
        ));
    }
    header.clear();
    let _ = ttt_oar::oarnodes_into(ctx.oar, 4, &mut header);
    if !header.line.contains("Host") {
        diagnostics.push(Diagnostic::new(
            Symptom::CmdlineOarnodes.on(site),
            "oarnodes output lost its header",
        ));
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// A text sink that keeps the first line written to it and drops the rest.
struct FirstLine {
    line: String,
    ended: bool,
}

impl Default for FirstLine {
    fn default() -> Self {
        // Room for either tool's header: one allocation, never regrown.
        FirstLine { line: String::with_capacity(64), ended: false }
    }
}

impl FirstLine {
    /// Forget the line, keeping its buffer.
    fn clear(&mut self) {
        self.line.clear();
        self.ended = false;
    }
}

impl std::fmt::Write for FirstLine {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        if !self.ended {
            let head = s.split_once('\n').map_or(s, |(head, _)| head);
            self.line.push_str(head);
            self.ended = head.len() < s.len();
        }
        Ok(())
    }
}

/// `sidapi`: exercise the site REST API and cross-check it serves a
/// description for every cluster of the site.
pub fn sidapi(site: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(2);
    let mut diagnostics = Vec::new();
    let Some(sid) = site_id(ctx, site) else {
        return TestReport::from_diagnostics(vec![], duration);
    };
    probe_service(ctx, sid, ServiceKind::ApiFrontend, 4, &mut diagnostics);
    match ctx.refapi.latest() {
        None => diagnostics.push(Diagnostic::new(
            Symptom::RefapiEmpty.on(site),
            "the Reference API serves no description",
        )),
        Some(desc) => {
            for &cid in &ctx.tb.site(sid).clusters {
                let name = &ctx.tb.cluster(cid).name;
                if desc.cluster(name).is_none() {
                    diagnostics.push(Diagnostic::new(
                        Symptom::UndescribedCluster.on(name),
                        format!("cluster {name} missing from the Reference API"),
                    ));
                }
            }
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `console`: open the serial console of each assigned node through the
/// site console service and expect a prompt.
pub fn console(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(2);
    let mut diagnostics = Vec::new();
    if let Some(&first) = ctx.assigned.first() {
        let sid = ctx.tb.node(first).site;
        probe_service(ctx, sid, ServiceKind::ConsoleServer, 4, &mut diagnostics);
    }
    for &node in ctx.assigned {
        let n = ctx.tb.node(node);
        if n.condition.console_dead {
            diagnostics.push(Diagnostic::new(
                Symptom::ConsoleDead.on(&n.name),
                format!("{}: no prompt on the serial console", n.name),
            ));
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `kavlan`: move the assigned nodes into a fresh VLAN, verify isolation
/// (or, for the global configuration, cross-site level-2 reachability),
/// then restore. A port that silently stays put is the bug.
pub fn kavlan(global: bool, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(6);
    let mut diagnostics = Vec::new();
    if ctx.assigned.len() < 2 {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::KavlanUnderprovisioned.on(""),
                "kavlan test needs two nodes",
            )],
            duration,
        );
    }
    let (a, b) = (ctx.assigned[0], ctx.assigned[1]);
    let site = ctx.tb.node(a).site;
    if let Some(&first) = ctx.assigned.first() {
        let sid = ctx.tb.node(first).site;
        probe_service(ctx, sid, ServiceKind::KavlanServer, 4, &mut diagnostics);
    }
    // The global configuration spans sites: the backbone link between the
    // two endpoints must carry traffic before level-2 bridging can work.
    if global {
        let (sa, sb) = (ctx.tb.node(a).site, ctx.tb.node(b).site);
        if sa != sb && !ctx.tb.topology().sites_connected(sa, sb) {
            let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
            diagnostics.push(Diagnostic::new(
                Symptom::SiteLinkPartition.on(FaultTarget::SiteLink(lo, hi)),
                format!("{lo} and {hi} cannot reach each other — backbone link is down"),
            ));
            return TestReport::from_diagnostics(diagnostics, duration);
        }
    }
    let vlan = if global {
        ctx.kavlan.create_vlan(VlanKind::Global, None)
    } else {
        ctx.kavlan.create_vlan(VlanKind::Local, Some(site))
    };
    ctx.kavlan.set_vlan(ctx.tb, a, vlan);
    ctx.kavlan.set_vlan(ctx.tb, b, vlan);
    // Did each port actually move?
    for &n in &[a, b] {
        if ctx.kavlan.vlan_of(n) != vlan {
            let name = &ctx.tb.node(n).name;
            diagnostics.push(Diagnostic::new(
                Symptom::VlanPortStuck.on(name),
                format!("{name}: port did not move to the requested VLAN"),
            ));
        }
    }
    // Inside the VLAN the two nodes must reach each other.
    if ctx.kavlan.vlan_of(a) == vlan && ctx.kavlan.vlan_of(b) == vlan && !ctx.kavlan.can_reach(a, b)
    {
        diagnostics.push(Diagnostic::new(
            Symptom::VlanBroken.on(vlan.0),
            "nodes in the same VLAN cannot reach each other",
        ));
    }
    // Restore.
    ctx.kavlan.set_vlan(ctx.tb, a, DEFAULT_VLAN);
    ctx.kavlan.set_vlan(ctx.tb, b, DEFAULT_VLAN);
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `kavlan` against one site: a fresh local VLAN must isolate.
pub fn kavlan_site(_site: &str, ctx: &mut TestCtx) -> TestReport {
    kavlan(false, ctx)
}

/// `kavlan` against the whole testbed: a global VLAN must bridge sites.
pub fn kavlan_global(ctx: &mut TestCtx) -> TestReport {
    kavlan(true, ctx)
}

/// `kwapi`: verify power-measurement attribution: load one assigned node,
/// keep the other idle, and check the load shows up on the right
/// wattmeter at ~1 Hz. Detects the paper's cabling bug.
pub fn kwapi(site: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(3);
    let mut diagnostics = Vec::new();
    if let Some(sid) = site_id(ctx, site) {
        probe_service(ctx, sid, ServiceKind::KwapiServer, 4, &mut diagnostics);
    }
    if ctx.assigned.len() < 2 {
        return TestReport::from_diagnostics(diagnostics, duration);
    }
    let (target, control) = (ctx.assigned[0], ctx.assigned[1]);
    let sampler = PowerSampler::default();
    let target_site = ctx.tb.node(target).site;

    // Phase 1: both idle, 20 s.
    let idle_from = ctx.now;
    let idle_to = idle_from + SimDuration::from_secs(20);
    sampler.run_site(ctx.tb, target_site, &BTreeMap::new(), idle_from, idle_to, ctx.kwapi, ctx.rng);
    // Phase 2: load the target, 40 s.
    let mut loads = BTreeMap::new();
    loads.insert(target, 1.0);
    let load_to = idle_to + SimDuration::from_secs(40);
    sampler.run_site(ctx.tb, target_site, &loads, idle_to, load_to, ctx.kwapi, ctx.rng);

    let name = ctx.tb.node(target).name.clone();
    let idle = ctx.kwapi.power(target).mean(idle_from, idle_to);
    let loaded = ctx.kwapi.power(target).mean(idle_to, load_to);
    match (idle, loaded) {
        (Some(idle_w), Some(loaded_w)) => {
            if loaded_w - idle_w < 10.0 {
                diagnostics.push(Diagnostic::new(
                    Symptom::CablingSwap.on(&name),
                    format!(
                        "{name}: induced full load, wattmeter moved only \
                         {idle_w:.0}→{loaded_w:.0} W — measurements are mis-attributed"
                    ),
                ));
            }
        }
        _ => diagnostics.push(Diagnostic::new(
            Symptom::KwapiNoData.on(&name),
            format!("{name}: no power samples recorded"),
        )),
    }
    // Sampling-rate check on the control node, over THIS run's window
    // only (the series also holds samples from earlier runs).
    let expected = load_to.since(idle_from).as_secs_f64();
    let got = ctx
        .kwapi
        .power(control)
        .count(idle_from, load_to + SimDuration::from_secs(1));
    if (got as f64) < expected * 0.8 {
        diagnostics.push(Diagnostic::new(
            Symptom::KwapiRate.on(site),
            format!("{got} samples over {expected:.0}s, expected ≈1 Hz"),
        ));
    }
    ctx.now = load_to;
    TestReport::from_diagnostics(diagnostics, duration)
}

#[cfg(test)]
mod tests {
    use crate::config::{Family, Target, TestConfig};
    use crate::testutil::Harness;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, ServiceKind, Symptom};

    #[test]
    fn oarstate_reports_dead_nodes() {
        let mut h = Harness::new(10);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[1];
        h.tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::OarState,
            target: Target::Site("east".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::NodeDead.on("alpha-2"));
    }

    #[test]
    fn cmdline_detects_down_service() {
        let mut h = Harness::new(11);
        let site = h.tb.site_by_name("east").unwrap().id;
        h.tb.apply_fault(
            FaultKind::ServiceDown,
            FaultTarget::Service(site, ServiceKind::KadeployServer),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::Cmdline,
            target: Target::Site("east".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(
            report.diagnostics[0].signature.to_string(),
            format!("service-down@{site}/kadeploy-server")
        );
    }

    #[test]
    fn sidapi_detects_flaky_frontend_eventually() {
        let mut h = Harness::new(12);
        let site = h.tb.site_by_name("east").unwrap().id;
        h.tb.apply_fault(
            FaultKind::ServiceFlaky,
            FaultTarget::Service(site, ServiceKind::ApiFrontend),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::SidApi,
            target: Target::Site("east".into()),
        };
        // Flaky at p=0.25 per call, 4 calls per run: may pass a given run;
        // over 20 runs, detection is near-certain.
        let detected = (0..20).any(|_| !h.run(&cfg).passed());
        assert!(detected, "flaky frontend never detected over 20 runs");
    }

    #[test]
    fn console_detects_dead_console_on_assigned_node() {
        let mut h = Harness::new(13);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::ConsoleDead, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::Console,
            target: Target::Cluster("alpha".into()),
        };
        h.assigned = vec![node];
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::ConsoleDead.on("alpha-1"));
    }

    #[test]
    fn kavlan_passes_clean_and_detects_stuck_port() {
        let mut h = Harness::new(14);
        let cfg = TestConfig {
            family: Family::Kavlan,
            target: Target::Site("east".into()),
        };
        assert!(h.run(&cfg).passed());
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::VlanPortStuck, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        h.assigned = vec![node, h.tb.cluster_by_name("alpha").unwrap().nodes[1]];
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::VlanPortStuck.on("alpha-1"));
    }

    #[test]
    fn sidapi_flags_missing_reference_api() {
        let mut h = Harness::new(17);
        // Blank archive: the site API has nothing to serve.
        h.refapi = throughout_refapi_blank();
        let cfg = TestConfig {
            family: Family::SidApi,
            target: Target::Site("east".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.signature.symptom == Symptom::RefapiEmpty));
    }

    fn throughout_refapi_blank() -> ttt_refapi::RefApi {
        ttt_refapi::RefApi::new()
    }

    #[test]
    fn console_detects_down_console_service() {
        let mut h = Harness::new(18);
        let site = h.tb.site_by_name("east").unwrap().id;
        h.tb.apply_fault(
            FaultKind::ServiceDown,
            FaultTarget::Service(site, ServiceKind::ConsoleServer),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::Console,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature.symptom, Symptom::ServiceDown);
    }

    #[test]
    fn kavlan_global_configuration_runs() {
        let mut h = Harness::new(15);
        let cfg = TestConfig {
            family: Family::Kavlan,
            target: Target::Global,
        };
        let report = h.run(&cfg);
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn oarstate_reports_site_power_outage_once() {
        let mut h = Harness::new(20);
        let site = h.tb.site_by_name("east").unwrap().id;
        h.tb.apply_fault(
            ttt_testbed::FaultKind::SitePowerOutage,
            FaultTarget::Site(site),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::OarState,
            target: Target::Site("east".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        // One site-level diagnostic, not one per dead node.
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(
            report.diagnostics[0].signature,
            Symptom::SitePowerOutage.on(site)
        );
    }

    #[test]
    fn cmdline_detects_clock_skew() {
        let mut h = Harness::new(21);
        let site = h.tb.site_by_name("west").unwrap().id;
        h.tb.apply_fault(
            ttt_testbed::FaultKind::ClockSkew,
            FaultTarget::Site(site),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::Cmdline,
            target: Target::Site("west".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.signature == Symptom::ClockSkew.on(site)));
    }

    #[test]
    fn kavlan_global_detects_site_link_partition() {
        let mut h = Harness::new(22);
        let (a, b) = (h.tb.sites()[0].id, h.tb.sites()[1].id);
        h.tb.apply_fault(
            ttt_testbed::FaultKind::SiteLinkPartition,
            FaultTarget::SiteLink(a, b),
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = TestConfig {
            family: Family::Kavlan,
            target: Target::Global,
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(
            report.diagnostics[0].signature.to_string(),
            format!("site-link-partition@{a}~{b}")
        );
        // Local (single-site) kavlan is unaffected by the partition.
        let local = TestConfig {
            family: Family::Kavlan,
            target: Target::Site("east".into()),
        };
        assert!(h.run(&local).passed());
    }

    #[test]
    fn kwapi_passes_clean_and_detects_cabling_swap() {
        let mut h = Harness::new(16);
        let cfg = TestConfig {
            family: Family::Kwapi,
            target: Target::Site("east".into()),
        };
        assert!(h.run(&cfg).passed());

        let cluster = h.tb.cluster_by_name("alpha").unwrap().nodes.clone();
        h.tb.apply_fault(
            FaultKind::CablingSwap,
            FaultTarget::NodePair(cluster[0], cluster[1]),
            SimTime::ZERO,
        )
        .unwrap();
        h.assigned = vec![cluster[0], cluster[2]];
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::CablingSwap.on("alpha-1"));
    }
}
