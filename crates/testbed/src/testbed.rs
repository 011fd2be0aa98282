//! The testbed aggregate: arenas of sites/clusters/nodes, topology,
//! services, and the fault application/repair logic.

use crate::cluster::Cluster;
use crate::fault::{Fault, FaultId, FaultKind, FaultTarget};
use crate::hardware::NodeHardware;
use crate::ids::{ClusterId, NodeId, SiteId};
use crate::link::LinkModelSpec;
use crate::node::Node;
use crate::process::ProcessRegistry;
use crate::services::{Service, ServiceError, ServiceHealth, ServiceKind};
use crate::site::Site;
use crate::topology::Topology;
use rand::Rng;
use std::fmt;
use ttt_sim::rpc::{Buggify, LinkQuality, RpcError};
use ttt_sim::{SimDuration, SimTime};

/// How long a `ServiceRestart` fault keeps its process down before the
/// campaign driver auto-repairs it (the restart completing *is* the repair).
pub const SERVICE_RESTART_WINDOW: SimDuration = SimDuration::from_mins(30);

/// The site the control plane (campaign driver, CI, deployment tooling)
/// calls services *from*: the first site of the testbed. Link models price
/// enveloped calls along the `CONTROL_SITE → target` backbone path.
pub const CONTROL_SITE: SiteId = SiteId(0);

/// One recorded envelope outcome, drained by a recording campaign into its
/// run event log each step.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcTraceEntry {
    /// Target site of the call.
    pub site: SiteId,
    /// Service kind called.
    pub kind: ServiceKind,
    /// `"ok"` or the failure rendered.
    pub outcome: String,
}

/// How an enveloped service call fails: either the RPC layer never reached
/// the process (refused/dropped), or the process answered and its service
/// logic failed (down/flaky health, injected chaos).
#[derive(Debug, Clone, PartialEq)]
pub enum CallFailure {
    /// The envelope failed before the service logic ran.
    Rpc(RpcError),
    /// The service logic itself failed.
    Service(ServiceError),
}

impl fmt::Display for CallFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallFailure::Rpc(e) => write!(f, "{e}"),
            CallFailure::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CallFailure {}

/// The whole simulated testbed.
///
/// All entity collections are dense arenas indexed by the typed ids, so
/// lookups are O(1) and iteration is cache-friendly (the campaign
/// orchestrator touches every node once per tick).
#[derive(Debug, Clone)]
pub struct Testbed {
    sites: Vec<Site>,
    clusters: Vec<Cluster>,
    nodes: Vec<Node>,
    topology: Topology,
    /// `services[site][i]` for `i` indexing [`ServiceKind::ALL`].
    services: Vec<Vec<Service>>,
    active: Vec<Fault>,
    next_fault_id: u64,
    /// Nodes whose `alive` flag flipped since the last
    /// [`Testbed::take_alive_dirty`] — the OAR server diffs against this
    /// instead of rescanning every node each pass.
    alive_dirty: Vec<NodeId>,
    /// `site_power[site]` — false while a `SitePowerOutage` is active.
    site_power: Vec<bool>,
    /// `clock_skew_s[site]` — seconds of NTP drift (0.0 = in sync).
    clock_skew_s: Vec<f64>,
    /// `injected[k]` for `k` indexing [`FaultKind::ALL`] — every fault ever
    /// successfully applied, repaired or not. The coverage-guided fuzzer's
    /// behavioral signature reads this ledger (injected × detected kinds).
    injected: [u64; FaultKind::ALL.len()],
    /// The simulated service processes (one per site × [`ServiceKind`]),
    /// each pinned to a host node with killable liveness.
    processes: ProcessRegistry,
    /// `rpc_degrade[site]` — link quality applied to every enveloped call
    /// into that site while an `RpcDegraded` fault is active.
    rpc_degrade: Vec<Option<LinkQuality>>,
    /// The buggify switch for IO-shaped callsites, off unless the campaign
    /// config arms it.
    buggify: Buggify,
    /// The backbone link model pricing inter-site calls and placement
    /// probes. [`LinkModelSpec::Ideal`] (the default) is draw-free and
    /// byte-identical to the pre-link-model behavior.
    link_model: LinkModelSpec,
    /// Envelope outcomes recorded since the last drain, `None` unless a
    /// recording campaign enabled the trace (zero cost when off).
    rpc_trace: Option<Vec<RpcTraceEntry>>,
}

impl Testbed {
    /// Assemble a testbed from parts (used by the generator).
    pub(crate) fn from_parts(
        sites: Vec<Site>,
        clusters: Vec<Cluster>,
        nodes: Vec<Node>,
        topology: Topology,
    ) -> Self {
        let services = sites
            .iter()
            .map(|_| ServiceKind::ALL.iter().map(|&k| Service::healthy(k)).collect())
            .collect();
        let n_sites = sites.len();
        // Each service process is pinned to its site's first node — pure
        // identity metadata (host death is a separate fault axis).
        let processes = ProcessRegistry::new(n_sites, |s| {
            nodes.iter().find(|n| n.site.index() == s).map(|n| n.id)
        });
        Testbed {
            site_power: vec![true; n_sites],
            clock_skew_s: vec![0.0; n_sites],
            injected: [0; FaultKind::ALL.len()],
            processes,
            rpc_degrade: vec![None; n_sites],
            buggify: Buggify::off(),
            link_model: LinkModelSpec::Ideal,
            rpc_trace: None,
            sites,
            clusters,
            nodes,
            topology,
            services,
            active: Vec::new(),
            next_fault_id: 0,
            alive_dirty: Vec::new(),
        }
    }

    /// Nodes whose alive state changed since the last drain, without
    /// consuming them.
    pub fn alive_dirty(&self) -> &[NodeId] {
        &self.alive_dirty
    }

    /// Drain the set of nodes whose alive state changed since the previous
    /// drain. Consumers (the OAR server sync) process exactly these instead
    /// of scanning all nodes.
    pub fn take_alive_dirty(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.alive_dirty)
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// One site by id.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.index()]
    }

    /// One cluster by id.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// One node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable node access (deployment engine, examples).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Effective reachability of a node: its hardware is alive *and* its
    /// site has power. Schedulers and status checks observe this, not the
    /// raw hardware flag — a powered-off site looks exactly like a rack of
    /// dead machines from the outside.
    pub fn node_alive(&self, id: NodeId) -> bool {
        let node = &self.nodes[id.index()];
        node.condition.alive && self.site_power[node.site.index()]
    }

    /// Whether a site currently has power.
    pub fn site_powered(&self, site: SiteId) -> bool {
        self.site_power[site.index()]
    }

    /// A site's current clock skew against the federation reference, in
    /// seconds (0.0 = synchronized).
    pub fn clock_skew_of(&self, site: SiteId) -> f64 {
        self.clock_skew_s[site.index()]
    }

    /// Look a cluster up by name.
    pub fn cluster_by_name(&self, name: &str) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.name == name)
    }

    /// Look a node up by host name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Look a site up by name.
    pub fn site_by_name(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Total core count across the testbed.
    pub fn total_cores(&self) -> u64 {
        self.clusters.iter().map(|c| c.total_cores() as u64).sum()
    }

    /// The network/power topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (KaVLAN, examples).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// One site service.
    pub fn service(&self, site: SiteId, kind: ServiceKind) -> &Service {
        &self.services[site.index()][kind.index()]
    }

    /// Mutable service access.
    pub fn service_mut(&mut self, site: SiteId, kind: ServiceKind) -> &mut Service {
        &mut self.services[site.index()][kind.index()]
    }

    /// The service-process registry (read-only view).
    pub fn processes(&self) -> &ProcessRegistry {
        &self.processes
    }

    /// Whether the process serving `kind` at `site` is listening.
    pub fn process_up(&self, site: SiteId, kind: ServiceKind) -> bool {
        self.processes.is_up(site, kind)
    }

    /// Arm (or disarm) the buggify switch. The campaign driver sets this
    /// once from its config before the first step.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// The buggify switch, for subsystems that inject at their own
    /// callsites (CI assignment, deployment rounds).
    pub fn buggify(&self) -> Buggify {
        self.buggify
    }

    /// Install the backbone link model. The campaign driver sets this once
    /// from its config before the first step; the default
    /// [`LinkModelSpec::Ideal`] never draws and never adds latency, so
    /// unconfigured campaigns are byte-identical to pre-link-model ones.
    pub fn set_link_model(&mut self, model: LinkModelSpec) {
        self.link_model = model;
    }

    /// The installed backbone link model.
    pub fn link_model(&self) -> LinkModelSpec {
        self.link_model
    }

    /// Enable (or disable) the envelope-outcome trace a recording campaign
    /// drains into its run event log. Off by default and free when off.
    pub fn set_rpc_trace(&mut self, on: bool) {
        self.rpc_trace = if on { Some(Vec::new()) } else { None };
    }

    /// Drain the envelope outcomes recorded since the last drain.
    pub fn take_rpc_trace(&mut self) -> Vec<RpcTraceEntry> {
        match self.rpc_trace.as_mut() {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }

    /// Whether the backbone path between two sites is usable for placement
    /// under the installed link model. With the ideal model the backbone
    /// is free and placement ignores it (the historical behavior); with a
    /// real model armed, a partitioned pair — or one whose modelled loss
    /// makes the link mostly dead — is unreachable, so partitions become a
    /// matter of degree the federation actually feels.
    pub fn backbone_reachable(&self, a: SiteId, b: SiteId) -> bool {
        if self.link_model.is_ideal() || a == b {
            return true;
        }
        if !self.topology.sites_connected(a, b) {
            return false;
        }
        self.link_model
            .quality(a, b)
            .is_none_or(|q| q.loss_prob < 0.5)
    }

    /// Route one service call through the RPC envelope: liveness first
    /// (a dead process refuses — no draw), then the backbone link model on
    /// the control-plane path (partitioned pair drops with no draw; a
    /// lossy model costs one draw only when its `loss_prob > 0`), then
    /// link loss on a degraded site (one draw), then the buggify hook (one
    /// draw when armed), then the service's own health logic. `Ok` carries
    /// the extra envelope latency in seconds (0.0 on a healthy link).
    ///
    /// Draw counts depend only on fault state, the link model, and the
    /// buggify arm — all identical across engines for the same scenario —
    /// so the stream stays engine-equivalent. The ideal model (the
    /// default) adds no draws and no latency anywhere.
    pub fn service_call<R: Rng>(
        &mut self,
        site: SiteId,
        kind: ServiceKind,
        rng: &mut R,
    ) -> Result<f64, CallFailure> {
        let result = self.service_call_inner(site, kind, rng);
        if let Some(trace) = self.rpc_trace.as_mut() {
            trace.push(RpcTraceEntry {
                site,
                kind,
                outcome: match &result {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.to_string(),
                },
            });
        }
        result
    }

    fn service_call_inner<R: Rng>(
        &mut self,
        site: SiteId,
        kind: ServiceKind,
        rng: &mut R,
    ) -> Result<f64, CallFailure> {
        if !self.processes.is_up(site, kind) {
            self.processes.note_lost_call(site, kind);
            return Err(CallFailure::Rpc(RpcError::Refused));
        }
        let mut latency = 0.0;
        if let Some(q) = self.link_model.quality(CONTROL_SITE, site) {
            // A non-ideal model makes partitions absolute: the modelled
            // path crosses the backbone, and a downed link drops every
            // call outright (no draw — the decision is topological).
            if !self.topology.sites_connected(CONTROL_SITE, site) {
                self.processes.note_lost_call(site, kind);
                return Err(CallFailure::Rpc(RpcError::Dropped));
            }
            latency += q.latency_s;
            if q.loss_prob > 0.0 && rng.gen_bool(q.loss_prob.clamp(0.0, 1.0)) {
                self.processes.note_lost_call(site, kind);
                return Err(CallFailure::Rpc(RpcError::Dropped));
            }
        }
        if let Some(q) = self.rpc_degrade[site.index()] {
            latency += q.latency_s;
            if rng.gen_bool(q.loss_prob.clamp(0.0, 1.0)) {
                self.processes.note_lost_call(site, kind);
                return Err(CallFailure::Rpc(RpcError::Dropped));
            }
        }
        if self.buggify.fire("testbed-service-call", rng) {
            // Injected chaos surfaces as a transient service error so it
            // blends into flaky noise rather than fabricating a crash or
            // degraded-link signature.
            return Err(CallFailure::Service(ServiceError::Transient(format!(
                "buggify: {kind} call perturbed"
            ))));
        }
        self.service_mut(site, kind)
            .call(rng)
            .map(|()| latency)
            .map_err(CallFailure::Service)
    }

    /// The earliest scheduled process-restart instant — a campaign wake
    /// term (`ServiceRestart` downtime windows end on their own).
    pub fn next_service_restart(&self) -> Option<SimTime> {
        self.processes.next_restart()
    }

    /// Active `ServiceRestart` faults whose downtime window has elapsed by
    /// `now`, in fault-id order. The campaign driver repairs exactly these
    /// each step (the restart completing *is* the repair).
    pub fn due_service_restarts(&self, now: SimTime) -> Vec<FaultId> {
        self.active
            .iter()
            .filter(|f| f.kind == FaultKind::ServiceRestart)
            .filter(|f| match f.target {
                FaultTarget::Service(site, svc) => self
                    .processes
                    .entry(site, svc)
                    .state
                    .restart_at()
                    .is_some_and(|at| at <= now),
                _ => false,
            })
            .map(|f| f.id)
            .collect()
    }

    /// Currently active (unrepaired) faults.
    pub fn active_faults(&self) -> &[Fault] {
        &self.active
    }

    /// How many faults of each kind were ever applied (repairs do not
    /// decrement), `(kind, count)` in [`FaultKind::ALL`] order, zero
    /// entries skipped.
    pub fn injection_counts(&self) -> Vec<(FaultKind, u64)> {
        FaultKind::ALL
            .iter()
            .zip(self.injected)
            .filter(|&(_, n)| n > 0)
            .map(|(&k, n)| (k, n))
            .collect()
    }

    /// The active fault with the given id, if any.
    pub fn fault(&self, id: FaultId) -> Option<&Fault> {
        self.active.iter().find(|f| f.id == id)
    }

    /// Active faults touching `node` (site-wide faults touch every node of
    /// their site).
    pub fn faults_on_node(&self, node: NodeId) -> Vec<&Fault> {
        let site = self.nodes[node.index()].site;
        self.active
            .iter()
            .filter(|f| match f.target {
                FaultTarget::Node(n) => n == node,
                FaultTarget::NodePair(a, b) => a == node || b == node,
                FaultTarget::Service(..) => false,
                FaultTarget::Site(s) => s == site,
                FaultTarget::SiteLink(..) => false,
            })
            .collect()
    }

    /// Whether every node and site `target` names exists in this testbed.
    fn target_exists(&self, target: FaultTarget) -> bool {
        let node = |n: NodeId| n.index() < self.nodes.len();
        let site = |s: SiteId| s.index() < self.sites.len();
        match target {
            FaultTarget::Node(n) => node(n),
            FaultTarget::NodePair(a, b) => node(a) && node(b),
            FaultTarget::Service(s, _) | FaultTarget::Site(s) => site(s),
            FaultTarget::SiteLink(a, b) => site(a) && site(b),
        }
    }

    /// Apply a fault. Returns `None`, and changes nothing, when the target
    /// names a node or site this testbed does not have, when its shape is
    /// not the kind's, or when the fault would be a no-op (the target
    /// already carries an equivalent fault).
    pub fn apply_fault(
        &mut self,
        kind: FaultKind,
        target: FaultTarget,
        at: SimTime,
    ) -> Option<Fault> {
        // Canonical endpoint order, so the signature of a partition between
        // two sites is unique regardless of how the injector drew the pair.
        let target = match target {
            FaultTarget::SiteLink(a, b) if a > b => FaultTarget::SiteLink(b, a),
            other => other,
        };
        // The one range check: every arm of `apply_effect`, and later
        // `revert_effect`, indexes the arenas with ids that passed it.
        if !self.target_exists(target) || !self.apply_effect(kind, target, at) {
            return None;
        }
        let fault = Fault {
            id: FaultId(self.next_fault_id),
            kind,
            target,
            injected_at: at,
        };
        self.next_fault_id += 1;
        self.injected[kind as usize] += 1;
        self.active.push(fault.clone());
        Some(fault)
    }

    /// Repair (revert) an active fault. Returns false if the id is unknown.
    pub fn repair(&mut self, id: FaultId) -> bool {
        let Some(pos) = self.active.iter().position(|f| f.id == id) else {
            return false;
        };
        let fault = self.active.remove(pos);
        self.revert_effect(&fault);
        true
    }

    /// Reference hardware for `node` (its cluster template).
    pub fn reference_of(&self, node: NodeId) -> &NodeHardware {
        &self.clusters[self.nodes[node.index()].cluster.index()].reference
    }

    /// Mutate the testbed according to `kind`; returns false for no-ops.
    /// `target` exists ([`Testbed::target_exists`]); `at` is the injection
    /// instant (only the restart window reads it).
    fn apply_effect(&mut self, kind: FaultKind, target: FaultTarget, at: SimTime) -> bool {
        match (kind, target) {
            (FaultKind::DiskWriteCacheDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).disks.first().map(|d| d.write_cache);
                let node = &mut self.nodes[n.index()];
                match (node.hardware.disks.first_mut(), r) {
                    (Some(d), Some(r)) if d.write_cache == r => {
                        d.write_cache = !r;
                        true
                    }
                    _ => false,
                }
            }
            (FaultKind::DiskFirmwareDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).disks.first().map(|d| d.firmware.clone());
                let node = &mut self.nodes[n.index()];
                match (node.hardware.disks.first_mut(), r) {
                    (Some(d), Some(r)) if d.firmware == r => {
                        d.firmware = "GA63".to_string();
                        true
                    }
                    _ => false,
                }
            }
            (FaultKind::CpuCStatesDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).cpu.cstates_enabled;
                let cpu = &mut self.nodes[n.index()].hardware.cpu;
                if cpu.cstates_enabled == r {
                    cpu.cstates_enabled = !r;
                    true
                } else {
                    false
                }
            }
            (FaultKind::HyperthreadingDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).cpu.ht_enabled;
                let cpu = &mut self.nodes[n.index()].hardware.cpu;
                if cpu.ht_enabled == r {
                    cpu.ht_enabled = !r;
                    cpu.threads_per_core = if cpu.ht_enabled { 2 } else { 1 };
                    true
                } else {
                    false
                }
            }
            (FaultKind::TurboDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).cpu.turbo_enabled;
                let cpu = &mut self.nodes[n.index()].hardware.cpu;
                if cpu.turbo_enabled == r {
                    cpu.turbo_enabled = !r;
                    true
                } else {
                    false
                }
            }
            (FaultKind::BiosVersionDrift, FaultTarget::Node(n)) => {
                let r = self.reference_of(n).bios.version.clone();
                let bios = &mut self.nodes[n.index()].hardware.bios;
                if bios.version == r {
                    bios.version = format!("{r}-beta");
                    true
                } else {
                    false
                }
            }
            (FaultKind::DimmFailure, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if (node.condition.failed_dimms as usize) < node.hardware.mem.dimms.len() {
                    node.condition.failed_dimms += 1;
                    true
                } else {
                    false
                }
            }
            (FaultKind::NicDowngrade, FaultTarget::Node(n)) => {
                let r = self
                    .reference_of(n)
                    .primary_nic()
                    .map(|nic| nic.rate_gbps);
                let node = &mut self.nodes[n.index()];
                match (
                    node.hardware.nics.iter_mut().find(|nic| nic.mounted),
                    r,
                ) {
                    (Some(nic), Some(r)) if nic.rate_gbps == r && r > 1 => {
                        nic.rate_gbps = 1;
                        true
                    }
                    _ => false,
                }
            }
            (FaultKind::CablingSwap, FaultTarget::NodePair(a, b)) => {
                if a == b
                    || !self.topology.wiring_correct(a)
                    || !self.topology.wiring_correct(b)
                {
                    false
                } else {
                    self.topology.swap_wattmeters(a, b);
                    true
                }
            }
            (FaultKind::KernelBootRace, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if node.condition.boot_delay_s == 0.0 {
                    // Deterministic per-node delay in [40, 90) s.
                    node.condition.boot_delay_s = 40.0 + (n.0 % 50) as f64;
                    true
                } else {
                    false
                }
            }
            (FaultKind::RandomReboots, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if node.condition.random_reboot_mtbf_h.is_none() {
                    // The paper's spontaneously-rebooting cluster was bad
                    // enough to be decommissioned: MTBF of two hours.
                    node.condition.random_reboot_mtbf_h = Some(2.0);
                    true
                } else {
                    false
                }
            }
            (FaultKind::OfedFlaky, FaultTarget::Node(n)) => {
                let has_ib = self.nodes[n.index()].hardware.ib.is_some();
                let node = &mut self.nodes[n.index()];
                if has_ib && !node.condition.ofed_flaky {
                    node.condition.ofed_flaky = true;
                    true
                } else {
                    false
                }
            }
            (FaultKind::ConsoleDead, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if !node.condition.console_dead {
                    node.condition.console_dead = true;
                    true
                } else {
                    false
                }
            }
            (FaultKind::VlanPortStuck, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if !node.condition.vlan_port_stuck {
                    node.condition.vlan_port_stuck = true;
                    true
                } else {
                    false
                }
            }
            (FaultKind::ServiceFlaky, FaultTarget::Service(site, svc)) => {
                let s = self.service_mut(site, svc);
                if matches!(s.health, ServiceHealth::Healthy) {
                    s.health = ServiceHealth::Flaky { fail_prob: 0.25 };
                    true
                } else {
                    false
                }
            }
            (FaultKind::ServiceDown, FaultTarget::Service(site, svc)) => {
                let s = self.service_mut(site, svc);
                if !matches!(s.health, ServiceHealth::Down) {
                    s.health = ServiceHealth::Down;
                    true
                } else {
                    false
                }
            }
            (FaultKind::ServiceCrash, FaultTarget::Service(site, svc)) => {
                self.processes.crash(site, svc)
            }
            (FaultKind::ServiceRestart, FaultTarget::Service(site, svc)) => self
                .processes
                .schedule_restart(site, svc, at + SERVICE_RESTART_WINDOW),
            (FaultKind::RpcDegraded, FaultTarget::Site(s)) => {
                if self.rpc_degrade[s.index()].is_some() {
                    return false;
                }
                self.rpc_degrade[s.index()] = Some(LinkQuality::degraded());
                true
            }
            (FaultKind::NodeDead, FaultTarget::Node(n)) => {
                let node = &mut self.nodes[n.index()];
                if node.condition.alive {
                    node.condition.alive = false;
                    self.alive_dirty.push(n);
                    true
                } else {
                    false
                }
            }
            (FaultKind::SitePowerOutage, FaultTarget::Site(s)) => {
                if !self.site_power[s.index()] {
                    return false;
                }
                self.site_power[s.index()] = false;
                // Only nodes whose effective reachability flipped (hardware
                // alive, now unreachable) need reconciling downstream.
                for node in &self.nodes {
                    if node.site == s && node.condition.alive {
                        self.alive_dirty.push(node.id);
                    }
                }
                true
            }
            (FaultKind::SiteLinkPartition, FaultTarget::SiteLink(a, b)) => {
                a != b
                    && self.topology.sites_connected(a, b)
                    && self.topology.set_site_link(a, b, false)
            }
            (FaultKind::ClockSkew, FaultTarget::Site(s)) => {
                if self.clock_skew_s[s.index()] != 0.0 {
                    return false;
                }
                // Deterministic per-site drift, well past any sane NTP
                // tolerance (mirrors the per-node boot-delay convention).
                self.clock_skew_s[s.index()] = 30.0 + (s.0 % 90) as f64;
                true
            }
            // Kind/target mismatch: reject rather than panic, the injector
            // never produces these but library users could.
            _ => false,
        }
    }

    fn revert_effect(&mut self, fault: &Fault) {
        match (fault.kind, fault.target) {
            (FaultKind::CablingSwap, FaultTarget::NodePair(a, b)) => {
                self.topology.swap_wattmeters(a, b);
            }
            (FaultKind::ServiceFlaky | FaultKind::ServiceDown, FaultTarget::Service(site, svc)) => {
                self.service_mut(site, svc).health = ServiceHealth::Healthy;
            }
            (
                FaultKind::ServiceCrash | FaultKind::ServiceRestart,
                FaultTarget::Service(site, svc),
            ) => {
                self.processes.mark_up(site, svc);
            }
            (FaultKind::RpcDegraded, FaultTarget::Site(s)) => {
                self.rpc_degrade[s.index()] = None;
            }
            (FaultKind::SitePowerOutage, FaultTarget::Site(s)) => {
                self.site_power[s.index()] = true;
                // Nodes whose hardware survived come back reachable; nodes
                // separately dead (NodeDead) flip nothing.
                for node in &self.nodes {
                    if node.site == s && node.condition.alive {
                        self.alive_dirty.push(node.id);
                    }
                }
            }
            (FaultKind::SiteLinkPartition, FaultTarget::SiteLink(a, b)) => {
                self.topology.set_site_link(a, b, true);
            }
            (FaultKind::ClockSkew, FaultTarget::Site(s)) => {
                self.clock_skew_s[s.index()] = 0.0;
            }
            (kind, FaultTarget::Node(n)) => {
                let reference = self.reference_of(n).clone();
                let node = &mut self.nodes[n.index()];
                match kind {
                    FaultKind::DiskWriteCacheDrift => {
                        if let (Some(d), Some(r)) =
                            (node.hardware.disks.first_mut(), reference.disks.first())
                        {
                            d.write_cache = r.write_cache;
                        }
                    }
                    FaultKind::DiskFirmwareDrift => {
                        if let (Some(d), Some(r)) =
                            (node.hardware.disks.first_mut(), reference.disks.first())
                        {
                            d.firmware = r.firmware.clone();
                        }
                    }
                    FaultKind::CpuCStatesDrift => {
                        node.hardware.cpu.cstates_enabled = reference.cpu.cstates_enabled;
                    }
                    FaultKind::HyperthreadingDrift => {
                        node.hardware.cpu.ht_enabled = reference.cpu.ht_enabled;
                        node.hardware.cpu.threads_per_core = reference.cpu.threads_per_core;
                    }
                    FaultKind::TurboDrift => {
                        node.hardware.cpu.turbo_enabled = reference.cpu.turbo_enabled;
                    }
                    FaultKind::BiosVersionDrift => {
                        node.hardware.bios.version = reference.bios.version.clone();
                    }
                    FaultKind::DimmFailure => {
                        node.condition.failed_dimms = node.condition.failed_dimms.saturating_sub(1);
                    }
                    FaultKind::NicDowngrade => {
                        if let (Some(nic), Some(r)) = (
                            node.hardware.nics.iter_mut().find(|nic| nic.mounted),
                            reference.primary_nic(),
                        ) {
                            nic.rate_gbps = r.rate_gbps;
                        }
                    }
                    FaultKind::KernelBootRace => node.condition.boot_delay_s = 0.0,
                    FaultKind::RandomReboots => node.condition.random_reboot_mtbf_h = None,
                    FaultKind::OfedFlaky => node.condition.ofed_flaky = false,
                    FaultKind::ConsoleDead => node.condition.console_dead = false,
                    FaultKind::VlanPortStuck => node.condition.vlan_port_stuck = false,
                    FaultKind::NodeDead => {
                        node.condition.alive = true;
                        self.alive_dirty.push(n);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TestbedBuilder;

    fn tb() -> Testbed {
        TestbedBuilder::small().build()
    }

    #[test]
    fn apply_then_repair_restores_reference() {
        let mut tb = tb();
        let n = tb.clusters()[0].nodes[0];
        let before = tb.node(n).hardware.clone();
        let f = tb
            .apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(n), SimTime::ZERO)
            .expect("fault applies");
        assert_ne!(tb.node(n).hardware, before);
        assert_eq!(tb.active_faults().len(), 1);
        assert!(tb.repair(f.id));
        assert_eq!(tb.node(n).hardware, before);
        assert!(tb.active_faults().is_empty());
    }

    #[test]
    fn alive_dirty_tracks_flips_only() {
        let mut tb = tb();
        let n = tb.clusters()[0].nodes[0];
        // Config drift does not flip alive: no dirty entry.
        tb.apply_fault(FaultKind::TurboDrift, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        assert!(tb.alive_dirty().is_empty());
        // Death marks the node dirty once.
        let f = tb
            .apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        assert_eq!(tb.alive_dirty(), &[n]);
        // A second death on the same node is a no-op: still one entry.
        assert!(tb
            .apply_fault(FaultKind::NodeDead, FaultTarget::Node(n), SimTime::ZERO)
            .is_none());
        assert_eq!(tb.take_alive_dirty(), vec![n]);
        assert!(tb.alive_dirty().is_empty());
        // Repair flips alive back: dirty again.
        assert!(tb.repair(f.id));
        assert_eq!(tb.take_alive_dirty(), vec![n]);
    }

    #[test]
    fn double_application_is_noop() {
        let mut tb = tb();
        let n = tb.clusters()[0].nodes[0];
        assert!(tb
            .apply_fault(FaultKind::TurboDrift, FaultTarget::Node(n), SimTime::ZERO)
            .is_some());
        assert!(tb
            .apply_fault(FaultKind::TurboDrift, FaultTarget::Node(n), SimTime::ZERO)
            .is_none());
        assert_eq!(tb.active_faults().len(), 1);
    }

    #[test]
    fn repair_unknown_id_is_false() {
        let mut tb = tb();
        assert!(!tb.repair(FaultId(99)));
    }

    #[test]
    fn cabling_swap_and_repair() {
        let mut tb = tb();
        let c = &tb.clusters()[0];
        let (a, b) = (c.nodes[0], c.nodes[1]);
        let f = tb
            .apply_fault(
                FaultKind::CablingSwap,
                FaultTarget::NodePair(a, b),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(tb.topology().measured_node(a), b);
        assert!(tb.repair(f.id));
        assert_eq!(tb.topology().measured_node(a), a);
        // Self-swap is rejected.
        assert!(tb
            .apply_fault(
                FaultKind::CablingSwap,
                FaultTarget::NodePair(a, a),
                SimTime::ZERO
            )
            .is_none());
    }

    #[test]
    fn service_faults_change_health() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let f = tb
            .apply_fault(
                FaultKind::ServiceDown,
                FaultTarget::Service(site, ServiceKind::ApiFrontend),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(matches!(
            tb.service(site, ServiceKind::ApiFrontend).health,
            ServiceHealth::Down
        ));
        tb.repair(f.id);
        assert!(matches!(
            tb.service(site, ServiceKind::ApiFrontend).health,
            ServiceHealth::Healthy
        ));
    }

    #[test]
    fn service_crash_refuses_calls_until_repair() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let mut rng = ttt_sim::rng::stream_rng(1, "svc-call");
        assert!(tb.service_call(site, ServiceKind::OarServer, &mut rng).is_ok());
        let f = tb
            .apply_fault(
                FaultKind::ServiceCrash,
                FaultTarget::Service(site, ServiceKind::OarServer),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(f.target.to_string(), format!("{site}/oar-server"));
        assert!(!tb.process_up(site, ServiceKind::OarServer));
        // The crash kills the process, not the service health, and not the
        // site: a crashed OAR process must never masquerade as a blackout.
        assert!(tb.site_powered(site));
        assert!(matches!(
            tb.service(site, ServiceKind::OarServer).health,
            ServiceHealth::Healthy
        ));
        assert_eq!(
            tb.service_call(site, ServiceKind::OarServer, &mut rng),
            Err(CallFailure::Rpc(RpcError::Refused))
        );
        // No scheduled restart: a crash waits for an operator repair.
        assert!(tb.next_service_restart().is_none());
        // Double crash is a no-op.
        assert!(tb
            .apply_fault(
                FaultKind::ServiceCrash,
                FaultTarget::Service(site, ServiceKind::OarServer),
                SimTime::ZERO,
            )
            .is_none());
        assert!(tb.repair(f.id));
        assert!(tb.process_up(site, ServiceKind::OarServer));
        assert!(tb.service_call(site, ServiceKind::OarServer, &mut rng).is_ok());
        let entry = tb.processes().entry(site, ServiceKind::OarServer);
        assert_eq!((entry.crashes, entry.restarts, entry.dropped_calls), (1, 1, 1));
    }

    #[test]
    fn service_restart_schedules_its_own_repair() {
        let mut tb = tb();
        let site = tb.sites()[1].id;
        let at = SimTime::from_hours(2);
        let f = tb
            .apply_fault(
                FaultKind::ServiceRestart,
                FaultTarget::Service(site, ServiceKind::KadeployServer),
                at,
            )
            .unwrap();
        assert!(!tb.process_up(site, ServiceKind::KadeployServer));
        let due_at = at + SERVICE_RESTART_WINDOW;
        assert_eq!(tb.next_service_restart(), Some(due_at));
        // Not due before the window elapses, due exactly at it.
        assert!(tb.due_service_restarts(at).is_empty());
        assert_eq!(tb.due_service_restarts(due_at), vec![f.id]);
        assert!(tb.repair(f.id));
        assert!(tb.process_up(site, ServiceKind::KadeployServer));
        assert!(tb.next_service_restart().is_none());
    }

    #[test]
    fn rpc_degraded_adds_latency_and_loss() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let mut rng = ttt_sim::rng::stream_rng(3, "svc-call");
        let f = tb
            .apply_fault(FaultKind::RpcDegraded, FaultTarget::Site(site), SimTime::ZERO)
            .unwrap();
        assert_eq!(f.target, FaultTarget::Site(site));
        let q = tb.rpc_degrade[site.index()].unwrap();
        let mut dropped = 0u32;
        for _ in 0..400 {
            match tb.service_call(site, ServiceKind::ApiFrontend, &mut rng) {
                Ok(latency) => assert_eq!(latency, q.latency_s),
                Err(CallFailure::Rpc(RpcError::Dropped)) => dropped += 1,
                Err(other) => panic!("unexpected failure {other:?}"),
            }
        }
        let ratio = f64::from(dropped) / 400.0;
        assert!((0.15..0.35).contains(&ratio), "loss ratio {ratio}");
        assert_eq!(
            tb.processes().entry(site, ServiceKind::ApiFrontend).dropped_calls,
            u64::from(dropped)
        );
        // Double degradation is a no-op; repair restores a clean link.
        assert!(tb
            .apply_fault(FaultKind::RpcDegraded, FaultTarget::Site(site), SimTime::ZERO)
            .is_none());
        assert!(tb.repair(f.id));
        assert!(tb.rpc_degrade[site.index()].is_none());
        assert_eq!(tb.service_call(site, ServiceKind::ApiFrontend, &mut rng), Ok(0.0));
    }

    #[test]
    fn buggify_perturbs_calls_as_transient_noise() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let mut rng = ttt_sim::rng::stream_rng(4, "svc-call");
        tb.set_buggify(ttt_sim::Buggify::new(4, 0.3));
        let mut transients = 0u32;
        for _ in 0..400 {
            match tb.service_call(site, ServiceKind::ConsoleServer, &mut rng) {
                Ok(_) => {}
                Err(CallFailure::Service(ServiceError::Transient(_))) => transients += 1,
                Err(other) => panic!("buggify must look transient, got {other:?}"),
            }
        }
        let ratio = f64::from(transients) / 400.0;
        assert!((0.2..0.4).contains(&ratio), "buggify ratio {ratio}");
    }

    #[test]
    fn ideal_link_model_is_byte_identical_to_no_model() {
        // Arming Ideal explicitly must not change latency, outcomes, or the
        // RNG stream relative to a testbed that never heard of link models.
        let mut plain = tb();
        let mut armed = tb();
        armed.set_link_model(LinkModelSpec::Ideal);
        let mut rng_a = ttt_sim::rng::stream_rng(7, "svc-call");
        let mut rng_b = ttt_sim::rng::stream_rng(7, "svc-call");
        for site in [plain.sites()[0].id, plain.sites()[1].id] {
            for _ in 0..50 {
                let a = plain.service_call(site, ServiceKind::ApiFrontend, &mut rng_a);
                let b = armed.service_call(site, ServiceKind::ApiFrontend, &mut rng_b);
                assert_eq!(a, b);
            }
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn uniform_link_model_adds_latency_off_site_only() {
        let mut tb = tb();
        tb.set_link_model(LinkModelSpec::Uniform {
            latency_s: 0.02,
            loss_prob: 0.0,
        });
        let mut rng = ttt_sim::rng::stream_rng(9, "svc-call");
        // Control site itself stays free; a remote site pays the model's
        // latency. loss_prob == 0 means no loss draw either way.
        assert_eq!(
            tb.service_call(CONTROL_SITE, ServiceKind::ApiFrontend, &mut rng),
            Ok(0.0)
        );
        let remote = tb.sites()[1].id;
        assert_ne!(remote, CONTROL_SITE);
        assert_eq!(
            tb.service_call(remote, ServiceKind::ApiFrontend, &mut rng),
            Ok(0.02)
        );
    }

    #[test]
    fn lossy_link_model_drops_a_matching_share_of_calls() {
        let mut tb = tb();
        tb.set_link_model(LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.25,
        });
        let remote = tb.sites()[1].id;
        let mut rng = ttt_sim::rng::stream_rng(11, "svc-call");
        let mut dropped = 0u32;
        for _ in 0..400 {
            match tb.service_call(remote, ServiceKind::ApiFrontend, &mut rng) {
                Ok(latency) => assert_eq!(latency, 0.01),
                Err(CallFailure::Rpc(RpcError::Dropped)) => dropped += 1,
                Err(other) => panic!("unexpected failure {other:?}"),
            }
        }
        let ratio = f64::from(dropped) / 400.0;
        assert!((0.15..0.35).contains(&ratio), "loss ratio {ratio}");
    }

    #[test]
    fn partition_drops_calls_only_under_a_real_model() {
        let mut tb = tb();
        let remote = tb.sites()[1].id;
        let mut rng = ttt_sim::rng::stream_rng(13, "svc-call");
        tb.topology_mut().set_site_link(CONTROL_SITE, remote, false);
        // Ideal model: the backbone is free, partition is invisible to the
        // control-plane envelope (the historical behavior).
        assert!(tb.service_call(remote, ServiceKind::ApiFrontend, &mut rng).is_ok());
        assert!(tb.backbone_reachable(CONTROL_SITE, remote));
        // A real model makes the partition absolute — every call drops,
        // with no RNG draw.
        tb.set_link_model(LinkModelSpec::Uniform {
            latency_s: 0.005,
            loss_prob: 0.0,
        });
        let mut untouched = rng.clone();
        assert_eq!(
            tb.service_call(remote, ServiceKind::ApiFrontend, &mut rng),
            Err(CallFailure::Rpc(RpcError::Dropped))
        );
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "partition drop must not draw");
        assert!(!tb.backbone_reachable(CONTROL_SITE, remote));
        // Heal the link: calls flow again, with the model's latency.
        tb.topology_mut().set_site_link(CONTROL_SITE, remote, true);
        assert!(tb.backbone_reachable(CONTROL_SITE, remote));
    }

    #[test]
    fn backbone_reachability_degrades_with_loss() {
        let mut tb = tb();
        let (a, b) = (tb.sites()[0].id, tb.sites()[1].id);
        assert!(tb.backbone_reachable(a, b));
        tb.set_link_model(LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.6,
        });
        // A mostly-dead link is unusable for placement even though it is
        // not partitioned; same-site paths are always fine.
        assert!(!tb.backbone_reachable(a, b));
        assert!(tb.backbone_reachable(a, a));
        tb.set_link_model(LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.1,
        });
        assert!(tb.backbone_reachable(a, b));
    }

    #[test]
    fn rpc_trace_records_outcomes_when_enabled() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let mut rng = ttt_sim::rng::stream_rng(17, "svc-call");
        // Off by default: nothing recorded, drains empty.
        tb.service_call(site, ServiceKind::ApiFrontend, &mut rng).unwrap();
        assert!(tb.take_rpc_trace().is_empty());
        tb.set_rpc_trace(true);
        tb.service_call(site, ServiceKind::ApiFrontend, &mut rng).unwrap();
        let f = tb
            .apply_fault(
                FaultKind::ServiceCrash,
                FaultTarget::Service(site, ServiceKind::OarServer),
                SimTime::ZERO,
            )
            .unwrap();
        tb.service_call(site, ServiceKind::OarServer, &mut rng).unwrap_err();
        let trace = tb.take_rpc_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].outcome, "ok");
        assert_eq!(trace[1].site, site);
        assert_eq!(trace[1].kind, ServiceKind::OarServer);
        assert!(trace[1].outcome.contains("refused"), "{}", trace[1].outcome);
        // Drain is destructive; disabling stops recording.
        assert!(tb.take_rpc_trace().is_empty());
        tb.set_rpc_trace(false);
        tb.repair(f.id);
        tb.service_call(site, ServiceKind::OarServer, &mut rng).unwrap();
        assert!(tb.take_rpc_trace().is_empty());
    }

    #[test]
    fn ofed_requires_infiniband() {
        let mut tb = tb();
        let ib_node = tb.clusters().iter().find(|c| c.has_ib).unwrap().nodes[0];
        let non_ib_node = tb.clusters().iter().find(|c| !c.has_ib).unwrap().nodes[0];
        let ok = tb.apply_fault(FaultKind::OfedFlaky, FaultTarget::Node(ib_node), SimTime::ZERO);
        let no = tb.apply_fault(
            FaultKind::OfedFlaky,
            FaultTarget::Node(non_ib_node),
            SimTime::ZERO,
        );
        assert!(ok.is_some());
        assert!(no.is_none());
    }

    #[test]
    fn kind_target_mismatch_rejected() {
        let mut tb = tb();
        let n = tb.clusters()[0].nodes[0];
        // Node kind with service target and vice versa must be no-ops.
        assert!(tb
            .apply_fault(
                FaultKind::ServiceDown,
                FaultTarget::Node(n),
                SimTime::ZERO
            )
            .is_none());
        let site = tb.sites()[0].id;
        assert!(tb
            .apply_fault(
                FaultKind::TurboDrift,
                FaultTarget::Service(site, ServiceKind::OarServer),
                SimTime::ZERO
            )
            .is_none());
    }

    #[test]
    fn out_of_range_targets_are_rejected_not_indexed() {
        use crate::fault::TargetShape;
        let (node, site) = (NodeId(9999), SiteId(99));
        for kind in FaultKind::ALL {
            let mut tb = tb();
            let phantom = match kind.spec().shape {
                TargetShape::Node | TargetShape::IbNode => FaultTarget::Node(node),
                TargetShape::NodePair => FaultTarget::NodePair(node, NodeId(9998)),
                TargetShape::Service => FaultTarget::Service(site, ServiceKind::OarServer),
                TargetShape::Site => FaultTarget::Site(site),
                TargetShape::SiteLink => FaultTarget::SiteLink(site, SiteId(98)),
            };
            assert_eq!(tb.apply_fault(kind, phantom, SimTime::ZERO), None, "{kind}");
            assert!(tb.active_faults().is_empty(), "{kind}");
            assert!(tb.injection_counts().is_empty(), "{kind}");
        }
        // One real endpoint does not make a pair or a link exist.
        let mut tb = tb();
        let (n, s) = (tb.nodes()[0].id, tb.sites()[0].id);
        for (kind, half) in [
            (FaultKind::CablingSwap, FaultTarget::NodePair(n, node)),
            (FaultKind::SiteLinkPartition, FaultTarget::SiteLink(site, s)),
        ] {
            assert_eq!(tb.apply_fault(kind, half, SimTime::ZERO), None, "{kind}");
        }
    }

    #[test]
    fn faults_on_node_filters() {
        let mut tb = tb();
        let c = &tb.clusters()[0];
        let (a, b) = (c.nodes[0], c.nodes[1]);
        tb.apply_fault(FaultKind::ConsoleDead, FaultTarget::Node(a), SimTime::ZERO);
        tb.apply_fault(
            FaultKind::CablingSwap,
            FaultTarget::NodePair(a, b),
            SimTime::ZERO,
        );
        tb.apply_fault(FaultKind::TurboDrift, FaultTarget::Node(b), SimTime::ZERO);
        assert_eq!(tb.faults_on_node(a).len(), 2);
        assert_eq!(tb.faults_on_node(b).len(), 2);
    }

    #[test]
    fn site_outage_kills_and_repair_restores_reachability() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let site_nodes: Vec<_> = tb
            .nodes()
            .iter()
            .filter(|n| n.site == site)
            .map(|n| n.id)
            .collect();
        let other: Vec<_> = tb
            .nodes()
            .iter()
            .filter(|n| n.site != site)
            .map(|n| n.id)
            .collect();
        let f = tb
            .apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(site), SimTime::ZERO)
            .unwrap();
        assert_eq!(f.target, FaultTarget::Site(site));
        assert!(!tb.site_powered(site));
        for &n in &site_nodes {
            assert!(!tb.node_alive(n), "{n} should be unreachable");
            // Hardware itself is fine — only the power is gone.
            assert!(tb.node(n).condition.alive);
        }
        for &n in &other {
            assert!(tb.node_alive(n));
        }
        // Every affected node was marked dirty exactly once.
        assert_eq!(tb.take_alive_dirty(), site_nodes);
        // Double outage is a no-op.
        assert!(tb
            .apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(site), SimTime::ZERO)
            .is_none());
        assert!(tb.repair(f.id));
        assert!(tb.site_powered(site));
        assert_eq!(tb.take_alive_dirty(), site_nodes);
        assert!(site_nodes.iter().all(|&n| tb.node_alive(n)));
    }

    #[test]
    fn site_outage_does_not_resurrect_dead_hardware() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        let victim = tb.clusters()[0].nodes[0];
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(victim), SimTime::ZERO)
            .unwrap();
        let outage = tb
            .apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(site), SimTime::ZERO)
            .unwrap();
        tb.take_alive_dirty();
        tb.repair(outage.id);
        // Power is back, but the separately-dead node stays dead — and is
        // not in the dirty set (its effective state never flipped).
        assert!(!tb.node_alive(victim));
        assert!(!tb.take_alive_dirty().contains(&victim));
    }

    #[test]
    fn link_partition_normalizes_and_repairs() {
        let mut tb = tb();
        let (a, b) = (tb.sites()[0].id, tb.sites()[1].id);
        // Inject with endpoints reversed: the stored fault is normalized.
        let f = tb
            .apply_fault(
                FaultKind::SiteLinkPartition,
                FaultTarget::SiteLink(b, a),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(f.target, FaultTarget::SiteLink(a, b));
        assert_eq!(f.target.to_string(), format!("{a}~{b}"));
        assert!(!tb.topology().sites_connected(a, b));
        // Same pair again (either order) is a no-op.
        assert!(tb
            .apply_fault(
                FaultKind::SiteLinkPartition,
                FaultTarget::SiteLink(a, b),
                SimTime::ZERO
            )
            .is_none());
        assert!(tb.repair(f.id));
        assert!(tb.topology().sites_connected(a, b));
        // Self-partition is rejected.
        assert!(tb
            .apply_fault(
                FaultKind::SiteLinkPartition,
                FaultTarget::SiteLink(a, a),
                SimTime::ZERO
            )
            .is_none());
    }

    #[test]
    fn clock_skew_applies_and_repairs() {
        let mut tb = tb();
        let site = tb.sites()[1].id;
        assert_eq!(tb.clock_skew_of(site), 0.0);
        let f = tb
            .apply_fault(FaultKind::ClockSkew, FaultTarget::Site(site), SimTime::ZERO)
            .unwrap();
        assert!(tb.clock_skew_of(site) >= 30.0);
        // Skew never touches reachability.
        assert!(tb.alive_dirty().is_empty());
        assert!(tb
            .apply_fault(FaultKind::ClockSkew, FaultTarget::Site(site), SimTime::ZERO)
            .is_none());
        tb.repair(f.id);
        assert_eq!(tb.clock_skew_of(site), 0.0);
    }

    #[test]
    fn site_faults_touch_site_nodes() {
        let mut tb = tb();
        let site = tb.sites()[0].id;
        tb.apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(site), SimTime::ZERO)
            .unwrap();
        let on_site = tb.sites()[0].clusters[0];
        let n = tb.cluster(on_site).nodes[0];
        assert_eq!(tb.faults_on_node(n).len(), 1);
        let off_site = tb.sites()[1].clusters[0];
        let m = tb.cluster(off_site).nodes[0];
        assert!(tb.faults_on_node(m).is_empty());
    }

    #[test]
    fn dimm_failures_accumulate_and_repair() {
        let mut tb = tb();
        let n = tb.clusters()[0].nodes[0];
        let full = tb.node(n).effective_memory_gb();
        let f1 = tb
            .apply_fault(FaultKind::DimmFailure, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let _f2 = tb
            .apply_fault(FaultKind::DimmFailure, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        assert!(tb.node(n).effective_memory_gb() < full);
        assert_eq!(tb.node(n).condition.failed_dimms, 2);
        tb.repair(f1.id);
        assert_eq!(tb.node(n).condition.failed_dimms, 1);
    }
}
