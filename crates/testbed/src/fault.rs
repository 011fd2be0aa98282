//! Fault injection: the paper's bug catalogue as stochastic processes.
//!
//! Slide 22 lists the classes of real bugs the framework uncovered; each is
//! a [`FaultKind`] here. Faults arrive following per-kind Poisson processes
//! (plus correlated "maintenance" events that drift several nodes of one
//! cluster at once, reproducing "could happen frequently: maintenance,
//! broken hardware" from slide 7). A fault mutates the testbed's actual
//! state; the description in the Reference API is *not* updated, which is
//! precisely the inconsistency the testing framework must detect.

use crate::ids::{ClusterId, NodeId, SiteId};
use crate::services::ServiceKind;
use crate::testbed::Testbed;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use ttt_sim::{PoissonProcess, SimTime};

/// Unique identifier of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FaultId(pub u64);

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault-{}", self.0)
    }
}

/// The classes of problems the paper reports (slides 13 & 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// Disk volatile write cache toggled away from the reference setting.
    DiskWriteCacheDrift,
    /// Disk firmware downgraded to a known-bad revision.
    DiskFirmwareDrift,
    /// Deep C-states enabled while the reference disables them.
    CpuCStatesDrift,
    /// Hyperthreading toggled away from the reference setting.
    HyperthreadingDrift,
    /// Turbo boost toggled away from the reference setting.
    TurboDrift,
    /// BIOS downgraded/not upgraded relative to the cluster reference.
    BiosVersionDrift,
    /// A DIMM failed; the BIOS masks it and the node loses memory.
    DimmFailure,
    /// NIC negotiated a lower link rate (bad cable/port).
    NicDowngrade,
    /// Power-monitoring wiring swapped between two nodes.
    CablingSwap,
    /// Kernel race condition delaying boots.
    KernelBootRace,
    /// Node reboots spontaneously (the decommissioned-cluster bug).
    RandomReboots,
    /// OFED stack randomly fails to start Infiniband applications.
    OfedFlaky,
    /// Serial console unreachable.
    ConsoleDead,
    /// Switch port refuses VLAN reconfiguration.
    VlanPortStuck,
    /// A site service became flaky.
    ServiceFlaky,
    /// A site service went down entirely.
    ServiceDown,
    /// Node hardware died outright.
    NodeDead,
    /// A whole site lost power: every node of the site is unreachable
    /// until the outage is repaired (the multi-site failure class the
    /// single-domain model could never express).
    SitePowerOutage,
    /// The backbone link between two sites is partitioned.
    SiteLinkPartition,
    /// A site's clock drifted away from the federation's NTP reference.
    ClockSkew,
    /// A service *process* halted outright: calls are refused (connection
    /// refused, not an unhealthy reply) until an operator repair restarts
    /// it. Distinct from [`FaultKind::ServiceDown`], which models broken
    /// service logic on a running process.
    ServiceCrash,
    /// A service process went down for a bounded restart window; the
    /// campaign driver completes the restart on its own (the restart
    /// instant is a wake term).
    ServiceRestart,
    /// A site's service links degraded: every enveloped call into the site
    /// gains latency and may be dropped.
    RpcDegraded,
}

impl FaultKind {
    /// All kinds, in a stable order. The first [`FaultKind::LEGACY`] are
    /// the pre-process-layer catalogue; scenario expansion from a bare seed
    /// draws only from that prefix (appending kinds must never shift an
    /// existing seed's draws), so the service-process kinds enter scenarios
    /// via frontier cells and mutation only.
    pub const ALL: [FaultKind; 23] = [
        FaultKind::DiskWriteCacheDrift,
        FaultKind::DiskFirmwareDrift,
        FaultKind::CpuCStatesDrift,
        FaultKind::HyperthreadingDrift,
        FaultKind::TurboDrift,
        FaultKind::BiosVersionDrift,
        FaultKind::DimmFailure,
        FaultKind::NicDowngrade,
        FaultKind::CablingSwap,
        FaultKind::KernelBootRace,
        FaultKind::RandomReboots,
        FaultKind::OfedFlaky,
        FaultKind::ConsoleDead,
        FaultKind::VlanPortStuck,
        FaultKind::ServiceFlaky,
        FaultKind::ServiceDown,
        FaultKind::NodeDead,
        FaultKind::SitePowerOutage,
        FaultKind::SiteLinkPartition,
        FaultKind::ClockSkew,
        FaultKind::ServiceCrash,
        FaultKind::ServiceRestart,
        FaultKind::RpcDegraded,
    ];

    /// How many kinds predate the service-process layer (the prefix of
    /// [`FaultKind::ALL`] that bare-seed scenario expansion draws from).
    pub const LEGACY: usize = 20;

    /// The site-scoped kinds (target whole sites or inter-site links, not
    /// individual nodes or services). Deliberately excludes
    /// [`FaultKind::RpcDegraded`]: growing this list would change how
    /// existing fuzzer cells pin site faults.
    pub const SITE_SCOPED: [FaultKind; 3] = [
        FaultKind::SitePowerOutage,
        FaultKind::SiteLinkPartition,
        FaultKind::ClockSkew,
    ];

    /// The service-process kinds introduced with the simulated process
    /// layer (killable processes + degraded service links).
    pub const SERVICE_PROCESS: [FaultKind; 3] = [
        FaultKind::ServiceCrash,
        FaultKind::ServiceRestart,
        FaultKind::RpcDegraded,
    ];

    /// Short stable name used in bug signatures.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DiskWriteCacheDrift => "disk-write-cache",
            FaultKind::DiskFirmwareDrift => "disk-firmware",
            FaultKind::CpuCStatesDrift => "cpu-cstates",
            FaultKind::HyperthreadingDrift => "cpu-ht",
            FaultKind::TurboDrift => "cpu-turbo",
            FaultKind::BiosVersionDrift => "bios-version",
            FaultKind::DimmFailure => "dimm-failure",
            FaultKind::NicDowngrade => "nic-downgrade",
            FaultKind::CablingSwap => "cabling-swap",
            FaultKind::KernelBootRace => "kernel-boot-race",
            FaultKind::RandomReboots => "random-reboots",
            FaultKind::OfedFlaky => "ofed-flaky",
            FaultKind::ConsoleDead => "console-dead",
            FaultKind::VlanPortStuck => "vlan-port-stuck",
            FaultKind::ServiceFlaky => "service-flaky",
            FaultKind::ServiceDown => "service-down",
            FaultKind::NodeDead => "node-dead",
            FaultKind::SitePowerOutage => "site-power-outage",
            FaultKind::SiteLinkPartition => "site-link-partition",
            FaultKind::ClockSkew => "clock-skew",
            FaultKind::ServiceCrash => "service-crash",
            FaultKind::ServiceRestart => "service-restart",
            FaultKind::RpcDegraded => "rpc-degraded",
        }
    }

    /// Whether this fault targets a site or an inter-site link.
    pub fn is_site_fault(self) -> bool {
        Self::SITE_SCOPED.contains(&self)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A single node.
    Node(NodeId),
    /// A pair of nodes (cabling swaps).
    NodePair(NodeId, NodeId),
    /// A site service.
    Service(SiteId, ServiceKind),
    /// A whole site (power outages, clock skew).
    Site(SiteId),
    /// The backbone link between two sites (stored with the lower id
    /// first; [`Testbed::apply_fault`] normalizes).
    SiteLink(SiteId, SiteId),
}

/// An injected, currently-active fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// Unique id.
    pub id: FaultId,
    /// Fault class.
    pub kind: FaultKind,
    /// What it applies to.
    pub target: FaultTarget,
    /// When it was injected.
    pub injected_at: SimTime,
}

impl Fault {
    /// Stable signature used for bug deduplication, e.g.
    /// `"disk-write-cache@node-17"`.
    pub fn signature(&self) -> String {
        match self.target {
            FaultTarget::Node(n) => format!("{}@{}", self.kind, n),
            FaultTarget::NodePair(a, b) => format!("{}@{}+{}", self.kind, a, b),
            FaultTarget::Service(s, k) => format!("{}@{}/{}", self.kind, s, k),
            FaultTarget::Site(s) => format!("{}@{}", self.kind, s),
            FaultTarget::SiteLink(a, b) => format!("{}@{}~{}", self.kind, a, b),
        }
    }

    /// The cluster a node-fault belongs to, looked up through the testbed.
    pub fn cluster_of(&self, tb: &Testbed) -> Option<ClusterId> {
        match self.target {
            FaultTarget::Node(n) | FaultTarget::NodePair(n, _) => Some(tb.node(n).cluster),
            FaultTarget::Service(..) | FaultTarget::Site(..) | FaultTarget::SiteLink(..) => None,
        }
    }
}

/// Per-kind arrival rates, in expected events per day across the whole
/// testbed. The defaults are tuned so a paper-scale campaign accumulates
/// roughly the paper's bug volume over several months (experiment E8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InjectorConfig {
    /// `(kind, events/day)` pairs; kinds not listed never fire.
    pub rates_per_day: Vec<(FaultKind, f64)>,
    /// Rate of maintenance events per day; each drifts a random
    /// configuration setting on several nodes of one cluster.
    pub maintenance_per_day: f64,
    /// How many nodes a maintenance event touches (upper bound).
    pub maintenance_spread: usize,
}

impl Default for InjectorConfig {
    fn default() -> Self {
        InjectorConfig {
            rates_per_day: vec![
                (FaultKind::DiskWriteCacheDrift, 0.10),
                (FaultKind::DiskFirmwareDrift, 0.06),
                (FaultKind::CpuCStatesDrift, 0.10),
                (FaultKind::HyperthreadingDrift, 0.05),
                (FaultKind::TurboDrift, 0.05),
                (FaultKind::BiosVersionDrift, 0.08),
                (FaultKind::DimmFailure, 0.08),
                (FaultKind::NicDowngrade, 0.05),
                (FaultKind::CablingSwap, 0.03),
                (FaultKind::KernelBootRace, 0.04),
                (FaultKind::RandomReboots, 0.02),
                (FaultKind::OfedFlaky, 0.04),
                (FaultKind::ConsoleDead, 0.05),
                (FaultKind::VlanPortStuck, 0.03),
                (FaultKind::ServiceFlaky, 0.08),
                (FaultKind::ServiceDown, 0.03),
                (FaultKind::NodeDead, 0.04),
                (FaultKind::SitePowerOutage, 0.01),
                (FaultKind::SiteLinkPartition, 0.02),
                (FaultKind::ClockSkew, 0.03),
                (FaultKind::ServiceCrash, 0.02),
                (FaultKind::ServiceRestart, 0.04),
                (FaultKind::RpcDegraded, 0.03),
            ],
            maintenance_per_day: 0.10,
            maintenance_spread: 6,
        }
    }
}

impl InjectorConfig {
    /// A configuration that never injects anything (clean-testbed baseline).
    pub fn quiescent() -> Self {
        InjectorConfig {
            rates_per_day: Vec::new(),
            maintenance_per_day: 0.0,
            maintenance_spread: 0,
        }
    }

    /// Scale every rate by `factor` (ablation sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        for (_, r) in &mut self.rates_per_day {
            *r *= factor;
        }
        self.maintenance_per_day *= factor;
        self
    }
}

/// Drives fault arrivals over virtual time.
///
/// The injector pre-draws the next arrival per kind and applies due faults
/// to the testbed as the campaign advances. All randomness comes from the
/// RNG handed to [`FaultInjector::advance`], so campaigns are reproducible.
#[derive(Debug)]
pub struct FaultInjector {
    config: InjectorConfig,
    /// Next pending arrival for each rate entry (same index), if any.
    next_arrival: Vec<Option<SimTime>>,
    next_maintenance: Option<SimTime>,
    primed: bool,
}

impl FaultInjector {
    /// Create an injector with the given configuration.
    pub fn new(config: InjectorConfig) -> Self {
        let n = config.rates_per_day.len();
        FaultInjector {
            config,
            next_arrival: vec![None; n],
            next_maintenance: None,
            primed: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &InjectorConfig {
        &self.config
    }

    fn prime<R: Rng>(&mut self, now: SimTime, rng: &mut R) {
        for (i, (_, rate)) in self.config.rates_per_day.iter().enumerate() {
            self.next_arrival[i] = PoissonProcess::per_day(*rate).next_after(now, rng);
        }
        self.next_maintenance =
            PoissonProcess::per_day(self.config.maintenance_per_day).next_after(now, rng);
        self.primed = true;
    }

    /// The earliest pending arrival (fault or maintenance), if any.
    ///
    /// Primes the per-kind arrival draws on first use — the same draws, in
    /// the same stream order, that [`FaultInjector::advance`] would make —
    /// so an event-driven campaign engine can ask "when does the next fault
    /// land?" without disturbing determinism.
    pub fn next_event<R: Rng>(&mut self, rng: &mut R) -> Option<SimTime> {
        if !self.primed {
            self.prime(SimTime::ZERO, rng);
        }
        self.next_arrival
            .iter()
            .flatten()
            .copied()
            .chain(self.next_maintenance)
            .min()
    }

    /// Advance virtual time to `until`, injecting every due fault into the
    /// testbed. Returns the newly injected faults (some arrivals may be
    /// no-ops if the drawn target already carries the fault).
    pub fn advance<R: Rng>(
        &mut self,
        until: SimTime,
        tb: &mut Testbed,
        rng: &mut R,
    ) -> Vec<Fault> {
        if !self.primed {
            self.prime(SimTime::ZERO, rng);
        }
        let mut injected = Vec::new();
        loop {
            // Find the earliest pending arrival across kinds + maintenance.
            let mut best: Option<(usize, SimTime)> = None;
            for (i, t) in self.next_arrival.iter().enumerate() {
                if let Some(t) = t {
                    if *t <= until && best.is_none_or(|(_, bt)| *t < bt) {
                        best = Some((i, *t));
                    }
                }
            }
            let maint_first = match (self.next_maintenance, best) {
                (Some(mt), Some((_, bt))) => mt <= until && mt < bt,
                (Some(mt), None) => mt <= until,
                _ => false,
            };
            if maint_first {
                let at = self.next_maintenance.unwrap();
                injected.extend(self.run_maintenance(at, tb, rng));
                self.next_maintenance = PoissonProcess::per_day(self.config.maintenance_per_day)
                    .next_after(at, rng);
                continue;
            }
            let Some((idx, at)) = best else { break };
            let kind = self.config.rates_per_day[idx].0;
            if let Some(fault) = inject_random(kind, at, tb, rng) {
                injected.push(fault);
            }
            self.next_arrival[idx] =
                PoissonProcess::per_day(self.config.rates_per_day[idx].1).next_after(at, rng);
        }
        injected
    }

    /// A maintenance event: pick one cluster, drift one config setting on
    /// up to `maintenance_spread` of its nodes.
    fn run_maintenance<R: Rng>(
        &self,
        at: SimTime,
        tb: &mut Testbed,
        rng: &mut R,
    ) -> Vec<Fault> {
        const DRIFT_KINDS: [FaultKind; 5] = [
            FaultKind::DiskWriteCacheDrift,
            FaultKind::CpuCStatesDrift,
            FaultKind::HyperthreadingDrift,
            FaultKind::TurboDrift,
            FaultKind::BiosVersionDrift,
        ];
        let Some(cluster) = tb.clusters().choose(rng).map(|c| c.id) else {
            return Vec::new();
        };
        let kind = *DRIFT_KINDS.choose(rng).unwrap();
        let mut nodes: Vec<NodeId> = tb.cluster(cluster).nodes.clone();
        nodes.shuffle(rng);
        let spread = rng.gen_range(1..=self.config.maintenance_spread.max(1));
        nodes
            .into_iter()
            .take(spread)
            .filter_map(|n| tb.apply_fault(kind, FaultTarget::Node(n), at))
            .collect()
    }
}

/// Draw a random valid target for `kind` and apply it to the testbed.
/// Returns `None` when the fault would be a no-op (already present).
pub fn inject_random<R: Rng>(
    kind: FaultKind,
    at: SimTime,
    tb: &mut Testbed,
    rng: &mut R,
) -> Option<Fault> {
    let target = match kind {
        FaultKind::CablingSwap => {
            // Two distinct nodes of the same cluster (real swaps happen
            // within a rack).
            let cluster = tb.clusters().choose(rng)?.id;
            let nodes = &tb.cluster(cluster).nodes;
            if nodes.len() < 2 {
                return None;
            }
            let mut pick = nodes.clone();
            pick.shuffle(rng);
            FaultTarget::NodePair(pick[0], pick[1])
        }
        FaultKind::ServiceFlaky
        | FaultKind::ServiceDown
        | FaultKind::ServiceCrash
        | FaultKind::ServiceRestart => {
            let site = SiteId((rng.gen_range(0..tb.sites().len())) as u16);
            let svc = *ServiceKind::ALL.choose(rng).unwrap();
            FaultTarget::Service(site, svc)
        }
        FaultKind::SitePowerOutage | FaultKind::ClockSkew | FaultKind::RpcDegraded => {
            let site = SiteId((rng.gen_range(0..tb.sites().len())) as u16);
            FaultTarget::Site(site)
        }
        FaultKind::SiteLinkPartition => {
            // Two distinct sites; single-site testbeds have no links.
            let n = tb.sites().len();
            if n < 2 {
                return None;
            }
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            FaultTarget::SiteLink(SiteId(a as u16), SiteId(b as u16))
        }
        FaultKind::OfedFlaky => {
            // Only meaningful on Infiniband nodes.
            let ib_nodes: Vec<NodeId> = tb
                .clusters()
                .iter()
                .filter(|c| c.has_ib)
                .flat_map(|c| c.nodes.iter().copied())
                .collect();
            FaultTarget::Node(*ib_nodes.choose(rng)?)
        }
        _ => {
            let n = tb.nodes().len();
            FaultTarget::Node(NodeId(rng.gen_range(0..n) as u32))
        }
    };
    tb.apply_fault(kind, target, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TestbedBuilder;
    use ttt_sim::rng::stream_rng;

    #[test]
    fn signatures_are_stable_and_distinct() {
        let f1 = Fault {
            id: FaultId(1),
            kind: FaultKind::DiskWriteCacheDrift,
            target: FaultTarget::Node(NodeId(17)),
            injected_at: SimTime::ZERO,
        };
        let f2 = Fault {
            id: FaultId(2),
            kind: FaultKind::DiskWriteCacheDrift,
            target: FaultTarget::Node(NodeId(18)),
            injected_at: SimTime::ZERO,
        };
        assert_eq!(f1.signature(), "disk-write-cache@node-17");
        assert_ne!(f1.signature(), f2.signature());
    }

    #[test]
    fn all_kind_names_unique() {
        let names: std::collections::HashSet<&str> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }

    #[test]
    fn injector_respects_rates() {
        let mut tb = TestbedBuilder::small().build();
        let cfg = InjectorConfig {
            rates_per_day: vec![(FaultKind::ConsoleDead, 1.0)],
            maintenance_per_day: 0.0,
            maintenance_spread: 0,
        };
        let mut inj = FaultInjector::new(cfg);
        let mut rng = stream_rng(11, "inject");
        let faults = inj.advance(SimTime::from_days(60), &mut tb, &mut rng);
        // ~60 arrivals, but deduplicated onto a small testbed: at most the
        // node count, at least a handful.
        assert!(!faults.is_empty());
        assert!(faults.iter().all(|f| f.kind == FaultKind::ConsoleDead));
        assert!(faults.len() <= tb.nodes().len());
    }

    #[test]
    fn quiescent_config_injects_nothing() {
        let mut tb = TestbedBuilder::small().build();
        let mut inj = FaultInjector::new(InjectorConfig::quiescent());
        let mut rng = stream_rng(11, "inject");
        let faults = inj.advance(SimTime::from_days(365), &mut tb, &mut rng);
        assert!(faults.is_empty());
        assert_eq!(tb.active_faults().len(), 0);
    }

    #[test]
    fn maintenance_drifts_cluster_nodes() {
        let mut tb = TestbedBuilder::small().build();
        let cfg = InjectorConfig {
            rates_per_day: Vec::new(),
            maintenance_per_day: 0.5,
            maintenance_spread: 4,
        };
        let mut inj = FaultInjector::new(cfg);
        let mut rng = stream_rng(12, "maint");
        let faults = inj.advance(SimTime::from_days(30), &mut tb, &mut rng);
        assert!(!faults.is_empty());
        // Maintenance only produces configuration-drift faults.
        assert!(faults.iter().all(|f| matches!(
            f.kind,
            FaultKind::DiskWriteCacheDrift
                | FaultKind::CpuCStatesDrift
                | FaultKind::HyperthreadingDrift
                | FaultKind::TurboDrift
                | FaultKind::BiosVersionDrift
        )));
    }

    #[test]
    fn injector_is_deterministic() {
        let run = |seed: u64| {
            let mut tb = TestbedBuilder::small().build();
            let mut inj = FaultInjector::new(InjectorConfig::default());
            let mut rng = stream_rng(seed, "inject");
            inj.advance(SimTime::from_days(90), &mut tb, &mut rng)
                .iter()
                .map(|f| f.signature())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn next_event_matches_advance_stream() {
        // Asking for the next arrival first must not change which faults
        // land (it primes with the exact draws advance would make).
        let run = |peek: bool| {
            let mut tb = TestbedBuilder::small().build();
            let mut inj = FaultInjector::new(InjectorConfig::default());
            let mut rng = stream_rng(7, "inject");
            let peeked = if peek { inj.next_event(&mut rng) } else { None };
            let sigs: Vec<String> = inj
                .advance(SimTime::from_days(30), &mut tb, &mut rng)
                .iter()
                .map(|f| f.signature())
                .collect();
            (peeked, sigs)
        };
        let (peeked, with_peek) = run(true);
        let (_, without_peek) = run(false);
        assert_eq!(with_peek, without_peek);
        let t = peeked.expect("default config has arrivals");
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn next_event_none_when_quiescent() {
        let mut inj = FaultInjector::new(InjectorConfig::quiescent());
        let mut rng = stream_rng(7, "inject");
        assert_eq!(inj.next_event(&mut rng), None);
    }

    #[test]
    fn scaled_config_scales() {
        let base = InjectorConfig::default();
        let double = base.clone().scaled(2.0);
        for ((_, a), (_, b)) in base.rates_per_day.iter().zip(&double.rates_per_day) {
            assert!((b / a - 2.0).abs() < 1e-12);
        }
    }
}
