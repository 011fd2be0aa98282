//! Fault injection: the paper's bug catalogue as stochastic processes.
//!
//! Slide 22 lists the classes of real bugs the framework uncovered; each is
//! a [`FaultKind`] here. Faults arrive following per-kind Poisson processes
//! (plus correlated "maintenance" events that drift several nodes of one
//! cluster at once, reproducing "could happen frequently: maintenance,
//! broken hardware" from slide 7). A fault mutates the testbed's actual
//! state; the description in the Reference API is *not* updated, which is
//! precisely the inconsistency the testing framework must detect.
//!
//! # The catalogue
//!
//! What a kind *is* is written once, as its row of
//! [`FaultKind::CATALOGUE`] (emitted with the enum from the one list
//! below): its catalogue name, its default arrivals per day, the
//! [`TargetShape`] it lands on, the [`Layer`] it joined the catalogue with,
//! and the [`Symptom`]s a test files it under (canonical one first).
//! Names, default rates, random and canonical targets, the layer sets and
//! the bug→fault matcher [`find_fault`] — which inverts the symptom column
//! — are all read off that table. What a kind *does* to the testbed is
//! code, not data: the two matches `apply_effect` / `revert_effect` in
//! `testbed.rs` (23 distinct effects would gain nothing as fn pointers).
//!
//! Adding a kind takes three steps, and a missing one is a compile error
//! or a failing detection matrix:
//! 1. a variant + row in the `catalogue!` list (bump the `23`s);
//! 2. its `apply_effect` / `revert_effect` arms in `testbed.rs`;
//! 3. its row in `ttt_suite::coverage::coverage_for` (the family that
//!    detects it, which `tests/detection_matrix.rs` then holds it to).

use crate::cluster::Cluster;
use crate::ids::{NodeId, SiteId};
use crate::services::ServiceKind;
use crate::testbed::Testbed;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use ttt_sim::rng::pick;
use ttt_sim::{PoissonProcess, SimTime};

/// Unique identifier of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultId(pub u64);

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault-{}", self.0)
    }
}

/// What a fault of some kind lands on — the shape of its [`FaultTarget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetShape {
    /// Any one node.
    Node,
    /// One node of an Infiniband cluster.
    IbNode,
    /// Two distinct nodes of one cluster (real swaps happen within a rack).
    NodePair,
    /// One service of one site.
    Service,
    /// A whole site.
    Site,
    /// The backbone link between two distinct sites.
    SiteLink,
}

/// The layer of the catalogue a kind belongs to, in the order the layers
/// were added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The single-domain catalogue: nodes, cabling, service health.
    Base,
    /// Whole sites and inter-site links (the multi-site federation).
    Site,
    /// Killable service processes and degraded service links.
    Process,
}

/// One row of [`FaultKind::CATALOGUE`]: everything a fault kind *is*.
#[derive(Debug)]
pub struct KindSpec {
    /// The kind this row describes (`CATALOGUE[k as usize].kind == k`).
    pub kind: FaultKind,
    /// Short stable catalogue name, used in bug signatures and scenario
    /// files.
    pub name: &'static str,
    /// Default arrivals per day across the whole testbed, tuned so a
    /// paper-scale campaign accumulates roughly the paper's bug volume
    /// over several months (experiment E8).
    pub per_day: f64,
    /// What it lands on.
    pub shape: TargetShape,
    /// Which layer of the catalogue it belongs to.
    pub layer: Layer,
    /// The symptoms a test files it under, canonical one first. Several
    /// kinds can share a behavioural symptom (`deploy-failure`), and
    /// look-alike pairs name each other.
    pub symptoms: &'static [Symptom],
}

/// Emits [`FaultKind`], [`FaultKind::ALL`] and [`FaultKind::CATALOGUE`]
/// from one list, so declaration order, discriminants and rows cannot
/// disagree.
macro_rules! catalogue {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $name:literal, $per_day:literal, $shape:ident, $layer:ident, [$($symptom:ident),+];
    )+) => {
        /// The classes of problems the paper reports (slides 13 & 22).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum FaultKind {
            $($(#[$doc])* $kind,)+
        }

        impl FaultKind {
            /// All kinds, in declaration order.
            pub const ALL: [FaultKind; 23] = [$(FaultKind::$kind,)+];

            /// One row per kind, in declaration order.
            pub const CATALOGUE: [KindSpec; 23] = [$(KindSpec {
                kind: FaultKind::$kind,
                name: $name,
                per_day: $per_day,
                shape: TargetShape::$shape,
                layer: Layer::$layer,
                symptoms: &[$(Symptom::$symptom),+],
            },)+];
        }
    };
}

// One row per kind: name, arrivals/day, target shape, layer, symptoms.
catalogue! {
    /// Disk volatile write cache toggled away from the reference setting.
    DiskWriteCacheDrift = "disk-write-cache", 0.10, Node, Base, [DiskWriteCache];
    /// Disk firmware downgraded to a known-bad revision.
    DiskFirmwareDrift = "disk-firmware", 0.06, Node, Base, [DiskFirmware];
    /// Deep C-states enabled while the reference disables them.
    CpuCStatesDrift = "cpu-cstates", 0.10, Node, Base, [CpuCStates];
    /// Hyperthreading toggled away from the reference setting.
    HyperthreadingDrift = "cpu-ht", 0.05, Node, Base, [CpuHt];
    /// Turbo boost toggled away from the reference setting.
    TurboDrift = "cpu-turbo", 0.05, Node, Base, [CpuTurbo];
    /// BIOS downgraded/not upgraded relative to the cluster reference.
    BiosVersionDrift = "bios-version", 0.08, Node, Base, [BiosVersion];
    /// A DIMM failed; the BIOS masks it and the node loses memory.
    DimmFailure = "dimm-failure", 0.08, Node, Base, [DimmFailure];
    /// NIC negotiated a lower link rate (bad cable/port).
    NicDowngrade = "nic-downgrade", 0.05, Node, Base, [NicDowngrade];
    /// Power-monitoring wiring swapped between two nodes.
    CablingSwap = "cabling-swap", 0.03, NodePair, Base, [CablingSwap];
    /// Kernel race condition delaying boots. Surfaces as the symptom the
    /// deploy/reboot families report, not under its own name.
    KernelBootRace = "kernel-boot-race", 0.04, Node, Base, [BootDelay, DeployFailure];
    /// Node reboots spontaneously (the decommissioned-cluster bug).
    RandomReboots = "random-reboots", 0.02, Node, Base, [BootFailure, DeployFailure];
    /// OFED stack randomly fails to start Infiniband applications.
    OfedFlaky = "ofed-flaky", 0.04, IbNode, Base, [OfedFlaky];
    /// Serial console unreachable.
    ConsoleDead = "console-dead", 0.05, Node, Base, [ConsoleDead];
    /// Switch port refuses VLAN reconfiguration.
    VlanPortStuck = "vlan-port-stuck", 0.03, Node, Base, [VlanPortStuck];
    /// A site service became flaky. A flaky service can fail every probe
    /// of one run (looks down) and a down service is a special case of
    /// flaky, so the pair name each other: an unlucky sample still
    /// repairs the right fault.
    ServiceFlaky = "service-flaky", 0.08, Service, Base, [ServiceFlaky, ServiceDown];
    /// A site service went down entirely.
    ServiceDown = "service-down", 0.03, Service, Base, [ServiceDown, ServiceFlaky];
    /// Node hardware died outright (a deployment onto it fails too).
    NodeDead = "node-dead", 0.04, Node, Base, [NodeDead, DeployFailure];
    /// A whole site lost power: every node of the site is unreachable
    /// until the outage is repaired (the multi-site failure class the
    /// single-domain model could never express).
    SitePowerOutage = "site-power-outage", 0.01, Site, Site, [SitePowerOutage];
    /// The backbone link between two sites is partitioned.
    SiteLinkPartition = "site-link-partition", 0.02, SiteLink, Site, [SiteLinkPartition];
    /// A site's clock drifted away from the federation's NTP reference.
    ClockSkew = "clock-skew", 0.03, Site, Site, [ClockSkew];
    /// A service *process* halted outright: calls are refused (connection
    /// refused, not an unhealthy reply) until an operator repair restarts
    /// it. Distinct from [`FaultKind::ServiceDown`], which models broken
    /// service logic on a running process. A refused probe cannot tell a
    /// crash from a bounded restart, so that pair name each other too.
    ServiceCrash = "service-crash", 0.02, Service, Process, [ServiceCrash, ServiceRestart];
    /// A service process went down for a bounded restart window; the
    /// campaign driver completes the restart on its own (the restart
    /// instant is a wake term).
    ServiceRestart = "service-restart", 0.04, Service, Process, [ServiceRestart, ServiceCrash];
    /// A site's service links degraded: every enveloped call into the site
    /// gains latency and may be dropped. Site-shaped, but it joined the
    /// catalogue with the process layer and is pinned by its cells.
    RpcDegraded = "rpc-degraded", 0.03, Site, Process, [RpcDegraded];
}

/// Emits [`Symptom`], [`Symptom::ALL`] and [`Symptom::name`] from one list.
macro_rules! symptoms {
    ($($symptom:ident = $name:literal,)+) => {
        /// What a test saw, the first half of a [`Signature`]. Each variant's
        /// doc is its stable name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Symptom {
            $(#[doc = $name] $symptom,)+
        }

        impl Symptom {
            /// All symptoms, in declaration order.
            pub const ALL: [Symptom; 42] = [$(Symptom::$symptom,)+];

            /// Short stable name, the part of a signature before its `@`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Symptom::$symptom => $name,)+
                }
            }
        }
    };
}

// One row per symptom name. The catalogue's symptom column names the
// first 24; tests file the other 18, which no fault kind shows.
symptoms! {
    DiskWriteCache = "disk-write-cache",
    DiskFirmware = "disk-firmware",
    CpuCStates = "cpu-cstates",
    CpuHt = "cpu-ht",
    CpuTurbo = "cpu-turbo",
    BiosVersion = "bios-version",
    DimmFailure = "dimm-failure",
    NicDowngrade = "nic-downgrade",
    CablingSwap = "cabling-swap",
    BootDelay = "boot-delay",
    DeployFailure = "deploy-failure",
    BootFailure = "boot-failure",
    OfedFlaky = "ofed-flaky",
    ConsoleDead = "console-dead",
    VlanPortStuck = "vlan-port-stuck",
    ServiceFlaky = "service-flaky",
    ServiceDown = "service-down",
    NodeDead = "node-dead",
    SitePowerOutage = "site-power-outage",
    SiteLinkPartition = "site-link-partition",
    ClockSkew = "clock-skew",
    ServiceCrash = "service-crash",
    ServiceRestart = "service-restart",
    RpcDegraded = "rpc-degraded",
    DescriptionMismatch = "description-mismatch",
    Undescribed = "undescribed",
    UndescribedCluster = "undescribed-cluster",
    RefapiEmpty = "refapi-empty",
    UnknownCluster = "unknown-cluster",
    UnknownImage = "unknown-image",
    NoInfiniband = "no-infiniband",
    IbDegraded = "ib-degraded",
    CmdlineOarstat = "cmdline-oarstat",
    CmdlineOarnodes = "cmdline-oarnodes",
    VlanBroken = "vlan-broken",
    KwapiNoData = "kwapi-no-data",
    KwapiRate = "kwapi-rate",
    RegressionDrift = "regression-drift",
    RegressionUnmeasurable = "regression-unmeasurable",
    // Filed without a subject.
    NoStdenv = "no-stdenv",
    KavlanUnderprovisioned = "kavlan-underprovisioned",
    InvalidConfiguration = "invalid-configuration",
}

impl Symptom {
    /// This symptom seen on `subject`: a host, cluster, image or site name,
    /// a VLAN number, or a fault target's rendering (`site-0/oar-server`).
    pub fn on(self, subject: impl fmt::Display) -> Signature {
        Signature {
            symptom: self,
            subject: subject.to_string(),
        }
    }
}

/// What a test files, the bug tracker deduplicates on and [`find_fault`]
/// matches: a [`Symptom`] on a subject. It renders `symptom@subject`
/// (`cpu-cstates@grisou-3`), or the bare symptom when the subject is empty.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    /// What was seen.
    pub symptom: Symptom,
    /// What it was seen on; empty for a symptom filed without one.
    pub subject: String,
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symptom.name())?;
        if self.subject.is_empty() {
            return Ok(());
        }
        write!(f, "@{}", self.subject)
    }
}

impl FaultKind {
    /// This kind's row of the catalogue.
    pub fn spec(self) -> &'static KindSpec {
        &Self::CATALOGUE[self as usize]
    }

    /// Short stable name used in bug signatures.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The kinds of one layer, in declaration order.
    pub fn in_layer(layer: Layer) -> impl Iterator<Item = FaultKind> {
        Self::ALL
            .into_iter()
            .filter(move |k| k.spec().layer == layer)
    }

    /// The kinds that predate the process layer — what scenario expansion
    /// from a bare seed draws from, one rate and one coin per kind in this
    /// order. Only [`Layer::Process`] kinds (and whole layers added after
    /// it) can join the catalogue without shifting an existing seed's
    /// draws; they enter scenarios via frontier cells and mutation only.
    pub fn legacy() -> impl Iterator<Item = FaultKind> {
        Self::ALL
            .into_iter()
            .filter(|k| k.spec().layer != Layer::Process)
    }

    /// Whether this fault targets a site or an inter-site link.
    /// Deliberately false for [`FaultKind::RpcDegraded`]: it would change
    /// how existing fuzzer cells pin site faults.
    pub fn is_site_fault(self) -> bool {
        self.spec().layer == Layer::Site
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A target as logs and diagnostics spell it: `node-17`, `node-1+node-2`,
/// `site-0/oar-server`, `site-0`, `site-0~site-1`.
impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultTarget::Node(n) => write!(f, "{n}"),
            FaultTarget::NodePair(a, b) => write!(f, "{a}+{b}"),
            FaultTarget::Service(s, k) => write!(f, "{s}/{k}"),
            FaultTarget::Site(s) => write!(f, "{s}"),
            FaultTarget::SiteLink(a, b) => write!(f, "{a}~{b}"),
        }
    }
}

/// An injected, currently-active fault.
#[derive(Debug, Clone, PartialEq)]
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

/// Whether `value` renders as exactly `expected`, decided piece by piece as
/// `Display` writes them: nothing is formatted into a string.
fn renders_as(value: impl fmt::Display, expected: &str) -> bool {
    struct Rest<'a>(&'a str);
    impl fmt::Write for Rest<'_> {
        fn write_str(&mut self, piece: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(piece).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    use fmt::Write as _;
    let mut rest = Rest(expected);
    write!(rest, "{value}").is_ok() && rest.0.is_empty()
}

/// Bug → fault matching: find the active fault a diagnostic or bug
/// signature points at, so that an operator fixing a filed bug repairs the
/// fault behind it.
///
/// The candidates are the active faults whose kind lists the symptom in the
/// symptom column of [`FaultKind::CATALOGUE`] and whose target is the
/// subject: a node by host name, a service or site by its rendering, a
/// link by the pair or either endpoint. The first one whose canonical
/// symptom this is wins — the flaky/down and crash/restart pairs can sit on
/// one service — and otherwise the first one.
pub fn find_fault<'a>(tb: &'a Testbed, signature: &Signature) -> Option<&'a Fault> {
    let Signature { symptom, subject } = signature;
    // Diagnostics name nodes by host name, fault targets by id.
    let host = |n: NodeId| tb.node(n).name == *subject;
    let mut first = None;
    for f in tb.active_faults() {
        let symptoms = f.kind.spec().symptoms;
        if !symptoms.contains(symptom) {
            continue;
        }
        let named = match f.target {
            FaultTarget::Node(n) => host(n),
            FaultTarget::NodePair(a, b) => host(a) || host(b),
            FaultTarget::Service(..) | FaultTarget::Site(..) => renders_as(f.target, subject),
            FaultTarget::SiteLink(a, b) => {
                renders_as(f.target, subject) || renders_as(a, subject) || renders_as(b, subject)
            }
        };
        if !named {
            continue;
        }
        if symptoms[0] == *symptom {
            return Some(f);
        }
        first = first.or(Some(f));
    }
    first
}

/// Per-kind arrival rates, in expected events per day across the whole
/// testbed. The defaults are the catalogue's `per_day` column.
#[derive(Debug, Clone)]
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
            rates_per_day: FaultKind::CATALOGUE
                .iter()
                .map(|row| (row.kind, row.per_day))
                .collect(),
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
            let maintenance = self
                .next_maintenance
                .filter(|&mt| mt <= until && best.is_none_or(|(_, bt)| mt < bt));
            if let Some(at) = maintenance {
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
        let kind = pick(&DRIFT_KINDS, rng);
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

impl TargetShape {
    /// Draw a random target of this shape, or `None` — drawing nothing —
    /// when the testbed has no candidate (no node, no site, a lone site,
    /// no Infiniband). A pair draws its cluster first and comes back empty
    /// if that cluster has a single node.
    fn random_target<R: Rng>(self, tb: &Testbed, rng: &mut R) -> Option<FaultTarget> {
        let sites = tb.sites().len();
        let site = |rng: &mut R| SiteId(rng.gen_range(0..sites) as u16);
        match self {
            TargetShape::Node => {
                let n = tb.nodes().len();
                (n > 0).then(|| FaultTarget::Node(NodeId(rng.gen_range(0..n) as u32)))
            }
            TargetShape::IbNode => {
                let ib_nodes: Vec<NodeId> = tb
                    .clusters()
                    .iter()
                    .filter(|c| c.has_ib)
                    .flat_map(|c| c.nodes.iter().copied())
                    .collect();
                ib_nodes.choose(rng).map(|&n| FaultTarget::Node(n))
            }
            TargetShape::NodePair => {
                let nodes = &tb.clusters().choose(rng)?.nodes;
                if nodes.len() < 2 {
                    return None;
                }
                let mut pair = nodes.clone();
                pair.shuffle(rng);
                Some(FaultTarget::NodePair(pair[0], pair[1]))
            }
            TargetShape::Service => (sites > 0).then(|| {
                let site = site(rng);
                FaultTarget::Service(site, pick(&ServiceKind::ALL, rng))
            }),
            TargetShape::Site => (sites > 0).then(|| FaultTarget::Site(site(rng))),
            TargetShape::SiteLink => (sites > 1).then(|| {
                let a = rng.gen_range(0..sites);
                let b = (a + 1 + rng.gen_range(0..sites - 1)) % sites;
                FaultTarget::SiteLink(SiteId(a as u16), SiteId(b as u16))
            }),
        }
    }

    /// The canonical target of this shape for an injection declared on
    /// `cluster` — what the detection harness and the ablation inject:
    /// the cluster's first node (or first two), its site, the first
    /// site's kadeploy service, the link between the first two sites.
    /// `None` when the testbed is too small for the shape. "First" is the
    /// order OAR's planner assigns in: the harness runs each coverage row
    /// where the planner puts it, and `ttt_suite::coverage`'s
    /// `canonical_targets_are_where_the_planner_lands` fails if the two part.
    pub fn canonical_target(self, tb: &Testbed, cluster: &Cluster) -> Option<FaultTarget> {
        let site = |i: usize| tb.sites().get(i).map(|s| s.id);
        let node = |i: usize| cluster.nodes.get(i).copied();
        Some(match self {
            TargetShape::Node | TargetShape::IbNode => FaultTarget::Node(node(0)?),
            TargetShape::NodePair => FaultTarget::NodePair(node(0)?, node(1)?),
            TargetShape::Service => FaultTarget::Service(site(0)?, ServiceKind::KadeployServer),
            TargetShape::Site => FaultTarget::Site(cluster.site),
            TargetShape::SiteLink => FaultTarget::SiteLink(site(0)?, site(1)?),
        })
    }
}

/// Draw a random valid target for `kind` and apply it to the testbed.
/// Returns `None` when the testbed offers no target of the kind's shape or
/// the fault would be a no-op (already present).
pub fn inject_random<R: Rng>(
    kind: FaultKind,
    at: SimTime,
    tb: &mut Testbed,
    rng: &mut R,
) -> Option<Fault> {
    let target = kind.spec().shape.random_target(tb, rng)?;
    tb.apply_fault(kind, target, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TestbedBuilder;
    use rand::RngCore;
    use ttt_sim::rng::stream_rng;

    #[test]
    fn signatures_are_stable_and_distinct() {
        let on = |n| Symptom::DiskWriteCache.on(FaultTarget::Node(NodeId(n)));
        assert_eq!(on(17).to_string(), "disk-write-cache@node-17");
        assert_ne!(on(17), on(18));
        let service = FaultTarget::Service(SiteId(2), ServiceKind::OarServer);
        assert_eq!(Symptom::ServiceCrash.on(service).to_string(), "service-crash@site-2/oar-server");
        // Filed without a subject: the bare name.
        assert_eq!(Symptom::NoStdenv.on("").to_string(), "no-stdenv");
    }

    #[test]
    fn all_kind_names_unique() {
        let names: std::collections::HashSet<&str> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FaultKind::ALL.len());
        // A canonical symptom names one kind too.
        let canonical: std::collections::HashSet<Symptom> =
            FaultKind::CATALOGUE.iter().map(|row| row.symptoms[0]).collect();
        assert_eq!(canonical.len(), FaultKind::ALL.len());
        let symptoms: std::collections::HashSet<&str> =
            Symptom::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(symptoms.len(), Symptom::ALL.len());
    }

    #[test]
    fn catalogue_rows_follow_the_discriminants() {
        for (i, row) in FaultKind::CATALOGUE.iter().enumerate() {
            assert_eq!(row.kind as usize, i);
            assert_eq!(FaultKind::ALL[i], row.kind);
            assert_eq!(row.kind.spec().name, row.name);
        }
    }

    #[test]
    fn layers_partition_the_catalogue_in_the_order_they_were_added() {
        use FaultKind::*;
        // Bare-seed scenario expansion is frozen on exactly this prefix.
        assert!(FaultKind::legacy().eq(FaultKind::ALL[..20].iter().copied()));
        let site = [SitePowerOutage, SiteLinkPartition, ClockSkew];
        let process = [ServiceCrash, ServiceRestart, RpcDegraded];
        assert!(FaultKind::in_layer(Layer::Site).eq(site));
        assert!(FaultKind::in_layer(Layer::Process).eq(process));
        assert_eq!(FaultKind::in_layer(Layer::Base).count(), 17);
        assert!(ClockSkew.is_site_fault() && !RpcDegraded.is_site_fault());
        assert_eq!(RpcDegraded.spec().shape, TargetShape::Site);
    }

    /// Apply `kind` on its canonical target, on the first cluster of the
    /// small testbed that takes it (alpha is 1G: no NIC downgrade there).
    fn apply_canonical(tb: &mut Testbed, kind: FaultKind) -> Fault {
        let clusters = tb.clusters().to_vec();
        clusters
            .iter()
            .find_map(|c| {
                let target = kind.spec().shape.canonical_target(tb, c)?;
                tb.apply_fault(kind, target, SimTime::ZERO)
            })
            .unwrap_or_else(|| panic!("{kind} applies nowhere on the small testbed"))
    }

    #[test]
    fn every_symptom_resolves_to_its_kind() {
        for row in &FaultKind::CATALOGUE {
            for symptom in row.symptoms {
                let mut tb = TestbedBuilder::small().build();
                let fault = apply_canonical(&mut tb, row.kind);
                // Diagnostics name a node by host name, anything else by
                // the target's rendering.
                let signature = match fault.target {
                    FaultTarget::Node(n) | FaultTarget::NodePair(n, _) => symptom.on(&tb.node(n).name),
                    other => symptom.on(other),
                };
                assert_eq!(find_fault(&tb, &signature), Some(&fault), "{signature}");
            }
        }
    }

    #[test]
    fn inject_random_finds_no_target_on_a_testbed_it_cannot_hit() {
        use crate::gen::ClusterSpec;
        use crate::hardware::Vendor;
        let lone = ClusterSpec::new("solo", "only", 1, 4, Vendor::Dell, false, true);
        for kind in FaultKind::ALL {
            // Nothing to hit: no target, and not one draw spent looking.
            let mut empty = TestbedBuilder::from_specs(vec![]).build();
            let mut rng = stream_rng(3, "inject");
            assert_eq!(inject_random(kind, SimTime::ZERO, &mut empty, &mut rng), None);
            assert_eq!(rng.next_u64(), stream_rng(3, "inject").next_u64(), "{kind} drew");
            // One node on one site: the node, service and site shapes land;
            // a pair, a link and Infiniband have no candidate.
            let mut tb = TestbedBuilder::from_specs(vec![lone.clone()]).build();
            let landed = inject_random(kind, SimTime::ZERO, &mut tb, &mut rng).is_some();
            let shape = kind.spec().shape;
            let hittable = !matches!(
                shape,
                TargetShape::IbNode | TargetShape::NodePair | TargetShape::SiteLink
            );
            // A 1G NIC cannot downgrade: that one is a no-op, not a miss.
            assert_eq!(landed, hittable && kind != FaultKind::NicDowngrade, "{kind}");
        }
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
                .map(|f| (f.kind, f.target))
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
            let sigs: Vec<(FaultKind, FaultTarget)> = inj
                .advance(SimTime::from_days(30), &mut tb, &mut rng)
                .iter()
                .map(|f| (f.kind, f.target))
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

    #[test]
    fn exact_signature_match() {
        let mut tb = TestbedBuilder::small().build();
        let n = tb.clusters()[0].nodes[0];
        let f = tb
            .apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let name = tb.node(n).name.clone();
        let found = find_fault(&tb, &Symptom::CpuCStates.on(&name)).unwrap();
        assert_eq!(found.id, f.id);
        // A subject that only starts like the host name is not it.
        assert_eq!(find_fault(&tb, &Symptom::CpuCStates.on(format!("{name}0"))), None);
    }

    #[test]
    fn a_host_named_like_a_node_id_resolves_by_host_name() {
        use crate::gen::ClusterSpec;
        use crate::hardware::Vendor;
        // Host `node-1` is node id 0, while node id 1 renders as `node-1`.
        let spec = ClusterSpec::new("node", "only", 3, 4, Vendor::Dell, false, true);
        let mut tb = TestbedBuilder::from_specs(vec![spec]).build();
        let mut drift = |n| {
            tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(NodeId(n)), SimTime::ZERO)
                .unwrap()
        };
        drift(1);
        let own = drift(0);
        assert_eq!(tb.node(NodeId(0)).name, "node-1");
        assert_eq!(find_fault(&tb, &Symptom::CpuCStates.on("node-1")), Some(&own));
    }

    #[test]
    fn behavioural_signature_matches_by_node() {
        let mut tb = TestbedBuilder::small().build();
        let n = tb.clusters()[0].nodes[1];
        let f = tb
            .apply_fault(FaultKind::RandomReboots, FaultTarget::Node(n), SimTime::ZERO)
            .unwrap();
        let name = tb.node(n).name.clone();
        let found = find_fault(&tb, &Symptom::DeployFailure.on(&name)).unwrap();
        assert_eq!(found.id, f.id);
        let found = find_fault(&tb, &Symptom::BootFailure.on(&name)).unwrap();
        assert_eq!(found.id, f.id);
    }

    #[test]
    fn cabling_swap_matches_either_node() {
        let mut tb = TestbedBuilder::small().build();
        let c = &tb.clusters()[0];
        let (a, b) = (c.nodes[0], c.nodes[1]);
        let f = tb
            .apply_fault(FaultKind::CablingSwap, FaultTarget::NodePair(a, b), SimTime::ZERO)
            .unwrap();
        for n in [a, b] {
            let name = tb.node(n).name.clone();
            let found = find_fault(&tb, &Symptom::CablingSwap.on(&name)).unwrap();
            assert_eq!(found.id, f.id);
        }
    }

    #[test]
    fn service_signature_exact_match() {
        let mut tb = TestbedBuilder::small().build();
        let site = tb.sites()[0].id;
        let f = tb
            .apply_fault(
                FaultKind::ServiceFlaky,
                FaultTarget::Service(site, ServiceKind::OarServer),
                SimTime::ZERO,
            )
            .unwrap();
        let found = find_fault(&tb, &Symptom::ServiceFlaky.on(f.target)).unwrap();
        assert_eq!(found.id, f.id);
    }

    #[test]
    fn unknown_signatures_match_nothing() {
        let tb = TestbedBuilder::small().build();
        assert!(find_fault(&tb, &Symptom::CpuCStates.on("alpha-1")).is_none());
        assert!(find_fault(&tb, &Symptom::BootDelay.on("unknown-node")).is_none());
    }
}
