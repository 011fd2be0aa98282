//! Multi-site federation: one OAR server per site, with site-affine
//! placement and saturation spillover.
//!
//! The real testbed is federated — every site runs its own OAR instance
//! over its own clusters, and the campaign driver (like the paper's
//! external scheduler) shards work across them. This module makes that
//! structure first-class:
//!
//! * each [`SiteDomain`] wraps an [`OarServer`] that *is* its site: the
//!   shared resource database is partitioned by site, and a domain keeps
//!   state for, and plans over, its own part only — a remote node is not
//!   a disabled candidate, it is not a candidate;
//! * [`Federation::submit`] places a request on its *home* domain (derived
//!   from the request's implied cluster/site, or passed explicitly), and
//!   spills over to a remote domain when the home site cannot start it
//!   immediately but a remote one can;
//! * placement asks only the sites that can answer: a request's filters
//!   are resolved once per placement — or once for good, into a
//!   [`Resolved`] handle its caller keeps — and only domains where every
//!   group has a matching node are probed, so a cluster- or site-pinned
//!   request costs one probe however wide the federation is; a request that
//!   can start now is booked on the nodes that probe found, not planned
//!   again;
//! * requests whose groups statically span several sites (the global
//!   kavlan configuration) are *co-allocated*: split into per-site parts
//!   that must all start at the same instant, mirroring `oargridsub`;
//! * [`Federation::next_event_time`] is the earliest pending instant
//!   across every domain's queues, so an event-driven campaign engine can
//!   sleep across the whole federation at once.

use crate::ast::ResourceRequest;
use crate::job::{Job, JobId, JobKind, JobState, Queue};
use crate::server::{MatchSet, OarServer, Picks, ResourceDb, Resolved, SubmitError};
use std::collections::BTreeMap;
use std::sync::Arc;
use ttt_refapi::TestbedDescription;
use ttt_sim::{Buggify, SimTime};
use ttt_testbed::{LinkModelSpec, NodeId, ServiceKind, SiteId, Testbed};

/// One site's scheduling domain.
pub struct SiteDomain {
    /// The site this domain schedules.
    pub site: SiteId,
    /// Site name (home-affinity keys are names).
    pub name: String,
    /// The site's own OAR server, scheduling this site's nodes only.
    pub oar: OarServer,
}

/// A job handle spanning the federation: one `(domain, job)` part for
/// ordinary jobs, several for co-allocated cross-site jobs. The first part
/// is held inline, so the handle of an ordinary job allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedJob {
    /// The first `(domain index, per-domain job id)` part.
    first: (usize, JobId),
    /// A co-allocation's other parts, in group order; empty otherwise.
    rest: Vec<(usize, JobId)>,
}

impl FedJob {
    /// The handle of a job of one part.
    fn one(domain: usize, id: JobId) -> Self {
        FedJob {
            first: (domain, id),
            rest: Vec::new(),
        }
    }

    /// The handle of a co-allocation's booked parts, in group order.
    fn split(mut parts: Vec<(usize, JobId)>) -> Self {
        let first = parts.remove(0);
        FedJob { first, rest: parts }
    }

    /// The `(domain index, per-domain job id)` parts, in group order.
    pub fn parts(&self) -> impl Iterator<Item = (usize, JobId)> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// The domain a single-part job ran on (first part for co-allocations).
    pub fn primary_domain(&self) -> usize {
        self.first.0
    }
}

/// Aggregate lifecycle state of a federated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedJobState {
    /// At least one part is still waiting or scheduled.
    Pending,
    /// Every part is running.
    Running,
    /// Every part terminated normally.
    Done,
    /// Some part failed, was cancelled, or is unknown.
    Failed,
}

/// Where [`Federation::place`] decided a request should go.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Starts immediately on this domain.
    Immediate(usize),
    /// Cannot start now, but this domain could start it on an idle part:
    /// it queues there.
    Queued(usize),
    /// Cross-site co-allocation: every `(domain, part)` starts immediately.
    Split(Vec<(usize, ResourceRequest)>),
    /// No domain can place it now (cross-site parts not all immediate, or
    /// nothing satisfiable).
    Nowhere,
}

/// Read-only availability view the external scheduler polls: "could this
/// request start right now, given its home site?". Implemented by the
/// single-server world (tests, harnesses) and by the federation.
///
/// A question is asked in two steps, resolve then probe, and the one-off
/// [`AvailabilityProbe::can_start_now`] is exactly those two. A caller that
/// asks about the same request again and again — the scheduler, once per
/// due test configuration — keeps the [`Resolved`] handle of its first
/// question and probes with it: the home lookup and the filters' match-set
/// lookups are paid once per request, not once per question.
pub trait AvailabilityProbe {
    /// Resolve `request` against this probe's resource database, homed on
    /// the domain of the site named `home_site` (none when no site has
    /// that name, and always none for a stand-alone server).
    fn resolve_for(&self, home_site: &str, request: &ResourceRequest) -> Resolved;

    /// Whether `request`, resolved into `resolved` by this probe (or by
    /// the federation it is), would start immediately if submitted now.
    fn can_start_resolved(&self, request: &ResourceRequest, resolved: &Resolved) -> bool;

    /// Whether the request would start immediately if submitted now.
    fn can_start_now(&self, home_site: &str, request: &ResourceRequest) -> bool {
        self.can_start_resolved(request, &self.resolve_for(home_site, request))
    }
}

/// One site's share of a cross-site request: its domain, the groups pinned
/// there and their match-sets.
type SitePart = (usize, ResourceRequest, Vec<Arc<MatchSet>>);

/// Where a request starts at this instant, with what the planner picked
/// for each part — the nodes when booking, their number when probing.
enum Start<P> {
    /// On one domain.
    One(usize, P),
    /// Co-allocated: every site part starts now.
    Split(Vec<(SitePart, P)>),
}

impl AvailabilityProbe for Federation {
    fn resolve_for(&self, home_site: &str, request: &ResourceRequest) -> Resolved {
        self.db.resolve_homed(request, self.domain_by_name(home_site))
    }

    fn can_start_resolved(&self, request: &ResourceRequest, resolved: &Resolved) -> bool {
        let sets = resolved.sets(&self.db);
        self.place_now::<usize>(resolved.home(), request, sets).is_some()
    }
}

/// The federated resource layer: every site's OAR server plus placement.
pub struct Federation {
    /// The resource database every domain plans against, partitioned by
    /// site: part `i` is domain `i`.
    db: Arc<ResourceDb>,
    domains: Vec<SiteDomain>,
    /// Cluster name → owning domain index.
    domain_of_cluster: BTreeMap<String, usize>,
    /// Site name → domain index.
    domain_of_site: BTreeMap<String, usize>,
    /// Jobs placed off their home domain (the spillover counter is an
    /// engine-equivalence observable).
    spillovers: u64,
    /// Spillovers received per domain: `spillovers_in[d]` counts jobs that
    /// landed on domain `d` away from their home site.
    spillovers_in: Vec<u64>,
    /// Cross-site co-allocations booked (`oargridsub`-style splits).
    co_allocations: u64,
    /// Backbone reachability between domains, refreshed by
    /// [`Federation::sync_backbone`]. `None` — always the case under the
    /// ideal link model — means the backbone is free and placement ignores
    /// it entirely (the historical behavior).
    backbone: Option<BackboneView>,
    now: SimTime,
    /// Chaos hook: when armed, the federation gateway can lose a
    /// submission before placement. Off by default.
    buggify: Buggify,
    /// Monotone count of gateway submission attempts (rng-free buggify
    /// salt; retries draw fresh salts — delay, never starvation).
    submit_attempts: u64,
}

/// Which domain pairs can reach each other over the backbone, and the
/// link state it was derived from.
struct BackboneView {
    /// The testbed's link stamp when the matrix was filled.
    stamp: u64,
    /// The link model the matrix was filled under.
    model: LinkModelSpec,
    /// Row-major `n × n` over the domains.
    reachable: Vec<bool>,
}

impl Federation {
    /// Build one scheduling domain per site of the testbed. Node ids stay
    /// global, but each domain holds state for its own site's nodes only.
    pub fn new(tb: &Testbed, desc: &TestbedDescription) -> Self {
        // One shared resource database, one part per site: per-site
        // servers differ only in which part they schedule.
        let db = Arc::new(ResourceDb::load_by_site(tb, desc));
        let mut domains = Vec::with_capacity(tb.sites().len());
        let mut domain_of_site = BTreeMap::new();
        let mut domain_of_cluster = BTreeMap::new();
        for (i, site) in tb.sites().iter().enumerate() {
            let oar = OarServer::over_part(Arc::clone(&db), i);
            domain_of_site.insert(site.name.clone(), i);
            for &cid in &site.clusters {
                domain_of_cluster.insert(tb.cluster(cid).name.clone(), i);
            }
            domains.push(SiteDomain {
                site: site.id,
                name: site.name.clone(),
                oar,
            });
        }
        let n = domains.len();
        let mut fed = Federation {
            db,
            domains,
            domain_of_cluster,
            domain_of_site,
            spillovers: 0,
            spillovers_in: vec![0; n],
            co_allocations: 0,
            backbone: None,
            now: SimTime::ZERO,
            buggify: Buggify::off(),
            submit_attempts: 0,
        };
        // Born current: a testbed that starts with a crashed OAR process or
        // a partitioned backbone (a t=0 fault burden) is seen before the
        // first sync, not after it.
        fed.sync_process_liveness(tb);
        fed.sync_backbone(tb);
        fed
    }

    /// Arm (or disarm) chaos on the federation gateway and fan the switch
    /// out to every domain's OAR server. The campaign driver calls this
    /// once at construction; rate 0 keeps everything byte-identical.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
        for d in &mut self.domains {
            d.oar.set_buggify(buggify);
        }
    }

    /// The scheduling domains, in site order.
    pub fn domains(&self) -> &[SiteDomain] {
        &self.domains
    }

    /// One domain.
    pub fn domain(&self, i: usize) -> &SiteDomain {
        &self.domains[i]
    }

    /// Number of domains (= sites).
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the federation has no domains (never true for a built
    /// testbed, but keeps the API honest).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jobs placed off their home domain so far.
    pub fn spillovers(&self) -> u64 {
        self.spillovers
    }

    /// Spillovers received per domain, in site order: how many jobs each
    /// site absorbed away from their home site.
    pub fn spillovers_by_domain(&self) -> &[u64] {
        &self.spillovers_in
    }

    /// Waiting-queue depth per domain, in site order — the per-site view
    /// a campaign snapshot captures for the read plane.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.oar.waiting_count()).collect()
    }

    /// Cross-site co-allocations booked so far.
    pub fn co_allocations(&self) -> u64 {
        self.co_allocations
    }

    /// Number of domains with no alive node left (blacked-out sites):
    /// O(domains), each domain keeps its count. A crashed OAR *process*
    /// does not count — its nodes are still powered; see
    /// [`Federation::sync_process_liveness`].
    pub fn dead_domains(&self) -> usize {
        self.domains.iter().filter(|d| d.oar.alive_nodes() == 0).count()
    }

    /// Reconcile per-domain OAR process liveness from the testbed's
    /// process registry. A domain whose `oar-server` process is down stops
    /// taking placements and submissions while its nodes stay alive and
    /// its booked jobs keep running — the "site powered but scheduler
    /// unreachable" failure mode, distinct from a site power outage.
    pub fn sync_process_liveness(&mut self, tb: &Testbed) {
        for domain in &mut self.domains {
            domain
                .oar
                .set_process_up(tb.process_up(domain.site, ServiceKind::OarServer));
        }
    }

    /// Refresh the backbone reachability view from the testbed's link
    /// model and partition state. Under the ideal model the view clears to
    /// `None` and placement is byte-identical to a federation that never
    /// called this; under a real model, spillover and co-allocation only
    /// consider domain pairs whose backbone path is usable
    /// ([`Testbed::backbone_reachable`]), so a partition — or a
    /// mostly-dead modelled link — degrades placement instead of being
    /// invisible to it. The matrix is refilled only when the link stamp or
    /// the model moved since the last fill: a step with no link flip pays
    /// one comparison.
    pub fn sync_backbone(&mut self, tb: &Testbed) {
        let model = tb.link_model();
        if model.is_ideal() {
            self.backbone = None;
            return;
        }
        let stamp = tb.topology().link_stamp();
        if self
            .backbone
            .as_ref()
            .is_some_and(|v| v.stamp == stamp && v.model == model)
        {
            return;
        }
        // Refilled in place once a view exists.
        let n = self.domains.len();
        let mut reachable = self
            .backbone
            .take()
            .map_or_else(|| Vec::with_capacity(n * n), |v| v.reachable);
        reachable.clear();
        reachable.extend(self.reachability(tb));
        self.backbone = Some(BackboneView {
            stamp,
            model,
            reachable,
        });
    }

    /// Every domain pair's backbone reachability as the testbed derives it
    /// now, row-major.
    fn reachability<'a>(&'a self, tb: &'a Testbed) -> impl Iterator<Item = bool> + 'a {
        let sites = || self.domains.iter().map(|d| d.site);
        sites().flat_map(move |a| sites().map(move |b| tb.backbone_reachable(a, b)))
    }

    /// The backbone view's oracle: the installed view against a fresh
    /// derivation from `tb`. `None` when they agree, and when a link flipped
    /// after the last [`Federation::sync_backbone`]: the view follows the
    /// links at each sync (the campaign's `dirty-sync` phase), so a repair
    /// later in a step is not a divergence. The model is never waited for:
    /// a campaign installs it once, before the federation is built.
    pub fn backbone_divergence(&self, tb: &Testbed) -> Option<String> {
        let model = tb.link_model();
        let view = match (&self.backbone, model.is_ideal()) {
            (None, true) => return None,
            (Some(_), true) => return Some("a backbone view under the ideal link model".into()),
            (None, false) => return Some(format!("no backbone view under {model:?}")),
            (Some(view), false) => view,
        };
        if view.stamp != tb.topology().link_stamp() {
            return None;
        }
        let n = self.domains.len();
        let cell = view.reachable.iter().zip(self.reachability(tb)).position(|(v, f)| *v != f)?;
        let (a, b) = (&self.domains[cell / n], &self.domains[cell % n]);
        Some(format!(
            "backbone view says {}~{} is {}reachable under {model:?}; the links say otherwise",
            a.name,
            b.name,
            if view.reachable[cell] { "" } else { "un" }
        ))
    }

    /// Whether the backbone path between two domains is usable for
    /// placement. Always true with no reachability view installed.
    fn backbone_ok(&self, a: usize, b: usize) -> bool {
        match &self.backbone {
            None => true,
            Some(v) => a == b || v.reachable[a * self.domains.len() + b],
        }
    }

    /// The domain owning a site name.
    pub fn domain_by_name(&self, site: &str) -> Option<usize> {
        self.domain_of_site.get(site).copied()
    }

    /// The home domain a request implies: that of its first group pinned
    /// to one — by the site owning its implied cluster, or, when it implies
    /// none, by `site='…'`. `None` when the request is site-agnostic (plain
    /// `nodes=N` user jobs).
    pub fn home_of_request(&self, request: &ResourceRequest) -> Option<usize> {
        request.groups.iter().find_map(|group| self.group_domain(group))
    }

    /// The domain a request group must run on, if statically pinned.
    fn group_domain(&self, group: &crate::ast::RequestGroup) -> Option<usize> {
        if let Some(cluster) = group.filter.implied_cluster() {
            return self.domain_of_cluster.get(cluster).copied();
        }
        group
            .filter
            .implied_eq("site")
            .and_then(|site| self.domain_of_site.get(site).copied())
    }

    /// Split a request whose groups span several sites into per-domain
    /// parts, each with its groups' match-sets out of `sets`. `None` unless
    /// there are several groups, every one is pinned and ≥ 2 domains appear.
    fn split_by_site(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
    ) -> Option<Vec<SitePart>> {
        if request.groups.len() < 2 {
            return None;
        }
        let mut parts: Vec<SitePart> = Vec::new();
        for (group, set) in request.groups.iter().zip(sets) {
            let d = self.group_domain(group)?;
            match parts.iter_mut().find(|(pd, _, _)| *pd == d) {
                Some((_, part, part_sets)) => {
                    part.groups.push(group.clone());
                    part_sets.push(Arc::clone(set));
                }
                None => parts.push((
                    d,
                    ResourceRequest {
                        groups: vec![group.clone()],
                        walltime: request.walltime,
                    },
                    vec![Arc::clone(set)],
                )),
            }
        }
        (parts.len() >= 2).then_some(parts)
    }

    /// Decide where `request` goes, without booking anything.
    ///
    /// Deterministic policy: the home domain wins when it can start the
    /// request immediately; otherwise the first remote domain (ascending
    /// site order) that can start it now takes it (spillover); otherwise
    /// the request queues on its home domain when satisfiable there, else
    /// on the first domain that could ever satisfy it. Satisfiable is the
    /// planner's word ([`OarServer::can_satisfy`]): a queued placement is
    /// one the domain could start if its part were idle, so it does start
    /// once enough of it is — never a request no instant can place.
    /// Requests statically spanning several sites are co-allocated and only
    /// place when every part can start at this instant.
    // detlint: allow(pub-fn-only-tests-call) -- the decision the placement oracles compare against; submit books it in place
    pub fn place(&self, home: Option<usize>, request: &ResourceRequest) -> Placement {
        // A home that names no domain is no home.
        let home = home.filter(|&h| h < self.domains.len());
        let sets = self.db.resolve(request);
        let sets = sets.as_slice();
        match self.place_now::<usize>(home, request, sets) {
            Some(Start::One(d, _)) => Placement::Immediate(d),
            Some(Start::Split(parts)) => {
                Placement::Split(parts.into_iter().map(|((d, part, _), _)| (d, part)).collect())
            }
            None => self
                .queue_on(home, request, sets)
                .map_or(Placement::Nowhere, Placement::Queued),
        }
    }

    /// The queued part of [`Federation::place`], for a request that cannot
    /// start now: the domain it waits on, if any.
    fn queue_on(
        &self,
        home: Option<usize>,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
    ) -> Option<usize> {
        if self.split_by_site(request, sets).is_some() {
            // Cross-site co-allocations never queue (oargridsub semantics:
            // all parts or nothing, now).
            return None;
        }
        self.candidates(home, sets).find(|&d| {
            let oar = &self.domains[d].oar;
            oar.process_up() && oar.can_queue(request, sets)
        })
    }

    /// The immediate-start part of [`Federation::place`]: `Some` iff the
    /// request (or every part of a cross-site split) can start at this
    /// instant, with what the planner picked into a `P` per part: the nodes
    /// for a booking, only their number for a probe or a placement. The
    /// external scheduler's availability probe only needs this answer, so
    /// it skips the queued-fallback validation sweep that `place` would run
    /// on a saturated testbed. `sets` is the request resolved against the
    /// database, once for the whole placement.
    fn place_now<P: Picks>(
        &self,
        home: Option<usize>,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
    ) -> Option<Start<P>> {
        if let Some(parts) = self.split_by_site(request, sets) {
            // Every part's scheduling process must be reachable; a
            // co-allocation cannot book around a crashed domain.
            if parts.iter().any(|(d, _, _)| !self.domains[*d].oar.process_up()) {
                return None;
            }
            // All parts must be mutually reachable over the backbone — a
            // co-allocation spanning a partition can never start.
            for (i, &(a, _, _)) in parts.iter().enumerate() {
                for &(b, _, _) in &parts[i + 1..] {
                    if !self.backbone_ok(a, b) {
                        return None;
                    }
                }
            }
            let mut found = Vec::with_capacity(parts.len());
            for (d, part, part_sets) in parts {
                let mut picks = P::default();
                if !self.domains[d].oar.plan_now(&part, &part_sets, &mut picks) {
                    return None;
                }
                found.push(((d, part, part_sets), picks));
            }
            return Some(Start::Split(found));
        }
        // Domains whose OAR process is down refuse probes outright.
        self.candidates(home, sets).find_map(|d| {
            let oar = &self.domains[d].oar;
            let mut picks = P::default();
            (oar.process_up() && oar.plan_now(request, sets, &mut picks))
                .then(|| Start::One(d, picks))
        })
    }

    /// The domains worth asking about a request, in placement order: home
    /// first, then every other domain in ascending site order — restricted
    /// to the domains that host the request, i.e. where every group has a
    /// matching node. Any other domain answers "no" to both questions
    /// placement asks (a group with no matching node is neither startable
    /// nor satisfiable), so skipping it changes no decision. With a
    /// backbone reachability view installed and a known home, remote
    /// domains the home site cannot reach are not candidates either — a
    /// job cannot spill over (or queue remotely) across a dead backbone
    /// path.
    fn candidates<'a>(
        &'a self,
        home: Option<usize>,
        sets: &'a [Arc<MatchSet>],
    ) -> impl Iterator<Item = usize> + 'a {
        let hosts = move |d: usize| sets.iter().all(|set| set.hosts(d));
        // Any group's hosting parts would do to enumerate from: ascending,
        // and sparse for a pinned filter.
        let remote = sets
            .first()
            .into_iter()
            .flat_map(|set| set.parts())
            .filter(move |&d| Some(d) != home && hosts(d))
            .filter(move |&d| home.is_none_or(|h| self.backbone_ok(h, d)));
        home.into_iter().filter(move |&h| hosts(h)).chain(remote)
    }

    /// Resolve `request` into a handle homed as [`Federation::submit`]
    /// homes it: on `home` when that names a domain, else on the domain
    /// its groups are pinned to ([`Federation::home_of_request`]).
    pub fn resolve(&self, request: &ResourceRequest, home: Option<usize>) -> Resolved {
        let home = home
            .filter(|&h| h < self.domains.len())
            .or_else(|| self.home_of_request(request));
        self.db.resolve_homed(request, home)
    }

    /// Submit a request: place it (home affinity + spillover), then book
    /// it on the chosen domain(s).
    ///
    /// Past the gateway's chaos draw this is [`Federation::resolve`], then
    /// what [`Federation::submit_resolved`] does with that handle. A
    /// request that starts now is booked on the nodes placement found for
    /// it, so it is planned once. The job shares `request`: a caller that
    /// submits one request many times builds it once and passes clones of
    /// its `Arc`. The outcome is the one a direct `OarServer::submit` on
    /// the chosen domain would give: the same chaos draw and verdict, and
    /// the domain's full scheduling pass whenever a job is already waiting
    /// there. The engine-equivalence and conservation oracles lean on
    /// that, and the crate's twin-federation model test checks it.
    // detlint: allow(unarmed-service-fn) -- submit_shared() holds this path's fed-submit arm
    pub fn submit(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: impl Into<Arc<ResourceRequest>>,
        home: Option<usize>,
    ) -> Result<FedJob, SubmitError> {
        self.submit_shared(user, queue, kind, request.into(), None, home)
    }

    /// [`Federation::submit`] of a request its caller resolved once, with
    /// [`Federation::resolve`] or this federation's
    /// [`AvailabilityProbe::resolve_for`]: `resolved` must be `request`'s,
    /// and its home is the job's home.
    // detlint: allow(unarmed-service-fn) -- submit_shared() holds this path's fed-submit arm
    pub fn submit_resolved(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: Arc<ResourceRequest>,
        resolved: &Resolved,
    ) -> Result<FedJob, SubmitError> {
        self.submit_shared(user, queue, kind, request, Some(resolved), None)
    }

    /// The one body of both submissions: `resolved`, or a handle resolved
    /// here and homed on `home` when the caller kept none.
    fn submit_shared(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: Arc<ResourceRequest>,
        resolved: Option<&Resolved>,
        home: Option<usize>,
    ) -> Result<FedJob, SubmitError> {
        // Buggify: the grid gateway loses the submission before placement
        // (the oargridsub wrapper's RPC never reaches a server). Hashed
        // from a monotone attempt counter — engine-order independent, and
        // a retried submission draws a fresh salt. A lost submission
        // resolves nothing.
        self.submit_attempts += 1;
        if self.buggify.fire_hashed("fed-submit", self.submit_attempts) {
            return Err(SubmitError::TransientlyRefused);
        }
        let fresh;
        let resolved = match resolved {
            Some(resolved) => resolved,
            None => {
                fresh = self.resolve(&request, home);
                &fresh
            }
        };
        let home = resolved.home();
        let sets = resolved.sets(&self.db);
        let (d, placed) = match self.place_now::<Vec<NodeId>>(home, &request, sets) {
            Some(Start::One(d, nodes)) => (d, Some(nodes)),
            Some(Start::Split(parts)) => {
                let mut out = Vec::with_capacity(parts.len());
                for ((d, part, part_sets), nodes) in parts {
                    let oar = &mut self.domains[d].oar;
                    let part = Arc::new(part);
                    match oar.submit_placed(user, queue, kind, part, &part_sets, Some(nodes)) {
                        Ok(id) => out.push((d, id)),
                        Err(e) => {
                            // Roll the already-booked parts back; a
                            // half-placed co-allocation must not linger.
                            for &(pd, pid) in &out {
                                self.domains[pd].oar.cancel(pid);
                            }
                            return Err(e);
                        }
                    }
                }
                self.co_allocations += 1;
                return Ok(FedJob::split(out));
            }
            None => match self.queue_on(home, &request, sets) {
                Some(d) => (d, None),
                None => return Err(SubmitError::Unsatisfiable),
            },
        };
        if home.is_some_and(|h| h != d) {
            self.spillovers += 1;
            self.spillovers_in[d] += 1;
        }
        let id = self.domains[d]
            .oar
            .submit_placed(user, queue, kind, request, sets, placed)?;
        Ok(FedJob::one(d, id))
    }

    /// Aggregate state of a federated job.
    pub fn job_state(&self, job: &FedJob) -> FedJobState {
        let (mut n, mut running, mut done) = (0, 0, 0);
        for (d, id) in job.parts() {
            n += 1;
            match self.domains[d].oar.job(id).map(|j| j.state) {
                Some(JobState::Running) => running += 1,
                Some(JobState::Terminated) => done += 1,
                Some(JobState::Waiting) | Some(JobState::Scheduled) => {}
                Some(JobState::Error) | Some(JobState::Canceled) | None => {
                    return FedJobState::Failed
                }
            }
        }
        if running == n {
            FedJobState::Running
        } else if done == n {
            FedJobState::Done
        } else if running + done == n {
            // Mixed running/terminated parts count as still running — the
            // co-allocation is over only when every part is.
            FedJobState::Running
        } else {
            FedJobState::Pending
        }
    }

    /// Put all nodes assigned to a federated job, parts concatenated, in
    /// `out` in place of what it held: a caller that asks once per test
    /// keeps one buffer.
    pub fn assigned_into(&self, job: &FedJob, out: &mut Vec<NodeId>) {
        out.clear();
        for (d, id) in job.parts() {
            if let Some(j) = self.domains[d].oar.job(id) {
                out.extend_from_slice(&j.assigned);
            }
        }
    }

    /// Complete every running part early. Returns true if any part changed.
    pub fn complete_early(&mut self, job: &FedJob) -> bool {
        let mut any = false;
        for (d, id) in job.parts() {
            any |= self.domains[d].oar.complete_early(id);
        }
        any
    }

    /// Cancel every part. Returns true if any part changed.
    pub fn cancel(&mut self, job: &FedJob) -> bool {
        let mut any = false;
        for (d, id) in job.parts() {
            any |= self.domains[d].oar.cancel(id);
        }
        any
    }

    /// Advance every domain to `to`. Time never goes backwards: a `to`
    /// before [`Federation::now`] is ignored.
    pub fn advance(&mut self, to: SimTime) {
        if to < self.now {
            return;
        }
        for d in &mut self.domains {
            d.oar.advance(to);
        }
        self.now = to;
    }

    /// Earliest pending instant across all domains' queues.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.domains
            .iter()
            .filter_map(|d| d.oar.next_event_time())
            .min()
    }

    /// Reconcile node liveness. Each domain picks its own site's flipped
    /// nodes out of `dirty`; a remote flip never concerns it.
    pub fn sync_dirty_nodes(&mut self, tb: &Testbed, dirty: &[NodeId]) {
        if dirty.is_empty() {
            return;
        }
        for domain in &mut self.domains {
            domain.oar.sync_dirty_nodes(tb, dirty);
        }
    }

    /// Fraction of alive nodes busy across the whole federation: a sum of
    /// every domain's kept counts.
    pub fn utilization(&self) -> f64 {
        let mut busy = 0usize;
        let mut alive = 0usize;
        for d in &self.domains {
            busy += d.oar.busy_nodes();
            alive += d.oar.alive_nodes();
        }
        if alive == 0 {
            0.0
        } else {
            busy as f64 / alive as f64
        }
    }

    /// Iterate every job of every domain, in `(domain, job)` order.
    pub fn all_jobs(&self) -> impl Iterator<Item = (usize, &Job)> {
        self.domains
            .iter()
            .enumerate()
            .flat_map(|(i, d)| d.oar.jobs().iter().map(move |j| (i, j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::server::NodeState;
    use ttt_refapi::describe;
    use ttt_sim::SimDuration;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};

    fn setup() -> (Testbed, Federation) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let fed = Federation::new(&tb, &desc);
        (tb, fed)
    }

    fn nodes_req(filter: Expr, n: u32, hours: u64) -> ResourceRequest {
        ResourceRequest::nodes(filter, n, SimDuration::from_hours(hours))
    }

    #[test]
    fn one_domain_per_site_with_remote_nodes_absent() {
        let (tb, fed) = setup();
        assert_eq!(fed.len(), tb.sites().len());
        for (i, domain) in fed.domains().iter().enumerate() {
            assert_eq!(domain.site, tb.sites()[i].id);
            for node in tb.nodes() {
                let state = domain.oar.node_state(node.id);
                if node.site == domain.site {
                    assert_eq!(state, NodeState::Alive);
                } else {
                    assert_eq!(state, NodeState::Absent);
                }
            }
        }
    }

    #[test]
    fn cluster_affine_requests_stay_home() {
        let (tb, mut fed) = setup();
        // gamma lives on "west" (domain 1).
        let req = nodes_req(Expr::eq("cluster", "gamma"), 2, 1);
        assert_eq!(fed.home_of_request(&req), Some(1));
        let job = fed
            .submit("alice", Queue::Default, JobKind::User, req, None)
            .unwrap();
        assert_eq!(job.parts().count(), 1);
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.spillovers(), 0);
        let gamma = tb.cluster_by_name("gamma").unwrap();
        let mut assigned = vec![NodeId::from(0)];
        fed.assigned_into(&job, &mut assigned);
        assert_eq!(assigned.len(), 2, "what the buffer held is gone");
        assert!(assigned.iter().all(|n| gamma.nodes.contains(n)));
    }

    #[test]
    fn saturated_home_site_spills_over() {
        let (_tb, mut fed) = setup();
        // Fill every east node (alpha 4 + beta 4) for 10 hours.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 8, 10),
            None,
        )
        .unwrap();
        // A site-agnostic request homed on east must spill to west and
        // start immediately there.
        let home = fed.domain_by_name("east");
        let job = fed
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.spillovers(), 1);
        // The receiving domain is credited, not the saturated home.
        assert_eq!(fed.spillovers_by_domain(), &[0, 1]);
    }

    #[test]
    fn a_domain_too_full_for_the_request_is_skipped() {
        // East has 8 nodes. With 7 busy, a request for two is refused there
        // on the free count, before a node is walked, and goes where the
        // planner's walk sends it: spilled to west, or queued at home once
        // west is full too. A request for one still reaches east's planner.
        let (_tb, mut fed) = setup();
        let east = fed.domain_by_name("east");
        let pinned = |site: &str, n| nodes_req(Expr::eq("site", site), n, 10);
        fed.submit("hog", Queue::Default, JobKind::User, pinned("east", 7), None).unwrap();
        let oar = &fed.domain(0).oar;
        assert_eq!(oar.alive_nodes() - oar.busy_nodes(), 1);
        let two = nodes_req(Expr::True, 2, 1);
        assert_eq!(fed.place(east, &two), Placement::Immediate(1));
        assert_eq!(fed.place(east, &nodes_req(Expr::True, 1, 1)), Placement::Immediate(0));
        fed.submit("hog", Queue::Default, JobKind::User, pinned("west", 6), None).unwrap();
        assert_eq!(fed.place(east, &two), Placement::Queued(0));
        assert!(!fed.can_start_now("east", &two));
        let job = fed.submit("bob", Queue::Default, JobKind::User, two, east).unwrap();
        assert_eq!(job.primary_domain(), 0);
        assert_eq!(fed.job_state(&job), FedJobState::Pending);
    }

    #[test]
    fn cluster_pinned_requests_never_spill() {
        let (_tb, mut fed) = setup();
        // Saturate alpha.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 4, 10),
            None,
        )
        .unwrap();
        // A further alpha request queues at home; it cannot run elsewhere.
        let job = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("cluster", "alpha"), 4, 1),
                None,
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
        assert_eq!(fed.job_state(&job), FedJobState::Pending);
        assert_eq!(fed.spillovers(), 0);
    }

    #[test]
    fn cross_site_request_is_co_allocated() {
        let (tb, mut fed) = setup();
        let req = ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let job = fed
            .submit("ci", Queue::Admin, JobKind::Test, req, None)
            .unwrap();
        assert_eq!(job.parts().count(), 2);
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.co_allocations(), 1);
        assert_eq!(fed.spillovers(), 0);
        let mut assigned = Vec::new();
        fed.assigned_into(&job, &mut assigned);
        assert_eq!(assigned.len(), 2);
        let sites: std::collections::HashSet<_> =
            assigned.iter().map(|&n| tb.node(n).site).collect();
        assert_eq!(sites.len(), 2, "one node per site");
        // Completing completes every part.
        assert!(fed.complete_early(&job));
        assert_eq!(fed.job_state(&job), FedJobState::Done);
    }

    #[test]
    fn cross_site_request_needs_all_parts_immediately() {
        let (_tb, mut fed) = setup();
        // Saturate west entirely.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "west"), 6, 10),
            None,
        )
        .unwrap();
        let req = ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let err = fed
            .submit("ci", Queue::Admin, JobKind::Test, req, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        // Nothing half-booked lingers.
        assert_eq!(
            fed.all_jobs()
                .filter(|(_, j)| j.kind == JobKind::Test)
                .count(),
            0
        );
    }

    #[test]
    fn dead_site_routes_everything_elsewhere() {
        let (mut tb, mut fed) = setup();
        let east = tb.sites()[0].id;
        tb.apply_fault(FaultKind::SitePowerOutage, FaultTarget::Site(east), SimTime::ZERO)
            .unwrap();
        let dirty = tb.take_alive_dirty();
        fed.sync_dirty_nodes(&tb, &dirty);
        // East's domain has no alive nodes left: one blacked-out site.
        assert_eq!(fed.domain(0).oar.alive_nodes(), 0);
        assert_eq!(fed.dead_domains(), 1);
        // A site-agnostic request homed on east lands on west.
        let job = fed
            .submit(
                "bob",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::True, 2, 1),
                fed.domain_by_name("east"),
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        // An east-pinned request is unsatisfiable anywhere.
        let err = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
    }

    #[test]
    fn crashed_oar_process_is_not_a_blackout() {
        let (mut tb, mut fed) = setup();
        let east = tb.sites()[0].id;
        // A job already running on east keeps running through the crash.
        let resident = fed
            .submit(
                "alice",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::eq("site", "east"), 2, 5),
                None,
            )
            .unwrap();
        tb.apply_fault(
            FaultKind::ServiceCrash,
            FaultTarget::Service(east, ttt_testbed::ServiceKind::OarServer),
            SimTime::ZERO,
        )
        .unwrap();
        fed.sync_process_liveness(&tb);
        // Nodes are still powered: this is NOT a dead domain.
        assert_eq!(fed.dead_domains(), 0);
        assert!(!fed.domain(0).oar.process_up());
        assert!(fed.domain(0).oar.alive_nodes() > 0);
        assert_eq!(fed.job_state(&resident), FedJobState::Running);
        // New site-agnostic work homed on east spills to west instead.
        let job = fed
            .submit(
                "bob",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::True, 2, 1),
                fed.domain_by_name("east"),
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        // East-pinned work cannot be booked anywhere while the process is
        // down...
        let err = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        assert!(!fed.can_start_now("east", &nodes_req(Expr::eq("site", "east"), 1, 1)));
        // ...and flows again once the process is repaired.
        let f = tb.active_faults()[0].clone();
        tb.repair(f.id);
        fed.sync_process_liveness(&tb);
        assert!(fed.domain(0).oar.process_up());
        let job = fed
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("site", "east"), 1, 1),
                None,
            )
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
    }

    #[test]
    fn next_event_spans_all_domains() {
        let (_tb, mut fed) = setup();
        assert_eq!(fed.next_event_time(), None);
        fed.submit(
            "a",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 1, 5),
            None,
        )
        .unwrap();
        fed.submit(
            "b",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "gamma"), 1, 2),
            None,
        )
        .unwrap();
        // The earliest end lives on west (2 h < 5 h).
        assert_eq!(fed.next_event_time(), Some(SimTime::from_hours(2)));
        fed.advance(SimTime::from_hours(3));
        assert_eq!(fed.next_event_time(), Some(SimTime::from_hours(5)));
    }

    #[test]
    fn utilization_aggregates_sites() {
        let (_tb, mut fed) = setup();
        // 7 of 14 nodes busy across both sites.
        fed.submit(
            "a",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 4, 1),
            None,
        )
        .unwrap();
        fed.submit(
            "b",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "west"), 3, 1),
            None,
        )
        .unwrap();
        assert!((fed.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partitioned_backbone_blocks_spillover_under_a_real_model() {
        let (mut tb, mut fed) = setup();
        let (east, west) = (tb.sites()[0].id, tb.sites()[1].id);
        tb.set_link_model(ttt_testbed::LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.0,
        });
        tb.topology_mut().set_site_link(east, west, false);
        fed.sync_backbone(&tb);
        // Saturate east; a site-agnostic request homed there used to spill
        // to west, but the backbone is down: it queues at home instead.
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("site", "east"), 8, 10),
            None,
        )
        .unwrap();
        let home = fed.domain_by_name("east");
        let job = fed
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
        assert_eq!(fed.job_state(&job), FedJobState::Pending);
        assert_eq!(fed.spillovers(), 0);
        // Healing the link and re-syncing restores spillover.
        tb.topology_mut().set_site_link(east, west, true);
        fed.sync_backbone(&tb);
        let job = fed
            .submit("carol", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1), home)
            .unwrap();
        assert_eq!(job.primary_domain(), 1);
        assert_eq!(fed.spillovers(), 1);
    }

    #[test]
    fn partitioned_backbone_blocks_co_allocation_under_a_real_model() {
        let (mut tb, mut fed) = setup();
        let (east, west) = (tb.sites()[0].id, tb.sites()[1].id);
        let req = || ResourceRequest {
            groups: vec![
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "east"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
                crate::ast::RequestGroup {
                    filter: Expr::eq("site", "west"),
                    hierarchy: vec![(crate::ast::Level::Nodes, crate::ast::Count::Exact(1))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        tb.set_link_model(ttt_testbed::LinkModelSpec::DistanceTiered);
        tb.topology_mut().set_site_link(east, west, false);
        fed.sync_backbone(&tb);
        let err = fed
            .submit("ci", Queue::Admin, JobKind::Test, req(), None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        // Under the ideal model the same partition is invisible (the
        // historical behavior): sync clears the view, the split books.
        tb.set_link_model(ttt_testbed::LinkModelSpec::Ideal);
        fed.sync_backbone(&tb);
        let job = fed
            .submit("ci", Queue::Admin, JobKind::Test, req(), None)
            .unwrap();
        assert_eq!(job.parts().count(), 2);
    }

    #[test]
    fn zero_node_request_places_nowhere() {
        // Regression: `place(None, cluster='gamma'/nodes=0)` answered
        // `Immediate(0)` — on east, which does not own gamma — and the job
        // ran there holding no node.
        let (_tb, mut fed) = setup();
        let req = nodes_req(Expr::eq("cluster", "gamma"), 0, 1);
        assert_eq!(fed.place(None, &req), Placement::Nowhere);
        assert!(!fed.can_start_now("west", &req));
        let err = fed
            .submit("x", Queue::Default, JobKind::User, req, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        assert_eq!(fed.all_jobs().count(), 0);
    }

    #[test]
    fn unplaceable_hierarchy_places_nowhere() {
        // Regression: each site has two clusters, so `cluster=3/…` can start
        // at no instant on either — yet it answered `Queued(0)` and booked
        // a job that waited forever.
        let (_tb, mut fed) = setup();
        let req = ResourceRequest {
            groups: vec![crate::ast::RequestGroup {
                filter: Expr::True,
                hierarchy: vec![
                    (crate::ast::Level::Cluster, crate::ast::Count::Exact(3)),
                    (crate::ast::Level::Nodes, crate::ast::Count::Exact(2)),
                ],
            }],
            walltime: SimDuration::from_hours(1),
        };
        assert_eq!(fed.place(None, &req), Placement::Nowhere);
        let err = fed
            .submit("x", Queue::Default, JobKind::User, req, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        assert_eq!(fed.all_jobs().count(), 0);
    }

    #[test]
    fn out_of_range_home_means_no_home_under_a_real_model() {
        // Regression: with a backbone view installed, `place(Some(999), …)`
        // indexed the reachability matrix out of bounds.
        let (mut tb, mut fed) = setup();
        tb.set_link_model(ttt_testbed::LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.0,
        });
        fed.sync_backbone(&tb);
        let req = nodes_req(Expr::True, 2, 1);
        assert_eq!(fed.place(Some(999), &req), fed.place(None, &req));
        assert_eq!(fed.place(Some(999), &req), Placement::Immediate(0));
        let job = fed
            .submit("x", Queue::Default, JobKind::User, req, Some(999))
            .unwrap();
        assert_eq!(job.primary_domain(), 0);
        // No home, so nothing was placed *off* its home.
        assert_eq!(fed.spillovers(), 0);
    }

    #[test]
    fn probe_agrees_with_placement() {
        let (_tb, mut fed) = setup();
        let req = nodes_req(Expr::eq("cluster", "alpha"), 4, 1);
        assert!(fed.can_start_now("east", &req));
        fed.submit(
            "hog",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "alpha"), 4, 10),
            None,
        )
        .unwrap();
        assert!(!fed.can_start_now("east", &req));
        // Site-agnostic work still reports availability via spillover.
        assert!(fed.can_start_now("east", &nodes_req(Expr::True, 2, 1)));
    }

    #[test]
    fn a_placed_request_of_several_groups_is_still_admitted_by_plan() {
        // `cluster=1/nodes=4` then one alpha node. With one alpha node
        // busy, the greedy walk starts it now: beta for the first group, a
        // free alpha node for the second. With nothing reserved the first
        // group takes all of alpha and the second finds nothing. So nodes
        // found now prove nothing for several groups: it is refused, as
        // planning it again on the domain refuses it.
        let (_tb, mut fed) = setup();
        let hog = nodes_req(Expr::eq("cluster", "alpha"), 1, 10);
        fed.submit("hog", Queue::Default, JobKind::User, hog, None).unwrap();
        let req = crate::parse_request(
            "cluster=1/nodes=4+{cluster='alpha'}/nodes=1,walltime=1",
            SimDuration::from_hours(1),
        )
        .unwrap();
        assert!(fed.can_start_now("east", &req));
        assert_eq!(fed.place(None, &req), Placement::Immediate(0));
        assert!(!fed.domain(0).oar.can_satisfy(&req));
        let err = fed
            .submit("ci", Queue::Admin, JobKind::Test, req, None)
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        assert_eq!(fed.all_jobs().count(), 1, "only the hog was booked");
    }

    #[test]
    fn a_servers_handle_has_no_home_and_follows_its_bookings() {
        let (tb, _) = setup();
        let mut server = OarServer::new(&tb, &describe(&tb, 1, SimTime::ZERO));
        let hour = SimDuration::from_hours(1);
        let alpha = ResourceRequest::all_nodes(Expr::eq("cluster", "alpha"), hour);
        let handle = server.resolve_for("east", &alpha);
        assert_eq!(handle.home(), None);
        assert!(server.can_start_resolved(&alpha, &handle));
        let one = nodes_req(Expr::eq("cluster", "alpha"), 1, 1);
        server.submit("u", Queue::Default, JobKind::User, one).unwrap();
        assert!(!server.can_start_resolved(&alpha, &handle));
        assert!(!server.can_start_now("east", &alpha));
    }

    /// A handle is valid only with the database that made it: debug
    /// builds refuse one from another federation's.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a handle resolved against another database")]
    fn a_handle_from_another_database_is_refused() {
        let (tb, made) = setup();
        let asked = Federation::new(&tb, &describe(&tb, 1, SimTime::ZERO));
        let request = nodes_req(Expr::eq("cluster", "alpha"), 1, 1);
        asked.can_start_resolved(&request, &made.resolve(&request, None));
    }

    #[test]
    fn advancing_backwards_is_ignored() {
        // Regression: `advance` to an earlier instant panicked.
        let (_tb, mut fed) = setup();
        let job = fed
            .submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 3), None)
            .unwrap();
        fed.advance(SimTime::from_hours(2));
        fed.advance(SimTime::from_hours(1));
        assert_eq!(fed.now(), SimTime::from_hours(2));
        let oar = &mut fed.domains[job.primary_domain()].oar;
        oar.advance(SimTime::from_hours(1));
        assert_eq!(oar.now(), SimTime::from_hours(2));
        assert_eq!(fed.job_state(&job), FedJobState::Running);
        assert_eq!(fed.next_event_time(), Some(SimTime::from_hours(3)));
    }
}

/// Booking what placement found is unobservable: random worlds drive a
/// federation through [`Federation::submit`] and a twin through the
/// place-then-plan-again path it replaced, and after every operation the
/// two must agree on every result, job and per-domain counter, with no
/// waiting job that its domain could start. Before each submission the
/// availability probe must give placement's immediate answer.
#[cfg(test)]
mod twin {
    use super::*;
    use crate::ast::{Count, Expr, Level, RequestGroup};
    use rand::Rng;
    use ttt_refapi::describe;
    use ttt_sim::rng::stream_rng;
    use ttt_sim::SimDuration;
    use ttt_testbed::gen::grid_specs;
    use ttt_testbed::{FaultKind, FaultTarget, LinkModelSpec, TestbedBuilder};

    /// `Federation::submit` as it was: place, then let the chosen
    /// domain plan the request again through `OarServer::submit`.
    fn submit_planning_twice(
        fed: &mut Federation,
        kind: JobKind,
        request: ResourceRequest,
        home: Option<usize>,
    ) -> Result<FedJob, SubmitError> {
        fed.submit_attempts += 1;
        if fed.buggify.fire_hashed("fed-submit", fed.submit_attempts) {
            return Err(SubmitError::TransientlyRefused);
        }
        let home = home
            .filter(|&h| h < fed.domains.len())
            .or_else(|| fed.home_of_request(&request));
        match fed.place(home, &request) {
            Placement::Immediate(d) | Placement::Queued(d) => {
                if home.is_some_and(|h| h != d) {
                    fed.spillovers += 1;
                    fed.spillovers_in[d] += 1;
                }
                let id = fed.domains[d].oar.submit("u", Queue::Default, kind, request)?;
                Ok(FedJob::one(d, id))
            }
            Placement::Split(parts) => {
                let mut out = Vec::new();
                for (d, part) in parts {
                    match fed.domains[d].oar.submit("u", Queue::Default, kind, part) {
                        Ok(id) => out.push((d, id)),
                        Err(e) => {
                            for &(pd, pid) in &out {
                                fed.domains[pd].oar.cancel(pid);
                            }
                            return Err(e);
                        }
                    }
                }
                fed.co_allocations += 1;
                Ok(FedJob::split(out))
            }
            Placement::Nowhere => Err(SubmitError::Unsatisfiable),
        }
    }

    fn nodes(filter: Expr, n: u32) -> RequestGroup {
        RequestGroup {
            filter,
            hierarchy: vec![(Level::Nodes, Count::Exact(n))],
        }
    }

    /// Site-agnostic, cluster-pinned (some count or all), site-pinned,
    /// two-cluster, cross-site and one-cluster-plus-a-pinned-node requests,
    /// with the odd zero count or zero walltime. The last kind is one a
    /// greedy planner can start now yet not place with nothing reserved:
    /// the first group skips a cluster with a busy node, which leaves that
    /// cluster to the second group.
    fn draw_request(rng: &mut impl Rng, tb: &Testbed) -> ResourceRequest {
        // Some beyond the 7-day planning horizon, so queues form.
        let walltime = match rng.gen_range(0..40) {
            0 => SimDuration::ZERO,
            1..=4 => SimDuration::from_days(rng.gen_range(5..12)),
            _ => SimDuration::from_mins(rng.gen_range(10..900)),
        };
        let site = |i: usize| Expr::eq("site", &tb.sites()[i].name);
        let cluster = |i: usize| Expr::eq("cluster", &tb.clusters()[i].name);
        let (sites, clusters) = (tb.sites().len(), tb.clusters().len());
        let groups = match rng.gen_range(0..8) {
            0 | 1 => vec![nodes(Expr::True, rng.gen_range(0..=12))],
            2 => vec![nodes(cluster(rng.gen_range(0..clusters)), rng.gen_range(1..=5))],
            3 => vec![RequestGroup {
                filter: cluster(rng.gen_range(0..clusters)),
                hierarchy: vec![(Level::Nodes, Count::All)],
            }],
            4 => vec![nodes(site(rng.gen_range(0..sites)), rng.gen_range(1..=6))],
            5 => vec![RequestGroup {
                filter: Expr::True,
                hierarchy: vec![(Level::Cluster, Count::Exact(2)), (Level::Nodes, Count::Exact(2))],
            }],
            6 => vec![
                nodes(site(rng.gen_range(0..sites)), rng.gen_range(1..=2)),
                nodes(site(rng.gen_range(0..sites)), 1),
            ],
            _ => vec![
                RequestGroup {
                    filter: Expr::True,
                    hierarchy: vec![
                        (Level::Cluster, Count::Exact(1)),
                        (Level::Nodes, Count::Exact(rng.gen_range(3..=4))),
                    ],
                },
                nodes(cluster(rng.gen_range(0..clusters)), 1),
            ],
        };
        ResourceRequest { groups, walltime }
    }

    /// The models the twin switches between. The lossy `Uniform` cuts every
    /// cross-site pair where the others keep them all, so a view that
    /// missed a model switch under unchanged links diverges.
    const MODELS: [LinkModelSpec; 4] = [
        LinkModelSpec::Ideal,
        LinkModelSpec::Uniform {
            latency_s: 0.01,
            loss_prob: 0.0,
        },
        LinkModelSpec::Uniform {
            latency_s: 0.05,
            loss_prob: 0.6,
        },
        LinkModelSpec::DistanceTiered,
    ];

    fn assert_twins(a: &Federation, b: &Federation, tb: &Testbed, step: &str) {
        assert!(a.all_jobs().eq(b.all_jobs()), "{step}: job tables differ");
        assert_eq!(a.backbone_divergence(tb), None, "{step}");
        assert_eq!(b.backbone_divergence(tb), None, "{step}");
        assert_eq!(
            (a.now, a.spillovers, &a.spillovers_in, a.co_allocations),
            (b.now, b.spillovers, &b.spillovers_in, b.co_allocations),
            "{step}"
        );
        assert_eq!(a.next_event_time(), b.next_event_time(), "{step}");
        for (da, db) in a.domains.iter().zip(&b.domains) {
            let (x, y) = (&da.oar, &db.oar);
            assert_eq!(x.next_event_time(), y.next_event_time(), "{step}: {}", da.name);
            assert_eq!(x.busy_nodes(), y.busy_nodes(), "{step}: {}", da.name);
            assert_eq!(x.waiting_count(), y.waiting_count(), "{step}: {}", da.name);
            assert_eq!(x.check_consistency(), Ok(()), "{step}");
            assert_eq!(y.check_consistency(), Ok(()), "{step}");
            assert_eq!(x.startable_waiting(), None, "{step}: {} is wedged", da.name);
            assert_eq!(y.startable_waiting(), None, "{step}: {} is wedged", da.name);
        }
    }

    #[test]
    fn booking_placement_equals_planning_twice() {
        // Outcomes seen across all worlds, so the worlds provably reach
        // both booking paths and the chaos arms.
        let (mut started, mut pending, mut refused, mut models) = (0, 0, 0, 0);
        for world in 0..40u64 {
            let mut rng = stream_rng(world, "fed-twin");
            let sites = rng.gen_range(2..=5);
            let mut tb = TestbedBuilder::from_specs(grid_specs(sites, 2, 4)).build();
            if rng.gen_bool(0.5) {
                tb.set_link_model(LinkModelSpec::Uniform {
                    latency_s: 0.01,
                    loss_prob: 0.0,
                });
            }
            let desc = describe(&tb, 1, SimTime::ZERO);
            let (mut a, mut b) = (Federation::new(&tb, &desc), Federation::new(&tb, &desc));
            for fed in [&mut a, &mut b] {
                fed.set_buggify(Buggify::new(world, 0.3));
            }
            let mut jobs: Vec<FedJob> = Vec::new();
            for step in 0..200 {
                let step = format!("world {world} step {step}");
                match rng.gen_range(0..20) {
                    0..=8 => {
                        let request = draw_request(&mut rng, &tb);
                        let home = rng.gen_bool(0.3).then(|| rng.gen_range(0..=tb.sites().len()));
                        let kind = if rng.gen_bool(0.5) { JobKind::User } else { JobKind::Test };
                        // The probe is placement's immediate answer.
                        let site = home.and_then(|h| tb.sites().get(h)).map_or("", |s| &s.name);
                        let placed = b.place(home, &request);
                        let now = matches!(placed, Placement::Immediate(_) | Placement::Split(_));
                        assert_eq!(a.can_start_now(site, &request), now, "{step}");
                        let got = a.submit("u", Queue::Default, kind, request.clone(), home);
                        let want = submit_planning_twice(&mut b, kind, request, home);
                        assert_eq!(got, want, "{step}");
                        match got {
                            Ok(job) if a.job_state(&job) == FedJobState::Running => {
                                started += 1;
                                jobs.push(job);
                            }
                            Ok(job) => {
                                pending += 1;
                                jobs.push(job);
                            }
                            Err(SubmitError::TransientlyRefused) => refused += 1,
                            Err(_) => {}
                        }
                    }
                    9..=12 => {
                        // Forward mostly; now and then to the same instant
                        // or backwards, which must change nothing.
                        let to = a.now() + SimDuration::from_mins(rng.gen_range(0..300));
                        let to = if rng.gen_bool(0.1) { SimTime::ZERO } else { to };
                        a.advance(to);
                        b.advance(to);
                    }
                    13 | 14 if !jobs.is_empty() => {
                        let job = &jobs[rng.gen_range(0..jobs.len())];
                        if rng.gen_bool(0.5) {
                            assert_eq!(a.cancel(job), b.cancel(job), "{step}");
                        } else {
                            assert_eq!(a.complete_early(job), b.complete_early(job), "{step}");
                        }
                    }
                    15 | 16 => fault_step(&mut rng, &mut tb, [&mut a, &mut b]),
                    _ => models += usize::from(link_step(&mut rng, &mut tb, [&mut a, &mut b])),
                }
                assert_twins(&a, &b, &tb, &step);
            }
        }
        assert!(started > 100 && pending > 100 && refused > 100, "{started} {pending} {refused}");
        assert!(models > 100, "{models} model switches");
    }

    /// A node dies or a site blacks out or its OAR process crashes, or
    /// one of those is repaired; both twins sync.
    fn fault_step(rng: &mut impl Rng, tb: &mut Testbed, twins: [&mut Federation; 2]) {
        let site = tb.sites()[rng.gen_range(0..tb.sites().len())].id;
        let node = tb.nodes()[rng.gen_range(0..tb.nodes().len())].id;
        let (kind, target) = match rng.gen_range(0..4) {
            0 => (FaultKind::SitePowerOutage, FaultTarget::Site(site)),
            1 => (FaultKind::ServiceCrash, FaultTarget::Service(site, ServiceKind::OarServer)),
            _ => (FaultKind::NodeDead, FaultTarget::Node(node)),
        };
        let active = tb.active_faults();
        if rng.gen_bool(0.6) || active.is_empty() {
            tb.apply_fault(kind, target, twins[0].now());
        } else {
            let id = active[rng.gen_range(0..active.len())].id;
            tb.repair(id);
        }
        let dirty = tb.take_alive_dirty();
        for fed in twins {
            fed.sync_dirty_nodes(tb, &dirty);
            fed.sync_process_liveness(tb);
        }
    }

    /// A link flips, or the model changes under the same links (returns
    /// true then): both twins' views must follow either.
    fn link_step(rng: &mut impl Rng, tb: &mut Testbed, twins: [&mut Federation; 2]) -> bool {
        let switched = rng.gen_bool(0.3);
        if switched {
            tb.set_link_model(MODELS[rng.gen_range(0..MODELS.len())]);
        } else {
            let x = tb.sites()[rng.gen_range(0..tb.sites().len())].id;
            let y = tb.sites()[rng.gen_range(0..tb.sites().len())].id;
            tb.topology_mut().set_site_link(x, y, rng.gen_bool(0.5));
        }
        for fed in twins {
            fed.sync_backbone(tb);
        }
        switched
    }

    /// A request resolved once answers as one placed afresh: random worlds
    /// keep a pool of requests, each resolved into a handle at its first
    /// probe or first submission — as a campaign does for a test row — and
    /// asked and submitted with that handle ever after, through bookings,
    /// early ends, cancellations, deaths, repairs, site outages, crashed
    /// OAR processes, partitions and link-model switches. Its twin asks
    /// `place` (the probe's answer is its immediate one) and submits
    /// through place-then-plan-again, resolving every time. Pinned requests
    /// are homed where they are pinned, others on a drawn site or none; a
    /// probe names the site, a submission the domain, as the scheduler and
    /// the campaign do.
    #[test]
    fn a_kept_handle_answers_as_placing_afresh() {
        let (mut yes, mut no, mut split, mut crashed) = (0, 0, 0, 0);
        let (mut started, mut pending, mut refused) = (0, 0, 0);
        for world in 0..40u64 {
            let mut rng = stream_rng(world, "resolved-twin");
            let mut tb = TestbedBuilder::from_specs(grid_specs(rng.gen_range(2..=4), 2, 4)).build();
            let desc = describe(&tb, 1, SimTime::ZERO);
            let (mut a, mut b) = (Federation::new(&tb, &desc), Federation::new(&tb, &desc));
            for fed in [&mut a, &mut b] {
                fed.set_buggify(Buggify::new(world, 0.1));
            }
            // Every world holds a co-allocation across two of its sites.
            let sites = tb.sites().len();
            let (x, y) = (rng.gen_range(0..sites), rng.gen_range(1..sites));
            let on_site = |s: usize| nodes(Expr::eq("site", &tb.sites()[s % sites].name), 1);
            let split_of = |x: usize, y: usize| ResourceRequest {
                groups: vec![on_site(x), on_site(x + y)],
                walltime: SimDuration::from_mins(90),
            };
            let pool: Vec<(Arc<ResourceRequest>, Option<usize>, String)> = (0..12)
                .map(|k| {
                    let request = if k == 0 { split_of(x, y) } else { draw_request(&mut rng, &tb) };
                    let drawn = rng.gen_bool(0.6).then(|| rng.gen_range(0..sites));
                    let home = a.home_of_request(&request).or(drawn);
                    let site = home.map_or(String::new(), |h| a.domains[h].name.clone());
                    (Arc::new(request), home, site)
                })
                .collect();
            let mut kept: Vec<Option<Resolved>> = pool.iter().map(|_| None).collect();
            let mut jobs: Vec<FedJob> = Vec::new();
            for step in 0..250 {
                let step = format!("world {world} step {step}");
                let i = rng.gen_range(0..pool.len());
                let (request, home, site) = &pool[i];
                match rng.gen_range(0..20) {
                    0..=4 => {
                        let placed = b.place(*home, request);
                        let want = matches!(placed, Placement::Immediate(_) | Placement::Split(_));
                        let handle = kept[i].get_or_insert_with(|| a.resolve_for(site, request));
                        assert_eq!(handle.home(), *home, "{step}");
                        assert_eq!(a.can_start_resolved(request, handle), want, "{step}");
                        assert_eq!(a.can_start_now(site, request), want, "{step}");
                        if want { yes += 1 } else { no += 1 }
                        crashed += usize::from(a.domains.iter().any(|d| !d.oar.process_up()));
                    }
                    5..=9 => {
                        let handle = kept[i].get_or_insert_with(|| a.resolve(request, *home));
                        assert_eq!(handle.home(), *home, "{step}");
                        let kind = if rng.gen_bool(0.5) { JobKind::User } else { JobKind::Test };
                        let shared = Arc::clone(request);
                        let got = a.submit_resolved("u", Queue::Default, kind, shared, handle);
                        let want = submit_planning_twice(&mut b, kind, (**request).clone(), *home);
                        assert_eq!(got, want, "{step}");
                        match got {
                            Ok(job) => {
                                split += usize::from(job.parts().count() > 1);
                                match a.job_state(&job) {
                                    FedJobState::Running => started += 1,
                                    _ => pending += 1,
                                }
                                jobs.push(job);
                            }
                            Err(SubmitError::TransientlyRefused) => refused += 1,
                            Err(_) => {}
                        }
                    }
                    10..=12 => {
                        let to = a.now() + SimDuration::from_mins(rng.gen_range(0..300));
                        a.advance(to);
                        b.advance(to);
                    }
                    13 | 14 if !jobs.is_empty() => {
                        let job = &jobs[rng.gen_range(0..jobs.len())];
                        if rng.gen_bool(0.5) {
                            assert_eq!(a.cancel(job), b.cancel(job), "{step}");
                        } else {
                            assert_eq!(a.complete_early(job), b.complete_early(job), "{step}");
                        }
                    }
                    15..=17 => fault_step(&mut rng, &mut tb, [&mut a, &mut b]),
                    _ => {
                        link_step(&mut rng, &mut tb, [&mut a, &mut b]);
                    }
                }
                assert_twins(&a, &b, &tb, &step);
            }
        }
        assert!(yes > 500 && no > 1000 && crashed > 800, "{yes} startable, {no} not, {crashed}");
        assert!(started > 300 && pending > 200 && refused > 200, "{started} {pending} {refused}");
        assert!(split > 25, "{split} co-allocations");
    }
}
