//! The OAR server: submission, planning, lifecycle, status queries.
//!
//! Scheduling is FCFS with conservative backfilling over per-node
//! reservation timelines: each waiting job is planned at the earliest
//! instant where its resource request is satisfiable given existing
//! reservations, and the reservation is kept (never re-planned) so later
//! jobs can backfill around it.
//!
//! A server schedules one *part* of its [`ResourceDb`]: the whole testbed
//! when it stands alone, one site when it is a federation's domain. Node
//! states and reservations exist for that part only — the latter in one
//! [`Gantt`], the sole writer of timelines and end index alike — and every
//! planner scan walks the part's run of a cached match-set, never the node
//! arena. A waiting job is tried at now and at each reservation end of the
//! part within the horizon, in order, whichever clusters it can touch.
//!
//! Two queries matter to the paper's external test scheduler (slide 17):
//! "are this request's resources available *right now*?" and "can this
//! request *ever* run here?" — one cannot just submit a job and wait. Both
//! are the same planner, `plan`: asked about this instant, and asked with
//! reservations ignored, collecting the nodes it picks only when they are
//! to be booked. So a request the server accepts is one it can start on an
//! idle part, and one it refuses as [`SubmitError::Unsatisfiable`] is one
//! no instant could ever start.
//! However a job ends — walltime, early completion, cancellation, failure —
//! it ends in `end_job`; however one is reserved, it is booked in `book`.
//! The server keeps how many of its nodes are alive and how many running
//! jobs hold, so sampling reads two numbers and a placement probe refuses
//! a part too full for the request before it walks a node; the scans those
//! counts replace are [`OarServer::check_consistency`]'s reference.

use crate::ast::{Count, Expr, Level, RequestGroup, ResourceRequest};
use crate::eval::eval;
use crate::federation::AvailabilityProbe;
use crate::gantt::Gantt;
use crate::job::{Job, JobId, JobKind, JobState, JobTable, Queue};
// detlint: allow(no-unordered-iteration) -- the HashMap here backs the match cache only, which is never iterated
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, PoisonError, RwLock};
use ttt_refapi::{all_properties, PropertyMap, TestbedDescription};
use ttt_sim::{Buggify, EventQueue, SimDuration, SimTime};
use ttt_testbed::{ClusterId, NodeId, Testbed};

/// The stand-alone server's probe: [`OarServer::immediate_assignment`]
/// without collecting the nodes. It has no sites to choose from, so a
/// handle it resolves has no home.
impl AvailabilityProbe for OarServer {
    fn resolve_for(&self, _home_site: &str, request: &ResourceRequest) -> Resolved {
        self.db.resolve_homed(request, None)
    }

    fn can_start_resolved(&self, request: &ResourceRequest, resolved: &Resolved) -> bool {
        self.plan_now(request, resolved.sets(&self.db), &mut 0)
    }
}

/// OAR node states (slide 21's `oarstate` family checks these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Available for scheduling.
    Alive,
    /// Administratively removed (maintenance).
    Absent,
    /// Hardware dead.
    Dead,
}

/// Errors returned at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No combination of testbed resources can ever satisfy the request.
    Unsatisfiable,
    /// The request is structurally invalid (e.g. zero nodes).
    InvalidRequest(String),
    /// Transient refusal (buggify chaos): the server or gateway dropped
    /// the submission. Retrying later succeeds — callers treat it like any
    /// other failed submission (users move on, the campaign backs off).
    TransientlyRefused,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Unsatisfiable => f.write_str("request can never be satisfied"),
            SubmitError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            SubmitError::TransientlyRefused => f.write_str("submission transiently refused"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug, Clone, Copy)]
enum OarEvent {
    JobShouldStart(JobId),
    JobShouldEnd(JobId),
}

/// The immutable resource database a server (or a whole federation of
/// per-site servers) plans against: node properties from the Reference
/// API, the `ClusterId` index space, the partition of the node arena into
/// scheduling *parts*, and the per-filter match-set cache.
///
/// A part is the set of nodes one [`OarServer`] schedules. A stand-alone
/// server's database has a single part holding every node
/// ([`ResourceDb::load`]); a federation's has one part per site, and each
/// site's server keeps state for, and plans over, its own part only. Both
/// are the same code: only [`ResourceDb::part_nodes`] asks which kind of
/// database it is, to hand out a part's node list.
///
/// The database is loaded once and never mutated afterwards (the
/// *description* drifts, the DB does not — that inconsistency is the
/// paper's subject), so a federation shares one `Arc<ResourceDb>` across
/// every site's server instead of cloning 894 property maps per domain.
/// `Arc` (not `Rc`) and an `RwLock` around the match cache keep every
/// server, and so a whole campaign, `Send`: seed sweeps and the scenario
/// swarm build and run campaigns on pool workers. One campaign drives its
/// servers from a single thread, so the lock is never contended; a fill
/// computes the same value for the same filter whoever inserts it.
/// Liveness and reservations are per-server state, filtered per query.
pub struct ResourceDb {
    /// Host-name-keyed properties from the Reference API.
    props: Vec<PropertyMap>,
    /// Owning cluster per node, as its dense `ClusterId`: the planner
    /// groups a `cluster=N` request's matches by it without hashing a
    /// cluster-name string per node.
    cluster_of_node: Vec<ClusterId>,
    /// Cluster names in `ClusterId` order.
    cluster_names: Vec<String>,
    /// Cluster name → id, used once when resolving a filter's string
    /// cluster reference; everything downstream carries the `ClusterId`.
    cluster_ids: BTreeMap<String, ClusterId>,
    /// Node ids per cluster (`ClusterId`-indexed), in node order.
    nodes_of_cluster: Vec<Vec<NodeId>>,
    /// Site name → its `SiteId` index, used once when resolving a filter's
    /// string site reference.
    site_ids: BTreeMap<String, usize>,
    /// Node ids per site (`SiteId`-indexed), in node order.
    nodes_of_site: Vec<Vec<NodeId>>,
    /// All node ids, in node order (scan fallback for filters that name no
    /// known cluster or site).
    all_nodes: Vec<NodeId>,
    /// Whether part `i` is site `i` (a federation's database) rather than
    /// one part holding every node: see [`ResourceDb::part_nodes`].
    parts_are_sites: bool,
    /// Per node, its part and its slot in that part's
    /// [`ResourceDb::part_nodes`] list — the one node → slot table every
    /// server indexes its own state through. A site's node ids need not be
    /// contiguous (sites may interleave in the arena).
    slot_of_node: Vec<(u32, u32)>,
    /// Cached match-sets: filter → nodes whose properties satisfy it.
    /// Property-only (state filtered per query), hence valid across every
    /// domain sharing the database.
    // detlint: allow(no-unordered-iteration) -- lookup-only cache on the placement hot path (Expr is not Ord); never iterated, so its order cannot leak
    match_cache: RwLock<HashMap<Expr, Arc<MatchSet>>>,
}

/// The nodes whose properties satisfy one filter, grouped by part.
///
/// A server reads its own part's run; a federation reads the list of parts
/// that match at all, which is every site worth asking about the filter.
pub(crate) struct MatchSet {
    /// Matching nodes: parts ascending, node order within a part.
    nodes: Vec<NodeId>,
    /// `(part, end of its run in nodes)` for each part with at least one
    /// match, ascending. Sparse: a cluster filter has one entry however
    /// wide the federation is.
    runs: Vec<(u32, u32)>,
}

impl MatchSet {
    /// The matching nodes of `part`, in node order; empty when none match.
    fn of_part(&self, part: usize) -> &[NodeId] {
        match self.runs.binary_search_by_key(&(part as u32), |&(p, _)| p) {
            Ok(i) => {
                let start = i.checked_sub(1).map_or(0, |prev| self.runs[prev].1);
                &self.nodes[start as usize..self.runs[i].1 as usize]
            }
            Err(_) => &[],
        }
    }

    /// The parts with at least one matching node, ascending.
    pub(crate) fn parts(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().map(|&(p, _)| p as usize)
    }

    /// Whether any node of `part` matches.
    pub(crate) fn hosts(&self, part: usize) -> bool {
        !self.of_part(part).is_empty()
    }
}

/// The match-sets of a request's groups, in group order. A single group —
/// every user job and every single-cluster test — is held inline, so
/// resolving a request allocates only when it has several groups.
pub(crate) enum GroupSets {
    One(Arc<MatchSet>),
    Many(Box<[Arc<MatchSet>]>),
}

impl GroupSets {
    /// One match-set per group of the resolved request.
    pub(crate) fn as_slice(&self) -> &[Arc<MatchSet>] {
        match self {
            GroupSets::One(set) => std::slice::from_ref(set),
            GroupSets::Many(sets) => sets,
        }
    }
}

/// A request resolved once against one resource database: its groups'
/// match-sets and the home domain placement tries first. It is what
/// [`Federation::submit`](crate::Federation::submit) and
/// [`AvailabilityProbe::can_start_now`] compute on every call, kept: a
/// caller that probes or submits one unchanging request many times — the
/// campaign, once per enrolled test row — resolves it once and hands the
/// handle back with the request each time. It holds match-sets, not node
/// picks, so it never goes stale: nodes die, jobs book and end, and every
/// use plans against the state of that instant.
///
/// A handle is only valid with the request it was made from and the
/// database that made it (a federation's, which its domains share, or a
/// stand-alone server's). Debug builds assert the database.
pub struct Resolved {
    sets: GroupSets,
    /// The domain placement tries first; `None` for none, and always for a
    /// stand-alone server, which has no domains. Domains are sites, whose
    /// ids are 16 bits wide, so 32 hold any: a launch list keeps one handle
    /// per slot, and the narrower field keeps the handle at 24 bytes.
    home: Option<u32>,
    /// The address of the database that made the handle, for the check.
    #[cfg(debug_assertions)]
    db: usize,
}

impl Resolved {
    /// The match-set of each group, in group order, for use against `db`.
    pub(crate) fn sets(&self, db: &ResourceDb) -> &[Arc<MatchSet>] {
        #[cfg(debug_assertions)]
        assert_eq!(self.db, db.address(), "a handle resolved against another database");
        let _ = db; // only debug builds check it
        self.sets.as_slice()
    }

    /// The home domain placement tries first.
    pub fn home(&self) -> Option<usize> {
        self.home.map(|h| h as usize)
    }
}

impl std::fmt::Debug for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resolved")
            .field("groups", &self.sets.as_slice().len())
            .field("home", &self.home)
            .finish()
    }
}

/// Where the planner puts the nodes it picks: the nodes themselves when
/// they are to be booked, or only how many when the caller asks whether a
/// request fits. Probes and bookings run the one planner, so a probe of a
/// single group allocates nothing and cannot disagree with the booking it
/// predicts.
pub(crate) trait Picks: Default {
    /// Take `node`.
    fn pick(&mut self, node: NodeId);
    /// How many nodes were taken.
    fn picked(&self) -> usize;
    /// Give back every node taken after the first `len`.
    fn truncate(&mut self, len: usize);
    /// Take `nodes`, into an empty sink.
    fn take_all(&mut self, nodes: Vec<NodeId>);
}

impl Picks for Vec<NodeId> {
    fn pick(&mut self, node: NodeId) {
        self.push(node);
    }

    fn picked(&self) -> usize {
        self.len()
    }

    fn truncate(&mut self, len: usize) {
        Vec::truncate(self, len);
    }

    fn take_all(&mut self, nodes: Vec<NodeId>) {
        debug_assert!(self.is_empty());
        *self = nodes;
    }
}

impl Picks for usize {
    fn pick(&mut self, _: NodeId) {
        *self += 1;
    }

    fn picked(&self) -> usize {
        *self
    }

    fn truncate(&mut self, len: usize) {
        *self = len;
    }

    fn take_all(&mut self, nodes: Vec<NodeId>) {
        *self = nodes.len();
    }
}

impl ResourceDb {
    /// Load the database from a testbed and its published description, as
    /// a single part: what a stand-alone server plans over.
    pub fn load(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::load_parts(tb, desc, false)
    }

    /// Load the database with one part per site, in site order: what a
    /// federation's per-site servers share.
    pub(crate) fn load_by_site(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::load_parts(tb, desc, true)
    }

    fn load_parts(tb: &Testbed, desc: &TestbedDescription, parts_are_sites: bool) -> Self {
        let by_name = all_properties(desc);
        let mut props = Vec::with_capacity(tb.nodes().len());
        let mut cluster_of_node = Vec::with_capacity(tb.nodes().len());
        let mut nodes_of_site: Vec<Vec<NodeId>> = vec![Vec::new(); tb.sites().len()];
        let mut slot_of_node = Vec::with_capacity(tb.nodes().len());
        for node in tb.nodes() {
            props.push(by_name.get(&node.name).cloned().unwrap_or_default());
            cluster_of_node.push(node.cluster);
            let site = &mut nodes_of_site[node.site.index()];
            slot_of_node.push(if parts_are_sites {
                (node.site.index() as u32, site.len() as u32)
            } else {
                (0, node.id.index() as u32)
            });
            site.push(node.id);
        }
        // The testbed's ClusterIds are dense, so they index the per-cluster
        // tables directly — no separate interning pass.
        ResourceDb {
            props,
            cluster_of_node,
            cluster_names: tb.clusters().iter().map(|c| c.name.clone()).collect(),
            cluster_ids: tb
                .clusters()
                .iter()
                .map(|c| (c.name.clone(), c.id))
                .collect(),
            nodes_of_cluster: tb.clusters().iter().map(|c| c.nodes.clone()).collect(),
            site_ids: tb.sites().iter().map(|s| (s.name.clone(), s.id.index())).collect(),
            nodes_of_site,
            all_nodes: (0..tb.nodes().len()).map(NodeId::from).collect(),
            parts_are_sites,
            slot_of_node,
            // detlint: allow(no-unordered-iteration) -- see the field: lookup-only cache, never iterated
            match_cache: RwLock::new(HashMap::new()),
        }
    }

    /// The nodes of `part`, in node order: a server's slot → node table.
    pub(crate) fn part_nodes(&self, part: usize) -> &[NodeId] {
        if self.parts_are_sites {
            &self.nodes_of_site[part]
        } else {
            &self.all_nodes
        }
    }

    /// The address that tells this database from any other alive.
    #[cfg(debug_assertions)]
    fn address(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Resolve `request` into a handle with `home` as its home domain.
    pub(crate) fn resolve_homed(&self, request: &ResourceRequest, home: Option<usize>) -> Resolved {
        Resolved {
            sets: self.resolve(request),
            home: home.map(|h| h as u32),
            #[cfg(debug_assertions)]
            db: self.address(),
        }
    }

    /// The slot of `node` in the state arrays of `part`'s server, for a
    /// node the caller knows to be that part's: it came out of the part's
    /// run of a match-set, or off one of its jobs.
    fn slot(&self, part: usize, node: NodeId) -> usize {
        let (p, slot) = self.slot_of_node[node.index()];
        debug_assert_eq!(p as usize, part, "{node} is not scheduled by part {part}");
        slot as usize
    }

    /// The slot of `node` if it belongs to `part` (and to the database at
    /// all): the checked form for node ids that arrive from outside.
    fn slot_in(&self, part: usize, node: NodeId) -> Option<usize> {
        let &(p, slot) = self.slot_of_node.get(node.index())?;
        (p as usize == part).then_some(slot as usize)
    }

    /// The match-set of every group of `request`, in group order.
    pub(crate) fn resolve(&self, request: &ResourceRequest) -> GroupSets {
        match request.groups.as_slice() {
            [group] => GroupSets::One(self.matching_nodes(&group.filter)),
            groups => GroupSets::Many(
                groups
                    .iter()
                    .map(|g| self.matching_nodes(&g.filter))
                    .collect(),
            ),
        }
    }

    /// The nodes whose (immutable) properties satisfy `filter`, cached
    /// per distinct filter: the first query pays one scan + eval pass,
    /// every later query is a hash lookup. A poisoned lock is recovered:
    /// the cache is lookup-only and consistent at every unlock.
    fn matching_nodes(&self, filter: &Expr) -> Arc<MatchSet> {
        if let Some(hit) = self
            .match_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(filter)
        {
            return Arc::clone(hit);
        }
        let mut nodes: Vec<NodeId> = self
            .scan_range(filter)
            .iter()
            .copied()
            .filter(|n| eval(filter, &self.props[n.index()]))
            .collect();
        let part_of = |n: &NodeId| self.slot_of_node[n.index()].0;
        // Stable, so node order survives inside each part even when the
        // arena interleaves sites.
        nodes.sort_by_key(part_of);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            let end = i as u32 + 1;
            match runs.last_mut() {
                Some(run) if run.0 == part_of(n) => run.1 = end,
                _ => runs.push((part_of(n), end)),
            }
        }
        let set = Arc::new(MatchSet { nodes, runs });
        self.match_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(filter.clone(), Arc::clone(&set));
        set
    }

    /// The node ids a filter can possibly match, in node order: its
    /// implied cluster's nodes, else its implied site's, else every node.
    /// A filter implies a value only by an equality that every match must
    /// satisfy (see [`Expr::implied_eq`]), and a node's `cluster` and `site`
    /// properties name the cluster and site it is loaded under, so each
    /// list holds every node the full scan would keep, in the same order.
    fn scan_range(&self, filter: &Expr) -> &[NodeId] {
        let cluster = filter.implied_cluster().and_then(|name| self.cluster_ids.get(name));
        if let Some(&c) = cluster {
            return &self.nodes_of_cluster[c.index()];
        }
        match filter.implied_eq("site").and_then(|name| self.site_ids.get(name)) {
            Some(&s) => &self.nodes_of_site[s],
            None => &self.all_nodes,
        }
    }
}

/// The OAR server.
pub struct OarServer {
    /// The shared immutable resource database.
    db: Arc<ResourceDb>,
    /// The part of the database this server schedules. Nodes of any other
    /// part do not exist for it: no state, no timeline, never a candidate.
    part: usize,
    /// State and reservations of this part's nodes, indexed by slot (see
    /// `ResourceDb::slot_of_node`).
    node_states: Vec<NodeState>,
    /// How many of `node_states` are `Alive`. Only the two state writes in
    /// `sync_nodes_inner` move it.
    alive: usize,
    /// How many nodes `Running` jobs hold: what `start_job` adds and
    /// `end_job` takes back, however the job ends. Every such node is
    /// alive (a start checks it, a death ends the job), and it is exactly
    /// the nodes with a reservation active now.
    busy: usize,
    gantt: Gantt,
    /// Candidate start instants, rebuilt for each job a pass plans and
    /// kept across passes, so listing them allocates nothing once grown.
    candidates: Vec<SimTime>,
    /// Every job ever submitted, by id.
    jobs: JobTable,
    /// Every owner any job was submitted by: each name is written once and
    /// shared by all of its jobs.
    users: BTreeSet<Arc<str>>,
    /// Jobs in `Waiting` state, FCFS order, and stale entries: a job that
    /// ends while queued stays in the deque until a pass skips it, so no
    /// O(n) `retain` runs per job. An entry is live exactly when its job's
    /// state is `Waiting`.
    waiting: VecDeque<JobId>,
    /// How many jobs are `Waiting`: the live entries of `waiting`. A
    /// submission that queues its job adds one; a pass booking a queued
    /// job, or the job ending while queued, takes it back.
    queued: usize,
    /// Scratch deque reused by scheduling passes.
    waiting_scratch: VecDeque<JobId>,
    next_job: u64,
    /// Low-water mark of [`OarServer::live_jobs`]: every job with a smaller
    /// id is final. Ids are dense from 1 and only `end_job` makes a job
    /// final, so it alone advances the mark, over each job at most once.
    first_live: u64,
    events: EventQueue<OarEvent>,
    now: SimTime,
    /// Planning horizon: jobs not placeable within this window stay Waiting.
    horizon: SimDuration,
    /// Last instant up to which horizon-entry re-planning was checked.
    last_replan_check: SimTime,
    /// Whether this server's OAR *process* is accepting calls. A crashed
    /// process refuses submissions and placement probes, but the nodes
    /// underneath stay alive — deliberately distinct from a site blackout,
    /// where `alive_nodes()` drops to zero.
    process_up: bool,
    /// Chaos hook: when armed, a submission can be transiently refused.
    /// Off by default; rate 0 keeps unarmed campaigns byte-identical.
    buggify: Buggify,
    /// Monotone count of submission attempts — the rng-free buggify salt.
    /// A refused submission retried later draws a fresh salt, so chaos
    /// delays work but can never starve it.
    submit_attempts: u64,
}

impl OarServer {
    /// Build a server for a testbed, loading properties from the Reference
    /// API description (slide 7: "OAR database filled from Reference API").
    pub fn new(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::with_db(Arc::new(ResourceDb::load(tb, desc)))
    }

    /// Build a server over an already-loaded resource database: it
    /// schedules the database's first part, which for a database from
    /// [`ResourceDb::load`] is the whole testbed.
    pub fn with_db(db: Arc<ResourceDb>) -> Self {
        Self::over_part(db, 0)
    }

    /// Build the server of one part of a shared resource database — what
    /// a federation does once per site.
    pub(crate) fn over_part(db: Arc<ResourceDb>, part: usize) -> Self {
        let nodes = db.part_nodes(part).len();
        OarServer {
            node_states: vec![NodeState::Alive; nodes],
            alive: nodes,
            busy: 0,
            gantt: Gantt::new(nodes),
            candidates: Vec::new(),
            db,
            part,
            jobs: JobTable::default(),
            users: BTreeSet::new(),
            waiting: VecDeque::new(),
            queued: 0,
            waiting_scratch: VecDeque::new(),
            next_job: 1,
            first_live: 1,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimDuration::from_days(7),
            last_replan_check: SimTime::ZERO,
            process_up: true,
            buggify: Buggify::off(),
            submit_attempts: 0,
        }
    }

    /// Arm (or disarm) the submission chaos hook. The campaign driver
    /// fans this out to every domain's server at construction.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Whether the OAR server process itself is up (accepting calls).
    pub fn process_up(&self) -> bool {
        self.process_up
    }

    /// Flip the server-process liveness flag. Already-booked reservations
    /// and running jobs keep progressing — only *new* interactions
    /// (submission, placement probes) are refused while down, matching a
    /// daemon crash that leaves the resource state on disk intact.
    pub fn set_process_up(&mut self, up: bool) {
        self.process_up = up;
    }

    /// Current virtual time of the server.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// All jobs ever submitted, by id.
    pub fn jobs(&self) -> &JobTable {
        &self.jobs
    }

    /// The part's reservation chart: the reservations of its scheduled
    /// and running jobs.
    pub fn gantt(&self) -> &Gantt {
        &self.gantt
    }

    /// The jobs not yet in a final state, in id order, without walking the
    /// finished past: what `oarstat` lists.
    pub fn live_jobs(&self) -> impl Iterator<Item = &Job> {
        let from = self.jobs.iter_from(JobId(self.first_live));
        from.filter(|job| !job.state.is_final())
    }

    /// One job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id)
    }

    /// The nodes this server schedules, in node order.
    pub(crate) fn own_nodes(&self) -> &[NodeId] {
        self.db.part_nodes(self.part)
    }

    /// The resource-database properties of one node (as loaded from the
    /// Reference API). The `oarproperties` test family audits these.
    pub fn properties(&self, node: NodeId) -> &PropertyMap {
        &self.db.props[node.index()]
    }

    /// Per-node state. A node this server does not schedule (another
    /// site's, in a federation) is `Absent` by definition.
    pub fn node_state(&self, node: NodeId) -> NodeState {
        match self.db.slot_in(self.part, node) {
            Some(slot) => self.node_states[slot],
            None => NodeState::Absent,
        }
    }

    /// Synchronize node states with testbed reality: dead hardware becomes
    /// `Dead`, previously-dead-now-repaired hardware returns to `Alive`.
    /// Running jobs on newly dead nodes fail.
    ///
    /// Scans every node this server schedules; orchestrators that track
    /// which nodes flipped should call [`OarServer::sync_dirty_nodes`] with
    /// the testbed's alive-dirty set instead.
    pub fn sync_node_states(&mut self, tb: &Testbed) {
        let db = Arc::clone(&self.db);
        self.sync_nodes_inner(tb, db.part_nodes(self.part));
        self.schedule();
    }

    /// Diff-based sync: reconcile only `dirty` (nodes whose alive flag
    /// flipped since the last sync, from [`Testbed::take_alive_dirty`]).
    /// Nodes this server does not schedule are skipped, and with none of
    /// its own in `dirty` the call is a no-op — not even a scheduling pass.
    pub fn sync_dirty_nodes(&mut self, tb: &Testbed, dirty: &[NodeId]) {
        if self.sync_nodes_inner(tb, dirty) {
            self.schedule();
        }
    }

    /// Reconcile the nodes of `nodes` that are this server's; returns
    /// whether there were any.
    fn sync_nodes_inner(&mut self, tb: &Testbed, nodes: &[NodeId]) -> bool {
        let mut any = false;
        let mut to_fail = Vec::new();
        for &id in nodes {
            let Some(slot) = self.db.slot_in(self.part, id) else { continue };
            any = true;
            // Effective reachability: hardware death and site power
            // outages are indistinguishable from the server's viewpoint.
            let alive = tb.node_alive(id);
            match (alive, self.node_states[slot]) {
                (false, NodeState::Dead) => {}
                (false, was) => {
                    if was == NodeState::Alive {
                        self.alive = self.alive.saturating_sub(1);
                    }
                    self.node_states[slot] = NodeState::Dead;
                    if let Some(r) = self.gantt.timeline(slot).active_at(self.now) {
                        to_fail.push(r.job);
                    }
                }
                (true, NodeState::Dead) => {
                    self.node_states[slot] = NodeState::Alive;
                    self.alive = self.alive.saturating_add(1);
                }
                (true, _) => {}
            }
        }
        // No pass in between: the caller plans once, over everything freed.
        for job in to_fail {
            self.end_job(job, JobState::Error);
        }
        any
    }

    /// Number of nodes busy (held by a running job) right now. O(1): a
    /// kept count.
    pub fn busy_nodes(&self) -> usize {
        self.busy
    }

    /// Number of nodes currently in the `Alive` state. O(1): a kept count.
    pub fn alive_nodes(&self) -> usize {
        self.alive
    }

    /// Fraction of alive nodes currently busy.
    pub fn utilization(&self) -> f64 {
        if self.alive == 0 {
            0.0
        } else {
            self.busy as f64 / self.alive as f64
        }
    }

    /// Number of jobs currently waiting — the queue-depth view a campaign
    /// snapshot captures. O(1): a kept count, while the deque may carry
    /// stale entries.
    pub fn waiting_count(&self) -> usize {
        self.queued
    }

    /// The next instant at which this server's state can change on its own:
    /// the earliest pending job start/end event, or the instant a
    /// beyond-horizon reservation end slides into the planning window and
    /// re-planning of waiting jobs becomes worthwhile. `None` when nothing
    /// is pending — an event-driven orchestrator can skip ahead freely.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let replan = if self.queued == 0 {
            None
        } else {
            // End `e` enters the horizon at `e - horizon`.
            self.gantt
                .ends()
                .first_beyond(self.last_replan_check + self.horizon)
                .map(|e| e - self.horizon)
        };
        match (self.events.peek_time(), replan) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Submit a job. It will be planned at the next scheduling pass (which
    /// runs immediately). The job shares `request`: a caller that submits
    /// one request many times builds it once and passes clones of its `Arc`.
    // detlint: allow(unarmed-service-fn) -- submit_placed() holds this path's oar-submit arm
    pub fn submit(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: impl Into<Arc<ResourceRequest>>,
    ) -> Result<JobId, SubmitError> {
        let request = request.into();
        let sets = self.db.resolve(&request);
        self.submit_placed(user, queue, kind, request, sets.as_slice(), None)
    }

    /// [`OarServer::submit`] of a request the caller already resolved into
    /// `sets`, given the assignment `placed` that the planner found for it
    /// at this very instant, if any: a federation places a request first
    /// and books what placement found rather than planning it twice. The
    /// outcome is `submit`'s either way: the same chaos draw and the same
    /// admission verdict come first. With a job already waiting, the full
    /// pass runs, because FCFS plans that job first. Otherwise the pass
    /// would plan this job alone, and `now` is its first candidate instant,
    /// so it books `placed`.
    pub(crate) fn submit_placed(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: Arc<ResourceRequest>,
        sets: &[Arc<MatchSet>],
        placed: Option<Vec<NodeId>>,
    ) -> Result<JobId, SubmitError> {
        // Buggify: the server transiently refuses a submission (dropped
        // RPC, briefly saturated daemon). Hashed from a monotone attempt
        // counter — no RNG draw, identical across engines, and a retry
        // gets a fresh salt. User arrivals count it as a rejection; the
        // campaign's test path marks the build unstable and backs off.
        self.submit_attempts += 1;
        if self.buggify.fire_hashed("oar-submit", self.submit_attempts) {
            return Err(SubmitError::TransientlyRefused);
        }
        self.admit(&request, sets, placed.is_some())?;
        let id = JobId(self.next_job);
        self.next_job += 1;
        let user = self.intern(user);
        self.jobs.push(Job {
            id,
            user,
            queue,
            kind,
            request,
            state: JobState::Waiting,
            submitted_at: self.now,
            scheduled_start: None,
            started_at: None,
            ended_at: None,
            assigned: Vec::new(),
        });
        match placed.filter(|_| self.queued == 0) {
            Some(assignment) => self.book(id, self.now, assignment),
            None => {
                self.waiting.push_back(id);
                self.queued += 1;
                self.schedule();
            }
        }
        Ok(id)
    }

    /// The server's one copy of the owner name `user`, made on its first
    /// submission.
    fn intern(&mut self, user: &str) -> Arc<str> {
        if let Some(held) = self.users.get(user) {
            return Arc::clone(held);
        }
        let held: Arc<str> = user.into();
        self.users.insert(Arc::clone(&held));
        held
    }

    /// Would `request` start immediately if submitted right now? Returns the
    /// assignment without booking anything. The external test scheduler's
    /// availability check is the same plan without the nodes
    /// ([`AvailabilityProbe::can_start_now`]).
    pub fn immediate_assignment(&self, request: &ResourceRequest) -> Option<Vec<NodeId>> {
        let mut nodes = Vec::new();
        let sets = self.db.resolve(request);
        self.plan_now(request, sets.as_slice(), &mut nodes).then_some(nodes)
    }

    /// Whether this server's resources can *ever* satisfy `request`: whether
    /// [`OarServer::immediate_assignment`] would find room for it on this
    /// server's alive nodes if none of them were reserved.
    // detlint: allow(pub-fn-only-tests-call) -- the satisfiability oracle in tests/oar_scheduler_props.rs
    pub fn can_satisfy(&self, request: &ResourceRequest) -> bool {
        self.can_queue(request, self.db.resolve(request).as_slice())
    }

    /// Whether `request`, resolved into `sets`, can start at this instant,
    /// with what the planner picks put in `out`: the nodes, or only their
    /// number. A federation resolves a request once and asks several
    /// domains; a probe asks without collecting a node.
    ///
    /// The planner picks only alive nodes free over a window starting now,
    /// and a node busy now is free over no such window, so a part with
    /// fewer idle alive nodes than the fewest the request can take cannot
    /// start it: that part is refused before a node is walked.
    pub(crate) fn plan_now(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
        out: &mut impl Picks,
    ) -> bool {
        let fewest = request.groups.iter().map(fewest_nodes).fold(0, usize::saturating_add);
        self.alive.saturating_sub(self.busy) >= fewest
            && self.plan(request, sets, Some(self.now), out)
    }

    /// [`OarServer::can_satisfy`] over already-resolved match-sets; decides
    /// which scheduling domain a request may queue on.
    pub(crate) fn can_queue(&self, request: &ResourceRequest, sets: &[Arc<MatchSet>]) -> bool {
        self.admit(request, sets, false).is_ok()
    }

    /// The first job still `Waiting`, in queue order, that the planner
    /// could start at this very instant on this server while its process
    /// is up. `None` whenever scheduling works: a pass leaves waiting only
    /// what no instant up to the horizon can start, only a pass books, and
    /// every change that frees a node (an end, a cancellation, a failure,
    /// a repair) runs one. A `Some` is a wedge — a job held back from
    /// nodes it could have now — and the scenario swarm's conservation
    /// oracle reports it.
    pub fn startable_waiting(&self) -> Option<JobId> {
        if !self.process_up {
            return None;
        }
        let mut live = self.waiting.iter().filter_map(|&id| self.queued_job(id));
        let startable = live.find(|job| {
            let sets = self.db.resolve(&job.request);
            self.plan_now(&job.request, sets.as_slice(), &mut 0)
        });
        startable.map(|job| job.id)
    }

    /// The job of a `waiting` entry, while the entry is live.
    fn queued_job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id).filter(|job| job.state == JobState::Waiting)
    }

    /// Cancel a job (waiting, scheduled or running).
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.end_and_replan(id, JobState::Canceled)
    }

    /// A running job finished early (tests usually do).
    pub fn complete_early(&mut self, id: JobId) -> bool {
        self.end_and_replan(id, JobState::Terminated)
    }

    /// [`OarServer::end_job`], then a scheduling pass over what that freed.
    fn end_and_replan(&mut self, id: JobId, state: JobState) -> bool {
        let ended = self.end_job(id, state);
        if ended {
            self.schedule();
        }
        ended
    }

    /// The one way a job ends: `id` enters the final `state` at this
    /// instant and its reservation leaves the chart, whether it ran its
    /// walltime, ended early, was cancelled or failed. No planner reads a
    /// reservation that ended at or before now, so the chart holds only
    /// the jobs still scheduled or running. Only a running job terminates;
    /// any job not yet final can be cancelled or fail. Returns whether the
    /// job ended — `false` for an unknown id or a transition that rule
    /// forbids, and then nothing changed.
    fn end_job(&mut self, id: JobId, state: JobState) -> bool {
        debug_assert!(state.is_final());
        let Some(job) = self.jobs.get_mut(id) else {
            return false;
        };
        let may_end = match state {
            JobState::Terminated => job.state == JobState::Running,
            _ => !job.state.is_final(),
        };
        if !may_end {
            return false;
        }
        match job.state {
            // The deque entry goes stale and is skipped lazily.
            JobState::Waiting => self.queued -= 1,
            JobState::Running => self.busy = self.busy.saturating_sub(job.assigned.len()),
            _ => {}
        }
        job.state = state;
        job.ended_at = Some(self.now);
        let slots = job.assigned.iter().map(|&n| self.db.slot(self.part, n));
        self.gantt.release(id, slots);
        if id.0 == self.first_live {
            let finals = self.jobs.iter_from(id).take_while(|j| j.state.is_final());
            self.first_live += finals.count() as u64;
        }
        true
    }

    /// Advance virtual time to `to`, firing job starts/ends on the way;
    /// each end takes its job's reservation off the chart. Time never goes
    /// backwards: a `to` before [`OarServer::now`] is ignored.
    pub fn advance(&mut self, to: SimTime) {
        if to < self.now {
            return;
        }
        while let Some((t, ev)) = self.events.pop_due(to) {
            self.now = t;
            match ev {
                OarEvent::JobShouldStart(id) => self.start_job(id),
                // Stale when the job already ended (early, cancelled,
                // failed), and its reservation went with it.
                OarEvent::JobShouldEnd(id) => {
                    self.end_and_replan(id, JobState::Terminated);
                }
            }
        }
        self.now = to;
        // A reservation end sliding into the planning horizon can unblock a
        // job that was unplaceable on every earlier pass: re-plan exactly
        // when one enters the window.
        if self.queued > 0 {
            let prev = self.last_replan_check;
            if self
                .gantt
                .ends()
                .first_beyond(prev + self.horizon)
                .is_some_and(|e| e <= to + self.horizon)
            {
                self.schedule();
            }
        }
        self.last_replan_check = to;
    }

    fn start_job(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(id) else { return };
        if job.state != JobState::Scheduled {
            return;
        }
        // If an assigned node died since planning, the job errors out.
        let dead = job.assigned.iter().any(|&n| {
            let state = self.node_states[self.db.slot(self.part, n)];
            !matches!(state, NodeState::Alive)
        });
        if dead {
            self.end_and_replan(id, JobState::Error);
            return;
        }
        let now = self.now;
        job.state = JobState::Running;
        job.started_at = Some(now);
        self.busy = self.busy.saturating_add(job.assigned.len());
        let ends_at = now + job.request.walltime;
        self.events.push(ends_at, OarEvent::JobShouldEnd(id));
    }

    /// Plan every waiting job (FCFS, conservative backfilling).
    fn schedule(&mut self) {
        // Anything a pass can place is derived from candidates within
        // `now + horizon`; later entries are caught by the re-plan check.
        self.last_replan_check = self.now;
        if self.queued == 0 {
            self.waiting.clear();
            return;
        }
        let mut still = std::mem::take(&mut self.waiting_scratch);
        still.clear();
        let mut candidates = std::mem::take(&mut self.candidates);
        while let Some(id) = self.waiting.pop_front() {
            // A job that ended while queued leaves a stale entry.
            let Some(job) = self.queued_job(id) else { continue };
            // Plan from the stored request in place.
            match self.earliest_assignment(&job.request, &mut candidates) {
                Some((start, assignment)) => {
                    self.queued -= 1;
                    self.book(id, start, assignment);
                }
                // Stays Waiting; re-planned on the next pass.
                None => still.push_back(id),
            }
        }
        self.candidates = candidates;
        self.waiting_scratch = std::mem::replace(&mut self.waiting, still);
    }

    /// Reserve `assignment` for job `id` from `start` on, and start it now
    /// or at its start event: the one way a job leaves `Waiting` alive.
    fn book(&mut self, id: JobId, start: SimTime, assignment: Vec<NodeId>) {
        let Some(job) = self.jobs.get_mut(id) else { return };
        let slots = assignment.iter().map(|&n| self.db.slot(self.part, n));
        self.gantt.book(id, slots, start, job.request.walltime);
        job.assigned = assignment;
        job.scheduled_start = Some(start);
        job.state = JobState::Scheduled;
        if start == self.now {
            // Start immediately (same instant) — no event needed, which
            // keeps `next_event_time` free of stale entries.
            self.start_job(id);
        } else {
            self.events.push(start, OarEvent::JobShouldStart(id));
        }
    }

    /// Earliest `(start, assignment)` for a request within the horizon,
    /// with `candidates` as the scratch list of instants to try.
    ///
    /// Candidate start instants: now plus every reservation end of the part
    /// within the horizon, in ascending order — a free window can only open
    /// when something ends. Ends on clusters the request cannot touch are
    /// tried too, and cannot move the answer: between two ends on its own
    /// clusters the request's feasibility only falls, so it is never
    /// feasible at such an end without being feasible at the instant
    /// tried before.
    fn earliest_assignment(
        &self,
        request: &ResourceRequest,
        candidates: &mut Vec<SimTime>,
    ) -> Option<(SimTime, Vec<NodeId>)> {
        candidates.clear();
        candidates.push(self.now);
        let limit = self.now + self.horizon;
        self.gantt.ends().candidates_into(self.now, limit, candidates);
        let sets = self.db.resolve(request);
        candidates.iter().find_map(|&t| {
            let mut assignment = Vec::new();
            self.plan(request, sets.as_slice(), Some(t), &mut assignment)
                .then_some((t, assignment))
        })
    }

    /// The planner: whether `request` has a full assignment starting
    /// exactly at `start` — or, with no `start`, on this part with nothing
    /// reserved, which is what "can ever be satisfied here" means — with
    /// the nodes picked put in `out`, which starts empty. `sets` holds the
    /// match-set of each group, in group order. A request for nothing (no
    /// group, or a zero count) has no assignment.
    ///
    /// A single group is planned straight into `out`. Several are planned
    /// greedily in group order, each passing over the nodes the groups
    /// before it took, so their nodes are collected whatever `out` keeps.
    fn plan(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
        start: Option<SimTime>,
        out: &mut impl Picks,
    ) -> bool {
        debug_assert_eq!(request.groups.len(), sets.len());
        let window = start.map(|t| (t, request.walltime));
        match (request.groups.as_slice(), sets) {
            ([group], [set]) => self.find_group(group, set, window, &[], out),
            ([], _) => false,
            (groups, sets) => {
                let mut taken: Vec<NodeId> = Vec::new();
                let mut picked = Vec::new();
                for (group, set) in groups.iter().zip(sets) {
                    if !self.find_group(group, set, window, &taken, &mut picked) {
                        return false;
                    }
                    taken.append(&mut picked);
                }
                out.take_all(taken);
                true
            }
        }
    }

    /// This server's alive nodes in `set` that are not already taken,
    /// regardless of reservations, in node order.
    fn matching_alive<'a>(
        &'a self,
        set: &'a MatchSet,
        taken: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        set.of_part(self.part)
            .iter()
            .copied()
            .filter(|&n| {
                let state = self.node_states[self.db.slot(self.part, n)];
                matches!(state, NodeState::Alive)
            })
            .filter(|n| !taken.contains(n))
    }

    /// Whether `node` (one of this server's) is free over `window`, a
    /// `(start, duration)`; with no window, reservations are not looked at.
    fn is_free(&self, node: NodeId, window: Option<(SimTime, SimDuration)>) -> bool {
        window.is_none_or(|(start, duration)| {
            let timeline = self.gantt.timeline(self.db.slot(self.part, node));
            timeline.is_free(start, duration)
        })
    }

    /// One group's part of [`OarServer::plan`]: whether `group` finds its
    /// nodes among this server's alive matches outside `taken`, free over
    /// `window`, with them put in `out` (empty on entry; partly filled when
    /// the answer is no).
    fn find_group(
        &self,
        group: &RequestGroup,
        set: &MatchSet,
        window: Option<(SimTime, SimDuration)>,
        taken: &[NodeId],
        out: &mut impl Picks,
    ) -> bool {
        if group.has_zero_count() {
            return false;
        }
        match group.hierarchy.as_slice() {
            [(Level::Nodes, Count::All)] => {
                // ALL = every alive node matching the filter must be free.
                for n in self.matching_alive(set, taken) {
                    if !self.is_free(n, window) {
                        return false;
                    }
                    out.pick(n);
                }
                out.picked() > 0
            }
            [(Level::Cluster, Count::Exact(c)), (Level::Nodes, count)] => {
                // The first `c` clusters, in name order, that can give
                // `count` of their alive matching nodes.
                let mut by_cluster: BTreeMap<&str, Vec<NodeId>> = BTreeMap::new();
                for n in self.matching_alive(set, taken) {
                    let cluster = self.db.cluster_of_node[n.index()].index();
                    by_cluster
                        .entry(self.db.cluster_names[cluster].as_str())
                        .or_default()
                        .push(n);
                }
                let mut clusters_left = *c;
                for members in by_cluster.values() {
                    if clusters_left == 0 {
                        break;
                    }
                    // ALL = every alive member of the cluster must be free.
                    let wanted = match count {
                        Count::Exact(n) => *n as usize,
                        Count::All => members.len(),
                    };
                    let before = out.picked();
                    let free = members.iter().filter(|&&n| self.is_free(n, window));
                    free.take(wanted).for_each(|&n| out.pick(n));
                    if out.picked() - before == wanted {
                        clusters_left -= 1;
                    } else {
                        out.truncate(before);
                    }
                }
                clusters_left == 0
            }
            // `nodes=N` and, allocating whole nodes for the equivalent
            // node count (at least one), core/CPU-level or exotic
            // hierarchies: the first `needed` eligible nodes, in node order.
            _ => {
                let needed = fewest_nodes(group);
                let eligible = self
                    .matching_alive(set, taken)
                    .filter(|&n| self.is_free(n, window));
                eligible.take(needed).for_each(|n| out.pick(n));
                out.picked() == needed
            }
        }
    }

    /// The consistency check, for property tests and oracles: the Gantt's
    /// end index must mirror a scan over every node timeline (see
    /// [`Gantt::divergence`]), and the chart must hold exactly one
    /// reservation per assigned node of each `Scheduled` or `Running` job,
    /// each ending after now; the alive count must equal a scan of the
    /// node states, the busy count the nodes a timeline has reserved at
    /// this instant, and the queued count the `Waiting` jobs of the table;
    /// every job below the low-water mark of [`OarServer::live_jobs`] must
    /// be final.
    // detlint: allow(unarmed-service-fn) -- internal invariant audit; a failure here is a simulator bug, not a service fault to inject
    pub fn check_consistency(&self) -> Result<(), String> {
        if let Some(divergence) = self.gantt.divergence() {
            return Err(divergence);
        }
        // A waiting job has no nodes assigned.
        let mut held = 0;
        for job in self.live_jobs() {
            for &node in &job.assigned {
                match self.gantt.timeline(self.db.slot(self.part, node)).end_of(job.id) {
                    Some(end) if end > self.now => held += 1,
                    end => {
                        return Err(format!(
                            "{} ({:?}) holds a reservation ending {end:?} on {node:?} at {}",
                            job.id, job.state, self.now
                        ))
                    }
                }
            }
        }
        let charted = self.gantt.reservations().count();
        if charted != held {
            return Err(format!(
                "{charted} reservations charted at {}, {held} held by live jobs",
                self.now
            ));
        }
        let alive = self.node_states.iter().filter(|&&s| s == NodeState::Alive).count();
        let busy = self.gantt.busy_count(self.now);
        let waiting = self.jobs.iter().filter(|j| j.state == JobState::Waiting).count();
        let kept = (self.alive, self.busy, self.queued);
        if kept != (alive, busy, waiting) {
            return Err(format!(
                "kept counts diverged at {}: alive {} busy {} queued {}, \
                 scanned alive {alive} busy {busy} waiting {waiting}",
                self.now, kept.0, kept.1, kept.2
            ));
        }
        let mut below = self.jobs.iter().take_while(|j| j.id.0 < self.first_live);
        match below.find(|j| !j.state.is_final()) {
            Some(job) => Err(format!(
                "{} is {:?} below the low-water mark {}",
                job.id, job.state, self.first_live
            )),
            None => Ok(()),
        }
    }

    /// Admission: `request` is well formed and this part could start it
    /// if idle. `placed_now` says the planner already found it nodes at
    /// this instant. For a single group that settles the second half: with
    /// nothing reserved every node free now is still free, so the same
    /// walk picks at least as well. Several groups are planned greedily,
    /// and a node busy now can steer an earlier group off a node a later
    /// one needs, so for them only the plan itself can say.
    // detlint: allow(unarmed-service-fn) -- admission runs behind the oar-submit arm in submit_placed(); the arm already injects refusals on this path
    fn admit(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
        placed_now: bool,
    ) -> Result<(), SubmitError> {
        if request.groups.is_empty() {
            return Err(SubmitError::InvalidRequest("no resource groups".into()));
        }
        if request.groups.iter().any(RequestGroup::has_zero_count) {
            return Err(SubmitError::InvalidRequest("zero count".into()));
        }
        if request.walltime.is_zero() {
            return Err(SubmitError::InvalidRequest("zero walltime".into()));
        }
        // Satisfiable: what the planner can place here with nothing reserved.
        let proved = placed_now && request.groups.len() == 1;
        if proved || self.plan(request, sets, None, &mut 0) {
            Ok(())
        } else {
            Err(SubmitError::Unsatisfiable)
        }
    }
}

/// The fewest nodes the planner can place `group` on: its node count, and
/// at least one (`ALL` takes every alive match, of which there is one at
/// least; core- and CPU-level requests take whole nodes).
fn fewest_nodes(group: &RequestGroup) -> usize {
    group.node_count().unwrap_or(1).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_testbed::TestbedBuilder;

    fn setup() -> (Testbed, OarServer) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let server = OarServer::new(&tb, &desc);
        (tb, server)
    }

    fn nodes_req(filter: Expr, n: u32, hours: u64) -> ResourceRequest {
        ResourceRequest::nodes(filter, n, SimDuration::from_hours(hours))
    }

    #[test]
    fn immediate_start_on_empty_testbed() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 1))
            .unwrap();
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.job(id).unwrap().assigned.len(), 2);
        assert_eq!(s.busy_nodes(), 2);
    }

    #[test]
    fn job_ends_at_walltime() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 1, 2))
            .unwrap();
        s.advance(SimTime::from_hours(1));
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        s.advance(SimTime::from_hours(3));
        assert_eq!(s.job(id).unwrap().state, JobState::Terminated);
        assert_eq!(s.busy_nodes(), 0);
        assert_eq!(
            s.job(id).unwrap().runtime().unwrap(),
            SimDuration::from_hours(2)
        );
    }

    #[test]
    fn fcfs_queues_when_full() {
        let (_tb, mut s) = setup();
        // Fill the whole testbed (14 nodes).
        let first = s
            .submit("alice", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 2))
            .unwrap();
        let second = s
            .submit("bob", Queue::Default, JobKind::User, nodes_req(Expr::True, 4, 1))
            .unwrap();
        assert_eq!(s.job(first).unwrap().state, JobState::Running);
        // Second is planned for when the first ends.
        let j2 = s.job(second).unwrap();
        assert_eq!(j2.state, JobState::Scheduled);
        assert_eq!(j2.scheduled_start, Some(SimTime::from_hours(2)));
        s.advance(SimTime::from_hours(2));
        assert_eq!(s.job(second).unwrap().state, JobState::Running);
        assert_eq!(
            s.job(second).unwrap().waiting_time().unwrap(),
            SimDuration::from_hours(2)
        );
    }

    #[test]
    fn backfilling_uses_gaps() {
        let (_tb, mut s) = setup();
        // Job A takes all 14 nodes for 2h.
        s.submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 2))
            .unwrap();
        // Job B wants all 14 nodes for 4h → starts at t=2.
        let b = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 4))
            .unwrap();
        assert_eq!(s.job(b).unwrap().scheduled_start, Some(SimTime::from_hours(2)));
        // Job C wants 14 nodes for 1h → must go after B (t=6), FCFS order
        // is preserved because B's reservation is conservative.
        let c = s
            .submit("c", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(c).unwrap().scheduled_start, Some(SimTime::from_hours(6)));
    }

    #[test]
    fn cluster_filter_restricts_nodes() {
        let (tb, mut s) = setup();
        let id = s
            .submit(
                "ci",
                Queue::Admin,
                JobKind::Test,
                nodes_req(Expr::eq("cluster", "alpha"), 2, 1),
            )
            .unwrap();
        let job = s.job(id).unwrap();
        let alpha = tb.cluster_by_name("alpha").unwrap();
        assert!(job.assigned.iter().all(|n| alpha.nodes.contains(n)));
    }

    #[test]
    fn all_nodes_of_cluster() {
        let (tb, mut s) = setup();
        let req = ResourceRequest::all_nodes(
            Expr::eq("cluster", "beta"),
            SimDuration::from_hours(1),
        );
        let id = s.submit("ci", Queue::Admin, JobKind::Test, req).unwrap();
        let beta = tb.cluster_by_name("beta").unwrap();
        assert_eq!(s.job(id).unwrap().assigned.len(), beta.nodes.len());
    }

    #[test]
    fn all_nodes_waits_for_every_member() {
        let (_tb, mut s) = setup();
        // Occupy one beta node for 3 hours.
        s.submit(
            "user",
            Queue::Default,
            JobKind::User,
            nodes_req(Expr::eq("cluster", "beta"), 1, 3),
        )
        .unwrap();
        // ALL-beta request cannot start now.
        let req = ResourceRequest::all_nodes(
            Expr::eq("cluster", "beta"),
            SimDuration::from_hours(1),
        );
        assert!(s.immediate_assignment(&req).is_none());
        let id = s.submit("ci", Queue::Admin, JobKind::Test, req).unwrap();
        assert_eq!(s.job(id).unwrap().state, JobState::Scheduled);
        assert_eq!(
            s.job(id).unwrap().scheduled_start,
            Some(SimTime::from_hours(3))
        );
    }

    #[test]
    fn multi_group_request_spans_clusters() {
        let (tb, mut s) = setup();
        let req = ResourceRequest {
            groups: vec![
                RequestGroup {
                    filter: Expr::eq("cluster", "alpha"),
                    hierarchy: vec![(Level::Nodes, Count::Exact(1))],
                },
                RequestGroup {
                    filter: Expr::eq("cluster", "gamma"),
                    hierarchy: vec![(Level::Nodes, Count::Exact(2))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        let id = s.submit("x", Queue::Default, JobKind::User, req).unwrap();
        let job = s.job(id).unwrap();
        assert_eq!(job.assigned.len(), 3);
        let alpha = tb.cluster_by_name("alpha").unwrap();
        let gamma = tb.cluster_by_name("gamma").unwrap();
        assert_eq!(job.assigned.iter().filter(|n| alpha.nodes.contains(n)).count(), 1);
        assert_eq!(job.assigned.iter().filter(|n| gamma.nodes.contains(n)).count(), 2);
    }

    #[test]
    fn cluster_hierarchy_level() {
        let (_tb, mut s) = setup();
        let req = ResourceRequest {
            groups: vec![RequestGroup {
                filter: Expr::True,
                hierarchy: vec![(Level::Cluster, Count::Exact(2)), (Level::Nodes, Count::Exact(2))],
            }],
            walltime: SimDuration::from_hours(1),
        };
        let id = s.submit("x", Queue::Default, JobKind::User, req).unwrap();
        assert_eq!(s.job(id).unwrap().assigned.len(), 4);
    }

    #[test]
    fn unsatisfiable_is_rejected() {
        let (_tb, mut s) = setup();
        let err = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 1000, 1))
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
        let err = s
            .submit(
                "x",
                Queue::Default,
                JobKind::User,
                nodes_req(Expr::eq("cluster", "nope"), 1, 1),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsatisfiable);
    }

    #[test]
    fn unplaceable_hierarchy_is_refused_not_queued() {
        // Regression: satisfiability counted matching nodes instead of
        // asking the planner, so these were accepted and waited forever.
        // Clusters are 4/4/3/3 nodes: no two give five each, and alpha has
        // no node left beside all of alpha.
        let (tb, mut s) = setup();
        for text in [
            "cluster=2/nodes=5,walltime=1",
            "{cluster='alpha'}/nodes=ALL+{cluster='alpha'}/nodes=1",
        ] {
            let req = crate::parse_request(text, SimDuration::from_hours(1)).unwrap();
            assert!(!s.can_satisfy(&req), "{text}");
            assert_eq!(s.immediate_assignment(&req), None, "{text}");
            let err = s.submit("x", Queue::Default, JobKind::User, req).unwrap_err();
            assert_eq!(err, SubmitError::Unsatisfiable, "{text}");
        }
        assert!(s.jobs().is_empty());
        assert_eq!(s.next_event_time(), None);
        // One node fewer per cluster is placeable, and runs.
        let req = crate::parse_request("cluster=2/nodes=4,walltime=1", SimDuration::from_hours(1))
            .unwrap();
        assert!(s.can_satisfy(&req));
        let id = s.submit("x", Queue::Default, JobKind::User, req).unwrap();
        let job = s.job(id).unwrap();
        assert_eq!(job.state, JobState::Running);
        let hosts = |name: &str| tb.cluster_by_name(name).unwrap().nodes.clone();
        assert_eq!(job.assigned, [hosts("alpha"), hosts("beta")].concat());
    }

    #[test]
    fn zero_walltime_invalid() {
        let (_tb, mut s) = setup();
        let err = s
            .submit(
                "x",
                Queue::Default,
                JobKind::User,
                ResourceRequest::nodes(Expr::True, 1, SimDuration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest(_)));
    }

    #[test]
    fn zero_count_requests_nothing_and_is_refused() {
        // Regression: a `nodes=0` job was accepted and went Running
        // holding no node, and the availability probe said it could start.
        let (_tb, mut s) = setup();
        let zero_clusters = ResourceRequest {
            groups: vec![RequestGroup {
                filter: Expr::True,
                hierarchy: vec![(Level::Cluster, Count::Exact(0)), (Level::Nodes, Count::Exact(2))],
            }],
            walltime: SimDuration::from_hours(1),
        };
        for req in [nodes_req(Expr::True, 0, 1), zero_clusters] {
            assert_eq!(s.immediate_assignment(&req), None);
            assert!(!s.can_satisfy(&req));
            let err = s
                .submit("x", Queue::Default, JobKind::User, req)
                .unwrap_err();
            assert!(matches!(err, SubmitError::InvalidRequest(_)), "{err}");
        }
        assert!(s.jobs().is_empty());
    }

    #[test]
    fn cancel_releases_resources() {
        let (_tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        assert_eq!(s.busy_nodes(), 14);
        assert!(s.cancel(id));
        assert_eq!(s.busy_nodes(), 0);
        assert_eq!(s.job(id).unwrap().state, JobState::Canceled);
        assert!(!s.cancel(id)); // idempotent
    }

    #[test]
    fn early_completion_frees_timeline() {
        let (_tb, mut s) = setup();
        let a = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 10))
            .unwrap();
        let b = s
            .submit("y", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(b).unwrap().scheduled_start, Some(SimTime::from_hours(10)));
        s.advance(SimTime::from_hours(1));
        assert!(s.complete_early(a));
        // b is still conservatively scheduled at hour 10; but after a new
        // pass triggered by completion, b can be re-planned only if it was
        // Waiting. Conservative backfilling keeps the reservation: verify
        // it still runs at its reserved time.
        s.advance(SimTime::from_hours(10));
        assert_eq!(s.job(b).unwrap().state, JobState::Running);
    }

    #[test]
    fn dead_node_fails_running_job() {
        let (mut tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        let victim = s.job(id).unwrap().assigned[0];
        tb.apply_fault(
            ttt_testbed::FaultKind::NodeDead,
            ttt_testbed::FaultTarget::Node(victim),
            SimTime::ZERO,
        )
        .unwrap();
        s.sync_node_states(&tb);
        assert_eq!(s.job(id).unwrap().state, JobState::Error);
        assert_eq!(s.node_state(victim), NodeState::Dead);
    }

    #[test]
    fn immediate_assignment_does_not_book() {
        let (_tb, s) = setup();
        let req = nodes_req(Expr::True, 3, 1);
        assert!(s.immediate_assignment(&req).is_some());
        assert_eq!(s.busy_nodes(), 0);
    }

    #[test]
    fn cancel_waiting_job_is_lazy_but_correct() {
        let (_tb, mut s) = setup();
        // Fill the testbed far beyond the horizon so followers stay Waiting.
        s.submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 24 * 30))
            .unwrap();
        let b = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        let c = s
            .submit("c", Queue::Default, JobKind::User, nodes_req(Expr::True, 1, 1))
            .unwrap();
        assert_eq!(s.waiting_count(), 2);
        assert!(s.cancel(b));
        assert_eq!(s.waiting_count(), 1);
        assert_eq!(s.job(b).unwrap().state, JobState::Canceled);
        assert_eq!(s.job(c).unwrap().state, JobState::Waiting);
    }

    #[test]
    fn next_event_time_tracks_starts_and_ends() {
        let (_tb, mut s) = setup();
        assert_eq!(s.next_event_time(), None);
        let id = s
            .submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 2, 3))
            .unwrap();
        // Job started immediately: next event is its walltime end.
        assert_eq!(s.job(id).unwrap().state, JobState::Running);
        assert_eq!(s.next_event_time(), Some(SimTime::from_hours(3)));
    }

    #[test]
    fn replan_happens_when_end_enters_horizon() {
        let (_tb, mut s) = setup();
        // A 10-day job: its end is outside the 7-day planning horizon.
        let long = s
            .submit("a", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 240))
            .unwrap();
        assert_eq!(s.job(long).unwrap().state, JobState::Running);
        // A full-testbed follower cannot be planned within the horizon.
        let follower = s
            .submit("b", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 1))
            .unwrap();
        assert_eq!(s.job(follower).unwrap().state, JobState::Waiting);
        // The server knows when re-planning becomes possible: day 10 end
        // enters the 7-day horizon at day 3.
        assert_eq!(
            s.next_event_time(),
            Some(SimTime::from_hours(240) - SimDuration::from_days(7))
        );
        // Advancing past that instant plans the follower at the long job's
        // end, without any other state change having occurred.
        s.advance(SimTime::from_days(4));
        let j = s.job(follower).unwrap();
        assert_eq!(j.state, JobState::Scheduled);
        assert_eq!(j.scheduled_start, Some(SimTime::from_hours(240)));
    }

    #[test]
    fn sync_dirty_nodes_matches_full_sync() {
        let (mut tb, mut s) = setup();
        let id = s
            .submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 14, 5))
            .unwrap();
        let victim = s.job(id).unwrap().assigned[0];
        tb.apply_fault(
            ttt_testbed::FaultKind::NodeDead,
            ttt_testbed::FaultTarget::Node(victim),
            SimTime::ZERO,
        )
        .unwrap();
        let dirty = tb.take_alive_dirty();
        assert_eq!(dirty, vec![victim]);
        s.sync_dirty_nodes(&tb, &dirty);
        assert_eq!(s.job(id).unwrap().state, JobState::Error);
        assert_eq!(s.node_state(victim), NodeState::Dead);
        // Empty dirty set: nothing to reconcile, nothing changes.
        s.sync_dirty_nodes(&tb, &[]);
        assert_eq!(s.node_state(victim), NodeState::Dead);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let (_tb, mut s) = setup();
        assert_eq!(s.utilization(), 0.0);
        s.submit("x", Queue::Default, JobKind::User, nodes_req(Expr::True, 7, 1))
            .unwrap();
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    /// The kept counts are `(alive, busy)` and equal their scans: the node
    /// states, and the timelines reserved at this instant.
    fn assert_counts(s: &OarServer, alive: usize, busy: usize) {
        let scanned = s.node_states.iter().filter(|&&st| st == NodeState::Alive).count();
        let kept = (s.alive_nodes(), s.busy_nodes());
        assert_eq!(kept, (scanned, s.gantt.busy_count(s.now)), "at {}", s.now);
        assert_eq!(kept, (alive, busy), "at {}", s.now);
        assert_eq!(s.check_consistency(), Ok(()));
    }

    /// Kill `node`'s hardware; false when it was dead already.
    fn kill(tb: &mut Testbed, node: NodeId) -> bool {
        let target = ttt_testbed::FaultTarget::Node(node);
        tb.apply_fault(ttt_testbed::FaultKind::NodeDead, target, SimTime::ZERO).is_some()
    }

    #[test]
    fn kept_counts_follow_every_way_a_job_leaves_running() {
        let (mut tb, mut s) = setup();
        let submit = |s: &mut OarServer, req| s.submit("x", Queue::Default, JobKind::User, req);
        assert_counts(&s, 14, 0);
        // A booking that starts in the future holds nothing until then.
        let a = submit(&mut s, nodes_req(Expr::True, 3, 2)).unwrap();
        let b = submit(&mut s, nodes_req(Expr::True, 14, 1)).unwrap();
        assert_eq!(s.job(b).unwrap().state, JobState::Scheduled);
        assert_counts(&s, 14, 3);
        // Early completion.
        s.advance(SimTime::from_hours(1));
        assert!(s.complete_early(a));
        assert_counts(&s, 14, 0);
        s.advance(SimTime::from_hours(2));
        assert_eq!(s.job(b).unwrap().state, JobState::Running);
        assert_counts(&s, 14, 14);
        // Walltime end.
        s.advance(SimTime::from_hours(3));
        assert_eq!(s.job(b).unwrap().state, JobState::Terminated);
        assert_counts(&s, 14, 0);
        // Cancel.
        let c = submit(&mut s, nodes_req(Expr::True, 2, 5)).unwrap();
        assert_counts(&s, 14, 2);
        assert!(s.cancel(c));
        assert_counts(&s, 14, 0);
        // A node dies under a running job: the job fails, all of its nodes
        // are free again and one fewer is alive.
        let d = submit(&mut s, nodes_req(Expr::True, 5, 5)).unwrap();
        assert!(kill(&mut tb, s.job(d).unwrap().assigned[0]));
        s.sync_node_states(&tb);
        assert_eq!(s.job(d).unwrap().state, JobState::Error);
        assert_counts(&s, 13, 0);
        // A repair brings it back.
        let fault = tb.active_faults()[0].id;
        assert!(tb.repair(fault));
        s.sync_node_states(&tb);
        assert_counts(&s, 14, 0);
        // A scheduled job whose idle node dies before its start: nothing
        // it holds was busy, and its start fails it.
        let beta = || Expr::eq("cluster", "beta");
        let e = submit(&mut s, nodes_req(beta(), 1, 2)).unwrap();
        let all_beta = ResourceRequest::all_nodes(beta(), SimDuration::from_hours(1));
        let f = submit(&mut s, all_beta).unwrap();
        assert_eq!(s.job(f).unwrap().state, JobState::Scheduled);
        assert_counts(&s, 14, 1);
        let held = &s.job(e).unwrap().assigned;
        let idle = s.job(f).unwrap().assigned.iter().find(|n| !held.contains(n));
        assert!(kill(&mut tb, *idle.unwrap()));
        s.sync_node_states(&tb);
        assert_eq!(s.job(e).unwrap().state, JobState::Running);
        assert_eq!(s.job(f).unwrap().state, JobState::Scheduled);
        assert_counts(&s, 13, 1);
        s.advance(SimTime::from_hours(6));
        assert_eq!(s.job(e).unwrap().state, JobState::Terminated);
        assert_eq!(s.job(f).unwrap().state, JobState::Error);
        assert_counts(&s, 13, 0);
    }

    /// The free-count refusal in `plan_now` never refuses what the planner
    /// would place: over random bookings, ends, deaths and repairs, it
    /// agrees with the planner asked directly for this instant.
    #[test]
    fn plan_now_refuses_only_what_the_planner_cannot_place() {
        use rand::Rng;
        let (mut refused, mut placed) = (0, 0);
        for world in 0..24u64 {
            let mut rng = ttt_sim::rng::stream_rng(world, "plan-now-prefilter");
            let (mut tb, mut s) = setup();
            let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
            let draw = |rng: &mut rand::rngs::SmallRng| {
                let cluster = Expr::eq("cluster", &clusters[rng.gen_range(0..clusters.len())]);
                let hours = SimDuration::from_hours(rng.gen_range(1..6));
                let text = match rng.gen_range(0..5) {
                    0 => return ResourceRequest::all_nodes(cluster, hours),
                    1 => return ResourceRequest::nodes(cluster, rng.gen_range(1..5), hours),
                    2 => "cluster=2/nodes=2",
                    3 => "{cluster='alpha'}/nodes=1+{cluster='gamma'}/nodes=2",
                    _ => return ResourceRequest::nodes(Expr::True, rng.gen_range(1..16), hours),
                };
                crate::parse_request(text, hours).unwrap()
            };
            let mut ids = Vec::new();
            for _ in 0..60 {
                match rng.gen_range(0..6) {
                    0 | 1 => {
                        let request = draw(&mut rng);
                        ids.extend(s.submit("x", Queue::Default, JobKind::User, request));
                    }
                    2 => s.advance(s.now() + SimDuration::from_mins(rng.gen_range(0..180))),
                    3 if !ids.is_empty() => {
                        let id = ids[rng.gen_range(0..ids.len())];
                        if rng.gen_bool(0.5) {
                            s.cancel(id);
                        } else {
                            s.complete_early(id);
                        }
                    }
                    _ => {
                        let active = tb.active_faults();
                        if rng.gen_bool(0.6) || active.is_empty() {
                            let node = tb.nodes()[rng.gen_range(0..tb.nodes().len())].id;
                            kill(&mut tb, node);
                        } else {
                            tb.repair(active[rng.gen_range(0..active.len())].id);
                        }
                        s.sync_node_states(&tb);
                    }
                }
                assert_eq!(s.check_consistency(), Ok(()));
                for _ in 0..8 {
                    let request = draw(&mut rng);
                    let sets = s.db.resolve(&request);
                    let planner = s.plan(&request, sets.as_slice(), Some(s.now), &mut 0);
                    assert_eq!(s.plan_now(&request, sets.as_slice(), &mut 0), planner, "{request}");
                    let fewest: usize = request.groups.iter().map(fewest_nodes).sum();
                    refused += usize::from(s.alive_nodes() - s.busy_nodes() < fewest);
                    placed += usize::from(planner);
                }
            }
        }
        // Both answers, and the refusal itself, are reached.
        assert!(refused > 100 && placed > 100, "{refused} refused, {placed} placed");
    }

    /// The planner's candidate list while ends were also indexed per
    /// cluster: now plus the ends, within the horizon, on the clusters
    /// every group of `request` implies — or on the whole part when a group
    /// implies none — here read off the timelines of the part's nodes.
    /// Unknown and other parts' clusters contribute no instant. Returns the
    /// answer and how many instants it had to try from.
    fn narrowed_assignment(
        s: &OarServer,
        request: &ResourceRequest,
    ) -> (Option<(SimTime, Vec<NodeId>)>, usize) {
        let limit = s.now + s.horizon;
        let implied: Option<Vec<&str>> =
            request.groups.iter().map(|g| g.filter.implied_cluster()).collect();
        let touches = |node: NodeId| {
            let cluster = s.db.cluster_of_node[node.index()].index();
            implied.as_ref().is_none_or(|names| names.contains(&&*s.db.cluster_names[cluster]))
        };
        let mut candidates = vec![s.now];
        for (slot, &node) in s.db.part_nodes(s.part).iter().enumerate() {
            if touches(node) {
                let ends = s.gantt.timeline(slot).reservations().iter().map(|r| r.end);
                candidates.extend(ends.filter(|&e| e > s.now && e <= limit));
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let sets = s.db.resolve(request);
        let planned = candidates.iter().find_map(|&t| {
            let mut assignment = Vec::new();
            s.plan(request, sets.as_slice(), Some(t), &mut assignment)
                .then_some((t, assignment))
        });
        (planned, candidates.len())
    }

    /// Planning from every end of the part answers what planning from the
    /// ends of the request's own clusters answered: the same start and the
    /// same nodes, over random bookings, early ends, cancels, deaths and
    /// repairs, on a whole testbed and on one site's part,
    /// for cluster-pinned, `cluster=N/nodes=M`, `nodes=ALL`, multi-group
    /// and site-agnostic requests.
    #[test]
    fn planning_from_every_end_matches_the_cluster_narrowed_candidates() {
        use rand::Rng;
        let (mut now, mut later, mut never, mut wider) = (0, 0, 0, 0);
        let mut candidates = Vec::new();
        for world in 0..24u64 {
            let mut rng = ttt_sim::rng::stream_rng(world, "one-end-index");
            let (mut tb, mut s) = setup();
            if world % 2 == 1 {
                // The west site's part of a per-site database.
                let desc = describe(&tb, 1, SimTime::ZERO);
                s = OarServer::over_part(Arc::new(ResourceDb::load_by_site(&tb, &desc)), 1);
            }
            let clusters: Vec<String> = tb.clusters().iter().map(|c| c.name.clone()).collect();
            let draw = |rng: &mut rand::rngs::SmallRng, hours: SimDuration| {
                let cluster = Expr::eq("cluster", &clusters[rng.gen_range(0..clusters.len())]);
                let text = match rng.gen_range(0..7) {
                    0 => return ResourceRequest::all_nodes(cluster, hours),
                    1 => return ResourceRequest::nodes(cluster, rng.gen_range(1..4), hours),
                    2 => "cluster=2/nodes=2",
                    3 => "{cluster='alpha'}/nodes=1+{cluster='gamma'}/nodes=2",
                    4 => "{cluster='delta'}/nodes=1+{cluster='gamma'}/nodes=ALL",
                    5 => "{cluster='gamma'}/nodes=1+nodes=2",
                    _ => return ResourceRequest::nodes(Expr::True, rng.gen_range(1..8), hours),
                };
                crate::parse_request(text, hours).unwrap()
            };
            let mut ids = Vec::new();
            for _ in 0..80 {
                match rng.gen_range(0..7) {
                    0..=2 => {
                        let hours = SimDuration::from_hours(rng.gen_range(1..60));
                        let request = draw(&mut rng, hours);
                        ids.extend(s.submit("x", Queue::Default, JobKind::User, request));
                    }
                    3 => s.advance(s.now() + SimDuration::from_mins(rng.gen_range(0..900))),
                    4 if !ids.is_empty() => {
                        let id = ids[rng.gen_range(0..ids.len())];
                        if rng.gen_bool(0.5) {
                            s.cancel(id);
                        } else {
                            s.complete_early(id);
                        }
                    }
                    _ => {
                        let active = tb.active_faults();
                        if rng.gen_bool(0.3) || active.is_empty() {
                            let node = tb.nodes()[rng.gen_range(0..tb.nodes().len())].id;
                            kill(&mut tb, node);
                        } else {
                            tb.repair(active[rng.gen_range(0..active.len())].id);
                        }
                        s.sync_node_states(&tb);
                    }
                }
                assert_eq!(s.check_consistency(), Ok(()));
                for _ in 0..8 {
                    let hours = SimDuration::from_hours(rng.gen_range(1..12));
                    let request = draw(&mut rng, hours);
                    let planned = s.earliest_assignment(&request, &mut candidates);
                    let (narrowed, tried) = narrowed_assignment(&s, &request);
                    assert_eq!(planned, narrowed, "world {world}: {request}");
                    wider += usize::from(candidates.len() > tried);
                    match planned {
                        Some((t, _)) if t == s.now => now += 1,
                        Some(_) => later += 1,
                        None => never += 1,
                    }
                }
            }
        }
        // Starts now, starts at a later end and no start are all reached,
        // and so are lists holding ends the narrowing left out.
        assert!(now > 2000 && later > 2000 && never > 1000, "{now} now, {later} later, {never} never");
        assert!(wider > 2000, "{wider} candidate lists wider than the narrowed one");
    }

    /// What a filter matches by the scan the narrowing replaced: every node
    /// of the arena evaluated, then grouped by part as `matching_nodes`
    /// groups its matches.
    fn full_scan(db: &ResourceDb, filter: &Expr) -> (Vec<NodeId>, Vec<(u32, u32)>) {
        let matches = |n: &NodeId| eval(filter, &db.props[n.index()]);
        let mut nodes: Vec<NodeId> = db.all_nodes.iter().copied().filter(matches).collect();
        let part_of = |n: &NodeId| db.slot_of_node[n.index()].0;
        nodes.sort_by_key(part_of);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if run.0 == part_of(n) => run.1 = i as u32 + 1,
                _ => runs.push((part_of(n), i as u32 + 1)),
            }
        }
        (nodes, runs)
    }

    /// A random filter over `site`, `cluster` and one hardware property:
    /// equalities and inequalities on known and unknown names, nested in
    /// `and`, `or` and `not`, `depth` levels at most.
    fn draw_filter(rng: &mut rand::rngs::SmallRng, names: &[Vec<String>; 2], depth: u32) -> Expr {
        use crate::ast::CmpOp;
        use rand::Rng;
        if depth == 0 || rng.gen_bool(0.3) {
            let op = if rng.gen_bool(0.7) { CmpOp::Eq } else { CmpOp::Neq };
            let (key, known) = match rng.gen_range(0..5) {
                0 | 1 => ("site", &names[0]),
                2 | 3 => ("cluster", &names[1]),
                _ => return Expr::eq("gpu", "YES"),
            };
            // One draw in eight names nothing the testbed has.
            let value = match rng.gen_range(0..known.len() + known.len().div_ceil(7)) {
                i if i < known.len() => known[i].clone(),
                _ => "atlantis".to_string(),
            };
            return Expr::Cmp { key: key.into(), op, value };
        }
        let a = draw_filter(rng, names, depth - 1);
        match rng.gen_range(0..4) {
            0 | 1 => a.and(draw_filter(rng, names, depth - 1)),
            2 => a.or(draw_filter(rng, names, depth - 1)),
            _ => Expr::Not(Box::new(a)),
        }
    }

    /// A site-narrowed scan keeps what the full scan keeps, in its order:
    /// random filters resolved by a per-site database (a federation's) and
    /// by a single-part one (a stand-alone server's) over grids whose sites
    /// interleave in the node arena, each match-set equal to the full
    /// scan's, node for node and part run for part run. A narrowing that
    /// wrongly took `site<>'x'` for `site='x'` would keep no node.
    #[test]
    fn a_site_narrowed_scan_keeps_what_the_full_scan_keeps() {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let (mut by_site, mut by_cluster, mut whole) = (0, 0, 0);
        for world in 0..24u64 {
            let mut rng = ttt_sim::rng::stream_rng(world, "site-narrowing");
            let mut specs = ttt_testbed::gen::grid_specs(rng.gen_range(1..=6), 2, 3);
            specs.shuffle(&mut rng);
            let tb = TestbedBuilder::from_specs(specs).build();
            let desc = describe(&tb, 1, SimTime::ZERO);
            let names = [
                tb.sites().iter().map(|s| s.name.clone()).collect(),
                tb.clusters().iter().map(|c| c.name.clone()).collect(),
            ];
            for db in [ResourceDb::load_by_site(&tb, &desc), ResourceDb::load(&tb, &desc)] {
                for _ in 0..200 {
                    let filter = draw_filter(&mut rng, &names, 3);
                    let scanned = db.scan_range(&filter).len();
                    let set = db.matching_nodes(&filter);
                    let (nodes, runs) = full_scan(&db, &filter);
                    assert_eq!((&set.nodes, &set.runs), (&nodes, &runs), "world {world}: {filter}");
                    let cluster = filter.implied_cluster().and_then(|c| db.cluster_ids.get(c));
                    match (cluster, scanned < db.all_nodes.len()) {
                        (Some(_), _) => by_cluster += 1,
                        (None, true) => by_site += 1,
                        (None, false) => whole += 1,
                    }
                }
            }
        }
        // Every scan range is reached, the site's most of all.
        assert!(by_site > 500 && by_cluster > 500 && whole > 500, "{by_site} {by_cluster} {whole}");
    }
}
