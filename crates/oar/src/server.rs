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
//! arena.
//!
//! Two queries matter to the paper's external test scheduler (slide 17):
//! "are this request's resources available *right now*?" and "can this
//! request *ever* run here?" — one cannot just submit a job and wait. Both
//! are the same planner, `find_assignment`: asked about this instant, and
//! asked with reservations ignored. So a request the server accepts is one
//! it can start on an idle part, and one it refuses as
//! [`SubmitError::Unsatisfiable`] is one no instant could ever start.
//! However a job ends — walltime, early completion, cancellation, failure —
//! it ends in `end_job`.

use crate::ast::{Count, Expr, Level, RequestGroup, ResourceRequest};
use crate::eval::eval;
use crate::gantt::Gantt;
use crate::job::{Job, JobId, JobKind, JobState, Queue};
// detlint: allow(no-unordered-iteration) -- HashMap/HashSet here back the match cache and waiting-set membership test only; neither is ever iterated
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, PoisonError, RwLock};
use ttt_refapi::{all_properties, PropertyMap, TestbedDescription};
use ttt_sim::{Buggify, EventQueue, SimDuration, SimTime};
use ttt_testbed::{ClusterId, Node, NodeId, Testbed};

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

/// What ending a job does to the reservation it holds.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Nothing: the reservation ends at this very instant by itself.
    Keep,
    /// All of it goes, the part already elapsed included.
    Whole,
    /// It is cut short at this instant; the elapsed part stays.
    FromNow,
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
/// are the same code: nothing below asks how many parts there are.
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
    /// Owning cluster per node. The per-cluster caches are indexed by
    /// `ClusterId` directly (dense copy type), so the per-node hot paths
    /// never hash a cluster-name string.
    cluster_of_node: Vec<ClusterId>,
    /// Cluster names in `ClusterId` order (index space of the caches).
    cluster_names: Vec<String>,
    /// Cluster name → id, used once when resolving a filter's string
    /// cluster reference; everything downstream carries the `ClusterId`.
    cluster_ids: BTreeMap<String, ClusterId>,
    /// Node ids per cluster (`ClusterId`-indexed), in node order.
    nodes_of_cluster: Vec<Vec<NodeId>>,
    /// All node ids (scan fallback for cluster-agnostic filters).
    all_nodes: Vec<NodeId>,
    /// Node ids per part, in node order: a server's slot → node table.
    nodes_of_part: Vec<Vec<NodeId>>,
    /// Per node, its part and its slot in that part's
    /// [`ResourceDb::nodes_of_part`] row — the one node → slot table every
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
    Many(Vec<Arc<MatchSet>>),
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

impl ResourceDb {
    /// Load the database from a testbed and its published description, as
    /// a single part: what a stand-alone server plans over.
    pub fn load(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::load_parts(tb, desc, 1, |_| 0)
    }

    /// Load the database with one part per site, in site order: what a
    /// federation's per-site servers share.
    pub(crate) fn load_by_site(tb: &Testbed, desc: &TestbedDescription) -> Self {
        Self::load_parts(tb, desc, tb.sites().len(), |node| node.site.index())
    }

    fn load_parts(
        tb: &Testbed,
        desc: &TestbedDescription,
        parts: usize,
        part_of: impl Fn(&Node) -> usize,
    ) -> Self {
        let by_name = all_properties(desc);
        let mut props = Vec::with_capacity(tb.nodes().len());
        let mut cluster_of_node = Vec::with_capacity(tb.nodes().len());
        let mut nodes_of_part: Vec<Vec<NodeId>> = vec![Vec::new(); parts];
        let mut slot_of_node = Vec::with_capacity(tb.nodes().len());
        for node in tb.nodes() {
            props.push(by_name.get(&node.name).cloned().unwrap_or_default());
            cluster_of_node.push(node.cluster);
            let part = part_of(node);
            slot_of_node.push((part as u32, nodes_of_part[part].len() as u32));
            nodes_of_part[part].push(node.id);
        }
        // The testbed's ClusterIds are dense, so they ARE the cache index
        // space — no separate interning pass.
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
            all_nodes: (0..tb.nodes().len()).map(NodeId::from).collect(),
            nodes_of_part,
            slot_of_node,
            // detlint: allow(no-unordered-iteration) -- see the field: lookup-only cache, never iterated
            match_cache: RwLock::new(HashMap::new()),
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

    /// The node ids a filter can possibly match: its implied cluster's
    /// nodes, or every node when the filter may span clusters.
    fn scan_range(&self, filter: &Expr) -> &[NodeId] {
        match filter
            .implied_cluster()
            .and_then(|name| self.cluster_ids.get(name))
        {
            Some(&c) => &self.nodes_of_cluster[c.index()],
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
    gantt: Gantt,
    jobs: BTreeMap<JobId, Job>,
    /// Jobs currently in `Waiting` state, FCFS order. Cancellation removes
    /// from `waiting_set` only; stale deque entries are skipped lazily, so
    /// no O(n) `retain` runs per job.
    waiting: VecDeque<JobId>,
    // detlint: allow(no-unordered-iteration) -- hot membership test mirroring `waiting` (which owns the order); never iterated
    waiting_set: HashSet<JobId>,
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
    /// Last reservation-history garbage collection.
    last_gc: SimTime,
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
        let nodes = &db.nodes_of_part[part];
        let cluster_of_slot = nodes
            .iter()
            .map(|n| db.cluster_of_node[n.index()].index() as u32)
            .collect();
        OarServer {
            node_states: vec![NodeState::Alive; nodes.len()],
            gantt: Gantt::new(cluster_of_slot, db.cluster_names.len()),
            db,
            part,
            jobs: BTreeMap::new(),
            waiting: VecDeque::new(),
            // detlint: allow(no-unordered-iteration) -- see the field: membership only
            waiting_set: HashSet::new(),
            waiting_scratch: VecDeque::new(),
            next_job: 1,
            first_live: 1,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimDuration::from_days(7),
            last_replan_check: SimTime::ZERO,
            last_gc: SimTime::ZERO,
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
    pub fn jobs(&self) -> &BTreeMap<JobId, Job> {
        &self.jobs
    }

    /// The jobs not yet in a final state, in id order, without walking the
    /// finished past: what `oarstat` lists.
    pub fn live_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs
            .range(JobId(self.first_live)..)
            .map(|(_, job)| job)
            .filter(|job| !job.state.is_final())
    }

    /// One job.
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// The nodes this server schedules, in node order.
    pub(crate) fn own_nodes(&self) -> &[NodeId] {
        &self.db.nodes_of_part[self.part]
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
        self.sync_nodes_inner(tb, &db.nodes_of_part[self.part]);
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
                (false, _) => {
                    self.node_states[slot] = NodeState::Dead;
                    if let Some(r) = self.gantt.timeline(slot).active_at(self.now) {
                        to_fail.push(r.job);
                    }
                }
                (true, NodeState::Dead) => self.node_states[slot] = NodeState::Alive,
                (true, _) => {}
            }
        }
        // No pass in between: the caller plans once, over everything freed.
        for job in to_fail {
            self.end_job(job, JobState::Error, Release::Whole);
        }
        any
    }

    /// Number of nodes busy (running a job) right now.
    pub fn busy_nodes(&self) -> usize {
        self.gantt.busy_count(self.now)
    }

    /// Number of nodes currently in the `Alive` state.
    pub fn alive_nodes(&self) -> usize {
        self.node_states
            .iter()
            .filter(|s| matches!(s, NodeState::Alive))
            .count()
    }

    /// Fraction of alive nodes currently busy.
    pub fn utilization(&self) -> f64 {
        let alive = self.alive_nodes();
        if alive == 0 {
            0.0
        } else {
            self.busy_nodes() as f64 / alive as f64
        }
    }

    /// Number of jobs currently waiting — the queue-depth view a campaign
    /// snapshot captures. O(1): `waiting_set` holds exactly the live
    /// waiting ids, while the deque may carry stale entries.
    pub fn waiting_count(&self) -> usize {
        self.waiting_set.len()
    }

    /// The next instant at which this server's state can change on its own:
    /// the earliest pending job start/end event, or the instant a
    /// beyond-horizon reservation end slides into the planning window and
    /// re-planning of waiting jobs becomes worthwhile. `None` when nothing
    /// is pending — an event-driven orchestrator can skip ahead freely.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let replan = if self.waiting_set.is_empty() {
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
    /// runs immediately).
    pub fn submit(
        &mut self,
        user: &str,
        queue: Queue,
        kind: JobKind,
        request: ResourceRequest,
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
        self.validate(&request, self.db.resolve(&request).as_slice())?;
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            id,
            Job {
                id,
                user: user.to_string(),
                queue,
                kind,
                request,
                state: JobState::Waiting,
                submitted_at: self.now,
                scheduled_start: None,
                started_at: None,
                ended_at: None,
                assigned: Vec::new(),
            },
        );
        self.waiting.push_back(id);
        self.waiting_set.insert(id);
        self.schedule();
        Ok(id)
    }

    /// Would `request` start immediately if submitted right now? Returns the
    /// assignment without booking anything. This is the availability check
    /// the external test scheduler polls before triggering a build.
    pub fn immediate_assignment(&self, request: &ResourceRequest) -> Option<Vec<NodeId>> {
        self.find_assignment(request, self.db.resolve(request).as_slice(), Some(self.now))
    }

    /// Whether this server's resources can *ever* satisfy `request`: whether
    /// [`OarServer::immediate_assignment`] would find room for it on this
    /// server's alive nodes if none of them were reserved.
    pub fn can_satisfy(&self, request: &ResourceRequest) -> bool {
        self.can_queue(request, self.db.resolve(request).as_slice())
    }

    /// [`OarServer::immediate_assignment`]`.is_some()` over match-sets the
    /// caller already resolved: a federation resolves a request once and
    /// asks several domains.
    pub(crate) fn can_start(&self, request: &ResourceRequest, sets: &[Arc<MatchSet>]) -> bool {
        self.find_assignment(request, sets, Some(self.now)).is_some()
    }

    /// [`OarServer::can_satisfy`] over already-resolved match-sets; decides
    /// which scheduling domain a request may queue on.
    pub(crate) fn can_queue(&self, request: &ResourceRequest, sets: &[Arc<MatchSet>]) -> bool {
        self.validate(request, sets).is_ok()
    }

    /// Cancel a job (waiting, scheduled or running).
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.end_and_replan(id, JobState::Canceled, Release::Whole)
    }

    /// A running job finished early (tests usually do).
    pub fn complete_early(&mut self, id: JobId) -> bool {
        self.end_and_replan(id, JobState::Terminated, Release::FromNow)
    }

    /// [`OarServer::end_job`], then a scheduling pass over what that freed.
    fn end_and_replan(&mut self, id: JobId, state: JobState, release: Release) -> bool {
        let ended = self.end_job(id, state, release);
        if ended {
            self.schedule();
        }
        ended
    }

    /// The one way a job ends: `id` enters the final `state` at this
    /// instant and its reservation is treated as `release` says. Only a
    /// running job terminates; any job not yet final can be cancelled or
    /// fail. Returns whether the job ended — `false` for an unknown id or
    /// a transition that rule forbids, and then nothing changed.
    fn end_job(&mut self, id: JobId, state: JobState, release: Release) -> bool {
        debug_assert!(state.is_final());
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        let may_end = match state {
            JobState::Terminated => job.state == JobState::Running,
            _ => !job.state.is_final(),
        };
        if !may_end {
            return false;
        }
        if job.state == JobState::Waiting {
            // The deque entry goes stale and is skipped lazily.
            self.waiting_set.remove(&id);
        }
        job.state = state;
        job.ended_at = Some(self.now);
        let slots = job.assigned.iter().map(|&n| self.db.slot(self.part, n));
        match release {
            Release::Keep => {}
            Release::Whole => self.gantt.release(id, slots),
            Release::FromNow => self.gantt.truncate(id, slots, self.now),
        }
        if id.0 == self.first_live {
            let finals = self.jobs.range(id..).take_while(|(_, j)| j.state.is_final());
            self.first_live += finals.count() as u64;
        }
        true
    }

    /// Advance virtual time to `to`, firing job starts/ends on the way.
    pub fn advance(&mut self, to: SimTime) {
        assert!(to >= self.now, "time cannot go backwards");
        while let Some((t, ev)) = self.events.pop_due(to) {
            self.now = t;
            match ev {
                OarEvent::JobShouldStart(id) => self.start_job(id),
                // Stale when the job already ended (early, cancelled,
                // failed); its reservation ends here by itself.
                OarEvent::JobShouldEnd(id) => {
                    self.end_and_replan(id, JobState::Terminated, Release::Keep);
                }
            }
        }
        self.now = to;
        // A reservation end sliding into the planning horizon can unblock a
        // job that was unplaceable on every earlier pass: re-plan exactly
        // when one enters the window.
        if !self.waiting_set.is_empty() {
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
        // Daily GC of finished reservations keeps timelines short over
        // months-long campaigns.
        if to.since(self.last_gc) >= SimDuration::from_days(1) {
            self.last_gc = to;
            // Keep a one-minute grace window so `busy_at(now)` queries on
            // just-finished reservations stay accurate.
            let horizon = if to.as_secs() > 60 {
                to - SimDuration::from_secs(60)
            } else {
                SimTime::ZERO
            };
            self.gantt.gc(horizon);
        }
    }

    fn start_job(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        if job.state != JobState::Scheduled {
            return;
        }
        // If an assigned node died since planning, the job errors out.
        let dead = job.assigned.iter().any(|&n| {
            let state = self.node_states[self.db.slot(self.part, n)];
            !matches!(state, NodeState::Alive)
        });
        if dead {
            self.end_and_replan(id, JobState::Error, Release::Whole);
            return;
        }
        let now = self.now;
        job.state = JobState::Running;
        job.started_at = Some(now);
        let ends_at = now + job.request.walltime;
        self.events.push(ends_at, OarEvent::JobShouldEnd(id));
    }

    /// Plan every waiting job (FCFS, conservative backfilling).
    fn schedule(&mut self) {
        // Anything a pass can place is derived from candidates within
        // `now + horizon`; later entries are caught by the re-plan check.
        self.last_replan_check = self.now;
        if self.waiting_set.is_empty() {
            self.waiting.clear();
            return;
        }
        let mut still = std::mem::take(&mut self.waiting_scratch);
        still.clear();
        while let Some(id) = self.waiting.pop_front() {
            if !self.waiting_set.contains(&id) {
                // Cancelled while queued: stale entry.
                continue;
            }
            // Plan from the stored request in place: only what booking
            // needs outlives the borrow.
            let Some(job) = self.jobs.get(&id) else { continue };
            let walltime = job.request.walltime;
            if let Some((start, assignment)) = self.earliest_assignment(&job.request) {
                let Some(job) = self.jobs.get_mut(&id) else { continue };
                self.waiting_set.remove(&id);
                let slots = assignment.iter().map(|&n| self.db.slot(self.part, n));
                self.gantt.book(id, slots, start, walltime);
                job.assigned = assignment;
                job.scheduled_start = Some(start);
                job.state = JobState::Scheduled;
                if start == self.now {
                    // Start immediately (same instant) — no event needed,
                    // which keeps `next_event_time` free of stale entries.
                    self.start_job(id);
                } else {
                    self.events.push(start, OarEvent::JobShouldStart(id));
                }
            } else {
                // Stays Waiting; re-planned on the next pass.
                still.push_back(id);
            }
        }
        self.waiting_scratch = std::mem::replace(&mut self.waiting, still);
    }

    /// Earliest `(start, assignment)` for a request within the horizon.
    ///
    /// Candidate start instants: now plus every reservation end within the
    /// horizon (a free window can only open when something ends), read off
    /// the Gantt's end index and narrowed to the clusters the request can
    /// touch: an end on an unrelated cluster never changes this request's
    /// feasibility, and feasibility between two relevant ends is monotone
    /// non-increasing, so dropping irrelevant instants cannot change the
    /// answer.
    fn earliest_assignment(&self, request: &ResourceRequest) -> Option<(SimTime, Vec<NodeId>)> {
        let limit = self.now + self.horizon;
        let ends = self.gantt.ends();
        let mut candidates: Vec<SimTime> = vec![self.now];
        match request.implied_clusters() {
            Some(names) => {
                for name in names {
                    // Unknown cluster names contribute no nodes, hence no
                    // candidate instants either.
                    if let Some(&c) = self.db.cluster_ids.get(name) {
                        ends.candidates_into(c.index(), self.now, limit, &mut candidates);
                    }
                }
                candidates.sort_unstable();
                candidates.dedup();
            }
            // Global keys are already ascending and unique, and all > now.
            None => ends.global_candidates_into(self.now, limit, &mut candidates),
        }
        let sets = self.db.resolve(request);
        candidates.into_iter().find_map(|t| {
            self.find_assignment(request, sets.as_slice(), Some(t))
                .map(|assignment| (t, assignment))
        })
    }

    /// The planner: a full assignment for `request` starting exactly at
    /// `start`, or — with no `start` — on this part with nothing reserved,
    /// which is what "can ever be satisfied here" means. `sets` holds the
    /// match-set of each group, in group order. A request for nothing (no
    /// group, or a zero count) has no assignment.
    fn find_assignment(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
        start: Option<SimTime>,
    ) -> Option<Vec<NodeId>> {
        debug_assert_eq!(request.groups.len(), sets.len());
        if request.groups.is_empty() {
            return None;
        }
        let window = start.map(|t| (t, request.walltime));
        let mut taken: Vec<NodeId> = Vec::new();
        for (group, set) in request.groups.iter().zip(sets) {
            let picked = self.find_group(group, set, window, &taken)?;
            taken.extend(picked);
        }
        Some(taken)
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

    fn find_group(
        &self,
        group: &RequestGroup,
        set: &MatchSet,
        window: Option<(SimTime, SimDuration)>,
        taken: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        if group.has_zero_count() {
            return None;
        }
        match group.hierarchy.as_slice() {
            [(Level::Nodes, Count::All)] => {
                // ALL = every alive node matching the filter must be free.
                let all: Vec<NodeId> = self.matching_alive(set, taken).collect();
                if all.is_empty() {
                    return None;
                }
                let free = all.iter().all(|&n| self.is_free(n, window));
                free.then_some(all)
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
                let mut picked = Vec::new();
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
                    let free = members.iter().filter(|&&n| self.is_free(n, window));
                    let given: Vec<NodeId> = free.take(wanted).copied().collect();
                    if given.len() == wanted {
                        picked.extend(given);
                        clusters_left -= 1;
                    }
                }
                (clusters_left == 0).then_some(picked)
            }
            // `nodes=N` and, allocating whole nodes for the equivalent
            // node count (at least one), core/CPU-level or exotic
            // hierarchies: the first `needed` eligible nodes, in node order.
            _ => {
                let needed = group.node_count().unwrap_or(1).max(1) as usize;
                let eligible = self
                    .matching_alive(set, taken)
                    .filter(|&n| self.is_free(n, window));
                let picked: Vec<NodeId> = eligible.take(needed).collect();
                (picked.len() == needed).then_some(picked)
            }
        }
    }

    /// Debug/property-test validation: the Gantt's end index must exactly
    /// mirror a linear scan over every node timeline (see
    /// [`Gantt::divergence`]).
    // detlint: allow(unarmed-service-fn) -- internal invariant audit; a failure here is a simulator bug, not a service fault to inject
    pub fn check_end_index_consistency(&self) -> Result<(), String> {
        self.gantt.divergence().map_or(Ok(()), Err)
    }

    // detlint: allow(unarmed-service-fn) -- admission validation runs behind the oar-submit arm in submit(); the arm already injects refusals on this path
    fn validate(
        &self,
        request: &ResourceRequest,
        sets: &[Arc<MatchSet>],
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
        match self.find_assignment(request, sets, None) {
            Some(_) => Ok(()),
            None => Err(SubmitError::Unsatisfiable),
        }
    }
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
}
