//! The read plane: immutable epoch snapshots and the multi-tenant query
//! engine.
//!
//! The paper's testbed exists to *serve researchers*: the reference API,
//! status pages and metrics series are the product. This module separates
//! that read side from the mutable write plane. At every sample-cadence
//! instant the campaign's [`Publisher`] freezes an immutable, `Arc`-shared
//! [`CampaignSnapshot`] — job histories, per-site queue depths, service
//! liveness, the testbed description version with its property database,
//! and per-node power windows — into a [`SnapshotHub`]. Any number of
//! concurrent readers then answer typed [`Query`]s against any held epoch
//! through [`QueryEngine`], without ever touching live campaign state.
//! What an epoch contains and what is sampled against it is decided here,
//! in [`Publisher::publish`]; the campaign only says when.
//!
//! ## Determinism contract
//!
//! * Query answers are pure functions of `(epoch, query)`:
//!   [`QueryEngine::answer`] receives only the snapshot and the query.
//! * Both campaign engines publish identical snapshot sequences —
//!   every published snapshot is folded into a running digest
//!   ([`fold_snapshot`]) compared across engines by the equivalence suite.
//! * Arming the read plane never perturbs the campaign digest: the query
//!   mix draws from its own dedicated `"queries"` RNG stream, read-side
//!   chaos decisions hash monotone read counters, and nothing on the read
//!   path writes campaign state.
//!
//! ## Sharing contract
//!
//! An epoch costs what was sampled and what finished since the previous
//! one, because every section that did not change is the *same
//! allocation* as last epoch's and no section is re-derived from its past:
//!
//! * **Shared across epochs** (and with the write plane) — each job's
//!   name and its sealed history segments (`Arc<[Build]>`, see
//!   [`ttt_ci::history`]); the [`PropertyDb`] of the served description
//!   version, maps and node index both, built at the first publish of a
//!   version; the service rows, for as long as every row still renders
//!   its process; site names, in service rows and queue rows alike. The
//!   [`Publisher`] owns the caches that make this so (the property
//!   database by version, the site names, the rows last published) — no
//!   other code can hand an epoch a second copy.
//! * **Copied every epoch** — each job's open tail (builds that may still
//!   change, at most a segment plus what is in flight); one queue row per
//!   site; one power window per label sampled since the previous epoch
//!   ([`MetricStore::windows`] opens no other ring). These are the facts
//!   that move between epochs.
//! * **When a segment seals** — once the leading builds of a job's tail
//!   fill a segment (a private constant of [`ttt_ci::history`]) and all
//!   have a result. A build stuck unfinished only delays sealing: builds
//!   behind it stay in the (copied) tail, in order.
//!
//! Nothing else holds history, and no reader needs another shape of it:
//! the status page renders `&snap.jobs` and `snap.services` as they are.
//! A [`QueryAnswer::Nodes`] answer is the index's own list, not a copy.
//! The snapshot fold is a fold over open tails: each history carries the
//! tally of its sealed part ([`ttt_ci::JobHistory::tally`]). A status-cell
//! read walks the job's builds once, a prefix test and a short compare
//! each; a job-trend read walks them twice and replays only its first and
//! last buckets ([`ttt_ci::trend_ends`]), whatever the period. Neither
//! allocates.
//!
//! ## Locking honesty
//!
//! The crate forbids `unsafe`, so the hub is not a bare atomic-pointer
//! swap: it is a bounded ring behind an `RwLock` plus a lock-free epoch
//! counter. The critical sections are a single `Arc` clone (readers) and
//! a single push/evict (the writer) — readers never hold the lock while
//! evaluating queries, the writer frees the evicted epoch only after it
//! released the lock, and a reader holding an epoch's `Arc` keeps that
//! snapshot alive after eviction, so the writer never waits for readers
//! to finish with their data.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use ttt_ci::{cell_target, tally, trend_ends, CiServer, Finished, FrozenJob};
use ttt_kwapi::{MetricStore, WindowAgg};
use ttt_oar::Federation;
use ttt_refapi::{all_properties, PropertyDb, RefApi};
// Re-exported so read-plane consumers get the full typed query surface
// from one module.
pub use ttt_refapi::{Query, QueryAnswer};
use ttt_sim::rpc::Liveness;
use ttt_sim::{SimDuration, SimTime};
use ttt_testbed::{ProcessEntry, Testbed};

/// One site's OAR queue, as captured at the publish instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteQueueView {
    /// Site name (shared with every other row naming the site).
    pub site: Arc<str>,
    /// Jobs waiting in the site's OAR queue.
    pub waiting: u64,
    /// Jobs this site absorbed away from their home site so far.
    pub spillovers: u64,
}

/// One service process, flattened for presentation. The only rendering
/// of a registry entry: an epoch holds these rows and the status page's
/// panel shows the same `Arc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceLiveness {
    /// Service name (e.g. `oar-server`).
    pub service: &'static str,
    /// Site name the process serves (shared with every other row naming
    /// the site).
    pub site: Arc<str>,
    /// Host node index, if pinned.
    pub host: Option<u32>,
    /// Rendered liveness: `up`, `CRASHED` or `restarting@<min>m`.
    pub state: String,
    /// Whether the process answers right now.
    pub up: bool,
    /// Lifetime halts (crash or restart faults).
    pub crashes: u64,
    /// Lifetime recoveries.
    pub restarts: u64,
    /// Calls the RPC envelope refused or dropped.
    pub dropped_calls: u64,
}

/// The status page's rendering of a liveness state.
fn state_label(state: Liveness) -> String {
    match state {
        Liveness::Up => "up".to_string(),
        Liveness::Crashed => "CRASHED".to_string(),
        Liveness::RestartingAt(t) => format!("restarting@{}m", t.as_secs() / 60),
    }
}

/// Every site's name in site order — which is also scheduling-domain
/// order, the federation building one domain per site.
fn site_names(tb: &Testbed) -> Vec<Arc<str>> {
    tb.sites().iter().map(|s| s.name.as_str().into()).collect()
}

impl ServiceLiveness {
    fn of(e: &ProcessEntry, sites: &[Arc<str>]) -> ServiceLiveness {
        ServiceLiveness {
            service: e.id.kind.name(),
            // The registry holds one entry per service of each site.
            site: Arc::clone(&sites[e.id.site.index()]),
            host: e.host.map(|n| n.0),
            state: state_label(e.state),
            up: e.state.is_up(),
            crashes: e.crashes,
            restarts: e.restarts,
            dropped_calls: e.dropped_calls,
        }
    }

    /// Whether this row is still what `e` renders as. Identity (service,
    /// site, host) is fixed at registration; only the ledger and the
    /// state move. Allocates only while the process is restarting.
    fn renders(&self, e: &ProcessEntry) -> bool {
        self.crashes == e.crashes
            && self.restarts == e.restarts
            && self.dropped_calls == e.dropped_calls
            && match e.state {
                Liveness::Up => self.state == "up",
                Liveness::Crashed => self.state == "CRASHED",
                restarting => self.state == state_label(restarting),
            }
    }

    /// Every registered service process of a live testbed, as an epoch
    /// would hold them.
    pub fn rows_from_testbed(tb: &Testbed) -> Arc<[ServiceLiveness]> {
        Self::rows(tb, &site_names(tb))
    }

    fn rows(tb: &Testbed, sites: &[Arc<str>]) -> Arc<[ServiceLiveness]> {
        tb.processes()
            .iter()
            .map(|e| ServiceLiveness::of(e, sites))
            .collect()
    }
}

/// The service rows of `tb` as it stands: `cached` itself while every row
/// still renders its process, a fresh rendering (naming sites by `sites`)
/// once any differs.
fn refreshed_services(
    cached: &Arc<[ServiceLiveness]>,
    tb: &Testbed,
    sites: &[Arc<str>],
) -> Arc<[ServiceLiveness]> {
    let mut entries = tb.processes().iter();
    let unchanged = cached
        .iter()
        .all(|row| entries.next().is_some_and(|e| row.renders(e)))
        && entries.next().is_none();
    if unchanged {
        Arc::clone(cached)
    } else {
        ServiceLiveness::rows(tb, sites)
    }
}

/// One immutable epoch of campaign state, shared by `Arc` with every
/// reader that holds it.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// Epoch number, 1-based and strictly increasing.
    pub epoch: u64,
    /// Publish instant (a sample-cadence grid instant).
    pub at: SimTime,
    /// CI build histories, registration-ordered: names and sealed
    /// segments shared with the server and every other epoch, open tails
    /// copied at the publish instant.
    pub jobs: Vec<FrozenJob>,
    /// Per-site queue depths and spillovers, in domain (site) order.
    pub queues: Vec<SiteQueueView>,
    /// Service process rows, registry-ordered (shared with the previous
    /// epoch while no row changed).
    pub services: Arc<[ServiceLiveness]>,
    /// Version of the testbed description this epoch serves. Carried
    /// stale over refused describe reads under chaos; `None` until the
    /// first successful read.
    pub description_version: Option<u64>,
    /// The OAR property database derived from that description, with its
    /// node index (shared — rebuilt only when the version changes).
    pub properties: Arc<PropertyDb>,
    /// Per-node power windows over `[window_from, window_to)`, ascending
    /// node id. Nodes with no samples (or whose window read was refused
    /// under chaos) have no row.
    pub windows: Vec<(u32, WindowAgg)>,
    /// Start of the power window (the previous sample instant).
    pub window_from: SimTime,
    /// End of the power window (the publish instant, exclusive).
    pub window_to: SimTime,
}

/// The epoch-tagged snapshot exchange between the write plane and its
/// readers. See the module docs for the locking contract.
#[derive(Debug)]
pub struct SnapshotHub {
    /// Bounded ring of the most recent epochs, newest at the back.
    ring: RwLock<VecDeque<Arc<CampaignSnapshot>>>,
    /// Epoch of the newest published snapshot (0 before the first).
    published: AtomicU64,
    capacity: usize,
}

impl SnapshotHub {
    /// A hub retaining the `capacity` most recent epochs (at least one).
    pub fn new(capacity: usize) -> Self {
        SnapshotHub {
            ring: RwLock::new(VecDeque::with_capacity(capacity.max(1))),
            published: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// The ring, for reading. A tenant that panicked holding the lock
    /// poisons it, but every critical section is one push with at most
    /// one pop, one `Arc` clone or one `len`: the ring is consistent at
    /// every unlock, so the guard is recovered and the plane stays up.
    fn read(&self) -> RwLockReadGuard<'_, VecDeque<Arc<CampaignSnapshot>>> {
        self.ring.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish the next epoch, evicting the oldest beyond capacity, and
    /// hand the caller its shared handle.
    pub fn publish(&self, snap: CampaignSnapshot) -> Arc<CampaignSnapshot> {
        let epoch = snap.epoch;
        let snap = Arc::new(snap);
        let evicted = {
            let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
            ring.push_back(Arc::clone(&snap));
            // One push per publish: at most one epoch is over capacity.
            if ring.len() > self.capacity {
                ring.pop_front()
            } else {
                None
            }
        };
        self.published.store(epoch, Ordering::Release);
        // Tearing the evicted epoch down (if this was its last handle) is
        // the writer's own time, not the readers': the lock is released.
        drop(evicted);
        snap
    }

    /// The newest epoch, if anything has been published.
    pub fn latest(&self) -> Option<Arc<CampaignSnapshot>> {
        self.read().back().cloned()
    }

    /// Epoch number of the newest published snapshot (0 before the
    /// first). Lock-free — a reader polling for a fresh epoch never
    /// touches the ring.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Number of epochs currently held.
    pub fn held(&self) -> usize {
        self.read().len()
    }
}

/// Read-plane traffic counters. All three fields are engine-equivalence
/// observables: engines publishing identical snapshot sequences must
/// issue, execute and fold identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total simulated query arrivals (the full daily volume).
    pub issued: u64,
    /// Queries concretely answered inline (bounded per epoch; the
    /// ledger's `read_plane` reader is where full volumes run).
    pub executed: u64,
    /// Running fold of every executed answer, bit-exact across engines.
    pub answer_fold: u64,
}

/// Upper bound on the queries the campaign answers inline per epoch. The
/// epoch's remaining arrivals are counted in [`QueryStats::issued`] —
/// simulating the *effect* of millions of users needs the volume and a
/// representative answered sample, not millions of inline evaluations.
pub const QUERY_SAMPLE_PER_EPOCH: u64 = 32;

/// The multi-tenant query engine: answers any typed [`Query`] against any
/// held epoch. Stateless — concurrency is the caller sharing snapshots
/// across threads, which is safe because snapshots are immutable.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryEngine;

impl QueryEngine {
    /// Answer one query against one epoch. Pure: same `(snapshot, query)`
    /// always yields the same answer, bit-for-bit (float paths reuse the
    /// exact accumulators the live views use).
    pub fn answer(snap: &CampaignSnapshot, q: &Query) -> QueryAnswer {
        match q {
            Query::StatusCell { job, target } => {
                let Some(frozen) = snap.jobs.iter().find(|j| *j.name == **job) else {
                    return QueryAnswer::NotFound;
                };
                let in_cell = |(cell, ..): &Finished<'_>| cell_target(*cell) == *target;
                let (total, pass) = tally(frozen.history.finished().filter(in_cell));
                if total == 0 {
                    QueryAnswer::NotFound
                } else {
                    QueryAnswer::Ratio { pass, total }
                }
            }
            Query::JobTrend { job, period_mins } => {
                let Some(frozen) = snap.jobs.iter().find(|j| *j.name == **job) else {
                    return QueryAnswer::NotFound;
                };
                // The two ends of the series the status page's
                // HistoryReport renders, to the last bit. `period_mins` is
                // outside input: the conversion saturates and the fold
                // takes no period shorter than a minute.
                let period = SimDuration::from_mins(*period_mins);
                match trend_ends(&frozen.history, period) {
                    Some((first, last)) => QueryAnswer::Trend { first, last },
                    None => QueryAnswer::NotFound,
                }
            }
            Query::NodeFilter { key, value } => {
                QueryAnswer::Nodes(snap.properties.matching(key, value))
            }
            Query::MetricsWindow { node } => {
                match snap.windows.binary_search_by_key(node, |(n, _)| *n) {
                    Ok(i) => {
                        let w = snap.windows[i].1;
                        QueryAnswer::Window {
                            count: w.count,
                            min: w.min,
                            mean: w.mean,
                            max: w.max,
                        }
                    }
                    Err(_) => QueryAnswer::NotFound,
                }
            }
            Query::QueueDepth { site } => snap
                .queues
                .iter()
                .find(|qv| *qv.site == **site)
                .map(|qv| QueryAnswer::Depth {
                    waiting: qv.waiting,
                    spillovers: qv.spillovers,
                })
                .unwrap_or(QueryAnswer::NotFound),
            Query::ServiceCensus => {
                let up = snap.services.iter().filter(|r| r.up).count() as u64;
                QueryAnswer::Census {
                    up,
                    down: snap.services.len() as u64 - up,
                }
            }
        }
    }
}

/// Draw one query of the mixed read workload against a published epoch.
/// Pure function of the RNG stream and the snapshot content, so engines
/// publishing identical snapshot sequences draw identical mixes.
pub fn random_query<R: Rng>(rng: &mut R, snap: &CampaignSnapshot) -> Query {
    let pick_job = |rng: &mut R| -> String {
        snap.jobs
            .choose(rng)
            .map(|j| j.name.to_string())
            .unwrap_or_else(|| "none".to_string())
    };
    let pick_site = |rng: &mut R| -> String {
        snap.queues
            .choose(rng)
            .map(|q| q.site.to_string())
            .unwrap_or_else(|| "nowhere".to_string())
    };
    match rng.gen_range(0..6u8) {
        0 => {
            let job = pick_job(rng);
            let target = if rng.gen_bool(0.25) {
                "global".to_string()
            } else {
                pick_site(rng)
            };
            Query::StatusCell { job, target }
        }
        1 => Query::JobTrend {
            job: pick_job(rng),
            period_mins: *[60u64, 360, 1440, 10_080]
                .choose(rng)
                .unwrap_or(&1440),
        },
        2 => {
            let (key, value) = match rng.gen_range(0..5u8) {
                0 => ("gpu", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                1 => ("ib", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                2 => ("eth10g", if rng.gen_bool(0.5) { "YES" } else { "NO" }),
                3 => ("disktype", if rng.gen_bool(0.5) { "SSD" } else { "HDD" }),
                _ => {
                    let site = pick_site(rng);
                    return Query::NodeFilter {
                        key: "site".to_string(),
                        value: site,
                    };
                }
            };
            Query::NodeFilter {
                key: key.to_string(),
                value: value.to_string(),
            }
        }
        3 => Query::MetricsWindow {
            node: snap
                .windows
                .choose(rng)
                .map(|(n, _)| *n)
                .unwrap_or(u32::MAX),
        },
        4 => Query::QueueDepth { site: pick_site(rng) },
        _ => Query::ServiceCensus,
    }
}

/// FNV-1a-flavoured 64-bit mixer behind the determinism folds.
fn mix(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23)
}

fn mix_str(acc: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix(acc, s.len() as u64), |a, b| mix(a, b as u64))
}

/// Fold one answer into a running digest, bit-exact (floats by their raw
/// bits). The campaign folds every inline answer so engine equivalence
/// covers query *results*, not just query counts.
pub fn fold_answer(acc: u64, a: &QueryAnswer) -> u64 {
    match a {
        QueryAnswer::Ratio { pass, total } => mix(mix(mix(acc, 1), *pass), *total),
        QueryAnswer::Trend { first, last } => {
            mix(mix(mix(acc, 2), first.to_bits()), last.to_bits())
        }
        QueryAnswer::Nodes(names) => names
            .iter()
            .fold(mix(mix(acc, 3), names.len() as u64), |h, n| mix_str(h, n)),
        QueryAnswer::Window {
            count,
            min,
            mean,
            max,
        } => mix(
            mix(
                mix(mix(mix(acc, 4), *count as u64), min.to_bits()),
                mean.to_bits(),
            ),
            max.to_bits(),
        ),
        QueryAnswer::Depth {
            waiting,
            spillovers,
        } => mix(mix(mix(acc, 5), *waiting), *spillovers),
        QueryAnswer::Census { up, down } => mix(mix(mix(acc, 6), *up), *down),
        QueryAnswer::NotFound => mix(acc, 7),
    }
}

/// Fold one published snapshot into a running digest. The fold covers
/// every section structurally (job histories, queues, liveness rows,
/// description version, property count, window stats with float bits), so
/// "both engines publish identical snapshot sequences" is a single
/// u64 comparison per campaign.
pub fn fold_snapshot(acc: u64, s: &CampaignSnapshot) -> u64 {
    let mut h = mix(acc, s.epoch);
    h = mix(h, s.at.as_nanos());
    for job in &s.jobs {
        h = mix_str(h, &job.name);
        h = mix(h, job.history.len() as u64);
        let (finished, ok) = job.history.tally();
        h = mix(mix(h, finished), ok);
    }
    for q in &s.queues {
        h = mix(mix(mix_str(h, &q.site), q.waiting), q.spillovers);
    }
    for r in s.services.iter() {
        h = mix_str(mix_str(h, r.service), &r.state);
        h = mix(mix(mix(h, r.crashes), r.restarts), r.dropped_calls);
    }
    h = mix(h, s.description_version.unwrap_or(0));
    h = mix(h, s.properties.nodes().len() as u64);
    for (node, w) in &s.windows {
        h = mix(mix(h, *node as u64), w.count as u64);
        h = mix(mix(mix(h, w.min.to_bits()), w.mean.to_bits()), w.max.to_bits());
    }
    h
}

/// Queries that have arrived `elapsed_nanos` into a load of `per_day`
/// queries per simulated day (none for a rate that is not positive).
///
/// Query traffic never touches the scheduler, so it needs no Poisson
/// machinery — the volume is what matters. A publish window gets this
/// *cumulative* floor target minus what was already issued, so there is
/// no per-window float accumulation to drift: the total after any whole
/// number of days is exactly `per_day × days`, and the count sequence is
/// a pure function of the window sequence (identical across engines, no
/// RNG involved).
fn arrived_by(per_day: f64, elapsed_nanos: u64) -> u64 {
    (per_day * (elapsed_nanos as f64 / 86_400e9)).floor() as u64
}

/// The write plane's end of the read plane: what a published epoch
/// contains and what is sampled against it, with the state that serves
/// only that. A plain struct — the campaign holds one, reads the hub, the
/// counters and the fold off it, and calls [`Publisher::publish`] at
/// every sample instant.
pub struct Publisher {
    /// The snapshot exchange. `None` until armed: no epochs publish.
    pub(crate) hub: Option<Arc<SnapshotHub>>,
    /// Epochs published so far (the next snapshot's epoch − 1).
    epoch: u64,
    /// Configured read traffic, and the time it has been arriving for
    /// (the sum of the publish windows): see [`arrived_by`].
    queries_per_day: f64,
    elapsed_nanos: u64,
    /// Size of the user population sampled queries are attributed to.
    query_users: u64,
    /// The read plane's dedicated RNG stream. Drawn only while armed with
    /// a non-zero query volume, and independent of every write-plane
    /// stream by construction, so arming never shifts the campaign.
    rng_queries: SmallRng,
    /// Read-plane traffic counters (engine-equivalence observables when
    /// the plane is armed identically across engines).
    pub(crate) query_stats: QueryStats,
    /// Running fold over every published snapshot — the "both engines
    /// publish identical snapshot sequences" observable.
    pub(crate) snapshot_fold: u64,
    /// Property database (maps and node index) derived from the last
    /// successfully described testbed version (recomputed only on version
    /// changes; carried stale over chaos-refused describe reads).
    props_cache: Option<(u64, Arc<PropertyDb>)>,
    /// Site names in site (= scheduling-domain) order, shared by every
    /// service and queue row of every epoch. Filled at the first publish.
    site_names: Vec<Arc<str>>,
    /// The service rows last published; the next epoch shares them while
    /// every row still renders its process.
    service_rows: Arc<[ServiceLiveness]>,
    /// Power-window rows of the last epoch: the next one's size hint.
    window_rows: usize,
}

impl Publisher {
    /// A publisher of `queries_per_day` queries from `query_users` users,
    /// armed from the start when there is query volume.
    pub fn new(queries_per_day: f64, query_users: u64, rng_queries: SmallRng) -> Self {
        let mut publisher = Publisher {
            hub: None,
            epoch: 0,
            queries_per_day,
            elapsed_nanos: 0,
            query_users,
            rng_queries,
            query_stats: QueryStats::default(),
            snapshot_fold: 0,
            props_cache: None,
            site_names: Vec::new(),
            service_rows: Arc::default(),
            window_rows: 0,
        };
        if queries_per_day > 0.0 {
            publisher.arm();
        }
        publisher
    }

    /// Arm publishing (idempotent) and return the hub.
    pub fn arm(&mut self) -> Arc<SnapshotHub> {
        Arc::clone(
            self.hub
                .get_or_insert_with(|| Arc::new(SnapshotHub::new(16))),
        )
    }

    /// Publish one epoch, if armed: freeze every consumer view at
    /// `window.end` into an immutable [`CampaignSnapshot`] (power windows
    /// span `window`, the time since the previous sample), fold it into
    /// the engine-equivalence digest, hand it to the hub, then serve this
    /// epoch's inline query sample. Sections that did not move since the
    /// last epoch are shared with it, not rebuilt (the module's sharing
    /// contract). Only the read counters of `refapi` and `kwapi` are
    /// written, so arming is digest-neutral (the query-plane suite).
    pub fn publish(
        &mut self,
        tb: &Testbed,
        refapi: &mut RefApi,
        kwapi: &mut MetricStore,
        fed: &Federation,
        ci: &CiServer,
        window: Range<SimTime>,
    ) {
        let Some(hub) = &self.hub else { return };
        let (from, t) = (window.start, window.end);
        // Description version + property database, re-derived only when
        // the version moved. A chaos-refused describe carries the stale
        // epoch — exactly what a cached reference-API mirror would serve.
        if let Ok(d) = refapi.describe_latest() {
            let version = d.version;
            if self.props_cache.as_ref().map(|(v, _)| *v) != Some(version) {
                let db = PropertyDb::new(all_properties(d));
                self.props_cache = Some((version, Arc::new(db)));
            }
        }
        // Per-node power windows over [from, t): nodes that never sampled
        // have no row; a chaos-refused window read drops its row.
        let mut windows = Vec::with_capacity(self.window_rows);
        kwapi.windows(from, t, |node, agg| windows.push((node.0, agg)));
        self.window_rows = windows.len();
        if self.site_names.is_empty() {
            self.site_names = site_names(tb);
        }
        let depths = fed.queue_depths();
        let spill = fed.spillovers_by_domain();
        let queues = self
            .site_names
            .iter()
            .enumerate()
            .map(|(i, site)| SiteQueueView {
                site: Arc::clone(site),
                waiting: depths.get(i).copied().unwrap_or(0) as u64,
                spillovers: spill.get(i).copied().unwrap_or(0),
            })
            .collect();
        self.service_rows = refreshed_services(&self.service_rows, tb, &self.site_names);
        self.epoch += 1;
        let snap = CampaignSnapshot {
            epoch: self.epoch,
            at: t,
            jobs: ci.freeze_history(),
            queues,
            services: Arc::clone(&self.service_rows),
            description_version: self.props_cache.as_ref().map(|(v, _)| *v),
            properties: self
                .props_cache
                .as_ref()
                .map(|(_, p)| Arc::clone(p))
                .unwrap_or_default(),
            windows,
            window_from: from,
            window_to: t,
        };
        self.snapshot_fold = fold_snapshot(self.snapshot_fold, &snap);
        let snap = hub.publish(snap);
        // This epoch's query traffic: count the full arrival volume,
        // answer a bounded representative sample inline, fold the answers.
        self.elapsed_nanos = self.elapsed_nanos.saturating_add(t.since(from).as_nanos());
        let arrivals = arrived_by(self.queries_per_day, self.elapsed_nanos)
            .saturating_sub(self.query_stats.issued);
        self.query_stats.issued += arrivals;
        for _ in 0..arrivals.min(QUERY_SAMPLE_PER_EPOCH) {
            let user = self.rng_queries.gen_range(0..self.query_users.max(1));
            let q = random_query(&mut self.rng_queries, &snap);
            let a = QueryEngine::answer(&snap, &q);
            self.query_stats.executed += 1;
            self.query_stats.answer_fold = fold_answer(self.query_stats.answer_fold ^ user, &a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_ci::{BuildResult, Cause, CiServer, JobKind, JobSpec};

    /// One `disk` job whose builds ran through a real server.
    fn disk_history() -> Vec<FrozenJob> {
        let mut ci = CiServer::new(1);
        ci.register(JobSpec {
            name: "disk".into(),
            kind: JobKind::Freestyle,
            trigger: None,
        });
        for (cell, result, day) in [
            ("cluster=east", BuildResult::Failure, 1),
            ("cluster=east", BuildResult::Success, 9),
            ("site=west", BuildResult::Success, 9),
        ] {
            ci.advance(SimTime::from_days(day));
            ci.trigger_cells("disk", Cause::Cron, &[cell.to_string()]);
            for work in ci.assign() {
                ci.finish(&work.build, result, vec![]);
            }
        }
        ci.freeze_history()
    }

    fn snap(epoch: u64) -> CampaignSnapshot {
        CampaignSnapshot {
            epoch,
            at: SimTime::from_days(epoch),
            jobs: disk_history(),
            queues: vec![SiteQueueView {
                site: "east".into(),
                waiting: 4,
                spillovers: 1,
            }],
            services: Arc::new([
                ServiceLiveness {
                    service: "oar-server",
                    site: "east".into(),
                    host: Some(0),
                    state: "up".into(),
                    up: true,
                    crashes: 0,
                    restarts: 0,
                    dropped_calls: 0,
                },
                ServiceLiveness {
                    service: "kwapi-server",
                    site: "east".into(),
                    host: Some(1),
                    state: "CRASHED".into(),
                    up: false,
                    crashes: 1,
                    restarts: 0,
                    dropped_calls: 2,
                },
            ]),
            description_version: Some(1),
            properties: Arc::default(),
            windows: vec![(
                3,
                WindowAgg {
                    count: 5,
                    min: 80.0,
                    mean: 90.0,
                    max: 101.0,
                },
            )],
            window_from: SimTime::ZERO,
            window_to: SimTime::from_days(epoch),
        }
    }

    #[test]
    fn service_rows_render_each_liveness_and_are_shared_while_unchanged() {
        use ttt_testbed::{FaultKind, FaultTarget, ServiceKind, SiteId, TestbedBuilder};
        let mut tb = TestbedBuilder::small().build();
        let sites = site_names(&tb);
        let crash = tb
            .apply_fault(
                FaultKind::ServiceCrash,
                FaultTarget::Service(SiteId(0), ServiceKind::OarServer),
                SimTime::ZERO,
            )
            .expect("a live process can crash");
        tb.apply_fault(
            FaultKind::ServiceRestart,
            FaultTarget::Service(SiteId(1), ServiceKind::KwapiServer),
            SimTime::ZERO,
        )
        .expect("a live process can restart");
        let rows = ServiceLiveness::rows_from_testbed(&tb);
        let down: Vec<&ServiceLiveness> = rows.iter().filter(|r| !r.up).collect();
        assert_eq!(down.len(), 2);
        assert_eq!((down[0].service, &*down[0].site), ("oar-server", &*sites[0]));
        assert_eq!(down[0].state, "CRASHED");
        assert_eq!((down[1].service, &*down[1].site), ("kwapi-server", &*sites[1]));
        assert_eq!(down[1].state, "restarting@30m");
        assert!(rows.iter().filter(|r| r.up).all(|r| r.state == "up"));
        // Nothing moved: the next epoch holds the very same rows.
        assert!(Arc::ptr_eq(&refreshed_services(&rows, &tb, &sites), &rows));
        // Recovery clears the pager but keeps the ledger, in fresh rows.
        assert!(tb.repair(crash.id));
        let after = refreshed_services(&rows, &tb, &sites);
        assert!(!Arc::ptr_eq(&after, &rows));
        let oar = after.iter().find(|r| r.service == "oar-server").expect("row");
        assert!(oar.up);
        assert_eq!((oar.crashes, oar.restarts), (1, 1));
    }

    #[test]
    fn query_arrivals_total_exactly_per_day() {
        // 1M/day sliced into 5-minute windows: each window gets the
        // cumulative target minus what was issued, so the daily total is
        // exact although each window's rate is fractional.
        let window = SimDuration::from_mins(5).as_nanos();
        let (mut issued, mut counts) = (0u64, Vec::new());
        for k in 1..=288 {
            let n = arrived_by(1_000_000.0, k * window) - issued;
            issued += n;
            counts.push(n);
        }
        assert_eq!(issued, 1_000_000);
        assert!(counts.iter().all(|n| (3_472..=3_473).contains(n)), "{counts:?}");
        // No rate, no traffic — and a nonsensical rate is no rate.
        for silent in [0.0, -5.0, f64::NAN] {
            assert_eq!(arrived_by(silent, SimDuration::from_days(10).as_nanos()), 0);
        }
    }

    #[test]
    fn hub_publishes_evicts_and_serves_epochs() {
        let hub = SnapshotHub::new(2);
        assert_eq!(hub.published(), 0);
        assert!(hub.latest().is_none());
        for e in 1..=3 {
            hub.publish(snap(e));
        }
        assert_eq!(hub.published(), 3);
        assert_eq!(hub.held(), 2);
        assert_eq!(hub.latest().map(|s| s.epoch), Some(3));
    }

    #[test]
    fn readers_on_other_threads_share_the_hub() {
        let hub = Arc::new(SnapshotHub::new(4));
        hub.publish(snap(1));
        let held = hub.latest().expect("published");
        let h2 = Arc::clone(&hub);
        let answered = std::thread::spawn(move || {
            let s = h2.latest().expect("published");
            QueryEngine::answer(&s, &Query::ServiceCensus)
        })
        .join()
        .expect("reader thread");
        assert_eq!(answered, QueryAnswer::Census { up: 1, down: 1 });
        // The writer moved on; the old reader's epoch is still intact.
        hub.publish(snap(2));
        assert_eq!(held.epoch, 1);
    }

    #[test]
    fn a_tenant_that_panicked_holding_the_ring_does_not_take_the_plane_down() {
        let hub = Arc::new(SnapshotHub::new(2));
        hub.publish(snap(1));
        let h2 = Arc::clone(&hub);
        let died = std::thread::spawn(move || {
            let _guard = h2.ring.write().unwrap_or_else(PoisonError::into_inner);
            panic!("tenant bug, write guard held");
        })
        .join();
        assert!(died.is_err() && hub.ring.is_poisoned());
        // Readers and the writer carry on over the poisoned lock.
        assert_eq!(hub.latest().map(|s| s.epoch), Some(1));
        assert_eq!(hub.held(), 1);
        for e in 2..=3 {
            hub.publish(snap(e));
        }
        assert_eq!((hub.published(), hub.held()), (3, 2));
        assert_eq!(hub.latest().map(|s| s.epoch), Some(3));
    }

    #[test]
    fn status_cell_counts_like_the_grid() {
        let s = snap(1);
        let a = QueryEngine::answer(
            &s,
            &Query::StatusCell {
                job: "disk".into(),
                target: "east".into(),
            },
        );
        assert_eq!(a, QueryAnswer::Ratio { pass: 1, total: 2 });
        let miss = QueryEngine::answer(
            &s,
            &Query::StatusCell {
                job: "disk".into(),
                target: "nowhere".into(),
            },
        );
        assert_eq!(miss, QueryAnswer::NotFound);
    }

    #[test]
    fn trend_window_depth_and_census_answer() {
        let s = snap(1);
        match QueryEngine::answer(
            &s,
            &Query::JobTrend {
                job: "disk".into(),
                period_mins: 7 * 24 * 60,
            },
        ) {
            QueryAnswer::Trend { first, last } => {
                assert_eq!(first, 0.0);
                assert_eq!(last, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            QueryEngine::answer(&s, &Query::MetricsWindow { node: 3 }),
            QueryAnswer::Window {
                count: 5,
                min: 80.0,
                mean: 90.0,
                max: 101.0
            }
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::MetricsWindow { node: 9 }),
            QueryAnswer::NotFound
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::QueueDepth { site: "east".into() }),
            QueryAnswer::Depth {
                waiting: 4,
                spillovers: 1
            }
        );
        assert_eq!(
            QueryEngine::answer(&s, &Query::ServiceCensus),
            QueryAnswer::Census { up: 1, down: 1 }
        );
    }

    #[test]
    fn folds_are_deterministic_and_content_sensitive() {
        let s = snap(1);
        assert_eq!(fold_snapshot(0, &s), fold_snapshot(0, &s));
        assert_ne!(fold_snapshot(0, &s), fold_snapshot(0, &snap(2)));
        let a = QueryEngine::answer(&s, &Query::ServiceCensus);
        assert_eq!(fold_answer(1, &a), fold_answer(1, &a));
        assert_ne!(fold_answer(1, &a), fold_answer(1, &QueryAnswer::NotFound));
    }

    #[test]
    fn random_query_is_a_pure_function_of_stream_and_snapshot() {
        let s = snap(1);
        let draw = || {
            let mut rng = ttt_sim::rng::stream_rng(11, "queries");
            (0..64).map(|_| random_query(&mut rng, &s)).collect::<Vec<_>>()
        };
        let qs = draw();
        assert_eq!(qs, draw());
        // The mix actually covers every query kind at this stream.
        for probe in [
            |q: &Query| matches!(q, Query::StatusCell { .. }),
            |q: &Query| matches!(q, Query::JobTrend { .. }),
            |q: &Query| matches!(q, Query::NodeFilter { .. }),
            |q: &Query| matches!(q, Query::MetricsWindow { .. }),
            |q: &Query| matches!(q, Query::QueueDepth { .. }),
            |q: &Query| matches!(q, Query::ServiceCensus),
        ] {
            assert!(qs.iter().any(probe), "kind missing from 64 draws");
        }
    }
}
