//! Differential oracles checked against every generated scenario.
//!
//! Three properties must hold for any point of the scenario grammar:
//!
//! 1. **Engine equivalence** — the next-event driver and the lockstep
//!    reference produce bit-identical campaigns ([`CampaignDigest`]
//!    captures every observable with floats taken bitwise). This
//!    generalises the hand-written `engine_equivalence` suite from three
//!    scenarios to the whole grammar.
//! 2. **Detection soundness** — every fault still active when the campaign
//!    ends resolves back through [`find_fault`] from its canonical
//!    diagnostic signature, and every fault kind in the scenario's mix is
//!    detected by the family [`ttt_suite::coverage_for`] declares for it,
//!    through the shared [`ttt_suite::detection_failure`] loop — unless
//!    the kind is explicitly classified in [`KNOWN_COVERAGE_GAPS`].
//! 3. **Conservation** — node/reservation/metric accounting: structural
//!    testbed invariants, OAR reservation exclusivity, index consistency
//!    and progress (no waiting job its server could start now), executor
//!    accounting, and metric bookkeeping identities.

use crate::grammar::ScenarioSpec;
use std::fmt;
use ttt_core::Campaign;
use ttt_suite::{coverage_for, detection_failure};
use ttt_testbed::{find_fault, Fault, FaultKind, FaultTarget, NodeId, Signature, Testbed};

/// Which oracle a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// NextEvent ≢ Lockstep for the same spec.
    EngineEquivalence,
    /// An injected fault cannot be resolved back (or a mixed-in kind is
    /// not detectable by its family).
    DetectionSoundness,
    /// An accounting identity broke.
    Conservation,
    /// The self-test trip wire (`Oracles::tests_run_limit`) fired.
    TestsRunLimit,
    /// The scenario's campaign panicked. Caught per seed so one poisoned
    /// scenario cannot abort a whole swarm; shrinks like any other
    /// violation (the probe asks "does the candidate still panic?").
    Panicked,
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OracleKind::EngineEquivalence => "engine-equivalence",
            OracleKind::DetectionSoundness => "detection-soundness",
            OracleKind::Conservation => "conservation",
            OracleKind::TestsRunLimit => "tests-run-limit",
            OracleKind::Panicked => "panicked",
        })
    }
}

/// One oracle violation, with enough detail to start debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The oracle that failed.
    pub oracle: OracleKind,
    /// Human-readable description of what broke.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Fault kinds the suite is known not to cover. Empty today — every
/// catalogue entry has an owning family — but the mechanism exists so a
/// future kind can be admitted explicitly instead of silently skipped.
pub const KNOWN_COVERAGE_GAPS: &[FaultKind] = &[];

/// Everything observable a campaign produces, with floats captured bitwise
/// so "identical" means identical. Shared by the swarm's equivalence
/// oracle, the `engine_equivalence` integration suite, and the run-log
/// artifacts (`crate::runlog`), which persist the digest to disk so a
/// replay can bitwise-diff against the original run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignDigest {
    /// Total tests run.
    pub tests_run: u64,
    /// Total tests failed.
    pub tests_failed: u64,
    /// Builds marked unstable.
    pub unstable_builds: u64,
    /// Bugs filed.
    pub filed: usize,
    /// Bugs fixed.
    pub fixed: usize,
    /// Scheduler launches.
    pub triggered: u64,
    /// Deferrals: peak hours.
    pub deferred_peak: u64,
    /// Deferrals: same-site cap.
    pub deferred_site: u64,
    /// Deferrals: resources busy.
    pub deferred_resources: u64,
    /// Cancellations: not immediately scheduled.
    pub cancelled_not_immediate: u64,
    /// Per-family completion counts.
    pub completions: Vec<(String, u64)>,
    /// Weekly success means, bitwise.
    pub weekly_means: Vec<(usize, u64)>,
    /// Monthly success means, bitwise.
    pub monthly_means: Vec<(usize, u64)>,
    /// Bug-count snapshots `(t, filed, fixed)`.
    pub bug_snapshots: Vec<(u64, usize, usize)>,
    /// Executor-occupancy stats `(count, mean bits)`.
    pub executor_busy: (u64, u64),
    /// OAR-utilization stats `(count, mean bits)`.
    pub oar_utilization: (u64, u64),
    /// Faults still active at the end.
    pub active_faults: usize,
    /// Status-grid rows.
    pub grid_rows: Vec<String>,
    /// Jobs submitted per site domain — the federation's placement is an
    /// observable, so a placement divergence between engines is caught
    /// even when the totals happen to agree.
    pub per_site_jobs: Vec<u64>,
    /// Tests completed per site (the domain whose resources each test
    /// held) — populated identically by both engines.
    pub per_site_completions: Vec<u64>,
    /// Jobs placed off their home domain (saturation spillover).
    pub spillovers: u64,
    /// Spillovers *received* per site domain (where displaced work landed).
    pub per_site_spillovers: Vec<u64>,
    /// Cross-site co-allocations booked (`oargridsub`-style splits).
    pub co_allocations: u64,
    /// Faults ever injected, `(kind name, count)` — the injected half of
    /// the coverage fingerprint.
    pub injected_by_kind: Vec<(String, u64)>,
    /// Diagnostics attributed per fault kind — the detected half.
    pub detected_by_kind: Vec<(String, u64)>,
    /// Per-service-kind process chaos counters `(kind name, crashes,
    /// restarts, dropped calls)`, all-zero rows skipped — the process
    /// layer's observables, so a liveness divergence between engines is
    /// caught even when test totals happen to agree.
    pub service_processes: Vec<(String, u64, u64, u64)>,
    /// Testbed-saturation episodes (rising edges at the sampling cadence).
    pub saturation_episodes: u64,
    /// Site-blackout episodes (rising edges at the sampling cadence).
    pub blackout_episodes: u64,
    /// Winning `next_wake` term counts, `(label, count)`. Populated only by
    /// the next-event engine (lockstep never computes wakes), so this field
    /// is *excluded* from [`CampaignDigest::diff`] and plays no part in the
    /// equivalence oracle — it exists for the coverage signature.
    pub wake_reasons: Vec<(String, u64)>,
}
serde::record!(struct CampaignDigest {
    tests_run, tests_failed, unstable_builds, filed, fixed, triggered, deferred_peak,
    deferred_site, deferred_resources, cancelled_not_immediate, completions, weekly_means,
    monthly_means, bug_snapshots, executor_busy, oar_utilization, active_faults, grid_rows,
    per_site_jobs, per_site_completions, spillovers, per_site_spillovers, co_allocations,
    injected_by_kind, detected_by_kind, service_processes, saturation_episodes,
    blackout_episodes, wake_reasons,
});

impl CampaignDigest {
    /// Capture a finished campaign's observable state.
    pub fn capture(c: &Campaign) -> Self {
        let m = c.metrics();
        let stats = c.trigger().stats();
        CampaignDigest {
            tests_run: m.tests_run,
            tests_failed: m.tests_failed,
            unstable_builds: m.unstable_builds,
            filed: c.tracker().filed(),
            fixed: c.tracker().fixed(),
            triggered: stats.triggered,
            deferred_peak: stats.deferred_peak,
            deferred_site: stats.deferred_site,
            deferred_resources: stats.deferred_resources,
            cancelled_not_immediate: stats.cancelled_not_immediate,
            completions: m
                .completions_per_family
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            weekly_means: m
                .weekly_success
                .means()
                .into_iter()
                .map(|(i, v)| (i, v.to_bits()))
                .collect(),
            monthly_means: m
                .monthly_success
                .means()
                .into_iter()
                .map(|(i, v)| (i, v.to_bits()))
                .collect(),
            bug_snapshots: m
                .bug_snapshots
                .iter()
                .map(|(t, a, b)| (t.as_nanos(), *a, *b))
                .collect(),
            executor_busy: (m.executor_busy.count(), m.executor_busy.mean().to_bits()),
            oar_utilization: (
                m.oar_utilization.count(),
                m.oar_utilization.mean().to_bits(),
            ),
            active_faults: c.testbed().active_faults().len(),
            grid_rows: {
                // Sorted job names with ≥1 finished build — value-identical
                // to the status grid's row labels, without pulling the
                // render plane into the oracle.
                let ci = c.ci();
                let mut rows: Vec<String> = ci
                    .job_names_in_order()
                    .filter(|job| ci.history(job).finished().next().is_some())
                    .map(|job| job.to_string())
                    .collect();
                rows.sort();
                rows
            },
            per_site_jobs: c
                .federation()
                .domains()
                .iter()
                .map(|d| d.oar.jobs().len() as u64)
                .collect(),
            per_site_completions: c.site_completions().to_vec(),
            spillovers: c.federation().spillovers(),
            per_site_spillovers: c.federation().spillovers_by_domain().to_vec(),
            co_allocations: c.federation().co_allocations(),
            injected_by_kind: FaultKind::ALL
                .iter()
                .zip(m.injected_by_kind)
                .filter(|&(_, n)| n > 0)
                .map(|(k, n)| (k.name().to_string(), n))
                .collect(),
            detected_by_kind: m
                .detected_by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            service_processes: c.testbed().processes().counters_by_kind(),
            saturation_episodes: m.saturation_episodes,
            blackout_episodes: m.blackout_episodes,
            wake_reasons: c
                .wake_reasons()
                .into_iter()
                .map(|(r, n)| (r.to_string(), n))
                .collect(),
        }
    }

    /// Names of the fields on which two digests disagree — every
    /// engine-equivalence observable. `wake_reasons` is deliberately
    /// absent: it is populated only by the next-event engine.
    pub fn diff(&self, other: &CampaignDigest) -> Vec<&'static str> {
        macro_rules! diff_fields {
            ($($field:ident),+ $(,)?) => {{
                let mut out = Vec::new();
                $(if self.$field != other.$field { out.push(stringify!($field)); })+
                out
            }};
        }
        diff_fields!(
            tests_run,
            tests_failed,
            unstable_builds,
            filed,
            fixed,
            triggered,
            deferred_peak,
            deferred_site,
            deferred_resources,
            cancelled_not_immediate,
            completions,
            weekly_means,
            monthly_means,
            bug_snapshots,
            executor_busy,
            oar_utilization,
            active_faults,
            grid_rows,
            per_site_jobs,
            per_site_completions,
            spillovers,
            per_site_spillovers,
            co_allocations,
            injected_by_kind,
            detected_by_kind,
            service_processes,
            saturation_episodes,
            blackout_episodes,
        )
    }
}

/// Run a spec to completion.
pub fn run_campaign(spec: &ScenarioSpec) -> Campaign {
    let mut c = Campaign::new(spec.campaign_config());
    c.run();
    c
}

/// Run a spec to completion under the lockstep reference driver.
pub fn run_reference(spec: &ScenarioSpec) -> Campaign {
    let mut c = Campaign::new(spec.campaign_config());
    c.run_lockstep();
    c
}

/// Oracle 1: both drivers must agree bit-for-bit on `spec` — compared
/// via [`CampaignDigest::diff`], which covers every observable except the
/// driver-private wake-reason mix. The caller supplies the next-event
/// digest; this runs the Lockstep reference and diffs it against that.
pub fn check_engine_equivalence(spec: &ScenarioSpec, next_event: &CampaignDigest) -> Option<Violation> {
    let lockstep = CampaignDigest::capture(&run_reference(spec));
    let diverging = lockstep.diff(next_event);
    (!diverging.is_empty()).then(|| Violation {
        oracle: OracleKind::EngineEquivalence,
        detail: format!(
            "Lockstep diverges from NextEvent on fields {diverging:?} (seed {})",
            spec.seed
        ),
    })
}

/// The diagnostic signature a test family would file for `fault`: its
/// kind's canonical symptom (the first of the catalogue's symptom column)
/// on the node's *name* — fault targets use node ids — or, for service and
/// site-scoped faults, on the target's rendering.
fn canonical_signature(fault: &Fault, tb: &Testbed) -> Signature {
    let symptom = fault.kind.spec().symptoms[0];
    match fault.target {
        FaultTarget::Node(n) | FaultTarget::NodePair(n, _) => symptom.on(&tb.node(n).name),
        target => symptom.on(target),
    }
}

/// Whether two fault targets overlap (repairing `b` would clear `a`'s
/// symptom on the shared hardware).
fn targets_overlap(a: FaultTarget, b: FaultTarget) -> bool {
    let nodes = |t: FaultTarget| -> Vec<NodeId> {
        match t {
            FaultTarget::Node(n) => vec![n],
            FaultTarget::NodePair(x, y) => vec![x, y],
            FaultTarget::Service(..) | FaultTarget::Site(..) | FaultTarget::SiteLink(..) => vec![],
        }
    };
    let link = |x: ttt_testbed::SiteId, y: ttt_testbed::SiteId| if x <= y { (x, y) } else { (y, x) };
    match (a, b) {
        (FaultTarget::Service(s1, k1), FaultTarget::Service(s2, k2)) => s1 == s2 && k1 == k2,
        (FaultTarget::Site(s1), FaultTarget::Site(s2)) => s1 == s2,
        (FaultTarget::SiteLink(a1, b1), FaultTarget::SiteLink(a2, b2)) => {
            link(a1, b1) == link(a2, b2)
        }
        (a, b) => nodes(a).iter().any(|n| nodes(b).contains(n)),
    }
}

/// Oracle 2a: every fault still active at the end of the campaign must be
/// resolvable back through the bug→fault matcher from its canonical
/// diagnostic signature (otherwise a filed bug could never repair it).
pub fn check_fault_resolution(tb: &Testbed) -> Vec<Violation> {
    let mut out = Vec::new();
    for fault in tb.active_faults() {
        if KNOWN_COVERAGE_GAPS.contains(&fault.kind) {
            continue;
        }
        let sig = canonical_signature(fault, tb);
        match find_fault(tb, &sig) {
            Some(found) if found.kind == fault.kind && targets_overlap(found.target, fault.target) => {}
            Some(found) => out.push(Violation {
                oracle: OracleKind::DetectionSoundness,
                detail: format!(
                    "signature {sig} of {} on {} resolved to unrelated fault {} on {} ({})",
                    fault.kind, fault.target, found.kind, found.target, found.id
                ),
            }),
            None => out.push(Violation {
                oracle: OracleKind::DetectionSoundness,
                detail: format!(
                    "active fault {} on {} is unresolvable from its canonical signature {sig}",
                    fault.kind, fault.target
                ),
            }),
        }
    }
    out
}

/// Oracle 2b: every fault kind in the scenario's mix must be detectable by
/// its owning family on the shared harness — the slide-21 coverage keeps
/// up with the slide-22 catalogue for whatever mix the grammar composed.
pub fn check_kind_detectability(spec: &ScenarioSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(kind, _) in &spec.fault_mix {
        if KNOWN_COVERAGE_GAPS.contains(&kind) {
            continue;
        }
        let seed = spec.seed ^ (kind as u64) << 32;
        if let Some(detail) = detection_failure(&coverage_for(kind), seed, "swarm-detect") {
            out.push(Violation {
                oracle: OracleKind::DetectionSoundness,
                detail,
            });
        }
    }
    out
}

/// Oracle 3: conservation — node, reservation and metric accounting.
pub fn check_conservation(c: &Campaign) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |detail: String| {
        out.push(Violation {
            oracle: OracleKind::Conservation,
            detail,
        })
    };
    let tb = c.testbed();

    // Structural testbed invariants (node ↔ cluster ↔ site partition).
    if let Err(e) = ttt_testbed::validate(tb) {
        fail(format!("testbed structure: {e}"));
    }

    // OAR, per site: every domain's end-index cache and kept alive/busy
    // counts must agree with its timelines and node states, its chart must
    // hold exactly its scheduled and running jobs' reservations, no waiting
    // job may be one its server could start right now (a scheduling
    // wedge), and a domain must only ever book its own site's nodes.
    let fed = c.federation();
    for (i, domain) in fed.domains().iter().enumerate() {
        if let Err(e) = domain.oar.check_consistency() {
            fail(format!("oar consistency (site {i}): {e}"));
        }
        if let Some(job) = domain.oar.startable_waiting() {
            fail(format!("oar progress (site {i}): waiting {job} could start now"));
        }
    }

    // Federation: the cached backbone view equals a fresh derivation from
    // the link state (a flip after the last step's sync is not yet due).
    if let Some(e) = fed.backbone_divergence(tb) {
        fail(format!("backbone view: {e}"));
    }

    // OAR, global: running reservations hold disjoint, existing nodes —
    // across the whole federation, not just within one domain.
    let mut claimed: Vec<NodeId> = Vec::new();
    for (d, job) in fed.all_jobs() {
        if job.state != ttt_oar::JobState::Running {
            continue;
        }
        for &n in &job.assigned {
            if n.index() >= tb.nodes().len() {
                fail(format!("job assigned to nonexistent {n}"));
            } else if tb.node(n).site != fed.domain(d).site {
                fail(format!(
                    "{n} (site {}) booked by domain {} ({})",
                    tb.node(n).site,
                    d,
                    fed.domain(d).name
                ));
            } else if claimed.contains(&n) {
                fail(format!("{n} reserved by two running jobs"));
            } else {
                claimed.push(n);
            }
        }
    }

    // CI: executor accounting.
    if c.ci().busy_executors() > c.ci().executor_count() {
        fail(format!(
            "{} busy executors out of {}",
            c.ci().busy_executors(),
            c.ci().executor_count()
        ));
    }

    // Metrics: every completion is attributed to exactly one family.
    let m = c.metrics();
    let per_family: u64 = m.completions_per_family.values().sum();
    if per_family != m.tests_run {
        fail(format!(
            "tests_run {} != per-family completion sum {per_family}",
            m.tests_run
        ));
    }
    if m.tests_failed > m.tests_run {
        fail(format!(
            "tests_failed {} > tests_run {}",
            m.tests_failed, m.tests_run
        ));
    }

    // Bug ledger: fixes never outrun filings; snapshots are monotone.
    let (filed, fixed) = (c.tracker().filed(), c.tracker().fixed());
    if fixed > filed {
        fail(format!("fixed {fixed} > filed {filed}"));
    }
    let mut prev = (0usize, 0usize);
    for &(t, f, x) in &m.bug_snapshots {
        if f < prev.0 || x < prev.1 {
            fail(format!(
                "bug snapshot at {t} regressed: ({f},{x}) after {prev:?}"
            ));
        }
        if x > f {
            fail(format!("bug snapshot at {t} has fixed {x} > filed {f}"));
        }
        prev = (f, x);
    }

    // Fault ledger: active faults are distinct ids on distinct symptoms.
    let mut ids: Vec<u64> = tb.active_faults().iter().map(|f| f.id.0).collect();
    let n = ids.len();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != n {
        fail("duplicate active fault ids".to_string());
    }

    // Utilization samples stay in [0, 1].
    for (name, stats) in [("executor_busy", &m.executor_busy), ("oar_utilization", &m.oar_utilization)] {
        let mean = stats.mean();
        if stats.count() > 0 && !(-1e-9..=1.0 + 1e-9).contains(&mean) {
            fail(format!("{name} mean {mean} outside [0,1]"));
        }
    }

    out
}
