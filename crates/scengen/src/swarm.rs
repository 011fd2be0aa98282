//! The swarm runner and the coverage-guided fuzz driver.
//!
//! [`run_swarm`] sweeps a fixed seed block in parallel through the
//! differential oracles; failures are shrunk to minimal reproducers. A
//! panicking scenario is caught per seed and reported as a
//! [`OracleKind::Panicked`] violation — one poisoned campaign never costs
//! the other outcomes of a CI sweep.
//!
//! [`run_fuzz`] is the feedback-directed counterpart: instead of a fixed
//! block, it evolves a [`Corpus`] of coverage-novel specs. Each round it
//! sequentially derives a batch of mutants from corpus parents (one RNG,
//! one order — fully deterministic from the root seed), evaluates the
//! batch in parallel ([`par_map`]), then merges results back in batch
//! order. The merge being sequential and order-preserving makes the whole
//! loop reproducible across runs *and* across worker counts.

use crate::corpus::Corpus;
use crate::coverage::{CoverageSignature, StructuralCell};
use crate::grammar::ScenarioSpec;
use crate::mutate::{mutate, pin_to_cell};
use std::collections::BTreeSet;
use crate::oracle::{
    check_conservation, check_engine_equivalence, check_fault_resolution,
    check_kind_detectability, run_campaign, CampaignDigest, OracleKind, Violation,
};
use crate::shrink::{shrink, Reproducer};
use rand::Rng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use ttt_sim::rng::stream_rng;

/// How many workers [`par_map`] fans out to: `TTT_WORKERS` when it parses
/// to a positive count, otherwise the host's available parallelism. Read
/// per call, so a test can vary it at run time.
pub fn worker_count() -> usize {
    std::env::var("TTT_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Map `f` over `items` on [`worker_count`] scoped threads and return the
/// results in input order. A panic in `f` is re-raised on the caller once
/// every worker has stopped.
pub fn par_map<I: Sync, O: Send>(items: &[I], f: impl Fn(&I) -> O + Sync) -> Vec<O> {
    par_map_width(worker_count(), items, f)
}

fn par_map_width<I: Sync, O: Send>(
    width: usize,
    items: &[I],
    f: impl Fn(&I) -> O + Sync,
) -> Vec<O> {
    // Relaxed: the counter only hands out indices; `items` was fully
    // written before the scope spawned and results come back through join.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, O)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width.clamp(1, items.len().max(1)))
            .map(|_| scope.spawn(worker))
            .collect();
        // On a panic the scope joins the remaining workers before this
        // unwinds out.
        workers
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Which oracles a swarm (or a shrink probe) checks.
#[derive(Debug, Clone)]
pub struct Oracles {
    /// NextEvent ≡ Lockstep bit-identity (runs the campaign twice).
    pub equivalence: bool,
    /// Fault resolution + per-kind detectability.
    pub detection: bool,
    /// Accounting invariants.
    pub conservation: bool,
    /// Self-test trip wire: fail any scenario that runs more than this
    /// many tests. Real campaigns violate it at will, which is exactly the
    /// point — it lets the swarm-and-shrink pipeline prove, in CI, that an
    /// oracle violation produces a minimal replayable reproducer.
    pub tests_run_limit: Option<u64>,
    /// Second self-test trip wire: panic while evaluating the scenario
    /// whose campaign seed matches. Lets tests and CI prove that a
    /// panicking scenario is isolated to its own outcome (and that the
    /// resulting `Panicked` violation shrinks like any other).
    pub panic_on_seed: Option<u64>,
}

impl Default for Oracles {
    fn default() -> Self {
        Oracles {
            equivalence: true,
            detection: true,
            conservation: true,
            tests_run_limit: None,
            panic_on_seed: None,
        }
    }
}

impl Oracles {
    /// A coverage-only configuration: run the campaign once, capture the
    /// digest, check nothing (what the fuzzer uses while exploring).
    pub fn none() -> Self {
        Oracles {
            equivalence: false,
            detection: false,
            conservation: false,
            tests_run_limit: None,
            panic_on_seed: None,
        }
    }
}

/// The result of evaluating one spec: violations plus the next-event
/// campaign's digest (absent when the campaign panicked).
#[derive(Debug)]
pub struct ScenarioRun {
    /// Oracle violations (empty = passed).
    pub violations: Vec<Violation>,
    /// The next-event campaign's digest; `None` when the run panicked
    /// before producing one.
    pub digest: Option<CampaignDigest>,
}

impl ScenarioRun {
    /// Tests the (next-event) campaign ran, 0 for panicked runs.
    pub fn tests_run(&self) -> u64 {
        self.digest.as_ref().map_or(0, |d| d.tests_run)
    }
}

/// The outcome of one scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The seed the scenario expanded from.
    pub seed: u64,
    /// The expanded spec.
    pub spec: ScenarioSpec,
    /// Oracle violations (empty = scenario passed).
    pub violations: Vec<Violation>,
    /// Minimal reproducer, when the scenario failed and shrinking was on.
    pub reproducer: Option<Reproducer>,
    /// Tests the (next-event) campaign ran.
    pub tests_run: u64,
}

impl ScenarioOutcome {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate result of a swarm run.
#[derive(Debug)]
pub struct SwarmReport {
    /// Per-scenario outcomes, in seed order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl SwarmReport {
    /// Whether every scenario passed every oracle.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::passed)
    }

    /// The failing outcomes.
    pub fn failures(&self) -> Vec<&ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.passed()).collect()
    }

    /// Total tests run across all (next-event) campaigns.
    pub fn total_tests_run(&self) -> u64 {
        self.outcomes.iter().map(|o| o.tests_run).sum()
    }
}

/// The oracle pipeline, unguarded — a panic anywhere in here unwinds to
/// [`run_scenario`]'s catch.
fn run_scenario_unguarded(spec: &ScenarioSpec, oracles: &Oracles) -> ScenarioRun {
    if oracles.panic_on_seed == Some(spec.seed) {
        panic!("deliberate swarm self-test panic (campaign seed {})", spec.seed);
    }
    let campaign = run_campaign(spec);
    let digest = CampaignDigest::capture(&campaign);
    let mut violations = Vec::new();
    if oracles.equivalence {
        violations.extend(check_engine_equivalence(spec, &digest));
    }
    if oracles.detection {
        violations.extend(check_fault_resolution(campaign.testbed()));
        violations.extend(check_kind_detectability(spec));
    }
    if oracles.conservation {
        violations.extend(check_conservation(&campaign));
    }
    if let Some(limit) = oracles.tests_run_limit {
        if digest.tests_run > limit {
            violations.push(Violation {
                oracle: OracleKind::TestsRunLimit,
                detail: format!("ran {} tests, limit {limit}", digest.tests_run),
            });
        }
    }
    ScenarioRun {
        violations,
        digest: Some(digest),
    }
}

/// Render a panic payload into a violation detail.
fn panic_detail(payload: Box<dyn std::any::Any + Send>, seed: u64) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("campaign seed {seed} panicked: {msg}")
}

/// Run one scenario through every enabled oracle. Panics are caught here,
/// per scenario, and surface as a [`OracleKind::Panicked`] violation — so
/// a swarm loses one outcome to a poisoned spec, never the whole sweep,
/// and the shrinker can minimize "still panics" like any other failure.
pub fn run_scenario(spec: &ScenarioSpec, oracles: &Oracles) -> ScenarioRun {
    match catch_unwind(AssertUnwindSafe(|| run_scenario_unguarded(spec, oracles))) {
        Ok(run) => run,
        Err(payload) => ScenarioRun {
            violations: vec![Violation {
                oracle: OracleKind::Panicked,
                detail: panic_detail(payload, spec.seed),
            }],
            digest: None,
        },
    }
}

/// The outcome of `seed`: its finished `run` of `spec`, shrunk to a
/// reproducer if it violated an oracle and `shrink_failures`.
fn outcome(
    seed: u64,
    spec: ScenarioSpec,
    run: ScenarioRun,
    oracles: &Oracles,
    shrink_failures: bool,
) -> ScenarioOutcome {
    let tests_run = run.tests_run();
    let reproducer = if !run.violations.is_empty() && shrink_failures {
        shrink(&spec, oracles)
    } else {
        None
    };
    ScenarioOutcome {
        seed,
        spec,
        violations: run.violations,
        reproducer,
        tests_run,
    }
}

/// Expand and check one seed, shrinking on failure when `shrink_failures`.
pub fn run_seed(seed: u64, oracles: &Oracles, shrink_failures: bool) -> ScenarioOutcome {
    let spec = ScenarioSpec::from_seed(seed);
    let run = run_scenario(&spec, oracles);
    outcome(seed, spec, run, oracles, shrink_failures)
}

/// Run `seeds` in parallel through the oracle suite.
pub fn run_swarm(seeds: &[u64], oracles: &Oracles, shrink_failures: bool) -> SwarmReport {
    SwarmReport {
        outcomes: par_map(seeds, |&seed| run_seed(seed, oracles, shrink_failures)),
    }
}

/// Expand one seed and pin it into a service-chaos cell (round-robin over
/// the catalogue's service-fault block), which arms all three
/// service-process fault kinds plus a low buggify rate — the CI
/// `service-chaos-smoke` mode. Seeds that fail shrink like any other.
pub fn run_seed_service_chaos(
    seed: u64,
    oracles: &Oracles,
    shrink_failures: bool,
) -> ScenarioOutcome {
    let cells: Vec<StructuralCell> = StructuralCell::all()
        .into_iter()
        .filter(|c| c.service_faults)
        .collect();
    let cell = cells[seed as usize % cells.len()];
    let mut spec = ScenarioSpec::from_seed(seed);
    pin_to_cell(&mut spec, cell, &mut stream_rng(seed, "swarm-service-chaos"));
    let run = run_scenario(&spec, oracles);
    outcome(seed, spec, run, oracles, shrink_failures)
}

/// The service-chaos counterpart of [`run_swarm`]: every seed runs with
/// killed/restarting service processes, degraded RPC links and buggify
/// armed.
pub fn run_swarm_service_chaos(
    seeds: &[u64],
    oracles: &Oracles,
    shrink_failures: bool,
) -> SwarmReport {
    SwarmReport {
        outcomes: par_map(seeds, |&seed| {
            run_seed_service_chaos(seed, oracles, shrink_failures)
        }),
    }
}

/// The conventional seed block a swarm sweeps: `n` consecutive seeds from
/// `base`. Seeds are a ring, so a block that reaches `u64::MAX` continues
/// at 0.
pub fn seed_block(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| base.wrapping_add(i)).collect()
}

// ---------------------------------------------------------------------------
// Coverage-guided fuzzing
// ---------------------------------------------------------------------------

/// Configuration of a fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed: the run's single source of randomness (candidate
    /// derivation is sequential, so the whole run replays from it).
    pub root_seed: u64,
    /// Campaign-execution budget (candidate evaluations; shrink probes on
    /// trophies are not counted).
    pub budget: usize,
    /// Candidates derived per round (the parallel width).
    pub batch: usize,
    /// Probability a candidate is a fresh random spec instead of a mutant
    /// (keeps exploration alive once the corpus is rich).
    pub fresh_prob: f64,
    /// Oracles each candidate is checked against ([`Oracles::none`] for
    /// pure coverage exploration).
    pub oracles: Oracles,
    /// Whether oracle violations are shrunk into reproducers.
    pub shrink_failures: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            root_seed: 1,
            budget: 64,
            batch: 16,
            fresh_prob: 0.15,
            oracles: Oracles::none(),
            shrink_failures: true,
        }
    }
}

/// What a fuzzing run produced.
#[derive(Debug)]
pub struct FuzzReport {
    /// The evolved corpus (starting corpus plus every novel signature).
    pub corpus: Corpus,
    /// Candidate evaluations actually performed.
    pub executions: usize,
    /// Batch rounds run.
    pub rounds: usize,
    /// Coverage growth: corpus size after each execution, in execution
    /// order (`coverage_curve[i]` = signatures known after `i + 1`
    /// evaluations). The plateau comparison against random sweeps reads
    /// this curve.
    pub coverage_curve: Vec<usize>,
    /// Oracle-violating outcomes found along the way, with reproducers
    /// when shrinking was enabled.
    pub trophies: Vec<ScenarioOutcome>,
}

impl FuzzReport {
    /// Executions needed to first reach `signatures` distinct signatures,
    /// if the run ever did.
    pub fn executions_to_reach(&self, signatures: usize) -> Option<usize> {
        self.coverage_curve
            .iter()
            .position(|&n| n >= signatures)
            .map(|i| i + 1)
    }
}

/// Evolve `corpus` under `cfg`: derive mutants from coverage-novel
/// parents, evaluate them in parallel batches, keep whatever reaches a new
/// signature. Deterministic from `cfg.root_seed` and the starting corpus —
/// across runs and across worker counts (candidate derivation and
/// corpus merging are sequential; the parallel evaluation preserves batch
/// order and touches no shared state).
pub fn run_fuzz(cfg: &FuzzConfig, mut corpus: Corpus) -> FuzzReport {
    let mut rng = stream_rng(cfg.root_seed, "fuzz");
    let mut executions = 0usize;
    let mut rounds = 0usize;
    let mut coverage_curve = Vec::with_capacity(cfg.budget);
    let mut trophies = Vec::new();

    let cells = StructuralCell::all();
    while executions < cfg.budget {
        let want = (cfg.budget - executions).min(cfg.batch.max(1));
        // The frontier: structural cells no corpus signature lives in yet.
        // Re-derived from the corpus each round, so a cell whose pinned
        // candidate missed (stochastic bits) is retried with fresh streams.
        let covered: BTreeSet<StructuralCell> = corpus
            .entries()
            .iter()
            .map(|e| e.signature.cell())
            .collect();
        let mut frontier = cells.iter().filter(|c| !covered.contains(c));
        // Sequential derivation: one RNG, one order.
        let candidates: Vec<ScenarioSpec> = (0..want)
            .map(|_| {
                if let Some(&cell) = frontier.next() {
                    // Frontier move: pin a corpus parent (or a fresh spec)
                    // onto an unreached structural cell.
                    let mut spec = if corpus.is_empty() {
                        ScenarioSpec::from_seed(rng.gen())
                    } else {
                        let parent = rng.gen_range(0..corpus.len());
                        corpus.entry(parent).spec.clone()
                    };
                    pin_to_cell(&mut spec, cell, &mut rng);
                    spec
                } else if corpus.is_empty() || rng.gen_bool(cfg.fresh_prob) {
                    ScenarioSpec::from_seed(rng.gen())
                } else {
                    let parent = rng.gen_range(0..corpus.len());
                    let donor = rng.gen_range(0..corpus.len());
                    mutate(
                        &corpus.entry(parent).spec,
                        &corpus.entry(donor).spec,
                        &mut rng,
                    )
                }
            })
            .collect();

        // Parallel evaluation (order-preserving, no shared state).
        let runs = par_map(&candidates, |spec| run_scenario(spec, &cfg.oracles));

        // Sequential merge, in batch order.
        for (spec, run) in candidates.into_iter().zip(runs) {
            executions += 1;
            if let Some(digest) = &run.digest {
                let signature = CoverageSignature::capture(&spec, digest);
                corpus.add(spec.clone(), signature);
            }
            coverage_curve.push(corpus.len());
            if !run.violations.is_empty() {
                trophies.push(outcome(spec.seed, spec, run, &cfg.oracles, cfg.shrink_failures));
            }
        }
        rounds += 1;
    }

    FuzzReport {
        corpus,
        executions,
        rounds,
        coverage_curve,
        trophies,
    }
}

/// The random baseline the fuzzer is judged against: sweep `seeds` through
/// coverage capture only (no oracles) and return the corpus a pure-random
/// search of that budget reaches, plus its coverage curve. Evaluations run
/// in parallel; the curve is folded in seed order.
pub fn random_coverage(seeds: &[u64]) -> (Corpus, Vec<usize>) {
    let runs = par_map(seeds, |&seed| {
        let spec = ScenarioSpec::from_seed(seed);
        let run = run_scenario(&spec, &Oracles::none());
        (spec, run)
    });
    let mut corpus = Corpus::new();
    let mut curve = Vec::with_capacity(seeds.len());
    for (spec, run) in runs {
        if let Some(digest) = &run.digest {
            let signature = CoverageSignature::capture(&spec, digest);
            corpus.add(spec, signature);
        }
        curve.push(corpus.len());
    }
    (corpus, curve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_equals_the_sequential_map_at_any_width() {
        for len in [0usize, 1, 7, 100] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * 7 + 1).collect();
            for width in [1, 3, 16, len + 5] {
                assert_eq!(
                    par_map_width(width, &items, |x| x * 7 + 1),
                    expected,
                    "len {len}, width {width}"
                );
            }
        }
    }

    #[test]
    fn par_map_propagates_a_panicking_item() {
        let items: Vec<u64> = (0..100).collect();
        for width in [1, 3, 16] {
            let caught = catch_unwind(|| {
                par_map_width(width, &items, |&x| {
                    if x == 41 {
                        panic!("item {x} failed");
                    }
                    x
                })
            });
            let payload = caught.expect_err("the item's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "item 41 failed");
        }
    }

    #[test]
    fn seed_block_wraps_at_the_end_of_the_ring() {
        assert_eq!(seed_block(u64::MAX, 2), [u64::MAX, 0]);
        assert_eq!(seed_block(5, 3), [5, 6, 7]);
    }
}
