//! # ttt-scengen — the scenario swarm
//!
//! The paper's core claim is that a testbed is trustworthy only when its
//! bug catalogue (slide 22) stays detectable by its test coverage
//! (slide 21). Three hand-written scenarios cannot audit that claim; this
//! crate turns the scenario space into a grammar and the audit into a
//! swarm:
//!
//! * [`grammar`] — any `u64` seed expands deterministically into a
//!   [`ScenarioSpec`]: testbed topology, fault mix over the whole
//!   catalogue, user load, rollout pattern, scheduling mode, tick grid and
//!   horizon. Specs lower to [`ttt_core`] campaign configurations.
//! * [`scenario_file`] — the `scenario.v1` format, the only on-disk
//!   encoding of a spec: hand-written files, reproducers, and the spec
//!   embedded in every corpus entry and run log.
//! * [`oracle`] — differential checks every generated scenario must pass:
//!   NextEvent ≡ Lockstep bit-identity, detection soundness (injected
//!   faults resolve back through `find_fault`; every mixed-in kind is
//!   detectable by its owning family), and conservation (node, reservation
//!   and metric accounting).
//! * [`swarm`] — executes N seeds in parallel and aggregates outcomes;
//!   a panicking scenario is caught per seed, never costing the sweep.
//! * [`shrink`] — failing scenarios are minimized (horizon bisection,
//!   fault-mix pruning, noise zeroing, looped to a fixpoint) into a
//!   [`Reproducer`] whose scenario file replays as a one-line test.
//! * [`coverage`] / [`corpus`] / [`mutate`] — the coverage-guided layer:
//!   campaigns are fingerprinted into behavioral signatures, signature-
//!   novel specs are kept in a corpus, and structural mutators evolve the
//!   corpus toward unreached behavior. [`swarm::run_fuzz`] drives the
//!   loop deterministically from a root seed.
//!
//! ```
//! use ttt_scengen::{run_swarm, seed_block, Oracles};
//!
//! let report = run_swarm(&seed_block(1, 2), &Oracles::default(), true);
//! assert!(report.all_passed());
//! ```

#![forbid(unsafe_code)]

pub mod corpus;
pub mod coverage;
pub mod grammar;
pub mod mutate;
pub mod oracle;
pub mod runlog;
pub mod scenario_file;
pub mod shrink;
pub mod swarm;

pub use corpus::{Corpus, CorpusEntry, CORPUS_VERSION};
pub use coverage::{CoverageSignature, StructuralCell};
pub use grammar::{ModeDim, RolloutDim, ScenarioSpec};
pub use mutate::{mutate, pin_to_cell, sanitize, Mutator};
pub use oracle::{CampaignDigest, OracleKind, Violation, KNOWN_COVERAGE_GAPS};
pub use runlog::{
    check_log_complete, replay_run_log, replay_run_log_file, run_logged, ReplayError, ReplayErrorKind, RunLogArtifact,
    RunLogReplay, RUN_LOG_VERSION,
};
pub use scenario_file::{
    load_scenario_file, parse_scenario, to_scenario_json, to_scenario_value, ScenarioFileError,
    SCENARIO_FORMAT,
};
pub use shrink::{replay, shrink, Reproducer};
pub use swarm::{
    par_map, random_coverage, run_fuzz, run_scenario, run_seed, run_seed_service_chaos, run_swarm,
    run_swarm_service_chaos, seed_block, service_chaos_spec, worker_count, FuzzConfig, FuzzReport,
    Oracles, ScenarioOutcome, ScenarioRun, SwarmReport,
};
