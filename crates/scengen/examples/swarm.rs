//! Swarm CLI: sweep a block of seeds through the scenario grammar and the
//! differential oracles, in parallel — run the coverage-guided fuzzer
//! over an evolving corpus — or run hand-written `scenario.v1` files.
//!
//! ```text
//! # Fixed-block sweep (the CI smoke mode):
//! cargo run --release -p ttt_scengen --example swarm -- \
//!     [--seeds N] [--base B] [--no-equivalence] [--no-detection] \
//!     [--no-conservation] [--max-tests LIMIT] [--no-shrink] \
//!     [--dump-dir DIR] [--service-chaos] [--log-dir DIR]
//!
//! # Coverage-guided fuzzing:
//! cargo run --release -p ttt_scengen --example swarm -- --fuzz \
//!     [--budget N] [--batch N] [--root-seed S] [--corpus FILE] \
//!     [--oracles] [--dump-dir DIR] [--log-dir DIR]
//!
//! # Scenario files (hand-written, or reproducers from --dump-dir):
//! cargo run --release -p ttt_scengen --example swarm -- \
//!     --scenario FILE [--scenario FILE ...] | --scenario-dir DIR \
//!     [--log-dir DIR]
//!
//! # Replay a run-log artifact and bitwise-diff against the original:
//! cargo run --release -p ttt_scengen --example swarm -- --replay-log FILE
//!
//! # Where one run's wall time goes, per `step_to` phase:
//! cargo run --release -p ttt_scengen --example swarm -- --phases \
//!     [--scenario FILE ... | --scenario-dir DIR | --seeds N --base B]
//! ```
//!
//! Sweep mode prints one line per scenario, a throughput summary, and —
//! for every failure — the minimal reproducer seed and scenario file. With
//! `--dump-dir` each reproducer is also written to
//! `DIR/repro-seed-<N>.json` so CI can upload the shrunken scenarios as
//! workflow artifacts; a reproducer is a `scenario.v1` file (the violated
//! oracle in its `notes`), so it is re-run with `--scenario` /
//! `--scenario-dir` like any other. Exits non-zero if any scenario violated
//! an oracle.
//!
//! Fuzz mode evolves a corpus of coverage-novel scenarios from
//! `--root-seed`, deterministically. `--corpus FILE` loads the starting
//! corpus when the file exists (an incompatible corpus is reported and
//! replaced) and writes the evolved corpus back. `--oracles` turns the
//! differential oracles on during fuzzing; violations ("trophies") are
//! shrunk and written to `--dump-dir` like sweep failures.
//!
//! Scenario-file mode validates each file (every problem reported with
//! its JSON path) and runs the valid ones through the same oracles as the
//! sweep (`--max-tests` and the `--no-*` switches apply). `--log-dir DIR`
//! writes a replayable run-log artifact — the scenario, digest,
//! structured event log — per scenario run and per
//! shrunken reproducer (`trophy-seed-<N>-runlog.json`), and refuses a log
//! that leaves a fault out (scenario-file mode then exits 1); `--replay-log`
//! re-drives such an artifact and fails unless the digest and observable
//! event stream match the original bit-for-bit.
//!
//! `--phases` runs each scenario file (or each seed of the block) once, on
//! one thread and without oracles, with the campaign's phase clock armed,
//! and prints the wall time of every phase — subtract a run without
//! `queries.per_day` from one with it to read what publishing costs.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use ttt_core::Campaign;
use ttt_scengen::{
    check_log_complete, load_scenario_file, replay_run_log_file, run_fuzz, run_logged,
    run_scenario, run_swarm, run_swarm_service_chaos, seed_block, worker_count, Corpus,
    FuzzConfig, Oracles, ScenarioOutcome, ScenarioSpec,
};

/// A command-line usage error: one line on stderr, exit 2.
fn usage_error(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Write a serialized artifact; a serialization failure and an I/O
/// failure both come back as the message to print.
fn write_json(path: &str, json: serde_json::Result<String>) -> Result<(), String> {
    let json = json.map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())
}

/// Write `artifact` as `<dir>/<stem>-runlog.json`, unless its event log
/// leaves a fault out ([`check_log_complete`]): such a log cannot be
/// re-entered on its own, so it is reported and not written. Returns
/// whether the file was written.
fn write_run_log(dir: &str, stem: &str, artifact: &ttt_scengen::RunLogArtifact) -> bool {
    if let Err(e) = check_log_complete(&artifact.events, &artifact.digest) {
        eprintln!("run log {stem} is incomplete, not written: {e}");
        return false;
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        return false;
    }
    let path = format!("{dir}/{stem}-runlog.json");
    match write_json(&path, artifact.to_json()) {
        Ok(()) => println!("run log written to {path} ({} events)", artifact.events.len()),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return false;
        }
    }
    true
}

fn write_reproducers(outcomes: &[&ScenarioOutcome], dump_dir: Option<&str>, log_dir: Option<&str>) {
    for o in outcomes {
        for v in &o.violations {
            println!("seed {}: {v}", o.seed);
        }
        if let Some(r) = &o.reproducer {
            println!(
                "seed {}: minimal reproducer ({} h horizon, {} fault kinds, {} shrink passes):\n{}",
                o.seed,
                r.spec.duration_hours,
                r.spec.fault_mix.len(),
                r.passes,
                r.dump
            );
            if let Some(dir) = dump_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {dir}: {e}");
                } else {
                    let path = format!("{dir}/repro-seed-{}.json", o.seed);
                    match std::fs::write(&path, &r.dump) {
                        Ok(()) => println!("seed {}: reproducer written to {path}", o.seed),
                        Err(e) => eprintln!("cannot write {path}: {e}"),
                    }
                }
            }
            if let Some(dir) = log_dir {
                // The replayable record of the minimized scenario: CI
                // re-drives it with --replay-log and diffs bitwise.
                let artifact = run_logged(&r.spec);
                let _ = write_run_log(dir, &format!("trophy-seed-{}", o.seed), &artifact);
            }
        }
    }
}

/// Run `spec` once with the phase clock armed and print where the wall
/// time of its steps went.
fn print_phases(label: &str, spec: &ScenarioSpec) {
    let mut campaign = Campaign::new(spec.campaign_config());
    campaign.clock_phases();
    campaign.run();
    let total: Duration = campaign.phase_wall().map(|(_, wall)| wall).sum();
    println!(
        "phases {label}: {} nodes  {} h  {} tests  {} epochs  {:.3} ms in steps",
        spec.node_count(),
        spec.duration_hours,
        campaign.metrics().tests_run,
        campaign.snapshot_hub().map_or(0, |hub| hub.published()),
        total.as_secs_f64() * 1e3
    );
    for (name, wall) in campaign.phase_wall() {
        println!(
            "  {name:<20} {:>12.3} ms  {:>5.1} %",
            wall.as_secs_f64() * 1e3,
            100.0 * wall.as_secs_f64() / total.as_secs_f64().max(1e-12)
        );
    }
}

/// Validate and run hand-written scenario files through the oracles — or,
/// with `phases`, under the phase clock instead. Returns whether anything
/// failed (validation or oracle).
fn run_scenario_files(
    files: &[PathBuf],
    oracles: &Oracles,
    log_dir: Option<&str>,
    phases: bool,
) -> bool {
    let mut any_failure = false;
    for path in files {
        let name = path.display();
        let spec = match load_scenario_file(path) {
            Ok(spec) => spec,
            Err(errors) => {
                any_failure = true;
                eprintln!("scenario {name}: {} validation error(s):", errors.len());
                for e in &errors {
                    eprintln!("  {e}");
                }
                continue;
            }
        };
        if phases {
            print_phases(&name.to_string(), &spec);
            continue;
        }
        let run = run_scenario(&spec, oracles);
        if run.violations.is_empty() {
            println!(
                "scenario {name}: ok  {} clusters  {} nodes  {} h  {} tests",
                spec.clusters.len(),
                spec.node_count(),
                spec.duration_hours,
                run.tests_run()
            );
        } else {
            any_failure = true;
            for v in &run.violations {
                println!("scenario {name}: {v}");
            }
        }
        if let Some(dir) = log_dir {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "scenario".to_string());
            let artifact = run_logged(&spec);
            any_failure |= !write_run_log(dir, &stem, &artifact);
        }
    }
    any_failure
}

fn run_fuzz_mode(
    cfg: FuzzConfig,
    corpus_path: Option<String>,
    dump_dir: Option<String>,
    log_dir: Option<String>,
) -> i32 {
    let corpus = match &corpus_path {
        Some(path) if std::path::Path::new(path).exists() => {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|json| Corpus::from_json(&json))
            {
                Ok(c) => {
                    println!("corpus: loaded {} entries from {path}", c.len());
                    c
                }
                Err(e) => {
                    eprintln!("corpus {path}: {e} — starting fresh");
                    Corpus::new()
                }
            }
        }
        _ => Corpus::new(),
    };

    // detlint: allow(no-wall-clock) -- operator-facing timing, not simulation state
    let started = Instant::now();
    let starting = corpus.len();
    let report = run_fuzz(&cfg, corpus);
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "fuzz: {} executions in {} rounds -> {} signatures ({} novel) in {elapsed:.2}s ({:.1} exec/sec)",
        report.executions,
        report.rounds,
        report.corpus.len(),
        report.corpus.len() - starting,
        report.executions as f64 / elapsed.max(1e-9),
    );
    if let Some(path) = &corpus_path {
        if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
            }
        }
        match write_json(path, report.corpus.to_json()) {
            Ok(()) => println!("corpus: {} entries written to {path}", report.corpus.len()),
            Err(e) => eprintln!("cannot write corpus {path}: {e}"),
        }
    }
    if !report.trophies.is_empty() {
        println!("fuzz: {} trophies (oracle violations)", report.trophies.len());
        let refs: Vec<&ScenarioOutcome> = report.trophies.iter().collect();
        write_reproducers(&refs, dump_dir.as_deref(), log_dir.as_deref());
        return 1;
    }
    0
}

fn main() {
    let mut n: usize = 32;
    let mut base: u64 = 1;
    let mut oracles = Oracles::default();
    let mut shrink = true;
    let mut service_chaos = false;
    let mut dump_dir: Option<String> = None;
    let mut log_dir: Option<String> = None;
    let mut replay_logs: Vec<String> = Vec::new();
    let mut scenario_files: Vec<PathBuf> = Vec::new();
    let mut scenario_dirs: Vec<String> = Vec::new();
    let mut phases = false;
    let mut fuzz = false;
    let mut fuzz_oracles = false;
    let mut fuzz_cfg = FuzzConfig::default();
    let mut corpus_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut raw = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(format!("{name} needs a value")))
        };
        let mut value = |name: &str| {
            let v = raw(name);
            v.parse::<u64>()
                .unwrap_or_else(|e| usage_error(format!("{name} {v}: {e}")))
        };
        match arg.as_str() {
            "--seeds" => n = value("--seeds") as usize,
            "--base" => base = value("--base"),
            "--max-tests" => oracles.tests_run_limit = Some(value("--max-tests")),
            "--no-equivalence" => oracles.equivalence = false,
            "--no-detection" => oracles.detection = false,
            "--no-conservation" => oracles.conservation = false,
            "--no-shrink" => shrink = false,
            "--service-chaos" => service_chaos = true,
            "--dump-dir" => dump_dir = Some(raw("--dump-dir")),
            "--log-dir" => log_dir = Some(raw("--log-dir")),
            "--replay-log" => replay_logs.push(raw("--replay-log")),
            "--scenario" => scenario_files.push(PathBuf::from(raw("--scenario"))),
            "--scenario-dir" => scenario_dirs.push(raw("--scenario-dir")),
            "--phases" => phases = true,
            "--fuzz" => fuzz = true,
            "--budget" => fuzz_cfg.budget = value("--budget") as usize,
            "--batch" => fuzz_cfg.batch = value("--batch") as usize,
            "--root-seed" => fuzz_cfg.root_seed = value("--root-seed"),
            "--oracles" => fuzz_oracles = true,
            "--corpus" => corpus_path = Some(raw("--corpus")),
            other => usage_error(format!("unknown argument {other}")),
        }
    }

    // Run-log replay: re-drive each artifact and require a bitwise match.
    let mut replay_log_failure = false;
    for path in &replay_logs {
        match replay_run_log_file(std::path::Path::new(path)) {
            Ok(r) if r.is_identical() => {
                println!("replay-log {path}: identical ({} events)", r.events.len());
            }
            Ok(r) => {
                replay_log_failure = true;
                println!(
                    "replay-log {path}: DIVERGED (digest fields {:?}, observable events match: {})",
                    r.digest_diff, r.events_match
                );
            }
            Err(e) => {
                replay_log_failure = true;
                eprintln!("replay-log: {e}");
            }
        }
    }

    // Scenario-file mode: validate + run the named files, then exit.
    for dir in &scenario_dirs {
        match std::fs::read_dir(dir) {
            Ok(rd) => {
                let mut found: Vec<PathBuf> = rd
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .collect();
                found.sort();
                if found.is_empty() {
                    eprintln!("--scenario-dir {dir}: no *.json scenario files");
                    std::process::exit(2);
                }
                scenario_files.extend(found);
            }
            Err(e) => {
                eprintln!("cannot read --scenario-dir {dir}: {e}");
                std::process::exit(2);
            }
        }
    }
    if !scenario_files.is_empty() {
        let failed = run_scenario_files(&scenario_files, &oracles, log_dir.as_deref(), phases);
        std::process::exit(if failed || replay_log_failure { 1 } else { 0 });
    }
    if phases {
        for seed in seed_block(base, n) {
            print_phases(&format!("seed {seed}"), &ScenarioSpec::from_seed(seed));
        }
        return;
    }
    if !replay_logs.is_empty() && !fuzz {
        // Pure replay invocation: don't fall through to a seed sweep.
        std::process::exit(if replay_log_failure { 1 } else { 0 });
    }

    if fuzz {
        if fuzz_cfg.budget == 0 {
            eprintln!("--budget must be at least 1");
            std::process::exit(2);
        }
        if fuzz_oracles {
            fuzz_cfg.oracles = oracles.clone();
        }
        fuzz_cfg.shrink_failures = shrink;
        std::process::exit(run_fuzz_mode(fuzz_cfg, corpus_path, dump_dir, log_dir));
    }

    if n == 0 {
        // An empty sweep must not read as a green gate in CI.
        eprintln!("--seeds must be at least 1");
        std::process::exit(2);
    }
    let seeds = seed_block(base, n);
    println!(
        "swarm: {n} scenarios (seeds {base}..{}){}, {} workers",
        base.wrapping_add(n as u64),
        if service_chaos {
            " [service chaos: process kills + degraded RPC + buggify]"
        } else {
            ""
        },
        worker_count()
    );
    // detlint: allow(no-wall-clock) -- operator-facing timing, not simulation state
    let started = Instant::now();
    let report = if service_chaos {
        run_swarm_service_chaos(&seeds, &oracles, shrink)
    } else {
        run_swarm(&seeds, &oracles, shrink)
    };
    let elapsed = started.elapsed();

    for o in &report.outcomes {
        println!(
            "  seed {:>6}  {}  {:>3} clusters  {:>3} nodes  {:>4} h  {:>6} tests{}",
            o.seed,
            if o.passed() { "ok  " } else { "FAIL" },
            o.spec.clusters.len(),
            o.spec.node_count(),
            o.spec.duration_hours,
            o.tests_run,
            if o.passed() {
                String::new()
            } else {
                format!("  ({} violations)", o.violations.len())
            }
        );
    }
    write_reproducers(&report.failures(), dump_dir.as_deref(), log_dir.as_deref());

    let secs = elapsed.as_secs_f64();
    println!(
        "{}/{} scenarios passed in {:.2}s ({:.1} scenarios/sec, {} tests run)",
        report.outcomes.len() - report.failures().len(),
        report.outcomes.len(),
        secs,
        report.outcomes.len() as f64 / secs.max(1e-9),
        report.total_tests_run()
    );
    if !report.all_passed() {
        std::process::exit(1);
    }
}
