//! The campaign ledger: this repository's benchmark. See `README.md`
//! beside `Cargo.toml` for the workloads, the metrics and how to run,
//! trace and compare.

mod alloc;
mod e2e;
mod layers;
mod metrics;
mod readers;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;
mod yardstick;

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use report::RunResult;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds one run measures unless `--seconds` says otherwise; also the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 20;
/// Spans the trace buffer is sized for, so it never regrows mid-run.
const SPAN_CAPACITY: usize = 1 << 17;

const USAGE: &str = "usage:
  ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--spans FILE] [--out FILE]
      one run of one workload; the last line of standard output is its result
  ledger --rounds R --out FILE [--seed N] [--seconds S] [--quick]
      a set: R rounds of every workload (seed N+round), then one traced round
  ledger --compare A [B]
      medians, quartiles and spread of set A; with B, B against A under the bounds
  ledger --contract
      print BENCHMARK.json
workloads: paper_180d grid64_week quiet_year chaos_week read_plane";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    spans: Option<String>,
    out: Option<String>,
    rounds: Option<u64>,
    compare: Vec<String>,
    contract: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {text:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => {
                let text = value()?;
                let s = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s));
                args.seconds =
                    Some(s.ok_or_else(|| format!("--seconds takes 0..600, not {text:?}"))?);
            }
            "--trace" => args.trace = number(value()?)? != 0,
            "--quick" => args.quick = true,
            "--spans" => args.spans = Some(value()?.clone()),
            "--out" => args.out = Some(value()?.clone()),
            "--rounds" => args.rounds = Some(number(value()?)?),
            "--compare" => {
                args.compare.push(value()?.clone());
                args.compare.extend(it.next().cloned());
            }
            "--contract" => args.contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Run one workload once, print its metrics by name, and return its result
/// with the main thread's runqueue-wait share over the run.
fn run_one(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    spans: Option<&str>,
) -> Result<(RunResult, f64), String> {
    let runq = traced::runq_mark();
    let result = if trace {
        let mut tr = trace::Tracer::new(SPAN_CAPACITY);
        let layered = traced::measure(&mut tr, w, seed, seconds, quick);
        if let Some(path) = spans {
            let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
            tr.write_jsonl(&mut BufWriter::new(file))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                let value = layered.values.get(m.name).copied().unwrap_or(f64::NAN);
                println!(
                    "{:<12} {:<42} {value:>16.4} {:<6} -> {}",
                    w.name, m.name, m.unit, m.moves
                );
                (m.name, value, m.unit)
            })
            .collect();
        RunResult {
            metrics,
            attempted: layered.attempted,
            failed: layered.failed,
        }
    } else {
        let r = e2e::measure(w, seed, seconds, quick);
        let values = [
            r.setup_s,
            r.sim_days_per_s.median,
            r.allocs_per_sim_day,
            r.alloc_kib_per_sim_day,
            r.peak_live_mib,
            r.queries_per_s.median,
        ];
        for (m, value) in END_TO_END.iter().zip(values) {
            let detail = match m.name {
                "sim_days_per_s" => r.sim_days_per_s.detail("reps"),
                "queries_per_s" => r.queries_per_s.detail("passes of one reader"),
                _ => m.why.to_string(),
            };
            println!(
                "{:<12} {:<22} {value:>16.6} {:<6} {detail}",
                w.name, m.name, m.unit
            );
        }
        println!(
            "{:<12} clocks read as at host speed 1; the host ran at {:.4} (wall clock: setup_s {:.6}, \
             sim_days_per_s {:.4}, queries_per_s {:.1})",
            w.name,
            r.host_speed,
            r.setup_s / r.host_speed,
            r.sim_days_per_s.median * r.host_speed,
            r.queries_per_s.median * r.host_speed
        );
        RunResult {
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, v, m.unit))
                .collect(),
            attempted: r.attempted,
            failed: r.failed,
        }
    };
    let waited = traced::runq_wait_share(runq);
    println!(
        "{:<12} attempted {} failed {} | host.cpus {} host.runq_wait_share {waited:.4}",
        w.name,
        result.attempted,
        result.failed,
        e2e::host_cpus()
    );
    Ok((result, waited))
}

fn append(path: &str, line: &str) -> Result<(), String> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn run(args: Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let seed = args.seed.unwrap_or(42);
    if args.contract {
        print!("{}", report::contract(RUN_SECONDS));
        return Ok(true);
    }
    if let Some(a) = args.compare.first() {
        let read =
            |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let b = args.compare.get(1).map(read).transpose()?;
        let (table, ok) = report::compare(&read(a)?, b.as_deref())?;
        print!("{table}");
        return Ok(ok);
    }
    if let Some(rounds) = args.rounds {
        let out = args.out.as_deref().ok_or("--rounds needs --out FILE")?;
        let mut ok = true;
        // Every round runs all five workloads, so a noisy phase of the
        // host falls on all of them and not on one.
        for round in 0..=rounds {
            let trace = round == rounds;
            for w in WORKLOADS.iter() {
                let seed = if trace { seed } else { seed + round };
                let (r, waited) = run_one(w, seed, seconds, trace, args.quick, None)?;
                ok &= r.correct();
                append(out, &report::record(w.name, seed, trace, waited, &r))?;
            }
        }
        let text = std::fs::read_to_string(out).map_err(|e| format!("{out}: {e}"))?;
        print!("{}", report::compare(&text, None)?.0);
        return Ok(ok);
    }
    let name = args
        .workload
        .as_deref()
        .ok_or("no --workload, --rounds, --compare or --contract")?;
    let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let (r, waited) = run_one(
        w,
        seed,
        seconds,
        args.trace,
        args.quick,
        args.spans.as_deref(),
    )?;
    if let Some(out) = &args.out {
        append(out, &report::record(w.name, seed, args.trace, waited, &r))?;
    }
    println!("{}", report::render(&r.to_value()));
    Ok(r.correct())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS.iter() {
            assert!(is_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "{} declared twice", w.name);
        }
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in metrics {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_what_the_tables_declare() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            on_disk,
            report::contract(RUN_SECONDS),
            "regenerate it with `ledger --contract`"
        );
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv(
            "--workload quiet_year --seed 7 --seconds 15 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("quiet_year"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(15.0), true));
        assert!(!parse(&argv("--trace 0")).expect("valid").trace);
        assert_eq!(
            parse(&argv("--compare a b")).expect("valid").compare,
            ["a", "b"]
        );
        assert_eq!(parse(&argv("--compare a")).expect("valid").compare, ["a"]);
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--seed x")).is_err());
        assert!(parse(&argv("--seconds -1")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }

    /// Harness buffers are pre-sized and the quiet campaign draws nothing,
    /// so its allocator counts repeat to the unit.
    #[test]
    fn two_quiet_year_reps_report_identical_allocation_counts() {
        let w = workloads::by_name("quiet_year").expect("declared");
        let cfg = w.config(true);
        let (a, b) = (e2e::rep(w, &cfg), e2e::rep(w, &cfg));
        assert!(a.allocs > 0 && a.alloc_bytes > 0 && a.peak_live > 0);
        assert_eq!(
            (a.allocs, a.alloc_bytes, a.peak_live),
            (b.allocs, b.alloc_bytes, b.peak_live)
        );
        assert_eq!(a.digest, b.digest);
    }

    /// The `--quick` smoke: all five workloads, every declared metric
    /// emitted as a number by the run that declares it, nothing failed.
    #[test]
    fn quick_runs_emit_every_declared_metric_on_every_workload() {
        for w in WORKLOADS.iter() {
            let (untraced, _) = run_one(w, 3, 0.0, false, true, None).expect("runs");
            let names: Vec<&str> = untraced.metrics.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, END_TO_END.map(|m| m.name), "{}", w.name);
            assert!(untraced.correct(), "{}: {} failed", w.name, untraced.failed);
            assert!(
                untraced.metrics.iter().all(|(_, v, _)| *v > 0.0),
                "{}",
                w.name
            );

            let (traced, _) = run_one(w, 3, 0.0, true, true, None).expect("runs");
            let names: Vec<&str> = traced.metrics.iter().map(|(n, _, _)| *n).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name), "{}", w.name);
            assert!(traced.correct(), "{}: {} failed", w.name, traced.failed);
        }
    }
}
