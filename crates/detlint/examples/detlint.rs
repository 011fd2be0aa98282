//! The detlint command-line front end.
//!
//! ```text
//! cargo run --release -p ttt_detlint --example detlint -- [options]
//!
//!   --root <dir>        workspace root (default: .)
//!   --baseline <file>   ratchet state (default: <root>/detlint-baseline.json)
//!   --write-baseline    rewrite the baseline from the current run,
//!                       carrying existing reasons over
//!   --json <file>       also write the full report as JSON
//! ```
//!
//! Exit codes: 0 — clean under the ratchet; 1 — violations or debt
//! growth; 2 — usage or I/O error. With no baseline on disk the run
//! reports raw violations and exits 1 unless everything is already
//! clean, mirroring a fully-strict first run.

use std::path::PathBuf;
use std::process::ExitCode;
use ttt_detlint::{lint, ratchet, render_human, sim_registry, write_baseline, Baseline, Workspace};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut do_write = false;
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => return usage("--baseline needs a value"),
            },
            "--write-baseline" => do_write = true,
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("detlint-baseline.json"));

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("detlint: cannot load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = lint(&ws.files, &sim_registry());

    if let Some(p) = &json_path {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => {
                if let Err(e) = std::fs::write(p, s + "\n") {
                    eprintln!("detlint: cannot write {}: {e}", p.display());
                    return ExitCode::from(2);
                }
            }
            Err(e) => {
                eprintln!("detlint: cannot serialize report: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let prev: Option<Baseline> = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!(
                    "detlint: cannot parse baseline {}: {e}",
                    baseline_path.display()
                );
                return ExitCode::from(2);
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            eprintln!(
                "detlint: cannot read baseline {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };

    if do_write {
        let next = write_baseline(&report, prev.as_ref());
        let text = match serde_json::to_string_pretty(&next) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("detlint: cannot serialize baseline: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&baseline_path, text + "\n") {
            eprintln!("detlint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        let blank = next
            .rules
            .iter()
            .map(|r| r.reason.trim().is_empty() as usize)
            .sum::<usize>()
            + next
                .buggify
                .uncovered
                .iter()
                .map(|u| u.reason.trim().is_empty() as usize)
                .sum::<usize>();
        println!(
            "detlint: wrote {} ({} entries need a reason)",
            baseline_path.display(),
            blank
        );
        return ExitCode::SUCCESS;
    }

    match prev {
        Some(baseline) => {
            let outcome = ratchet(&report, &baseline);
            print!("{}", render_human(&report, Some(&outcome)));
            if outcome.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        None => {
            print!("{}", render_human(&report, None));
            if report.violations.is_empty() && report.audit.uncovered.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "detlint: no baseline at {} — run with --write-baseline to freeze current debt",
                    baseline_path.display()
                );
                ExitCode::from(1)
            }
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}");
    eprintln!(
        "usage: detlint [--root <dir>] [--baseline <file>] [--write-baseline] [--json <file>]"
    );
    ExitCode::from(2)
}
