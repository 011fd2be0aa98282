//! The detlint command-line front end.
//!
//! ```text
//! cargo run --release -p ttt_detlint --example detlint -- [--root <dir>]
//! ```
//!
//! Lints the workspace rooted at `<dir>` (default: `.`) and prints the
//! report. Exit codes: 0 — no violations; 1 — any violation; 2 — usage
//! or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use ttt_detlint::{lint, render_human, sim_registry, Workspace};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("detlint: cannot load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = lint(&ws.files, &sim_registry());
    print!("{}", render_human(&report));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}");
    eprintln!("usage: detlint [--root <dir>]");
    ExitCode::from(2)
}
