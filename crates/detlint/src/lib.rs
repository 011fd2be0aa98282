//! # ttt-detlint — workspace determinism lint + buggify-surface audit
//!
//! The paper's reproduction lives and dies by determinism: three
//! engines must produce bit-identical campaigns from a seed, so a
//! single wall-clock read or hash-ordered iteration in the wrong place
//! is a correctness bug, not a style nit. This crate makes that class
//! of bug a *build failure*:
//!
//! * [`lexer`] — a purpose-built Rust surface lexer; rules can never
//!   fire inside comments or string literals;
//! * [`rules`] — the per-tier rule catalogue (`no-wall-clock`,
//!   `no-ambient-rng`, `no-unordered-iteration`, `no-rc-in-shared`,
//!   `no-unwrap-in-lib`, `require-forbid-unsafe`) with inline
//!   `// detlint: allow(rule) -- reason` escapes;
//! * [`audit`] — the buggify-surface audit: every `Result`-returning
//!   service function carries a fault-injection arm or an escape, and
//!   the fire sites reconcile with the registry exported by
//!   `ttt_sim::rpc`; and no `pub fn` is called by tests alone;
//! * [`report`] — the report and its human rendering.
//!
//! Any violation fails the run; an exemption is an inline escape with a
//! reason, and there is no other. The core is pure — [`lint`] maps
//! in-memory [`SourceFile`]s to a [`LintReport`] — so the test suite
//! runs entirely on fixtures; only [`Workspace::load`] and the
//! `detlint` example binary touch the filesystem.

#![forbid(unsafe_code)]

pub mod audit;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use audit::{Audit, CrateDensity, FireSite, RegistryEntry, UncoveredFn};
pub use report::{render_human, LintReport};
pub use rules::{FileCtx, Violation, RULES};

/// Where a file sits in its crate — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Under `src/`.
    Lib,
    /// Under `tests/`.
    Test,
    /// Under `examples/`.
    Example,
    /// Under a downstream package's `src/` (the benchmark ledger, which
    /// compiles against the crates' public API from outside the
    /// workspace): read for callers, never linted.
    Downstream,
}

/// One source file to lint.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path (`crates/oar/src/server.rs`).
    pub path: String,
    /// Cargo package name (`ttt_oar`).
    pub crate_name: String,
    /// Library, test or example code.
    pub kind: FileKind,
    /// File contents.
    pub text: String,
}

/// Lint `files` against `registry`: run every file-local rule and the
/// buggify-surface audit, then apply the escapes once to all firings.
pub fn lint(files: &[SourceFile], registry: &[RegistryEntry]) -> LintReport {
    let ctxs: Vec<FileCtx> = files.iter().map(FileCtx::new).collect();
    let mut raw = Vec::new();
    for ctx in &ctxs {
        raw.extend(rules::run_file_rules(ctx));
    }
    let (mut audit, audit_violations) = audit::run_audit(&ctxs, registry);
    raw.extend(audit_violations);
    let mut violations = rules::apply_escapes(&ctxs, raw);
    audit.count_escaped(&violations);
    violations.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    LintReport { violations, audit }
}

/// The runtime buggify registry, converted from `ttt_sim::rpc`.
pub fn sim_registry() -> Vec<RegistryEntry> {
    ttt_sim::BUGGIFY_CALLSITES
        .iter()
        .map(|c| RegistryEntry {
            name: c.name.to_string(),
            crate_name: c.crate_name.to_string(),
        })
        .collect()
}

/// A loaded workspace: every `.rs` file of every member crate, and the
/// ledger's sources read for callers.
pub struct Workspace {
    /// All source files, repo-relative, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the workspace rooted at `root` (the directory holding the
    /// top-level `Cargo.toml`): each `crates/*` package plus the
    /// facade package at the root itself, and `ledger/src` as
    /// [`FileKind::Downstream`] when present.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            load_package(root, &dir, &mut files)?;
        }
        // The facade package at the workspace root.
        load_package(root, root, &mut files)?;
        let ledger = root.join("ledger");
        if ledger.join("src").is_dir() {
            let name = package_name(&ledger.join("Cargo.toml"))?;
            load_dir(root, &ledger.join("src"), &name, FileKind::Downstream, &mut files)?;
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }
}

/// Load one Cargo package's `src/`, `tests/`, `examples/`.
fn load_package(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let crate_name = package_name(&dir.join("Cargo.toml"))?;
    for (sub, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("examples", FileKind::Example),
    ] {
        let sub_dir = dir.join(sub);
        if sub_dir.is_dir() {
            load_dir(root, &sub_dir, &crate_name, kind, files)?;
        }
    }
    Ok(())
}

/// Load every `.rs` file under `dir` as `kind` code of `crate_name`.
fn load_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    files: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut paths = Vec::new();
    collect_rs(dir, &mut paths)?;
    paths.sort();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile {
            path: rel,
            crate_name: crate_name.to_string(),
            kind,
            text: fs::read_to_string(&p)?,
        });
    }
    Ok(())
}

/// Recursively collect `.rs` files.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// The `name = "…"` of a Cargo manifest.
fn package_name(manifest: &Path) -> io::Result<String> {
    let text = fs::read_to_string(manifest)?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                return Ok(v.to_string());
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("no package name in {}", manifest.display()),
    ))
}
