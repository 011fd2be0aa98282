//! The buggify-surface audit.
//!
//! The paper's thesis is that a testbed's software must itself be
//! tested under injected faults. The runtime half of that story lives
//! in `ttt_sim::rpc`: every `Buggify::fire`/`fire_hashed` call names
//! its callsite, and the crate exports a registry describing each one.
//! This module is the static half:
//!
//! 1. it enumerates every `.fire("…")` / `.fire_hashed("…")` in
//!    non-test library code and reconciles the set against the
//!    registry in both directions (`unregistered-buggify-callsite`,
//!    `stale-buggify-registration`);
//! 2. it enumerates the *fault surface* — `Result`-returning functions
//!    in the six service crates, the static stand-in for "IO-shaped
//!    operations that can fail" — and fires `unarmed-service-fn` at
//!    each one whose body has no buggify arm.
//!
//! A surface function either carries an arm or an inline escape naming
//! why it stays bare (a pure parser, an internal invariant check), so
//! the per-crate density — armed over the functions not escaped — is
//! over the surface that does IO.

use crate::rules::{brace_match, find_pattern, FileCtx, Violation};
use crate::FileKind;
use std::collections::{BTreeMap, BTreeSet};

/// The service crates whose `Result`-returning functions form the
/// audited fault surface.
pub const SERVICE_CRATES: &[&str] = &[
    "ttt_ci",
    "ttt_kadeploy",
    "ttt_kwapi",
    "ttt_oar",
    "ttt_refapi",
    "ttt_status",
];

/// A runtime registry entry, decoupled from `ttt_sim` so the linter
/// core stays testable with synthetic registries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Callsite name as passed to `fire`/`fire_hashed`.
    pub name: String,
    /// Crate the registry claims hosts it.
    pub crate_name: String,
}

/// One `.fire("…")` site found in code.
#[derive(Debug, Clone)]
pub struct FireSite {
    /// Callsite name from the string literal.
    pub callsite: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// Buggify density of one service crate.
#[derive(Debug, Clone)]
pub struct CrateDensity {
    /// Crate name.
    pub crate_name: String,
    /// Surface functions containing a buggify arm.
    pub covered: usize,
    /// Unarmed surface functions whose firing an escape silenced.
    pub escaped: usize,
    /// Total surface functions.
    pub total: usize,
}

/// A surface function with no buggify arm in its body.
#[derive(Debug, Clone)]
pub struct UncoveredFn {
    /// Crate name.
    pub crate_name: String,
    /// Repo-relative file.
    pub file: String,
    /// Function name.
    pub fn_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// The audit half of a lint report.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// Per-service-crate buggify density, sorted by crate name.
    pub crates: Vec<CrateDensity>,
    /// Surface functions without an arm, escaped or not, sorted by
    /// (crate, file, line).
    pub uncovered: Vec<UncoveredFn>,
    /// Every fire site found in non-test library code.
    pub fires: Vec<FireSite>,
}

impl Audit {
    /// Count per crate the unarmed functions whose firing is gone from
    /// `violations`, i.e. silenced by an escape.
    pub(crate) fn count_escaped(&mut self, violations: &[Violation]) {
        for u in &self.uncovered {
            let silenced = !violations
                .iter()
                .any(|v| v.rule == "unarmed-service-fn" && v.file == u.file && v.line == u.line);
            if let Some(c) = self
                .crates
                .iter_mut()
                .find(|c| c.crate_name == u.crate_name)
            {
                c.escaped += usize::from(silenced);
            }
        }
    }
}

/// Run the audit over all files. Returns the audit data plus the
/// registry-reconciliation and `unarmed-service-fn` firings, escapes
/// not yet applied.
pub fn run_audit(ctxs: &[FileCtx], registry: &[RegistryEntry]) -> (Audit, Vec<Violation>) {
    let mut fires: Vec<FireSite> = Vec::new();
    // (crate, file) → fire offsets, for the coverage check below.
    let mut fire_offsets: BTreeMap<String, Vec<usize>> = BTreeMap::new();

    for ctx in ctxs {
        if ctx.file.kind != FileKind::Lib {
            continue;
        }
        for pat in [".fire(", ".fire_hashed("] {
            for at in find_pattern(&ctx.view, pat) {
                if ctx.in_test_code(at) {
                    continue;
                }
                let open = at + pat.len();
                let Some(name) = string_literal_at(&ctx.file.text, open) else {
                    continue;
                };
                fires.push(FireSite {
                    callsite: name,
                    file: ctx.file.path.clone(),
                    line: ctx.line_of(at),
                });
                fire_offsets
                    .entry(ctx.file.path.clone())
                    .or_default()
                    .push(at);
            }
        }
    }

    // Registry reconciliation, both directions.
    let mut violations = Vec::new();
    let registered: BTreeSet<&str> = registry.iter().map(|e| e.name.as_str()).collect();
    let in_code: BTreeSet<&str> = fires.iter().map(|f| f.callsite.as_str()).collect();
    for f in &fires {
        if !registered.contains(f.callsite.as_str()) {
            violations.push(Violation {
                rule: "unregistered-buggify-callsite".into(),
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "callsite `{}` is not in ttt_sim::rpc::BUGGIFY_CALLSITES",
                    f.callsite
                ),
            });
        }
    }
    for e in registry {
        if !in_code.contains(e.name.as_str()) {
            violations.push(Violation {
                rule: "stale-buggify-registration".into(),
                file: "crates/sim/src/rpc.rs".into(),
                line: 1,
                message: format!("registered callsite `{}` has no fire in code", e.name),
            });
        }
    }

    // Fault-surface enumeration over the service crates.
    let mut density: BTreeMap<String, (usize, usize)> = SERVICE_CRATES
        .iter()
        .map(|&c| (c.to_string(), (0, 0)))
        .collect();
    let mut uncovered = Vec::new();
    for ctx in ctxs {
        if ctx.file.kind != FileKind::Lib
            || !SERVICE_CRATES.contains(&ctx.file.crate_name.as_str())
        {
            continue;
        }
        let offsets = fire_offsets
            .get(&ctx.file.path)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        for f in surface_fns(&ctx.view) {
            if ctx.in_test_code(f.at) {
                continue;
            }
            let Some(entry) = density.get_mut(&ctx.file.crate_name) else {
                continue;
            };
            entry.1 += 1;
            let covered = offsets
                .iter()
                .any(|&o| o >= f.body_start && o < f.body_end);
            if covered {
                entry.0 += 1;
                continue;
            }
            let line = ctx.line_of(f.at);
            violations.push(Violation {
                rule: "unarmed-service-fn".into(),
                file: ctx.file.path.clone(),
                line,
                message: format!("`{}` returns Result but has no buggify arm", f.name),
            });
            uncovered.push(UncoveredFn {
                crate_name: ctx.file.crate_name.clone(),
                file: ctx.file.path.clone(),
                fn_name: f.name,
                line,
            });
        }
    }

    uncovered.sort_by(|a, b| {
        (&a.crate_name, &a.file, a.line).cmp(&(&b.crate_name, &b.file, b.line))
    });
    fires.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let audit = Audit {
        crates: density
            .into_iter()
            .map(|(crate_name, (covered, total))| CrateDensity {
                crate_name,
                covered,
                escaped: 0,
                total,
            })
            .collect(),
        uncovered,
        fires,
    };
    (audit, violations)
}

/// Read the string literal starting at or just after `open` in the
/// *raw* source (the code view has blanked it): skip whitespace,
/// expect `"`, return the text up to the closing quote.
fn string_literal_at(src: &str, open: usize) -> Option<String> {
    let b = src.as_bytes();
    let mut i = open;
    while i < b.len() && (b[i] as char).is_whitespace() {
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return None;
    }
    let start = i + 1;
    let end = start + src[start..].find('"')?;
    Some(src[start..end].to_string())
}

/// One enumerated fault-surface function.
struct SurfaceFn {
    name: String,
    /// Offset of the `fn` keyword.
    at: usize,
    body_start: usize,
    body_end: usize,
}

/// Enumerate `Result`-returning functions with bodies in a code view.
fn surface_fns(view: &str) -> Vec<SurfaceFn> {
    let b = view.as_bytes();
    let mut out = Vec::new();
    for at in find_pattern(view, "fn") {
        // Require whitespace after the keyword (rules out `fn` inside
        // paths — the boundary check already rules out identifiers).
        let mut i = at + 2;
        if i >= b.len() || !(b[i] as char).is_whitespace() {
            continue;
        }
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        if i == name_start {
            continue;
        }
        let name = view[name_start..i].to_string();
        // Find the argument list (skipping generics) and match it.
        let Some(open_rel) = view[i..].find('(') else {
            continue;
        };
        let args_open = i + open_rel;
        let args_end = paren_match(b, args_open);
        // The return-type region runs to the body `{` or a `;`
        // (trait method declarations have no body and are skipped).
        let mut j = args_end;
        let mut body_open = None;
        while j < b.len() {
            match b[j] {
                b'{' => {
                    body_open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = body_open else { continue };
        let ret = &view[args_end..open];
        // `Result` as a whole identifier: a `BuildResult` is plain data.
        if !ret.contains("->") || find_pattern(ret, "Result").is_empty() {
            continue;
        }
        // Display/Debug impls return `fmt::Result`; formatting is not
        // a fault surface.
        if ret.contains("fmt::Result") {
            continue;
        }
        let body_end = brace_match(b, open);
        out.push(SurfaceFn {
            name,
            at,
            body_start: open,
            body_end,
        });
    }
    out
}

/// Offset one past the `)` matching the `(` at `open` (or EOF).
fn paren_match(b: &[u8], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}
