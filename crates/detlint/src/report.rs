//! Reports, baselines and the ratchet.
//!
//! detlint in CI is a *ratchet*, not a gate on perfection: the
//! committed `detlint-baseline.json` freezes today's debt — per
//! `(rule, file)` violation counts, the buggify-uncovered surface and
//! per-crate coverage floors — and the ratchet fails a run only when
//! the debt grows: a new violation, a count above its baseline, a new
//! uncovered surface function, or a coverage drop. Shrinking debt
//! produces warnings inviting the baseline to be tightened. Every
//! baseline entry must carry a non-empty `reason`; an unexplained
//! exemption is treated as a validation failure, exactly like an
//! inline escape without a reason.

use crate::audit::Audit;
use crate::rules::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// The full output of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Every rule firing (escapes already applied).
    pub violations: Vec<Violation>,
    /// The buggify-surface audit.
    pub audit: Audit,
}
serde::record!(struct LintReport { violations, audit });

/// A committed `(rule, file)` debt entry.
#[derive(Debug, Clone)]
pub struct BaselineRule {
    /// Catalogue rule name.
    pub rule: String,
    /// Repo-relative file.
    pub file: String,
    /// Maximum tolerated firings of `rule` in `file`.
    pub count: usize,
    /// Why the debt is tolerated. Must be non-empty.
    pub reason: String,
}
serde::record!(struct BaselineRule { rule, file, count, reason });

/// A committed buggify-coverage floor for one crate.
#[derive(Debug, Clone)]
pub struct BaselineCrate {
    /// Crate name.
    pub crate_name: String,
    /// Coverage floor: the run fails if fewer surface functions carry
    /// an arm.
    pub covered: usize,
    /// Surface size when the baseline was written (informational).
    pub total: usize,
}
serde::record!(struct BaselineCrate { crate_name, covered, total });

/// A committed exemption for one uncovered surface function.
#[derive(Debug, Clone)]
pub struct BaselineUncovered {
    /// Crate name.
    pub crate_name: String,
    /// Repo-relative file.
    pub file: String,
    /// Function name.
    pub fn_name: String,
    /// Why this function carries no buggify arm. Must be non-empty.
    pub reason: String,
}
serde::record!(struct BaselineUncovered { crate_name, file, fn_name, reason });

/// The buggify half of a baseline.
#[derive(Debug, Clone, Default)]
pub struct BaselineBuggify {
    /// Per-crate coverage floors.
    pub crates: Vec<BaselineCrate>,
    /// Tolerated uncovered surface functions.
    pub uncovered: Vec<BaselineUncovered>,
}
serde::record!(struct BaselineBuggify { crates, uncovered });

/// The `version` [`write_baseline`] stamps and [`ratchet`] accepts.
pub const BASELINE_VERSION: u32 = 1;

/// The committed ratchet state (`detlint-baseline.json`).
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Format version (currently 1).
    pub version: u32,
    /// Tolerated rule debt.
    pub rules: Vec<BaselineRule>,
    /// Buggify coverage floors and exemptions.
    pub buggify: BaselineBuggify,
}
serde::record!(struct Baseline { version, rules, buggify });

/// The ratchet verdict: failures flunk the run, warnings invite a
/// baseline tightening.
#[derive(Debug, Clone, Default)]
pub struct RatchetOutcome {
    /// New or grown debt — CI fails on any of these.
    pub failures: Vec<String>,
    /// Shrunk or stale debt — informational.
    pub warnings: Vec<String>,
}

impl RatchetOutcome {
    /// Whether the run passes.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare a report against a baseline.
pub fn ratchet(report: &LintReport, baseline: &Baseline) -> RatchetOutcome {
    let mut out = RatchetOutcome::default();

    // The baseline itself must be of this format and fully justified.
    if baseline.version != BASELINE_VERSION {
        out.failures.push(format!(
            "baseline version {} is not {BASELINE_VERSION}",
            baseline.version
        ));
    }
    for r in &baseline.rules {
        if r.reason.trim().is_empty() {
            out.failures.push(format!(
                "baseline entry ({}, {}) has an empty reason",
                r.rule, r.file
            ));
        }
    }
    for u in &baseline.buggify.uncovered {
        if u.reason.trim().is_empty() {
            out.failures.push(format!(
                "baseline uncovered entry {}::{} has an empty reason",
                u.file, u.fn_name
            ));
        }
    }

    // Rule debt: current per-(rule, file) counts vs tolerated counts.
    let mut current: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &report.violations {
        *current
            .entry((v.rule.clone(), v.file.clone()))
            .or_default() += 1;
    }
    let tolerated: BTreeMap<(String, String), usize> = baseline
        .rules
        .iter()
        .map(|r| ((r.rule.clone(), r.file.clone()), r.count))
        .collect();
    for ((rule, file), &n) in &current {
        match tolerated.get(&(rule.clone(), file.clone())) {
            None => {
                let lines: Vec<String> = report
                    .violations
                    .iter()
                    .filter(|v| &v.rule == rule && &v.file == file)
                    .map(|v| v.line.to_string())
                    .collect();
                out.failures.push(format!(
                    "{file}: {n} unbaselined `{rule}` violation(s) at line(s) {}",
                    lines.join(", ")
                ));
            }
            Some(&max) if n > max => out.failures.push(format!(
                "{file}: `{rule}` grew from {max} to {n}"
            )),
            Some(&max) if n < max => out.warnings.push(format!(
                "{file}: `{rule}` shrank from {max} to {n} — tighten the baseline"
            )),
            Some(_) => {}
        }
    }
    for ((rule, file), &max) in &tolerated {
        if max > 0 && !current.contains_key(&(rule.clone(), file.clone())) {
            out.warnings.push(format!(
                "stale baseline entry ({rule}, {file}) — no current violations"
            ));
        }
    }

    // Buggify surface: every uncovered function must be exempted.
    let exempt: BTreeSet<(&str, &str)> = baseline
        .buggify
        .uncovered
        .iter()
        .map(|u| (u.file.as_str(), u.fn_name.as_str()))
        .collect();
    for u in &report.audit.uncovered {
        if !exempt.contains(&(u.file.as_str(), u.fn_name.as_str())) {
            out.failures.push(format!(
                "{}:{} `{}` returns Result but has no buggify arm and no exemption",
                u.file, u.line, u.fn_name
            ));
        }
    }
    let still_uncovered: BTreeSet<(&str, &str)> = report
        .audit
        .uncovered
        .iter()
        .map(|u| (u.file.as_str(), u.fn_name.as_str()))
        .collect();
    for u in &baseline.buggify.uncovered {
        if !still_uncovered.contains(&(u.file.as_str(), u.fn_name.as_str())) {
            out.warnings.push(format!(
                "stale exemption {}::{} — now covered or gone",
                u.file, u.fn_name
            ));
        }
    }

    // Coverage floors.
    let floors: BTreeMap<&str, usize> = baseline
        .buggify
        .crates
        .iter()
        .map(|c| (c.crate_name.as_str(), c.covered))
        .collect();
    for c in &report.audit.crates {
        if let Some(&floor) = floors.get(c.crate_name.as_str()) {
            if c.covered < floor {
                out.failures.push(format!(
                    "{}: buggify coverage dropped below floor ({} < {})",
                    c.crate_name, c.covered, floor
                ));
            } else if c.covered > floor {
                out.warnings.push(format!(
                    "{}: buggify coverage rose ({} > floor {}) — raise the floor",
                    c.crate_name, c.covered, floor
                ));
            }
        }
    }

    out
}

/// Derive a fresh baseline from a report, carrying reasons over from
/// `prev` where entries match; new entries get an empty reason that
/// the validator will flag until a human fills it in.
pub fn write_baseline(report: &LintReport, prev: Option<&Baseline>) -> Baseline {
    let prev_rule_reason: BTreeMap<(String, String), String> = prev
        .map(|b| {
            b.rules
                .iter()
                .map(|r| ((r.rule.clone(), r.file.clone()), r.reason.clone()))
                .collect()
        })
        .unwrap_or_default();
    let prev_unc_reason: BTreeMap<(String, String), String> = prev
        .map(|b| {
            b.buggify
                .uncovered
                .iter()
                .map(|u| ((u.file.clone(), u.fn_name.clone()), u.reason.clone()))
                .collect()
        })
        .unwrap_or_default();

    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &report.violations {
        *counts
            .entry((v.rule.clone(), v.file.clone()))
            .or_default() += 1;
    }
    Baseline {
        version: BASELINE_VERSION,
        rules: counts
            .into_iter()
            .map(|((rule, file), count)| BaselineRule {
                reason: prev_rule_reason
                    .get(&(rule.clone(), file.clone()))
                    .cloned()
                    .unwrap_or_default(),
                rule,
                file,
                count,
            })
            .collect(),
        buggify: BaselineBuggify {
            crates: report
                .audit
                .crates
                .iter()
                .map(|c| BaselineCrate {
                    crate_name: c.crate_name.clone(),
                    covered: c.covered,
                    total: c.total,
                })
                .collect(),
            uncovered: report
                .audit
                .uncovered
                .iter()
                .map(|u| BaselineUncovered {
                    crate_name: u.crate_name.clone(),
                    file: u.file.clone(),
                    fn_name: u.fn_name.clone(),
                    reason: prev_unc_reason
                        .get(&(u.file.clone(), u.fn_name.clone()))
                        .cloned()
                        .unwrap_or_default(),
                })
                .collect(),
        },
    }
}

/// Render the human-readable report.
pub fn render_human(report: &LintReport, outcome: Option<&RatchetOutcome>) -> String {
    let mut s = String::new();
    s.push_str("detlint report\n==============\n\n");

    let mut by_rule: BTreeMap<&str, Vec<&Violation>> = BTreeMap::new();
    for v in &report.violations {
        by_rule.entry(v.rule.as_str()).or_default().push(v);
    }
    if by_rule.is_empty() {
        s.push_str("no violations\n");
    }
    for (rule, vs) in &by_rule {
        s.push_str(&format!("{rule} ({} firing(s))\n", vs.len()));
        for v in vs {
            s.push_str(&format!("  {}:{} {}\n", v.file, v.line, v.message));
        }
    }

    s.push_str("\nbuggify surface\n---------------\n");
    for c in &report.audit.crates {
        let pct = if c.total == 0 {
            0.0
        } else {
            100.0 * c.covered as f64 / c.total as f64
        };
        s.push_str(&format!(
            "  {:<14} {:>2}/{:<2} Result-returning fns armed ({pct:.0}%)\n",
            c.crate_name, c.covered, c.total
        ));
    }
    s.push_str(&format!(
        "  {} fire site(s) in code, {} uncovered surface fn(s)\n",
        report.audit.fires.len(),
        report.audit.uncovered.len()
    ));

    if let Some(o) = outcome {
        s.push_str("\nratchet\n-------\n");
        for f in &o.failures {
            s.push_str(&format!("  FAIL {f}\n"));
        }
        for w in &o.warnings {
            s.push_str(&format!("  warn {w}\n"));
        }
        if o.failures.is_empty() {
            s.push_str("  clean: no debt growth\n");
        }
    }
    s
}
