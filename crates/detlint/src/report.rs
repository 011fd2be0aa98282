//! The lint report and its human rendering.
//!
//! detlint in CI is a gate: any violation fails the run. An exemption
//! is an inline `// detlint: allow(rule) -- reason` escape next to the
//! code it excuses, so the report needs no state beyond one run.

use crate::audit::Audit;
use crate::rules::Violation;
use std::collections::BTreeMap;

/// The full output of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Every rule firing no escape silenced.
    pub violations: Vec<Violation>,
    /// The buggify-surface audit.
    pub audit: Audit,
}

/// Render the human-readable report.
pub fn render_human(report: &LintReport) -> String {
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
        // The density leaves out the fns an escape excused as non-IO.
        let unescaped = c.total - c.escaped;
        let density = if unescaped == 0 {
            "none unescaped".to_string()
        } else {
            let pct = 100.0 * c.covered as f64 / unescaped as f64;
            format!("{pct:.0}% of the unescaped armed")
        };
        s.push_str(&format!(
            "  {:<14} {:>2} armed / {:>2} escaped of {:>2} Result-returning fns ({density})\n",
            c.crate_name, c.covered, c.escaped, c.total
        ));
    }
    s.push_str(&format!(
        "  {} fire site(s) in code, {} unarmed surface fn(s)\n",
        report.audit.fires.len(),
        report.audit.uncovered.len()
    ));
    s
}
