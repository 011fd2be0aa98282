//! Results as JSON: the one-line result of a run, the contract file
//! `BENCHMARK.json`, the records a set of runs appends to a file, and the
//! comparison of two such files under the declared bounds.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// One run's outcome: what the last line of standard output carries.
pub struct RunResult {
    /// `(name, value, unit)` of every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl RunResult {
    /// Whether every operation succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; `correct` already says the run is bad.
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.to_string(),
                    object(vec![("value", Value::F64(value)), ("unit", text(unit))]),
                )
            })
            .collect();
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// Compact JSON text of `v`.
pub fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value tree always renders")
}

/// `BENCHMARK.json`, from the declared tables.
pub fn contract(run_seconds: u64) -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS
        .iter()
        .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            object(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.word())),
                ("bound", Value::F64(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            object(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.word())),
            ])
        })
        .collect();
    let v = object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Array(vec![text("ledger")])),
        ("run_seconds", Value::U64(run_seconds)),
        ("workloads", Value::Array(workloads)),
        ("end_to_end", Value::Array(end_to_end)),
        ("per_layer", Value::Array(per_layer)),
    ]);
    let mut out = serde_json::to_string_pretty(&v).expect("a Value tree always renders");
    out.push('\n');
    out
}

/// One line of a set file: which run produced which result.
pub fn record(
    workload: &str,
    seed: u64,
    trace: bool,
    runq_wait_share: f64,
    r: &RunResult,
) -> String {
    render(&object(vec![
        ("workload", text(workload)),
        ("seed", Value::U64(seed)),
        ("trace", Value::Bool(trace)),
        ("host_cpus", Value::U64(crate::e2e::host_cpus() as u64)),
        ("runq_wait_share", Value::F64(runq_wait_share)),
        ("result", r.to_value()),
    ]))
}

fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// A set file's untraced (or traced) values: workload → metric → one value
/// per run, plus the number of runs that were not `correct`.
pub struct Set {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    incorrect: usize,
}

impl Set {
    /// Parse the records of `text` whose `trace` flag is `traced`.
    pub fn parse(text: &str, traced: bool) -> Result<Set, String> {
        let mut set = Set {
            values: BTreeMap::new(),
            incorrect: 0,
        };
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("line {}: {what}", n + 1);
            let v = serde_json::parse(line).map_err(|e| bad(&format!("{e:?}")))?;
            if field(&v, "trace") != Some(&Value::Bool(traced)) {
                continue;
            }
            let workload = field(&v, "workload")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("no workload"))?;
            let result = field(&v, "result").ok_or_else(|| bad("no result"))?;
            if field(result, "correct") != Some(&Value::Bool(true)) {
                set.incorrect += 1;
            }
            let metrics = field(result, "metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| bad("no metrics"))?;
            for (name, m) in metrics {
                let value = field(m, "value")
                    .and_then(number)
                    .ok_or_else(|| bad("a metric without a value"))?;
                set.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
        Ok(set)
    }

    fn of(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }
}

/// Medians, quartiles and spread of every end-to-end metric of one set,
/// and against a second set the verdict under the metric's bound: counts
/// must match exactly, clocks may be worse by the bound. Returns the table
/// and whether everything held.
pub fn compare(a_text: &str, b_text: Option<&str>) -> Result<(String, bool), String> {
    let a = Set::parse(a_text, false)?;
    let b = b_text.map(|t| Set::parse(t, false)).transpose()?;
    let mut out = String::new();
    let mut ok = a.incorrect == 0 && b.as_ref().is_none_or(|b| b.incorrect == 0);
    if !ok {
        let _ = writeln!(
            out,
            "runs not correct: A {}, B {}",
            a.incorrect,
            b.as_ref().map_or(0, |b| b.incorrect)
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:<22} {:>5} {:>14} {:>14} {:>14} {:>7} {:>14} {:>8}  verdict",
        "workload", "metric", "n", "median A", "q1", "q3", "spread", "median B", "B vs A"
    );
    for w in WORKLOADS.iter() {
        for m in END_TO_END.iter() {
            let va = a.of(w.name, m.name);
            if va.is_empty() {
                continue;
            }
            let med_a = median(va);
            let (q1, q3) = quartiles(va).unwrap_or((med_a, med_a));
            let spread = spread(va).unwrap_or(0.0);
            let _ = write!(
                out,
                "{:<12} {:<22} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>6.2}%",
                w.name,
                m.name,
                va.len(),
                med_a,
                q1,
                q3,
                spread * 100.0
            );
            let Some(b) = &b else {
                // Alone, a set is judged on steadiness: a spread above a
                // third of the bound will not resolve a change of the bound.
                let steady = m.name == "setup_s" || spread <= m.bound / 3.0;
                let _ = writeln!(
                    out,
                    "{:>14} {:>8}  {}",
                    "",
                    "",
                    if steady { "steady" } else { "NOISY" }
                );
                continue;
            };
            let vb = b.of(w.name, m.name);
            if vb.is_empty() {
                ok = false;
                let _ = writeln!(out, "{:>14} {:>8}  MISSING in B", "", "");
                continue;
            }
            let med_b = median(vb);
            let change = (med_b - med_a) / med_a.abs();
            let worse = match m.better {
                Better::Higher => -change,
                Better::Lower => change,
            };
            let verdict = if m.exact && med_a == med_b {
                "same count"
            } else if worse <= m.bound {
                if m.exact {
                    "count moved"
                } else {
                    "within bound"
                }
            } else {
                ok = false;
                "REGRESSED"
            };
            let _ = writeln!(out, "{med_b:>14.6} {:>+7.2}%  {verdict}", change * 100.0);
        }
    }
    // Simulated statistics must repeat exactly between the two sets.
    if let (Some(b_text), Some(a_traced)) = (b_text, Set::parse(a_text, true).ok()) {
        let b_traced = Set::parse(b_text, true)?;
        for w in WORKLOADS.iter() {
            for name in [
                "core.sim.tests_run",
                "core.sim.bugs_filed",
                "core.sim.digest_fold",
            ] {
                let (va, vb) = (a_traced.of(w.name, name), b_traced.of(w.name, name));
                if let (Some(x), Some(y)) = (va.first(), vb.first()) {
                    let same = va.iter().chain(vb).all(|v| v == x);
                    ok &= same;
                    let _ = writeln!(
                        out,
                        "{:<12} {:<22} {:>20} {:>20}  {}",
                        w.name,
                        name,
                        x,
                        y,
                        if same { "identical" } else { "DIFFERS" }
                    );
                }
            }
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(sim_days_per_s: f64, allocs: f64) -> RunResult {
        RunResult {
            metrics: vec![
                ("sim_days_per_s", sim_days_per_s, "d/s"),
                ("allocs_per_sim_day", allocs, "1/d"),
            ],
            attempted: 10,
            failed: 0,
        }
    }

    fn set(rates: &[f64], allocs: f64) -> String {
        rates
            .iter()
            .map(|&r| record("quiet_year", 1, false, 0.0, &result(r, allocs)) + "\n")
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = result(2.5, 432.0).to_value();
        let keys: Vec<&str> = v
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            render(&v),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"sim_days_per_s":{"value":2.5,"unit":"d/s"},"allocs_per_sim_day":{"value":432.0,"unit":"1/d"}}}"#
        );
    }

    #[test]
    fn a_failed_or_non_finite_run_is_not_correct() {
        let mut r = result(1.0, 1.0);
        r.failed = 1;
        assert!(!r.correct());
        let nan = result(f64::NAN, 1.0);
        assert!(!nan.correct());
        assert!(render(&nan.to_value()).contains(r#""value":0.0"#));
    }

    #[test]
    fn compare_applies_bounds_to_clocks_and_exactness_to_counts() {
        let a = set(&[100.0, 101.0, 99.0], 432.0);
        let (_, ok) = compare(&a, Some(&set(&[95.0, 96.0, 94.0], 432.0))).expect("parses");
        assert!(ok, "5 % slower is inside the 25 % bound");
        let (table, ok) = compare(&a, Some(&set(&[60.0, 61.0, 59.0], 432.0))).expect("parses");
        assert!(!ok, "40 % slower is a regression");
        assert!(table.contains("REGRESSED"));
        let (table, ok) = compare(&a, Some(&set(&[100.0, 101.0, 99.0], 500.0))).expect("parses");
        assert!(!ok, "16 % more allocations is past the 1 % bound");
        assert!(table.contains("REGRESSED"));
        let (table, ok) = compare(&a, Some(&set(&[130.0], 432.0))).expect("parses");
        assert!(ok, "faster is never a regression");
        assert!(table.contains("same count"));
    }

    #[test]
    fn compare_alone_reports_steadiness_and_rejects_junk() {
        let (table, ok) = compare(&set(&[100.0, 100.5, 99.5, 100.2], 432.0), None).expect("parses");
        assert!(ok);
        assert!(table.contains("steady"));
        let (table, _) = compare(&set(&[100.0, 150.0, 60.0, 100.0], 432.0), None).expect("parses");
        assert!(table.contains("NOISY"));
        assert!(compare("not json\n", None).is_err());
    }
}
