//! Failure shrinking: reduce a violating scenario to a minimal reproducer.
//!
//! When a swarm scenario trips an oracle, the shrinker re-runs the oracle
//! suite on systematically smaller specs — bisecting the horizon, pruning
//! the fault mix entry by entry, then zeroing the remaining noise sources —
//! and keeps every reduction that still violates. The three phases loop to
//! a fixpoint: pruning a fault or zeroing the user load often *re-enables*
//! further horizon halving (less contention → the failure reproduces
//! sooner), so a single pass over the phases is not minimal. The result is
//! a [`Reproducer`]: the minimal spec, the violation it still produces, and
//! its on-disk form — a `scenario.v1` file with the violation in `notes`,
//! which `--scenario` (or [`replay`]) re-runs like any other scenario.

use crate::grammar::{horizon_hours, ScenarioSpec};
use crate::oracle::{OracleKind, Violation};
use crate::scenario_file::{parse_scenario, to_annotated_json, ScenarioFileError};
use crate::swarm::{run_scenario, Oracles};

/// A minimal failing scenario, ready to paste into a regression test.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// The originating seed.
    pub seed: u64,
    /// The minimized spec.
    pub spec: ScenarioSpec,
    /// The violation the minimized spec still produces.
    pub violation: Violation,
    /// The minimized spec as a scenario file, the violation in its
    /// `notes` (feed to [`replay`] or `--scenario`).
    pub dump: String,
    /// Fixpoint passes that made progress (≥ 2 means a later phase
    /// re-enabled an earlier one — the reason the loop exists).
    pub passes: usize,
}

/// First violation of `spec` under `oracles`, if any. Panics inside the
/// campaign surface as `Panicked` violations (see
/// [`crate::swarm::run_scenario`]), so shrinking "still panics" works like
/// shrinking any other failure.
fn violates(spec: &ScenarioSpec, oracles: &Oracles) -> Option<Violation> {
    run_scenario(spec, oracles).violations.into_iter().next()
}

/// `oracles` restricted to the one that produced `kind` — shrink probes
/// check only the failing oracle, so minimization stays cheap and a
/// reduction cannot latch onto a different bug than the one it claims to
/// reproduce.
fn only(kind: OracleKind, oracles: &Oracles) -> Oracles {
    Oracles {
        equivalence: kind == OracleKind::EngineEquivalence,
        detection: kind == OracleKind::DetectionSoundness,
        conservation: kind == OracleKind::Conservation,
        tests_run_limit: (kind == OracleKind::TestsRunLimit)
            .then_some(oracles.tests_run_limit)
            .flatten(),
        panic_on_seed: (kind == OracleKind::Panicked)
            .then_some(oracles.panic_on_seed)
            .flatten(),
    }
}

/// One pass over the three reduction phases. Returns whether any
/// reduction was accepted (so the caller loops to a fixpoint).
fn shrink_pass(best: &mut ScenarioSpec, violation: &mut Violation, oracles: &Oracles) -> bool {
    let mut progressed = false;

    // 1. Bisect the horizon: keep halving while the failure persists. The
    //    floor is one tick (a campaign must advance at least one grid
    //    instant to mean anything).
    let floor_hours = *horizon_hours(best.tick_mins).start();
    while best.duration_hours / 2 >= floor_hours {
        let mut candidate = best.clone();
        candidate.duration_hours /= 2;
        match violates(&candidate, oracles) {
            Some(v) => {
                *best = candidate;
                *violation = v;
                progressed = true;
            }
            None => break,
        }
    }

    // 2. Prune the fault mix entry by entry (reverse order so removal
    //    never disturbs the indices still to be probed).
    for i in (0..best.fault_mix.len()).rev() {
        let mut candidate = best.clone();
        candidate.fault_mix.remove(i);
        if let Some(v) = violates(&candidate, oracles) {
            *best = candidate;
            *violation = v;
            progressed = true;
        }
    }

    // 3. Zero the remaining noise sources where the failure survives —
    //    including collapsing the topology onto one site, which strips the
    //    whole multi-site dimension (federated placement, spillover,
    //    inter-site faults) when it is not what broke.
    let reductions: [fn(&mut ScenarioSpec); 6] = [
        |s| s.maintenance_per_day = 0.0,
        |s| s.initial_fault_burden = 0,
        |s| s.peak_jobs_per_day = 0.0,
        // Disarm buggify: call-level chaos is noise unless it is the bug.
        |s| s.buggify_rate = 0.0,
        // Disarm the read plane: query traffic is digest-neutral by
        // design, so it is almost always shrinkable noise.
        |s| {
            s.queries_per_day = 0.0;
            s.query_users = 0;
        },
        |s| {
            for c in &mut s.clusters {
                c.site = crate::grammar::site_name(0);
            }
        },
    ];
    for reduce in reductions {
        let mut candidate = best.clone();
        reduce(&mut candidate);
        if candidate == *best {
            continue;
        }
        if let Some(v) = violates(&candidate, oracles) {
            *best = candidate;
            *violation = v;
            progressed = true;
        }
    }

    progressed
}

/// Shrink a violating spec to a minimal reproducer. Returns `None` when
/// `spec` does not actually violate any enabled oracle.
///
/// The reduction phases loop until a full pass makes no progress: phase 3
/// zeroing the user load routinely re-enables phase 1 halving (with the
/// testbed uncontended the failure reproduces in half the horizon), and
/// phase 2 pruning can do the same. The loop is bounded — every accepted
/// reduction strictly shrinks a finite quantity (horizon hours, mix
/// entries, noise sources), so the fixpoint arrives; the cap is a
/// belt-and-braces guard against a probe oscillating.
pub fn shrink(spec: &ScenarioSpec, oracles: &Oracles) -> Option<Reproducer> {
    let mut violation = violates(spec, oracles)?;
    let oracles = &only(violation.oracle, oracles);
    let mut best = spec.clone();

    const MAX_PASSES: usize = 8;
    let mut passes = 0;
    while passes < MAX_PASSES && shrink_pass(&mut best, &mut violation, oracles) {
        passes += 1;
    }

    Some(Reproducer {
        seed: spec.seed,
        dump: to_annotated_json(&best, &format!("minimal reproducer of {violation}")),
        spec: best,
        violation,
        passes,
    })
}

/// Replay a reproducer: validate the scenario file and re-run the oracle
/// suite. The one-line regression test is
/// `assert!(!replay(DUMP, &oracles).unwrap().is_empty())` — or, once
/// fixed, `assert!(replay(DUMP, &oracles).unwrap().is_empty())`.
pub fn replay(dump: &str, oracles: &Oracles) -> Result<Vec<Violation>, Vec<ScenarioFileError>> {
    Ok(run_scenario(&parse_scenario(dump)?, oracles).violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite bugfix pinned: a single pass over the phases is not
    /// minimal. For this spec (high user load, tests-run trip wire) the
    /// first pass stops halving while contention still slows testing; the
    /// pass-3 load zeroing then speeds tests back up, and only a *second*
    /// pass can halve the horizon again. The fixpoint loop must therefore
    /// end strictly smaller than one pass does.
    #[test]
    fn second_pass_shrinks_further_than_one() {
        let (spec, oracles) = second_pass_case();
        let mut one_pass = spec.clone();
        let mut violation = violates(&spec, &oracles).expect("case must violate");
        let restricted = only(violation.oracle, &oracles);
        assert!(shrink_pass(&mut one_pass, &mut violation, &restricted));

        let repro = shrink(&spec, &oracles).expect("case must shrink");
        assert!(
            repro.passes >= 2,
            "fixpoint ended after {} pass(es); the case no longer exercises the loop",
            repro.passes
        );
        assert!(
            repro.spec.duration_hours < one_pass.duration_hours,
            "second pass did not shrink further ({} h vs {} h after one pass)",
            repro.spec.duration_hours,
            one_pass.duration_hours
        );
    }

    /// A scenario where phase-3 noise zeroing re-enables horizon halving:
    /// grammar seed 30 (naive-cron, 91 tests) with the trip wire at 22
    /// tests, found by scanning the first forty grammar seeds. Today one
    /// pass stops at 5 h; the fixpoint's second pass halves on to 2 h.
    fn second_pass_case() -> (ScenarioSpec, Oracles) {
        let spec = ScenarioSpec::from_seed(30);
        let oracles = Oracles {
            tests_run_limit: Some(22),
            ..Oracles::none()
        };
        (spec, oracles)
    }

    #[test]
    fn reproducer_dump_names_the_violation_it_reproduces() {
        let (spec, oracles) = second_pass_case();
        let repro = shrink(&spec, &oracles).expect("case must shrink");
        let notes = format!("\"notes\": \"minimal reproducer of {}\"", repro.violation);
        assert!(repro.dump.contains(&notes), "{}", repro.dump);
    }

    #[test]
    fn incompatible_dumps_error_instead_of_panicking() {
        // The envelope older builds wrote is not a scenario file: it is
        // reported at the missing format tag, never parsed.
        let old = "{\"version\": 4, \"spec\": {\"seed\": 1}}";
        let errs = replay(old, &Oracles::none()).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].path, "format");
        assert!(replay("not json at all", &Oracles::none()).is_err());
        // A bare derived-struct spec, the shape before any envelope.
        assert!(replay("{\"seed\": 1, \"duration_hours\": 4}", &Oracles::none()).is_err());
    }
}
