//! On-disk artifacts reproduce campaigns bit-for-bit.
//!
//! The acceptance spine of the scenario pipeline: a hand-written
//! `scenario.v1` file and a fuzzer reproducer dump must both re-run from
//! their on-disk form to the same [`CampaignDigest`] on every engine, and
//! the scenario-file layer must never panic or lose precision — checked
//! here both on the checked-in examples and property-style across the
//! grammar.

use proptest::prelude::*;
use std::path::PathBuf;
use ttt_core::Engine;
use ttt_scengen::{
    dump_spec, load_scenario_file, parse_dump, parse_scenario, run_logged, to_scenario_json,
    CampaignDigest, ScenarioSpec,
};

fn digest(spec: &ScenarioSpec, engine: Engine) -> CampaignDigest {
    CampaignDigest::capture(&ttt_scengen::oracle::run_campaign(spec, engine))
}

/// Both engines agree on `spec`, and return the shared digest.
fn digest_all_engines(spec: &ScenarioSpec) -> CampaignDigest {
    let next_event = digest(spec, Engine::NextEvent);
    let lockstep = digest(spec, Engine::Lockstep);
    assert_eq!(
        lockstep.diff(&next_event),
        Vec::<&str>::new(),
        "Lockstep diverges from NextEvent"
    );
    next_event
}

fn example_scenarios() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no example scenarios checked in");
    files
}

/// Every checked-in example scenario loads, round-trips bit-for-bit, and
/// reproduces one digest on both engines from its on-disk form.
#[test]
fn example_scenario_files_reproduce_identically_on_every_engine() {
    for path in example_scenarios() {
        let spec = load_scenario_file(&path)
            .unwrap_or_else(|errs| panic!("{} does not validate: {errs:?}", path.display()));
        let reparsed = parse_scenario(&to_scenario_json(&spec))
            .unwrap_or_else(|errs| panic!("{} does not round-trip: {errs:?}", path.display()));
        assert_eq!(reparsed, spec, "{} round-trip changed the spec", path.display());
        // Re-load from disk a second time: same digest — the file IS the
        // reproducer.
        let again = load_scenario_file(&path).unwrap();
        let d1 = digest_all_engines(&spec);
        let d2 = digest_all_engines(&again);
        assert_eq!(d1.diff(&d2), Vec::<&str>::new(), "{}", path.display());
    }
}

/// A fuzzer reproducer dump re-runs from disk to the identical digest on
/// every engine — the artifact loop an operator actually uses: shrink
/// writes the dump, a later build reads it back and reproduces.
#[test]
fn reproducer_dumps_reproduce_identically_on_every_engine() {
    let spec = ScenarioSpec::from_seed(17);
    let original = digest_all_engines(&spec);

    let dir = std::env::temp_dir().join("ttt-scenario-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    std::fs::write(&path, dump_spec(&spec)).unwrap();

    let loaded = parse_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded, spec, "dump round-trip changed the spec");
    let replayed = digest_all_engines(&loaded);
    assert_eq!(replayed.diff(&original), Vec::<&str>::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Run-log artifacts close the loop too: the embedded spec re-drives to
/// the embedded digest on the embedded engine.
#[test]
fn run_log_artifacts_reproduce_from_disk() {
    let spec = ScenarioSpec::from_seed(23);
    let artifact = run_logged(&spec, Engine::NextEvent);

    let dir = std::env::temp_dir().join("ttt-runlog-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    std::fs::write(&path, artifact.to_json()).unwrap();

    let replay = ttt_scengen::replay_run_log_file(&path).unwrap();
    assert!(
        replay.is_identical(),
        "replay diverged: digest fields {:?}, events_match {}",
        replay.digest_diff,
        replay.events_match
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grammar spec → scenario file → parse → bit-identical spec. Spec
    /// equality is digest equality: lowering is a pure function of the
    /// spec, so the file format never perturbs a campaign.
    #[test]
    fn any_grammar_spec_roundtrips_through_the_file_format(seed in 0u64..u64::MAX) {
        let spec = ScenarioSpec::from_seed(seed);
        let json = to_scenario_json(&spec);
        let back = parse_scenario(&json)
            .unwrap_or_else(|errs| panic!("seed {seed} does not re-validate: {errs:?}"));
        prop_assert_eq!(back, spec);
    }

    /// Corrupting a valid scenario file never panics the parser: it
    /// either still validates or reports non-empty, path-qualified errors.
    #[test]
    fn corrupted_scenario_files_error_cleanly(
        seed in 0u64..64,
        cut in 0usize..100_000,
        junk in prop::collection::vec(0x20u8..0x7f, 0..24),
    ) {
        let json = to_scenario_json(&ScenarioSpec::from_seed(seed));
        let at = cut % (json.len() + 1);
        // Splice arbitrary printable bytes mid-document (pretty-printed
        // JSON is ASCII, so any byte index is a char boundary).
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let corrupted = format!("{}{}{}", &json[..at], junk, &json[at..]);
        match parse_scenario(&corrupted) {
            Ok(_) => {} // corruption happened to stay valid (e.g. whitespace)
            Err(errors) => {
                prop_assert!(!errors.is_empty());
                for e in &errors {
                    prop_assert!(!e.message.is_empty());
                }
            }
        }
    }
}
