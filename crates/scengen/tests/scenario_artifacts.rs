//! On-disk artifacts reproduce campaigns bit-for-bit.
//!
//! The acceptance spine of the scenario pipeline: a hand-written
//! `scenario.v1` file and a shrunken reproducer (which is one too) must
//! both re-run from their on-disk form to the same [`CampaignDigest`]
//! under the next-event driver and the lockstep reference, and the
//! scenario-file layer must never panic or lose precision — checked
//! here both on the checked-in examples and property-style across the
//! grammar.

use proptest::prelude::*;
use rand::Rng;
use std::path::PathBuf;
use std::sync::OnceLock;
use ttt_scengen::oracle::{run_campaign, run_reference};
use ttt_scengen::{
    load_scenario_file, mutate, parse_scenario, pin_to_cell, run_logged, sanitize, shrink,
    to_scenario_json, CampaignDigest, Corpus, CoverageSignature, ModeDim, Oracles, RolloutDim,
    RunLogArtifact, ScenarioSpec, StructuralCell,
};
use ttt_sim::rng::stream_rng;
use ttt_testbed::LinkModelSpec;

/// The lockstep reference agrees on `spec`; return the shared digest.
fn digest_all_engines(spec: &ScenarioSpec) -> CampaignDigest {
    let next_event = CampaignDigest::capture(&run_campaign(spec));
    let lockstep = CampaignDigest::capture(&run_reference(spec));
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

/// A shrunken reproducer re-runs from disk to the identical digest on
/// every engine — the artifact loop an operator actually uses: shrink
/// writes the dump, a later build loads it like any scenario file and
/// reproduces.
#[test]
fn reproducer_dumps_reproduce_identically_on_every_engine() {
    let oracles = Oracles {
        tests_run_limit: Some(5),
        ..Oracles::none()
    };
    let repro = shrink(&ScenarioSpec::from_seed(17), &oracles).expect("seed 17 runs > 5 tests");
    let original = digest_all_engines(&repro.spec);

    let dir = std::env::temp_dir().join("ttt-scenario-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.json");
    std::fs::write(&path, &repro.dump).unwrap();

    let loaded = load_scenario_file(&path).expect("a reproducer dump is a scenario file");
    assert_eq!(loaded, repro.spec, "dump round-trip changed the spec");
    let replayed = digest_all_engines(&loaded);
    assert_eq!(replayed.diff(&original), Vec::<&str>::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// Run-log artifacts close the loop too: the embedded spec re-drives to
/// the embedded digest.
#[test]
fn run_log_artifacts_reproduce_from_disk() {
    let spec = ScenarioSpec::from_seed(23);
    let artifact = run_logged(&spec);

    let dir = std::env::temp_dir().join("ttt-runlog-artifacts-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.json");
    std::fs::write(&path, artifact.to_json().unwrap()).unwrap();

    let replay = ttt_scengen::replay_run_log_file(&path).unwrap();
    assert!(
        replay.is_identical(),
        "replay diverged: digest fields {:?}, events_match {}",
        replay.digest_diff,
        replay.events_match
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Nesting past the JSON parser's bound is a reported parse error on
/// every decoder that takes outside text — it used to overflow the stack,
/// an abort no `catch_unwind` sees. One level inside the bound still
/// reaches the schema check.
#[test]
fn deeply_nested_documents_are_parse_errors_not_aborts() {
    let deep = "[".repeat(200_000);
    let legal = "[".repeat(127) + &"]".repeat(127);
    let limit = "recursion limit exceeded";

    let errs = parse_scenario(&deep).unwrap_err();
    assert!(errs[0].message.contains(limit), "{errs:?}");
    let path = std::env::temp_dir().join("ttt-deep-scenario-test.json");
    std::fs::write(&path, &deep).unwrap();
    let errs = load_scenario_file(&path).unwrap_err();
    assert!(errs[0].message.contains(limit), "{errs:?}");
    std::fs::remove_file(&path).ok();
    let errs = parse_scenario(&legal).unwrap_err();
    assert!(errs[0].message.contains("a scenario file is a JSON object"), "{errs:?}");

    let err = RunLogArtifact::from_json(&deep).unwrap_err().to_string();
    assert!(err.contains(limit), "{err}");
    let err = RunLogArtifact::from_json(&legal).unwrap_err().to_string();
    assert!(!err.contains(limit), "{err}");

    let err = Corpus::from_json(&deep).unwrap_err();
    assert!(err.contains(limit), "{err}");
    let err = Corpus::from_json(&legal).unwrap_err();
    assert!(!err.contains(limit), "{err}");
}

/// A run log v3 and a corpus v4 envelope, minted once from three short
/// campaigns. Each embeds `scenario.v1` documents, so corrupting them
/// reaches the derived decoders and the hand-written one.
fn envelopes() -> &'static [String; 2] {
    static DOCS: OnceLock<[String; 2]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let runs = [1, 2, 3].map(|seed| {
            let mut spec = ScenarioSpec::from_seed(seed);
            spec.duration_hours = 6;
            run_logged(&spec)
        });
        let mut corpus = Corpus::new();
        for run in &runs {
            corpus.add(run.spec.clone(), CoverageSignature::capture(&run.spec, &run.digest));
        }
        let docs = [runs[2].to_json().unwrap(), corpus.to_json().unwrap()];
        assert!(docs.iter().all(|d| d.is_ascii()), "byte indices must be char boundaries");
        docs
    })
}

/// Decode `text` as artifact kind `doc` (0 scenario file, 1 run log,
/// 2 corpus) and re-encode it; a decode failure is its message.
fn recode(doc: usize, text: &str) -> Result<String, String> {
    match doc {
        0 => parse_scenario(text).map(|spec| to_scenario_json(&spec)).map_err(|errors| {
            assert!(errors.iter().all(|e| !e.message.is_empty()), "{errors:?}");
            errors.iter().map(|e| format!("{e}\n")).collect()
        }),
        1 => RunLogArtifact::from_json(text)
            .map(|artifact| artifact.to_json().unwrap())
            .map_err(|e| e.to_string()),
        _ => Corpus::from_json(text).map(|corpus| corpus.to_json().unwrap()),
    }
}

/// [`wild_spec`]'s inputs: 13 integer fields, then the selectors of the
/// 10 float fields; and the 10 floats.
const WILD_INTS: usize = 23;
const WILD_FLOATS: usize = 10;

/// A grammar spec with junk over every bounded field, scalar and
/// structural. Field `i`'s selector keeps the grammar's value when it is
/// 0 mod 4, lands near the legal range when it is 1 or 2, and anywhere
/// when it is 3; so specs with a single stray field occur, as do specs
/// that are junk throughout.
fn wild_spec(seed: u64, ints: &[u64], floats: &[f64]) -> ScenarioSpec {
    let junk = |i: usize| !ints[i].is_multiple_of(4);
    let int = |i: usize, kept: u64| match ints[i] % 4 {
        0 => kept,
        3 => ints[i],
        _ => ints[i] / 4 % 300,
    };
    let float = |i: usize, kept: f64, scale: f64| match ints[13 + i] % 4 {
        0 => kept,
        3 => floats[i],
        _ => floats[i] / 1.0e7 * scale,
    };
    let mut s = ScenarioSpec::from_seed(seed);
    s.tick_mins = int(0, s.tick_mins);
    s.duration_hours = int(1, s.duration_hours);
    s.executors = int(2, s.executors as u64) as usize;
    s.maintenance_spread = int(3, s.maintenance_spread as u64) as usize;
    s.initial_fault_burden = int(4, s.initial_fault_burden as u64) as usize;
    s.operator_triage_hours = int(5, s.operator_triage_hours);
    s.operator_cadence_hours = int(6, s.operator_cadence_hours);
    s.sample_cadence_hours = int(7, s.sample_cadence_hours);
    s.query_users = int(8, s.query_users);
    for c in &mut s.clusters {
        c.nodes = int(9, c.nodes as u64) as u32;
        c.cores_per_node = int(10, c.cores_per_node as u64) as u32;
    }
    if junk(11) {
        s.mode = ModeDim::NaiveCron { period_hours: int(11, 0) };
    }
    if junk(12) {
        s.rollout = RolloutDim::Staged { phases: int(12, 0) as usize };
    }
    s.maintenance_per_day = float(0, s.maintenance_per_day, 1.0);
    s.peak_jobs_per_day = float(1, s.peak_jobs_per_day, 100.0);
    s.cluster_affinity = float(2, s.cluster_affinity, 1.0);
    s.whole_cluster_prob = float(3, s.whole_cluster_prob, 1.0);
    s.operator_capacity_per_week = float(4, s.operator_capacity_per_week, 10.0);
    s.buggify_rate = float(5, s.buggify_rate, 1.0);
    s.queries_per_day = float(6, s.queries_per_day, 1.0);
    for (_, rate) in &mut s.fault_mix {
        *rate = float(7, *rate, 4.0);
    }
    if junk(13 + 8) || junk(13 + 9) {
        s.link_model = LinkModelSpec::Uniform {
            latency_s: float(8, 0.01, 20.0),
            loss_prob: float(9, 0.0, 0.5),
        };
    }
    s
}

/// A spec's file parses iff `sanitize` leaves the spec unchanged, and
/// `sanitize`'s output always parses back bit-identically.
fn assert_legal_iff_sanitize_keeps(spec: &ScenarioSpec) {
    let mut sanitized = spec.clone();
    sanitize(&mut sanitized);
    let parsed = parse_scenario(&to_scenario_json(spec));
    assert_eq!(
        parsed.is_ok(),
        sanitized == *spec,
        "legal iff sanitize keeps it: {parsed:?}\n{spec:?}"
    );
    let json = to_scenario_json(&sanitized);
    let back = parse_scenario(&json)
        .unwrap_or_else(|errs| panic!("sanitized spec does not validate: {errs:?}\n{json}"));
    assert_eq!(back, sanitized);
}

/// A spec that is legal but for zero cores per node: `sanitize` must
/// repair it, not pass it through to a file its validator rejects.
#[test]
fn zero_cores_per_node_is_repaired_by_sanitize() {
    let mut spec = ScenarioSpec::from_seed(3);
    spec.clusters[0].cores_per_node = 0;
    assert_legal_iff_sanitize_keeps(&spec);
}

/// FNV-1a (64-bit) over a stream of documents.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn doc(&mut self, spec: &ScenarioSpec) {
        let json = serde_json::to_string(spec).unwrap();
        for b in json.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every draw of the grammar, the mutators and `pin_to_cell`, and every
/// `sanitize` repair, folded over the compact `scenario.v1` text of what
/// they produce. A refactor of those modules must leave all four folds
/// unchanged; a fold that moves is a behaviour change (`--nocapture`
/// prints the folds). Wild specs keep their cores in range: the folds were
/// minted before `sanitize` repaired cores.
#[test]
fn grammar_mutate_pin_and_sanitize_fingerprints_are_pinned() {
    let mut grammar = Fold::new();
    for seed in 0..3005 {
        grammar.doc(&ScenarioSpec::from_seed(seed));
    }

    let mut mutants = Fold::new();
    for chain in 0..8u64 {
        let mut rng = stream_rng(chain, "fingerprint-mutate");
        let donor = ScenarioSpec::from_seed(100 + chain);
        let mut spec = ScenarioSpec::from_seed(chain);
        for _ in 0..1500 {
            spec = mutate(&spec, &donor, &mut rng);
            mutants.doc(&spec);
        }
    }

    let mut pinned = Fold::new();
    for parent in 0..6u64 {
        let mut rng = stream_rng(parent, "fingerprint-pin");
        let spec = ScenarioSpec::from_seed(parent);
        for cell in StructuralCell::all() {
            let mut spec = spec.clone();
            pin_to_cell(&mut spec, cell, &mut rng);
            pinned.doc(&spec);
        }
    }

    let mut sanitized = Fold::new();
    let mut rng = stream_rng(0, "fingerprint-wild");
    for _ in 0..500 {
        let ints: Vec<u64> = (0..WILD_INTS).map(|_| rng.gen()).collect();
        let floats: Vec<f64> = (0..WILD_FLOATS).map(|_| rng.gen_range(-2.0e7..2.0e7)).collect();
        let mut spec = wild_spec(rng.gen(), &ints, &floats);
        for c in &mut spec.clusters {
            c.cores_per_node = c.cores_per_node.clamp(1, 64);
        }
        sanitize(&mut spec);
        sanitized.doc(&spec);
    }

    let folds = [grammar.0, mutants.0, pinned.0, sanitized.0];
    println!("folds: {folds:#018x?}");
    let pinned_at_mint = [
        0x9e74_f485_5e0c_c77d,
        0x1b20_a906_a031_aab0,
        0x8edf_8538_1242_174b,
        0xf1b6_659d_6d77_27bf,
    ];
    assert_eq!(folds, pinned_at_mint, "from_seed, mutate, pin_to_cell, sanitize");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spec → scenario file → parse → bit-identical spec, for everything
    /// that writes one: bare grammar seeds, the seed pinned onto each of
    /// the structural cells (the dimensions bare seeds never set), and a
    /// shrunken reproducer. Spec equality is digest equality: lowering is
    /// a pure function of the spec, so the file format never perturbs a
    /// campaign.
    #[test]
    fn any_grammar_spec_roundtrips_through_the_file_format(
        seed in 0u64..u64::MAX,
        limit in 0usize..3,
    ) {
        let roundtrip = |spec: &ScenarioSpec, json: &str| {
            let back = parse_scenario(json)
                .unwrap_or_else(|errs| panic!("seed {seed} does not validate: {errs:?}\n{json}"));
            assert_eq!(&back, spec, "seed {seed} round-trip is not bit-identical");
        };
        let spec = ScenarioSpec::from_seed(seed);
        roundtrip(&spec, &to_scenario_json(&spec));

        let cells = StructuralCell::all();
        prop_assert_eq!(cells.len(), 102);
        let mut rng = stream_rng(seed, "artifact-roundtrip");
        for cell in cells {
            let mut pinned = spec.clone();
            pin_to_cell(&mut pinned, cell, &mut rng);
            roundtrip(&pinned, &to_scenario_json(&pinned));
        }

        let oracles = Oracles {
            tests_run_limit: Some([1, 5, 22][limit]),
            ..Oracles::none()
        };
        if let Some(repro) = shrink(&ScenarioSpec::from_seed(seed % 40), &oracles) {
            roundtrip(&repro.spec, &repro.dump);
        }
    }

    /// The one guarantee of the shared bounds: a spec is legal iff
    /// `sanitize` leaves it unchanged. Whatever a spec arrives with — junk
    /// on every scalar axis and every structural bound — its file parses
    /// exactly when `sanitize` is a no-op on it, and `sanitize`'s output
    /// always parses back bit-identically.
    #[test]
    fn sanitize_always_yields_a_valid_scenario_file(
        seed in 0u64..u64::MAX,
        ints in prop::collection::vec(0u64..u64::MAX, WILD_INTS),
        floats in prop::collection::vec(-2.0e7f64..2.0e7, WILD_FLOATS),
    ) {
        let wild = wild_spec(seed, &ints, &floats);
        assert_legal_iff_sanitize_keeps(&wild);
    }
    /// Corrupting a valid artifact never panics its decoder: splice
    /// printable junk mid-document, or cut the document off there, and
    /// it either reports a non-empty error or still decodes — and what
    /// decodes re-encodes to a fixed point.
    #[test]
    fn corrupted_artifacts_error_cleanly(
        doc in 0usize..3,
        seed in 0u64..64,
        cut in 0usize..100_000,
        junk in prop::collection::vec(0x20u8..0x7f, 0..24),
        truncate in 0u8..2,
    ) {
        let scenario;
        let json = match doc {
            0 => {
                scenario = to_scenario_json(&ScenarioSpec::from_seed(seed));
                &scenario
            }
            _ => &envelopes()[doc - 1],
        };
        let at = cut % (json.len() + 1);
        // Every document here is ASCII, so any byte index is a char
        // boundary.
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let tail = if truncate == 1 { "" } else { &json[at..] };
        let corrupted = format!("{}{}{}", &json[..at], junk, tail);
        match recode(doc, &corrupted) {
            Err(message) => prop_assert!(!message.is_empty()),
            // Corruption happened to stay valid (e.g. whitespace, a digit).
            Ok(once) => prop_assert_eq!(recode(doc, &once), Ok(once.clone())),
        }
    }
}
