//! The workspace gate: `cargo test` runs detlint over this repository
//! against the committed baseline, so determinism debt cannot grow —
//! and new buggify callsites cannot land unregistered — without this
//! test failing.

use proptest::prelude::*;
use std::path::Path;
use ttt_detlint::{lint, ratchet, render_human, sim_registry, Baseline, Workspace};

fn repo_root() -> &'static Path {
    // crates/detlint/../.. — the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
}

#[test]
fn workspace_is_clean_under_the_ratchet() {
    let root = repo_root();
    let ws = Workspace::load(root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace walk looks wrong: {} files",
        ws.files.len()
    );
    let report = lint(&ws.files, &sim_registry());

    let baseline_path = root.join("detlint-baseline.json");
    let text = std::fs::read_to_string(&baseline_path).expect("committed baseline exists");
    let baseline: Baseline = serde_json::from_str(&text).expect("baseline parses");

    let outcome = ratchet(&report, &baseline);
    assert!(
        outcome.clean(),
        "detlint ratchet failed:\n{}",
        render_human(&report, Some(&outcome))
    );
}

#[test]
fn registry_and_code_agree_exactly() {
    let ws = Workspace::load(repo_root()).expect("workspace loads");
    let report = lint(&ws.files, &sim_registry());
    let reconciliation: Vec<_> = report
        .violations
        .iter()
        .filter(|v| {
            v.rule == "unregistered-buggify-callsite" || v.rule == "stale-buggify-registration"
        })
        .collect();
    assert!(
        reconciliation.is_empty(),
        "registry drift: {reconciliation:?}"
    );
}

#[test]
fn every_crate_root_forbids_unsafe() {
    let ws = Workspace::load(repo_root()).expect("workspace loads");
    let report = lint(&ws.files, &sim_registry());
    let missing: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "require-forbid-unsafe")
        .collect();
    assert!(missing.is_empty(), "crate roots lacking forbid: {missing:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The junk property of `scenario_artifacts.rs`, over the fourth
    /// on-disk document: the committed baseline with printable bytes
    /// spliced in (or cut off there) decodes or errors, never panics,
    /// and what decodes re-encodes to a fixed point.
    #[test]
    fn corrupted_baselines_error_cleanly(
        cut in 0usize..100_000,
        junk in prop::collection::vec(0x20u8..0x7f, 0..24),
        truncate in 0u8..2,
    ) {
        let json = std::fs::read_to_string(repo_root().join("detlint-baseline.json"))
            .expect("committed baseline exists");
        prop_assert!(json.is_ascii(), "byte indices must be char boundaries");
        let at = cut % (json.len() + 1);
        let junk = String::from_utf8(junk).expect("printable ASCII");
        let tail = if truncate == 1 { "" } else { &json[at..] };
        let corrupted = format!("{}{}{}", &json[..at], junk, tail);
        if let Ok(baseline) = serde_json::from_str::<Baseline>(&corrupted) {
            let once = serde_json::to_string_pretty(&baseline).expect("renders");
            let again: Baseline = serde_json::from_str(&once).expect("own output decodes");
            prop_assert_eq!(serde_json::to_string_pretty(&again).expect("renders"), once);
        }
    }
}
