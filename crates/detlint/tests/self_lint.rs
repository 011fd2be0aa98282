//! The workspace gate: `cargo test` runs detlint over this repository,
//! so a determinism violation, an unregistered buggify callsite or an
//! unarmed service fn without a reasoned escape fails this test.

use std::path::Path;
use ttt_detlint::{lint, render_human, sim_registry, Workspace};

#[test]
fn workspace_lints_clean() {
    // crates/detlint/../.. — the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root");
    let ws = Workspace::load(root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "workspace walk looks wrong: {} files",
        ws.files.len()
    );
    let report = lint(&ws.files, &sim_registry());
    assert!(
        report.violations.is_empty(),
        "detlint found violations:\n{}",
        render_human(&report)
    );
}
