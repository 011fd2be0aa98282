//! Fire/no-fire fixtures for every rule in the catalogue.

use ttt_detlint::{lint, FileKind, SourceFile};

fn file(path: &str, crate_name: &str, kind: FileKind, text: &str) -> SourceFile {
    SourceFile {
        path: path.into(),
        crate_name: crate_name.into(),
        kind,
        text: text.into(),
    }
}

fn lib(text: &str) -> SourceFile {
    file("crates/x/src/a.rs", "ttt_x", FileKind::Lib, text)
}

fn rules_fired(files: &[SourceFile]) -> Vec<(String, u32)> {
    lint(files, &[])
        .violations
        .iter()
        .map(|v| (v.rule.clone(), v.line))
        .collect()
}

#[test]
fn wall_clock_fires_in_code() {
    let f = lib("fn f() { let t = Instant::now(); }");
    assert_eq!(rules_fired(&[f]), vec![("no-wall-clock".into(), 1)]);
}

#[test]
fn wall_clock_silent_in_comment_and_string() {
    let f = lib(
        "// Instant::now is forbidden\nfn f() { let s = \"Instant::now\"; let _ = s; }\n",
    );
    assert_eq!(rules_fired(&[f]), vec![]);
}

#[test]
fn wall_clock_fires_in_examples_too() {
    let f = file(
        "crates/x/examples/e.rs",
        "ttt_x",
        FileKind::Example,
        "fn main() { let _ = Instant::now(); }",
    );
    assert_eq!(rules_fired(&[f]), vec![("no-wall-clock".into(), 1)]);
}

#[test]
fn escape_with_reason_suppresses() {
    let f = lib(
        "fn f() {\n    // detlint: allow(no-wall-clock) -- operator-facing timer\n    let t = Instant::now();\n}\n",
    );
    assert_eq!(rules_fired(&[f]), vec![]);
}

#[test]
fn escape_on_same_line_suppresses() {
    let f = lib(
        "fn f() { let t = Instant::now(); } // detlint: allow(no-wall-clock) -- timer\n",
    );
    assert_eq!(rules_fired(&[f]), vec![]);
}

#[test]
fn escape_without_reason_is_a_violation() {
    let f = lib(
        "fn f() {\n    // detlint: allow(no-wall-clock)\n    let t = Instant::now();\n}\n",
    );
    // The named rule is still suppressed, but the bare escape fires.
    assert_eq!(
        rules_fired(&[f]),
        vec![("escape-missing-reason".into(), 2)]
    );
}

#[test]
fn escape_that_silences_nothing_is_a_violation() {
    // Nothing fires on its target line, or something else does: either
    // way the escape would pre-approve a future finding there.
    let stale =
        lib("fn f() {\n    // detlint: allow(no-wall-clock) -- was a timer\n    let t = 1;\n}\n");
    assert_eq!(rules_fired(&[stale]), vec![("escape-unused".into(), 2)]);
    let wrong_rule = lib(
        "fn f() {\n    // detlint: allow(no-rc-in-shared) -- timer\n    let t = Instant::now();\n}\n",
    );
    assert_eq!(
        rules_fired(&[wrong_rule]),
        vec![("escape-unused".into(), 2), ("no-wall-clock".into(), 3)]
    );
}

#[test]
fn escape_with_unknown_rule_is_a_violation() {
    let f = lib("// detlint: allow(no-such-rule) -- whatever\nfn f() {}\n");
    assert_eq!(rules_fired(&[f]), vec![("escape-unknown-rule".into(), 1)]);
}

#[test]
fn ambient_rng_fires() {
    let f = lib("fn f() { let mut r = rand::thread_rng(); }");
    assert_eq!(rules_fired(&[f]), vec![("no-ambient-rng".into(), 1)]);
}

#[test]
fn unordered_iteration_fires_in_digest_adjacent_lib() {
    let f = lib("use std::collections::HashMap;\n");
    assert_eq!(
        rules_fired(&[f]),
        vec![("no-unordered-iteration".into(), 1)]
    );
}

#[test]
fn unordered_iteration_exempt_in_detlint_and_tests() {
    let detlint = file(
        "crates/detlint/src/lib.rs",
        "ttt_detlint",
        FileKind::Lib,
        "use std::collections::HashMap;\n#![forbid(unsafe_code)]\n",
    );
    let test = file(
        "crates/x/tests/t.rs",
        "ttt_x",
        FileKind::Test,
        "use std::collections::HashSet;\n",
    );
    assert_eq!(rules_fired(&[detlint, test]), vec![]);
}

#[test]
fn unordered_iteration_exempt_in_cfg_test_mod() {
    let f = lib(
        "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let _: HashMap<u8, u8> = HashMap::new(); }\n}\n",
    );
    assert_eq!(rules_fired(&[f]), vec![]);
    // On a `;`-terminated item the attribute covers that item only, not
    // the library fn after it.
    let f = lib(
        "#[cfg(test)]\nuse std::collections::HashMap;\n\nfn f() -> u8 {\n    Some(1).unwrap()\n}\n",
    );
    assert_eq!(rules_fired(&[f]), vec![("no-unwrap-in-lib".into(), 5)]);
}

#[test]
fn rc_fires_but_arc_does_not() {
    let rc = lib("fn f() { let x: Rc<u8> = Rc::new(1); }");
    let arc = lib("fn f() { let x: Arc<u8> = Arc::new(1); }");
    assert_eq!(rules_fired(&[rc]).len(), 2);
    assert_eq!(rules_fired(&[arc]), vec![]);
}

#[test]
fn unwrap_fires_in_lib_not_in_tests() {
    let f = lib("fn f() { let x = Some(1).unwrap(); }");
    assert_eq!(rules_fired(&[f]), vec![("no-unwrap-in-lib".into(), 1)]);
    let t = file(
        "crates/x/tests/t.rs",
        "ttt_x",
        FileKind::Test,
        "fn f() { let x = Some(1).unwrap(); }",
    );
    assert_eq!(rules_fired(&[t]), vec![]);
    // `.expect(` panics the same way; `.expect_err(` is another method.
    let e = lib("fn f() { let x = Some(1).expect(\"one\"); }");
    assert_eq!(rules_fired(&[e]), vec![("no-unwrap-in-lib".into(), 1)]);
    let in_test_mod =
        lib("#[cfg(test)]\nmod tests {\n    fn t() { Some(1).expect(\"one\"); }\n}\n");
    assert_eq!(rules_fired(&[in_test_mod]), vec![]);
    let err = lib("fn f() { let e = r.expect_err(\"fails\"); }");
    assert_eq!(rules_fired(&[err]), vec![]);
}

#[test]
fn forbid_unsafe_required_on_crate_roots_only() {
    let bare_root = file("crates/x/src/lib.rs", "ttt_x", FileKind::Lib, "fn f() {}\n");
    assert_eq!(
        rules_fired(&[bare_root]),
        vec![("require-forbid-unsafe".into(), 1)]
    );
    let good_root = file(
        "crates/x/src/lib.rs",
        "ttt_x",
        FileKind::Lib,
        "#![forbid(unsafe_code)]\nfn f() {}\n",
    );
    assert_eq!(rules_fired(&[good_root]), vec![]);
    let non_root = lib("fn f() {}\n");
    assert_eq!(rules_fired(&[non_root]), vec![]);
}

#[test]
fn hashmap_in_doc_comment_is_fine() {
    let f = lib("//! Uses a `HashMap`-free design.\nfn f() {}\n");
    assert_eq!(rules_fired(&[f]), vec![]);
}

#[test]
fn serde_codec_fires_off_the_boundary() {
    let f = lib(
        "struct A { a: u64 }\nserde::record!(struct A { a });\nimpl serde::Serialize for B {}\nimpl serde::Deserialize for B {}\n",
    );
    assert_eq!(
        rules_fired(&[f]),
        vec![
            ("no-serde-off-boundary".into(), 2),
            ("no-serde-off-boundary".into(), 3),
            ("no-serde-off-boundary".into(), 4)
        ]
    );
}

#[test]
fn serde_codec_silent_on_the_boundary_and_in_lookalikes() {
    let codec = "serde::record!(struct A { a });\nimpl serde::Deserialize for B {}\n";
    let boundary = file("crates/sim/src/time.rs", "ttt_sim", FileKind::Lib, codec);
    assert_eq!(rules_fired(&[boundary]), vec![]);
    // Look-alike names, comments and strings are not codecs.
    let f = lib(
        "// serde::record!(struct S { a });\nmacro_rules! my_record { () => {} }\nmy_record!();\nimpl serde::SerializeLike for S {}\nconst T: &str = \"impl serde::Deserialize for S\";\n",
    );
    assert_eq!(rules_fired(&[f]), vec![]);
}
