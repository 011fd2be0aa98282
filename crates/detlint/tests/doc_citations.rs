//! The docs cite what exists: every backticked repo path in `README.md`
//! and `EXPERIMENTS.md` names a file or directory of the repository, and
//! every `path.rs::name` names a fn that file defines. A path counts as a
//! repo path when its first segment is a top-level entry of the
//! repository (`crates/…`, `tests/…`, `ledger/`); a brace group
//! (`src/{a,b}.rs`) cites each alternative. Fenced code blocks are
//! commands, not citations. `CHANGES.md` and `ROADMAP.md` are history and
//! may cite what a later change deleted, so they are not checked.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

fn repo_root() -> PathBuf {
    // crates/detlint/../.. — the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .to_path_buf()
}

/// One citation: the paths it names and the fn it names in them, if any.
#[derive(Debug, PartialEq)]
struct Citation {
    paths: Vec<String>,
    item: Option<String>,
}

/// The inline code spans of `doc`, with their line numbers, outside
/// fenced blocks.
fn spans(doc: &str) -> Vec<(usize, &str)> {
    let mut fenced = false;
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            out.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s)));
        }
    }
    out
}

/// `span` as a citation, if it is one. `tops` are the names of the
/// repository's top-level entries.
fn citation(span: &str, tops: &[String]) -> Option<Citation> {
    if span.is_empty() || span.contains(char::is_whitespace) {
        return None;
    }
    let (path, item) = match span.find(".rs::") {
        Some(at) => (&span[..at + 3], Some(span[at + 5..].to_string())),
        None => (span, None),
    };
    let (first, _) = path.split_once('/')?;
    if !tops.iter().any(|t| t == first) {
        return None;
    }
    Some(Citation {
        paths: expand(path),
        item,
    })
}

/// `path` with its first `{a,b,…}` group expanded.
fn expand(path: &str) -> Vec<String> {
    let group = path
        .find('{')
        .and_then(|open| Some((open, open + path[open..].find('}')?)));
    match group {
        Some((open, close)) => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        None => vec![path.to_string()],
    }
}

/// What is wrong with `c`, if anything.
fn unresolved(root: &Path, c: &Citation) -> Option<String> {
    for path in &c.paths {
        let Ok(text) = fs::read_to_string(root.join(path)) else {
            if root.join(path).is_dir() {
                continue;
            }
            return Some(format!("`{path}` does not exist"));
        };
        if let Some(name) = &c.item {
            let defines = ["(", "<"]
                .iter()
                .any(|open| text.contains(&format!("fn {name}{open}")));
            if !defines {
                return Some(format!("`{path}` defines no fn `{name}`"));
            }
        }
    }
    None
}

fn top_level_entries(root: &Path) -> Vec<String> {
    fs::read_dir(root)
        .expect("the repository root lists")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name != "target")
        .collect()
}

#[test]
fn readme_and_experiments_cite_only_what_exists() {
    let root = repo_root();
    let tops = top_level_entries(&root);
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc reads");
        for (line, span) in spans(&text) {
            let Some(c) = citation(span, &tops) else {
                continue;
            };
            checked += 1;
            if let Some(why) = unresolved(&root, &c) {
                broken.push(format!("{doc}:{line}: {why}"));
            }
        }
    }
    assert!(broken.is_empty(), "stale citations:\n{}", broken.join("\n"));
    assert!(
        checked > 50,
        "only {checked} citations found: the matcher looks wrong"
    );
}

#[test]
fn the_matcher_finds_and_judges_citations() {
    let root = repo_root();
    let tops = top_level_entries(&root);
    let doc = "A `crates/kwapi/src/store.rs` and `core/src/observe.rs`, \
               `cargo test -q` and `Campaign::new`.\n\
               ```sh\n`tests/not_a_citation.rs`\n```\n\
               Then `crates/kwapi/src/{store,series}.rs` and \
               `crates/detlint/tests/doc_citations.rs::expand`.\n";
    let found: Vec<_> = spans(doc)
        .into_iter()
        .filter_map(|(line, s)| Some((line, citation(s, &tops)?)))
        .collect();
    assert_eq!(
        found,
        [
            (
                1,
                Citation {
                    paths: vec!["crates/kwapi/src/store.rs".into()],
                    item: None
                }
            ),
            (
                5,
                Citation {
                    paths: vec![
                        "crates/kwapi/src/store.rs".into(),
                        "crates/kwapi/src/series.rs".into()
                    ],
                    item: None
                }
            ),
            (
                5,
                Citation {
                    paths: vec!["crates/detlint/tests/doc_citations.rs".into()],
                    item: Some("expand".into())
                }
            ),
        ]
    );
    assert!(found.iter().all(|(_, c)| unresolved(&root, c).is_none()));
    // What a stale citation looks like.
    let stale = |s| unresolved(&root, &citation(s, &tops).expect("a citation"));
    assert_eq!(
        stale("tests/scenario_artifacts.rs"),
        Some("`tests/scenario_artifacts.rs` does not exist".into())
    );
    assert_eq!(
        stale("crates/detlint/tests/doc_citations.rs::no_such_fn"),
        Some("`crates/detlint/tests/doc_citations.rs` defines no fn `no_such_fn`".into())
    );
    assert_eq!(stale("crates/kwapi/"), None);
}
