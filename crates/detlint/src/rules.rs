//! The determinism rule catalogue.
//!
//! Rules never see raw source: every pattern match runs against the
//! blanked [`code view`](crate::lexer::code_view), so text inside
//! comments and string literals can never fire a rule. Each rule is
//! scoped — by file kind (library, test, example), by crate
//! tier (digest-adjacent or not) and by `#[cfg(test)]` span — and each
//! firing can be silenced in place with
//!
//! ```text
//! // detlint: allow(<rule>) -- <reason>
//! ```
//!
//! on the offending line or on its own line directly above. Rules and
//! the audit emit raw firings; [`apply_escapes`] is the one place an
//! escape removes them. An escape with a missing reason is itself a
//! violation (`escape-missing-reason`), as is one naming a rule that
//! does not exist (`escape-unknown-rule`) or one that silences nothing
//! (`escape-unused`): silencing is cheap, but it always leaves a paper
//! trail, and a stale one cannot pre-approve a future finding.

use crate::lexer::{self, TokKind, Token};
use crate::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// One rule of the catalogue.
pub struct RuleSpec {
    /// Stable kebab-case name (used in escapes).
    pub name: &'static str,
    /// One-line description for reports.
    pub desc: &'static str,
}

/// The full catalogue. Names are the vocabulary of escapes; reports
/// list them verbatim.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "no-wall-clock",
        desc: "simulation code must not read the wall clock",
    },
    RuleSpec {
        name: "no-ambient-rng",
        desc: "randomness must come from seeded, named streams",
    },
    RuleSpec {
        name: "no-unordered-iteration",
        desc: "digest-adjacent code must not use hash-ordered containers",
    },
    RuleSpec {
        name: "no-rc-in-shared",
        desc: "library code must not hide shared mutable state behind Rc",
    },
    RuleSpec {
        name: "no-unwrap-in-lib",
        desc: "library code must surface errors, not unwrap them",
    },
    RuleSpec {
        name: "no-serde-off-boundary",
        desc: "only the on-disk boundary modules may implement Serialize/Deserialize",
    },
    RuleSpec {
        name: "require-forbid-unsafe",
        desc: "every crate root must carry #![forbid(unsafe_code)]",
    },
    RuleSpec {
        name: "escape-missing-reason",
        desc: "a detlint escape must state its reason after `--`",
    },
    RuleSpec {
        name: "escape-unknown-rule",
        desc: "a detlint escape must name a rule from the catalogue",
    },
    RuleSpec {
        name: "escape-unused",
        desc: "a detlint escape must silence a firing of its rule on its line",
    },
    RuleSpec {
        name: "unregistered-buggify-callsite",
        desc: "a buggify fire site must be registered in ttt_sim::rpc",
    },
    RuleSpec {
        name: "stale-buggify-registration",
        desc: "a registered buggify callsite must exist in code",
    },
    RuleSpec {
        name: "unarmed-service-fn",
        desc: "a Result-returning service fn must carry a buggify arm",
    },
    RuleSpec {
        name: "pub-fn-only-tests-call",
        desc: "a pub library fn must have a caller outside tests",
    },
];

/// Whether `name` is a catalogue rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// One rule firing at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Catalogue rule name.
    pub rule: String,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable detail.
    pub message: String,
}

/// A parsed `// detlint: allow(rule) -- reason` comment.
#[derive(Debug, Clone)]
pub struct Escape {
    /// The rule the escape names (possibly unknown).
    pub rule: String,
    /// Line of the comment itself.
    pub line: u32,
    /// The line it silences: its own when that holds code, else the
    /// next line that does (`None` past the last one).
    pub target: Option<u32>,
    /// Whether a non-empty reason follows `--`.
    pub has_reason: bool,
}

/// Everything the rules need about one file, computed once.
pub struct FileCtx<'a> {
    /// The file being linted.
    pub file: &'a SourceFile,
    /// Its token partition.
    pub tokens: Vec<Token>,
    /// Blanked code view (same length/offsets as the source).
    pub view: String,
    /// Newline offsets for line lookup.
    pub newlines: Vec<usize>,
    /// Byte spans of `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
    /// Parsed escapes.
    pub escapes: Vec<Escape>,
}

impl<'a> FileCtx<'a> {
    /// Lex and index `file`.
    pub fn new(file: &'a SourceFile) -> Self {
        let tokens = lexer::lex(&file.text);
        let view = lexer::code_view(&file.text, &tokens);
        let newlines = lexer::line_index(&file.text);
        let test_spans = find_test_spans(&view);
        // A downstream file is never linted, so its escapes answer to
        // another linter run, not this one.
        let escapes = if file.kind == FileKind::Downstream {
            Vec::new()
        } else {
            parse_escapes(&file.text, &view, &tokens, &newlines)
        };
        FileCtx {
            file,
            tokens,
            view,
            newlines,
            test_spans,
            escapes,
        }
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, at: usize) -> u32 {
        lexer::line_of(&self.newlines, at)
    }

    /// Whether offset `at` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, at: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| at >= s && at < e)
    }
}

/// Byte spans of `#[cfg(test)]` items: from the attribute to the end
/// of the item — its `;` when that comes before any `{` (`use`,
/// `mod x;`, `const`), else the brace-matched block that follows. Runs
/// on the code view, so braces inside strings or comments cannot
/// confuse the matcher.
fn find_test_spans(view: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = view[from..].find("#[cfg(test)]") {
        let at = from + rel;
        let rest = &view[at..];
        let end = match (rest.find(';'), rest.find('{')) {
            (Some(semi), open) if open.is_none_or(|open| semi < open) => at + semi + 1,
            (_, Some(open)) => brace_match(view.as_bytes(), at + open),
            _ => break,
        };
        spans.push((at, end));
        from = end;
    }
    spans
}

/// Offset one past the `}` matching the `{` at `open` (or EOF).
pub fn brace_match(b: &[u8], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// Parse every `detlint: allow(...)` line comment and resolve its
/// target line.
fn parse_escapes(src: &str, view: &str, tokens: &[Token], newlines: &[usize]) -> Vec<Escape> {
    // Lines with at least one non-whitespace code byte.
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    let mut line = 1u32;
    for b in view.bytes() {
        if b == b'\n' {
            line += 1;
        } else if !b.is_ascii_whitespace() {
            code_lines.insert(line);
        }
    }
    let mut escapes = Vec::new();
    for t in tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = src[t.start..t.end].trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix("detlint: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let tail = rest[close + 1..].trim();
        let has_reason = tail
            .strip_prefix("--")
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        let line = lexer::line_of(newlines, t.start);
        let target = if code_lines.contains(&line) {
            Some(line)
        } else {
            code_lines.range(line + 1..).next().copied()
        };
        escapes.push(Escape {
            rule,
            line,
            target,
            has_reason,
        });
    }
    escapes
}

/// All boundary-respecting occurrences of `pat` in `view`: a pattern
/// whose first (last) character is an identifier character must not be
/// preceded (followed) by one, so `HashMap` does not match
/// `MyHashMapper` and `Rc<` does not match `Arc<`.
pub fn find_pattern(view: &str, pat: &str) -> Vec<usize> {
    let b = view.as_bytes();
    let first_ident = pat
        .as_bytes()
        .first()
        .map(|c| c.is_ascii_alphanumeric() || *c == b'_')
        .unwrap_or(false);
    let last_ident = pat
        .as_bytes()
        .last()
        .map(|c| c.is_ascii_alphanumeric() || *c == b'_')
        .unwrap_or(false);
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = view[from..].find(pat) {
        let at = from + rel;
        let pre_ok = !first_ident || at == 0 || !ident(b[at - 1]);
        let end = at + pat.len();
        let post_ok = !last_ident || end >= b.len() || !ident(b[end]);
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + pat.len();
    }
    out
}

/// The digest-adjacent tier: every crate whose behavior feeds the
/// campaign digests. Only detlint itself is outside it.
pub fn digest_adjacent(crate_name: &str) -> bool {
    crate_name != "ttt_detlint"
}

struct PatternRule {
    rule: &'static str,
    patterns: &'static [&'static str],
    /// Whether the rule applies to this file at all.
    in_scope: fn(&SourceFile) -> bool,
    /// Whether `#[cfg(test)]` spans are exempt.
    skip_tests: bool,
}

const PATTERN_RULES: &[PatternRule] = &[
    PatternRule {
        rule: "no-wall-clock",
        patterns: &["Instant::now", "SystemTime"],
        in_scope: |_| true,
        skip_tests: false,
    },
    PatternRule {
        rule: "no-ambient-rng",
        patterns: &["thread_rng", "from_entropy", "OsRng", "rand::random"],
        in_scope: |_| true,
        skip_tests: false,
    },
    PatternRule {
        rule: "no-unordered-iteration",
        patterns: &["HashMap", "HashSet"],
        in_scope: |f| f.kind == FileKind::Lib && digest_adjacent(&f.crate_name),
        skip_tests: true,
    },
    PatternRule {
        rule: "no-rc-in-shared",
        patterns: &["Rc<", "Rc::new"],
        in_scope: |f| f.kind == FileKind::Lib,
        skip_tests: true,
    },
    PatternRule {
        rule: "no-unwrap-in-lib",
        patterns: &[".unwrap()", ".expect("],
        in_scope: |f| f.kind == FileKind::Lib,
        skip_tests: true,
    },
    PatternRule {
        rule: "no-serde-off-boundary",
        patterns: &["record!(", "impl serde::Serialize", "impl serde::Deserialize"],
        in_scope: |f| !BOUNDARY.contains(&f.path.as_str()),
        skip_tests: false,
    },
];

/// The input boundary: the only files whose types reach an encoder or a
/// decoder (scenario file, run log, corpus). A decoder anywhere else is
/// a public, unvalidated constructor nothing is pointed at.
const BOUNDARY: [&str; 7] = [
    "crates/scengen/src/corpus.rs",
    "crates/scengen/src/coverage.rs",
    "crates/scengen/src/oracle.rs",
    "crates/scengen/src/runlog.rs",
    "crates/scengen/src/scenario_file.rs",
    "crates/sim/src/eventlog.rs",
    "crates/sim/src/time.rs",
];

/// Run every file-local rule over `ctx`; escapes are not applied here.
/// A downstream file is read for callers only and never linted.
pub fn run_file_rules(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    if ctx.file.kind == FileKind::Downstream {
        return out;
    }
    let path = &ctx.file.path;
    for pr in PATTERN_RULES {
        if !(pr.in_scope)(ctx.file) {
            continue;
        }
        for pat in pr.patterns {
            for at in find_pattern(&ctx.view, pat) {
                if pr.skip_tests && ctx.in_test_code(at) {
                    continue;
                }
                out.push(Violation {
                    rule: pr.rule.into(),
                    file: path.clone(),
                    line: ctx.line_of(at),
                    message: format!("`{pat}` in non-exempt code"),
                });
            }
        }
    }

    // Crate roots must forbid unsafe code outright.
    if ctx.file.path.ends_with("src/lib.rs") && !ctx.view.contains("#![forbid(unsafe_code)]") {
        out.push(Violation {
            rule: "require-forbid-unsafe".into(),
            file: path.clone(),
            line: 1,
            message: "crate root lacks #![forbid(unsafe_code)]".into(),
        });
    }

    out
}

/// Drop every firing an escape in its file silences — the same rule on
/// the escape's target line — then hold each escape to account: it must
/// name a catalogue rule, give a reason and silence something.
pub fn apply_escapes(ctxs: &[FileCtx], raw: Vec<Violation>) -> Vec<Violation> {
    let mut escaped: BTreeSet<(&str, u32, &str)> = BTreeSet::new();
    for ctx in ctxs {
        for e in &ctx.escapes {
            if let Some(target) = e.target {
                escaped.insert((&ctx.file.path, target, &e.rule));
            }
        }
    }
    let (silenced, mut out): (Vec<Violation>, Vec<Violation>) = raw
        .into_iter()
        .partition(|v| escaped.contains(&(v.file.as_str(), v.line, v.rule.as_str())));
    for ctx in ctxs {
        for e in &ctx.escapes {
            let mut flag = |rule: &str, message: String| {
                out.push(Violation {
                    rule: rule.into(),
                    file: ctx.file.path.clone(),
                    line: e.line,
                    message,
                })
            };
            let used = silenced
                .iter()
                .any(|v| v.file == ctx.file.path && Some(v.line) == e.target && v.rule == e.rule);
            if !is_rule(&e.rule) {
                flag("escape-unknown-rule", format!("escape names unknown rule `{}`", e.rule));
            } else if !used {
                flag("escape-unused", format!("escape for `{}` silences no firing", e.rule));
            }
            if !e.has_reason {
                flag(
                    "escape-missing-reason",
                    format!("escape for `{}` has no `-- <reason>` trailer", e.rule),
                );
            }
        }
    }
    out
}
