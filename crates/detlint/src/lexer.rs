//! A purpose-built Rust surface lexer.
//!
//! detlint rules must never fire on text inside comments or string
//! literals — a doc comment mentioning `HashMap` is not a violation.
//! Rather than drag in a full parser, this module partitions a source
//! file into a flat run of [`Token`]s of six kinds: plain code, line
//! comments, (nested) block comments, string literals, raw string
//! literals and character literals. Every byte of the input belongs to
//! exactly one token, in order — the partition invariant is guarded by
//! the proptest suite (`tests/lexer_props.rs`).
//!
//! The only genuinely subtle case is `'` — it opens a char literal
//! (`'a'`, `'\n'`, `'é'`) or introduces a lifetime (`&'static str`,
//! `<'a>`). The lexer peeks one UTF-8 character past the quote: if the
//! byte after it closes the quote (or the quote escapes), it is a char
//! literal; otherwise the quote is ordinary code and the lifetime
//! identifier flows on as code.

/// What a span of source text is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Anything that is not a comment or literal.
    Code,
    /// `// ...` to (but excluding) the newline. Doc comments included.
    LineComment,
    /// `/* ... */`, nesting respected.
    BlockComment,
    /// `"..."` or `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br##"..."##` — any number of hashes.
    RawStr,
    /// `'x'`, `b'x'`, `'\''`, `'\u{1F600}'`.
    Char,
}

/// One contiguous span of the input: `src[start..end]` is `kind`.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// Span kind.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// Partition `src` into tokens covering every byte, in order.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let n = b.len();
    let mut toks: Vec<Token> = Vec::new();
    let mut code_start = 0usize;
    let mut i = 0usize;

    // Close the pending Code token (if non-empty) at offset `at`.
    let flush = |toks: &mut Vec<Token>, code_start: usize, at: usize| {
        if code_start < at {
            toks.push(Token {
                kind: TokKind::Code,
                start: code_start,
                end: at,
            });
        }
    };

    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                flush(&mut toks, code_start, i);
                let start = i;
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::LineComment,
                    start,
                    end: i,
                });
                code_start = i;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                flush(&mut toks, code_start, i);
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Token {
                    kind: TokKind::BlockComment,
                    start,
                    end: i,
                });
                code_start = i;
            }
            b'"' => {
                flush(&mut toks, code_start, i);
                let start = i;
                i = consume_string(b, i + 1);
                toks.push(Token {
                    kind: TokKind::Str,
                    start,
                    end: i,
                });
                code_start = i;
            }
            // `r"…"` / `r#"…"#` / `br"…"` / `b"…"` / `b'…'` — only when
            // the prefix letter is not the tail of an identifier
            // (`var"` never happens in valid Rust, but `for_entry` must
            // not trip the `r` arm).
            c @ (b'r' | b'b') if !is_ident_byte_before(b, i) => {
                let (is_raw, quote_at) = raw_or_byte_prefix(b, i, c);
                match (is_raw, quote_at) {
                    (true, Some(q)) => {
                        flush(&mut toks, code_start, i);
                        let start = i;
                        let hashes = q - (i + if c == b'b' { 2 } else { 1 });
                        i = consume_raw_string(b, q + 1, hashes);
                        toks.push(Token {
                            kind: TokKind::RawStr,
                            start,
                            end: i,
                        });
                        code_start = i;
                    }
                    (false, Some(q)) if b[q] == b'"' => {
                        flush(&mut toks, code_start, i);
                        let start = i;
                        i = consume_string(b, q + 1);
                        toks.push(Token {
                            kind: TokKind::Str,
                            start,
                            end: i,
                        });
                        code_start = i;
                    }
                    (false, Some(q)) => {
                        // b'…' byte literal.
                        flush(&mut toks, code_start, i);
                        let start = i;
                        i = consume_char_literal(b, q + 1);
                        toks.push(Token {
                            kind: TokKind::Char,
                            start,
                            end: i,
                        });
                        code_start = i;
                    }
                    _ => i += 1,
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(src, b, i) {
                    flush(&mut toks, code_start, i);
                    toks.push(Token {
                        kind: TokKind::Char,
                        start: i,
                        end,
                    });
                    i = end;
                    code_start = i;
                } else {
                    // A lifetime: the quote and its identifier are code.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    flush(&mut toks, code_start, n);
    toks
}

/// Whether the byte before `i` continues an identifier (so a `r`/`b`
/// at `i` cannot start a literal prefix).
fn is_ident_byte_before(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// Classify a potential `r`/`b` literal prefix at `i`.
///
/// Returns `(is_raw, Some(offset of the opening quote))` when `i`
/// starts a raw string (`r`/`br` + hashes + `"`), a byte string
/// (`b"`), or a byte char (`b'`); `(false, None)` when it is just code.
fn raw_or_byte_prefix(b: &[u8], i: usize, c: u8) -> (bool, Option<usize>) {
    let n = b.len();
    let mut j = i + 1;
    if c == b'b' {
        if j < n && b[j] == b'"' {
            return (false, Some(j)); // b"…"
        }
        if j < n && b[j] == b'\'' {
            return (false, Some(j)); // b'…'
        }
        if j < n && b[j] == b'r' {
            j += 1; // br…
        } else {
            return (false, None);
        }
    }
    // Here we sit just past `r` (or `br`): hashes then a quote open a
    // raw string.
    let mut k = j;
    while k < n && b[k] == b'#' {
        k += 1;
    }
    if k < n && b[k] == b'"' {
        (true, Some(k))
    } else {
        (false, None)
    }
}

/// Consume a non-raw string body starting just past the opening quote;
/// returns the offset one past the closing quote.
fn consume_string(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Consume a raw string body (`hashes` trailing `#`s close it)
/// starting just past the opening quote.
fn consume_raw_string(b: &[u8], mut i: usize, hashes: usize) -> usize {
    let n = b.len();
    while i < n {
        if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < n && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    n
}

/// Consume a char-literal body starting just past the opening quote;
/// returns the offset one past the closing quote.
fn consume_char_literal(b: &[u8], mut i: usize) -> usize {
    let n = b.len();
    while i < n {
        match b[i] {
            b'\\' => i = (i + 2).min(n),
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    n
}

/// Decide whether the `'` at `i` opens a char literal; if so return the
/// offset one past its closing quote, else `None` (it is a lifetime).
fn char_literal_end(src: &str, b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 1 >= n {
        return None;
    }
    if b[i + 1] == b'\\' {
        return Some(consume_char_literal(b, i + 1));
    }
    // Peek exactly one UTF-8 character past the quote: a closing quote
    // right after it means a char literal; anything else (identifier
    // characters, `>`, whitespace…) means a lifetime.
    let ch = src[i + 1..].chars().next()?;
    let after = i + 1 + ch.len_utf8();
    if after < n && b[after] == b'\'' {
        Some(after + 1)
    } else {
        None
    }
}

/// A copy of `src` in which every byte inside a non-`Code` token is
/// blanked to a space — newlines kept, so byte offsets *and* line
/// numbers survive. Rules pattern-match against this view and can
/// brace-match freely: braces inside strings and comments are gone.
pub fn code_view(src: &str, toks: &[Token]) -> String {
    // The tokens partition `src` in order (see the module docs), so
    // rebuilding it token by token keeps every offset.
    let mut out = String::with_capacity(src.len());
    for t in toks {
        let text = &src[t.start..t.end];
        if t.kind == TokKind::Code {
            out.push_str(text);
        } else {
            out.extend(text.bytes().map(|b| if b == b'\n' { '\n' } else { ' ' }));
        }
    }
    out
}

/// 1-based line number of byte offset `at` (count of newlines before it
/// plus one), via the precomputed newline offsets of [`line_index`].
pub fn line_of(newlines: &[usize], at: usize) -> u32 {
    (newlines.partition_point(|&p| p < at) + 1) as u32
}

/// Byte offsets of every newline in `src`, for [`line_of`].
pub fn line_index(src: &str) -> Vec<usize> {
    src.bytes()
        .enumerate()
        .filter(|&(_, c)| c == b'\n')
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src).iter().map(|t| (t.kind, &src[t.start..t.end])).collect()
    }

    #[test]
    fn partitions_plain_code() {
        let toks = lex("let x = 1;");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokKind::Code);
    }

    #[test]
    fn line_comment_excludes_newline() {
        let v = kinds("a // c\nb");
        assert_eq!(
            v,
            vec![
                (TokKind::Code, "a "),
                (TokKind::LineComment, "// c"),
                (TokKind::Code, "\nb"),
            ]
        );
    }

    #[test]
    fn nested_block_comment() {
        let v = kinds("a/* x /* y */ z */b");
        assert_eq!(
            v,
            vec![
                (TokKind::Code, "a"),
                (TokKind::BlockComment, "/* x /* y */ z */"),
                (TokKind::Code, "b"),
            ]
        );
    }

    #[test]
    fn string_hides_comment_markers() {
        let v = kinds(r#"let s = "// not a comment";"#);
        assert!(v.iter().any(|(k, t)| *k == TokKind::Str && t.contains("//")));
        assert!(!v.iter().any(|(k, _)| *k == TokKind::LineComment));
    }

    #[test]
    fn raw_string_with_hashes_and_quote() {
        let src = "let s = r#\"she said \"hi\"\"#; done";
        let v = kinds(src);
        assert_eq!(
            v.iter().find(|(k, _)| *k == TokKind::RawStr).unwrap().1,
            "r#\"she said \"hi\"\"#"
        );
        assert!(v.last().unwrap().1.contains("done"));
    }

    #[test]
    fn lifetime_is_code_char_literal_is_not() {
        let v = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        let chars: Vec<_> = v.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].1, "'x'");
    }

    #[test]
    fn escaped_quote_char_literal() {
        let v = kinds(r"let q = '\''; let n = '\n';");
        let chars: Vec<_> = v.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn byte_string_and_byte_char() {
        let v = kinds(r##"let a = b"bytes"; let c = b'x'; let r = br#"raw"#;"##);
        assert!(v.iter().any(|(k, t)| *k == TokKind::Str && t.starts_with("b\"")));
        assert!(v.iter().any(|(k, t)| *k == TokKind::Char && t.starts_with("b'")));
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let v = kinds("let var_br = 1; for_entry(\"x\")");
        assert!(!v.iter().any(|(k, _)| *k == TokKind::RawStr));
    }

    #[test]
    fn code_view_blanks_but_keeps_offsets() {
        let src = "a /* HashMap */ b \"HashMap\" // HashMap\nHashMap";
        let toks = lex(src);
        let view = code_view(src, &toks);
        assert_eq!(view.len(), src.len());
        assert_eq!(view.matches("HashMap").count(), 1);
        assert_eq!(view.find("HashMap"), src.rfind("HashMap"));
    }

    #[test]
    fn line_of_counts_from_one() {
        let src = "a\nb\nc";
        let idx = line_index(src);
        assert_eq!(line_of(&idx, 0), 1);
        assert_eq!(line_of(&idx, 2), 2);
        assert_eq!(line_of(&idx, 4), 3);
    }
}
