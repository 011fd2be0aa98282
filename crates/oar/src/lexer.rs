//! Lexer for the `oarsub -l` resource-request language.
//!
//! Token stream for inputs like
//! `{cluster='a' and gpu='YES'}/nodes=1+cluster='b'/nodes=2,walltime=2:30`.

use std::fmt;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the input (for error reporting).
    pub pos: usize,
}

/// Token kinds of the request language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`cluster`, `nodes`, `and`, `walltime`, `ALL`, …).
    Ident(String),
    /// Single-quoted string literal, quotes stripped.
    Str(String),
    /// Unsigned integer literal.
    Int(u64),
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Str(s) => write!(f, "string '{s}'"),
            TokenKind::Int(i) => write!(f, "integer {i}"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Neq => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
        }
    }
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an input string.
// detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let pos = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '=' => {
                out.push(Token { kind: TokenKind::Eq, pos });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { kind: TokenKind::Neq, pos });
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "expected `=` after `!`".into(),
                        pos,
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { kind: TokenKind::Le, pos });
                    i += 2;
                } else {
                    out.push(Token { kind: TokenKind::Lt, pos });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { kind: TokenKind::Ge, pos });
                    i += 2;
                } else {
                    out.push(Token { kind: TokenKind::Gt, pos });
                    i += 1;
                }
            }
            '/' => {
                out.push(Token { kind: TokenKind::Slash, pos });
                i += 1;
            }
            '+' => {
                out.push(Token { kind: TokenKind::Plus, pos });
                i += 1;
            }
            ',' => {
                out.push(Token { kind: TokenKind::Comma, pos });
                i += 1;
            }
            ':' => {
                out.push(Token { kind: TokenKind::Colon, pos });
                i += 1;
            }
            '(' => {
                out.push(Token { kind: TokenKind::LParen, pos });
                i += 1;
            }
            ')' => {
                out.push(Token { kind: TokenKind::RParen, pos });
                i += 1;
            }
            '{' => {
                out.push(Token { kind: TokenKind::LBrace, pos });
                i += 1;
            }
            '}' => {
                out.push(Token { kind: TokenKind::RBrace, pos });
                i += 1;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        pos,
                    });
                }
                out.push(Token {
                    kind: TokenKind::Str(input[start..j].to_string()),
                    pos,
                });
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let lit = &input[start..i];
                let value = lit.parse().map_err(|_| LexError {
                    message: format!("integer literal `{lit}` out of range"),
                    pos,
                })?;
                out.push(Token {
                    kind: TokenKind::Int(value),
                    pos,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(input[start..i].to_string()),
                    pos,
                });
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    pos,
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_paper_example() {
        let toks = kinds("cluster='a' and gpu='YES'/nodes=1");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("cluster".into()),
                TokenKind::Eq,
                TokenKind::Str("a".into()),
                TokenKind::Ident("and".into()),
                TokenKind::Ident("gpu".into()),
                TokenKind::Eq,
                TokenKind::Str("YES".into()),
                TokenKind::Slash,
                TokenKind::Ident("nodes".into()),
                TokenKind::Eq,
                TokenKind::Int(1),
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a != 1 <= 2 >= 3 < 4 > 5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Neq,
                TokenKind::Int(1),
                TokenKind::Le,
                TokenKind::Int(2),
                TokenKind::Ge,
                TokenKind::Int(3),
                TokenKind::Lt,
                TokenKind::Int(4),
                TokenKind::Gt,
                TokenKind::Int(5),
            ]
        );
    }

    #[test]
    fn lexes_walltime_and_braces() {
        assert_eq!(
            kinds("{x='1'}/nodes=2,walltime=2:30:00"),
            vec![
                TokenKind::LBrace,
                TokenKind::Ident("x".into()),
                TokenKind::Eq,
                TokenKind::Str("1".into()),
                TokenKind::RBrace,
                TokenKind::Slash,
                TokenKind::Ident("nodes".into()),
                TokenKind::Eq,
                TokenKind::Int(2),
                TokenKind::Comma,
                TokenKind::Ident("walltime".into()),
                TokenKind::Eq,
                TokenKind::Int(2),
                TokenKind::Colon,
                TokenKind::Int(30),
                TokenKind::Colon,
                TokenKind::Int(0),
            ]
        );
    }

    #[test]
    fn double_quotes_work_too() {
        assert_eq!(kinds("x=\"y\""), vec![
            TokenKind::Ident("x".into()),
            TokenKind::Eq,
            TokenKind::Str("y".into()),
        ]);
    }

    #[test]
    fn errors_carry_position() {
        let err = lex("abc $").unwrap_err();
        assert_eq!(err.pos, 4);
        let err = lex("'unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = lex("a ! b").unwrap_err();
        assert!(err.message.contains("after `!`"));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = lex("ab  cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 4);
    }
}
