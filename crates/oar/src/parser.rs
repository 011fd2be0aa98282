//! Recursive-descent parser for the `oarsub -l` request language.
//!
//! Grammar (informally):
//!
//! ```text
//! request   := group ('+' group)* (',' 'walltime' '=' time)?
//! group     := '{' expr '}' hier | expr hier | hier
//! hier      := ('/' level '=' count)+
//! expr      := term (('and'|'or') term)*
//! term      := 'not' term | '(' expr ')' | ident op literal
//! level     := 'cluster' | 'switch' | 'nodes' | 'cpu' | 'core'
//! count     := integer | 'ALL'
//! time      := H (':' M (':' S)?)?
//! ```

use crate::ast::{CmpOp, Count, Expr, Level, RequestGroup, ResourceRequest};
use crate::lexer::{lex, LexError, Token, TokenKind};
use std::fmt;
use ttt_sim::SimDuration;

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input, when known.
    pub pos: Option<usize>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "parse error at byte {p}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            pos: Some(e.pos),
        }
    }
}

/// Parse a full resource request. `default_walltime` applies when the
/// request omits the `walltime=` clause.
// detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
pub fn parse_request(
    input: &str,
    default_walltime: SimDuration,
) -> Result<ResourceRequest, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, idx: 0 };
    let req = p.request(default_walltime)?;
    if let Some(t) = p.peek() {
        return Err(ParseError {
            message: format!("trailing input: {}", t.kind),
            pos: Some(t.pos),
        });
    }
    Ok(req)
}

/// Parse just a property expression (the evaluator's tests).
#[cfg(test)]
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, idx: 0 };
    let e = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(ParseError {
            message: format!("trailing input: {}", t.kind),
            pos: Some(t.pos),
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.idx)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.idx).cloned();
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    /// Whether the upcoming tokens look like `level = count` (hierarchy)
    /// rather than `property = 'literal'` (filter).
    fn lookahead_is_hierarchy(&self) -> bool {
        matches!(
            self.tokens.get(self.idx + 1).map(|t| &t.kind),
            Some(TokenKind::Eq)
        ) && matches!(
            self.tokens.get(self.idx + 2).map(|t| &t.kind),
            Some(TokenKind::Int(_))
        ) || matches!(
            (self.tokens.get(self.idx + 1).map(|t| &t.kind), self.tokens.get(self.idx + 2).map(|t| &t.kind)),
            (Some(TokenKind::Eq), Some(TokenKind::Ident(kw))) if kw == "ALL" || kw == "all"
        )
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            pos: self.peek().map(|t| t.pos),
        }
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn eat(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(ParseError {
                message: format!("expected {kind}, found {}", t.kind),
                pos: Some(t.pos),
            }),
            None => Err(ParseError {
                message: format!("expected {kind}, found end of input"),
                pos: None,
            }),
        }
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn request(&mut self, default_walltime: SimDuration) -> Result<ResourceRequest, ParseError> {
        let mut groups = vec![self.group()?];
        while matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Plus)) {
            self.next();
            groups.push(self.group()?);
        }
        let mut walltime = default_walltime;
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Comma)) {
            self.next();
            match self.next() {
                Some(Token { kind: TokenKind::Ident(kw), .. }) if kw == "walltime" => {}
                other => {
                    return Err(ParseError {
                        message: "expected `walltime` after `,`".into(),
                        pos: other.map(|t| t.pos),
                    })
                }
            }
            self.eat(&TokenKind::Eq)?;
            walltime = self.time()?;
        }
        Ok(ResourceRequest { groups, walltime })
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn group(&mut self) -> Result<RequestGroup, ParseError> {
        let filter = match self.peek().map(|t| &t.kind) {
            // `{expr}` braced filter.
            Some(TokenKind::LBrace) => {
                self.next();
                let e = self.expr()?;
                self.eat(&TokenKind::RBrace)?;
                e
            }
            // Bare `/nodes=...`: no filter.
            Some(TokenKind::Slash) => Expr::True,
            // Unbraced filter — but beware: `nodes=2` is a hierarchy term
            // while `cluster='a'` is a filter, and `cluster` is both a
            // property name and a level keyword. Disambiguate by lookahead:
            // a level keyword followed by `=` and a count starts the
            // hierarchy; anything else is a filter expression.
            Some(TokenKind::Ident(id))
                if Level::from_keyword(id).is_none() || !self.lookahead_is_hierarchy() =>
            {
                self.expr()?
            }
            _ => Expr::True,
        };
        let mut hierarchy = Vec::new();
        loop {
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Slash) => {
                    self.next();
                }
                // First level may omit the leading slash (`nodes=2`).
                Some(TokenKind::Ident(id))
                    if hierarchy.is_empty() && Level::from_keyword(id).is_some() => {}
                _ => break,
            }
            let level = match self.next() {
                Some(Token { kind: TokenKind::Ident(kw), pos }) => Level::from_keyword(&kw)
                    .ok_or(ParseError {
                        message: format!("unknown hierarchy level `{kw}`"),
                        pos: Some(pos),
                    })?,
                other => {
                    return Err(ParseError {
                        message: "expected hierarchy level".into(),
                        pos: other.map(|t| t.pos),
                    })
                }
            };
            self.eat(&TokenKind::Eq)?;
            let (count, pos) = match self.next() {
                Some(Token { kind: TokenKind::Int(n), pos }) => {
                    (u32::try_from(n).ok().map(Count::Exact), pos)
                }
                Some(Token { kind: TokenKind::Ident(kw), pos }) if kw == "ALL" || kw == "all" => {
                    (Some(Count::All), pos)
                }
                Some(Token { kind: TokenKind::Str(s), pos }) => {
                    (s.parse().ok().map(Count::Exact), pos)
                }
                other => {
                    return Err(ParseError {
                        message: "expected count after `=`".into(),
                        pos: other.map(|t| t.pos),
                    })
                }
            };
            // Zero asks for nothing, and a wider integer must not wrap
            // into range.
            let count = count
                .filter(|c| *c != Count::Exact(0))
                .ok_or_else(|| ParseError {
                    message: "expected a count of at least 1 (a `u32`) or `ALL`".into(),
                    pos: Some(pos),
                })?;
            hierarchy.push((level, count));
        }
        if hierarchy.is_empty() {
            return Err(self.error("resource group needs at least one `/level=count`"));
        }
        Ok(RequestGroup { filter, hierarchy })
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.term()?;
        loop {
            match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Ident(kw)) if kw == "and" || kw == "AND" => {
                    self.next();
                    let right = self.term()?;
                    left = Expr::And(Box::new(left), Box::new(right));
                }
                Some(TokenKind::Ident(kw)) if kw == "or" || kw == "OR" => {
                    self.next();
                    let right = self.term()?;
                    left = Expr::Or(Box::new(left), Box::new(right));
                }
                _ => break,
            }
        }
        Ok(left)
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn term(&mut self) -> Result<Expr, ParseError> {
        match self.peek().map(|t| t.kind.clone()) {
            Some(TokenKind::Ident(kw)) if kw == "not" || kw == "NOT" => {
                self.next();
                Ok(Expr::Not(Box::new(self.term()?)))
            }
            Some(TokenKind::LParen) => {
                self.next();
                let e = self.expr()?;
                self.eat(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(key)) => {
                self.next();
                let op = match self.next() {
                    Some(Token { kind: TokenKind::Eq, .. }) => CmpOp::Eq,
                    Some(Token { kind: TokenKind::Neq, .. }) => CmpOp::Neq,
                    Some(Token { kind: TokenKind::Lt, .. }) => CmpOp::Lt,
                    Some(Token { kind: TokenKind::Le, .. }) => CmpOp::Le,
                    Some(Token { kind: TokenKind::Gt, .. }) => CmpOp::Gt,
                    Some(Token { kind: TokenKind::Ge, .. }) => CmpOp::Ge,
                    other => {
                        return Err(ParseError {
                            message: format!("expected comparison operator after `{key}`"),
                            pos: other.map(|t| t.pos),
                        })
                    }
                };
                let value = match self.next() {
                    Some(Token { kind: TokenKind::Str(s), .. }) => s,
                    Some(Token { kind: TokenKind::Int(i), .. }) => i.to_string(),
                    Some(Token { kind: TokenKind::Ident(id), .. }) => id,
                    other => {
                        return Err(ParseError {
                            message: "expected literal after comparison operator".into(),
                            pos: other.map(|t| t.pos),
                        })
                    }
                };
                Ok(Expr::Cmp { key, op, value })
            }
            _ => Err(self.error("expected property expression")),
        }
    }

    /// `H`, `H:M`, or `H:M:S`.
    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn time(&mut self) -> Result<SimDuration, ParseError> {
        let hours = self.int("hours")?;
        let mut total = hours * 3600;
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Colon)) {
            self.next();
            total += self.int("minutes")? * 60;
            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Colon)) {
                self.next();
                total += self.int("seconds")?;
            }
        }
        Ok(SimDuration::from_secs(total))
    }

    // detlint: allow(unarmed-service-fn) -- pure oarsub-syntax parser; no simulated IO or timing to perturb
    fn int(&mut self, what: &str) -> Result<u64, ParseError> {
        match self.next() {
            Some(Token { kind: TokenKind::Int(n), .. }) => Ok(n),
            other => Err(ParseError {
                message: format!("expected {what}"),
                pos: other.map(|t| t.pos),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: SimDuration = SimDuration::from_hours(1);

    #[test]
    fn parses_the_paper_example() {
        // Slide 7, verbatim (modulo typographic quotes).
        let input =
            "cluster='a' and gpu='YES'/nodes=1+cluster='b' and eth10g='Y'/nodes=2,walltime=2";
        let req = parse_request(input, HOUR).unwrap();
        assert_eq!(req.groups.len(), 2);
        assert_eq!(req.walltime, SimDuration::from_hours(2));
        assert_eq!(
            req.groups[0].filter.to_string(),
            "(cluster='a' and gpu='YES')"
        );
        assert_eq!(req.groups[0].hierarchy, vec![(Level::Nodes, Count::Exact(1))]);
        assert_eq!(req.groups[1].hierarchy, vec![(Level::Nodes, Count::Exact(2))]);
    }

    #[test]
    fn parses_braced_filter_and_multilevel() {
        let req = parse_request("{cluster='a'}/cluster=1/nodes=2,walltime=0:30", HOUR).unwrap();
        assert_eq!(
            req.groups[0].hierarchy,
            vec![(Level::Cluster, Count::Exact(1)), (Level::Nodes, Count::Exact(2))]
        );
        assert_eq!(req.walltime, SimDuration::from_mins(30));
    }

    #[test]
    fn parses_bare_hierarchy_with_default_walltime() {
        let req = parse_request("nodes=4", HOUR).unwrap();
        assert_eq!(req.groups[0].filter, Expr::True);
        assert_eq!(req.groups[0].hierarchy, vec![(Level::Nodes, Count::Exact(4))]);
        assert_eq!(req.walltime, HOUR);
    }

    #[test]
    fn parses_all_count() {
        let req = parse_request("{cluster='grisou'}/nodes=ALL,walltime=3", HOUR).unwrap();
        assert_eq!(req.groups[0].hierarchy, vec![(Level::Nodes, Count::All)]);
    }

    #[test]
    fn parses_hms_walltime() {
        let req = parse_request("nodes=1,walltime=1:30:45", HOUR).unwrap();
        assert_eq!(req.walltime, SimDuration::from_secs(5445));
    }

    #[test]
    fn parses_numeric_comparisons() {
        let e = parse_expr("cpucore >= 16 and memnode > 64").unwrap();
        assert_eq!(e.to_string(), "(cpucore>='16' and memnode>'64')");
    }

    #[test]
    fn parses_parens_and_not() {
        let e = parse_expr("not (cluster='a' or cluster='b')").unwrap();
        assert_eq!(e.to_string(), "not (cluster='a' or cluster='b')");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_request("", HOUR).is_err());
        assert!(parse_request("nodes=", HOUR).is_err());
        assert!(parse_request("/bogus=2", HOUR).is_err());
        assert!(parse_request("nodes=2 trailing", HOUR).is_err());
        assert!(parse_request("cluster='a'", HOUR).is_err()); // no hierarchy
        let err = parse_request("nodes=2,deadline=5", HOUR).unwrap_err();
        assert!(err.message.contains("walltime"));
    }

    #[test]
    fn rejects_a_zero_or_out_of_range_count() {
        // Regression: `nodes=0` parsed, was accepted and ran holding no
        // node; 2^32 wrapped to the same zero.
        for input in [
            "nodes=0",
            "/nodes='0'",
            "{cluster='a'}/cluster=0/nodes=2",
            "nodes=2/core=0",
            "nodes=1+{cluster='b'}/nodes=0",
            "nodes=4294967296",
        ] {
            let err = parse_request(input, HOUR).unwrap_err();
            assert!(err.message.contains("at least 1"), "{input}: {err}");
            assert!(err.pos.is_some(), "{input}");
        }
        assert!(parse_request("nodes=4294967295", HOUR).is_ok());
    }

    #[test]
    fn error_display_contains_position() {
        let err = parse_request("nodes=2 trailing", HOUR).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("byte"), "{s}");
    }
}
