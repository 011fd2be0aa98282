//! AST of the resource-request language.

use std::fmt;
use ttt_sim::SimDuration;

/// Comparison operators in property expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
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
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A property-filter expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Always true (empty filter).
    True,
    /// `property OP literal`.
    Cmp {
        /// Property name, e.g. `cluster`.
        key: String,
        /// Comparison operator.
        op: CmpOp,
        /// Literal rendered as a string (`'a'`, `16`, `'YES'`).
        value: String,
    },
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for `key = 'value'`.
    pub fn eq(key: &str, value: &str) -> Expr {
        Expr::Cmp {
            key: key.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Conjunction helper.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// The single cluster this filter can ever match, if one is statically
    /// implied: a `cluster='x'` equality, possibly nested in conjunctions.
    /// Returns `None` when the filter may span clusters — callers must then
    /// fall back to considering every cluster. Used by the scheduler to
    /// narrow candidate-instant collection to the relevant timelines.
    pub fn implied_cluster(&self) -> Option<&str> {
        self.implied_eq("cluster")
    }

    /// The single value `key` must equal for this filter to match, if one
    /// is statically implied (an equality on `key`, possibly nested in
    /// conjunctions). The federation uses `implied_eq("site")` to derive a
    /// request's home scheduling domain.
    pub fn implied_eq(&self, wanted: &str) -> Option<&str> {
        match self {
            Expr::Cmp { key, op: CmpOp::Eq, value } if key == wanted => Some(value),
            Expr::And(a, b) => a.implied_eq(wanted).or_else(|| b.implied_eq(wanted)),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::True => f.write_str("TRUE"),
            Expr::Cmp { key, op, value } => write!(f, "{key}{op}'{value}'"),
            Expr::And(a, b) => write!(f, "({a} and {b})"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
            Expr::Not(e) => write!(f, "not {e}"),
        }
    }
}

/// Resource hierarchy levels, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// A whole cluster.
    Cluster,
    /// A network switch.
    Switch,
    /// A node (OAR calls this `nodes` or `network_address`).
    Nodes,
    /// A CPU socket (treated as a node subdivision).
    Cpu,
    /// A core (innermost).
    Core,
}

impl Level {
    /// Parse a level keyword.
    pub fn from_keyword(kw: &str) -> Option<Level> {
        match kw {
            "cluster" => Some(Level::Cluster),
            "switch" => Some(Level::Switch),
            "nodes" | "host" | "network_address" => Some(Level::Nodes),
            "cpu" => Some(Level::Cpu),
            "core" => Some(Level::Core),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::Cluster => "cluster",
            Level::Switch => "switch",
            Level::Nodes => "nodes",
            Level::Cpu => "cpu",
            Level::Core => "core",
        };
        f.write_str(s)
    }
}

/// A requested count at a hierarchy level: a number or `ALL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Exactly this many.
    Exact(u32),
    /// Every matching resource at this level (`nodes=ALL`): what the
    /// paper's hardware-centric tests request (slide 16).
    All,
}

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count::Exact(n) => write!(f, "{n}"),
            Count::All => f.write_str("ALL"),
        }
    }
}

/// One resource group: a filter plus a hierarchy of counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestGroup {
    /// Property filter restricting candidate nodes.
    pub filter: Expr,
    /// Hierarchy levels, outermost first, e.g. `[(Cluster, 1), (Nodes, 2)]`.
    pub hierarchy: Vec<(Level, Count)>,
}

impl RequestGroup {
    /// The node count this group needs, if expressible without `ALL`.
    pub fn node_count(&self) -> Option<u32> {
        let mut total: u32 = 1;
        for (level, count) in &self.hierarchy {
            let n = match count {
                Count::Exact(n) => *n,
                Count::All => return None,
            };
            match level {
                Level::Cluster | Level::Switch | Level::Nodes => {
                    total = total.saturating_mul(n)
                }
                // Core/CPU-level requests occupy whole nodes in the
                // simulated scheduler; they do not multiply the count.
                Level::Cpu | Level::Core => {}
            }
        }
        Some(total)
    }

    /// Whether some level asks for exactly zero resources. Such a group
    /// requests nothing: the parser refuses it and the server neither
    /// accepts nor places it.
    pub fn has_zero_count(&self) -> bool {
        self.hierarchy
            .iter()
            .any(|(_, count)| matches!(count, Count::Exact(0)))
    }
}

impl fmt::Display for RequestGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.filter)?;
        for (level, count) in &self.hierarchy {
            write!(f, "/{level}={count}")?;
        }
        Ok(())
    }
}

/// A full resource request: one or more groups plus a walltime.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceRequest {
    /// Requested groups (joined with `+` in the source syntax).
    pub groups: Vec<RequestGroup>,
    /// How long the resources are needed.
    pub walltime: SimDuration,
}

impl ResourceRequest {
    /// Build the simplest request: `n` nodes matching `filter` for `walltime`.
    pub fn nodes(filter: Expr, n: u32, walltime: SimDuration) -> Self {
        ResourceRequest {
            groups: vec![RequestGroup {
                filter,
                hierarchy: vec![(Level::Nodes, Count::Exact(n))],
            }],
            walltime,
        }
    }

    /// Build "all nodes matching `filter`" for `walltime`.
    pub fn all_nodes(filter: Expr, walltime: SimDuration) -> Self {
        ResourceRequest {
            groups: vec![RequestGroup {
                filter,
                hierarchy: vec![(Level::Nodes, Count::All)],
            }],
            walltime,
        }
    }

    /// The clusters this request can ever touch, one per group, if every
    /// group statically implies one (see [`Expr::implied_cluster`]). `None`
    /// means the request may span arbitrary clusters.
    pub fn implied_clusters(&self) -> Option<impl Iterator<Item = &str>> {
        let implied = || self.groups.iter().map(|g| g.filter.implied_cluster());
        implied().all(|c| c.is_some()).then(|| implied().flatten())
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, ",walltime={}", self.walltime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_and_display() {
        let e = Expr::eq("cluster", "a").and(Expr::eq("gpu", "YES"));
        assert_eq!(e.to_string(), "(cluster='a' and gpu='YES')");
        let o = Expr::eq("x", "1").or(Expr::Not(Box::new(Expr::True)));
        assert_eq!(o.to_string(), "(x='1' or not TRUE)");
    }

    #[test]
    fn implied_cluster_extraction() {
        assert_eq!(Expr::eq("cluster", "a").implied_cluster(), Some("a"));
        assert_eq!(
            Expr::eq("gpu", "YES").and(Expr::eq("cluster", "b")).implied_cluster(),
            Some("b")
        );
        assert_eq!(Expr::True.implied_cluster(), None);
        assert_eq!(Expr::eq("gpu", "YES").implied_cluster(), None);
        // Disjunctions and negations may span clusters: no implication.
        assert_eq!(
            Expr::eq("cluster", "a").or(Expr::eq("cluster", "b")).implied_cluster(),
            None
        );
        assert_eq!(
            Expr::Not(Box::new(Expr::eq("cluster", "a"))).implied_cluster(),
            None
        );

        let req = ResourceRequest {
            groups: vec![
                RequestGroup {
                    filter: Expr::eq("cluster", "a").and(Expr::eq("gpu", "YES")),
                    hierarchy: vec![(Level::Nodes, Count::Exact(1))],
                },
                RequestGroup {
                    filter: Expr::eq("cluster", "b"),
                    hierarchy: vec![(Level::Nodes, Count::Exact(2))],
                },
            ],
            walltime: SimDuration::from_hours(1),
        };
        fn clusters(r: &ResourceRequest) -> Option<Vec<&str>> {
            r.implied_clusters().map(Iterator::collect)
        }
        assert_eq!(clusters(&req), Some(vec!["a", "b"]));
        let open = ResourceRequest::nodes(Expr::True, 1, SimDuration::from_hours(1));
        assert_eq!(clusters(&open), None);
    }

    #[test]
    fn level_keywords() {
        assert_eq!(Level::from_keyword("nodes"), Some(Level::Nodes));
        assert_eq!(Level::from_keyword("network_address"), Some(Level::Nodes));
        assert_eq!(Level::from_keyword("cluster"), Some(Level::Cluster));
        assert_eq!(Level::from_keyword("bogus"), None);
    }

    #[test]
    fn group_node_counts() {
        let g = RequestGroup {
            filter: Expr::True,
            hierarchy: vec![(Level::Cluster, Count::Exact(2)), (Level::Nodes, Count::Exact(3))],
        };
        assert_eq!(g.node_count(), Some(6));
        let all = RequestGroup {
            filter: Expr::True,
            hierarchy: vec![(Level::Nodes, Count::All)],
        };
        assert_eq!(all.node_count(), None);
    }

    #[test]
    fn request_builders() {
        let r = ResourceRequest::nodes(Expr::eq("cluster", "a"), 2, SimDuration::from_hours(2));
        assert_eq!(r.groups.len(), 1);
        assert_eq!(r.groups[0].node_count(), Some(2));
        let all = ResourceRequest::all_nodes(Expr::True, SimDuration::from_hours(1));
        assert_eq!(all.groups[0].hierarchy[0].1, Count::All);
    }

    #[test]
    fn display_roundtrips_visually() {
        let r = ResourceRequest::nodes(Expr::eq("cluster", "a"), 2, SimDuration::from_hours(2));
        assert_eq!(r.to_string(), "{cluster='a'}/nodes=2,walltime=2.0h");
    }
}
