//! Property extraction: the Reference API → OAR resource database bridge.
//!
//! Slide 7: "OAR database filled from Reference API". For every described
//! node we derive the flat property map users select on with expressions
//! like `cluster='a' and gpu='YES'`.

use crate::description::{NodeDescription, TestbedDescription};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A property value in the resource database.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// String-valued property.
    Str(String),
    /// Integer-valued property.
    Int(i64),
    /// Boolean rendered the OAR way (`'YES'`/`'NO'`).
    Bool(bool),
}

impl PropValue {
    /// OAR-style string rendering (booleans become `YES`/`NO`).
    pub fn render(&self) -> String {
        match self {
            PropValue::Str(s) => s.clone(),
            PropValue::Int(i) => i.to_string(),
            PropValue::Bool(true) => "YES".into(),
            PropValue::Bool(false) => "NO".into(),
        }
    }

    /// Compare against a literal string as OAR does: booleans match
    /// `YES`/`NO`, integers match their decimal rendering. Allocation-free:
    /// this sits on the scheduler's per-node eligibility path.
    pub fn matches_literal(&self, lit: &str) -> bool {
        match self {
            PropValue::Str(s) => s == lit,
            PropValue::Bool(b) => lit == if *b { "YES" } else { "NO" },
            PropValue::Int(i) => {
                let mut buf = [0u8; 20];
                decimal(*i, &mut buf) == lit.as_bytes()
            }
        }
    }

    /// Numeric view, if the value is (or parses as) a number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropValue::Int(i) => Some(*i),
            PropValue::Str(s) => s.parse().ok(),
            PropValue::Bool(_) => None,
        }
    }
}

/// Pads in place to the formatter's width and alignment, allocating
/// nothing: `oarnodes` lays its table out with it.
impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Str(s) => f.pad(s),
            PropValue::Int(i) => fmt::Display::fmt(i, f),
            PropValue::Bool(b) => f.pad(if *b { "YES" } else { "NO" }),
        }
    }
}

/// Render `i` as canonical decimal into `buf`, returning the used slice
/// (stack-only `i64::to_string` for [`PropValue::matches_literal`]).
fn decimal(i: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut n = i.unsigned_abs();
    let mut pos = buf.len();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if i < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    &buf[pos..]
}

/// The flat property map OAR stores for one node.
pub type PropertyMap = BTreeMap<String, PropValue>;

/// Derive OAR properties for one described node.
pub fn node_properties(site: &str, cluster: &str, node: &NodeDescription) -> PropertyMap {
    let hw = &node.hardware;
    let mut m = PropertyMap::new();
    m.insert("host".into(), PropValue::Str(node.name.clone()));
    m.insert("site".into(), PropValue::Str(site.to_string()));
    m.insert("cluster".into(), PropValue::Str(cluster.to_string()));
    m.insert("cpucore".into(), PropValue::Int(hw.cores() as i64));
    m.insert(
        "cpufreq".into(),
        PropValue::Int(hw.cpu.base_freq_mhz as i64),
    );
    m.insert("memnode".into(), PropValue::Int(hw.memory_gb() as i64));
    m.insert("gpu".into(), PropValue::Bool(hw.gpu.is_some()));
    m.insert("ib".into(), PropValue::Bool(hw.ib.is_some()));
    m.insert(
        "eth10g".into(),
        PropValue::Bool(hw.primary_nic().is_some_and(|n| n.rate_gbps >= 10)),
    );
    m.insert(
        "disktype".into(),
        PropValue::Str(
            hw.primary_disk()
                .map(|d| match d.kind {
                    ttt_testbed::DiskKind::Hdd => "HDD".to_string(),
                    ttt_testbed::DiskKind::Ssd => "SSD".to_string(),
                })
                .unwrap_or_else(|| "NONE".into()),
        ),
    );
    m.insert(
        "disk_count".into(),
        PropValue::Int(hw.disks.len() as i64),
    );
    m
}

/// Derive the full `(node name → properties)` database from a description.
pub fn all_properties(d: &TestbedDescription) -> BTreeMap<String, PropertyMap> {
    let mut out = BTreeMap::new();
    for site in &d.sites {
        for cluster in &site.clusters {
            for node in &cluster.nodes {
                out.insert(
                    node.name.clone(),
                    node_properties(&site.name, &cluster.name, node),
                );
            }
        }
    }
    out
}

/// The property database of one description version as the read plane
/// serves it: the per-node maps of [`all_properties`] plus an inverted
/// `(key, literal) → node names` index, built once when the version is
/// first published and shared by every epoch that serves that version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropertyDb {
    nodes: BTreeMap<String, PropertyMap>,
    /// key → rendered value → names of the nodes carrying it, sorted. A
    /// value matches a literal exactly when it renders as it (see
    /// [`PropValue::matches_literal`]), so a lookup here is the filter.
    index: BTreeMap<String, BTreeMap<String, Arc<[String]>>>,
}

impl PropertyDb {
    /// Index a `(node name → properties)` database.
    pub fn new(nodes: BTreeMap<String, PropertyMap>) -> Self {
        let mut by_literal: BTreeMap<&str, BTreeMap<String, Vec<String>>> = BTreeMap::new();
        // Names arrive sorted, so every list is born sorted.
        for (name, props) in &nodes {
            for (key, value) in props {
                by_literal
                    .entry(key)
                    .or_default()
                    .entry(value.render())
                    .or_default()
                    .push(name.clone());
            }
        }
        let index = by_literal
            .into_iter()
            .map(|(key, literals)| {
                let literals = literals.into_iter().map(|(l, names)| (l, names.into()));
                (key.to_string(), literals.collect())
            })
            .collect();
        PropertyDb { nodes, index }
    }

    /// The per-node property maps, by node name.
    pub fn nodes(&self) -> &BTreeMap<String, PropertyMap> {
        &self.nodes
    }

    /// Names of the nodes whose property `key` matches `literal` the OAR
    /// way, sorted — the shared list, not a copy.
    pub fn matching(&self, key: &str, literal: &str) -> Arc<[String]> {
        self.index
            .get(key)
            .and_then(|literals| literals.get(literal))
            .cloned()
            .unwrap_or_default()
    }
}

/// One typed read-plane query — the mix a multi-tenant testbed front end
/// serves. Answers are pure functions of `(snapshot epoch, query)`: the
/// query carries only plain data, never references into live state, so
/// the same query against the same epoch always yields the same answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Pass ratio of one status-grid cell (job × target).
    StatusCell {
        /// CI job name.
        job: String,
        /// Grid target (site/cluster name or `global`).
        target: String,
    },
    /// First/last-period success trend of one job's build history,
    /// bucketed into periods of `period_mins` minutes.
    JobTrend {
        /// CI job name.
        job: String,
        /// Bucket width, minutes. Any value is answered: zero is taken as
        /// one, and a width longer than the epoch's age is one bucket.
        period_mins: u64,
    },
    /// Names of described nodes whose property `key` matches `value` the
    /// OAR way (booleans as `YES`/`NO`, integers as decimal).
    NodeFilter {
        /// Property key, e.g. `cluster` or `gpu`.
        key: String,
        /// Literal to match against.
        value: String,
    },
    /// Aggregate power stats of one node's window in the snapshot.
    MetricsWindow {
        /// Node id (wattmeter label).
        node: u32,
    },
    /// Waiting-queue depth and spillover count of one site's OAR server.
    QueueDepth {
        /// Site name.
        site: String,
    },
    /// Service liveness census: how many processes are up vs down.
    ServiceCensus,
}

/// The answer to a [`Query`], as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Status cell: passing and total finished runs in the cell.
    Ratio {
        /// Builds that passed.
        pass: u64,
        /// Finished builds in the cell.
        total: u64,
    },
    /// Job trend: mean success of the first and last period.
    Trend {
        /// First period's success ratio.
        first: f64,
        /// Last period's success ratio.
        last: f64,
    },
    /// Node filter: matching node names, sorted. Shared with the epoch's
    /// [`PropertyDb`] index — answering copies no name.
    Nodes(Arc<[String]>),
    /// Metrics window stats for the node.
    Window {
        /// Samples in the window.
        count: u32,
        /// Minimum watts.
        min: f64,
        /// Mean watts.
        mean: f64,
        /// Maximum watts.
        max: f64,
    },
    /// Queue depth: waiting jobs and spillovers at the site.
    Depth {
        /// Jobs waiting in the site's queue.
        waiting: u64,
        /// Jobs this site spilled to other sites.
        spillovers: u64,
    },
    /// Service census.
    Census {
        /// Processes up.
        up: u64,
        /// Processes down (crashed or restarting).
        down: u64,
    },
    /// The query addressed something absent from this epoch.
    NotFound,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::describe;
    use ttt_sim::SimTime;
    use ttt_testbed::TestbedBuilder;

    #[test]
    fn properties_cover_expected_keys() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        let n = d.node("alpha-1").unwrap();
        let p = node_properties("east", "alpha", n);
        for key in [
            "host", "site", "cluster", "cpucore", "cpufreq", "memnode", "gpu", "ib", "eth10g",
            "disktype", "disk_count",
        ] {
            assert!(p.contains_key(key), "missing {key}");
        }
        assert_eq!(p["cluster"], PropValue::Str("alpha".into()));
        assert_eq!(p["cpucore"], PropValue::Int(8));
        assert_eq!(p["ib"], PropValue::Bool(true));
    }

    #[test]
    fn oar_boolean_rendering() {
        assert_eq!(PropValue::Bool(true).render(), "YES");
        assert_eq!(PropValue::Bool(false).render(), "NO");
        assert!(PropValue::Bool(true).matches_literal("YES"));
        assert!(!PropValue::Bool(true).matches_literal("yes"));
        assert!(PropValue::Int(16).matches_literal("16"));
        // The stack decimal rendering matches `to_string` exactly.
        for i in [0i64, 7, -1, 42, -9000, i64::MAX, i64::MIN] {
            assert!(PropValue::Int(i).matches_literal(&i.to_string()), "{i}");
            assert!(!PropValue::Int(i).matches_literal("x"));
        }
        assert!(!PropValue::Int(16).matches_literal("016"));
        assert_eq!(PropValue::Str("42".into()).as_int(), Some(42));
        assert_eq!(PropValue::Bool(true).as_int(), None);
    }

    #[test]
    fn all_properties_covers_testbed() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        let db = all_properties(&d);
        assert_eq!(db.len(), tb.nodes().len());
        // Every site value is a real site.
        for props in db.values() {
            let site = props["site"].render();
            assert!(tb.site_by_name(&site).is_some(), "bad site {site}");
        }
    }

    #[test]
    fn index_answers_like_a_scan_of_the_maps() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        let db = PropertyDb::new(all_properties(&d));
        let scan = |key: &str, lit: &str| -> Vec<String> {
            db.nodes()
                .iter()
                .filter(|(_, p)| p.get(key).is_some_and(|v| v.matches_literal(lit)))
                .map(|(name, _)| name.clone())
                .collect()
        };
        let mut probed = 0;
        for props in db.nodes().values() {
            for (key, value) in props {
                let lit = value.render();
                assert_eq!(&db.matching(key, &lit)[..], &scan(key, &lit)[..], "{key}={lit}");
                probed += 1;
            }
        }
        assert!(probed > 0);
        // Misses: unknown key, unknown literal, near-miss renderings.
        for (key, lit) in [("nope", "x"), ("gpu", "yes"), ("cpucore", "08"), ("site", "")] {
            assert!(db.matching(key, lit).is_empty(), "{key}={lit}");
            assert!(scan(key, lit).is_empty(), "{key}={lit}");
        }
        // Every epoch of a version hands out the same list.
        assert!(Arc::ptr_eq(&db.matching("gpu", "NO"), &db.matching("gpu", "NO")));
    }

    #[test]
    fn eth10g_depends_on_nic_rate() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        // gamma is a 4-core old-generation cluster with 1G NICs.
        let gamma = d.node("gamma-1").unwrap();
        let p = node_properties("west", "gamma", gamma);
        assert_eq!(p["eth10g"], PropValue::Bool(false));
        // beta is a 16-core modern cluster: 10G.
        let beta = d.node("beta-1").unwrap();
        let p = node_properties("east", "beta", beta);
        assert_eq!(p["eth10g"], PropValue::Bool(true));
    }
}
