//! The testbed description data model.

use std::sync::Arc;
use ttt_sim::SimTime;
use ttt_testbed::{NodeHardware, Testbed, Vendor};

/// Description of one node as published by the Reference API.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDescription {
    /// Host name, e.g. `"graphene-12"`.
    pub name: String,
    /// Described hardware: the cluster reference at publication time,
    /// shared with the cluster and with every node still conforming to it
    /// rather than copied per node.
    pub hardware: Arc<NodeHardware>,
}

/// Description of one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterDescription {
    /// Cluster name.
    pub name: String,
    /// Chassis vendor.
    pub vendor: Vendor,
    /// Whether the cluster is described as having Infiniband.
    pub has_ib: bool,
    /// Member nodes in host order.
    pub nodes: Vec<NodeDescription>,
}

/// Description of one site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDescription {
    /// Site name.
    pub name: String,
    /// Clusters at the site.
    pub clusters: Vec<ClusterDescription>,
}

/// A full, versioned testbed description.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedDescription {
    /// Monotonically increasing version number.
    pub version: u64,
    /// Virtual time the snapshot was taken.
    pub taken_at: SimTime,
    /// Sites in generation order.
    pub sites: Vec<SiteDescription>,
}

impl TestbedDescription {
    /// Total number of described nodes.
    pub fn node_count(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| &s.clusters)
            .map(|c| c.nodes.len())
            .sum()
    }

    /// Find a cluster description by name.
    pub fn cluster(&self, name: &str) -> Option<&ClusterDescription> {
        self.sites
            .iter()
            .flat_map(|s| &s.clusters)
            .find(|c| c.name == name)
    }

    /// Find a node description by host name.
    pub fn node(&self, name: &str) -> Option<&NodeDescription> {
        self.sites
            .iter()
            .flat_map(|s| &s.clusters)
            .flat_map(|c| &c.nodes)
            .find(|n| n.name == name)
    }

    /// Iterate `(site name, cluster description)` pairs.
    pub fn clusters(&self) -> impl Iterator<Item = (&str, &ClusterDescription)> {
        self.sites
            .iter()
            .flat_map(|s| s.clusters.iter().map(move |c| (s.name.as_str(), c)))
    }
}

/// Produce a description of the testbed from the clusters' *reference*
/// hardware — i.e. what the operators believe, not the (possibly drifted)
/// actual node state. Every node of a cluster is described by the one
/// template the cluster holds; the description copies no hardware.
pub fn describe(tb: &Testbed, version: u64, at: SimTime) -> TestbedDescription {
    let sites = tb
        .sites()
        .iter()
        .map(|site| SiteDescription {
            name: site.name.clone(),
            clusters: site
                .clusters
                .iter()
                .map(|&cid| {
                    let c = tb.cluster(cid);
                    ClusterDescription {
                        name: c.name.clone(),
                        vendor: c.vendor,
                        has_ib: c.has_ib,
                        nodes: c
                            .nodes
                            .iter()
                            .map(|&nid| NodeDescription {
                                name: tb.node(nid).name.clone(),
                                hardware: Arc::clone(&c.reference),
                            })
                            .collect(),
                    }
                })
                .collect(),
        })
        .collect();
    TestbedDescription {
        version,
        taken_at: at,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_testbed::TestbedBuilder;

    #[test]
    fn describe_covers_every_node() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        assert_eq!(d.node_count(), tb.nodes().len());
        assert_eq!(d.version, 1);
    }

    #[test]
    fn lookup_by_name() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        assert!(d.cluster("alpha").is_some());
        assert!(d.cluster("nope").is_none());
        let n = d.node("alpha-1").expect("node described");
        assert_eq!(n.hardware, tb.cluster_by_name("alpha").unwrap().reference);
    }

    #[test]
    fn description_ignores_actual_drift() {
        let mut tb = TestbedBuilder::small().build();
        let n = tb.clusters()[0].nodes[0];
        let name = tb.node(n).name.clone();
        tb.apply_fault(
            ttt_testbed::FaultKind::TurboDrift,
            ttt_testbed::FaultTarget::Node(n),
            SimTime::ZERO,
        )
        .unwrap();
        let d = describe(&tb, 2, SimTime::from_hours(1));
        // The description keeps the reference setting, not the drifted one.
        let described = &d.node(&name).unwrap().hardware;
        assert_ne!(described, &tb.node(n).hardware);
        assert!(Arc::ptr_eq(described, &tb.cluster(tb.node(n).cluster).reference));
    }

    #[test]
    fn clusters_iterator_pairs_sites() {
        let tb = TestbedBuilder::small().build();
        let d = describe(&tb, 1, SimTime::ZERO);
        let pairs: Vec<(String, String)> = d
            .clusters()
            .map(|(s, c)| (s.to_string(), c.name.clone()))
            .collect();
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&("east".into(), "alpha".into())));
        assert!(pairs.contains(&("west".into(), "gamma".into())));
    }
}
