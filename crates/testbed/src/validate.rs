//! Structural validation of a testbed instance.
//!
//! The generator guarantees these invariants; fault application and repair
//! must preserve them. Campaign tests call [`validate`] after stress to
//! catch any mutation that corrupts the cross-references.

use crate::testbed::Testbed;

/// Check every structural invariant; returns the first violation found.
pub fn validate(tb: &Testbed) -> Result<(), String> {
    // Sites ↔ clusters cross-reference.
    for site in tb.sites() {
        for &cid in &site.clusters {
            let cluster = tb.cluster(cid);
            if cluster.site != site.id {
                return Err(format!(
                    "cluster {} listed under {} but points at {}",
                    cluster.name, site.name, cluster.site
                ));
            }
        }
    }
    for cluster in tb.clusters() {
        if !tb.site(cluster.site).clusters.contains(&cluster.id) {
            return Err(format!(
                "cluster {} missing from its site's list",
                cluster.name
            ));
        }
        // Clusters ↔ nodes cross-reference.
        for &nid in &cluster.nodes {
            let node = tb.node(nid);
            if node.cluster != cluster.id {
                return Err(format!(
                    "node {} listed in {} but points at {}",
                    node.name, cluster.name, node.cluster
                ));
            }
            if node.site != cluster.site {
                return Err(format!("node {} site disagrees with its cluster", node.name));
            }
        }
    }
    // Every node belongs to exactly one cluster.
    let mut seen = vec![false; tb.nodes().len()];
    for cluster in tb.clusters() {
        for &nid in &cluster.nodes {
            if seen[nid.index()] {
                return Err(format!("node {nid} appears in two clusters"));
            }
            seen[nid.index()] = true;
        }
    }
    if let Some(idx) = seen.iter().position(|s| !s) {
        return Err(format!("node index {idx} belongs to no cluster"));
    }
    // Topology covers every node; the wattmeter permutation is a bijection.
    let mut measured = std::collections::BTreeSet::new();
    for node in tb.nodes() {
        if !tb.topology().uplink.contains_key(&node.id) {
            return Err(format!("node {} has no switch port", node.name));
        }
        if !measured.insert(tb.topology().measured_node(node.id)) {
            return Err(format!(
                "two wattmeters measure the same node near {}",
                node.name
            ));
        }
    }
    // Names are unique.
    let mut names = std::collections::BTreeSet::new();
    for node in tb.nodes() {
        if !names.insert(node.name.as_str()) {
            return Err(format!("duplicate node name {}", node.name));
        }
    }
    // Backbone mesh: exactly one link per unordered site pair, endpoints
    // ordered and in range.
    let n_sites = tb.sites().len();
    let links = tb.topology().site_links();
    let expected = n_sites * n_sites.saturating_sub(1) / 2;
    if links.len() != expected {
        return Err(format!(
            "site mesh has {} links, expected {expected} for {n_sites} sites",
            links.len()
        ));
    }
    let mut pairs = std::collections::BTreeSet::new();
    for l in links {
        if l.a >= l.b {
            return Err(format!("site link {}~{} endpoints out of order", l.a, l.b));
        }
        if l.b.index() >= n_sites {
            return Err(format!("site link {}~{} beyond the site range", l.a, l.b));
        }
        if !pairs.insert((l.a, l.b)) {
            return Err(format!("duplicate site link {}~{}", l.a, l.b));
        }
    }
    // Site-scoped state vectors track the site arena.
    for site in tb.sites() {
        let _ = tb.site_powered(site.id);
        let _ = tb.clock_skew_of(site.id);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultTarget};
    use crate::gen::TestbedBuilder;
    use ttt_sim::SimTime;

    #[test]
    fn generated_testbeds_validate() {
        validate(&TestbedBuilder::small().build()).unwrap();
        validate(&TestbedBuilder::paper_scale().build()).unwrap();
    }

    #[test]
    fn faults_preserve_invariants() {
        let mut tb = TestbedBuilder::small().build();
        let c = &tb.clusters()[0];
        let (a, b) = (c.nodes[0], c.nodes[1]);
        let mut applied = Vec::new();
        for (kind, target) in [
            (FaultKind::CpuCStatesDrift, FaultTarget::Node(a)),
            (FaultKind::CablingSwap, FaultTarget::NodePair(a, b)),
            (FaultKind::NodeDead, FaultTarget::Node(b)),
            (FaultKind::DimmFailure, FaultTarget::Node(a)),
        ] {
            applied.push(tb.apply_fault(kind, target, SimTime::ZERO).unwrap());
        }
        validate(&tb).unwrap();
        for f in applied {
            tb.repair(f.id);
        }
        validate(&tb).unwrap();
    }

    #[test]
    fn cabling_swap_keeps_wattmeters_bijective() {
        let mut tb = TestbedBuilder::paper_scale().build();
        // Swap several disjoint pairs; the measured-node map must remain a
        // permutation for validation to pass.
        let nodes = tb.cluster_by_name("grisou").unwrap().nodes.clone();
        for pair in nodes.chunks(2).take(5) {
            if let [x, y] = pair {
                tb.apply_fault(
                    FaultKind::CablingSwap,
                    FaultTarget::NodePair(*x, *y),
                    SimTime::ZERO,
                )
                .unwrap();
            }
        }
        validate(&tb).unwrap();
    }
}
