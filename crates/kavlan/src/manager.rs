//! VLAN state and reachability model.

use std::collections::BTreeMap;
use ttt_sim::SimDuration;
use ttt_testbed::{NodeId, SiteId, Testbed};

/// VLAN identifier. VLAN 0 is the default VLAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VlanId(pub u16);

/// The default VLAN every node starts in.
pub const DEFAULT_VLAN: VlanId = VlanId(0);

/// The four VLAN types of the paper's figure (slide 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VlanKind {
    /// Routed between sites; the normal testbed network.
    Default,
    /// Isolated level-2 island at one site, reachable only via SSH gateway.
    Local,
    /// Separate level-2 network, reachable through routing.
    Routed,
    /// Level-2 network spanning every site.
    Global,
}

/// One VLAN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vlan {
    /// Identifier.
    pub id: VlanId,
    /// Type.
    pub kind: VlanKind,
    /// Owning site for local/routed VLANs (None for default/global).
    pub site: Option<SiteId>,
}

/// The KaVLAN service: VLAN inventory plus node→VLAN assignment.
#[derive(Debug, Clone)]
pub struct KavlanManager {
    vlans: Vec<Vlan>,
    /// Which VLAN each node's switch port is actually in. Nodes not present
    /// are in the default VLAN.
    assignment: BTreeMap<NodeId, VlanId>,
    /// Per-port reconfiguration latency.
    port_reconf: SimDuration,
    next_id: u16,
}

impl Default for KavlanManager {
    fn default() -> Self {
        Self::new()
    }
}

impl KavlanManager {
    /// A manager with only the default VLAN.
    pub fn new() -> Self {
        KavlanManager {
            vlans: vec![Vlan {
                id: DEFAULT_VLAN,
                kind: VlanKind::Default,
                site: None,
            }],
            assignment: BTreeMap::new(),
            port_reconf: SimDuration::from_millis(1500),
            next_id: 1,
        }
    }

    /// All known VLANs.
    pub fn vlans(&self) -> &[Vlan] {
        &self.vlans
    }

    /// Create a VLAN of the given kind. Local/routed VLANs need a site.
    ///
    /// # Panics
    /// Panics if a local/routed VLAN is created without a site.
    pub fn create_vlan(&mut self, kind: VlanKind, site: Option<SiteId>) -> VlanId {
        if matches!(kind, VlanKind::Local | VlanKind::Routed) {
            assert!(site.is_some(), "local/routed VLANs belong to a site");
        }
        let id = VlanId(self.next_id);
        self.next_id += 1;
        self.vlans.push(Vlan { id, kind, site });
        id
    }

    /// Look up a VLAN.
    pub fn vlan(&self, id: VlanId) -> Option<&Vlan> {
        self.vlans.iter().find(|v| v.id == id)
    }

    /// The VLAN a node's port is actually in.
    pub fn vlan_of(&self, node: NodeId) -> VlanId {
        *self.assignment.get(&node).unwrap_or(&DEFAULT_VLAN)
    }

    /// Reconfigure `node`'s switch port into `vlan`.
    ///
    /// Returns the reconfiguration latency. **Silent-failure semantics**:
    /// if the node's port is stuck (the `VlanPortStuck` fault), the call
    /// still returns success — exactly like a switch that ACKs the SNMP
    /// write but does not apply it. Only a reachability probe reveals it.
    pub fn set_vlan(&mut self, tb: &Testbed, node: NodeId, vlan: VlanId) -> SimDuration {
        if !tb.node(node).condition.vlan_port_stuck {
            if vlan == DEFAULT_VLAN {
                self.assignment.remove(&node);
            } else {
                self.assignment.insert(node, vlan);
            }
        }
        self.port_reconf
    }

    /// Move a whole set of nodes; returns the total reconfiguration time
    /// (ports are reconfigured serially by the service).
    pub fn set_vlan_all(&mut self, tb: &Testbed, nodes: &[NodeId], vlan: VlanId) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &n in nodes {
            total += self.set_vlan(tb, n, vlan);
        }
        total
    }

    /// Whether traffic from `a` can reach `b` directly (no SSH gateway).
    ///
    /// Rules, derived from the paper's figure:
    /// * same VLAN → reachable (level 2);
    /// * default ↔ routed → reachable (level 3 routing);
    /// * local VLANs → unreachable from anywhere else;
    /// * global ↔ default/routed → unreachable (separate level-2 domain,
    ///   no router between them);
    pub fn can_reach(&self, a: NodeId, b: NodeId) -> bool {
        let va = self.vlan_of(a);
        let vb = self.vlan_of(b);
        if va == vb {
            return true;
        }
        let ka = self.vlan(va).map(|v| v.kind).unwrap_or(VlanKind::Default);
        let kb = self.vlan(vb).map(|v| v.kind).unwrap_or(VlanKind::Default);
        matches!(
            (ka, kb),
            (VlanKind::Default, VlanKind::Routed)
                | (VlanKind::Routed, VlanKind::Default)
                | (VlanKind::Routed, VlanKind::Routed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};

    fn setup() -> (Testbed, KavlanManager, Vec<NodeId>) {
        let tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        (tb, KavlanManager::new(), nodes)
    }

    #[test]
    fn nodes_start_in_default_vlan() {
        let (_tb, mgr, nodes) = setup();
        assert_eq!(mgr.vlan_of(nodes[0]), DEFAULT_VLAN);
        assert!(mgr.can_reach(nodes[0], nodes[1]));
    }

    #[test]
    fn local_vlan_isolates_both_directions() {
        let (tb, mut mgr, nodes) = setup();
        let site = tb.node(nodes[0]).site;
        let local = mgr.create_vlan(VlanKind::Local, Some(site));
        mgr.set_vlan(&tb, nodes[0], local);
        mgr.set_vlan(&tb, nodes[1], local);
        // Inside the island: reachable.
        assert!(mgr.can_reach(nodes[0], nodes[1]));
        // Island ↔ default: isolated both ways.
        assert!(!mgr.can_reach(nodes[0], nodes[2]));
        assert!(!mgr.can_reach(nodes[2], nodes[0]));
    }

    #[test]
    fn routed_vlan_is_reachable_via_routing() {
        let (tb, mut mgr, nodes) = setup();
        let site = tb.node(nodes[0]).site;
        let routed = mgr.create_vlan(VlanKind::Routed, Some(site));
        mgr.set_vlan(&tb, nodes[0], routed);
        assert!(mgr.can_reach(nodes[0], nodes[1]));
        assert!(mgr.can_reach(nodes[1], nodes[0]));
    }

    #[test]
    fn global_vlan_spans_sites_but_not_default() {
        let (tb, mut mgr, _) = setup();
        let global = mgr.create_vlan(VlanKind::Global, None);
        // One node from each site.
        let east = tb.cluster_by_name("alpha").unwrap().nodes[0];
        let west = tb.cluster_by_name("gamma").unwrap().nodes[0];
        mgr.set_vlan(&tb, east, global);
        mgr.set_vlan(&tb, west, global);
        assert!(mgr.can_reach(east, west), "global VLAN is one L2 domain");
        let other = tb.cluster_by_name("beta").unwrap().nodes[0];
        assert!(!mgr.can_reach(east, other), "global is isolated from default");
    }

    #[test]
    fn returning_to_default_restores_reachability() {
        let (tb, mut mgr, nodes) = setup();
        let site = tb.node(nodes[0]).site;
        let local = mgr.create_vlan(VlanKind::Local, Some(site));
        mgr.set_vlan(&tb, nodes[0], local);
        assert!(!mgr.can_reach(nodes[0], nodes[1]));
        mgr.set_vlan(&tb, nodes[0], DEFAULT_VLAN);
        assert!(mgr.can_reach(nodes[0], nodes[1]));
    }

    #[test]
    fn stuck_port_fails_silently() {
        let (mut tb, mut mgr, nodes) = setup();
        tb.apply_fault(
            FaultKind::VlanPortStuck,
            FaultTarget::Node(nodes[0]),
            SimTime::ZERO,
        )
        .unwrap();
        let site = tb.node(nodes[0]).site;
        let local = mgr.create_vlan(VlanKind::Local, Some(site));
        // The call "succeeds" (latency returned, no error)...
        let latency = mgr.set_vlan(&tb, nodes[0], local);
        assert!(!latency.is_zero());
        // ...but the port never moved: the node is still reachable from
        // the default VLAN. This is the bug signature the test family sees.
        assert_eq!(mgr.vlan_of(nodes[0]), DEFAULT_VLAN);
        assert!(mgr.can_reach(nodes[0], nodes[1]));
    }

    #[test]
    fn reconfiguration_latency_accumulates() {
        let (tb, mut mgr, nodes) = setup();
        let site = tb.node(nodes[0]).site;
        let local = mgr.create_vlan(VlanKind::Local, Some(site));
        let total = mgr.set_vlan_all(&tb, &nodes, local);
        assert_eq!(total, SimDuration::from_millis(1500) * nodes.len() as u64);
        // "Almost no overhead": a full 4-node cluster moves in seconds.
        assert!(total < SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "belong to a site")]
    fn local_vlan_requires_site() {
        let mut mgr = KavlanManager::new();
        mgr.create_vlan(VlanKind::Local, None);
    }
}
