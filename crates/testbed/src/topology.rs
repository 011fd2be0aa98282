//! Network and power-monitoring topology.
//!
//! Two pieces matter for the paper's bug catalogue:
//!
//! * each node's NIC is cabled to a switch port — KaVLAN reconfigures port
//!   VLAN membership at this level;
//! * each node's power feed goes through a PDU port carrying a wattmeter —
//!   and the *wiring table* mapping wattmeters to nodes can be wrong
//!   ("Cabling issue → wrong measurements by testbed monitoring service",
//!   slide 13). The `CablingSwap` fault swaps two entries of this table,
//!   and the `kwapi` test family detects it by correlating induced load
//!   with measured power.

use crate::ids::{NodeId, PduId, SiteId, SwitchId};
use std::collections::BTreeMap;

/// A switch port location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Owning switch.
    pub switch: SwitchId,
    /// Port number on the switch.
    pub port: u16,
}

/// A network switch.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Dense identifier.
    pub id: SwitchId,
    /// Owning site.
    pub site: SiteId,
    /// Human name, e.g. `"gw-nancy-1"`.
    pub name: String,
    /// Number of ports.
    pub ports: u16,
}

/// A PDU (power strip with per-port wattmeters).
#[derive(Debug, Clone)]
pub struct Pdu {
    /// Dense identifier.
    pub id: PduId,
    /// Owning site.
    pub site: SiteId,
    /// Number of metered outlets.
    pub ports: u16,
}

/// A backbone link between two sites (the RENATER-style dark fibre of the
/// real testbed). Links are stored with `a < b`; the generator creates a
/// full mesh, and the `SiteLinkPartition` fault takes one down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteLink {
    /// Lower site endpoint.
    pub a: SiteId,
    /// Higher site endpoint.
    pub b: SiteId,
    /// Whether traffic currently flows.
    pub up: bool,
}

/// The full cabling state of the testbed.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// All switches.
    pub switches: Vec<Switch>,
    /// All PDUs.
    pub pdus: Vec<Pdu>,
    /// Where each node's primary NIC is cabled.
    pub uplink: BTreeMap<NodeId, PortRef>,
    /// Power-monitoring wiring: `wattmeter_of[n]` is the node whose power
    /// the wattmeter *labelled* `n` actually measures. Identity when the
    /// cabling is correct; a `CablingSwap` fault swaps two entries.
    pub wattmeter_of: BTreeMap<NodeId, NodeId>,
    /// Inter-site backbone links (full mesh, endpoints ordered `a < b`).
    pub site_links: Vec<SiteLink>,
}

impl Topology {
    /// Register the full mesh of backbone links for `n_sites` sites, all up.
    pub fn mesh_sites(&mut self, n_sites: usize) {
        self.site_links.clear();
        for a in 0..n_sites {
            for b in (a + 1)..n_sites {
                self.site_links.push(SiteLink {
                    a: SiteId(a as u16),
                    b: SiteId(b as u16),
                    up: true,
                });
            }
        }
    }

    fn link_position(&self, a: SiteId, b: SiteId) -> Option<usize> {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.site_links.iter().position(|l| l.a == lo && l.b == hi)
    }

    /// Whether traffic can flow between two sites. Intra-site traffic and
    /// unknown pairs (single-site testbeds) are always connected.
    pub fn sites_connected(&self, a: SiteId, b: SiteId) -> bool {
        if a == b {
            return true;
        }
        self.link_position(a, b)
            .map(|i| self.site_links[i].up)
            .unwrap_or(true)
    }

    /// Set one backbone link up or down. Returns false when the pair has no
    /// link (same site, or a site the mesh never covered).
    pub fn set_site_link(&mut self, a: SiteId, b: SiteId, up: bool) -> bool {
        match self.link_position(a, b) {
            Some(i) => {
                self.site_links[i].up = up;
                true
            }
            None => false,
        }
    }

    /// Count of currently partitioned site pairs.
    pub fn partitioned_pairs(&self) -> usize {
        self.site_links.iter().filter(|l| !l.up).count()
    }

    /// Register a node on a switch port and wire its wattmeter correctly.
    pub fn attach_node(&mut self, node: NodeId, port: PortRef) {
        self.uplink.insert(node, port);
        self.wattmeter_of.insert(node, node);
    }

    /// The node actually measured by the wattmeter labelled `label`.
    pub fn measured_node(&self, label: NodeId) -> NodeId {
        *self.wattmeter_of.get(&label).unwrap_or(&label)
    }

    /// Swap the power wiring of two nodes (the cabling-mistake fault).
    pub fn swap_wattmeters(&mut self, a: NodeId, b: NodeId) {
        let ma = self.measured_node(a);
        let mb = self.measured_node(b);
        self.wattmeter_of.insert(a, mb);
        self.wattmeter_of.insert(b, ma);
    }

    /// Whether the monitoring wiring is the identity for `label`.
    pub fn wiring_correct(&self, label: NodeId) -> bool {
        self.measured_node(label) == label
    }

    /// Count of mis-wired wattmeters.
    pub fn miswired_count(&self) -> usize {
        self.wattmeter_of.iter().filter(|(k, v)| k != v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(sw: u16, p: u16) -> PortRef {
        PortRef {
            switch: SwitchId(sw),
            port: p,
        }
    }

    #[test]
    fn attach_wires_identity() {
        let mut t = Topology::default();
        t.attach_node(NodeId(1), port(0, 1));
        t.attach_node(NodeId(2), port(0, 2));
        assert_eq!(t.measured_node(NodeId(1)), NodeId(1));
        assert!(t.wiring_correct(NodeId(2)));
        assert_eq!(t.miswired_count(), 0);
    }

    #[test]
    fn swap_miswires_both() {
        let mut t = Topology::default();
        t.attach_node(NodeId(1), port(0, 1));
        t.attach_node(NodeId(2), port(0, 2));
        t.swap_wattmeters(NodeId(1), NodeId(2));
        assert_eq!(t.measured_node(NodeId(1)), NodeId(2));
        assert_eq!(t.measured_node(NodeId(2)), NodeId(1));
        assert_eq!(t.miswired_count(), 2);
        // Swapping back repairs it.
        t.swap_wattmeters(NodeId(1), NodeId(2));
        assert_eq!(t.miswired_count(), 0);
    }

    #[test]
    fn double_swap_chains() {
        let mut t = Topology::default();
        for i in 1..=3 {
            t.attach_node(NodeId(i), port(0, i as u16));
        }
        t.swap_wattmeters(NodeId(1), NodeId(2));
        t.swap_wattmeters(NodeId(2), NodeId(3));
        // 1→2 was swapped, then 2 (now measuring 1) swapped with 3.
        assert_eq!(t.measured_node(NodeId(1)), NodeId(2));
        assert_eq!(t.measured_node(NodeId(2)), NodeId(3));
        assert_eq!(t.measured_node(NodeId(3)), NodeId(1));
        assert_eq!(t.miswired_count(), 3);
    }

    #[test]
    fn unknown_label_measures_itself() {
        let t = Topology::default();
        assert_eq!(t.measured_node(NodeId(99)), NodeId(99));
    }

    #[test]
    fn site_mesh_connects_every_pair() {
        let mut t = Topology::default();
        t.mesh_sites(3);
        assert_eq!(t.site_links.len(), 3);
        for a in 0..3u16 {
            for b in 0..3u16 {
                assert!(t.sites_connected(SiteId(a), SiteId(b)));
            }
        }
        assert_eq!(t.partitioned_pairs(), 0);
    }

    #[test]
    fn link_partition_and_repair_in_either_order() {
        let mut t = Topology::default();
        t.mesh_sites(3);
        // Endpoint order must not matter.
        assert!(t.set_site_link(SiteId(2), SiteId(0), false));
        assert!(!t.sites_connected(SiteId(0), SiteId(2)));
        assert!(!t.sites_connected(SiteId(2), SiteId(0)));
        // Unrelated pairs stay connected; intra-site always does.
        assert!(t.sites_connected(SiteId(0), SiteId(1)));
        assert!(t.sites_connected(SiteId(2), SiteId(2)));
        assert_eq!(t.partitioned_pairs(), 1);
        assert!(t.set_site_link(SiteId(0), SiteId(2), true));
        assert_eq!(t.partitioned_pairs(), 0);
    }

    #[test]
    fn unknown_pairs_count_as_connected() {
        let mut t = Topology::default();
        t.mesh_sites(1);
        assert!(t.site_links.is_empty());
        assert!(t.sites_connected(SiteId(0), SiteId(5)));
        assert!(!t.set_site_link(SiteId(0), SiteId(5), false));
    }
}
