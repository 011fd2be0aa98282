//! A cluster: a homogeneous batch of nodes and its reference hardware.

use crate::hardware::{NodeHardware, Vendor};
use crate::ids::{ClusterId, NodeId, SiteId};
use std::sync::Arc;

/// A cluster of (supposedly) identical nodes.
///
/// `reference` is the hardware every node of the cluster *should* have — the
/// ground truth the Reference API is generated from and the state repairs
/// restore. Faults make individual nodes drift away from it; the `refapi`
/// and `dellbios` test families detect that drift as loss of homogeneity.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Dense identifier.
    pub id: ClusterId,
    /// Cluster name, e.g. `"graphene"`.
    pub name: String,
    /// Owning site.
    pub site: SiteId,
    /// Chassis vendor (drives the `dellbios` family).
    pub vendor: Vendor,
    /// Member nodes, in host-number order.
    pub nodes: Vec<NodeId>,
    /// Whether nodes carry Infiniband HCAs (drives `mpigraph`).
    pub has_ib: bool,
    /// Whether the disk configuration is introspectable enough for the
    /// `disk` test family (HDD with controllable caches).
    pub disk_checkable: bool,
    /// The hardware template all member nodes should match: one value per
    /// cluster, shared by every conformant member's
    /// [`Node::hardware`](crate::Node::hardware) and by every description
    /// the Reference API generates from it.
    pub reference: Arc<NodeHardware>,
}

impl Cluster {
    /// Number of member nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cores per node according to the reference hardware.
    pub fn cores_per_node(&self) -> u32 {
        self.reference.cores()
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> u32 {
        self.cores_per_node() * self.nodes.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::*;
    use std::collections::BTreeMap;

    #[test]
    fn core_accounting() {
        let reference = NodeHardware {
            cpu: CpuSpec {
                model: "m".into(),
                microarch: "a".into(),
                sockets: 2,
                cores_per_socket: 8,
                threads_per_core: 1,
                base_freq_mhz: 2400,
                turbo_enabled: false,
                ht_enabled: false,
                cstates_enabled: false,
                pstate_driver: PstateDriver::IntelPstate,
            },
            mem: MemSpec::uniform(8, 16, 2133),
            disks: vec![],
            nics: vec![],
            bios: BiosSpec {
                vendor: Vendor::Dell,
                version: "2.0".into(),
                settings: BTreeMap::new(),
            },
            ib: None,
            gpu: None,
        };
        let c = Cluster {
            id: ClusterId(0),
            name: "grisou".into(),
            site: SiteId(0),
            vendor: Vendor::Dell,
            nodes: (0..24u32).map(NodeId).collect(),
            has_ib: false,
            disk_checkable: true,
            reference: Arc::new(reference),
        };
        assert_eq!(c.node_count(), 24);
        assert_eq!(c.cores_per_node(), 16);
        assert_eq!(c.total_cores(), 384);
    }
}
