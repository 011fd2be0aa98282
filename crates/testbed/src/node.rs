//! A node: actual hardware plus runtime condition.

use crate::hardware::NodeHardware;
use crate::ids::{ClusterId, NodeId, SiteId};

/// Runtime condition of a node — everything that is *not* static hardware
/// description but affects how the node behaves under test. Faults mutate
/// this (and [`NodeHardware`]); repairs reset it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCondition {
    /// Whether the node responds at all (false = dead hardware).
    pub alive: bool,
    /// Extra boot delay in seconds (kernel race condition bug, slide 22).
    pub boot_delay_s: f64,
    /// If set, mean time between spontaneous reboots, in hours
    /// (the decommissioned-cluster bug, slide 22).
    pub random_reboot_mtbf_h: Option<f64>,
    /// Whether the OFED/Infiniband stack randomly fails to start apps
    /// (slide 22's OFED bug).
    pub ofed_flaky: bool,
    /// Whether the serial console is unreachable.
    pub console_dead: bool,
    /// Number of DIMMs that have failed and are masked out by the BIOS.
    pub failed_dimms: u8,
    /// Whether the switch port refuses VLAN reconfiguration.
    pub vlan_port_stuck: bool,
    /// Name of the environment currently deployed, if any.
    pub deployed_env: Option<String>,
    /// Lifetime count of boots (for diagnostics).
    pub boots: u64,
    /// Lifetime count of deployments (for diagnostics).
    pub deployments: u64,
}

impl Default for NodeCondition {
    fn default() -> Self {
        NodeCondition {
            alive: true,
            boot_delay_s: 0.0,
            random_reboot_mtbf_h: None,
            ofed_flaky: false,
            console_dead: false,
            failed_dimms: 0,
            vlan_port_stuck: false,
            deployed_env: None,
            boots: 0,
            deployments: 0,
        }
    }
}

impl NodeCondition {
    /// Whether the node is in nominal condition (no active degradation).
    pub fn is_nominal(&self) -> bool {
        self.alive
            && self.boot_delay_s == 0.0
            && self.random_reboot_mtbf_h.is_none()
            && !self.ofed_flaky
            && !self.console_dead
            && self.failed_dimms == 0
            && !self.vlan_port_stuck
    }
}

/// One compute node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Dense identifier.
    pub id: NodeId,
    /// Host name, e.g. `"graphene-12"`.
    pub name: String,
    /// Owning cluster.
    pub cluster: ClusterId,
    /// Owning site.
    pub site: SiteId,
    /// Actual hardware state (faults mutate this).
    pub hardware: NodeHardware,
    /// Runtime condition.
    pub condition: NodeCondition,
}

impl Node {
    /// Usable memory in GiB after masking failed DIMMs.
    pub fn effective_memory_gb(&self) -> u32 {
        let failed = self.condition.failed_dimms as usize;
        self.hardware
            .mem
            .dimms
            .iter()
            .skip(failed)
            .map(|d| d.size_gb)
            .sum()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::hardware::*;
    use std::collections::BTreeMap;

    fn node() -> Node {
        Node {
            id: NodeId(0),
            name: "test-1".into(),
            cluster: ClusterId(0),
            site: SiteId(0),
            hardware: NodeHardware {
                cpu: CpuSpec {
                    model: "X".into(),
                    microarch: "Y".into(),
                    sockets: 2,
                    cores_per_socket: 4,
                    threads_per_core: 1,
                    base_freq_mhz: 2000,
                    turbo_enabled: false,
                    ht_enabled: false,
                    cstates_enabled: false,
                    pstate_driver: PstateDriver::AcpiCpufreq,
                },
                mem: MemSpec::uniform(4, 8, 1600),
                disks: vec![],
                nics: vec![],
                bios: BiosSpec {
                    vendor: Vendor::Hp,
                    version: "1.0".into(),
                    settings: BTreeMap::new(),
                },
                ib: None,
                gpu: None,
            },
            condition: NodeCondition::default(),
        }
    }

    #[test]
    fn default_condition_is_nominal() {
        assert!(NodeCondition::default().is_nominal());
    }

    #[test]
    fn degradations_break_nominal() {
        let mut c = NodeCondition::default();
        c.ofed_flaky = true;
        assert!(!c.is_nominal());
        let mut c = NodeCondition::default();
        c.boot_delay_s = 45.0;
        assert!(!c.is_nominal());
        let mut c = NodeCondition::default();
        c.alive = false;
        assert!(!c.is_nominal());
    }

    #[test]
    fn deployed_env_does_not_affect_nominal() {
        let mut c = NodeCondition::default();
        c.deployed_env = Some("debian9-min".into());
        c.boots = 12;
        assert!(c.is_nominal());
    }

    #[test]
    fn failed_dimms_shrink_memory() {
        let mut n = node();
        assert_eq!(n.effective_memory_gb(), 32);
        n.condition.failed_dimms = 1;
        assert_eq!(n.effective_memory_gb(), 24);
        n.condition.failed_dimms = 4;
        assert_eq!(n.effective_memory_gb(), 0);
        n.condition.failed_dimms = 9; // more than installed: saturates
        assert_eq!(n.effective_memory_gb(), 0);
    }
}
