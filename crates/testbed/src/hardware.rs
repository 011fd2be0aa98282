//! Hardware description of a node.
//!
//! These structures play a double role: they are the *actual* state of each
//! simulated node (which faults mutate) and, cloned at snapshot time, the
//! *described* state stored in the Reference API. The g5k-checks
//! reproduction (`ttt-nodecheck`) diffs one against the other, exactly like
//! the real tool diffs OHAI/ethtool output against the Reference API.

use std::collections::BTreeMap;
use std::fmt;

/// Node/chassis manufacturer. The `dellbios` test family (slide 21) only
/// applies to Dell clusters, whose BIOS requires manual configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Dell PowerEdge family.
    Dell,
    /// HPE ProLiant family.
    Hp,
    /// Bull/Atos Novascale family.
    Bull,
    /// IBM/Lenovo System x family.
    Ibm,
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Vendor::Dell => "Dell",
            Vendor::Hp => "HP",
            Vendor::Bull => "Bull",
            Vendor::Ibm => "IBM",
        };
        f.write_str(s)
    }
}

/// CPU frequency-scaling driver exposed by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PstateDriver {
    /// Legacy ACPI driver.
    AcpiCpufreq,
    /// Modern Intel driver.
    IntelPstate,
}

/// CPU package description, including the settings the paper lists as real
/// bug sources (power management / hyperthreading / turbo boost, slide 13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSpec {
    /// Marketing model name, e.g. `"Intel Xeon E5-2630 v3"`.
    pub model: String,
    /// Microarchitecture, e.g. `"Haswell"`.
    pub microarch: String,
    /// Number of populated sockets.
    pub sockets: u8,
    /// Physical cores per socket.
    pub cores_per_socket: u8,
    /// Hardware threads per core (2 when hyperthreading is on).
    pub threads_per_core: u8,
    /// Nominal frequency in MHz.
    pub base_freq_mhz: u32,
    /// Whether turbo boost is enabled in firmware.
    pub turbo_enabled: bool,
    /// Whether hyperthreading is enabled in firmware.
    pub ht_enabled: bool,
    /// Whether deep C-states are enabled (the paper's canonical subtle bug).
    pub cstates_enabled: bool,
    /// Frequency-scaling driver.
    pub pstate_driver: PstateDriver,
}

impl CpuSpec {
    /// Total physical cores across sockets.
    pub fn total_cores(&self) -> u32 {
        self.sockets as u32 * self.cores_per_socket as u32
    }

    /// Total hardware threads (cores × threads/core).
    pub fn total_threads(&self) -> u32 {
        self.total_cores() * self.threads_per_core as u32
    }
}

/// One memory module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dimm {
    /// Capacity in GiB.
    pub size_gb: u32,
    /// Transfer rate in MHz.
    pub mhz: u32,
}

/// Memory configuration: an ordered bank of DIMMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSpec {
    /// Populated DIMMs in slot order.
    pub dimms: Vec<Dimm>,
}

impl MemSpec {
    /// Create a bank of `count` identical DIMMs.
    pub fn uniform(count: u32, size_gb: u32, mhz: u32) -> Self {
        MemSpec {
            dimms: (0..count).map(|_| Dimm { size_gb, mhz }).collect(),
        }
    }

    /// Total capacity in GiB.
    pub fn total_gb(&self) -> u32 {
        self.dimms.iter().map(|d| d.size_gb).sum()
    }
}

/// Rotational vs solid-state storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// Spinning disk.
    Hdd,
    /// Flash storage.
    Ssd,
}

/// Disk host interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskInterface {
    /// SATA 3.
    Sata,
    /// Serial-attached SCSI.
    Sas,
    /// PCIe NVMe.
    Nvme,
}

/// One block device. Firmware version and cache toggles are first-class
/// because both are real bugs from the paper ("Different disk performance
/// due to different disk firmware versions", "disk cache settings").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskSpec {
    /// Kernel device name, e.g. `"sda"`.
    pub device: String,
    /// Manufacturer, e.g. `"Seagate"`.
    pub vendor: String,
    /// Model string.
    pub model: String,
    /// Firmware revision, e.g. `"GA67"`.
    pub firmware: String,
    /// Capacity in GB.
    pub size_gb: u32,
    /// Rotational or solid-state.
    pub kind: DiskKind,
    /// Whether the volatile write cache is enabled.
    pub write_cache: bool,
    /// Whether the read-ahead cache is enabled.
    pub read_cache: bool,
    /// Host interface.
    pub interface: DiskInterface,
}

/// One network interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicSpec {
    /// Kernel interface name, e.g. `"eth0"`.
    pub name: String,
    /// Controller model.
    pub model: String,
    /// Kernel driver name.
    pub driver: String,
    /// NIC firmware version.
    pub firmware: String,
    /// Negotiated link rate in Gbps (faults can downgrade it).
    pub rate_gbps: u32,
    /// Whether the interface is cabled and used by the testbed.
    pub mounted: bool,
}

/// BIOS/firmware description and settings, keyed by setting name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiosSpec {
    /// Chassis vendor.
    pub vendor: Vendor,
    /// BIOS version string, e.g. `"2.4.3"`.
    pub version: String,
    /// Named firmware settings (ordered map so iteration is stable).
    pub settings: BTreeMap<String, String>,
}

/// Infiniband host channel adapter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IbSpec {
    /// HCA model, e.g. `"Mellanox ConnectX-3"`.
    pub hca: String,
    /// Link rate in Gbps (QDR = 40, FDR = 56).
    pub rate_gbps: u32,
}

/// GPU accelerator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuSpec {
    /// GPU model.
    pub model: String,
    /// Number of devices per node.
    pub count: u8,
}

/// Full hardware description of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHardware {
    /// CPU package(s).
    pub cpu: CpuSpec,
    /// Memory bank.
    pub mem: MemSpec,
    /// Block devices in device order.
    pub disks: Vec<DiskSpec>,
    /// Network interfaces in kernel order.
    pub nics: Vec<NicSpec>,
    /// BIOS description.
    pub bios: BiosSpec,
    /// Infiniband adapter, if any.
    pub ib: Option<IbSpec>,
    /// GPUs, if any.
    pub gpu: Option<GpuSpec>,
}

impl NodeHardware {
    /// Total physical cores of the node.
    pub fn cores(&self) -> u32 {
        self.cpu.total_cores()
    }

    /// Usable memory in GiB (failed DIMMs removed by faults shrink this).
    pub fn memory_gb(&self) -> u32 {
        self.mem.total_gb()
    }

    /// The primary (first mounted) network interface, if any.
    pub fn primary_nic(&self) -> Option<&NicSpec> {
        self.nics.iter().find(|n| n.mounted)
    }

    /// The primary block device, if any.
    pub fn primary_disk(&self) -> Option<&DiskSpec> {
        self.disks.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuSpec {
        CpuSpec {
            model: "Intel Xeon E5-2630 v3".into(),
            microarch: "Haswell".into(),
            sockets: 2,
            cores_per_socket: 8,
            threads_per_core: 1,
            base_freq_mhz: 2400,
            turbo_enabled: false,
            ht_enabled: false,
            cstates_enabled: false,
            pstate_driver: PstateDriver::IntelPstate,
        }
    }

    #[test]
    fn cpu_core_math() {
        let c = cpu();
        assert_eq!(c.total_cores(), 16);
        assert_eq!(c.total_threads(), 16);
        let mut ht = c;
        ht.threads_per_core = 2;
        assert_eq!(ht.total_threads(), 32);
    }

    #[test]
    fn mem_totals() {
        let m = MemSpec::uniform(8, 16, 2133);
        assert_eq!(m.dimms.len(), 8);
        assert_eq!(m.total_gb(), 128);
        assert_eq!(MemSpec { dimms: vec![] }.total_gb(), 0);
    }

    #[test]
    fn primary_nic_skips_unmounted() {
        let hw = NodeHardware {
            cpu: cpu(),
            mem: MemSpec::uniform(4, 8, 1600),
            disks: vec![],
            nics: vec![
                NicSpec {
                    name: "eth0".into(),
                    model: "X".into(),
                    driver: "ixgbe".into(),
                    firmware: "1.0".into(),
                    rate_gbps: 10,
                    mounted: false,
                },
                NicSpec {
                    name: "eth1".into(),
                    model: "X".into(),
                    driver: "ixgbe".into(),
                    firmware: "1.0".into(),
                    rate_gbps: 10,
                    mounted: true,
                },
            ],
            bios: BiosSpec {
                vendor: Vendor::Dell,
                version: "1.0".into(),
                settings: BTreeMap::new(),
            },
            ib: None,
            gpu: None,
        };
        assert_eq!(hw.primary_nic().unwrap().name, "eth1");
        assert!(hw.primary_disk().is_none());
    }

    #[test]
    fn vendor_display() {
        assert_eq!(Vendor::Dell.to_string(), "Dell");
        assert_eq!(Vendor::Bull.to_string(), "Bull");
    }

    #[test]
    fn hardware_equality_detects_drift() {
        let a = NodeHardware {
            cpu: cpu(),
            mem: MemSpec::uniform(4, 8, 1600),
            disks: vec![],
            nics: vec![],
            bios: BiosSpec {
                vendor: Vendor::Dell,
                version: "2.4.3".into(),
                settings: BTreeMap::new(),
            },
            ib: None,
            gpu: None,
        };
        let mut b = a.clone();
        assert_eq!(a, b);
        b.cpu.cstates_enabled = true;
        assert_ne!(a, b);
    }
}
