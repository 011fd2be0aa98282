//! Performance model of the simulated hardware.
//!
//! The paper's central warning is that *subtle performance deviations*
//! (slide 13: "5% decrease in performance → wrong results → wrong
//! conclusions") arise from configuration drift. This module maps the
//! hardware description onto synthetic-but-plausible performance figures so
//! that drifted nodes measurably differ from nominal ones, in the right
//! direction and by roughly the right magnitude:
//!
//! * disabled disk write cache halves sequential write bandwidth;
//! * a known-bad disk firmware costs ~18 %;
//! * enabled deep C-states cost ~3 % on latency-sensitive compute;
//! * turbo boost adds ~8 %;
//! * disabled hyperthreading removes the SMT throughput bonus (~15 %).

use crate::hardware::{CpuSpec, DiskKind, DiskSpec, IbSpec, NicSpec};
use crate::node::Node;

/// Sequential-write bandwidth factor for a known-bad firmware revision.
///
/// The generator hands out "good" firmware on reference hardware; the
/// `DiskFirmwareDrift` fault downgrades to one of these revisions.
pub fn firmware_perf_factor(firmware: &str) -> f64 {
    match firmware {
        // Known-bad revisions (the paper's "different disk performance due
        // to different disk firmware versions" bug).
        "GA63" => 0.82,
        "3B07" => 0.85,
        "D1S4" => 0.78,
        _ => 1.0,
    }
}

/// Nominal sequential-write bandwidth of a disk, MB/s.
pub fn disk_seq_write_mbps(disk: &DiskSpec) -> f64 {
    let base = match disk.kind {
        DiskKind::Hdd => 140.0,
        DiskKind::Ssd => 460.0,
    };
    let cache = if disk.write_cache { 1.0 } else { 0.45 };
    base * cache * firmware_perf_factor(&disk.firmware)
}

/// Relative compute throughput of a CPU configuration (arbitrary units:
/// cores × GHz × setting factors). Comparing two nodes' values yields the
/// performance ratio an experimenter would observe.
pub fn cpu_throughput(cpu: &CpuSpec) -> f64 {
    let ghz = cpu.base_freq_mhz as f64 / 1000.0;
    let turbo = if cpu.turbo_enabled { 1.08 } else { 1.0 };
    let cstates = if cpu.cstates_enabled { 0.97 } else { 1.0 };
    let smt = if cpu.ht_enabled { 1.15 } else { 1.0 };
    cpu.total_cores() as f64 * ghz * turbo * cstates * smt
}

/// Electrical power draw of a node in watts at a given load in `[0, 1]`.
///
/// Used by the monitoring model: induced load must show up on the node's
/// wattmeter (unless the wiring is wrong).
pub fn power_draw_w(node: &Node, load: f64) -> f64 {
    let load = load.clamp(0.0, 1.0);
    let cores = node.hardware.cores() as f64;
    let mut idle = 55.0 + 2.2 * cores;
    if !node.hardware.cpu.cstates_enabled {
        // Without deep sleep states the idle floor is noticeably higher.
        idle += 18.0;
    }
    let dynamic = (4.8 + if node.hardware.cpu.turbo_enabled { 0.9 } else { 0.0 }) * cores * load;
    if node.condition.alive {
        idle + dynamic
    } else {
        0.0
    }
}

/// Effective Ethernet bandwidth of a NIC, Gbps.
pub fn net_bw_gbps(nic: &NicSpec) -> f64 {
    nic.rate_gbps as f64 * 0.94 // protocol overhead
}

/// Effective Infiniband bandwidth, Gbps.
pub fn ib_bw_gbps(ib: &IbSpec) -> f64 {
    ib.rate_gbps as f64 * 0.88
}

/// Nominal boot duration in seconds, before noise and fault-induced delays.
pub const BASE_BOOT_SECS: f64 = 110.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::*;
    use crate::ids::*;
    use crate::node::{Node, NodeCondition};
    use std::collections::BTreeMap;

    fn disk(kind: DiskKind, write_cache: bool, firmware: &str) -> DiskSpec {
        DiskSpec {
            device: "sda".into(),
            vendor: "Seagate".into(),
            model: "ST1000".into(),
            firmware: firmware.into(),
            size_gb: 1000,
            kind,
            write_cache,
            read_cache: true,
            interface: DiskInterface::Sata,
        }
    }

    #[test]
    fn write_cache_halves_bandwidth() {
        let on = disk_seq_write_mbps(&disk(DiskKind::Hdd, true, "GA67"));
        let off = disk_seq_write_mbps(&disk(DiskKind::Hdd, false, "GA67"));
        assert!((off / on - 0.45).abs() < 1e-9);
    }

    #[test]
    fn bad_firmware_costs_bandwidth() {
        let good = disk_seq_write_mbps(&disk(DiskKind::Hdd, true, "GA67"));
        let bad = disk_seq_write_mbps(&disk(DiskKind::Hdd, true, "GA63"));
        assert!((bad / good - 0.82).abs() < 1e-9);
    }

    #[test]
    fn ssd_faster_than_hdd() {
        assert!(
            disk_seq_write_mbps(&disk(DiskKind::Ssd, true, "X"))
                > disk_seq_write_mbps(&disk(DiskKind::Hdd, true, "X"))
        );
    }

    fn cpu() -> CpuSpec {
        CpuSpec {
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
        }
    }

    #[test]
    fn cstates_cost_three_percent() {
        let nominal = cpu_throughput(&cpu());
        let mut drifted = cpu();
        drifted.cstates_enabled = true;
        let ratio = cpu_throughput(&drifted) / nominal;
        assert!((ratio - 0.97).abs() < 1e-9);
    }

    #[test]
    fn turbo_adds_eight_percent() {
        let mut t = cpu();
        t.turbo_enabled = true;
        assert!((cpu_throughput(&t) / cpu_throughput(&cpu()) - 1.08).abs() < 1e-9);
    }

    fn node() -> Node {
        Node {
            id: NodeId(0),
            name: "n-1".into(),
            cluster: ClusterId(0),
            site: SiteId(0),
            hardware: NodeHardware {
                cpu: cpu(),
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
            },
            condition: NodeCondition::default(),
        }
    }

    #[test]
    fn power_rises_with_load() {
        let n = node();
        let idle = power_draw_w(&n, 0.0);
        let full = power_draw_w(&n, 1.0);
        assert!(idle > 0.0);
        assert!(full > idle + 50.0);
        // Load clamps.
        assert_eq!(power_draw_w(&n, 2.0), full);
    }

    #[test]
    fn cstates_lower_idle_power() {
        let hi = node(); // cstates disabled in fixture
        let mut lo = node();
        lo.hardware.cpu.cstates_enabled = true;
        assert!(power_draw_w(&lo, 0.0) < power_draw_w(&hi, 0.0));
    }

    #[test]
    fn dead_node_draws_nothing() {
        let mut n = node();
        n.condition.alive = false;
        assert_eq!(power_draw_w(&n, 0.5), 0.0);
    }

    #[test]
    fn network_rates() {
        let nic = NicSpec {
            name: "eth0".into(),
            model: "X".into(),
            driver: "ixgbe".into(),
            firmware: "1".into(),
            rate_gbps: 10,
            mounted: true,
        };
        assert!((net_bw_gbps(&nic) - 9.4).abs() < 1e-9);
        let ib = IbSpec {
            hca: "ConnectX-3".into(),
            rate_gbps: 56,
        };
        assert!(ib_bw_gbps(&ib) > 45.0);
    }
}
