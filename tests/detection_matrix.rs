//! End-to-end detection matrix: for every injectable fault class, the test
//! family that owns it must produce a diagnostic whose signature the
//! bug→fault matcher resolves back to the injected fault.
//!
//! This is the core soundness property of the reproduction: the paper's
//! bug catalogue (slide 22) is detectable by the coverage of slide 21 —
//! and mostly *not* by per-node checks alone (slide 13).
//! `throughout::suite::coverage_for` encodes the whole matrix as an
//! exhaustive match (shared with the swarm's detection-soundness oracle
//! and `examples/ablation_coverage.rs`), so adding a `FaultKind` variant
//! without declaring its detecting family is a compile error;
//! `every_fault_kind_detected_across_seeds` runs the complete matrix over
//! eight seeds, and `node_checks_alone_see_nine_of_twenty_three` pins the
//! ablation.

use throughout::suite::testutil::Harness;
use throughout::suite::{coverage_for, detection_failure, Coverage, Family, Target};
use throughout::testbed::FaultKind;

/// Inject `kind` on alpha-1 (or the alpha service), run `family`, and
/// require a diagnostic that maps back to the injected fault. Families with
/// probabilistic detection retry up to `max_runs`. The inject → run →
/// attribute loop is `ttt_suite`'s, shared with the swarm's
/// detection-soundness oracle.
fn assert_detected(kind: FaultKind, family: Family, target: Target, max_runs: usize) {
    let row = Coverage {
        kind,
        family,
        target,
        max_runs,
        cluster: "alpha",
    };
    assert_detected_seeded(&row, kind as u64 + 1)
}

fn assert_detected_seeded(row: &Coverage, seed: u64) {
    if let Some(detail) = detection_failure(row, seed, "detection-matrix") {
        panic!("{detail}");
    }
}

fn cluster() -> Target {
    Target::Cluster("alpha".into())
}

fn site() -> Target {
    Target::Site("east".into())
}

// The named per-kind tests below are not redundant with the exhaustive
// matrix: they pin *tighter* retry budgets at their original seeds (e.g.
// turbo within 3 runs, random reboots within 200) than the seed-robust
// budgets `coverage_for` grants the swarm, so a regression in detection
// probability fails here before it erodes the swarm's generous bounds.

/// The full matrix, exhaustively: every fault kind, eight seeds each. The
/// coverage table (`coverage_for`) is the same exhaustive match the swarm's
/// detection-soundness oracle uses, so the matrix and the swarm always
/// assert one coverage claim.
#[test]
fn every_fault_kind_detected_across_seeds() {
    for kind in FaultKind::ALL {
        let row = coverage_for(kind);
        for seed in 1..=8u64 {
            assert_detected_seeded(&row, seed * 1000 + kind as u64);
        }
    }
}

/// The ablation the paper argues from: inject each class on its canonical
/// target and sweep g5k-checks over the cluster. Per-node conformity
/// checks see configuration drift and dead hardware — nine classes — and
/// none of the fourteen behavioural ones the matrix above covers.
#[test]
fn node_checks_alone_see_nine_of_twenty_three() {
    let seen: Vec<&str> = FaultKind::ALL
        .into_iter()
        .filter(|&kind| {
            let row = coverage_for(kind);
            let mut h = Harness::new(kind as u64);
            h.inject(&row).unwrap_or_else(|detail| panic!("{detail}"));
            h.node_checks_flag(row.cluster)
        })
        .map(FaultKind::name)
        .collect();
    assert_eq!(
        seen,
        [
            "disk-write-cache",
            "disk-firmware",
            "cpu-cstates",
            "cpu-ht",
            "cpu-turbo",
            "bios-version",
            "dimm-failure",
            "nic-downgrade",
            "node-dead"
        ]
    );
}

#[test]
fn disk_write_cache_detected_by_disk_family() {
    assert_detected(FaultKind::DiskWriteCacheDrift, Family::Disk, cluster(), 1);
}

#[test]
fn disk_write_cache_also_detected_by_refapi_sweep() {
    assert_detected(FaultKind::DiskWriteCacheDrift, Family::Refapi, cluster(), 1);
}

#[test]
fn disk_firmware_detected_by_disk_family() {
    assert_detected(FaultKind::DiskFirmwareDrift, Family::Disk, cluster(), 1);
}

#[test]
fn cstates_detected_by_refapi() {
    assert_detected(FaultKind::CpuCStatesDrift, Family::Refapi, cluster(), 1);
}

#[test]
fn hyperthreading_detected_by_refapi() {
    assert_detected(FaultKind::HyperthreadingDrift, Family::Refapi, cluster(), 1);
}

#[test]
fn turbo_detected_by_stdenv_bootcheck() {
    assert_detected(FaultKind::TurboDrift, Family::StdEnv, cluster(), 3);
}

#[test]
fn bios_version_detected_by_dellbios() {
    assert_detected(FaultKind::BiosVersionDrift, Family::DellBios, cluster(), 1);
}

#[test]
fn dimm_failure_detected_by_oarproperties() {
    assert_detected(FaultKind::DimmFailure, Family::OarProperties, cluster(), 1);
}

#[test]
fn nic_downgrade_detected_by_oarproperties() {
    // alpha is an old 1G cluster where a downgrade cannot apply; beta is
    // the 10G cluster.
    let row = Coverage {
        kind: FaultKind::NicDowngrade,
        family: Family::OarProperties,
        target: Target::Cluster("beta".into()),
        max_runs: 1,
        cluster: "beta",
    };
    assert_detected_seeded(&row, FaultKind::NicDowngrade as u64 + 1);
}

#[test]
fn cabling_swap_detected_by_kwapi() {
    assert_detected(FaultKind::CablingSwap, Family::Kwapi, site(), 1);
}

#[test]
fn kernel_boot_race_detected_by_multireboot() {
    assert_detected(FaultKind::KernelBootRace, Family::MultiReboot, cluster(), 3);
}

#[test]
fn random_reboots_detected_by_multireboot_eventually() {
    // MTBF 2 h against five ~2 min boots plus a 10 min observation window:
    // ~10 % detection per run.
    assert_detected(FaultKind::RandomReboots, Family::MultiReboot, cluster(), 200);
}

#[test]
fn ofed_flakiness_detected_by_mpigraph() {
    assert_detected(FaultKind::OfedFlaky, Family::MpiGraph, cluster(), 20);
}

#[test]
fn console_death_detected_by_console_family() {
    assert_detected(FaultKind::ConsoleDead, Family::Console, cluster(), 1);
}

#[test]
fn vlan_stuck_port_detected_by_kavlan() {
    assert_detected(FaultKind::VlanPortStuck, Family::Kavlan, site(), 1);
}

#[test]
fn flaky_service_detected_by_cmdline() {
    assert_detected(FaultKind::ServiceFlaky, Family::Cmdline, site(), 30);
}

#[test]
fn dead_service_detected_by_cmdline() {
    assert_detected(FaultKind::ServiceDown, Family::Cmdline, site(), 1);
}

#[test]
fn dead_node_detected_by_oarstate() {
    assert_detected(FaultKind::NodeDead, Family::OarState, site(), 1);
}

#[test]
fn site_power_outage_detected_by_oarstate() {
    assert_detected(FaultKind::SitePowerOutage, Family::OarState, site(), 1);
}

#[test]
fn site_link_partition_detected_by_global_kavlan() {
    assert_detected(
        FaultKind::SiteLinkPartition,
        Family::Kavlan,
        Target::Global,
        1,
    );
}

#[test]
fn clock_skew_detected_by_cmdline() {
    assert_detected(FaultKind::ClockSkew, Family::Cmdline, site(), 1);
}

// The service-process kinds. A crashed or restarting process refuses
// every connection, so the cmdline probes see an all-`Refused` batch and
// the detection is deterministic — one run suffices. Degraded RPC drops
// calls probabilistically (loss 0.25 per call), so it gets a retry
// budget like the other stochastic kinds.

#[test]
fn crashed_service_process_detected_by_cmdline() {
    assert_detected(FaultKind::ServiceCrash, Family::Cmdline, site(), 1);
}

#[test]
fn restarting_service_process_detected_by_cmdline() {
    assert_detected(FaultKind::ServiceRestart, Family::Cmdline, site(), 1);
}

#[test]
fn degraded_rpc_link_detected_by_cmdline() {
    assert_detected(FaultKind::RpcDegraded, Family::Cmdline, site(), 30);
}
