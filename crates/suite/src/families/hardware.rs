//! Hardware-specific families: `mpigraph` (Infiniband) and `disk`.

use crate::ctx::TestCtx;
use crate::report::{Diagnostic, TestReport};
use rand::Rng;
use ttt_sim::SimDuration;
use ttt_testbed::{perf, Symptom};

/// `mpigraph`: start an all-to-all bandwidth test over Infiniband on every
/// node of the cluster. Nodes whose OFED stack is flaky fail to start the
/// application intermittently — the paper's OFED bug, complete with its
/// infamous `ps -ef | grep` init script.
pub fn mpigraph(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(15);
    let mut diagnostics = Vec::new();
    let mut participants = Vec::new();
    for &node in ctx.assigned {
        let n = ctx.tb.node(node);
        let name = &n.name;
        if !n.condition.alive {
            diagnostics.push(Diagnostic::new(
                Symptom::NodeDead.on(name),
                format!("{name} unreachable for the MPI run"),
            ));
            continue;
        }
        let Some(ib) = &n.hardware.ib else {
            diagnostics.push(Diagnostic::new(
                Symptom::NoInfiniband.on(name),
                format!("{name} has no HCA but the cluster is described as Infiniband"),
            ));
            continue;
        };
        // The OFED bug: applications over Infiniband randomly fail to start.
        if n.condition.ofed_flaky && ctx.rng.gen_bool(0.5) {
            diagnostics.push(Diagnostic::new(
                Symptom::OfedFlaky.on(name),
                format!("{name}: ibv_open_device failed; OFED stack did not start cleanly"),
            ));
            continue;
        }
        participants.push((node, perf::ib_bw_gbps(ib)));
    }
    // All-to-all bandwidth sanity: every participating pair should achieve
    // close to line rate; a straggler indicates a fabric problem.
    if participants.len() >= 2 {
        let max_bw = participants.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        for (node, bw) in &participants {
            if *bw < 0.7 * max_bw {
                let name = &ctx.tb.node(*node).name;
                diagnostics.push(Diagnostic::new(
                    Symptom::IbDegraded.on(name),
                    format!("{name}: {bw:.1} Gbps against cluster peak {max_bw:.1} Gbps"),
                ));
            }
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

/// `disk`: audit disk configuration and measured sequential-write
/// bandwidth on every node of the cluster — the family behind the paper's
/// "disk drives configuration (R/W caching)" and "different disk
/// performance due to different disk firmware versions" bugs.
pub fn disk(cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let duration = SimDuration::from_mins(10);
    let mut diagnostics = Vec::new();
    let reference = ctx
        .refapi
        .latest()
        .and_then(|d| d.cluster(cluster))
        .and_then(|c| c.nodes.first())
        .map_or(&[][..], |n| &n.hardware.disks);
    for &node in ctx.assigned {
        let n = ctx.tb.node(node);
        if !n.condition.alive {
            diagnostics.push(Diagnostic::new(
                Symptom::NodeDead.on(&n.name),
                format!("{} unreachable for the disk audit", n.name),
            ));
            continue;
        }
        for (i, d) in n.hardware.disks.iter().enumerate() {
            let Some(r) = reference.get(i) else { continue };
            if d.write_cache != r.write_cache {
                diagnostics.push(Diagnostic::new(
                    Symptom::DiskWriteCache.on(&n.name),
                    format!(
                        "{}/{}: write cache {} (reference: {})",
                        n.name,
                        d.device,
                        onoff(d.write_cache),
                        onoff(r.write_cache)
                    ),
                ));
            }
            if d.firmware != r.firmware {
                let measured = perf::disk_seq_write_mbps(d);
                let expected = perf::disk_seq_write_mbps(r);
                diagnostics.push(Diagnostic::new(
                    Symptom::DiskFirmware.on(&n.name),
                    format!(
                        "{}/{}: firmware {} vs reference {} — measured {measured:.0} MB/s \
                         against expected {expected:.0} MB/s",
                        n.name, d.device, d.firmware, r.firmware
                    ),
                ));
            }
        }
    }
    TestReport::from_diagnostics(diagnostics, duration)
}

fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Family, Target, TestConfig};
    use crate::testutil::Harness;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, Symptom};

    #[test]
    fn mpigraph_passes_on_clean_ib_cluster() {
        let mut h = Harness::new(30);
        let cfg = TestConfig {
            family: Family::MpiGraph,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(report.passed(), "{:?}", report.diagnostics);
    }

    #[test]
    fn mpigraph_detects_flaky_ofed_eventually() {
        let mut h = Harness::new(31);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::OfedFlaky, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::MpiGraph,
            target: Target::Cluster("alpha".into()),
        };
        // 50 % start-failure per run: over ten runs detection is certain
        // enough for a deterministic seed.
        let detected = (0..10).any(|_| {
            h.run(&cfg)
                .diagnostics
                .iter()
                .any(|d| d.signature == Symptom::OfedFlaky.on("alpha-1"))
        });
        assert!(detected);
    }

    #[test]
    fn disk_detects_cache_and_firmware_drift() {
        let mut h = Harness::new(32);
        let nodes = h.tb.cluster_by_name("alpha").unwrap().nodes.clone();
        h.tb.apply_fault(FaultKind::DiskWriteCacheDrift, FaultTarget::Node(nodes[0]), SimTime::ZERO)
            .unwrap();
        h.tb.apply_fault(FaultKind::DiskFirmwareDrift, FaultTarget::Node(nodes[1]), SimTime::ZERO)
            .unwrap();
        let cfg = TestConfig {
            family: Family::Disk,
            target: Target::Cluster("alpha".into()),
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        let sigs: Vec<String> = report.diagnostics.iter().map(|d| d.signature.to_string()).collect();
        assert!(sigs.iter().any(|s| s == "disk-write-cache@alpha-1"), "{sigs:?}");
        assert!(sigs.iter().any(|s| s == "disk-firmware@alpha-2"), "{sigs:?}");
        // The firmware message quantifies the performance loss operators
        // care about.
        let fw = report
            .diagnostics
            .iter()
            .find(|d| d.signature == Symptom::DiskFirmware.on("alpha-2"))
            .unwrap();
        assert!(fw.message.contains("MB/s"));
    }

    #[test]
    fn disk_passes_clean() {
        let mut h = Harness::new(33);
        let cfg = TestConfig {
            family: Family::Disk,
            target: Target::Cluster("alpha".into()),
        };
        assert!(h.run(&cfg).passed());
    }
}
