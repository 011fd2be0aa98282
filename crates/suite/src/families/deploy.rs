//! Deployment-centred families: `environments`, `stdenv`,
//! `paralleldeploy`, `multireboot`, `multideploy`.

use super::nodecheck_diagnostics;
use crate::ctx::TestCtx;
use crate::report::{Diagnostic, TestReport};
use std::collections::BTreeSet;
use rand::Rng;
use ttt_nodecheck::check_node;
use ttt_sim::process::truncated_normal;
use ttt_sim::SimDuration;
use ttt_testbed::{perf, Symptom};

/// Turn a deployment report into per-node diagnostics.
fn deploy_diagnostics(
    ctx: &TestCtx,
    report: &ttt_kadeploy::DeployReport,
    diagnostics: &mut Vec<Diagnostic>,
) {
    for (node, step, reason) in report.failures() {
        let name = &ctx.tb.node(node).name;
        diagnostics.push(Diagnostic::new(
            Symptom::DeployFailure.on(name),
            format!("{name}: {} failed at {step}: {reason}", report.env_name),
        ));
    }
}

/// `environments`: deploy one image on one node of one cluster — one cell
/// of the paper's 448-cell matrix.
pub fn environments(image: &str, _cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let Some(env) = ctx.image(image) else {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::UnknownImage.on(image),
                "image missing from the catalogue",
            )],
            SimDuration::from_mins(1),
        );
    };
    let mut diagnostics = Vec::new();
    let report = ctx.deployer.deploy(ctx.tb, env, ctx.assigned, ctx.rng);
    deploy_diagnostics(ctx, &report, &mut diagnostics);
    TestReport::from_diagnostics(diagnostics, report.makespan + SimDuration::from_mins(2))
}

/// `stdenv`: deploy the standard environment, then run g5k-checks at boot —
/// the per-node verification pass every real deployment triggers.
pub fn stdenv(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let Some(env) = ctx.image("debian9-min").or_else(|| ctx.images.first()) else {
        return TestReport::from_diagnostics(
            vec![Diagnostic::new(Symptom::NoStdenv.on(""), "no standard image available")],
            SimDuration::from_mins(1),
        );
    };
    let mut diagnostics = Vec::new();
    let report = ctx.deployer.deploy(ctx.tb, env, ctx.assigned, ctx.rng);
    deploy_diagnostics(ctx, &report, &mut diagnostics);
    // g5k-checks runs at node boot (slide 7).
    if let Some(desc) = ctx.refapi.latest() {
        for node in report.deployed() {
            let check = check_node(ctx.tb, desc, node);
            diagnostics.extend(nodecheck_diagnostics(&check));
        }
    }
    TestReport::from_diagnostics(diagnostics, report.makespan + SimDuration::from_mins(5))
}

/// `paralleldeploy`: deploy every node of the cluster at once and require
/// a high success ratio — the reliability test for Kadeploy at scale.
pub fn paralleldeploy(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let Some(env) = ctx.image("debian9-min").or_else(|| ctx.images.first()) else {
        return TestReport::from_diagnostics(vec![], SimDuration::from_mins(1));
    };
    let mut diagnostics = Vec::new();
    let report = ctx.deployer.deploy(ctx.tb, env, ctx.assigned, ctx.rng);
    deploy_diagnostics(ctx, &report, &mut diagnostics);
    TestReport::from_diagnostics(diagnostics, report.makespan + SimDuration::from_mins(5))
}

/// `multideploy`: three consecutive full-cluster deployments; nodes that
/// fail any round are reported once.
pub fn multideploy(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    let Some(env) = ctx.image("debian9-min").or_else(|| ctx.images.first()) else {
        return TestReport::from_diagnostics(vec![], SimDuration::from_mins(1));
    };
    let mut seen = BTreeSet::new();
    let mut diagnostics = Vec::new();
    let mut total = SimDuration::ZERO;
    for round in 1..=3 {
        let report = ctx.deployer.deploy(ctx.tb, env, ctx.assigned, ctx.rng);
        total += report.makespan;
        for (node, step, reason) in report.failures() {
            if seen.insert(node) {
                let name = &ctx.tb.node(node).name;
                diagnostics.push(Diagnostic::new(
                    Symptom::DeployFailure.on(name),
                    format!("{name}: round {round} failed at {step}: {reason}"),
                ));
            }
        }
    }
    TestReport::from_diagnostics(diagnostics, total + SimDuration::from_mins(5))
}

/// `multireboot`: reboot each node five times, watching boot time and boot
/// reliability — the family that caught the paper's kernel race condition
/// ("a race condition in the Linux kernel caused boot delays") and the
/// spontaneously rebooting cluster.
pub fn multireboot(_cluster: &str, ctx: &mut TestCtx) -> TestReport {
    const REBOOTS: u32 = 5;
    let mut diagnostics = Vec::new();
    let mut total_s = 0.0;
    for &node in ctx.assigned {
        let n = ctx.tb.node(node);
        let (alive, delay_s, mtbf) = (
            n.condition.alive,
            n.condition.boot_delay_s,
            n.condition.random_reboot_mtbf_h,
        );
        if !alive {
            let name = &n.name;
            diagnostics.push(Diagnostic::new(
                Symptom::NodeDead.on(name),
                format!("{name} does not come back at all"),
            ));
            continue;
        }
        // The boots that came back, as a running sum in boot order: the
        // mean is the one a list of them would give, bit for bit.
        let (mut booted_s, mut booted) = (0.0, 0u32);
        let mut failures = 0;
        for _ in 0..REBOOTS {
            let t = truncated_normal(ctx.rng, perf::BASE_BOOT_SECS, 12.0, 60.0, 400.0) + delay_s;
            // Spontaneous-reboot hazard during the boot window.
            let hazard = mtbf.map(|h| 1.0 - (-(t / 3600.0) / h).exp()).unwrap_or(0.0);
            if ctx.rng.gen_bool((0.002 + hazard).clamp(0.0, 1.0)) {
                failures += 1;
            } else {
                booted_s += t;
                booted += 1;
            }
            total_s += t;
        }
        ctx.tb.node_mut(node).condition.boots += REBOOTS as u64;
        // After the boot loop the node is watched idle for ten minutes; a
        // spontaneous reboot during the observation window is the
        // signature of the paper's decommissioned cluster.
        if let Some(mtbf_h) = mtbf {
            let p_spontaneous = 1.0 - (-(10.0 / 60.0) / mtbf_h).exp();
            if ctx.rng.gen_bool(p_spontaneous.clamp(0.0, 1.0)) {
                failures += REBOOTS; // force the boot-failure diagnostic
            }
        }
        let name = &ctx.tb.node(node).name;
        if failures >= 2 {
            diagnostics.push(Diagnostic::new(
                Symptom::BootFailure.on(name),
                format!("{name}: {failures}/{REBOOTS} reboots did not come back"),
            ));
        }
        if booted > 0 {
            let mean = booted_s / booted as f64;
            if mean > perf::BASE_BOOT_SECS + 30.0 {
                diagnostics.push(Diagnostic::new(
                    Symptom::BootDelay.on(name),
                    format!(
                        "{name}: mean boot time {mean:.0}s, expected ≈{:.0}s",
                        perf::BASE_BOOT_SECS
                    ),
                ));
            }
        }
    }
    TestReport::from_diagnostics(
        diagnostics,
        SimDuration::from_secs_f64(total_s) + SimDuration::from_mins(2),
    )
}

#[cfg(test)]
mod tests {
    use crate::config::{Family, Target, TestConfig};
    use crate::testutil::Harness;
    use ttt_sim::SimTime;
    use ttt_testbed::{FaultKind, FaultTarget, Symptom};

    fn cluster_cfg(family: Family) -> TestConfig {
        TestConfig {
            family,
            target: Target::Cluster("alpha".into()),
        }
    }

    #[test]
    fn environments_deploys_one_node() {
        let mut h = Harness::new(20);
        let cfg = TestConfig {
            family: Family::Environments,
            target: Target::ImageCluster {
                image: "debian9-base".into(),
                cluster: "alpha".into(),
            },
        };
        let report = h.run(&cfg);
        assert!(report.passed(), "{:?}", report.diagnostics);
        // The assigned node now runs the image.
        let deployed = h
            .tb
            .cluster_by_name("alpha")
            .unwrap()
            .nodes
            .iter()
            .filter(|&&n| {
                h.tb.node(n).condition.deployed_env.as_deref() == Some("debian9-base")
            })
            .count();
        assert_eq!(deployed, 1);
    }

    #[test]
    fn environments_fails_on_dead_node() {
        let mut h = Harness::new(21);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        h.assigned = vec![node];
        let cfg = TestConfig {
            family: Family::Environments,
            target: Target::ImageCluster {
                image: "debian9-base".into(),
                cluster: "alpha".into(),
            },
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature, Symptom::DeployFailure.on("alpha-1"));
    }

    #[test]
    fn stdenv_runs_nodecheck_at_boot() {
        let mut h = Harness::new(22);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::CpuCStatesDrift, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        h.assigned = vec![node];
        let report = h.run(&cluster_cfg(Family::StdEnv));
        assert!(!report.passed());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.signature == Symptom::CpuCStates.on("alpha-1")));
    }

    #[test]
    fn paralleldeploy_covers_whole_cluster() {
        let mut h = Harness::new(23);
        let report = h.run(&cluster_cfg(Family::ParallelDeploy));
        assert!(report.passed(), "{:?}", report.diagnostics);
        let all_deployed = h
            .tb
            .cluster_by_name("alpha")
            .unwrap()
            .nodes
            .iter()
            .all(|&n| h.tb.node(n).condition.deployments >= 1);
        assert!(all_deployed);
    }

    #[test]
    fn multireboot_detects_boot_delay() {
        let mut h = Harness::new(24);
        let node = h.tb.cluster_by_name("alpha").unwrap().nodes[0];
        h.tb.apply_fault(FaultKind::KernelBootRace, FaultTarget::Node(node), SimTime::ZERO)
            .unwrap();
        let report = h.run(&cluster_cfg(Family::MultiReboot));
        assert!(!report.passed());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.signature == Symptom::BootDelay.on("alpha-1")), "{:?}", report.diagnostics);
    }

    #[test]
    fn multireboot_detects_random_reboots_statistically() {
        let mut h = Harness::new(25);
        for &node in &h.tb.cluster_by_name("alpha").unwrap().nodes.clone() {
            h.tb.apply_fault(FaultKind::RandomReboots, FaultTarget::Node(node), SimTime::ZERO)
                .unwrap();
        }
        // MTBF 8h against ~2 min boots: each boot fails w.p. ≈0.4%; over
        // repeated runs of 4 nodes × 5 boots detection eventually triggers
        // (needs ≥2 failures on one node in one run, so give it many runs).
        let detected = (0..400).any(|_| {
            h.run(&cluster_cfg(Family::MultiReboot))
                .diagnostics
                .iter()
                .any(|d| d.signature.symptom == Symptom::BootFailure)
        });
        assert!(detected, "random reboots never detected");
    }

    #[test]
    fn environments_unknown_image_is_reported() {
        let mut h = Harness::new(27);
        let cfg = TestConfig {
            family: Family::Environments,
            target: Target::ImageCluster {
                image: "windows-3.11".into(),
                cluster: "alpha".into(),
            },
        };
        let report = h.run(&cfg);
        assert!(!report.passed());
        assert_eq!(report.diagnostics[0].signature.to_string(), "unknown-image@windows-3.11");
    }

    #[test]
    fn xen_image_deploys_but_takes_longer() {
        let mut h = Harness::new(28);
        let min = TestConfig {
            family: Family::Environments,
            target: Target::ImageCluster {
                image: "debian9-min".into(),
                cluster: "beta".into(),
            },
        };
        let xen = TestConfig {
            family: Family::Environments,
            target: Target::ImageCluster {
                image: "debian9-xen".into(),
                cluster: "beta".into(),
            },
        };
        let t_min = h.run(&min).duration;
        let t_xen = h.run(&xen).duration;
        assert!(t_xen > t_min, "xen boot penalty: {t_xen} vs {t_min}");
    }

    #[test]
    fn multideploy_dedups_node_failures() {
        let mut h = Harness::new(26);
        let nodes = h.tb.cluster_by_name("alpha").unwrap().nodes.clone();
        // The node dies *after* OAR assigned it to the test.
        h.assigned = nodes;
        h.tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(h.assigned[0]), SimTime::ZERO)
            .unwrap();
        let report = h.run(&cluster_cfg(Family::MultiDeploy));
        assert!(!report.passed());
        let count = report
            .diagnostics
            .iter()
            .filter(|d| d.signature == Symptom::DeployFailure.on("alpha-1"))
            .count();
        assert_eq!(count, 1, "three failing rounds, one diagnostic");
    }
}
