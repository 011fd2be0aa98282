//! The deployment workflow: three macro-steps with a timing and failure
//! model, mirroring real Kadeploy's architecture.
//!
//! 1. **SetDeploymentEnv** — reboot nodes into the in-memory deployment
//!    environment;
//! 2. **BroadcastEnv** — send and write the image with a chain pipeline
//!    (makespan ≈ `size/bw + (n-1)·handoff`, bandwidth bound by the slower
//!    of network and disk write path — so a disabled disk write cache
//!    measurably slows deployments, as the paper's `disk` bug did);
//! 3. **BootNewEnv** — reboot into the freshly written system.
//!
//! Per-node failures (dead nodes, kernel boot races, spontaneous reboots,
//! plain bad luck) are retried up to a configurable number of rounds; nodes
//! still failing are reported per-step, which is what the `paralleldeploy`
//! and `multideploy` test families assert on.

use crate::env::{EnvKind, Environment};
use rand::Rng;
use ttt_sim::process::truncated_normal;
use ttt_sim::SimDuration;
use ttt_testbed::{perf, NodeId, Testbed};

/// The three macro-steps of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroStep {
    /// Reboot into the deployment environment.
    SetDeploymentEnv,
    /// Broadcast and write the image.
    BroadcastEnv,
    /// Reboot into the new environment.
    BootNewEnv,
}

impl std::fmt::Display for MacroStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MacroStep::SetDeploymentEnv => "SetDeploymentEnv",
            MacroStep::BroadcastEnv => "BroadcastEnv",
            MacroStep::BootNewEnv => "BootNewEnv",
        };
        f.write_str(s)
    }
}

/// Outcome for one node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeOutcome {
    /// Deployment succeeded after the given per-node time.
    Deployed {
        /// Per-node wall time, including retries.
        time: SimDuration,
    },
    /// Deployment failed at the given step after all retries.
    Failed {
        /// The step that failed last.
        step: MacroStep,
        /// Human-readable reason.
        reason: String,
    },
}

impl NodeOutcome {
    /// Whether the node ended up deployed.
    pub fn is_deployed(&self) -> bool {
        matches!(self, NodeOutcome::Deployed { .. })
    }
}

/// Tunables of the deployment engine.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Extra rounds for failed nodes (Kadeploy default behaviour).
    pub retries: u32,
    /// Chain-pipeline handoff per additional node, seconds.
    pub handoff_s: f64,
    /// Base per-node failure probability per macro-step.
    pub step_fail_prob: f64,
    /// Reboot duration into the deployment environment, seconds (mean).
    pub deploy_env_boot_s: f64,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            retries: 1,
            handoff_s: 0.25,
            step_fail_prob: 0.004,
            deploy_env_boot_s: 55.0,
        }
    }
}

/// Report of one deployment.
#[derive(Debug, Clone)]
pub struct DeployReport {
    /// Image that was deployed.
    pub env_name: String,
    /// Per-node outcomes, in request order.
    pub outcomes: Vec<(NodeId, NodeOutcome)>,
    /// Wall time of the whole deployment (all rounds).
    pub makespan: SimDuration,
    /// Number of rounds executed (1 = no retry needed).
    pub rounds: u32,
}

impl DeployReport {
    /// Nodes successfully deployed.
    pub fn deployed(&self) -> Vec<NodeId> {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.is_deployed())
            .map(|(n, _)| *n)
            .collect()
    }

    /// Fraction of requested nodes deployed.
    pub fn success_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.deployed().len() as f64 / self.outcomes.len() as f64
    }

    /// Outcomes that failed, with their steps.
    pub fn failures(&self) -> Vec<(NodeId, MacroStep, String)> {
        self.outcomes
            .iter()
            .filter_map(|(n, o)| match o {
                NodeOutcome::Failed { step, reason } => Some((*n, *step, reason.clone())),
                NodeOutcome::Deployed { .. } => None,
            })
            .collect()
    }
}

/// The deployment engine.
#[derive(Debug, Clone, Default)]
pub struct Deployer {
    config: DeployConfig,
}

impl Deployer {
    /// Create a deployer with the given configuration.
    pub fn new(config: DeployConfig) -> Self {
        Deployer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeployConfig {
        &self.config
    }

    /// Deploy `env` to `nodes`, mutating the testbed (deployed environment
    /// recorded on each success, boot/deployment counters updated).
    ///
    /// If the site's Kadeploy server process is down, the workflow fails
    /// *cleanly*: every node reports `kadeploy server unreachable`, no
    /// testbed state changes and no RNG is drawn — the caller can simply
    /// resubmit once the process is back (never a wedged half-deployment).
    pub fn deploy<R: Rng>(
        &self,
        tb: &mut Testbed,
        env: &Environment,
        nodes: &[NodeId],
        rng: &mut R,
    ) -> DeployReport {
        if let Some(&first) = nodes.first() {
            let site = tb.node(first).site;
            if !tb.process_up(site, ttt_testbed::ServiceKind::KadeployServer) {
                return DeployReport {
                    env_name: env.name.clone(),
                    outcomes: nodes
                        .iter()
                        .map(|&n| {
                            (n, NodeOutcome::Failed {
                                step: MacroStep::SetDeploymentEnv,
                                reason: "kadeploy server unreachable".into(),
                            })
                        })
                        .collect(),
                    makespan: SimDuration::ZERO,
                    rounds: 0,
                };
            }
        }
        let mut pending: Vec<NodeId> = nodes.to_vec();
        let mut outcomes: Vec<(NodeId, NodeOutcome)> =
            nodes.iter().map(|&n| (n, NodeOutcome::Failed {
                step: MacroStep::SetDeploymentEnv,
                reason: "not attempted".into(),
            })).collect();
        let mut makespan = SimDuration::ZERO;
        let mut rounds = 0;

        while !pending.is_empty() && rounds <= self.config.retries {
            rounds += 1;
            let (round_time, round_outcomes) = self.run_round(tb, env, &pending, rng);
            makespan += round_time;
            let mut still_failed = Vec::new();
            for (node, outcome) in round_outcomes {
                let ok = outcome.is_deployed();
                if let Some(slot) = outcomes.iter_mut().find(|(n, _)| *n == node) {
                    slot.1 = outcome;
                }
                if !ok {
                    still_failed.push(node);
                }
            }
            pending = still_failed;
        }

        // Record effects on the testbed.
        for (node, outcome) in &outcomes {
            if outcome.is_deployed() {
                let n = tb.node_mut(*node);
                n.condition.deployed_env = Some(env.name.clone());
                n.condition.deployments += 1;
                n.condition.boots += 2;
            }
        }

        DeployReport {
            env_name: env.name.clone(),
            outcomes,
            makespan,
            rounds,
        }
    }

    /// One round over `nodes`: returns (round makespan, per-node outcomes).
    fn run_round<R: Rng>(
        &self,
        tb: &Testbed,
        env: &Environment,
        nodes: &[NodeId],
        rng: &mut R,
    ) -> (SimDuration, Vec<(NodeId, NodeOutcome)>) {
        let mut outcomes = Vec::with_capacity(nodes.len());
        let mut survivors = Vec::with_capacity(nodes.len());
        let mut max_step1 = 0.0f64;

        // Step 1: reboot into the deployment environment.
        for &id in nodes {
            let node = tb.node(id);
            if !node.condition.alive {
                outcomes.push((id, NodeOutcome::Failed {
                    step: MacroStep::SetDeploymentEnv,
                    reason: "node does not answer".into(),
                }));
                continue;
            }
            // Buggify: a chaos-armed campaign occasionally loses the PXE
            // handshake. Transient — the retry round rescues it. Rate 0
            // (the default) draws nothing, keeping unarmed campaigns
            // byte-identical.
            if tb.buggify().fire("kadeploy-pxe", rng) {
                outcomes.push((id, NodeOutcome::Failed {
                    step: MacroStep::SetDeploymentEnv,
                    reason: "buggify: deployment kernel lost on the wire".into(),
                }));
                continue;
            }
            let t = truncated_normal(rng, self.config.deploy_env_boot_s, 8.0, 35.0, 180.0)
                + node.condition.boot_delay_s;
            if self.boot_fails(node, t, rng) {
                outcomes.push((id, NodeOutcome::Failed {
                    step: MacroStep::SetDeploymentEnv,
                    reason: "timeout waiting for deployment kernel".into(),
                }));
                continue;
            }
            max_step1 = max_step1.max(t);
            survivors.push((id, t));
        }

        // Step 2: chain broadcast, bound by the slowest node's effective
        // write path (min of network and disk sequential write).
        let mut broadcast_s = 0.0f64;
        let mut writers = Vec::with_capacity(survivors.len());
        if !survivors.is_empty() {
            let mut min_bw = f64::INFINITY;
            for &(id, _) in &survivors {
                let node = tb.node(id);
                let net_mbps = node
                    .hardware
                    .primary_nic()
                    .map(|n| perf::net_bw_gbps(n) * 1000.0 / 8.0)
                    .unwrap_or(10.0);
                let disk_mbps = node
                    .hardware
                    .primary_disk()
                    .map(perf::disk_seq_write_mbps)
                    .unwrap_or(100.0);
                min_bw = min_bw.min(net_mbps.min(disk_mbps));
            }
            broadcast_s = env.size_mb as f64 / min_bw
                + (survivors.len() as f64 - 1.0) * self.config.handoff_s;
            for (id, t1) in survivors {
                if rng.gen_bool(self.config.step_fail_prob / 2.0) {
                    outcomes.push((id, NodeOutcome::Failed {
                        step: MacroStep::BroadcastEnv,
                        reason: "image write error".into(),
                    }));
                } else {
                    writers.push((id, t1));
                }
            }
        }

        // Step 3: reboot into the new environment.
        let mut max_step3 = 0.0f64;
        for (id, t1) in writers {
            let node = tb.node(id);
            let xen_penalty = if env.kind == EnvKind::Xen { 30.0 } else { 0.0 };
            let t3 = truncated_normal(rng, perf::BASE_BOOT_SECS + xen_penalty, 12.0, 60.0, 400.0)
                + node.condition.boot_delay_s;
            if self.boot_fails(node, t3, rng) {
                outcomes.push((id, NodeOutcome::Failed {
                    step: MacroStep::BootNewEnv,
                    reason: "timeout waiting for deployed environment".into(),
                }));
                continue;
            }
            max_step3 = max_step3.max(t3);
            outcomes.push((id, NodeOutcome::Deployed {
                time: SimDuration::from_secs_f64(t1 + broadcast_s + t3),
            }));
        }

        let round = SimDuration::from_secs_f64(max_step1 + broadcast_s + max_step3);
        (round, outcomes)
    }

    /// Whether a boot of `secs` seconds fails on this node: base failure
    /// probability plus the spontaneous-reboot hazard if present.
    fn boot_fails<R: Rng>(&self, node: &ttt_testbed::Node, secs: f64, rng: &mut R) -> bool {
        let mut p = self.config.step_fail_prob;
        if let Some(mtbf_h) = node.condition.random_reboot_mtbf_h {
            // Probability of a spontaneous reboot during the boot window.
            p += 1.0 - (-(secs / 3600.0) / mtbf_h).exp();
        }
        rng.gen_bool(p.clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::standard_images;
    use ttt_sim::rng::stream_rng;
    use ttt_testbed::{FaultKind, FaultTarget, TestbedBuilder};
    use ttt_sim::SimTime;

    fn base_env() -> Environment {
        standard_images()
            .into_iter()
            .find(|e| e.name == "debian9-base")
            .unwrap()
    }

    #[test]
    fn healthy_cluster_deploys_fully() {
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        let mut rng = stream_rng(1, "deploy");
        let report = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        assert_eq!(report.success_ratio(), 1.0);
        for &n in &nodes {
            assert_eq!(
                tb.node(n).condition.deployed_env.as_deref(),
                Some("debian9-base")
            );
            assert_eq!(tb.node(n).condition.deployments, 1);
        }
    }

    #[test]
    fn two_hundred_nodes_in_about_five_minutes() {
        // The paper's headline deployment figure (slide 8). A clean run
        // (no per-node failures, hence no retry round) lands around 5 min.
        let mut tb = TestbedBuilder::paper_scale().build();
        let graphene = tb.cluster_by_name("graphene").unwrap();
        let mut nodes = graphene.nodes.clone();
        let griffon = tb.cluster_by_name("griffon").unwrap();
        nodes.extend(griffon.nodes.iter().copied());
        nodes.truncate(200);
        let clean = Deployer::new(DeployConfig {
            step_fail_prob: 0.0,
            ..Default::default()
        });
        let mut rng = stream_rng(2, "deploy");
        let report = clean.deploy(&mut tb, &base_env(), &nodes, &mut rng);
        let mins = report.makespan.as_mins_f64();
        assert!(
            (3.0..=7.0).contains(&mins),
            "200-node deployment took {mins:.1} min, expected ~5"
        );
        assert_eq!(report.success_ratio(), 1.0);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn default_config_stays_reliable_with_retries() {
        let mut tb = TestbedBuilder::paper_scale().build();
        let nodes = tb.cluster_by_name("graphene").unwrap().nodes.clone();
        let mut rng = stream_rng(21, "deploy");
        let report = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        assert!(report.success_ratio() > 0.97, "{}", report.success_ratio());
        assert!(report.makespan.as_mins_f64() < 12.0);
    }

    #[test]
    fn dead_node_fails_first_step() {
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        tb.apply_fault(FaultKind::NodeDead, FaultTarget::Node(nodes[0]), SimTime::ZERO)
            .unwrap();
        let mut rng = stream_rng(3, "deploy");
        let report = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, nodes[0]);
        assert_eq!(failures[0].1, MacroStep::SetDeploymentEnv);
        assert!(report.success_ratio() < 1.0);
    }

    #[test]
    fn random_reboot_fault_hurts_reliability() {
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        for &n in &nodes {
            tb.apply_fault(FaultKind::RandomReboots, FaultTarget::Node(n), SimTime::ZERO)
                .unwrap();
        }
        let mut rng = stream_rng(4, "deploy");
        // With MTBF 8h and ~3 min of boots per round, each node has a ~0.7%
        // hazard per boot; over many deployments failures show up.
        let mut failures = 0;
        for _ in 0..60 {
            let deployer = Deployer::new(DeployConfig { retries: 0, ..Default::default() });
            let report = deployer.deploy(&mut tb, &base_env(), &nodes, &mut rng);
            failures += report.failures().len();
        }
        assert!(failures > 0, "expected at least one spontaneous-reboot failure");
    }

    #[test]
    fn retry_round_rescues_transient_failures() {
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        // Hike the base failure rate so round 1 almost surely loses nodes.
        let flaky = Deployer::new(DeployConfig {
            retries: 3,
            step_fail_prob: 0.4,
            ..Default::default()
        });
        let mut rng = stream_rng(5, "deploy");
        let report = flaky.deploy(&mut tb, &base_env(), &nodes, &mut rng);
        assert!(report.rounds > 1, "retries should have been used");
    }

    #[test]
    fn write_cache_off_slows_deployment() {
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        let mut rng = stream_rng(6, "deploy");
        let fast = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        // Disable the write cache on one node: the chain is as slow as its
        // slowest writer.
        tb.apply_fault(
            FaultKind::DiskWriteCacheDrift,
            FaultTarget::Node(nodes[0]),
            SimTime::ZERO,
        )
        .unwrap();
        let mut rng = stream_rng(6, "deploy");
        let slow = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        assert!(
            slow.makespan > fast.makespan,
            "write-cache-off deployment should be slower ({} vs {})",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn bigger_images_take_longer() {
        let imgs = standard_images();
        let small = imgs.iter().find(|e| e.name == "debian9-min").unwrap();
        let big = imgs.iter().find(|e| e.name == "debian9-big").unwrap();
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("gamma").unwrap().nodes.clone();
        let mut rng = stream_rng(7, "deploy");
        let a = Deployer::default().deploy(&mut tb, small, &nodes, &mut rng);
        let mut rng = stream_rng(7, "deploy");
        let b = Deployer::default().deploy(&mut tb, big, &nodes, &mut rng);
        assert!(b.makespan > a.makespan);
    }

    #[test]
    fn empty_node_list_is_trivial() {
        let mut tb = TestbedBuilder::small().build();
        let mut rng = stream_rng(8, "deploy");
        let report = Deployer::default().deploy(&mut tb, &base_env(), &[], &mut rng);
        assert_eq!(report.outcomes.len(), 0);
        assert_eq!(report.success_ratio(), 0.0);
        assert_eq!(report.rounds, 0, "no round runs for an empty node list");
    }

    /// With the process down, the workflow layer fails cleanly: every node
    /// reports unreachable, nothing on the testbed changes, zero rounds.
    #[test]
    fn deploy_against_down_process_fails_cleanly() {
        use ttt_testbed::ServiceKind;
        let mut tb = TestbedBuilder::small().build();
        let nodes = tb.cluster_by_name("alpha").unwrap().nodes.clone();
        let site = tb.node(nodes[0]).site;
        tb.apply_fault(
            FaultKind::ServiceCrash,
            FaultTarget::Service(site, ServiceKind::KadeployServer),
            SimTime::ZERO,
        )
        .unwrap();
        let mut rng = stream_rng(10, "kadeploy-server");
        let report = Deployer::default().deploy(&mut tb, &base_env(), &nodes, &mut rng);
        assert_eq!(report.success_ratio(), 0.0);
        assert_eq!(report.rounds, 0);
        for (_, outcome) in &report.outcomes {
            match outcome {
                NodeOutcome::Failed { reason, .. } => {
                    assert_eq!(reason, "kadeploy server unreachable");
                }
                other => panic!("expected clean failure, got {other:?}"),
            }
        }
        for &n in &nodes {
            assert_eq!(tb.node(n).condition.deployments, 0);
        }
    }
}
