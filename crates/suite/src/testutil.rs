//! Shared test harness: a small testbed with every service stood up
//! (testbed + refapi + oar + kavlan + kwapi + deployer), plus automatic
//! node assignment per configuration.
//!
//! Family unit tests, the end-to-end detection matrix, the coverage
//! ablation and the scenario swarm's detection-soundness oracle all run
//! test configurations through this one [`Harness`] instead of each wiring
//! their own copy of the world; [`crate::coverage`] drives it through the
//! inject → run → attribute loop.

use crate::config::{Target, TestConfig};
use crate::ctx::TestCtx;
use crate::dispatch::run_test;
use crate::report::TestReport;
use rand::rngs::SmallRng;
use ttt_kadeploy::{standard_images, Deployer, Environment};
use ttt_kavlan::KavlanManager;
use ttt_kwapi::MetricStore;
use ttt_oar::OarServer;
use ttt_refapi::{describe, RefApi};
use ttt_sim::rng::stream_rng;
use ttt_sim::{SimDuration, SimTime};
use ttt_testbed::{NodeId, Testbed, TestbedBuilder};

/// Everything needed to run one test config in isolation.
pub struct Harness {
    pub tb: Testbed,
    pub refapi: RefApi,
    pub oar: OarServer,
    pub kavlan: KavlanManager,
    pub kwapi: MetricStore,
    pub deployer: Deployer,
    pub images: Vec<Environment>,
    /// Explicit node assignment; emptied means "derive from the config".
    pub assigned: Vec<NodeId>,
    pub now: SimTime,
    pub rng: SmallRng,
}

impl Harness {
    /// Build a small-testbed harness with the given RNG seed (on the
    /// default `"suite-harness"` stream).
    pub fn new(seed: u64) -> Self {
        Harness::with_stream(seed, "suite-harness")
    }

    /// Build a small-testbed harness drawing from a named RNG stream, so
    /// callers that used to own their RNG (the detection matrix) keep the
    /// exact same draws.
    pub fn with_stream(seed: u64, stream: &str) -> Self {
        Harness::from_testbed(TestbedBuilder::small().build(), seed, stream)
    }

    /// Stand every service up around an already-built testbed.
    pub fn from_testbed(tb: Testbed, seed: u64, stream: &str) -> Self {
        let description = describe(&tb, 1, SimTime::ZERO);
        let oar = OarServer::new(&tb, &description);
        let mut refapi = RefApi::new();
        refapi.publish(description);
        let kwapi = MetricStore::new(tb.nodes().len(), 600, SimDuration::from_mins(1));
        Harness {
            tb,
            refapi,
            oar,
            kavlan: KavlanManager::new(),
            kwapi,
            deployer: Deployer::default(),
            images: standard_images(),
            assigned: Vec::new(),
            now: SimTime::from_hours(3),
            rng: stream_rng(seed, stream),
        }
    }

    /// Derive a plausible OAR assignment for a configuration.
    fn derive_assignment(&self, cfg: &TestConfig) -> Vec<NodeId> {
        let alive = |n: &NodeId| self.tb.node_alive(*n);
        match &cfg.target {
            Target::Cluster(c) | Target::ImageCluster { cluster: c, .. } => {
                let nodes: Vec<NodeId> = self
                    .tb
                    .cluster_by_name(c)
                    .map(|cl| cl.nodes.iter().copied().filter(alive).collect())
                    .unwrap_or_default();
                if cfg.family.hardware_centric() {
                    nodes
                } else {
                    nodes.into_iter().take(1).collect()
                }
            }
            Target::Site(s) => {
                let site = self.tb.site_by_name(s).map(|s| s.id);
                self.tb
                    .nodes()
                    .iter()
                    .filter(|n| Some(n.site) == site && self.tb.node_alive(n.id))
                    .map(|n| n.id)
                    .take(2)
                    .collect()
            }
            Target::Global => {
                let mut out = Vec::new();
                for site in self.tb.sites() {
                    if let Some(&cid) = site.clusters.first() {
                        if let Some(&nid) = self.tb.cluster(cid).nodes.first() {
                            out.push(nid);
                        }
                    }
                    if out.len() == 2 {
                        break;
                    }
                }
                out
            }
        }
    }

    /// Run one configuration, deriving the assignment unless `assigned`
    /// was set explicitly, and advance the harness clock by the test's
    /// virtual duration.
    pub fn run(&mut self, cfg: &TestConfig) -> TestReport {
        let report = self.run_static(cfg);
        self.now += report.duration;
        report
    }

    /// Run one configuration at the harness's current instant without
    /// advancing the clock — probabilistic detection loops (the detection
    /// matrix, the swarm's soundness oracle) re-run a family many times at
    /// one fixed instant.
    pub fn run_static(&mut self, cfg: &TestConfig) -> TestReport {
        let assigned = if self.assigned.is_empty() {
            self.derive_assignment(cfg)
        } else {
            self.assigned.clone()
        };
        let mut ctx = TestCtx {
            tb: &mut self.tb,
            refapi: &self.refapi,
            oar: &self.oar,
            kavlan: &mut self.kavlan,
            kwapi: &mut self.kwapi,
            deployer: &self.deployer,
            images: &self.images,
            assigned: &assigned,
            now: self.now,
            rng: &mut self.rng,
        };
        run_test(cfg, &mut ctx)
    }
}
