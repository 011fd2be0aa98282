//! Shared test harness: a small testbed with every service stood up
//! (testbed + refapi + oar + kavlan + kwapi + deployer). A configuration's
//! nodes are what the harness's own [`OarServer`] assigns to its
//! [`TestConfig::resource_request`], as the campaign's are.
//!
//! Family unit tests, the end-to-end detection matrix, the coverage
//! ablation and the scenario swarm's detection-soundness oracle all run
//! test configurations through this one [`Harness`] instead of each wiring
//! their own copy of the world; [`crate::coverage`] drives it through the
//! inject → run → attribute loop.

use crate::config::TestConfig;
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
    /// Explicit node assignment; empty means "ask `oar` for the config's
    /// request".
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

    /// Run one configuration, on `assigned` if it was set explicitly, and
    /// advance the harness clock by the test's virtual duration.
    pub fn run(&mut self, cfg: &TestConfig) -> TestReport {
        let report = self.run_static(cfg);
        self.now += report.duration;
        report
    }

    /// Run one configuration at the harness's current instant without
    /// advancing the clock — probabilistic detection loops (the detection
    /// matrix, the swarm's soundness oracle) re-run a family many times at
    /// one fixed instant.
    ///
    /// `oar` is first reconciled with the testbed, so an injected fault or a
    /// direct `node_mut` write since the last run is what the planner sees.
    /// A request the planner cannot start now runs on no node.
    pub fn run_static(&mut self, cfg: &TestConfig) -> TestReport {
        self.oar.sync_node_states(&self.tb);
        let assigned = if self.assigned.is_empty() {
            let request = cfg.resource_request(&self.tb);
            self.oar.immediate_assignment(&request).unwrap_or_default()
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
