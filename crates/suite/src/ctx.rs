//! Execution context handed to test scripts.

use rand::rngs::SmallRng;
use ttt_kadeploy::{Deployer, Environment};
use ttt_kavlan::KavlanManager;
use ttt_kwapi::MetricStore;
use ttt_oar::OarServer;
use ttt_refapi::RefApi;
use ttt_sim::SimTime;
use ttt_testbed::{NodeId, Testbed};

/// Everything a test script can touch while it runs.
///
/// Mirrors what a real test script on the Grid'5000 frontend can reach:
/// the nodes OAR assigned to it, the Reference API, the site services and
/// the monitoring stack. Scripts mutate the testbed only through realistic
/// channels (deployments, reboots, VLAN moves, service calls).
pub struct TestCtx<'a> {
    /// The testbed (scripts may deploy/reboot their assigned nodes).
    pub tb: &'a mut Testbed,
    /// The Reference API archive.
    pub refapi: &'a RefApi,
    /// Read-only OAR view (status checks, property comparisons).
    pub oar: &'a OarServer,
    /// The VLAN service.
    pub kavlan: &'a mut KavlanManager,
    /// The monitoring store.
    pub kwapi: &'a mut MetricStore,
    /// The deployment engine.
    pub deployer: &'a Deployer,
    /// The image catalogue.
    pub images: &'a [Environment],
    /// Nodes OAR assigned to this run.
    pub assigned: &'a [NodeId],
    /// Current virtual time.
    pub now: SimTime,
    /// The run's RNG stream.
    pub rng: &'a mut SmallRng,
}

impl<'a> TestCtx<'a> {
    /// The image catalogue entry with the given name.
    pub fn image(&self, name: &str) -> Option<&'a Environment> {
        self.images.iter().find(|e| e.name == name)
    }
}
