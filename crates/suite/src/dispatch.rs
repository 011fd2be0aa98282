//! Dispatch a test configuration to its family implementation.

use crate::config::{Family, Target, TestConfig};
use crate::ctx::TestCtx;
use crate::families::{deploy, description, hardware, services};
use crate::report::{Diagnostic, TestReport};
use ttt_sim::SimDuration;
use ttt_testbed::Symptom;

/// Run one test configuration against the simulated testbed.
pub fn run_test(cfg: &TestConfig, ctx: &mut TestCtx) -> TestReport {
    match (&cfg.family, &cfg.target) {
        (Family::Refapi, Target::Cluster(c)) => description::refapi(c, ctx),
        (Family::OarProperties, Target::Cluster(c)) => description::oarproperties(c, ctx),
        (Family::DellBios, Target::Cluster(c)) => description::dellbios(c, ctx),
        (Family::OarState, Target::Site(s)) => services::oarstate(s, ctx),
        (Family::Cmdline, Target::Site(s)) => services::cmdline(s, ctx),
        (Family::SidApi, Target::Site(s)) => services::sidapi(s, ctx),
        (Family::Environments, Target::ImageCluster { image, cluster }) => {
            deploy::environments(image, cluster, ctx)
        }
        (Family::StdEnv, Target::Cluster(c)) => deploy::stdenv(c, ctx),
        (Family::ParallelDeploy, Target::Cluster(c)) => deploy::paralleldeploy(c, ctx),
        (Family::MultiReboot, Target::Cluster(c)) => deploy::multireboot(c, ctx),
        (Family::MultiDeploy, Target::Cluster(c)) => deploy::multideploy(c, ctx),
        (Family::Console, Target::Cluster(c)) => services::console(c, ctx),
        (Family::Kavlan, Target::Site(s)) => services::kavlan_site(s, ctx),
        (Family::Kavlan, Target::Global) => services::kavlan_global(ctx),
        (Family::Kwapi, Target::Site(s)) => services::kwapi(s, ctx),
        (Family::MpiGraph, Target::Cluster(c)) => hardware::mpigraph(c, ctx),
        (Family::Disk, Target::Cluster(c)) => hardware::disk(c, ctx),
        (family, target) => TestReport::from_diagnostics(
            vec![Diagnostic::new(
                Symptom::InvalidConfiguration.on(""),
                format!("family {family} cannot target {target}"),
            )],
            SimDuration::from_mins(1),
        ),
    }
}
