//! # ttt-kadeploy — the OS deployment engine
//!
//! Reproduces Kadeploy (slide 8): "Provides a Hardware-as-a-Service cloud
//! infrastructure … Scalable, efficient, reliable and flexible: 200 nodes
//! deployed in ~5 minutes."
//!
//! * [`env`] — system environments/images, including the 14 standard images
//!   of the `test_environments` matrix (14 × 32 = 448 configurations);
//! * [`workflow`] — the three macro-steps of a deployment
//!   (SetDeploymentEnv → BroadcastEnv → BootNewEnv) with a chain-broadcast
//!   timing model and per-step failure/retry handling. Every test family
//!   deploys through [`Deployer::deploy`]; there is no queueing server in
//!   front of it.

#![forbid(unsafe_code)]

pub mod env;
pub mod workflow;

pub use env::{standard_images, EnvKind, Environment};
pub use workflow::{DeployConfig, DeployReport, Deployer, MacroStep, NodeOutcome};
