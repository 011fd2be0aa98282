//! # throughout — trustworthy testbeds thanks to throughout testing
//!
//! Facade crate for the reproduction of Lucas Nussbaum's REPPAR'2017 paper
//! *"Towards Trustworthy Testbeds thanks to Throughout Testing"*: a
//! continuous-testing framework for a large-scale experimental testbed,
//! together with a simulated Grid'5000-class substrate (resource manager,
//! deployment engine, VLAN isolation, monitoring, per-node verification).
//!
//! This crate re-exports every workspace crate under a short name so
//! examples and downstream users can depend on `throughout` alone:
//!
//! ```
//! use throughout::testbed::gen::TestbedBuilder;
//!
//! let tb = TestbedBuilder::paper_scale().build();
//! assert_eq!(tb.sites().len(), 8);
//! assert_eq!(tb.clusters().len(), 32);
//! assert_eq!(tb.nodes().len(), 894);
//! ```
//!
//! See `README.md` (*Workspace layout*) for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record of every reproduced result.

#![forbid(unsafe_code)]

pub use ttt_bugs as bugs;
pub use ttt_ci as ci;
pub use ttt_core as core;
pub use ttt_jobsched as jobsched;
pub use ttt_kadeploy as kadeploy;
pub use ttt_kavlan as kavlan;
pub use ttt_kwapi as kwapi;
pub use ttt_nodecheck as nodecheck;
pub use ttt_oar as oar;
pub use ttt_refapi as refapi;
pub use ttt_scengen as scengen;
pub use ttt_sim as sim;
pub use ttt_status as status;
pub use ttt_suite as suite;
pub use ttt_testbed as testbed;
