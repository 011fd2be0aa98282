//! # ttt-testbed — the simulated testbed substrate
//!
//! A stateful model of a Grid'5000-class testbed: 8 sites, 32 clusters,
//! 894 nodes, 8490 cores in the paper-scale configuration, plus the network
//! and power-monitoring topology, per-site infrastructure services, and a
//! fault-injection engine reproducing the paper's bug catalogue (slides 13
//! and 22): CPU setting drift, disk firmware/cache divergence, cabling
//! mistakes, flaky services, random reboots, and more.
//!
//! The framework under test only ever observes the testbed through probes
//! and service calls, so this substrate exercises exactly the code paths
//! the real framework exercises on real hardware.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod fault;
pub mod gen;
pub mod hardware;
pub mod ids;
pub mod link;
pub mod node;
pub mod perf;
pub mod process;
pub mod services;
pub mod site;
pub mod testbed;
pub mod topology;
pub mod validate;

pub use cluster::Cluster;
pub use fault::{
    find_fault, Fault, FaultId, FaultInjector, FaultKind, FaultTarget, InjectorConfig, KindSpec,
    Layer, Signature, Symptom, TargetShape,
};
pub use gen::TestbedBuilder;
pub use hardware::{
    BiosSpec, CpuSpec, DiskInterface, DiskKind, DiskSpec, GpuSpec, IbSpec, MemSpec, NicSpec,
    NodeHardware, Vendor,
};
pub use ids::{ClusterId, NodeId, PduId, SiteId, SwitchId};
pub use link::LinkModelSpec;
pub use node::{Node, NodeCondition};
pub use process::{ProcessEntry, ProcessRegistry, ServiceId};
pub use services::{Service, ServiceError, ServiceKind};
pub use site::Site;
pub use testbed::{CallFailure, RpcTraceEntry, Testbed, CONTROL_SITE, SERVICE_RESTART_WINDOW};
pub use validate::validate;
