//! # ttt-refapi — the Reference API
//!
//! Grid'5000 describes every resource in a machine-parsable JSON format so
//! that experiments can verify what they ran on, and archives the
//! descriptions ("State of testbed 6 months ago?", slide 7). This crate
//! reproduces that service:
//!
//! * [`description`] — data model of the testbed description;
//! * [`archive`] — versioned snapshot store;
//! * [`query`] — property extraction feeding the OAR resource database.
//!
//! The description is generated from each cluster's *reference* hardware —
//! what operators believe the nodes look like. Faults mutate the nodes'
//! *actual* hardware without touching the description, creating exactly the
//! inaccuracies g5k-checks (`ttt-nodecheck`) exists to detect.

#![forbid(unsafe_code)]

pub mod archive;
pub mod description;
pub mod query;

pub use archive::RefApi;
pub use description::{describe, ClusterDescription, NodeDescription, SiteDescription, TestbedDescription};
pub use query::{
    all_properties, node_properties, PropValue, PropertyDb, PropertyMap, Query, QueryAnswer,
};
