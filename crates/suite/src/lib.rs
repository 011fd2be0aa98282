//! # ttt-suite — the test-script library
//!
//! Slide 21 inventories the framework's coverage: sixteen test families,
//! 751 total test configurations, each designed to "exhibit issues, but
//! also provide sufficient information to testbed operators to understand
//! and fix the issue" — and each kept simple (KISS, per Kernighan's law).
//!
//! | family | targets | checks |
//! |---|---|---|
//! | `refapi`, `oarproperties`, `dellbios` | clusters | homogeneity and correctness of the testbed description |
//! | `oarstate` | sites | testbed status |
//! | `cmdline`, `sidapi` | sites | basic functionality of CLI tools and REST API |
//! | `environments`, `stdenv` | image×cluster / clusters | provided system images |
//! | `paralleldeploy`, `multireboot`, `multideploy` | clusters | reliability of key services |
//! | `console`, `kavlan`, `kwapi` | clusters/sites | other important services |
//! | `mpigraph`, `disk` | IB / HDD clusters | specific hardware |
//!
//! [`build_suite`] generates the full 751-configuration set for the
//! paper-scale testbed; [`run_test`] executes one configuration against the
//! simulated testbed and returns a [`TestReport`] whose diagnostics carry a
//! typed [`ttt_testbed::Signature`], so the bug tracker can deduplicate and
//! operators can repair the right thing.

#![forbid(unsafe_code)]

pub mod config;
pub mod coverage;
pub mod ctx;
pub mod dispatch;
pub mod families;
pub mod regression;
pub mod report;
pub mod testutil;

pub use config::{build_suite, family_counts, Family, Target, TestConfig};
pub use coverage::{coverage_for, detection_failure, Coverage};
pub use ctx::TestCtx;
pub use dispatch::run_test;
pub use regression::{Metric, RegressionExperiment};
pub use report::{Diagnostic, TestReport, TestStatus};
