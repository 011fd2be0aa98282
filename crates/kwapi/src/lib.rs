//! # ttt-kwapi — infrastructure monitoring
//!
//! Reproduces the paper's monitoring stack (slide 9): power and network
//! probes "captured at high frequency (≈1 Hz)", with live visualization, a
//! REST API and long-term storage.
//!
//! * [`series`] — ring-buffer time series with consolidation (long-term
//!   storage keeps per-minute min/mean/max, like an RRD);
//! * [`store`] — the per-node metric store and the ~1 Hz sampler. The
//!   sampler reads each *wattmeter*, and the wattmeter→node wiring table
//!   lives in the testbed topology — so a `CablingSwap` fault makes node
//!   A's dashboard show node B's power, the paper's "wrong measurements by
//!   testbed monitoring service" bug. The store records each sampler call
//!   and derives a wattmeter's samples when they are read.

#![forbid(unsafe_code)]

mod record;
pub mod series;
pub mod store;

pub use series::{ConsolidatedPoint, RingSeries, WindowAgg};
pub use store::{MetricStore, PowerSampler, PowerSeries};
