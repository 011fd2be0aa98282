//! # ttt-sim — discrete-event simulation substrate
//!
//! Every other crate in the `throughout` workspace is driven by *virtual* time:
//! the testbed model, the resource manager, the deployment engine, the CI
//! server and the campaign orchestrator all schedule work on [`EventQueue`]s
//! keyed by [`SimTime`] and draw randomness from named, deterministic
//! [`rng`] streams. No library code ever reads the wall clock, which makes
//! every experiment in the paper reproduction bit-reproducible from a seed.
//!
//! The crate deliberately avoids `dyn FnOnce` event callbacks: each subsystem
//! owns a typed queue of its own event enum and interprets the payloads
//! itself. This keeps ownership simple (no closures borrowing half the world)
//! and keeps each subsystem independently testable.
//!
//! Contents:
//! * [`time`] — [`SimTime`] / [`SimDuration`], nanosecond-resolution virtual time;
//! * [`queue`] — a FIFO-stable binary-heap event queue;
//! * [`rng`] — seed-derived named RNG streams;
//! * [`stats`] — online mean/variance, percentiles, time series;
//! * [`calendar`] — day/hour arithmetic, peak-hour windows, diurnal intensity;
//! * [`backoff`] — the exponential-backoff retry policy of the paper's scheduler;
//! * [`process`] — Poisson arrival processes and related samplers;
//! * [`rpc`] — simulated process liveness, RPC envelopes, buggify;
//! * [`eventlog`] — structured append-only per-run event logs.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod calendar;
pub mod eventlog;
pub mod process;
pub mod queue;
pub mod rng;
pub mod rpc;
pub mod stats;
pub mod time;

pub use backoff::ExponentialBackoff;
pub use calendar::{Calendar, HourRange, Weekday};
pub use eventlog::{Event, EventLog};
pub use process::PoissonProcess;
pub use queue::{DrainDue, EventQueue};
pub use rng::{stream_rng, RngFactory};
pub use rpc::{
    Buggify, BuggifyCallsite, KeyedBuggify, LinkQuality, Liveness, RpcError, BUGGIFY_CALLSITES,
};
pub use stats::{OnlineStats, PeriodSeries};
pub use time::{SimDuration, SimTime};
