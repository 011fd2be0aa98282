//! The simulated process and RPC substrate.
//!
//! FoundationDB's simulation hierarchy (DataCenter → Machine → Process →
//! Interface) makes every level killable and injects faults
//! probabilistically at IO-shaped callsites ("buggify"). This module is the
//! domain-agnostic half of that model for the `throughout` workspace:
//!
//! * [`Liveness`] — the life cycle of one simulated service process:
//!   `Up`, `Crashed` (halted until something restarts it), or
//!   `RestartingAt` (down, with a known restart instant that the campaign
//!   driver treats as a wake term);
//! * [`LinkQuality`] — per-call latency and loss on a degraded service
//!   link;
//! * [`RpcError`] — how an enveloped call fails: `Refused` (the process is
//!   not listening — distinguishable from an unhealthy-but-running
//!   service), or `Dropped` (the envelope lost the call);
//! * [`Buggify`] — the callsite fault-injection switch, off by default.
//!
//! The concrete registry mapping `ServiceId { kind, site }` to a host node
//! lives in `ttt-testbed` (`process` module), because it needs the node and
//! service arenas; everything here is deliberately free of those types so
//! any subsystem can consume it.
//!
//! ## Determinism
//!
//! [`Buggify`] has two firing modes and both are deterministic:
//!
//! * `fire(rng)` draws from a caller-owned named stream — used at callsites
//!   that already thread an `&mut Rng` (service probes, deployment rounds).
//!   When the rate is zero it draws *nothing*, so disabled buggify never
//!   perturbs an RNG stream.
//! * `fire_hashed(salt)` hashes `(seed, salt)` with no shared state — used
//!   at callsites without an RNG (CI assignment, federation submit), where
//!   the caller supplies a monotone per-event counter as the salt. Because
//!   the counter advances only on real events (a build assigned, a job
//!   submitted) and the event sequence is identical across engines, the
//!   draw sequence is too.

use crate::rng::stream_seed;
use crate::time::SimTime;
use rand::Rng;
use std::fmt;

/// One registered buggify callsite: the runtime half of the workspace
/// buggify-surface census.
///
/// Every `Buggify::fire`/`Buggify::fire_hashed` call in non-test code
/// names its callsite with a string literal, and that name must appear
/// here. `detlint`'s static audit scans the workspace for fire sites and
/// reconciles them against this registry in both directions — a fire with
/// an unregistered name and a registration with no surviving fire are both
/// lint violations — so the registry IS the authoritative list of armed
/// chaos injection points, and the covered/total density the audit reports
/// per service crate can never silently drift from the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuggifyCallsite {
    /// The literal name passed at the fire site (kebab-case, prefixed by
    /// the owning subsystem).
    pub name: &'static str,
    /// The crate whose code contains the fire site.
    pub crate_name: &'static str,
    /// What firing perturbs, in one line.
    pub what: &'static str,
}

/// Every registered buggify callsite in the workspace.
pub const BUGGIFY_CALLSITES: &[BuggifyCallsite] = &[
    BuggifyCallsite {
        name: "kadeploy-pxe",
        crate_name: "ttt_kadeploy",
        what: "a deployment round loses the PXE handshake on one node (retry round rescues it)",
    },
    BuggifyCallsite {
        name: "testbed-service-call",
        crate_name: "ttt_testbed",
        what: "an enveloped service call surfaces a transient service error",
    },
    BuggifyCallsite {
        name: "ci-assign",
        crate_name: "ttt_ci",
        what: "an executor assignment spuriously defers; the build stays queued for the next round",
    },
    BuggifyCallsite {
        name: "kwapi-sample",
        crate_name: "ttt_kwapi",
        what: "a wattmeter read is lost; the sample is skipped",
    },
    BuggifyCallsite {
        name: "oar-submit",
        crate_name: "ttt_oar",
        what: "the OAR server transiently refuses a submission (caller retries or drops)",
    },
    BuggifyCallsite {
        name: "fed-submit",
        crate_name: "ttt_oar",
        what: "the federation gateway loses a submission before placement",
    },
    BuggifyCallsite {
        name: "userload-submit",
        crate_name: "ttt_oar",
        what: "a user's submission RPC is dropped on the wire; the arrival is counted as rejected",
    },
    BuggifyCallsite {
        name: "refapi-describe",
        crate_name: "ttt_refapi",
        what: "a reference-API describe read is refused; the reader keeps its stale description",
    },
    BuggifyCallsite {
        name: "kwapi-window",
        crate_name: "ttt_kwapi",
        what: "a metrics window read is refused; the snapshot omits that node's window row",
    },
];

/// Look up a registered callsite by name.
pub fn buggify_callsite(name: &str) -> Option<&'static BuggifyCallsite> {
    BUGGIFY_CALLSITES.iter().find(|c| c.name == name)
}

/// Liveness of one simulated service process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Liveness {
    /// Listening and serving calls.
    Up,
    /// Halted; calls are refused until an explicit restart (operator
    /// repair) brings it back.
    Crashed,
    /// Halted, but with a scheduled restart instant: calls are refused
    /// until then, and the instant is a campaign wake term.
    RestartingAt(SimTime),
}

impl Liveness {
    /// Whether the process answers calls.
    pub fn is_up(&self) -> bool {
        matches!(self, Liveness::Up)
    }

    /// The pending restart instant, if one is scheduled.
    pub fn restart_at(&self) -> Option<SimTime> {
        match self {
            Liveness::RestartingAt(at) => Some(*at),
            _ => None,
        }
    }
}

/// Latency and loss on a degraded service link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Extra per-call latency, seconds.
    pub latency_s: f64,
    /// Probability in `[0, 1]` that a call is dropped.
    pub loss_prob: f64,
}

impl LinkQuality {
    /// The default degradation applied by the `rpc-degraded` fault.
    pub fn degraded() -> Self {
        LinkQuality {
            latency_s: 0.25,
            loss_prob: 0.25,
        }
    }
}

/// How an RPC envelope fails before the service logic even runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The target process is not listening (crashed or restarting).
    Refused,
    /// The envelope dropped the call (degraded link or injected chaos).
    Dropped,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Refused => f.write_str("connection refused"),
            RpcError::Dropped => f.write_str("call dropped"),
        }
    }
}

impl std::error::Error for RpcError {}

/// The buggify switch: callsite fault injection, off by default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Buggify {
    rate: f64,
    seed: u64,
}

impl Default for Buggify {
    fn default() -> Self {
        Buggify::off()
    }
}

impl Buggify {
    /// Disabled: never fires, never draws.
    pub fn off() -> Self {
        Buggify { rate: 0.0, seed: 0 }
    }

    /// Enabled at `rate`, deterministically derived from the campaign seed.
    pub fn new(seed: u64, rate: f64) -> Self {
        Buggify {
            rate: rate.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Whether the switch is on at all.
    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// The configured firing rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Fire using a caller-owned RNG stream. Draws nothing when disabled,
    /// so turning buggify off never shifts an existing stream.
    ///
    /// `callsite` names the injection point; non-test callers must pass a
    /// string literal registered in [`BUGGIFY_CALLSITES`] — the static
    /// buggify-surface audit reconciles the two views.
    pub fn fire<R: Rng>(&self, callsite: &'static str, rng: &mut R) -> bool {
        let _ = callsite; // consumed by the static audit, not at runtime
        self.enabled() && rng.gen_bool(self.rate)
    }

    /// Fire from a pure hash of `(seed, callsite, salt)` — for callsites
    /// with no RNG in scope. The caller supplies a per-event counter as
    /// the salt; identical event sequences give identical draws.
    pub fn fire_hashed(&self, callsite: &str, salt: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let h = stream_seed(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15), callsite);
        // Top 53 bits → uniform in [0, 1).
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn liveness_reports_up_and_restarts() {
        assert!(Liveness::Up.is_up());
        assert!(!Liveness::Crashed.is_up());
        let t = SimTime::from_mins(30);
        assert_eq!(Liveness::RestartingAt(t).restart_at(), Some(t));
        assert_eq!(Liveness::Crashed.restart_at(), None);
    }

    #[test]
    fn disabled_buggify_never_fires_and_never_draws() {
        let b = Buggify::off();
        let mut a = stream_rng(1, "buggify");
        let mut c = stream_rng(1, "buggify");
        for _ in 0..64 {
            assert!(!b.fire("test-site", &mut a));
        }
        // The stream was not consumed at all.
        assert_eq!(a.gen::<u64>(), c.gen::<u64>());
        assert!(!b.fire_hashed("anywhere", 3));
    }

    #[test]
    fn enabled_buggify_fires_at_roughly_the_rate() {
        let b = Buggify::new(7, 0.2);
        let mut rng = stream_rng(7, "buggify");
        let fired = (0..5000).filter(|_| b.fire("test-site", &mut rng)).count();
        let ratio = fired as f64 / 5000.0;
        assert!((0.17..0.23).contains(&ratio), "ratio {ratio}");
        let hashed = (0..5000).filter(|i| b.fire_hashed("cs", *i)).count();
        let ratio = hashed as f64 / 5000.0;
        assert!((0.17..0.23).contains(&ratio), "hashed ratio {ratio}");
    }

    #[test]
    fn hashed_firing_is_deterministic_and_callsite_scoped() {
        let b = Buggify::new(42, 0.5);
        for salt in 0..32 {
            assert_eq!(b.fire_hashed("ci/assign", salt), b.fire_hashed("ci/assign", salt));
        }
        let a: Vec<bool> = (0..64).map(|s| b.fire_hashed("ci/assign", s)).collect();
        let c: Vec<bool> = (0..64).map(|s| b.fire_hashed("fed/submit", s)).collect();
        assert_ne!(a, c, "two callsites produced identical draw sequences");
    }

    #[test]
    fn callsite_registry_is_well_formed() {
        // Unique names, non-empty descriptions, and lookup round-trips.
        for (i, c) in BUGGIFY_CALLSITES.iter().enumerate() {
            assert!(!c.what.is_empty(), "{} has no description", c.name);
            assert!(c.crate_name.starts_with("ttt_"), "{} crate", c.name);
            assert_eq!(buggify_callsite(c.name), Some(&BUGGIFY_CALLSITES[i]));
            assert!(
                !BUGGIFY_CALLSITES[..i].iter().any(|p| p.name == c.name),
                "duplicate callsite {}",
                c.name
            );
        }
        assert_eq!(buggify_callsite("no-such-site"), None);
    }

    #[test]
    fn link_quality_default_is_lossy_but_not_dead() {
        let q = LinkQuality::degraded();
        assert!(q.loss_prob > 0.0 && q.loss_prob < 1.0);
        assert!(q.latency_s > 0.0);
    }
}
