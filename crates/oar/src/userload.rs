//! Synthetic user load.
//!
//! The paper's scheduling problem only exists because "resources are
//! heavily used" (slide 16) — tests compete with real experiments. This
//! generator produces a diurnal stream of user jobs: arrivals follow a
//! thinned Poisson process peaking weekday afternoons, sizes follow the
//! small-jobs-dominate shape typical of testbed usage, and a minority of
//! jobs grab whole clusters for hours (the ones that starve
//! hardware-centric tests for weeks).

use crate::ast::{Expr, ResourceRequest};
use crate::federation::Federation;
use crate::job::{JobKind, Queue};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use ttt_sim::{Buggify, Calendar, PoissonProcess, SimDuration, SimTime};

/// Why a [`UserLoadGenerator`] could not be constructed.
///
/// Construction is where the invariants live: `draw_request` indexes into
/// the cluster list whenever a cluster-affine draw fires, so an empty list
/// with a non-zero affinity used to survive until an arrival landed mid-
/// campaign and panicked in `choose(..).unwrap()`. Rejecting it up front
/// turns that latent panic into a typed error at the one place a caller
/// can actually do something about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserLoadError {
    /// Cluster-affine jobs are possible (`cluster_affinity > 0`) but there
    /// are no clusters to target.
    NoClusters,
}

impl fmt::Display for UserLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserLoadError::NoClusters => f.write_str(
                "user load has cluster_affinity > 0 but no clusters to target",
            ),
        }
    }
}

impl std::error::Error for UserLoadError {}

/// Configuration of the user-load generator.
#[derive(Debug, Clone)]
pub struct UserLoadConfig {
    /// Mean arrivals per day at peak intensity (the diurnal curve scales
    /// this down off-peak).
    pub peak_jobs_per_day: f64,
    /// Probability a job targets a specific cluster (vs. any nodes).
    pub cluster_affinity: f64,
    /// Probability a cluster-affine job requests the whole cluster.
    pub whole_cluster_prob: f64,
}

impl Default for UserLoadConfig {
    fn default() -> Self {
        UserLoadConfig {
            peak_jobs_per_day: 120.0,
            cluster_affinity: 0.6,
            whole_cluster_prob: 0.08,
        }
    }
}

/// Generates and submits user jobs as virtual time advances.
#[derive(Debug)]
pub struct UserLoadGenerator {
    config: UserLoadConfig,
    clusters: Vec<String>,
    next_candidate: Option<SimTime>,
    submitted: u64,
    /// Chaos hook: when armed, an arrival's submission RPC can be lost on
    /// the wire (counted as a rejection). Off by default.
    buggify: Buggify,
    /// Monotone count of kept (non-thinned) arrivals — the rng-free
    /// buggify salt.
    arrivals: u64,
}

impl UserLoadGenerator {
    /// Create a generator for the given cluster names.
    ///
    /// Fails with [`UserLoadError::NoClusters`] when the config makes
    /// cluster-affine draws possible but `clusters` is empty — the
    /// combination that used to panic on the first affine arrival.
    // detlint: allow(unarmed-service-fn) -- constructor validating campaign config at build time; not on the simulated request path
    pub fn new(config: UserLoadConfig, clusters: Vec<String>) -> Result<Self, UserLoadError> {
        if config.cluster_affinity > 0.0 && clusters.is_empty() {
            return Err(UserLoadError::NoClusters);
        }
        Ok(UserLoadGenerator {
            config,
            clusters,
            next_candidate: None,
            submitted: 0,
            buggify: Buggify::off(),
            arrivals: 0,
        })
    }

    /// Arm (or disarm) the lost-submission chaos hook. Rate 0 keeps the
    /// arrival and draw streams byte-identical to an unarmed generator.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Number of jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// The next candidate arrival instant, if the process can fire.
    ///
    /// Primes the pending candidate on first use with the exact draw
    /// [`UserLoadGenerator::advance_fed`] would have made, so peeking does not
    /// perturb the arrival stream. Candidates may still be thinned away by
    /// the diurnal intensity when they are reached — the caller only needs
    /// an instant before which nothing can happen.
    pub fn next_event<R: Rng>(&mut self, now: SimTime, rng: &mut R) -> Option<SimTime> {
        if self.next_candidate.is_none() {
            let process = PoissonProcess::per_day(self.config.peak_jobs_per_day);
            self.next_candidate = process.next_after(now, rng);
        }
        self.next_candidate
    }

    /// Advance to `until`, submitting user jobs across the federation.
    ///
    /// Uses Poisson thinning: candidates arrive at the peak rate and are
    /// kept with probability equal to the diurnal intensity. Cluster-affine
    /// jobs land on their cluster's site (the federation derives the home
    /// domain from the request); site-agnostic jobs take the first domain
    /// with room, spilling over when the front of the federation is
    /// saturated. The draw order here is determinism-load-bearing (the
    /// engine-equivalence oracle compares campaigns bitwise).
    pub fn advance_fed<R: Rng>(&mut self, until: SimTime, fed: &mut Federation, rng: &mut R) {
        let process = PoissonProcess::per_day(self.config.peak_jobs_per_day);
        let mut t = match self.next_candidate {
            Some(t) => t,
            None => match process.next_after(fed.now(), rng) {
                Some(t) => t,
                None => return,
            },
        };
        while t < until {
            if rng.gen_bool(Calendar::diurnal_intensity(t).clamp(0.0, 1.0)) {
                fed.advance(t);
                let request = self.draw_request(rng);
                let user = format!("user{}", rng.gen_range(0..50));
                // Buggify: the submission RPC is lost on the wire. The
                // request and user draws above already happened, so the
                // RNG stream stays aligned with the unarmed schedule and
                // the decision itself is a pure hash of the monotone
                // arrival counter — identical across engines.
                self.arrivals += 1;
                let dropped = self.buggify.fire_hashed("userload-submit", self.arrivals);
                // Unsatisfiable draws (e.g. a whole dead cluster or site)
                // are simply dropped — real users would see the error and
                // move on.
                if !dropped
                    && fed
                        .submit(&user, Queue::Default, JobKind::User, request, None)
                        .is_ok()
                {
                    self.submitted += 1;
                }
            }
            t = match process.next_after(t, rng) {
                Some(next) => next,
                None => break,
            };
        }
        self.next_candidate = Some(t);
    }

    fn draw_request<R: Rng>(&self, rng: &mut R) -> ResourceRequest {
        // Walltimes: mostly short, occasionally long (log-ish mixture).
        let walltime = match rng.gen_range(0..10) {
            0..=4 => SimDuration::from_mins(rng.gen_range(15..120)),
            5..=7 => SimDuration::from_hours(rng.gen_range(2..6)),
            8 => SimDuration::from_hours(rng.gen_range(6..12)),
            _ => SimDuration::from_hours(rng.gen_range(12..48)),
        };
        let affine_cluster =
            if !self.clusters.is_empty() && rng.gen_bool(self.config.cluster_affinity) {
                self.clusters.choose(rng).cloned()
            } else {
                None
            };
        if let Some(cluster) = affine_cluster {
            if rng.gen_bool(self.config.whole_cluster_prob) {
                ResourceRequest::all_nodes(Expr::eq("cluster", &cluster), walltime)
            } else {
                let n = rng.gen_range(1..=4);
                ResourceRequest::nodes(Expr::eq("cluster", &cluster), n, walltime)
            }
        } else {
            let n = match rng.gen_range(0..10) {
                0..=5 => rng.gen_range(1..=2),
                6..=8 => rng.gen_range(3..=8),
                _ => rng.gen_range(9..=16),
            };
            ResourceRequest::nodes(Expr::True, n, walltime)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_refapi::describe;
    use ttt_sim::rng::stream_rng;
    use ttt_testbed::TestbedBuilder;

    fn setup() -> (UserLoadGenerator, Federation) {
        let tb = TestbedBuilder::small().build();
        let desc = describe(&tb, 1, SimTime::ZERO);
        let fed = Federation::new(&tb, &desc);
        let clusters = tb.clusters().iter().map(|c| c.name.clone()).collect();
        let gen = UserLoadGenerator::new(UserLoadConfig::default(), clusters)
            .expect("testbed has clusters");
        (gen, fed)
    }

    #[test]
    fn empty_cluster_set_is_a_typed_error_not_a_panic() {
        // Regression: an affine config over zero clusters used to build
        // fine and panic later inside draw_request's choose().unwrap().
        let err = UserLoadGenerator::new(UserLoadConfig::default(), Vec::new()).unwrap_err();
        assert_eq!(err, UserLoadError::NoClusters);
        assert!(err.to_string().contains("no clusters"));
        // With affinity zero the empty list is harmless: no draw can ever
        // reach the cluster path, so construction succeeds and the
        // generator runs purely site-agnostic load.
        let cfg = UserLoadConfig {
            cluster_affinity: 0.0,
            ..UserLoadConfig::default()
        };
        let mut gen = UserLoadGenerator::new(cfg, Vec::new()).unwrap();
        let (_, mut fed) = setup();
        let mut rng = stream_rng(21, "userload");
        gen.advance_fed(SimTime::from_days(2), &mut fed, &mut rng);
        assert!(gen.submitted() > 0);
    }

    #[test]
    fn generates_plausible_volume() {
        let (mut gen, mut fed) = setup();
        let mut rng = stream_rng(9, "userload");
        gen.advance_fed(SimTime::from_days(7), &mut fed, &mut rng);
        // Peak 120/day thinned by the diurnal curve (weekdays ~0.3 mean,
        // weekends 0.15) over a week: somewhere well above zero and below
        // the un-thinned 840. Most submissions succeed.
        let n = gen.submitted();
        assert!(n > 80, "submitted {n}");
        assert!(n < 500, "submitted {n}");
        assert!(fed.all_jobs().next().is_some());
    }

    #[test]
    fn submissions_are_user_kind() {
        let (mut gen, mut fed) = setup();
        let mut rng = stream_rng(10, "userload");
        gen.advance_fed(SimTime::from_days(2), &mut fed, &mut rng);
        assert!(fed
            .all_jobs()
            .all(|(_, j)| j.kind == JobKind::User && j.queue == Queue::Default));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let (mut gen, mut fed) = setup();
            let mut rng = stream_rng(seed, "userload");
            gen.advance_fed(SimTime::from_days(3), &mut fed, &mut rng);
            (gen.submitted(), fed.all_jobs().count())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn next_event_peek_does_not_perturb_stream() {
        let run = |peek: bool| {
            let (mut gen, mut fed) = setup();
            let mut rng = stream_rng(5, "userload");
            let peeked = if peek {
                gen.next_event(SimTime::ZERO, &mut rng)
            } else {
                None
            };
            gen.advance_fed(SimTime::from_days(3), &mut fed, &mut rng);
            (peeked, gen.submitted(), fed.all_jobs().count())
        };
        let (peeked, n1, j1) = run(true);
        let (_, n2, j2) = run(false);
        assert_eq!((n1, j1), (n2, j2));
        assert!(peeked.unwrap() > SimTime::ZERO);
    }

    #[test]
    fn server_time_advances_with_load() {
        let (mut gen, mut fed) = setup();
        let mut rng = stream_rng(11, "userload");
        gen.advance_fed(SimTime::from_days(1), &mut fed, &mut rng);
        // Federation time has moved to the last submission's instant (≤ 1 day).
        assert!(fed.now() <= SimTime::from_days(1));
        assert!(fed.now() > SimTime::ZERO);
    }
}
