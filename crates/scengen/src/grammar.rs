//! The scenario grammar: a seeded composition of every campaign dimension.
//!
//! Any `u64` seed expands deterministically into a [`ScenarioSpec`] —
//! testbed topology (cluster count, size, heterogeneity), fault mix over
//! every [`FaultKind`], user-load and rollout patterns, scheduling mode,
//! tick grid and horizon — and a spec lowers into a runnable
//! [`CampaignConfig`]. On disk a spec is a `scenario.v1` document and
//! nothing else (see [`crate::scenario_file`]).
//!
//! The dimension bounds are deliberately small: the swarm re-runs every
//! scenario under the lockstep reference, so a scenario must stay in the
//! "lockstep is affordable" regime (≤ 48 nodes, ≤ 10 days, tick ≥ 10 min).
//! Every bound and file default is declared once, here: the scalar axes in
//! [`SCALAR_AXES`], the structural ones as [`Domain`] constants beside it.

use rand::Rng;
use std::fmt;
use ttt_core::{CampaignConfig, Rollout, SchedulingMode, TestbedScale};
use ttt_oar::userload::UserLoadConfig;
use ttt_sim::rng::{pick, stream_rng};
use ttt_sim::{SimDuration, SimTime};
use ttt_suite::Family;
use ttt_testbed::gen::ClusterSpec;
use ttt_testbed::hardware::Vendor;
use ttt_testbed::{FaultKind, InjectorConfig, Layer, LinkModelSpec};

/// Hardware and time menus shared by the seed expansion ([`ScenarioSpec::
/// from_seed`]) and the structural mutators ([`crate::mutate`]) — one
/// source of truth, so extending the grammar never desynchronizes the
/// mutants from the generator.
const CORE_MENU: [u32; 6] = [4, 8, 12, 16, 20, 24];
const VENDOR_MENU: [Vendor; 4] = [Vendor::Dell, Vendor::Hp, Vendor::Bull, Vendor::Ibm];
pub(crate) const TICK_MENU: [u64; 5] = [10, 15, 20, 30, 60];
const CADENCE_MENU: [u64; 3] = [1, 2, 4];

/// Aggregate limits of the topology, checked by the file validator and
/// imposed by [`crate::mutate::sanitize`].
pub(crate) const MAX_CLUSTERS: usize = 8;
pub(crate) const MAX_NODES: u32 = 48;
/// Grid-instant ceiling (the lockstep-affordability bound).
pub(crate) const MAX_TICKS: u64 = 1440;
pub(crate) const MAX_DURATION_HOURS: u64 = 240;
/// User-load ceiling — beyond the 100/day bare seeds draw so the fuzzer
/// can reach saturation regimes, but bounded so a campaign stays
/// differential-testable.
pub(crate) const MAX_PEAK_JOBS: f64 = 300.0;

/// The structural bounds (tick, topology, arrivals, mode, rollout, link
/// model); the horizon's depends on the tick, see [`horizon_hours`].
pub(crate) const TICK: Domain = Domain::Menu(&TICK_MENU);
pub(crate) const CLUSTER_NODES: Domain = Domain::Integer(1, 8);
pub(crate) const CORES_PER_NODE: Domain = Domain::Integer(1, 64);
pub(crate) const FAULT_RATE: Domain = Domain::Float(0.05, 6.0);
pub(crate) const CRON_PERIOD_HOURS: Domain = Domain::Integer(1, 48);
pub(crate) const ROLLOUT_PHASES: Domain = Domain::Integer(1, Family::ALL.len() as u64);
/// Latency beyond 30 s is a dead backbone pretending to be slow; loss
/// beyond 0.5 is the placement layer's unreachability cutoff.
pub(crate) const LINK_LATENCY_S: Domain = Domain::Float(0.0, 30.0);
pub(crate) const LINK_LOSS: Domain = Domain::Float(0.0, 0.5);

/// The horizons a `tick_mins` grid admits, in hours: at least one tick, at
/// most [`MAX_TICKS`] grid instants.
pub(crate) fn horizon_hours(tick_mins: u64) -> Domain {
    let hi = (MAX_TICKS.saturating_mul(tick_mins) / 60).min(MAX_DURATION_HOURS);
    Domain::Integer((tick_mins / 60).max(1), hi)
}

/// The cluster a scenario file gets when it names one and says nothing
/// else — also what [`crate::mutate::sanitize`] restores an empty
/// topology to.
pub(crate) fn default_cluster(name: &str) -> ClusterSpec {
    ClusterSpec::new(name, &site_name(0), 2, 8, Vendor::Dell, false, true)
}

/// A generated cluster on the `site`-th site: size, cores, vendor,
/// interconnect, disk checks and GPU drawn as bare seeds draw them.
pub(crate) fn draw_cluster<R: Rng>(name: &str, site: usize, rng: &mut R) -> ClusterSpec {
    let spec = ClusterSpec::new(
        name,
        &site_name(site),
        rng.gen_range(2..=8u32),
        pick(&CORE_MENU, rng),
        pick(&VENDOR_MENU, rng),
        rng.gen_bool(0.35),
        rng.gen_bool(0.40),
    );
    if rng.gen_bool(0.15) {
        spec.with_gpu()
    } else {
        spec
    }
}

/// The naive-cron mode at a drawn period.
pub(crate) fn draw_naive_cron<R: Rng>(rng: &mut R) -> ModeDim {
    ModeDim::NaiveCron {
        period_hours: rng.gen_range(2..=36),
    }
}

/// A staged rollout in a drawn number of waves.
pub(crate) fn draw_staged<R: Rng>(rng: &mut R) -> RolloutDim {
    RolloutDim::Staged {
        phases: rng.gen_range(2..=4),
    }
}

/// The values a bounded field may take: a scalar axis or one of the
/// structural bounds above.
pub(crate) enum Domain {
    /// Any float in `lo..=hi`.
    Float(f64, f64),
    /// Any integer in `lo..=hi`.
    Integer(u64, u64),
    /// One of the listed integers.
    Menu(&'static [u64]),
}

impl Domain {
    /// The legal value nearest `v`: clamped into the range, or the menu's
    /// first entry when off it. This is [`crate::mutate::sanitize`]'s
    /// repair, and `v` is legal iff it returns `v` unchanged (see
    /// [`Domain::admits`]), so the validator and `sanitize` cannot disagree.
    pub(crate) fn nearest(&self, v: f64) -> f64 {
        match *self {
            Domain::Float(lo, hi) => v.clamp(lo, hi),
            Domain::Integer(lo, hi) => v.clamp(lo as f64, hi as f64),
            Domain::Menu(menu) if menu.iter().any(|&m| m as f64 == v) => v,
            Domain::Menu(menu) => menu[0] as f64,
        }
    }

    /// Whether `v` is legal: the scenario-file validator's one rule.
    pub(crate) fn admits(&self, v: f64) -> bool {
        self.nearest(v) == v
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Float(lo, hi) => write!(f, "between {lo} and {hi}"),
            Domain::Integer(lo, hi) => write!(f, "between {lo} and {hi}"),
            Domain::Menu(menu) => write!(f, "one of {menu:?}"),
        }
    }
}

/// How a bare seed draws a scalar axis; the redraw moves of
/// [`crate::mutate`] that agree with the grammar read the same column.
pub(crate) enum Draw {
    /// Not drawn: bare seeds keep the file default, so arming the axis
    /// later never shifts another draw.
    Fixed,
    /// `gen_range(lo..hi)`.
    Float(f64, f64),
    /// `gen_range(lo..=hi)`.
    Integer(u64, u64),
    /// A fair coin between 0 and `gen_range(lo..hi)`.
    Sometimes(f64, f64),
    /// A pick from the menu.
    Pick(&'static [u64]),
}

/// One scalar axis of a [`ScenarioSpec`]: where it sits in a scenario
/// file, what an omitted key means, what values are legal, how a bare seed
/// draws it, and how to reach the field. The file parser, the emitter, the
/// unknown-key lists and [`crate::mutate::sanitize`] all iterate
/// [`SCALAR_AXES`], so a bound lives in exactly one row. Values travel as
/// `f64`: integer axes stay far below 2⁵³, so the trip is exact.
pub(crate) struct ScalarAxis {
    /// Scenario-file section (`"faults"`, `"users"`, …).
    pub section: &'static str,
    /// Key within the section.
    pub key: &'static str,
    /// Value of an omitted key.
    pub default: f64,
    pub domain: Domain,
    pub draw: Draw,
    pub get: fn(&ScenarioSpec) -> f64,
    pub set: fn(&mut ScenarioSpec, f64),
}

impl ScalarAxis {
    /// Set the axis on `spec` to a fresh draw (its default if not drawn).
    pub(crate) fn redraw<R: Rng>(&self, spec: &mut ScenarioSpec, rng: &mut R) {
        let v = match self.draw {
            Draw::Fixed => self.default,
            Draw::Float(lo, hi) => rng.gen_range(lo..hi),
            Draw::Integer(lo, hi) => rng.gen_range(lo..=hi) as f64,
            Draw::Sometimes(lo, hi) => {
                if rng.gen_bool(0.5) {
                    rng.gen_range(lo..hi)
                } else {
                    0.0
                }
            }
            Draw::Pick(menu) => pick(menu, rng) as f64,
        };
        (self.set)(spec, v);
    }
}

/// One named row per scalar axis, and [`SCALAR_AXES`] listing them in file
/// order within each section.
macro_rules! scalar_axes {
    ($($row:ident: $section:literal, $key:literal, $field:ident, $default:expr, $domain:expr, $draw:expr;)*) => {
        $(pub(crate) const $row: ScalarAxis = ScalarAxis {
            section: $section,
            key: $key,
            default: $default,
            domain: $domain,
            draw: $draw,
            get: |s| s.$field as f64,
            set: |s, v| s.$field = v as _,
        };)*
        /// Every scalar axis: section, key, field, file default, legal
        /// values, bare-seed draw.
        pub(crate) const SCALAR_AXES: [ScalarAxis; [$(stringify!($row)),*].len()] = [$($row),*];
    };
}

#[rustfmt::skip] // one row per axis
scalar_axes! {
    MAINTENANCE_PER_DAY: "faults", "maintenance_per_day", maintenance_per_day, 0.0, Domain::Float(0.0, 1.0), Draw::Sometimes(0.05, 0.40);
    MAINTENANCE_SPREAD: "faults", "maintenance_spread", maintenance_spread, 1.0, Domain::Integer(1, 4), Draw::Integer(1, 4);
    INITIAL_BURDEN: "faults", "initial_burden", initial_fault_burden, 0.0, Domain::Integer(0, 8), Draw::Integer(0, 8);
    PEAK_JOBS: "users", "peak_jobs_per_day", peak_jobs_per_day, 0.0, Domain::Float(0.0, MAX_PEAK_JOBS), Draw::Float(0.0, 100.0);
    CLUSTER_AFFINITY: "users", "cluster_affinity", cluster_affinity, 0.5, Domain::Float(0.0, 1.0), Draw::Float(0.2, 0.9);
    WHOLE_CLUSTER: "users", "whole_cluster_prob", whole_cluster_prob, 0.1, Domain::Float(0.0, 0.5), Draw::Float(0.0, 0.25);
    EXECUTORS: "scheduling", "executors", executors, 4.0, Domain::Integer(1, 8), Draw::Integer(2, 8);
    OPERATOR_CAPACITY: "operators", "capacity_per_week", operator_capacity_per_week, 5.0, Domain::Float(0.5, 20.0), Draw::Float(1.0, 12.0);
    OPERATOR_TRIAGE: "operators", "triage_hours", operator_triage_hours, 24.0, Domain::Integer(1, 96), Draw::Integer(4, 72);
    OPERATOR_CADENCE: "operators", "cadence_hours", operator_cadence_hours, 1.0, Domain::Menu(&CADENCE_MENU), Draw::Pick(&CADENCE_MENU);
    SAMPLE_CADENCE: "sampling", "cadence_hours", sample_cadence_hours, 1.0, Domain::Menu(&CADENCE_MENU), Draw::Pick(&CADENCE_MENU);
    BUGGIFY: "chaos", "buggify_rate", buggify_rate, 0.0, Domain::Float(0.0, 0.25), Draw::Fixed;
    QUERIES_PER_DAY: "queries", "per_day", queries_per_day, 0.0, Domain::Float(0.0, 10_000_000.0), Draw::Fixed;
    QUERY_USERS: "queries", "users", query_users, 0.0, Domain::Integer(0, 10_000_000), Draw::Fixed;
}

/// Canonical name of the i-th generated site (clusters reference sites by
/// name; the shrinker's single-site collapse and the mutators' site
/// re-spread must agree with the generator on this scheme).
pub(crate) fn site_name(i: usize) -> String {
    format!("swarm-s{i}")
}

/// Scheduling-mode dimension.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ModeDim {
    /// The paper's external scheduler.
    #[default]
    External,
    /// The naive Jenkins-cron baseline with the given period.
    NaiveCron {
        /// Cron period, hours.
        period_hours: u64,
    },
}

/// Rollout dimension.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RolloutDim {
    /// Every family active from t=0.
    #[default]
    AllAtStart,
    /// Families staged in `phases` evenly-spaced waves over the first half
    /// of the horizon ("tests still being added", slide 23).
    Staged {
        /// Number of waves (≥ 1).
        phases: usize,
    },
    /// The no-testing baseline: faults accumulate silently.
    NoTesting,
}

/// A fully-expanded scenario: every campaign dimension pinned.
///
/// The spec is the replayable artifact — it serializes as a `scenario.v1`
/// document (the hand-written `Serialize`/`Deserialize` impls live in
/// [`crate::scenario_file`]), lowers to a [`CampaignConfig`] via
/// [`ScenarioSpec::campaign_config`], and is what the shrinker mutates
/// when minimizing a failure.
///
/// `Default` is the blank both constructors start from (no clusters, a
/// zero tick): it is not a runnable spec until they fill it in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed (drives both the expansion and the campaign's streams).
    pub seed: u64,
    /// Generated topology (lowered via [`TestbedScale::Custom`]).
    pub clusters: Vec<ClusterSpec>,
    /// Campaign horizon, hours.
    pub duration_hours: u64,
    /// Decision-grid tick, minutes.
    pub tick_mins: u64,
    /// CI executor pool size.
    pub executors: usize,
    /// Fault mix: `(kind, events/day)` over any subset of the catalogue.
    pub fault_mix: Vec<(FaultKind, f64)>,
    /// Correlated maintenance events per day.
    pub maintenance_per_day: f64,
    /// Nodes touched per maintenance event (upper bound).
    pub maintenance_spread: usize,
    /// Faults pre-applied at t=0.
    pub initial_fault_burden: usize,
    /// Synthetic user load: peak jobs per day.
    pub peak_jobs_per_day: f64,
    /// User cluster affinity (0..1).
    pub cluster_affinity: f64,
    /// Probability a user job requests a whole cluster.
    pub whole_cluster_prob: f64,
    /// Scheduling mode.
    pub mode: ModeDim,
    /// Family rollout pattern.
    pub rollout: RolloutDim,
    /// Per-node hardware-test ablation (slide 23's open question).
    pub per_node_hardware: bool,
    /// Operator fixing capacity, bugs per week.
    pub operator_capacity_per_week: f64,
    /// Operator triage delay, hours.
    pub operator_triage_hours: u64,
    /// Operator-model cadence, hours.
    pub operator_cadence_hours: u64,
    /// Utilization-sampling cadence, hours.
    pub sample_cadence_hours: u64,
    /// Buggify rate for IO-shaped callsites (0.0 = off). Bare-seed
    /// expansion always leaves this off; the service-chaos cells and the
    /// `ToggleBuggify` mutator arm it.
    pub buggify_rate: f64,
    /// Backbone link model (Ideal = the historical free backbone).
    /// Bare-seed expansion always leaves this ideal; the `WarpLinkModel`
    /// mutator and hand-written scenario files select the others.
    pub link_model: LinkModelSpec,
    /// Read-plane query volume, queries per simulated day (0.0 = the read
    /// plane stays disarmed). Bare-seed expansion always leaves this off;
    /// the `ToggleQueries` mutator and scenario files arm it.
    pub queries_per_day: f64,
    /// Distinct simulated query users behind that volume.
    pub query_users: u64,
}

impl ScenarioSpec {
    /// Expand `seed` into a scenario. Deterministic: the same seed always
    /// yields the same spec (its own RNG stream, disjoint from every
    /// campaign stream).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = stream_rng(seed, "scengen");

        // Topology: 1–4 sites, 2–6 clusters, 2–8 nodes each, mixed
        // vendors/interconnects — the heterogeneity the paper blames for
        // many of its bugs, in miniature. The multi-site dimension is what
        // exposes the federated scheduler (per-site OAR domains, spillover,
        // site outages/partitions/skew from the fault mix) to the swarm.
        let n_sites = rng.gen_range(1..=4usize);
        let n_clusters = rng.gen_range(2..=6usize);
        let clusters: Vec<ClusterSpec> = (0..n_clusters)
            .map(|i| {
                let site = rng.gen_range(0..n_sites);
                draw_cluster(&format!("swarm-c{i}"), site, &mut rng)
            })
            .collect();

        // Time dimensions.
        let duration_hours = rng.gen_range(36..=240u64);
        let tick_mins = pick(&TICK_MENU, &mut rng);

        // Fault mix: each catalogue entry joins with p=½; rates are high
        // relative to the paper (tiny testbed, short horizon) so scenarios
        // actually accumulate faults. Only the legacy prefix of the
        // catalogue is drawn here — bare-seed expansion is append-frozen so
        // every historical seed keeps its spec byte-for-byte. The
        // service-process kinds enter scenarios through the structural
        // cells and the `ToggleFaultKind` mutator instead.
        let fault_mix: Vec<(FaultKind, f64)> = FaultKind::legacy()
            .filter_map(|kind| {
                // Draw the rate unconditionally so inclusion of one kind
                // never shifts another kind's draw.
                let rate = rng.gen_range(0.2..1.5);
                rng.gen_bool(0.5).then_some((kind, rate))
            })
            .collect();

        // The link model stays ideal and every `Draw::Fixed` axis keeps its
        // default (buggify and the read plane off): arming them on bare
        // seeds would shift every later draw. The rest is drawn in the
        // order bare seeds always have, so every seed keeps its spec.
        let mut spec = ScenarioSpec {
            seed,
            clusters,
            duration_hours,
            tick_mins,
            fault_mix,
            ..ScenarioSpec::default()
        };
        MAINTENANCE_PER_DAY.redraw(&mut spec, &mut rng);
        spec.mode = if rng.gen_bool(0.7) {
            ModeDim::External
        } else {
            draw_naive_cron(&mut rng)
        };
        spec.rollout = match rng.gen_range(0..10u32) {
            0..=5 => RolloutDim::AllAtStart,
            6..=8 => draw_staged(&mut rng),
            _ => RolloutDim::NoTesting,
        };
        for axis in [
            EXECUTORS,
            MAINTENANCE_SPREAD,
            INITIAL_BURDEN,
            PEAK_JOBS,
            CLUSTER_AFFINITY,
            WHOLE_CLUSTER,
        ] {
            axis.redraw(&mut spec, &mut rng);
        }
        spec.per_node_hardware = rng.gen_bool(0.25);
        for axis in [
            OPERATOR_CAPACITY,
            OPERATOR_TRIAGE,
            OPERATOR_CADENCE,
            SAMPLE_CADENCE,
            BUGGIFY,
            QUERIES_PER_DAY,
            QUERY_USERS,
        ] {
            axis.redraw(&mut spec, &mut rng);
        }
        spec
    }

    /// Whether the fault mix contains any service-process kind (crash,
    /// bounded restart, RPC degradation) or buggify is armed — the
    /// service-chaos dimension of the scenario.
    // detlint: allow(pub-fn-only-tests-call) -- the swarm tests classify scenarios by it
    pub fn has_service_faults(&self) -> bool {
        self.buggify_rate > 0.0
            || self
                .fault_mix
                .iter()
                .any(|&(k, _)| k.spec().layer == Layer::Process)
    }

    /// Total node count of the generated topology.
    pub fn node_count(&self) -> u32 {
        self.clusters.iter().map(|c| c.nodes).sum()
    }

    /// Number of distinct sites the generated topology spans.
    pub fn site_count(&self) -> usize {
        let mut sites: Vec<&str> = self.clusters.iter().map(|c| c.site.as_str()).collect();
        sites.sort_unstable();
        sites.dedup();
        sites.len()
    }

    /// Whether the fault mix contains any site-scoped kind (outage,
    /// partition, skew) — the inter-site dimension of the scenario.
    // detlint: allow(pub-fn-only-tests-call) -- the swarm tests classify scenarios by it
    pub fn has_site_faults(&self) -> bool {
        self.fault_mix.iter().any(|&(k, _)| k.is_site_fault())
    }

    /// The campaign horizon as a duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_hours(self.duration_hours)
    }

    /// The family rollout this spec describes, with staged waves evenly
    /// spaced over the first half of the horizon.
    pub fn rollout(&self) -> Rollout {
        match self.rollout {
            RolloutDim::AllAtStart => Rollout::all_at_start(),
            RolloutDim::NoTesting => Rollout { phases: vec![] },
            RolloutDim::Staged { phases } => {
                let phases = phases.max(1);
                let wave_len = Family::ALL.len().div_ceil(phases);
                let gap_hours = (self.duration_hours / 2).max(1) / phases as u64;
                Rollout {
                    phases: Family::ALL
                        .chunks(wave_len)
                        .enumerate()
                        .map(|(i, wave)| {
                            (
                                SimTime::from_hours(i as u64 * gap_hours.max(1)),
                                wave.to_vec(),
                            )
                        })
                        .collect(),
                }
            }
        }
    }

    /// Lower the spec into a runnable campaign configuration.
    pub fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            seed: self.seed,
            scale: TestbedScale::Custom(self.clusters.clone()),
            duration: self.duration(),
            tick: SimDuration::from_mins(self.tick_mins),
            operator_cadence: SimDuration::from_hours(self.operator_cadence_hours),
            sample_cadence: SimDuration::from_hours(self.sample_cadence_hours),
            executors: self.executors,
            injector: InjectorConfig {
                rates_per_day: self.fault_mix.clone(),
                maintenance_per_day: self.maintenance_per_day,
                maintenance_spread: self.maintenance_spread,
            },
            initial_fault_burden: self.initial_fault_burden,
            user_load: UserLoadConfig {
                peak_jobs_per_day: self.peak_jobs_per_day,
                cluster_affinity: self.cluster_affinity,
                whole_cluster_prob: self.whole_cluster_prob,
            },
            mode: match self.mode {
                ModeDim::External => SchedulingMode::External,
                ModeDim::NaiveCron { period_hours } => SchedulingMode::NaiveCron {
                    period: SimDuration::from_hours(period_hours),
                },
            },
            operator_capacity_per_week: self.operator_capacity_per_week,
            operator_triage: SimDuration::from_hours(self.operator_triage_hours),
            rollout: self.rollout(),
            per_node_hardware: self.per_node_hardware,
            buggify_rate: self.buggify_rate,
            link_model: self.link_model,
            queries_per_day: self.queries_per_day,
            query_users: self.query_users,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(ScenarioSpec::from_seed(seed), ScenarioSpec::from_seed(seed));
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(ScenarioSpec::from_seed(1), ScenarioSpec::from_seed(2));
    }

    #[test]
    fn specs_stay_in_the_lockstep_affordable_regime() {
        for seed in 0..200u64 {
            let s = ScenarioSpec::from_seed(seed);
            assert!((2..=6).contains(&s.clusters.len()), "seed {seed}");
            assert!(s.node_count() <= 48, "seed {seed}: {} nodes", s.node_count());
            assert!((36..=240).contains(&s.duration_hours), "seed {seed}");
            assert!(s.tick_mins >= 10, "seed {seed}");
            // Lockstep cost bound: grid instants per campaign.
            let ticks = s.duration_hours * 60 / s.tick_mins;
            assert!(ticks <= 1440, "seed {seed}: {ticks} ticks");
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ScenarioSpec::from_seed(7);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // The serde form IS the scenario file, compactly printed.
        let file = serde_json::to_string(&crate::to_scenario_value(&spec)).unwrap();
        assert_eq!(json, file);
        assert!(json.starts_with("{\"format\":\"scenario.v1\""));
    }

    #[test]
    fn lowering_honours_the_spec() {
        let spec = ScenarioSpec::from_seed(11);
        let cfg = spec.campaign_config();
        assert_eq!(cfg.seed, 11);
        assert_eq!(cfg.duration, spec.duration());
        assert_eq!(cfg.executors, spec.executors);
        assert_eq!(cfg.injector.rates_per_day, spec.fault_mix);
        match &cfg.scale {
            TestbedScale::Custom(specs) => assert_eq!(specs, &spec.clusters),
            other => panic!("expected custom scale, got {other:?}"),
        }
    }

    #[test]
    fn staged_rollout_waves_cover_every_family() {
        let mut spec = ScenarioSpec::from_seed(3);
        spec.rollout = RolloutDim::Staged { phases: 3 };
        let rollout = spec.rollout();
        assert_eq!(rollout.phases.len(), 3);
        let families: Vec<Family> = rollout
            .phases
            .iter()
            .flat_map(|(_, fs)| fs.iter().copied())
            .collect();
        assert_eq!(families.len(), Family::ALL.len());
    }
}
