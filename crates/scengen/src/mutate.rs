//! Structural mutators over [`ScenarioSpec`] — the fuzzer's move set.
//!
//! Random seeds resample every dimension at once, which mostly lands in
//! the dense center of the scenario distribution. These mutators instead
//! take one structured step from a known-interesting spec: splice another
//! corpus entry's fault mix in, add or drop a cluster, re-spread the
//! topology over more or fewer sites, warp the horizon or the tick grid,
//! scale the user load, flip the scheduling mode or rollout. Each move
//! perturbs exactly the dimensions the coverage signature fingerprints,
//! so the search climbs toward unreached signatures instead of diffusing.
//!
//! Every mutant is passed through [`sanitize`], which re-imposes the
//! grammar's "lockstep is affordable" envelope (≤ 48 nodes, ≤ 1440 grid
//! instants, bounded load) — the swarm re-runs scenarios under both
//! engines, so a mutant must stay cheap enough to differential-test. The
//! envelope is the one the scenario-file validator enforces, read from
//! the same table and constants in [`crate::grammar`].

use crate::coverage::StructuralCell;
use crate::grammar::{
    default_cluster, horizon_hours, site_name, ModeDim, RolloutDim, ScenarioSpec,
    CADENCE_MENU, CORE_MENU, MAX_CLUSTERS, MAX_CRON_PERIOD_HOURS, MAX_FAULT_RATE,
    MAX_LINK_LATENCY_S, MAX_LINK_LOSS, MAX_NODES, MAX_NODES_PER_CLUSTER, MAX_PEAK_JOBS,
    MAX_ROLLOUT_PHASES, MIN_FAULT_RATE, SCALAR_AXES, TICK_MENU, VENDOR_MENU,
};
use rand::seq::SliceRandom;
use rand::Rng;
use ttt_testbed::gen::ClusterSpec;
use ttt_sim::rng::pick;
use ttt_testbed::{FaultKind, Layer, LinkModelSpec};

/// The structural moves, named so tests can assert the move set stays
/// complete and the fuzz report can say which move found a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutator {
    /// Crossover: splice the donor's fault mix into the parent's.
    SpliceFaultMix,
    /// Add a missing catalogue kind, or drop one from the mix.
    ToggleFaultKind,
    /// Multiply one kind's arrival rate up or down.
    WarpFaultRate,
    /// Grow the topology by one generated cluster.
    AddCluster,
    /// Drop one cluster (never the last).
    DropCluster,
    /// Re-spread the clusters over a new number of sites.
    WarpSites,
    /// Double, halve, or redraw the horizon.
    WarpHorizon,
    /// Pick a new decision-grid tick.
    WarpTick,
    /// Scale the user load (including to zero and toward saturation).
    WarpLoad,
    /// Flip External ↔ NaiveCron (or redraw the cron period).
    FlipMode,
    /// Cycle the rollout pattern.
    FlipRollout,
    /// Resize the CI executor pool.
    WarpExecutors,
    /// Redraw the initial fault burden and maintenance dimensions.
    WarpBurden,
    /// Redraw operator/sampling cadences and capacity.
    WarpOperator,
    /// Reseed the campaign's stochastic streams (same structure, new
    /// draws).
    Reseed,
    /// Arm or disarm buggify chaos at the IO-shaped callsites.
    ToggleBuggify,
    /// Cycle the backbone link model (Ideal → Uniform → DistanceTiered).
    WarpLinkModel,
    /// Arm or disarm the read plane's multi-tenant query workload.
    ToggleQueries,
}

impl Mutator {
    /// Every move, in a stable order (new moves append — the fuzzer's
    /// move draws index into this array).
    pub const ALL: [Mutator; 18] = [
        Mutator::SpliceFaultMix,
        Mutator::ToggleFaultKind,
        Mutator::WarpFaultRate,
        Mutator::AddCluster,
        Mutator::DropCluster,
        Mutator::WarpSites,
        Mutator::WarpHorizon,
        Mutator::WarpTick,
        Mutator::WarpLoad,
        Mutator::FlipMode,
        Mutator::FlipRollout,
        Mutator::WarpExecutors,
        Mutator::WarpBurden,
        Mutator::WarpOperator,
        Mutator::Reseed,
        Mutator::ToggleBuggify,
        Mutator::WarpLinkModel,
        Mutator::ToggleQueries,
    ];
}

/// Apply one named move to `spec` (donor supplies splice material).
fn apply<R: Rng>(m: Mutator, spec: &mut ScenarioSpec, donor: &ScenarioSpec, rng: &mut R) {
    match m {
        Mutator::SpliceFaultMix => {
            // Parent prefix + donor suffix, first occurrence of a kind wins.
            let cut = if spec.fault_mix.is_empty() {
                0
            } else {
                rng.gen_range(0..=spec.fault_mix.len())
            };
            let mut mix: Vec<(FaultKind, f64)> = spec.fault_mix[..cut].to_vec();
            for &(kind, rate) in &donor.fault_mix {
                if !mix.iter().any(|&(k, _)| k == kind) {
                    mix.push((kind, rate));
                }
            }
            spec.fault_mix = mix;
        }
        Mutator::ToggleFaultKind => {
            let missing: Vec<FaultKind> = FaultKind::ALL
                .iter()
                .copied()
                .filter(|k| !spec.fault_mix.iter().any(|&(m, _)| m == *k))
                .collect();
            let add = spec.fault_mix.is_empty() || (!missing.is_empty() && rng.gen_bool(0.5));
            if add {
                if let Some(&kind) = missing.as_slice().choose(rng) {
                    spec.fault_mix.push((kind, rng.gen_range(0.2..1.5)));
                }
            } else if !spec.fault_mix.is_empty() {
                let i = rng.gen_range(0..spec.fault_mix.len());
                spec.fault_mix.remove(i);
            }
        }
        Mutator::WarpFaultRate => {
            if !spec.fault_mix.is_empty() {
                let i = rng.gen_range(0..spec.fault_mix.len());
                let factor = pick(&[0.25, 0.5, 2.0, 4.0], rng);
                spec.fault_mix[i].1 =
                    (spec.fault_mix[i].1 * factor).clamp(MIN_FAULT_RATE, MAX_FAULT_RATE);
            }
        }
        Mutator::AddCluster => {
            let c = random_cluster(&spec.clusters, rng.gen_range(0..4usize), rng);
            spec.clusters.push(c);
        }
        Mutator::DropCluster => {
            if spec.clusters.len() > 1 {
                let i = rng.gen_range(0..spec.clusters.len());
                spec.clusters.remove(i);
            }
        }
        Mutator::WarpSites => {
            let n_sites = rng.gen_range(1..=4usize);
            for c in &mut spec.clusters {
                c.site = site_name(rng.gen_range(0..n_sites));
            }
        }
        Mutator::WarpHorizon => {
            spec.duration_hours = match rng.gen_range(0..3u32) {
                0 => spec.duration_hours * 2,
                1 => spec.duration_hours / 2,
                _ => rng.gen_range(36..=240),
            };
        }
        Mutator::WarpTick => {
            spec.tick_mins = pick(&TICK_MENU, rng);
        }
        Mutator::WarpLoad => {
            spec.peak_jobs_per_day = match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => spec.peak_jobs_per_day * 0.5,
                2 => spec.peak_jobs_per_day * 2.0 + 20.0,
                _ => rng.gen_range(0.0..MAX_PEAK_JOBS),
            };
            spec.cluster_affinity = rng.gen_range(0.2..0.9);
            spec.whole_cluster_prob = rng.gen_range(0.0..0.5);
        }
        Mutator::FlipMode => {
            spec.mode = match spec.mode {
                ModeDim::External => ModeDim::NaiveCron {
                    period_hours: rng.gen_range(2..=36),
                },
                ModeDim::NaiveCron { .. } => {
                    if rng.gen_bool(0.7) {
                        ModeDim::External
                    } else {
                        ModeDim::NaiveCron {
                            period_hours: rng.gen_range(2..=36),
                        }
                    }
                }
            };
        }
        Mutator::FlipRollout => {
            spec.rollout = match spec.rollout {
                RolloutDim::AllAtStart => RolloutDim::Staged {
                    phases: rng.gen_range(2..=4),
                },
                RolloutDim::Staged { .. } => RolloutDim::NoTesting,
                RolloutDim::NoTesting => RolloutDim::AllAtStart,
            };
            spec.per_node_hardware = rng.gen_bool(0.25);
        }
        Mutator::WarpExecutors => {
            spec.executors = rng.gen_range(1..=8);
        }
        Mutator::WarpBurden => {
            spec.initial_fault_burden = rng.gen_range(0..=8);
            spec.maintenance_per_day = if rng.gen_bool(0.5) {
                rng.gen_range(0.05..0.40)
            } else {
                0.0
            };
            spec.maintenance_spread = rng.gen_range(1..=4);
        }
        Mutator::WarpOperator => {
            spec.operator_capacity_per_week = rng.gen_range(1.0..12.0);
            spec.operator_triage_hours = rng.gen_range(4..=72);
            spec.operator_cadence_hours = pick(&CADENCE_MENU, rng);
            spec.sample_cadence_hours = pick(&CADENCE_MENU, rng);
        }
        Mutator::Reseed => {
            spec.seed = rng.gen();
        }
        Mutator::ToggleBuggify => {
            spec.buggify_rate = if spec.buggify_rate > 0.0 {
                0.0
            } else {
                pick(&[0.02, 0.05, 0.10], rng)
            };
        }
        Mutator::WarpLinkModel => {
            // Cycle, with Uniform's figures drawn fresh each time it comes
            // up — the cycle guarantees the move always changes the spec.
            spec.link_model = match spec.link_model {
                LinkModelSpec::Ideal => LinkModelSpec::Uniform {
                    latency_s: rng.gen_range(0.001..0.1),
                    loss_prob: rng.gen_range(0.0..0.2),
                },
                LinkModelSpec::Uniform { .. } => LinkModelSpec::DistanceTiered,
                LinkModelSpec::DistanceTiered => LinkModelSpec::Ideal,
            };
        }
        Mutator::ToggleQueries => {
            if spec.queries_per_day > 0.0 {
                spec.queries_per_day = 0.0;
                spec.query_users = 0;
            } else {
                spec.queries_per_day =
                    [250_000.0, 1_000_000.0, 2_000_000.0][rng.gen_range(0..3usize)];
                spec.query_users = [10_000u64, 100_000, 1_000_000][rng.gen_range(0..3usize)];
            }
        }
    }
}

/// A generated cluster whose name collides with nothing in `existing` —
/// a duplicate cluster name would duplicate node names and fail testbed
/// validation.
fn random_cluster<R: Rng>(existing: &[ClusterSpec], site: usize, rng: &mut R) -> ClusterSpec {
    let mut i = 0;
    let name = loop {
        let name = format!("swarm-m{i}");
        if existing.iter().all(|c| c.name != name) {
            break name;
        }
        i += 1;
    };
    let mut c = ClusterSpec::new(
        &name,
        &site_name(site),
        rng.gen_range(2..=8u32),
        pick(&CORE_MENU, rng),
        pick(&VENDOR_MENU, rng),
        rng.gen_bool(0.35),
        rng.gen_bool(0.40),
    );
    if rng.gen_bool(0.15) {
        c = c.with_gpu();
    }
    c
}

/// Pin `spec` onto a structural cell: the frontier move of the fuzzer.
///
/// Mode, rollout and site count (1–8; the large-scale cells ask for 8 and
/// the cluster roster is grown to match) are exact spec surgery. The fault
/// regime
/// is made *reliable*, not just plausible: a site-faults cell carries all
/// three site-scoped kinds at 2/day over ≥ 48 h (the chance none arrives
/// is ~e⁻¹²), a no-site-faults cell strips them from the mix, and a calm
/// cell removes every arrival source. The campaign seed is redrawn so a
/// retried cell replays with fresh streams instead of repeating the exact
/// campaign that missed.
pub fn pin_to_cell<R: Rng>(spec: &mut ScenarioSpec, cell: StructuralCell, rng: &mut R) {
    spec.seed = rng.gen();
    spec.mode = match (cell.mode, &spec.mode) {
        (0, _) => ModeDim::External,
        (_, ModeDim::NaiveCron { period_hours }) => ModeDim::NaiveCron {
            period_hours: *period_hours,
        },
        _ => ModeDim::NaiveCron {
            period_hours: rng.gen_range(2..=36),
        },
    };
    spec.rollout = match (cell.rollout, &spec.rollout) {
        (0, _) => RolloutDim::AllAtStart,
        (1, RolloutDim::Staged { phases }) => RolloutDim::Staged { phases: *phases },
        (1, _) => RolloutDim::Staged {
            phases: rng.gen_range(2..=4),
        },
        _ => RolloutDim::NoTesting,
    };
    let sites = (cell.sites as usize).clamp(1, MAX_CLUSTERS);
    while spec.clusters.len() < sites {
        let c = random_cluster(&spec.clusters, 0, rng);
        spec.clusters.push(c);
    }
    for (i, c) in spec.clusters.iter_mut().enumerate() {
        c.site = site_name(i % sites);
    }
    if cell.calm {
        spec.fault_mix.clear();
        spec.maintenance_per_day = 0.0;
        spec.initial_fault_burden = 0;
        spec.peak_jobs_per_day = 0.0;
    } else if cell.site_faults {
        spec.fault_mix.retain(|(k, _)| !k.is_site_fault());
        for kind in FaultKind::in_layer(Layer::Site) {
            spec.fault_mix.push((kind, 2.0));
        }
        spec.duration_hours = spec.duration_hours.max(48);
    } else {
        spec.fault_mix.retain(|(k, _)| !k.is_site_fault());
        if spec.fault_mix.is_empty() {
            // Keep the mix non-empty: arrivals must exist (the cell is not
            // calm), and an empty mix would redirect the initial burden to
            // the whole catalogue — site kinds included.
            spec.fault_mix.push((FaultKind::ConsoleDead, 1.0));
        }
    }
    // Service-chaos dimension, made reliable the same way the site-faults
    // one is: a service cell carries all three killable-process kinds at
    // 2/day with buggify armed; any other cell strips them and disarms
    // buggify so the signature classifies cleanly. No RNG draws here —
    // pre-existing cells must pin byte-identically.
    if cell.service_faults {
        spec.fault_mix
            .retain(|(k, _)| k.spec().layer != Layer::Process);
        for kind in FaultKind::in_layer(Layer::Process) {
            spec.fault_mix.push((kind, 2.0));
        }
        spec.buggify_rate = 0.05;
        spec.duration_hours = spec.duration_hours.max(48);
    } else {
        spec.fault_mix
            .retain(|(k, _)| k.spec().layer != Layer::Process);
        spec.buggify_rate = 0.0;
        if !cell.calm && spec.fault_mix.is_empty() {
            spec.fault_mix.push((FaultKind::ConsoleDead, 1.0));
        }
    }
    sanitize(spec);
}

/// Re-impose the grammar's envelope on a mutant so it stays in the
/// differential-testable regime: ≥ 1 cluster, ≤ [`MAX_NODES`] nodes, a
/// horizon of at least one tick and at most `MAX_TICKS` grid instants,
/// every scalar axis inside its [`SCALAR_AXES`] domain. What comes out is
/// exactly what the scenario-file validator accepts.
pub fn sanitize(spec: &mut ScenarioSpec) {
    if spec.clusters.is_empty() {
        spec.clusters.push(default_cluster("swarm-m0"));
    }
    spec.clusters.truncate(MAX_CLUSTERS);
    for c in &mut spec.clusters {
        c.nodes = c.nodes.clamp(1, MAX_NODES_PER_CLUSTER);
    }
    // Trim the widest clusters until the arena fits.
    while spec.node_count() > MAX_NODES {
        let Some(widest) = spec
            .clusters
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.nodes)
            .map(|(i, _)| i)
        else {
            break;
        };
        if spec.clusters.len() > 1 && spec.clusters[widest].nodes <= 2 {
            spec.clusters.remove(widest);
        } else {
            spec.clusters[widest].nodes = (spec.clusters[widest].nodes / 2).max(1);
        }
    }
    if !TICK_MENU.contains(&spec.tick_mins) {
        spec.tick_mins = TICK_MENU[0];
    }
    let horizon = horizon_hours(spec.tick_mins);
    spec.duration_hours = spec.duration_hours.clamp(*horizon.start(), *horizon.end());
    spec.fault_mix.truncate(FaultKind::ALL.len());
    for (_, rate) in &mut spec.fault_mix {
        *rate = rate.clamp(MIN_FAULT_RATE, MAX_FAULT_RATE);
    }
    if let ModeDim::NaiveCron { period_hours } = &mut spec.mode {
        *period_hours = (*period_hours).clamp(1, MAX_CRON_PERIOD_HOURS);
    }
    if let RolloutDim::Staged { phases } = &mut spec.rollout {
        *phases = (*phases).clamp(1, MAX_ROLLOUT_PHASES);
    }
    if let LinkModelSpec::Uniform {
        latency_s,
        loss_prob,
    } = &mut spec.link_model
    {
        *latency_s = latency_s.clamp(0.0, MAX_LINK_LATENCY_S);
        *loss_prob = loss_prob.clamp(0.0, MAX_LINK_LOSS);
    }
    for axis in &SCALAR_AXES {
        (axis.set)(spec, axis.sanitized((axis.get)(spec)));
    }
}

/// One fuzzing step: apply one random move (sometimes two — a coarse move
/// plus a refinement) to `parent`, splicing from `donor`, and sanitize the
/// result. Deterministic given the RNG state.
pub fn mutate<R: Rng>(parent: &ScenarioSpec, donor: &ScenarioSpec, rng: &mut R) -> ScenarioSpec {
    let mut spec = parent.clone();
    let first = pick(&Mutator::ALL, rng);
    apply(first, &mut spec, donor, rng);
    if rng.gen_bool(0.3) {
        let second = pick(&Mutator::ALL, rng);
        apply(second, &mut spec, donor, rng);
    }
    sanitize(&mut spec);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_sim::rng::stream_rng;

    #[test]
    fn mutants_stay_in_the_differential_testable_envelope() {
        let mut rng = stream_rng(7, "mutate-test");
        let mut spec = ScenarioSpec::from_seed(1);
        let donor = ScenarioSpec::from_seed(2);
        for step in 0..500 {
            spec = mutate(&spec, &donor, &mut rng);
            assert!(!spec.clusters.is_empty(), "step {step}: no clusters");
            assert!(spec.node_count() <= MAX_NODES, "step {step}: {} nodes", spec.node_count());
            let ticks = spec.duration_hours * 60 / spec.tick_mins;
            assert!(
                (1..=crate::grammar::MAX_TICKS).contains(&ticks),
                "step {step}: {ticks} grid instants"
            );
            assert!((1..=8).contains(&spec.executors), "step {step}");
            assert!(spec.peak_jobs_per_day <= MAX_PEAK_JOBS, "step {step}");
            assert!(spec.site_count() <= 8, "step {step}");
        }
    }

    #[test]
    fn mutation_is_deterministic_given_the_rng_stream() {
        let parent = ScenarioSpec::from_seed(3);
        let donor = ScenarioSpec::from_seed(4);
        let run = || {
            let mut rng = stream_rng(42, "mutate-det");
            (0..50)
                .map(|_| mutate(&parent, &donor, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn every_mutator_produces_a_change_somewhere() {
        // Each move, applied repeatedly from a fixed parent, must be able
        // to alter the spec (a dead move would silently shrink the search
        // space).
        let parent = ScenarioSpec::from_seed(5);
        let donor = ScenarioSpec::from_seed(6);
        for m in Mutator::ALL {
            let mut rng = stream_rng(9, "mutate-each");
            let changed = (0..40).any(|_| {
                let mut spec = parent.clone();
                apply(m, &mut spec, &donor, &mut rng);
                sanitize(&mut spec);
                spec != parent
            });
            assert!(changed, "{m:?} never changes the spec");
        }
    }

    #[test]
    fn large_scale_cells_pin_to_eight_sites() {
        let mut rng = stream_rng(13, "mutate-grid");
        let cells: Vec<StructuralCell> = StructuralCell::all()
            .into_iter()
            .filter(|c| c.sites == 8)
            .collect();
        // 18 large-scale cells (mode × rollout × regime) plus the 6
        // eight-site service-chaos cells appended by this catalogue rev.
        assert_eq!(cells.len(), 24, "eight-site block drifted");
        for cell in cells {
            let mut spec = ScenarioSpec::from_seed(21);
            pin_to_cell(&mut spec, cell, &mut rng);
            assert_eq!(spec.site_count(), 8, "{cell:?}");
            assert!(spec.clusters.len() >= 8, "{cell:?}");
            assert!(spec.node_count() <= MAX_NODES, "{cell:?}: {} nodes", spec.node_count());
        }
    }

    #[test]
    fn splice_never_duplicates_a_kind() {
        let mut rng = stream_rng(11, "mutate-splice");
        let parent = ScenarioSpec::from_seed(7);
        let donor = ScenarioSpec::from_seed(8);
        for _ in 0..50 {
            let mut spec = parent.clone();
            apply(Mutator::SpliceFaultMix, &mut spec, &donor, &mut rng);
            let mut kinds: Vec<FaultKind> = spec.fault_mix.iter().map(|&(k, _)| k).collect();
            kinds.sort_unstable();
            let n = kinds.len();
            kinds.dedup();
            assert_eq!(kinds.len(), n, "spliced mix repeats a kind");
        }
    }
}
