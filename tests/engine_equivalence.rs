//! Engine equivalence: the next-event driver (`Campaign::run`) must
//! produce bit-identical campaigns to the lockstep reference
//! (`Campaign::run_lockstep`) — same seeds, same metrics, same tracker
//! counts, same scheduler decisions. It earns this by processing exactly
//! the grid instants where something is due.
//!
//! The observable state is captured by `scengen`'s [`CampaignDigest`]
//! (floats taken bitwise, so "identical" means identical); the scenario
//! swarm (`tests/scenario_swarm.rs`) extends the same check from these
//! hand-written scenarios to the whole generated grammar.

use throughout::core::campaign::PHASES;
use throughout::core::{Campaign, CampaignConfig, Rollout, SchedulingMode};
use throughout::scengen::CampaignDigest;
use throughout::sim::{SimDuration, SimTime};
use throughout::suite::Family;

fn run(cfg: CampaignConfig, drive: fn(&mut Campaign)) -> CampaignDigest {
    let mut c = Campaign::new(cfg);
    drive(&mut c);
    CampaignDigest::capture(&c)
}

/// Equivalence is judged by [`CampaignDigest::diff`]: every observable
/// except the wake-reason mix, which only the next-event driver
/// produces.
fn assert_equivalent(reference: &CampaignDigest, other: &CampaignDigest, label: &str) {
    let diverging = other.diff(reference);
    assert!(diverging.is_empty(), "{label} diverged on {diverging:?}");
}

/// Run both drivers on `cfg` and require bit-identity. Returns the
/// next-event digest for extra scenario-specific assertions.
fn assert_engines_agree(cfg: CampaignConfig, label: &str) -> CampaignDigest {
    let event = run(cfg.clone(), Campaign::run);
    let lockstep = run(cfg, Campaign::run_lockstep);
    assert_equivalent(&event, &lockstep, &format!("{label}: Lockstep"));
    event
}

#[test]
fn small_campaign_identical_across_engines_and_seeds() {
    for seed in [7, 42, 1234] {
        let event = assert_engines_agree(CampaignConfig::small(seed), &format!("seed {seed}"));
        assert!(event.tests_run > 0, "seed {seed} ran nothing");
    }
}

#[test]
fn small_naive_mode_identical_across_engines() {
    for seed in [3, 99] {
        let mut cfg = CampaignConfig::small(seed);
        cfg.mode = SchedulingMode::NaiveCron {
            period: SimDuration::from_days(1),
        };
        cfg.duration = SimDuration::from_days(6);
        let event = assert_engines_agree(cfg, &format!("naive seed {seed}"));
        assert!(event.tests_run > 0);
    }
}

#[test]
fn paper_scale_scheduling_scenario_identical_across_engines() {
    // The scheduling scenario, shortened: paper-scale 8-site testbed, external
    // scheduler, heavy user load.
    for seed in [7, 42] {
        let mut cfg =
            throughout::core::scenario::scheduling_scenario(seed, SchedulingMode::External);
        cfg.duration = SimDuration::from_days(1);
        let event = assert_engines_agree(cfg, &format!("paper-scale seed {seed}"));
        assert!(event.tests_run > 0);
    }
}

/// Forced co-allocation: a two-site grid world whose only active family is
/// kavlan, so the global-VLAN configuration (one node on each of two
/// sites, `oargridsub`-style) dominates the run. A co-allocated test holds
/// resources on two sites but completes once, on its primary site.
#[test]
fn forced_co_allocation_identical_across_engines() {
    let mut cfg = throughout::core::scenario::grid_of_grids_scenario(11, 2);
    cfg.duration = SimDuration::from_days(2);
    cfg.rollout = Rollout {
        phases: vec![(SimTime::ZERO, vec![Family::Kavlan])],
    };
    let event = assert_engines_agree(cfg, "forced co-allocation");
    assert!(event.tests_run > 0, "kavlan-only campaign ran nothing");
    assert!(
        event.co_allocations > 0,
        "the global-VLAN configuration never co-allocated"
    );
    assert_eq!(
        event.per_site_completions.iter().sum::<u64>(),
        event.tests_run,
        "per-site completion tally lost or double-counted a test"
    );
}

/// Heavy service chaos: a multi-site campaign where the
/// service-process kinds arrive several times a day and buggify fires at
/// a high rate must still be bit-identical across both engines —
/// crash/restart applications draw RNG, the restart wake term must fire
/// at the same instants, and the hashed buggify decisions must not
/// depend on which instants an engine visits. The digest
/// includes the per-service chaos ledger, so a single divergent dropped
/// call fails the diff.
#[test]
fn service_chaos_identical_across_engines() {
    use throughout::testbed::Layer;
    for seed in [5, 77] {
        let mut cfg = throughout::core::scenario::grid_of_grids_scenario(seed, 3);
        cfg.duration = SimDuration::from_days(3);
        cfg.buggify_rate = 0.10;
        for (kind, rate) in &mut cfg.injector.rates_per_day {
            if kind.spec().layer == Layer::Process {
                *rate = 3.0;
            }
        }
        let event = assert_engines_agree(cfg, &format!("service chaos seed {seed}"));
        assert!(event.tests_run > 0, "seed {seed} ran nothing");
        assert!(
            !event.service_processes.is_empty(),
            "seed {seed}: chaos ledger stayed empty at 3 arrivals/day"
        );
    }
}

/// The read plane rides the same determinism contract: with the query
/// workload armed, both engines must publish the identical snapshot
/// sequence (captured as a running fold over every published epoch) and
/// execute the identical query mix (same issued/executed counts, same
/// answer fold) — snapshots are taken at the sample-cadence instants,
/// which both engines hit exactly.
#[test]
fn armed_query_plane_identical_across_engines() {
    for seed in [7, 42] {
        let mut cfg = CampaignConfig::small(seed);
        cfg.queries_per_day = 50_000.0;
        cfg.query_users = 100_000;
        let mut folds = Vec::new();
        let drivers: [fn(&mut Campaign); 2] = [Campaign::run, Campaign::run_lockstep];
        for drive in drivers {
            let mut campaign = Campaign::new(cfg.clone());
            drive(&mut campaign);
            let hub = campaign
                .snapshot_hub()
                .expect("armed campaign has a snapshot hub");
            folds.push((
                campaign.snapshot_fold(),
                campaign.query_stats(),
                hub.published(),
            ));
        }
        assert!(folds[0].2 > 0, "seed {seed}: no snapshots published");
        assert!(folds[0].1.executed > 0, "seed {seed}: no queries executed");
        assert_eq!(folds[0], folds[1], "seed {seed}: Lockstep read plane diverged");
    }
}

#[test]
fn digest_diff_names_the_diverging_fields() {
    let a = run(CampaignConfig::small(7), Campaign::run);
    let mut b = a.clone();
    assert!(a.diff(&b).is_empty());
    b.tests_run += 1;
    b.filed += 1;
    assert_eq!(a.diff(&b), vec!["tests_run", "filed"]);
}

#[test]
fn partial_advance_matches_single_run() {
    // Driving either driver in several legs lands on the same grid and
    // the same outcome as one shot.
    let cfg = CampaignConfig::small(5);
    let mut a = Campaign::new(cfg.clone());
    a.run();
    let mut b = Campaign::new(cfg.clone());
    let mut c = Campaign::new(cfg);
    for day in [2u64, 5, 7] {
        b.run_until(SimTime::from_days(day));
        c.run_lockstep_until(SimTime::from_days(day));
    }
    b.run();
    c.run_lockstep();
    for legs in [&b, &c] {
        assert_eq!(a.metrics().tests_run, legs.metrics().tests_run);
        assert_eq!(a.tracker().filed(), legs.tracker().filed());
        assert_eq!(a.tracker().fixed(), legs.tracker().fixed());
    }
}

/// The event stream and digest, pinned across commits (engine equivalence
/// above only compares two drivers within one). Three small worlds: the
/// `chaos_week` recipe cut to two days (External), and the cron baseline
/// under a staged rollout (a 12 h period, so configurations of different
/// phases come due in one pass: cron fires them in suite order, the
/// external scheduler in rollout-add order, and the order is
/// digest-visible) and under an all-at-start rollout with enough user load
/// that builds block on their testbed job. Each runs silent and with the
/// phase clock armed: host time must reach neither digest nor log.
/// To regenerate after an intended behaviour change, run with
/// `-- --nocapture` and copy the three printed folds.
#[test]
fn golden_event_stream_is_pinned_across_commits() {
    use throughout::testbed::LinkModelSpec;
    let naive = |period_hours: u64, rollout: Rollout| {
        let mut cfg = CampaignConfig::small(21);
        cfg.mode = SchedulingMode::NaiveCron {
            period: SimDuration::from_hours(period_hours),
        };
        cfg.duration = SimDuration::from_days(6);
        cfg.rollout = rollout;
        cfg
    };
    let mut chaos = throughout::core::scenario::multi_site_scenario(2017);
    chaos.duration = SimDuration::from_days(2);
    chaos.tick = SimDuration::from_mins(1);
    chaos.buggify_rate = 0.10;
    chaos.link_model = LinkModelSpec::DistanceTiered;
    let mut staged = Rollout::staged();
    for (day, phase) in (0u64..).zip(&mut staged.phases) {
        phase.0 = SimTime::from_days(day);
    }
    let mut contended = naive(24, Rollout::all_at_start());
    contended.user_load.peak_jobs_per_day = 80.0;
    contended.user_load.whole_cluster_prob = 0.2;
    contended.initial_fault_burden = 12;
    let worlds = [
        ("chaos-2d", chaos),
        ("naive-staged", naive(12, staged)),
        ("naive-all-at-start", contended),
    ];
    for clocked in [false, true] {
        let folds = worlds.clone().map(|(label, cfg)| {
            let mut c = Campaign::new(cfg);
            c.record_events();
            if clocked {
                c.clock_phases();
            }
            c.run();
            let phases: Vec<&str> = c.phase_wall().map(|(name, _)| name).collect();
            let expected = if clocked { PHASES.map(|p| p.0).to_vec() } else { vec![] };
            assert_eq!(phases, expected, "{label}");
            assert_eq!(c.phase_wall().any(|(_, wall)| !wall.is_zero()), clocked, "{label}");
            let log = c.take_event_log().expect("recording was armed");
            let text = format!("{:?}", (CampaignDigest::capture(&c), log));
            let fold = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            }) & 0xffff_ffff_ffff;
            println!("{label}: {fold:#x}");
            fold
        });
        assert_eq!(
            folds,
            [0x5efa_df57_5d03, 0x53b2_d849_adfb, 0xb4fb_0d30_e0bd],
            "a digest or an event log moved (phase clock armed: {clocked})"
        );
    }
}
