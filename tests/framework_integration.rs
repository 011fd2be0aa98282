//! Cross-crate integration: campaign-level invariants that no single crate
//! can check alone.

use throughout::core::{Campaign, CampaignConfig, SchedulingMode, TestbedScale};
use throughout::sim::{SimDuration, SimTime};
use throughout::status::{success_series, StatusGrid};

#[test]
fn campaign_preserves_testbed_invariants() {
    // Months of faults, repairs and deployments must leave the testbed
    // structurally sound (cross-references, wattmeter bijection, names).
    let mut c = Campaign::new(CampaignConfig::small(100));
    c.run();
    throughout::testbed::validate(c.testbed()).expect("testbed invariants");
}

#[test]
fn ci_history_agrees_with_campaign_metrics() {
    let mut c = Campaign::new(CampaignConfig::small(101));
    c.run();
    let finished: u64 = c
        .ci()
        .all_history()
        .map(|history| history.finished().count() as u64)
        .sum();
    let m = c.metrics();
    // Every completed test and every unstable build is a finished CI build.
    assert_eq!(finished, m.tests_run + m.unstable_builds);
}

#[test]
fn status_grid_matches_success_ratio() {
    let mut c = Campaign::new(CampaignConfig::small(102));
    let hub = c.arm_snapshots();
    c.run();
    // The grid is a read-plane consumer now: render from the final
    // published epoch, which samples exactly at the campaign's end.
    let snap = hub.latest().expect("armed campaign publishes snapshots");
    let grid = StatusGrid::from_jobs(&snap.jobs);
    let m = c.metrics();
    // The grid counts unstable builds too; both ratios must land in the
    // same ballpark and the grid can never exceed the test-only ratio.
    assert!(grid.overall_ratio() <= m.success_ratio() + 1e-9);
    assert!(grid.overall_ratio() > 0.3);
}

#[test]
fn every_filed_bug_has_a_plausible_signature() {
    let mut c = Campaign::new(CampaignConfig::small(103));
    c.run();
    for bug in c.tracker().bugs() {
        assert!(
            !bug.signature.subject.is_empty(),
            "free-floating signature: {}",
            bug.signature
        );
        assert!(bug.reports >= 1);
        assert!(bug.last_seen >= bug.first_seen);
    }
}

#[test]
fn fixed_bugs_faults_are_gone() {
    let mut cfg = CampaignConfig::small(104);
    cfg.injector = throughout::testbed::InjectorConfig::quiescent();
    cfg.initial_fault_burden = 5;
    cfg.duration = SimDuration::from_days(28);
    cfg.operator_capacity_per_week = 10.0;
    let mut c = Campaign::new(cfg);
    c.run();
    // With no new arrivals and ample operator capacity, every detected
    // fault should eventually be repaired.
    for bug in c.tracker().bugs() {
        if bug.state == throughout::bugs::BugState::Fixed {
            assert!(
                throughout::testbed::find_fault(c.testbed(), &bug.signature).is_none(),
                "fixed bug {} still has an active fault",
                bug.signature
            );
        }
    }
    assert!(c.tracker().fixed() > 0);
}

#[test]
fn success_rate_improves_on_a_decaying_fault_burden() {
    // The E9 mechanism in miniature: initial burden, no new faults,
    // operators fixing → later weeks beat the first week.
    let mut cfg = CampaignConfig::small(105);
    cfg.injector = throughout::testbed::InjectorConfig::quiescent();
    cfg.initial_fault_burden = 6;
    cfg.duration = SimDuration::from_days(28);
    cfg.operator_capacity_per_week = 6.0;
    let mut c = Campaign::new(cfg);
    c.run();
    let weekly = c.metrics().weekly_success.means();
    assert!(weekly.len() >= 3, "need several weeks: {weekly:?}");
    let first = weekly.first().unwrap().1;
    let last = weekly.last().unwrap().1;
    assert!(
        last >= first,
        "success rate should not degrade: {first:.2} -> {last:.2}"
    );
}

#[test]
fn naive_mode_holds_executors_longer() {
    let run = |mode| {
        let mut cfg = CampaignConfig::small(106);
        cfg.mode = mode;
        cfg.duration = SimDuration::from_days(10);
        cfg.user_load.peak_jobs_per_day = 80.0;
        let mut c = Campaign::new(cfg);
        c.run();
        c.metrics().executor_busy.mean()
    };
    let external = run(SchedulingMode::External);
    let naive = run(SchedulingMode::NaiveCron {
        period: SimDuration::from_days(1),
    });
    // The blocking baseline keeps executors busier per completed test.
    assert!(
        naive >= external,
        "naive {naive:.3} should be >= external {external:.3}"
    );
}

#[test]
fn success_series_from_live_histories_is_populated() {
    let mut c = Campaign::new(CampaignConfig::small(107));
    c.run_until(SimTime::from_days(7));
    let series = success_series(&c.ci().freeze_history(), SimDuration::from_days(1));
    assert!(!series.means().is_empty());
    for (_, mean) in series.means() {
        assert!((0.0..=1.0).contains(&mean));
    }
}

#[test]
fn degenerate_configurations_run_to_the_horizon() {
    // Two public configurations with nothing to do: a topology with no
    // cluster, and a CI server with no executor. Both are idle campaigns,
    // under either launch policy.
    let cron = SchedulingMode::NaiveCron {
        period: SimDuration::from_days(1),
    };
    for mode in [SchedulingMode::External, cron] {
        let mut empty = CampaignConfig::small(108);
        empty.scale = TestbedScale::Custom(vec![]);
        empty.mode = mode;
        let mut starved = CampaignConfig::small(108);
        starved.executors = 0;
        starved.mode = mode;
        for cfg in [empty, starved] {
            let end = SimTime::ZERO + cfg.duration;
            let mut c = Campaign::new(cfg);
            c.record_events();
            c.arm_snapshots();
            c.run();
            assert_eq!(c.now(), end);
            // (Testbed-wide tests may still be launched on the empty
            // topology; they find no resources and end unstable.)
            let m = c.metrics();
            assert_eq!(m.tests_run, 0);
            assert_eq!(m.executor_busy.mean(), 0.0);
            assert!(m.oar_utilization.mean().is_finite());
        }
    }
}
