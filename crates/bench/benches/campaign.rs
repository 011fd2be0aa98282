//! Experiments E8/E9 (slides 22–23): end-to-end campaign throughput.
//!
//! Full paper-scale months are example territory (`examples/longitudinal`);
//! here we measure the cost of campaign days so regressions in the
//! orchestration loop show up.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use ttt_core::scenario::scheduling_scenario;
use ttt_core::{Campaign, CampaignConfig, Engine, SchedulingMode};
use ttt_sim::SimDuration;

fn bench_small_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/small");
    group.sample_size(10);
    group.bench_function("small_testbed_10_days", |b| {
        b.iter_batched(
            || CampaignConfig::small(42),
            |cfg| {
                let mut campaign = Campaign::new(cfg);
                campaign.run();
                black_box(campaign.metrics().tests_run)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_paper_scale_day(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/paper_scale");
    group.sample_size(10);
    for (name, engine) in [
        ("one_day", Engine::NextEvent),
        ("one_day_lockstep", Engine::Lockstep),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cfg = scheduling_scenario(42, SchedulingMode::External);
                    cfg.duration = SimDuration::from_days(1);
                    cfg.engine = engine;
                    cfg
                },
                |cfg| {
                    let mut campaign = Campaign::new(cfg);
                    campaign.run();
                    black_box(campaign.metrics().tests_run)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_multi_site_day(c: &mut Criterion) {
    // The federation acceptance bench: the 8-site paper testbed with
    // site-scoped faults (outages, partitions, skew) arriving aggressively
    // — per-site queues, failover and spillover on the hot path, on a
    // one-minute decision grid (site failures deserve minute-level
    // detection latency). The next-event engine must stay no slower than
    // lockstep here: its wake computation now spans every site's queues,
    // while lockstep grinds all 1440 grid instants.
    let mut group = c.benchmark_group("campaign/multi_site");
    group.sample_size(10);
    for (name, engine) in [
        ("one_day", Engine::NextEvent),
        ("one_day_lockstep", Engine::Lockstep),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cfg = ttt_core::scenario::multi_site_scenario(42);
                    cfg.duration = SimDuration::from_days(1);
                    cfg.tick = SimDuration::from_mins(1);
                    cfg.engine = engine;
                    cfg
                },
                |cfg| {
                    let mut campaign = Campaign::new(cfg);
                    campaign.run();
                    black_box(campaign.metrics().tests_run)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_grid_of_grids(c: &mut Criterion) {
    // The scale-out bench: a 64-site grid-of-grids federation (128
    // clusters, 1024 nodes) over one day: federation width (placement
    // walks, per-domain advance, dirty-node sync) on the hot path.
    let mut group = c.benchmark_group("campaign/grid_of_grids");
    group.sample_size(10);
    group.bench_function("64_sites_one_day", |b| {
        b.iter_batched(
            || {
                let mut cfg = ttt_core::scenario::grid_of_grids_scenario(42, 64);
                cfg.duration = SimDuration::from_days(1);
                cfg
            },
            |cfg| {
                let mut campaign = Campaign::new(cfg);
                campaign.run();
                black_box(campaign.metrics().tests_run)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_quiet_month(c: &mut Criterion) {
    // The next-event engine's home turf: a quiet paper-scale month (no
    // tests, no faults, no users) on a fine one-minute decision grid. The
    // lockstep engine grinds through 43 200 ticks; the next-event engine
    // wakes only on metric/operator cadences — its cost is independent of
    // tick resolution.
    let mut group = c.benchmark_group("campaign/quiet_month");
    group.sample_size(10);
    for (name, engine) in [
        ("next_event", Engine::NextEvent),
        ("lockstep", Engine::Lockstep),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut cfg = ttt_core::scenario::no_testing_scenario(42);
                    cfg.injector = ttt_testbed::InjectorConfig::quiescent();
                    cfg.initial_fault_burden = 0;
                    cfg.user_load.peak_jobs_per_day = 0.0;
                    cfg.duration = SimDuration::from_days(30);
                    cfg.tick = SimDuration::from_mins(1);
                    cfg.engine = engine;
                    cfg
                },
                |cfg| {
                    let mut campaign = Campaign::new(cfg);
                    campaign.run();
                    black_box(campaign.metrics().tests_run)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_small_campaign,
    bench_paper_scale_day,
    bench_multi_site_day,
    bench_grid_of_grids,
    bench_quiet_month
);
criterion_main!(benches);
