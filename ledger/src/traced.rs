//! The traced run: the same workload with a span around every call the
//! benchmark makes into a layer, and every per-layer metric derived from
//! those spans.

use std::time::{Duration, Instant};
use ttt_core::snapshot::{fold_answer, Query, QueryEngine};
use ttt_core::{Campaign, CampaignConfig};
use ttt_scengen::CampaignDigest;
use ttt_sim::{SimDuration, SimTime};

use crate::e2e::{self, host_cpus, Rep};
use crate::layers::{self, Leaves, Values};
use crate::metrics::PER_LAYER;
use crate::readers;
use crate::stats::{median, percentile, tail_pct};
use crate::trace::Tracer;
use crate::workloads::{toggled, Workload};

/// Queries answered one span each.
const TRACED_QUERIES: usize = 20_000;
/// Day slices wanted behind `core.run_until.day_ms_p50`.
const MIN_DAY_SLICES: f64 = 30.0;

/// What a traced run reports.
pub struct Layered {
    /// Every declared per-layer metric, by name.
    pub values: Values,
    /// Campaign reps plus queries answered.
    pub attempted: u64,
    /// Reps whose digest differs from the first untraced rep's, and
    /// answers whose fold mismatches the reference.
    pub failed: u64,
}

/// One sliced, traced campaign.
struct TracedRep {
    /// Sum of the `core.run_until` and `core.finalize` spans.
    run_wall_s: f64,
    /// The first simulated day's slice.
    day1_s: f64,
    digest: CampaignDigest,
}

/// `campaign` → `core.new`, one `core.run_until` per simulated day,
/// `core.finalize`, `scengen.digest_capture`.
fn traced_rep(tr: &mut Tracer, w: &Workload, cfg: &CampaignConfig, id: u32) -> TracedRep {
    let cfg = cfg.clone();
    let end = SimTime::ZERO + cfg.duration;
    let day = SimDuration::from_days(1).as_nanos();
    tr.set_campaign(id);
    let span = tr.enter("campaign");
    let mut campaign = tr.span("core.new", || Campaign::new(cfg));
    if w.record_events {
        campaign.record_events();
    }
    let mut slices = Vec::with_capacity(end.as_nanos().div_ceil(day) as usize + 1);
    let mut until = SimTime::ZERO;
    while until < end {
        until = (until + SimDuration::from_days(1)).min(end);
        let slice = tr.enter("core.run_until");
        campaign.run_until(until);
        tr.exit(slice);
        slices.push(slice);
    }
    // Already at the horizon: `run` has only the end-of-campaign
    // accounting left to do.
    let finalize = tr.enter("core.finalize");
    campaign.run();
    tr.exit(finalize);
    slices.push(finalize);
    let digest = tr.span("scengen.digest_capture", || {
        CampaignDigest::capture(&campaign)
    });
    tr.exit(span);
    tr.set_campaign(0);
    TracedRep {
        run_wall_s: slices.iter().map(|&s| tr.span_seconds(s)).sum(),
        day1_s: tr.span_seconds(slices[0]),
        digest,
    }
}

/// The per-layer rows of the six query kinds.
const ANSWER_ROWS: [&str; 6] = [
    "core.snapshot.answer.status_cell.us",
    "core.snapshot.answer.job_trend.us",
    "core.snapshot.answer.node_filter.us",
    "core.snapshot.answer.metrics_window.us",
    "core.snapshot.answer.queue_depth.us",
    "core.snapshot.answer.service_census.us",
];

/// The row a query's answer is timed under.
fn answer_row(q: &Query) -> &'static str {
    ANSWER_ROWS[match q {
        Query::StatusCell { .. } => 0,
        Query::JobTrend { .. } => 1,
        Query::NodeFilter { .. } => 2,
        Query::MetricsWindow { .. } => 3,
        Query::QueueDepth { .. } => 4,
        Query::ServiceCensus => 5,
    }]
}

/// A 48-bit FNV-1a fold (exact in a JSON number) of the digest fields
/// every engine and every slicing must agree on.
fn digest_fold(d: &CampaignDigest) -> u64 {
    let text = format!(
        "{:?}",
        (
            (
                d.tests_run,
                d.tests_failed,
                d.unstable_builds,
                d.filed,
                d.fixed
            ),
            (
                d.triggered,
                d.deferred_peak,
                d.deferred_site,
                d.deferred_resources
            ),
            (
                &d.completions,
                &d.weekly_means,
                &d.monthly_means,
                &d.bug_snapshots
            ),
            (
                d.executor_busy,
                d.oar_utilization,
                d.active_faults,
                &d.grid_rows
            ),
            (
                &d.per_site_jobs,
                &d.per_site_completions,
                &d.per_site_spillovers
            ),
            (
                d.spillovers,
                d.co_allocations,
                &d.injected_by_kind,
                &d.detected_by_kind
            ),
            (
                &d.service_processes,
                d.saturation_episodes,
                d.blackout_episodes
            ),
        )
    );
    let fold = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    fold & 0xffff_ffff_ffff
}

/// `(run ns, runqueue-wait ns)` of the calling thread so far, where the
/// kernel exposes them: the start of a [`runq_wait_share`] interval.
pub fn runq_mark() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// Share of the calling thread's runnable time spent waiting for a CPU
/// since `since`; 0 where `/proc` does not say.
pub fn runq_wait_share(since: Option<(f64, f64)>) -> f64 {
    match (since, runq_mark()) {
        (Some((run0, wait0)), Some((run1, wait1))) if run1 + wait1 > run0 + wait0 => {
            (wait1 - wait0) / ((run1 - run0) + (wait1 - wait0))
        }
        _ => 0.0,
    }
}

/// The share of `run_wall_s` the leaf rows account for: each term is a
/// count the finished campaign reports times the unit cost of the leaf row
/// that does that work. Work without a public count (federation advances,
/// user-load draws, wake scans, sampling) stays in the residual.
fn attributed_share(v: &Values, rep: &Rep, grid64: bool, run_wall_s: f64) -> f64 {
    let us = |name: &str| v.get(name).copied().unwrap_or(0.0) * 1e-6;
    let d = &rep.digest;
    let completed = |family: &str| {
        d.completions
            .iter()
            .find(|(f, _)| f == family)
            .map_or(0.0, |(_, n)| *n as f64)
    };
    let tests = completed("refapi") * us("suite.run_test.refapi.us")
        + completed("disk") * us("suite.run_test.disk.us")
        + completed("environments") * us("suite.run_test.environments.us");
    let decisions = (d.triggered + d.deferred_peak + d.deferred_site + d.deferred_resources) as f64;
    let scheduling = decisions * us("jobsched.first_tick_751.us") / 751.0;
    let jobs: u64 = d.per_site_jobs.iter().sum();
    let submit = if grid64 {
        "oar.federation.submit.us.grid64"
    } else {
        "oar.federation.submit.us.paper"
    };
    let submissions = jobs as f64 * us(submit);
    let logging = rep.events as f64 * v.get("sim.eventlog.push.ns").copied().unwrap_or(0.0) * 1e-9;
    let publishing =
        rep.epochs as f64 * v.get("core.publish.ms_per_epoch").copied().unwrap_or(0.0) * 1e-3;
    (tests + scheduling + submissions + logging + publishing) / run_wall_s
}

/// Trace one workload for about `seconds` wall seconds.
pub fn measure(tr: &mut Tracer, w: &Workload, seed: u64, seconds: f64, quick: bool) -> Layered {
    // detlint: allow(no-wall-clock) -- bounds how long the benchmark measures
    let start = Instant::now();
    let runq = runq_mark();
    let budget = Duration::from_secs_f64(seconds);
    let root = tr.enter("workload");

    let leaves_span = tr.enter("layers");
    let mut leaves = Leaves::new(tr, quick);
    layers::run(&mut leaves, seed);
    let mut v = std::mem::take(&mut leaves.values);
    tr.exit(leaves_span);

    // Rounds of (untraced, traced, first week armed, first week disarmed),
    // so that what is compared ran under the same host conditions. The
    // publish cost is taken on the first week only: a paper-scale campaign
    // armed for its 180 days publishes 4320 epochs, 14 s of them.
    let cfg = w.config(quick);
    let week = |armed: bool| {
        let mut week = cfg.clone();
        week.duration = week.duration.min(SimDuration::from_days(7));
        if armed == (week.queries_per_day > 0.0) {
            week
        } else {
            toggled(week)
        }
    };
    let (armed_week, disarmed_week) = (week(true), week(false));
    let days = cfg.duration.as_secs_f64() / 86_400.0;
    let min_rounds = if quick {
        1
    } else {
        (MIN_DAY_SLICES / days).ceil().max(1.0) as usize
    };
    let mut plain: Vec<Rep> = Vec::with_capacity(64);
    let mut traced: Vec<TracedRep> = Vec::with_capacity(64);
    let mut armed: Vec<Rep> = Vec::with_capacity(64);
    let mut disarmed: Vec<Rep> = Vec::with_capacity(64);
    while plain.len() < min_rounds || start.elapsed() < budget {
        plain.push(e2e::rep(w, &cfg));
        traced.push(traced_rep(tr, w, &cfg, plain.len() as u32));
        armed.push(e2e::rep(w, &armed_week));
        disarmed.push(e2e::rep(w, &disarmed_week));
    }
    // Slicing must not change what the campaign computes, and neither
    // must arming its read plane.
    let first = &plain[0];
    let full = plain
        .iter()
        .map(|r| &r.digest)
        .chain(traced.iter().map(|r| &r.digest));
    let week = armed.iter().chain(&disarmed).map(|r| &r.digest);
    let diverged = full.filter(|d| **d != first.digest).count()
        + week.filter(|d| **d != disarmed[0].digest).count();

    // The read side: every held query answered once, alone, in a span.
    let queries = if quick {
        TRACED_QUERIES / 10
    } else {
        TRACED_QUERIES
    };
    let held = readers::hold(&cfg, seed, queries);
    let reads = tr.enter("reads");
    let mut leaves = Leaves::new(tr, quick);
    layers::hub_rows(&mut leaves, &held.hub, seed);
    v.append(&mut leaves.values);
    let mut mismatches = 0u64;
    for (i, (idx, q)) in held.batch.iter().enumerate() {
        let answer = tr.span(answer_row(q), || QueryEngine::answer(&held.epochs[*idx], q));
        mismatches += u64::from(fold_answer(0, &answer) != held.reference[i]);
    }
    tr.exit(reads);
    tr.exit(root);

    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let plain_wall = wall(&plain);
    let traced_wall = median(&traced.iter().map(|r| r.run_wall_s).collect::<Vec<_>>());
    let epochs = armed[0].epochs;

    let ms = |secs: &[f64]| median(secs) * 1e3;
    v.insert("core.new.ms", ms(&tr.seconds("core.new")));
    let slices = tr.seconds("core.run_until");
    let tail = tail_pct(slices.len());
    v.insert("core.run_until.day_ms_p50", ms(&slices));
    v.insert(
        "core.run_until.day_ms_tail",
        percentile(&slices, tail) * 1e3,
    );
    v.insert("core.run_until.tail_pct", tail);
    let day1: Vec<f64> = traced.iter().map(|r| r.day1_s).collect();
    v.insert("core.run_until.day1_ms", ms(&day1));
    v.insert("core.finalize.ms", ms(&tr.seconds("core.finalize")));
    v.insert(
        "scengen.digest_capture.ms",
        ms(&tr.seconds("scengen.digest_capture")),
    );

    let d = &first.digest;
    let decisions = d.triggered + d.deferred_peak + d.deferred_site + d.deferred_resources;
    v.insert(
        "jobsched.triggered_share",
        if decisions == 0 {
            0.0
        } else {
            d.triggered as f64 / decisions as f64
        },
    );
    v.insert(
        "core.eventlog.events_per_sim_day",
        first.events as f64 / days,
    );
    v.insert(
        "core.publish.ms_per_epoch",
        (wall(&armed) - wall(&disarmed)) * 1e3 / epochs.max(1) as f64,
    );
    v.insert("core.snapshot.epochs_published", epochs as f64);

    let mut all_answers = Vec::with_capacity(held.batch.len());
    for row in ANSWER_ROWS {
        let secs = tr.seconds(row);
        v.insert(
            row,
            if secs.is_empty() {
                0.0
            } else {
                median(&secs) * 1e6
            },
        );
        all_answers.extend(secs);
    }
    let answer_tail = tail_pct(all_answers.len());
    v.insert(
        "core.snapshot.answer.us_tail",
        percentile(&all_answers, answer_tail) * 1e6,
    );
    v.insert("core.snapshot.answer.tail_pct", answer_tail);
    let node_filter: f64 = tr
        .seconds("core.snapshot.answer.node_filter.us")
        .iter()
        .sum();
    v.insert(
        "core.snapshot.node_filter_share",
        node_filter / all_answers.iter().sum::<f64>(),
    );

    v.insert("core.sim.tests_run", d.tests_run as f64);
    v.insert("core.sim.bugs_filed", d.filed as f64);
    v.insert("core.sim.digest_fold", digest_fold(d) as f64);
    let calls = plain.iter().map(|r| r.allocs);
    v.insert(
        "core.alloc_jitter",
        (calls.clone().max().unwrap_or(0) - calls.min().unwrap_or(0)) as f64,
    );
    let attributed = attributed_share(&v, first, w.grid64, plain_wall);
    v.insert("core.unattributed_share", 1.0 - attributed);
    v.insert("host.cpus", host_cpus() as f64);
    v.insert("host.runq_wait_share", runq_wait_share(runq));
    v.insert(
        "host.trace_overhead_pct",
        (traced_wall - plain_wall) / plain_wall * 100.0,
    );

    debug_assert!(PER_LAYER.iter().all(|m| v.contains_key(m.name)));
    Layered {
        values: v,
        attempted: 4 * plain.len() as u64 + held.batch.len() as u64,
        failed: diverged as u64 + mismatches,
    }
}
