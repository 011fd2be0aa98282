//! The read plane's hard contracts, checked from outside the crates:
//!
//! 1. **Digest neutrality** — arming the multi-tenant query workload must
//!    not perturb the campaign. The write-plane digest is bit-identical
//!    with the read plane on and off, across 32 seeds, both engines, and
//!    with buggify chaos armed (the read plane's own
//!    chaos callsites may refuse reads, but only the *answers* degrade —
//!    never the campaign). The query traffic draws from its own named RNG
//!    stream, so arming it shifts no other stream.
//! 2. **Snapshot = live** — a published epoch is a faithful copy of the
//!    campaign's observable state at its sample instant: every view in
//!    the snapshot equals the live accessor evaluated at that instant,
//!    and every epoch's power windows are exactly the rows the live rings
//!    hold. Checked with buggify off and via immutable accessors only
//!    (`RefApi::latest`, `RingSeries::window`), so the comparison itself
//!    cannot tick the chaos-audited read counters.
//! 3. **Pinned folds** — how an epoch is *represented* (shared history
//!    segments, an indexed property database, cached service rows) is the
//!    write plane's business; what it *says* is not. The snapshot fold
//!    and the inline query statistics of three campaigns are constants
//!    recorded before epochs started sharing their sections.
//! 4. **No query panics** — `Query` is outside input (it deserialises):
//!    whatever strings and integers it carries, answering it against any
//!    epoch returns, and returns the same answer twice.
//! 5. **One answer on both planes** — the status page's grid and history
//!    report agree with the status-cell and job-trend answers, bit for bit.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use throughout::core::scenario::{grid_of_grids_scenario, multi_site_scenario};
use throughout::core::snapshot::{
    CampaignSnapshot, Query, QueryAnswer, QueryEngine, QueryStats, ServiceLiveness,
};
use throughout::core::{Campaign, CampaignConfig};
use throughout::scengen::CampaignDigest;
use throughout::sim::{SimDuration, SimTime};
use throughout::status::{HistoryReport, StatusGrid};

fn digest(cfg: CampaignConfig, drive: fn(&mut Campaign)) -> CampaignDigest {
    let mut c = Campaign::new(cfg);
    drive(&mut c);
    CampaignDigest::capture(&c)
}

/// `small(seed)` with the read plane armed at realistic volume.
fn armed(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::small(seed);
    cfg.queries_per_day = 50_000.0;
    cfg.query_users = 1_000_000;
    cfg
}

/// The acceptance sweep: query plane on vs off, 32 seeds. The unarmed
/// next-event digest is the reference; the armed run must reproduce it
/// bitwise (armed NextEvent ≡ Lockstep is pinned by `engine_equivalence`'s
/// armed test).
#[test]
fn query_plane_on_off_is_digest_neutral_across_32_seeds() {
    for seed in 1..=32 {
        let reference = digest(CampaignConfig::small(seed), Campaign::run);
        let on = digest(armed(seed), Campaign::run);
        let diverging = on.diff(&reference);
        assert!(
            diverging.is_empty(),
            "seed {seed}: arming the query plane moved {diverging:?}"
        );
    }
}

/// The chaos leg: with buggify firing at a high rate — including the read
/// plane's own `refapi-describe` and `kwapi-window` callsites — the digest
/// must still be bit-identical armed vs not. Chaos may serve a reader a
/// stale description or drop a window row, but it must never leak into
/// the write plane.
#[test]
fn query_plane_is_digest_neutral_under_chaos() {
    for seed in [5, 77] {
        let mut off = CampaignConfig::small(seed);
        off.buggify_rate = 0.10;
        let reference = digest(off.clone(), Campaign::run);
        let mut on = off;
        on.queries_per_day = 50_000.0;
        on.query_users = 1_000_000;
        let next_event = digest(on.clone(), Campaign::run);
        let lockstep = digest(on.clone(), Campaign::run_lockstep);
        for (driver, armed) in [("next-event", next_event), ("lockstep", lockstep)] {
            let diverging = armed.diff(&reference);
            assert!(
                diverging.is_empty(),
                "seed {seed} {driver}: armed chaos run moved {diverging:?}"
            );
        }
        // And the armed run really served traffic under that chaos.
        let mut c = Campaign::new(on);
        c.run();
        assert!(c.query_stats().executed > 0, "seed {seed}: no queries ran");
    }
}

/// The snapshot fold and query statistics of three armed campaigns, as
/// the full-clone publish path of PR 10 produced them: a small campaign
/// over five days, a multi-site week under chaos (stale descriptions,
/// dropped window rows, service rows that move every epoch), and a day of
/// an 8-site grid-of-grids. Any representation of an epoch must fold and
/// answer to exactly these.
#[test]
fn snapshot_and_answer_folds_are_pinned() {
    let run = |mut cfg: CampaignConfig, days: u64| {
        cfg.queries_per_day = 50_000.0;
        cfg.query_users = 1_000_000;
        cfg.duration = SimDuration::from_days(days);
        let mut c = Campaign::new(cfg);
        c.run();
        (c.snapshot_fold(), c.query_stats())
    };
    let stats = |issued, executed, answer_fold| QueryStats {
        issued,
        executed,
        answer_fold,
    };
    assert_eq!(
        run(CampaignConfig::small(2017), 5),
        (0xc97d_5e67_2e94_f92d, stats(250_000, 3_840, 0x4a7b_cec7_3bd8_d897)),
        "small(2017), 5 days"
    );
    let mut chaos = multi_site_scenario(2017);
    chaos.buggify_rate = 0.10;
    assert_eq!(
        run(chaos, 7),
        (0x75bf_e801_8de3_ce17, stats(350_000, 5_376, 0x56dd_bf86_6274_871c)),
        "multi_site_scenario(2017) at buggify 0.10, 7 days"
    );
    assert_eq!(
        run(grid_of_grids_scenario(2017, 8), 1),
        (0xb566_9893_10b8_c385, stats(50_000, 768, 0x9902_026e_e96d_bca2)),
        "grid_of_grids_scenario(2017, 8), 1 day"
    );
}

/// The first and the last epoch of one armed `small` campaign.
fn first_and_last_epoch() -> &'static [Arc<CampaignSnapshot>; 2] {
    static EPOCHS: OnceLock<[Arc<CampaignSnapshot>; 2]> = OnceLock::new();
    EPOCHS.get_or_init(|| {
        let mut c = Campaign::new(armed(2017));
        let hub = c.snapshot_hub().expect("armed config builds a hub");
        c.run_until(SimTime::from_hours(1));
        let first = hub.latest().expect("an epoch per hour");
        c.run();
        [first, hub.latest().expect("an epoch per hour")]
    })
}

/// `snap.windows` must be, bit for bit and in both directions, the rows a
/// node-by-node read of the live rings over the epoch's window gives: `c`
/// stands at the publish instant, so its store is what the publisher read.
/// Returns whether a ring already holds samples of the *next* window — a
/// `kwapi` test launched at this very instant samples `t+1 s … t+60 s`
/// before the step's publish runs.
fn assert_windows_are_the_live_rings(c: &Campaign, snap: &CampaignSnapshot) -> bool {
    let (from, to) = (snap.window_from, snap.window_to);
    let rings = || c.testbed().nodes().iter().map(|n| (n.id.0, c.power_store().power(n.id)));
    let bits = |w: &throughout::kwapi::WindowAgg| [w.min, w.mean, w.max].map(f64::to_bits);
    let live: Vec<_> = rings()
        .filter_map(|(node, ring)| Some((node, ring.window(from, to)?)))
        .map(|(node, w)| (node, w.count, bits(&w)))
        .collect();
    let held: Vec<_> = snap.windows.iter().map(|(node, w)| (*node, w.count, bits(w))).collect();
    assert_eq!(held, live, "epoch {} over [{from:?}, {to:?})", snap.epoch);
    rings().any(|(_, ring)| ring.latest().is_some_and(|(newest, _)| newest >= to))
}

/// The trap a publish that reads only what moved must not fall into:
/// samples pushed before an epoch's publish can belong to the next epoch.
/// Hold every epoch of a block of campaigns as it publishes, as the
/// ledger's readers do; the block must contain such epochs, and each one
/// (and the one after it) must still hold exactly the live rows.
#[test]
fn every_epoch_holds_exactly_the_live_power_windows() {
    let (mut epochs, mut early, mut rows) = (0u32, 0u32, 0usize);
    for seed in 1..=6 {
        let mut c = Campaign::new(armed(seed));
        let hub = c.snapshot_hub().expect("armed config builds a hub");
        for hour in 1..=72 {
            c.run_until(SimTime::from_hours(hour));
            let snap = hub.latest().expect("an epoch per hour");
            assert_eq!(snap.at, SimTime::from_hours(hour));
            epochs += 1;
            early += u32::from(assert_windows_are_the_live_rings(&c, &snap));
            rows += snap.windows.len();
        }
    }
    assert!(early > 0, "no epoch of {epochs} published with next-window samples waiting");
    assert!(rows > 0, "no power row in {epochs} epochs");
}

/// The status page and the query engine read one history two ways: the
/// grid and the report build every cell and every bucket, a `StatusCell` or
/// `JobTrend` answer walks only what it answers about. Over every hourly
/// epoch of two armed days they must agree — every `(job, target)` of the
/// grid, `"global"` and a target no cell has, and every job's trend at six
/// periods, floats by their bits — and answer `NotFound` exactly where the
/// grid has no cell and the report no row.
#[test]
fn status_page_and_query_engine_agree_on_every_epoch() {
    let mut c = Campaign::new(armed(2017));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    let (mut ratios, mut trends) = (0u32, 0u32);
    for hour in 1..=48 {
        c.run_until(SimTime::from_hours(hour));
        let snap = hub.latest().expect("an epoch per hour");
        let grid = StatusGrid::from_jobs(&snap.jobs);
        let targets = grid
            .targets
            .iter()
            .map(String::as_str)
            .chain(["global", "nowhere"]);
        for (job, target) in snap
            .jobs
            .iter()
            .flat_map(|j| targets.clone().map(move |t| (j, t)))
        {
            let q = Query::StatusCell {
                job: job.name.to_string(),
                target: target.to_string(),
            };
            let expected = grid
                .cell(&job.name, target)
                .map_or(QueryAnswer::NotFound, |cell| QueryAnswer::Ratio {
                    pass: cell.successes,
                    total: cell.total,
                });
            assert_eq!(
                QueryEngine::answer(&snap, &q),
                expected,
                "hour {hour}: {q:?}"
            );
            ratios += u32::from(expected != QueryAnswer::NotFound);
        }
        for period_mins in [1, 60, 360, 1_440, 10_080, u64::MAX] {
            let report = HistoryReport::from_jobs(&snap.jobs, SimDuration::from_mins(period_mins));
            for job in &snap.jobs {
                let q = Query::JobTrend {
                    job: job.name.to_string(),
                    period_mins,
                };
                let bits = |first: f64, last: f64| Some((first.to_bits(), last.to_bits()));
                let expected = report
                    .per_job
                    .get(&*job.name)
                    .and_then(|series| bits(series.first()?.1, series.last()?.1));
                let answered = match QueryEngine::answer(&snap, &q) {
                    QueryAnswer::Trend { first, last } => bits(first, last),
                    QueryAnswer::NotFound => None,
                    other => panic!("hour {hour}: {q:?} answered {other:?}"),
                };
                assert_eq!(answered, expected, "hour {hour}: {q:?}");
                trends += u32::from(expected.is_some());
            }
        }
    }
    assert!(ratios > 0 && trends > 0, "{ratios} ratios, {trends} trends");
}

/// A string an outside caller might send: empty, one the epoch knows
/// (a job, site, target, property key or value), or arbitrary text.
fn text(draw: u64, snap: &CampaignSnapshot) -> String {
    let known = || {
        let jobs = snap.jobs.iter().map(|j| j.name.to_string());
        let sites = snap.queues.iter().map(|q| q.site.to_string());
        let words = ["global", "gpu", "site", "cluster", "YES", "NO"].map(String::from);
        jobs.chain(sites).chain(words).collect::<Vec<_>>()
    };
    match draw % 4 {
        0 => String::new(),
        1 | 2 => {
            let known = known();
            known[(draw / 4) as usize % known.len()].clone()
        }
        _ => draw
            .to_le_bytes()
            .iter()
            .map(|&b| char::from_u32(u32::from(b) * 257).unwrap_or('\u{fffd}'))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Query` derives `Deserialize`, so every field is outside input: all
    /// six variants, with empty, known and unknown strings and full-range
    /// integers (a zero period, one whose nanoseconds wrap to zero in a
    /// `u64`, `u64::MAX`), against a nearly empty and a full epoch, must
    /// return — and return the same answer when asked again.
    #[test]
    fn no_query_panics_and_answers_are_pure(
        draws in prop::collection::vec(
            (0u8..6, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX),
            32,
        ),
    ) {
        for snap in first_and_last_epoch() {
            for &(kind, a, b, node) in &draws {
                let q = match kind {
                    0 => Query::StatusCell { job: text(a, snap), target: text(b, snap) },
                    1 => Query::JobTrend {
                        job: text(a, snap),
                        period_mins: [0, 1 << 54, u64::MAX, 307_445_735, b][(b % 5) as usize],
                    },
                    2 => Query::NodeFilter { key: text(a, snap), value: text(b, snap) },
                    3 => Query::MetricsWindow { node },
                    4 => Query::QueueDepth { site: text(a, snap) },
                    _ => Query::ServiceCensus,
                };
                let answer = QueryEngine::answer(snap, &q);
                prop_assert_eq!(&answer, &QueryEngine::answer(snap, &q), "{:?}", q);
                // Any period longer than the epoch's age is one bucket.
                if let (Query::JobTrend { period_mins, .. }, QueryAnswer::Trend { first, last }) =
                    (&q, &answer)
                {
                    if *period_mins > snap.at.as_secs() / 60 {
                        prop_assert_eq!(first, last, "{:?}", q);
                    }
                }
            }
        }
    }

    /// Stop an armed campaign at an arbitrary sample instant and compare
    /// the last published epoch against the live campaign, field by
    /// field: CI histories, status grid, queue depths and spillovers,
    /// service liveness rows, description version, and the power windows
    /// (those of every epoch on the way, too). Then cross-check the query
    /// engine: answers against the snapshot must equal the live state the
    /// snapshot mirrors.
    #[test]
    fn published_epoch_matches_live_state(seed in 0u64..1_000_000, hours in 1u64..=48) {
        let mut cfg = CampaignConfig::small(seed);
        cfg.queries_per_day = 10_000.0;
        cfg.query_users = 1_000;
        let mut c = Campaign::new(cfg);
        let hub = c.snapshot_hub().expect("armed config builds a hub");
        for hour in 1..=hours {
            c.run_until(SimTime::from_hours(hour));
            let snap = hub.latest().expect("an epoch per hour");
            assert_windows_are_the_live_rings(&c, &snap);
        }
        let snap = hub.latest().expect("at least one epoch published");

        // The snapshot is stamped at the exact sample instant we stopped
        // on, one epoch per elapsed cadence.
        prop_assert_eq!(snap.at, SimTime::from_hours(hours));
        prop_assert_eq!(snap.epoch, hub.published());

        // CI histories build by build (every field of every build, in
        // registration and creation order), and the grid over them.
        let live_names = c.ci().job_names_in_order();
        prop_assert_eq!(snap.jobs.len(), live_names.len());
        for (frozen, name) in snap.jobs.iter().zip(live_names) {
            prop_assert_eq!(&frozen.name, name);
            let live = c.ci().history(name);
            prop_assert_eq!(frozen.history.len(), live.len());
            prop_assert!(frozen.history.iter().eq(live.iter()), "job {}", name);
        }
        prop_assert_eq!(
            StatusGrid::from_jobs(&snap.jobs),
            StatusGrid::from_jobs(&c.ci().freeze_history())
        );

        // Queues: depth and spillovers per site, in domain order.
        let depths = c.federation().queue_depths();
        let spill = c.federation().spillovers_by_domain();
        prop_assert_eq!(snap.queues.len(), c.federation().domains().len());
        for (i, q) in snap.queues.iter().enumerate() {
            prop_assert_eq!(q.waiting, depths[i] as u64, "site {}", &q.site);
            prop_assert_eq!(q.spillovers, spill[i], "site {}", &q.site);
        }

        // Service liveness rows.
        prop_assert_eq!(&snap.services, &ServiceLiveness::rows_from_testbed(c.testbed()));

        // Reference API: version via the immutable accessor.
        prop_assert_eq!(snap.description_version, c.refapi().latest().map(|d| d.version));

        // The query engine answers from the snapshot alone; spot-check it
        // against the live state the snapshot mirrors.
        for q in &snap.queues {
            let a = QueryEngine::answer(&snap, &Query::QueueDepth { site: q.site.to_string() });
            prop_assert_eq!(
                a,
                QueryAnswer::Depth { waiting: q.waiting, spillovers: q.spillovers }
            );
        }
        let (up, down) = snap.services.iter().fold((0u64, 0u64), |(u, d), s| {
            if s.up { (u + 1, d) } else { (u, d + 1) }
        });
        prop_assert_eq!(
            QueryEngine::answer(&snap, &Query::ServiceCensus),
            QueryAnswer::Census { up, down }
        );
    }
}
