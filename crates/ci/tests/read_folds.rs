//! Model checks of the two folds a read-plane answer runs over one job's
//! history:
//!
//! * [`trend_ends`] is, bit for bit, the first and last entries of
//!   `success_series([history], period).means()` — on histories built
//!   through a real [`CiServer`], so segments seal and a stuck build keeps
//!   finished ones behind it in the open tail; with builds finishing out of
//!   creation order, several on one instant, on bucket boundaries, at the
//!   end of time, and not at all.
//! * [`cell_target`] is the split-and-scan rule it replaced, on every cell
//!   of up to three parts drawn from axis, near-miss, empty and non-ASCII
//!   parts.

use ttt_ci::{
    cell_target, success_series, trend_ends, BuildRef, BuildResult, Cause, CiServer, JobHistory,
    JobKind, JobSpec,
};
use ttt_sim::{SimDuration, SimTime};

const JOB: &str = "disk";

fn server(executors: usize) -> CiServer {
    let mut ci = CiServer::new(executors);
    ci.register(JobSpec {
        name: JOB.into(),
        kind: JobKind::Freestyle,
        trigger: None,
    });
    ci
}

/// The periods every history is read at: none, shorter than the one-minute
/// floor, the floor, an hour, one longer than the whole history and the
/// longest there is.
fn periods(latest: SimTime) -> [SimDuration; 7] {
    [
        SimDuration::ZERO,
        SimDuration::from_nanos(1),
        SimDuration::from_secs(59),
        SimDuration::from_mins(1),
        SimDuration::from_hours(1),
        SimDuration::from_nanos(latest.as_nanos().saturating_add(1)),
        SimDuration::MAX,
    ]
}

/// `trend_ends` against the series' two ends, compared by their bits.
fn assert_trend_is_the_series_ends(history: &JobHistory, periods: &[SimDuration], what: &str) {
    for &period in periods {
        let means = success_series([history], period).means();
        let ends = means.first().zip(means.last());
        let series = ends.map(|((_, first), (_, last))| (first.to_bits(), last.to_bits()));
        let trend =
            trend_ends(history, period).map(|(first, last)| (first.to_bits(), last.to_bits()));
        assert_eq!(trend, series, "{what}: period {period:?}");
    }
}

/// Trigger `cell` and put it on an executor; the running build.
fn start(ci: &mut CiServer, cell: &str) -> BuildRef {
    assert_eq!(
        ci.trigger_cells(JOB, Cause::Manual, &[cell.to_string()])
            .len(),
        1
    );
    let work = ci.assign();
    assert_eq!(work.len(), 1, "{cell}: a free executor");
    work[0].build.clone()
}

fn finish_at(ci: &mut CiServer, r: &BuildRef, result: BuildResult, at: SimTime) {
    ci.advance(at);
    assert!(ci.finish(r, result, Vec::new()));
}

/// Every case the bucket bounds can get wrong, one finish at a time: the
/// earliest finish belongs to a build created after one still running;
/// a finish lands exactly on an hour (and minute) boundary; two land on one
/// instant; a build stays running throughout.
#[test]
fn trend_ends_on_a_scripted_history() {
    use BuildResult::{Failure, Success};
    let mut ci = server(8);
    let check = |ci: &CiServer, what: &str| {
        let history = ci.history(JOB);
        assert_trend_is_the_series_ends(history, &periods(ci.now()), what);
        history.clone()
    };
    let mins = SimTime::from_mins;
    let (a, b, _running) = (
        start(&mut ci, "a"),
        start(&mut ci, "b"),
        start(&mut ci, "c"),
    );
    assert_eq!(
        trend_ends(&check(&ci, "nothing finished"), SimDuration::ZERO),
        None
    );
    finish_at(&mut ci, &b, Failure, mins(30));
    assert_eq!(
        trend_ends(&check(&ci, "exactly one"), SimDuration::MAX),
        Some((0.0, 0.0))
    );
    ci.advance(mins(45));
    let d = start(&mut ci, "d");
    finish_at(&mut ci, &a, Success, mins(60));
    check(&ci, "the first build finishes second, on the hour");
    finish_at(&mut ci, &d, Success, mins(70));
    let (e, f, g) = (
        start(&mut ci, "e"),
        start(&mut ci, "f"),
        start(&mut ci, "g"),
    );
    finish_at(&mut ci, &e, Failure, mins(180));
    finish_at(&mut ci, &f, Success, mins(180));
    check(&ci, "two on one instant, on the hour");
    finish_at(&mut ci, &g, Success, mins(200));
    let history = check(&ci, "the last bucket is not the last finish's instant");
    // Hourly buckets 0, 1 and 3: {b ✗}, {a ✓, d ✓}, {e ✗, f ✓, g ✓}.
    let hourly = trend_ends(&history, SimDuration::from_hours(1));
    assert_eq!(hourly, Some((0.0, 2.0 / 3.0)));
    let whole = trend_ends(&history, SimDuration::MAX).map_or(0.0, |(first, _)| first);
    assert!((whole - 4.0 / 6.0).abs() < 1e-12, "{whole}");
}

/// Finishes past half of time: the first bucket's end is not representable
/// for a width of 2⁶³ + 1 ns, and the last instant there is is a finish.
#[test]
fn trend_ends_at_the_end_of_time() {
    let mut ci = server(2);
    let (x, y) = (start(&mut ci, "x"), start(&mut ci, "y"));
    finish_at(
        &mut ci,
        &x,
        BuildResult::Success,
        SimTime::from_nanos((1 << 63) + 5),
    );
    finish_at(&mut ci, &y, BuildResult::Failure, SimTime::MAX);
    let widths = [1 << 62, (1 << 63) + 1, u64::MAX].map(SimDuration::from_nanos);
    assert_trend_is_the_series_ends(ci.history(JOB), &widths, "end of time");
    // One bucket of 2⁶³ + 1 ns holds both; the longest period splits them.
    let history = ci.history(JOB);
    assert_eq!(trend_ends(history, widths[1]), Some((0.5, 0.5)));
    assert_eq!(trend_ends(history, widths[2]), Some((1.0, 0.0)));
}

/// Random operation sequences on a three-executor server: triggers of six
/// cells, assignment rounds, finishes of any running build but the oldest
/// (which finishes one time in sixteen, so it sticks at the head of the
/// tail while segments before it have sealed and builds behind it finish),
/// and time steps of nothing, a nanosecond, 59 s, to the next minute or
/// hour boundary, or up to three hours. The trend is checked every eighth
/// step and at the end.
#[test]
fn trend_ends_on_random_histories() {
    const CELLS: [&str; 6] = ["c0", "c1", "c2", "c3", "c4", "c5"];
    let results = [
        BuildResult::Success,
        BuildResult::Failure,
        BuildResult::Unstable,
        BuildResult::Aborted,
    ];
    let (mut checks, mut stuck_behind_sealed) = (0u32, 0u32);
    for seed in 0..64u64 {
        let mut state = seed;
        let mut draw = || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut ci = server(3);
        let mut running: Vec<BuildRef> = Vec::new();
        let steps = 200 + draw() % 300;
        for step in 0..steps {
            let (op, arg) = (draw() % 10, draw());
            match op {
                0..=2 => {
                    let cell = CELLS[(arg % 6) as usize].to_string();
                    ci.trigger_cells(JOB, Cause::Manual, &[cell]);
                }
                3 | 4 => running.extend(ci.assign().into_iter().map(|w| w.build)),
                5..=7 => {
                    let stuck = usize::from(!arg.is_multiple_of(16)).min(running.len());
                    if running.len() > stuck {
                        let r =
                            running.remove(stuck + (arg / 16) as usize % (running.len() - stuck));
                        assert!(ci.finish(&r, results[(arg / 7 % 4) as usize], Vec::new()));
                    }
                }
                _ => {
                    let now = ci.now().as_nanos();
                    let next = |unit: SimDuration| (now / unit.as_nanos() + 1) * unit.as_nanos();
                    let to = match arg % 6 {
                        0 => now,
                        1 => now + 1,
                        2 => now + SimDuration::from_secs(59).as_nanos(),
                        3 => next(SimDuration::from_mins(1)),
                        4 => next(SimDuration::from_hours(1)),
                        _ => now + (arg >> 8) % SimDuration::from_hours(3).as_nanos(),
                    };
                    ci.advance(SimTime::from_nanos(to));
                }
            }
            if step % 8 == 0 || step + 1 == steps {
                let history = ci.history(JOB);
                let what = format!("seed {seed}, step {step}");
                assert_trend_is_the_series_ends(history, &periods(ci.now()), &what);
                checks += 1;
                let head_pending = history.open().first().is_some_and(|b| b.result.is_none());
                let final_behind = history.open().iter().any(|b| b.result.is_some());
                stuck_behind_sealed +=
                    u32::from(!history.sealed().is_empty() && head_pending && final_behind);
            }
        }
    }
    assert!(
        stuck_behind_sealed * 20 > checks,
        "only {stuck_behind_sealed} of {checks} checks saw a stuck head behind sealed segments"
    );
}

/// The rule `cell_target` replaced: the first comma-separated part that
/// names an axis gives its value, else the whole cell.
fn split_target(cell: Option<&str>) -> &str {
    let Some(cell) = cell else {
        return "global";
    };
    for part in cell.split(',') {
        for axis in ["cluster=", "site=", "scope="] {
            if let Some(v) = part.strip_prefix(axis) {
                return v;
            }
        }
    }
    cell
}

/// Every cell of one to three parts over axis parts, empty values, empty
/// parts (so leading, doubled and trailing commas), near-miss prefixes and
/// non-ASCII bytes — and no cell at all.
#[test]
fn cell_target_is_the_split_rule() {
    const PARTS: [&str; 16] = [
        "cluster=grisou",
        "site=nancy",
        "scope=global",
        "image=debian9-min",
        "cluster=",
        "site=",
        "",
        "clusterx=a",
        "site",
        "scope",
        "Site=lyon",
        "cluster=gé,ü",
        "sité=ö",
        "é",
        "=",
        "x=site=y",
    ];
    assert_eq!(cell_target(None), split_target(None));
    let mut cells = 0;
    for a in PARTS {
        for b in [None].into_iter().chain(PARTS.map(Some)) {
            for c in [None].into_iter().chain(PARTS.map(Some)) {
                if b.is_none() && c.is_some() {
                    continue;
                }
                let cell = [Some(a), b, c]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .join(",");
                assert_eq!(
                    cell_target(Some(&cell)),
                    split_target(Some(&cell)),
                    "{cell:?}"
                );
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 16 + 16 * 16 + 16 * 16 * 16);
}
