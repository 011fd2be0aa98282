//! Segmented build history: immutable sealed segments plus an open tail.
//!
//! "Long-term storage of results history" (slide 20) is read far more
//! often than it is written: every status-page refresh and every
//! read-plane epoch wants the whole history of every job, while a build
//! only changes between its trigger and its completion. So a job's
//! history is one logical sequence, in creation order, held in two parts:
//!
//! * **sealed segments** — `Arc<Segment>` runs of exactly
//!   [`SEGMENT_LEN`] builds, every one of them final (it has a result).
//!   A sealed segment is never touched again, so anyone may hold it by
//!   `Arc` for as long as they like;
//! * **the open tail** — the builds after the last sealed segment. Only
//!   here can a build still be queued or running, so this is the only
//!   part [`crate::CiServer::assign`] and [`crate::CiServer::finish`]
//!   ever search or mutate.
//!
//! A segment seals when the *leading* `SEGMENT_LEN` builds of the tail
//! are all final. A build stuck unfinished at the head of the tail only
//! delays sealing — builds behind it wait in the tail, in order — and the
//! iteration order `sealed ++ open` is the creation order at all times.
//!
//! Each segment carries a header, fixed when it seals and kept in the
//! same allocation as its builds: the span of its builds' finish instants,
//! and the job's running tally and Welford accumulator of success scores
//! over every finished build up to and including it. The tally of a
//! history is the last header plus the open tail; [`trend_ends`] resumes
//! its first bucket from a header and steps over every segment whose span
//! misses both of its buckets.
//!
//! Cloning a [`JobHistory`] is how a reader freezes it: the sealed
//! segments are shared (`Arc` clones), the tail is copied. There is no
//! other copy of history anywhere, and no second shape of it: the status
//! page, the query engine and the digests all read a `JobHistory`, live
//! or frozen, through the folds defined here — [`JobHistory::finished`]
//! and its per-target tally [`JobHistory::tally_in`], [`success_series`]
//! and [`trend_ends`], the series' first and last entries.
//!
//! A build's status-page target ([`cell_target`]) is numbered once, when
//! its (job, cell) pair is first named, in the server's [`TargetTable`];
//! a per-target tally compares those numbers and reads no cell text.

use crate::model::{Build, BuildRef, BuildResult, TargetId};
use std::sync::Arc;
use ttt_sim::{OnlineStats, PeriodSeries, SimDuration, SimTime};

/// Builds per sealed segment.
const SEGMENT_LEN: usize = 8;

/// A sealed run of [`SEGMENT_LEN`] final builds and what a reader needs
/// to know of them without reading them. See the module docs.
#[derive(Debug)]
pub struct Segment {
    /// Earliest and latest finish instant of the segment's builds, in
    /// nanoseconds; `(u64::MAX, 0)` when none finished.
    span: (u64, u64),
    /// Success scores of the job's finished builds through this segment,
    /// pushed in creation order: what a series bucket holding exactly
    /// those builds would hold, bit for bit.
    through: OnlineStats,
    /// How many of them succeeded.
    passed: u64,
    builds: [Build; SEGMENT_LEN],
}

impl Segment {
    /// Seal `builds`, carrying `before`'s running totals on.
    fn seal(before: Option<&Segment>, builds: [Build; SEGMENT_LEN]) -> Segment {
        let (mut through, mut passed) =
            before.map_or((OnlineStats::new(), 0), |s| (s.through, s.passed));
        let mut span = (u64::MAX, 0);
        finished(&builds).for_each(|(_, result, at)| {
            through.push(score(result));
            passed += u64::from(result.is_success());
            span = (span.0.min(at.as_nanos()), span.1.max(at.as_nanos()));
        });
        Segment {
            span,
            through,
            passed,
            builds,
        }
    }

    /// The segment's builds, in creation order.
    pub fn builds(&self) -> &[Build] {
        &self.builds
    }
}

/// One job's builds, in creation order. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct JobHistory {
    sealed: Vec<Arc<Segment>>,
    open: Vec<Build>,
    /// Leading builds of `open` already seen final (always below
    /// [`SEGMENT_LEN`] between calls): where the next sealing check
    /// resumes, and the lower bound of every lookup.
    settled: usize,
}

/// The history of a job nobody registered.
pub(crate) static EMPTY: JobHistory = JobHistory::new();

impl JobHistory {
    pub(crate) const fn new() -> Self {
        JobHistory {
            sealed: Vec::new(),
            open: Vec::new(),
            settled: 0,
        }
    }

    /// Number of builds, sealed and open.
    pub fn len(&self) -> usize {
        self.sealed.len() * SEGMENT_LEN + self.open.len()
    }

    /// Whether the job never built.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.open.is_empty()
    }

    /// Every build in creation order: `sealed ++ open`.
    pub fn iter(&self) -> impl Iterator<Item = &Build> + Clone + '_ {
        self.sealed
            .iter()
            .flat_map(|segment| segment.builds.iter())
            .chain(&self.open)
    }

    /// The finished builds as `(cell, result, finished_at)`, in creation
    /// order. [`crate::CiServer::finish`] sets result and finish time
    /// together; a queued or running build has neither and is skipped.
    /// Drive it with `for_each` / `fold`: the segment chain underneath
    /// iterates internally a good deal faster than `next()` by `next()`.
    pub fn finished(&self) -> impl Iterator<Item = Finished<'_>> + '_ {
        finished(self.iter())
    }

    /// [`tally`] of [`JobHistory::finished`], at the cost of the open tail:
    /// the last sealed segment carries the sealed part's.
    pub fn tally(&self) -> (u64, u64) {
        let (finished, succeeded) = tally(finished(&self.open));
        let (sealed, passed) = self
            .sealed
            .last()
            .map_or((0, 0), |s| (s.through.count(), s.passed));
        (sealed + finished, passed + succeeded)
    }

    /// [`tally`] of the finished builds whose target is `target`: a status
    /// cell. One walk comparing target numbers; no cell text is read.
    pub fn tally_in(&self, target: TargetId) -> (u64, u64) {
        tally(finished(self.iter().filter(|b| b.target == target)))
    }

    /// The sealed segments, oldest first. Two histories frozen from the
    /// same server share these by pointer.
    pub fn sealed(&self) -> &[Arc<Segment>] {
        &self.sealed
    }

    /// The open tail: every build that may still change, and the final
    /// ones queued behind it.
    pub fn open(&self) -> &[Build] {
        &self.open
    }

    pub(crate) fn push(&mut self, build: Build) {
        self.open.push(build);
    }

    /// The build `r` names, for a caller that knows it is queued or
    /// running. Such a build is not final, so it sits in the tail past
    /// the settled prefix; recent builds are the likely hit, so the scan
    /// runs from the back. `r.job` is not compared: the caller picked
    /// this history by it.
    pub(crate) fn pending_mut(&mut self, r: &BuildRef) -> Option<&mut Build> {
        self.open[self.settled..]
            .iter_mut()
            .rev()
            .find(|b| b.r#ref.number == r.number && b.r#ref.cell == r.cell)
    }

    /// Seal every full run of leading final builds into one allocation
    /// each, header included. Called after a build became final;
    /// amortised O(1) per build.
    pub(crate) fn seal_settled(&mut self) {
        while self
            .open
            .get(self.settled)
            .is_some_and(|b| b.result.is_some())
        {
            self.settled += 1;
        }
        while self.settled >= SEGMENT_LEN {
            let mut run = self.open.drain(..SEGMENT_LEN);
            // detlint: allow(no-unwrap-in-lib) -- `settled` counts builds of `open`, so the drain holds all `SEGMENT_LEN`
            let builds = std::array::from_fn(|_| run.next().expect("a settled build"));
            drop(run);
            let segment = Segment::seal(self.sealed.last().map(|s| &**s), builds);
            self.sealed.push(Arc::new(segment));
            self.settled -= SEGMENT_LEN;
        }
    }
}

/// An item of [`JobHistory::finished`]: `(cell, result, finished_at)`.
pub type Finished<'a> = (Option<&'a str>, BuildResult, SimTime);

fn finished<'a>(builds: impl IntoIterator<Item = &'a Build>) -> impl Iterator<Item = Finished<'a>> {
    builds
        .into_iter()
        .filter_map(|b| Some((b.r#ref.cell.as_deref(), b.result?, b.finished_at?)))
}

/// How many of `finished` builds there are, and how many succeeded.
pub fn tally<'a>(finished: impl Iterator<Item = Finished<'a>>) -> (u64, u64) {
    finished.fold((0, 0), |(total, ok), (_, result, _)| {
        (total + 1, ok + u64::from(result.is_success()))
    })
}

/// The bucket width of a success series asked for `period`: never shorter
/// than a minute — a zero period has no buckets, and a nanosecond one would
/// allocate a bucket per nanosecond of history. No upper bound is needed: a
/// period longer than the history is one bucket.
fn bucket_width(period: SimDuration) -> SimDuration {
    period.max(SimDuration::from_mins(1))
}

/// 1.0 for a success, 0.0 otherwise: what a success series averages.
fn score(result: BuildResult) -> f64 {
    f64::from(u8::from(result.is_success()))
}

/// The success series of `histories`: every finished build, job by job in
/// creation order, as its `score` at its finish time, bucketed by `period`
/// (see `bucket_width`).
pub fn success_series<'a>(
    histories: impl IntoIterator<Item = &'a JobHistory>,
    period: SimDuration,
) -> PeriodSeries {
    let mut series = PeriodSeries::new(bucket_width(period));
    for history in histories {
        history.finished().for_each(|(_, result, at)| {
            series.push(at, score(result));
        });
    }
    series
}

/// The first and last entries of `success_series([history], period).means()`,
/// bit for bit, without a bucket for every period in between; `None` when
/// nothing finished. The segment spans and the open tail give the earliest
/// and latest finish, whose buckets are the series' first and last
/// non-empty ones. The finished builds of those two buckets are then fed
/// to two Welford accumulators in creation order, the order the series'
/// accumulators see them in: the head resumes from the running accumulator
/// of the last leading segment that lies wholly inside its bucket, a
/// segment whose span misses both buckets is stepped over, and every other
/// build is replayed. When the two buckets are one, every finished build is
/// in it and one accumulator serves both ends.
pub fn trend_ends(history: &JobHistory, period: SimDuration) -> Option<(f64, f64)> {
    let width = bucket_width(period).as_nanos();
    let open = finished(&history.open).map(|(.., at)| (at.as_nanos(), at.as_nanos()));
    let (earliest, latest) = (history.sealed.iter().map(|s| s.span))
        .chain(open)
        .fold((u64::MAX, 0), |(lo, hi), (from, to)| {
            (lo.min(from), hi.max(to))
        });
    if earliest > latest {
        return None;
    }
    // Where the two buckets start. `at - first < width` is `at` before the
    // first bucket's end, which may lie past the last representable instant.
    // No finish lies before `first`. A segment with none (span
    // `(u64::MAX, 0)`) may be resumed over or replayed: it adds nothing.
    let first = earliest / width * width;
    let last = latest / width * width;
    let resumed = history
        .sealed
        .iter()
        .take_while(|s| s.span.1.saturating_sub(first) < width)
        .count();
    let mut head = history.sealed[..resumed]
        .last()
        .map_or(OnlineStats::new(), |s| s.through);
    let mut tail = OnlineStats::new();
    let replayed = history.sealed[resumed..]
        .iter()
        .filter(|s| s.span.0 - first < width || s.span.1 >= last)
        .flat_map(|s| s.builds.iter())
        .chain(&history.open);
    finished(replayed).for_each(|(_, result, at)| {
        let at = at.as_nanos();
        if at - first < width {
            head.push(score(result));
        } else if at >= last {
            tail.push(score(result));
        }
    });
    let tail = if tail.count() == 0 { head } else { tail };
    Some((head.mean(), tail.mean()))
}

/// The status-page target a matrix cell belongs to: the value of the first
/// part naming the cluster, site or scope axis (images group under their
/// cluster), the whole cell when no part does, `"global"` for cell-less
/// builds. The one bucketing rule of the status grid and of the
/// [`TargetTable`] a server numbers its builds' targets in, borrowed from
/// the cell so bucketing a history allocates nothing. One scan: every cell
/// the suite renders names its axis in its first part.
pub fn cell_target(cell: Option<&str>) -> &str {
    let Some(cell) = cell else {
        return "global";
    };
    // `,` is ASCII, so every cut at one lands on a char boundary.
    let comma = |s: &str| s.bytes().position(|b| b == b',');
    let mut part = cell;
    loop {
        for axis in ["cluster=", "site=", "scope="] {
            if let Some(value) = part.strip_prefix(axis) {
                return comma(value).map_or(value, |end| &value[..end]);
            }
        }
        match comma(part) {
            Some(end) => part = &part[end + 1..],
            None => return cell,
        }
    }
}

/// A server's status-page targets, each numbered once: [`TargetId`]s are
/// positions here, in the order the targets were first met. A reader
/// turns a target's text into its number once and then compares numbers.
///
/// The texts sit back to back in one buffer, so a new target costs only
/// the table's amortised growth, and a lookup reads the same few cache
/// lines wherever the server's cell texts were allocated. A server shares
/// its table with every epoch by `Arc` until a new target appears.
#[derive(Debug, Clone, Default)]
pub struct TargetTable {
    /// Every target's text, in number order.
    texts: String,
    /// Where each target's text ends in `texts`, by number.
    ends: Vec<usize>,
    /// The numbers, sorted by text.
    by_text: Vec<TargetId>,
}

impl TargetTable {
    /// The number of `target`, if any cell of the server belongs to it.
    pub fn id(&self, target: &str) -> Option<TargetId> {
        let at = self
            .by_text
            .binary_search_by(|&id| self.text(id).cmp(&Some(target)));
        at.ok().map(|at| self.by_text[at])
    }

    /// The text of `id` (`None` for a number this table never gave).
    pub fn text(&self, id: TargetId) -> Option<&str> {
        let n = usize::from(id.0);
        let end = *self.ends.get(n)?;
        let start = n.checked_sub(1).map_or(0, |before| self.ends[before]);
        Some(&self.texts[start..end])
    }

    /// The number of `target`, given on first sight; `None` for a new
    /// target once every number is taken. The table is copied only when a
    /// new target appears while a reader holds it.
    pub(crate) fn intern(table: &mut Arc<TargetTable>, target: &str) -> Option<TargetId> {
        match table
            .by_text
            .binary_search_by(|&id| table.text(id).cmp(&Some(target)))
        {
            Ok(at) => Some(table.by_text[at]),
            Err(at) => {
                let id = TargetId(u16::try_from(table.ends.len()).ok()?);
                let table = Arc::make_mut(table);
                table.texts.push_str(target);
                table.ends.push(table.texts.len());
                table.by_text.insert(at, id);
                Some(id)
            }
        }
    }
}

/// One job as a reader holds it — a read-plane epoch or a live status
/// page alike: its name and its history, frozen by
/// [`crate::CiServer::freeze_history`].
#[derive(Debug, Clone)]
pub struct FrozenJob {
    /// Job name, shared with the server and every other epoch.
    pub name: Arc<str>,
    /// Sealed segments shared with the server, tail copied at the freeze.
    pub history: JobHistory,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BuildResult, Cause};
    use ttt_sim::SimTime;

    fn build(number: u32) -> Build {
        Build {
            r#ref: BuildRef {
                job: "j".into(),
                number,
                cell: None,
            },
            target: TargetId(0),
            cause: Cause::Manual,
            queued_at: SimTime::ZERO,
            started_at: None,
            finished_at: None,
            result: None,
            log: Vec::new(),
        }
    }

    /// Odd builds fail; whatever sealed, the carried tally is the fold.
    fn finish(h: &mut JobHistory, number: u32) {
        let r = build(number).r#ref;
        let b = h.pending_mut(&r).expect("pending build");
        b.result = Some([BuildResult::Success, BuildResult::Failure][number as usize % 2]);
        b.finished_at = Some(SimTime::from_secs(u64::from(number)));
        h.seal_settled();
        assert_eq!(h.tally(), tally(h.finished()));
        assert_eq!(h.clone().tally(), h.tally());
    }

    fn numbers(h: &JobHistory) -> Vec<u32> {
        h.iter().map(|b| b.r#ref.number).collect()
    }

    #[test]
    fn a_stuck_build_only_delays_sealing() {
        let n = 3 * SEGMENT_LEN as u32;
        let mut h = JobHistory::new();
        for i in 1..=n {
            h.push(build(i));
        }
        // Everything but the very first build finishes, newest first.
        for i in (2..=n).rev() {
            finish(&mut h, i);
        }
        assert!(h.sealed().is_empty(), "build 1 is still pending");
        assert_eq!(h.len(), n as usize);
        assert_eq!(numbers(&h), (1..=n).collect::<Vec<_>>());
        // The straggler finishes: every full segment seals at once, in
        // order, and nothing was lost or reordered on the way.
        finish(&mut h, 1);
        assert_eq!(h.sealed().len(), 3);
        assert!(h.open().is_empty());
        assert_eq!(numbers(&h), (1..=n).collect::<Vec<_>>());
        assert!(h.iter().all(|b| b.result.is_some()));
        assert_eq!(h.tally(), (u64::from(n), u64::from(n / 2)));
    }

    #[test]
    fn folds_walk_finished_builds_only_and_bound_the_period() {
        let mut h = JobHistory::new();
        for (i, cell) in [(1, "cluster=a,image=x"), (2, "site=s"), (3, "cluster=a")] {
            let mut b = build(i);
            b.r#ref.cell = Some(cell.into());
            if i < 3 {
                b.result = Some([BuildResult::Failure, BuildResult::Success][i as usize - 1]);
                b.finished_at = Some(SimTime::from_hours(u64::from(i)));
            }
            h.push(b);
        }
        let finished: Vec<_> = h.finished().collect();
        assert_eq!(
            finished,
            vec![
                (Some("cluster=a,image=x"), BuildResult::Failure, SimTime::from_hours(1)),
                (Some("site=s"), BuildResult::Success, SimTime::from_hours(2)),
            ]
        );
        assert_eq!(cell_target(finished[0].0), "a");
        assert_eq!(cell_target(finished[1].0), "s");
        assert_eq!(cell_target(None), "global");
        // One bucket per hour; two histories pour into one series.
        let hourly = success_series([&h, &h], SimDuration::from_hours(1));
        assert_eq!(hourly.means(), vec![(1, 0.0), (2, 1.0)]);
        assert_eq!(hourly.periods()[1].count(), 2);
        // No period is too short or too long: zero is taken as a minute,
        // and the longest one there is puts everything in one bucket.
        let finest = success_series([&h], SimDuration::ZERO);
        assert_eq!(finest.period(), SimDuration::from_mins(1));
        assert_eq!(finest.means(), vec![(60, 0.0), (120, 1.0)]);
        let coarsest = success_series([&h], SimDuration::from_mins(u64::MAX));
        assert_eq!(coarsest.means(), vec![(0, 0.5)]);
    }

    #[test]
    fn freezing_shares_sealed_segments_and_copies_the_tail() {
        let mut h = JobHistory::new();
        for i in 1..=SEGMENT_LEN as u32 + 2 {
            h.push(build(i));
            if i <= SEGMENT_LEN as u32 {
                finish(&mut h, i);
            }
        }
        let frozen = h.clone();
        assert!(Arc::ptr_eq(&frozen.sealed()[0], &h.sealed()[0]));
        // The live tail moves on; the frozen copy does not.
        finish(&mut h, SEGMENT_LEN as u32 + 1);
        assert_eq!(frozen.open()[0].result, None);
        assert_eq!(h.open()[0].result, Some(BuildResult::Failure));
        let n = SEGMENT_LEN as u64;
        assert_eq!((frozen.tally(), h.tally()), ((n, n / 2), (n + 1, n / 2)));
    }
}
