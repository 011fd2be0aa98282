//! Allocation and sharing guards for the read plane.
//!
//! An epoch shares with its predecessor everything that did not change
//! (sealed history segments, the indexed property database, unchanged
//! service rows) and the renderers walk that shared state in place. These
//! tests pin both halves with a counting allocator and `Arc::ptr_eq`:
//!
//! * the status page renders an epoch as it is: a `ServicesPanel` over an
//!   epoch's rows makes no allocator call at all, and a `StatusGrid`'s
//!   calls are bounded by its distinct cells, not by the builds it walks —
//!   a per-render copy of the histories or the rows cannot pass either;
//! * consecutive epochs must hold the *same* allocations for what did not
//!   move between them;
//! * what arming the read plane adds to a campaign's allocator calls must
//!   not grow with the campaign's length.
//!
//! The same allocator pins the write side's cost of one launched test: a
//! CI build's names are written once per job and once per cell, not once
//! per build or per holder.
//!
//! The allocator counts per thread, so the tests of this file can run in
//! parallel without polluting each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use throughout::ci::{BuildResult, Cause, CiServer, JobKind, JobSpec};
use throughout::core::snapshot::{CampaignSnapshot, Query, QueryAnswer, QueryEngine};
use throughout::core::{Campaign, CampaignConfig};
use throughout::sim::SimTime;
use throughout::status::{ServicesPanel, StatusGrid};

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread. Const-initialised and without
    /// a destructor, so touching it from inside the allocator is safe.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `small(2017)` with the read plane armed (or not).
fn small(armed: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::small(2017);
    if armed {
        cfg.queries_per_day = 1_000.0;
        cfg.query_users = 10;
    }
    cfg
}

#[test]
fn snapshot_renders_do_not_clone_the_views() {
    let mut c = Campaign::new(small(true));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    c.run_until(SimTime::from_days(10));
    let snap = hub.latest().expect("epochs published");

    // The grid owns two strings per distinct cell, its two label lists
    // and the map's nodes: a handful of calls per cell, however many
    // builds each cell tallied. (Copying the histories first cost three
    // calls per build.)
    let (grid, calls) = allocations_during(|| StatusGrid::from_jobs(&snap.jobs));
    let cells = grid.cells.len() as u64;
    let finished: u64 = grid.cells.values().map(|c| c.total).sum();
    assert!(
        finished > 6 * cells + 16,
        "need long histories to make the point: {finished} builds in {cells} cells"
    );
    assert!(
        calls <= 6 * cells + 16,
        "a grid of {cells} cells over {finished} builds made {calls} allocator calls"
    );

    // The panel shows the epoch's own rows.
    let (panel, calls) = allocations_during(|| ServicesPanel::new(snap.services.clone()));
    assert_eq!(calls, 0, "a panel over an epoch's rows copies nothing");
    assert!(Arc::ptr_eq(&panel.rows, &snap.services));
}

/// Walk an armed campaign hour by hour and compare every epoch with its
/// predecessor: whatever did not change is the same allocation.
#[test]
fn consecutive_epochs_share_what_did_not_change() {
    let mut c = Campaign::new(small(true));
    let hub = c.snapshot_hub().expect("armed config builds a hub");
    let mut prev: Option<Arc<CampaignSnapshot>> = None;
    let (mut shared_segments, mut shared_rows) = (0usize, 0usize);
    for hour in 1..=5 * 24 {
        c.run_until(SimTime::from_hours(hour));
        let next = hub.latest().expect("an epoch per hour");
        if let Some(prev) = &prev {
            assert_eq!(next.epoch, prev.epoch + 1);
            // History: names always, and every segment the older epoch
            // saw sealed is the very same segment in the newer one.
            for (old, new) in prev.jobs.iter().zip(&next.jobs) {
                assert!(Arc::ptr_eq(&old.name, &new.name));
                let (old, new) = (old.history.sealed(), new.history.sealed());
                assert!(old.len() <= new.len(), "sealed segments never go away");
                for (a, b) in old.iter().zip(new) {
                    assert!(Arc::ptr_eq(a, b), "hour {hour}: a sealed segment was copied");
                }
                shared_segments += old.len();
            }
            // The property database, its index included: one per version.
            assert_eq!(next.description_version, prev.description_version);
            assert!(Arc::ptr_eq(&prev.properties, &next.properties));
            let filter = Query::NodeFilter {
                key: "gpu".into(),
                value: "NO".into(),
            };
            match (
                QueryEngine::answer(prev, &filter),
                QueryEngine::answer(&next, &filter),
            ) {
                (QueryAnswer::Nodes(a), QueryAnswer::Nodes(b)) => {
                    assert!(!a.is_empty());
                    assert!(Arc::ptr_eq(&a, &b), "the answer is the index's own list");
                }
                other => panic!("unexpected {other:?}"),
            }
            // Service rows: shared exactly when nothing in them moved.
            assert_eq!(
                Arc::ptr_eq(&prev.services, &next.services),
                prev.services == next.services,
                "hour {hour}: rows are shared iff unchanged"
            );
            shared_rows += usize::from(Arc::ptr_eq(&prev.services, &next.services));
            // Site names, across sections and epochs.
            for (old, new) in prev.queues.iter().zip(&next.queues) {
                assert!(Arc::ptr_eq(&old.site, &new.site));
            }
        }
        prev = Some(next);
    }
    assert!(shared_segments > 0, "five days must seal some history");
    assert!(shared_rows > 0, "service rows must survive some epoch unchanged");
}

/// Allocator calls of `run_until(day 3)` and of `run_until(day 6)` after
/// it, for one campaign.
fn allocations_by_half(cfg: CampaignConfig) -> (u64, u64) {
    let mut c = Campaign::new(cfg);
    let ((), early) = allocations_during(|| c.run_until(SimTime::from_days(3)));
    let ((), late) = allocations_during(|| c.run_until(SimTime::from_days(6)));
    (early, late)
}

/// What arming the read plane costs in allocator calls must not depend on
/// how long the campaign has been running: days 4–6 publish the same 72
/// epochs as days 1–3, over histories twice as long. (With a full copy of
/// every history in every epoch the second half cost 1.40× the first,
/// 36 200 calls against 25 783; sharing sealed segments it is 1.07×.)
#[test]
fn publishing_does_not_cost_more_as_history_grows() {
    let (armed_early, armed_late) = allocations_by_half(small(true));
    let (plain_early, plain_late) = allocations_by_half(small(false));
    let early = armed_early - plain_early;
    let late = armed_late - plain_late;
    assert!(early > 0, "arming must publish something in days 1-3");
    assert!(
        late as f64 <= 1.25 * early as f64,
        "publishing cost {late} allocator calls over days 4-6 against {early} over days 1-3"
    );
}

#[test]
fn a_launched_test_costs_ci_a_handful_of_allocations() {
    let mut ci = CiServer::new(4);
    ci.register(JobSpec {
        name: "disk".into(),
        kind: JobKind::Freestyle,
        trigger: None,
    });
    let cell = ["cluster=grisou".to_string()];
    let cycle = |ci: &mut CiServer| {
        assert_eq!(ci.trigger_cells("disk", Cause::ExternalScheduler, &cell).len(), 1);
        let work = ci.assign();
        assert_eq!(work.len(), 1);
        assert!(ci.finish(&work[0].build, BuildResult::Success, Vec::new()));
    };
    // Warm the queue and the history's buffers.
    for _ in 0..64 {
        cycle(&mut ci);
    }
    let ((), calls) = allocations_during(|| {
        for _ in 0..64 {
            cycle(&mut ci);
        }
    });
    // Per cycle: the two returned vectors, and a history segment sealed
    // every eighth build. The cell's name was written at its first build
    // and is shared by every later one (history record, queue entry,
    // executor slot, returned references); a name written per build costs
    // one more, a name copied per holder thirteen and more.
    assert!(
        calls <= 64 * 3,
        "{calls} allocator calls for 64 launched tests"
    );
}
