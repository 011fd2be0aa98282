//! The read side: epochs held from an armed campaign, a pre-generated
//! query batch, and one closed-loop reader that answers and verifies it.

use std::sync::Arc;
use std::time::Instant;
use ttt_core::snapshot::{
    fold_answer, random_query, CampaignSnapshot, Query, QueryEngine, SnapshotHub,
};
use ttt_core::{Campaign, CampaignConfig};
use ttt_sim::rng::stream_rng;
use ttt_sim::{SimDuration, SimTime};

use crate::workloads::armed;

/// Queries in the pre-generated batch.
pub const BATCH: usize = 200_000;
/// Timed passes the batch is cut into; each pass is one throughput sample.
/// A thousand queries a pass (10-20 ms): the host slows in bursts of a
/// second or so, and the median of several hundred short samples moves
/// with them less than the median of a few long ones.
pub const PASSES: usize = 200;
/// The armed campaign is held for at most this many simulated hours (a
/// week: 168 hourly epochs).
const HELD_HOURS: u64 = 7 * 24;

/// What the reader serves: epochs, queries against them, and the answer
/// fold computed for each query when the batch was drawn.
pub struct Held {
    /// The hub the epochs came from.
    pub hub: Arc<SnapshotHub>,
    /// Published epochs, oldest first.
    pub epochs: Vec<Arc<CampaignSnapshot>>,
    /// `(epoch index, query)` pairs.
    pub batch: Vec<(usize, Query)>,
    /// `fold_answer(0, answer)` of each batch entry, the reference the
    /// reader is checked against.
    pub reference: Vec<u64>,
}

/// Run `cfg` with the read plane armed for its first week at most,
/// collecting each hourly epoch from the hub, then draw `queries` queries
/// against the held epochs and fold the reference answers.
pub fn hold(cfg: &CampaignConfig, seed: u64, queries: usize) -> Held {
    let mut cfg = armed(cfg.clone());
    cfg.duration = cfg.duration.min(SimDuration::from_hours(HELD_HOURS));
    let hours = cfg.duration.as_nanos() / SimDuration::from_hours(1).as_nanos();
    let mut campaign = Campaign::new(cfg);
    let hub = campaign
        .snapshot_hub()
        .expect("a campaign with query volume builds its hub");
    let mut epochs: Vec<Arc<CampaignSnapshot>> = Vec::with_capacity(hours as usize);
    for hour in 1..=hours {
        campaign.run_until(SimTime::from_hours(hour));
        if let Some(snap) = hub.latest() {
            if epochs.last().is_none_or(|held| held.epoch != snap.epoch) {
                epochs.push(snap);
            }
        }
    }
    assert!(!epochs.is_empty(), "an armed campaign publishes epochs");
    let mut rng = stream_rng(seed, "ledger-queries");
    let batch: Vec<(usize, Query)> = (0..queries)
        .map(|i| {
            let idx = i % epochs.len();
            (idx, random_query(&mut rng, &epochs[idx]))
        })
        .collect();
    let reference = batch
        .iter()
        .map(|(idx, q)| fold_answer(0, &QueryEngine::answer(&epochs[*idx], q)))
        .collect();
    Held {
        hub,
        epochs,
        batch,
        reference,
    }
}

/// Answer `held.batch[range]` in a closed loop on the calling thread,
/// checking each answer's fold against the reference. Returns wall seconds
/// and mismatches.
///
/// One reader, whatever `host.cpus` says: the cores of a shared host are
/// not all free at once, so a pass that waits for the slowest of several
/// threads times the host's scheduler (two readers on two cores answered
/// anywhere between one and two readers' worth, run to run), and the rate
/// of one reader is what a change to the query engine moves.
pub fn serve(held: &Held, range: std::ops::Range<usize>) -> (f64, u64) {
    // detlint: allow(no-wall-clock) -- host throughput of the reader is the measured quantity
    let start = Instant::now();
    let mut mismatches = 0u64;
    for i in range {
        let (idx, q) = &held.batch[i];
        let fold = fold_answer(0, &QueryEngine::answer(&held.epochs[*idx], q));
        mismatches += u64::from(fold != held.reference[i]);
    }
    (start.elapsed().as_secs_f64(), mismatches)
}
