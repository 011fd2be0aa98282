//! Schedulable test configurations.

use ttt_ci::{Cause, CellKey, CiServer};
use ttt_oar::ResourceRequest;
use ttt_sim::SimDuration;

/// One test configuration the external scheduler keeps on its list —
/// corresponds to one cell of a CI job (or the whole job for freestyle).
#[derive(Debug, Clone, PartialEq)]
pub struct TestEntry {
    /// Stable identifier, e.g. `"environments/grisou/debian9-min"`.
    pub id: String,
    /// The CI job this configuration belongs to.
    pub ci_job: String,
    /// Matrix cell key within the CI job, if any. An entry with a cell is
    /// triggered through its CI key; a cell-less one by its job's name
    /// (the external scheduler triggers the whole job, every cell of a
    /// matrix job; cron fires nothing for it).
    pub cell: Option<String>,
    /// Site whose resources the test consumes (same-site policy input).
    pub site: String,
    /// Resources the test needs on the testbed.
    pub request: ResourceRequest,
    /// Hardware-centric tests need all nodes of a cluster and honour the
    /// peak-hours policy; software-centric ones take one node per target
    /// (slide 16's distinction).
    pub hardware_centric: bool,
    /// Desired cadence between successful runs.
    pub period: SimDuration,
}

/// Trigger the CI build of `job`'s `cell` through its key, made at the
/// first call and kept in `key`; a job CI does not know yet gets none and
/// is asked for again next time. Whether a build was enqueued: `false`
/// when one is already queued or running.
pub(crate) fn trigger_keyed(
    ci: &mut CiServer,
    key: &mut Option<CellKey>,
    job: &str,
    cell: &str,
    cause: Cause,
) -> bool {
    if key.is_none() {
        *key = ci.cell_key(job, Some(cell));
    }
    key.and_then(|key| ci.trigger_key(key, cause)).is_some()
}
