//! Schedulable test configurations.

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
    /// Matrix cell key within the CI job, if any.
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
