//! A site: a geographic location hosting clusters, switches and services.

use crate::ids::{ClusterId, SiteId, SwitchId};

/// A testbed site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Dense identifier.
    pub id: SiteId,
    /// Site name, e.g. `"nancy"`.
    pub name: String,
    /// Clusters hosted at this site.
    pub clusters: Vec<ClusterId>,
    /// Switches at this site.
    pub switches: Vec<SwitchId>,
}
