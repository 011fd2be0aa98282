//! Versioned archive of testbed descriptions.
//!
//! The paper stresses that descriptions are archived so an experimenter can
//! ask "what did the testbed look like six months ago?" (slide 7). The
//! archive stores every published version and answers lookups by version
//! number or by time.

use crate::description::{describe, TestbedDescription};
use ttt_sim::{Buggify, RpcError, SimTime};
use ttt_testbed::Testbed;

/// The Reference API service: an append-only archive of descriptions.
#[derive(Debug, Clone, Default)]
pub struct RefApi {
    snapshots: Vec<TestbedDescription>,
    /// Chaos hook: when armed, a describe read can be refused.
    buggify: Buggify,
    /// Monotone count of describe reads — the rng-free buggify salt.
    reads: u64,
}

impl RefApi {
    /// An empty archive.
    pub fn new() -> Self {
        RefApi::default()
    }

    /// Snapshot the testbed's reference state and publish it as the next
    /// version. Returns the assigned version number.
    pub fn publish_from(&mut self, tb: &Testbed, at: SimTime) -> u64 {
        let version = self.snapshots.last().map_or(1, |d| d.version + 1);
        self.snapshots.push(describe(tb, version, at));
        version
    }

    /// Publish a pre-built description (version must increase).
    ///
    /// # Panics
    /// Panics if the version does not increase.
    pub fn publish(&mut self, d: TestbedDescription) {
        if let Some(last) = self.snapshots.last() {
            assert!(d.version > last.version, "versions must increase");
        }
        self.snapshots.push(d);
    }

    /// Arm (or disarm) the refused-describe chaos hook. Rate 0 keeps every
    /// read identical to an unarmed archive.
    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    /// Serve the latest description as the REST read path would. Under
    /// chaos the call is refused and the reader keeps whatever stale
    /// version it already holds; an empty archive refuses too (nothing is
    /// listening before first publish). The decision hashes a monotone
    /// read counter, so identical read sequences refuse identically
    /// across engines.
    pub fn describe_latest(&mut self) -> Result<&TestbedDescription, RpcError> {
        self.reads += 1;
        if self.buggify.fire_hashed("refapi-describe", self.reads) {
            return Err(RpcError::Refused);
        }
        self.snapshots.last().ok_or(RpcError::Refused)
    }

    /// Latest published description, if any.
    pub fn latest(&self) -> Option<&TestbedDescription> {
        self.snapshots.last()
    }

    /// Description with the exact version number.
    pub fn version(&self, version: u64) -> Option<&TestbedDescription> {
        self.snapshots.iter().find(|d| d.version == version)
    }

    /// Number of archived versions.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttt_testbed::TestbedBuilder;

    #[test]
    fn publish_assigns_increasing_versions() {
        let tb = TestbedBuilder::small().build();
        let mut api = RefApi::new();
        assert!(api.is_empty());
        assert_eq!(api.publish_from(&tb, SimTime::ZERO), 1);
        assert_eq!(api.publish_from(&tb, SimTime::from_days(1)), 2);
        assert_eq!(api.len(), 2);
        assert_eq!(api.latest().unwrap().version, 2);
        assert_eq!(api.version(1).unwrap().taken_at, SimTime::ZERO);
        assert!(api.version(9).is_none());
    }

    #[test]
    #[should_panic(expected = "versions must increase")]
    fn non_increasing_version_rejected() {
        let tb = TestbedBuilder::small().build();
        let mut api = RefApi::new();
        api.publish_from(&tb, SimTime::ZERO);
        let stale = crate::description::describe(&tb, 1, SimTime::from_days(1));
        api.publish(stale);
    }
}
