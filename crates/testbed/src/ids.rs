//! Typed identifiers for testbed entities.
//!
//! All identifiers are small dense integers assigned by the generator, so
//! they can index into the `Testbed` arenas directly and live in copy types.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// The dense index backing this id.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i as $repr)
            }
        }
    };
}

id_type!(
    /// A testbed site (geographic location hosting clusters and services).
    SiteId,
    u16,
    "site-"
);
id_type!(
    /// A homogeneous group of nodes bought together.
    ClusterId,
    u16,
    "cluster-"
);
id_type!(
    /// A single compute node.
    NodeId,
    u32,
    "node-"
);
id_type!(
    /// A network switch.
    SwitchId,
    u16,
    "switch-"
);
id_type!(
    /// A power distribution unit carrying per-port wattmeters.
    PduId,
    u16,
    "pdu-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SiteId(3).to_string(), "site-3");
        assert_eq!(NodeId(120).to_string(), "node-120");
        assert_eq!(PduId(0).to_string(), "pdu-0");
    }

    #[test]
    fn index_roundtrip() {
        let id: NodeId = 42usize.into();
        assert_eq!(id.index(), 42);
        assert_eq!(id, NodeId(42));
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(ClusterId(1));
        set.insert(ClusterId(1));
        set.insert(ClusterId(2));
        assert_eq!(set.len(), 2);
        assert!(ClusterId(1) < ClusterId(2));
    }
}
