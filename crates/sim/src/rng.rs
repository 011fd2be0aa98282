//! Deterministic, named RNG streams.
//!
//! All stochastic behaviour in the workspace draws from a stream identified
//! by `(campaign seed, label)`. Labels are free-form strings such as
//! `"fault/disk-cache/grisou"` or `"userload/rennes"`. Two different labels
//! yield statistically independent streams; the same `(seed, label)` pair
//! always yields the same stream, so adding a new consumer of randomness
//! never perturbs existing streams (a property plain `SmallRng::from_seed`
//! sharing would not give us).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// FNV-1a 64-bit hash of a byte string; stable across platforms and builds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer; decorrelates seed/label combinations.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The label half of a stream seed: what `label` contributes, whatever
/// the seed. A caller that seeds many streams of one label hashes it once.
pub(crate) fn label_key(label: &str) -> u64 {
    splitmix64(fnv1a(label.as_bytes()))
}

/// The stream seed for a seed and a label's [`label_key`].
pub(crate) fn keyed_seed(seed: u64, key: u64) -> u64 {
    splitmix64(seed ^ key)
}

/// Derive the 64-bit seed for the stream `(seed, label)`.
pub fn stream_seed(seed: u64, label: &str) -> u64 {
    keyed_seed(seed, label_key(label))
}

/// Create a small, fast RNG for the stream `(seed, label)`.
pub fn stream_rng(seed: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(stream_seed(seed, label))
}

/// One uniform draw from a non-empty static menu — draw-for-draw what the
/// vendored `SliceRandom::choose` does (one `next_u64`, modulo the length),
/// without the `Option` an empty slice would need.
pub fn pick<T: Copy, R: RngCore>(menu: &[T], rng: &mut R) -> T {
    menu[(rng.next_u64() % menu.len() as u64) as usize]
}

/// A factory carrying a campaign seed, handing out named streams.
///
/// Cloneable and cheap; subsystems keep one and derive streams lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Create a factory for a campaign seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The campaign seed this factory was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A named stream under this campaign seed.
    pub fn stream(&self, label: &str) -> SmallRng {
        stream_rng(self.seed, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let mut a = stream_rng(42, "fault/disk");
        let mut b = stream_rng(42, "fault/disk");
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let mut a = stream_rng(42, "fault/disk");
        let mut b = stream_rng(42, "fault/cpu");
        let same = (0..32).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = stream_rng(1, "x");
        let mut b = stream_rng(2, "x");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published constant.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
