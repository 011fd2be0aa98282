//! Backbone link models.
//!
//! The generator wires every site pair with a full-mesh [`crate::topology::SiteLink`]
//! backbone, but links alone are binary: up (free, instant, lossless) or
//! partitioned. A [`LinkModelSpec`] attaches *degree* to the backbone —
//! per-pair latency and loss that every enveloped service call and every
//! federation placement probe sees — so partitions and skew become the
//! far end of a continuum instead of a separate kind.
//!
//! Determinism contract: [`LinkModelSpec::quality`] is a pure function of
//! the site pair. The *caller* decides whether a loss draw happens (only
//! when `loss_prob > 0`), so arming a latency-only model never shifts an
//! RNG stream, and the ideal model never draws at all.

use crate::ids::SiteId;
use ttt_sim::LinkQuality;

/// The backbone link model a scenario selects: what scenario files carry
/// and what the campaign config stores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum LinkModelSpec {
    /// The historical free backbone (the default): no added latency, no
    /// loss, **no RNG draws** — campaigns running it are byte-identical to
    /// campaigns built before link models existed.
    #[default]
    Ideal,
    /// One latency/loss figure for every distinct-site pair (a flat WAN).
    Uniform {
        /// Added one-way latency per enveloped call, seconds.
        latency_s: f64,
        /// Probability an enveloped call is dropped in flight.
        loss_prob: f64,
    },
    /// Latency and loss grow with site-index distance (sites are laid out
    /// along the backbone in id order, like the dark-fibre ring of the real
    /// federation): neighbours are near-ideal, far pairs cross several
    /// backbone segments and pay for each.
    DistanceTiered,
}

impl LinkModelSpec {
    /// The distance tiers, `(max_distance, latency_s, loss_prob)` — public
    /// so docs and tests agree with the implementation.
    pub const TIERS: [(u16, f64, f64); 3] = [
        (1, 0.002, 0.0),
        (4, 0.010, 0.01),
        (u16::MAX, 0.030, 0.05),
    ];

    /// Whether this is the ideal (no-op, draw-free) model.
    pub fn is_ideal(&self) -> bool {
        matches!(self, LinkModelSpec::Ideal)
    }

    /// Quality of the path `from → to`. `None` means an ideal hop: zero
    /// added latency, no loss, and — by the determinism contract — no RNG
    /// draw at the callsite. Same-site paths are always ideal.
    pub fn quality(&self, from: SiteId, to: SiteId) -> Option<LinkQuality> {
        if from == to {
            return None;
        }
        let (latency_s, loss_prob) = match *self {
            LinkModelSpec::Ideal => return None,
            LinkModelSpec::Uniform {
                latency_s,
                loss_prob,
            } => (latency_s, loss_prob),
            LinkModelSpec::DistanceTiered => {
                let d = from.0.abs_diff(to.0);
                let &(_, latency_s, loss_prob) = Self::TIERS
                    .iter()
                    .find(|&&(max, _, _)| d <= max)
                    // detlint: allow(no-unwrap-in-lib) -- the last tier's bound is u16::MAX, which no u16 distance exceeds
                    .expect("last tier is unbounded");
                (latency_s, loss_prob)
            }
        };
        Some(LinkQuality {
            latency_s,
            loss_prob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_always_free() {
        for a in 0..4u16 {
            for b in 0..4u16 {
                assert_eq!(LinkModelSpec::Ideal.quality(SiteId(a), SiteId(b)), None);
            }
        }
        assert!(LinkModelSpec::default().is_ideal());
    }

    #[test]
    fn uniform_spares_same_site_paths() {
        let m = LinkModelSpec::Uniform {
            latency_s: 0.02,
            loss_prob: 0.1,
        };
        assert_eq!(m.quality(SiteId(2), SiteId(2)), None);
        let q = m.quality(SiteId(0), SiteId(3)).unwrap();
        assert_eq!(q.latency_s, 0.02);
        assert_eq!(q.loss_prob, 0.1);
    }

    #[test]
    fn distance_tiers_are_monotone() {
        let m = LinkModelSpec::DistanceTiered;
        assert_eq!(m.quality(SiteId(5), SiteId(5)), None);
        let near = m.quality(SiteId(0), SiteId(1)).unwrap();
        let mid = m.quality(SiteId(0), SiteId(3)).unwrap();
        let far = m.quality(SiteId(0), SiteId(7)).unwrap();
        assert!(near.latency_s < mid.latency_s);
        assert!(mid.latency_s < far.latency_s);
        assert!(near.loss_prob < mid.loss_prob);
        assert!(mid.loss_prob < far.loss_prob);
        // Symmetric in the pair.
        assert_eq!(m.quality(SiteId(7), SiteId(0)), Some(far));
    }
}
