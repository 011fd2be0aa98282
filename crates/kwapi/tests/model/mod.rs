//! The eager reference both model tests hold the store to: one
//! [`RingSeries`] per label, fed sample by sample by the sampler as it was
//! before it recorded calls — every simulated second it walks every node
//! of the testbed, filters by site, looks wiring, load and draw up again,
//! and computes each sample's noise on the spot. Window reads are counted
//! and refused exactly as the REST API refuses them.

#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use ttt_kwapi::{MetricStore, PowerSampler, RingSeries, WindowAgg};
use ttt_sim::{Buggify, RpcError, SimDuration, SimTime};
use ttt_testbed::{perf, NodeId, SiteId, Testbed};

/// The reference store.
pub struct Model {
    rings: Vec<RingSeries>,
    /// Samples pushed per label.
    pub pushed: Vec<usize>,
    buggify: Buggify,
    reads: u64,
}

impl Model {
    pub fn new(n: usize, capacity: usize, period: SimDuration) -> Self {
        Model {
            rings: (0..n).map(|_| RingSeries::new(capacity, period)).collect(),
            pushed: vec![0; n],
            buggify: Buggify::off(),
            reads: 0,
        }
    }

    pub fn set_buggify(&mut self, buggify: Buggify) {
        self.buggify = buggify;
    }

    pub fn len(&self) -> usize {
        self.rings.len()
    }

    /// One tick of the eager sampler; `site: None` samples every node.
    pub fn tick(
        &mut self,
        sampler: &PowerSampler,
        tb: &Testbed,
        site: Option<SiteId>,
        loads: &BTreeMap<NodeId, f64>,
        t: SimTime,
        rng: &mut SmallRng,
    ) {
        for node in tb.nodes() {
            if site.is_some_and(|s| node.site != s) {
                continue;
            }
            if tb
                .buggify()
                .fire_hashed("kwapi-sample", node.id.0 as u64 ^ t.as_nanos())
            {
                continue;
            }
            let measured = tb.topology().measured_node(node.id);
            let load = loads.get(&measured).copied().unwrap_or(0.0);
            let true_w = perf::power_draw_w(tb.node(measured), load);
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let gaussian = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let noisy = true_w * (1.0 + sampler.noise * gaussian);
            if let Some(ring) = self.rings.get_mut(node.id.index()) {
                ring.push(t, noisy.max(0.0));
                self.pushed[node.id.index()] += 1;
            }
        }
    }

    /// The eager sampler over `(from, to]`.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        sampler: &PowerSampler,
        tb: &Testbed,
        site: Option<SiteId>,
        loads: &BTreeMap<NodeId, f64>,
        (from, to): (SimTime, SimTime),
        rng: &mut SmallRng,
    ) {
        if sampler.period.is_zero() {
            return;
        }
        let mut t = from + sampler.period;
        while t <= to {
            self.tick(sampler, tb, site, loads, t, rng);
            t += sampler.period;
        }
    }

    /// The series of `label`, if the model tracks it.
    pub fn ring(&self, label: NodeId) -> Option<&RingSeries> {
        self.rings.get(label.index())
    }

    /// One counted REST window read.
    pub fn window(
        &mut self,
        label: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> Result<Option<WindowAgg>, RpcError> {
        self.reads += 1;
        if self.buggify.fire_hashed("kwapi-window", self.reads) {
            return Err(RpcError::Refused);
        }
        Ok(self.ring(label).and_then(|r| r.window(from, to)))
    }

    /// The section read as a label-by-label walk: skip the labels that
    /// never sampled, one counted read for every other.
    pub fn windows(&mut self, from: SimTime, to: SimTime) -> Vec<RowBits> {
        let mut rows = Vec::new();
        for label in (0..self.len() as u32).map(NodeId) {
            if self.pushed[label.index()] == 0 {
                continue;
            }
            if let Ok(Some(agg)) = self.window(label, from, to) {
                rows.push(row_bits(label, agg));
            }
        }
        rows
    }
}

/// A row with its floats as bit patterns.
pub type RowBits = (u32, u32, [u64; 3]);

pub fn row_bits(label: NodeId, w: WindowAgg) -> RowBits {
    (label.0, w.count, [w.min, w.mean, w.max].map(f64::to_bits))
}

/// The section read of the store, as rows.
pub fn store_windows(store: &mut MetricStore, from: SimTime, to: SimTime) -> Vec<RowBits> {
    let mut rows = Vec::new();
    store.windows(from, to, |label, agg| rows.push(row_bits(label, agg)));
    rows
}

/// Raw `(instant, watts)` samples, the newest one, then consolidated
/// `(period start, [min, mean, max], count)` points, floats as their bit
/// patterns.
pub type SeriesBits = (
    Vec<(SimTime, u64)>,
    Option<(SimTime, u64)>,
    Vec<(SimTime, [u64; 3], u32)>,
);

/// Every bit the store's series of `label` holds.
pub fn store_bits(store: &MetricStore, label: NodeId) -> SeriesBits {
    let series = store.power(label);
    let raw = series.range(SimTime::ZERO, SimTime::MAX);
    assert_eq!(raw.len(), series.raw_len());
    let points = series.consolidated();
    bits_of(&raw, series.latest(), &points)
}

/// Every bit the model's series of `label` holds; an untracked label
/// holds nothing.
pub fn model_bits(model: &Model, label: NodeId) -> SeriesBits {
    match model.ring(label) {
        Some(ring) => {
            let raw = ring.range(SimTime::ZERO, SimTime::MAX);
            assert_eq!(raw.len(), ring.raw_len());
            bits_of(&raw, ring.latest(), ring.consolidated())
        }
        None => (Vec::new(), None, Vec::new()),
    }
}

fn bits_of(
    raw: &[(SimTime, f64)],
    latest: Option<(SimTime, f64)>,
    points: &[ttt_kwapi::ConsolidatedPoint],
) -> SeriesBits {
    (
        raw.iter().map(|(t, w)| (*t, w.to_bits())).collect(),
        latest.map(|(t, w)| (t, w.to_bits())),
        points
            .iter()
            .map(|c| {
                (
                    c.period_start,
                    [c.min, c.mean, c.max].map(f64::to_bits),
                    c.count,
                )
            })
            .collect(),
    )
}

/// The three reads of one window, floats as bit patterns.
pub type WindowBits = (Vec<(SimTime, u64)>, Option<u64>, Option<RowBits>);

pub fn store_window_bits(
    store: &MetricStore,
    label: NodeId,
    from: SimTime,
    to: SimTime,
) -> WindowBits {
    let s = store.power(label);
    window_bits(
        label,
        s.range(from, to),
        s.mean(from, to),
        s.window(from, to),
    )
}

pub fn model_window_bits(model: &Model, label: NodeId, from: SimTime, to: SimTime) -> WindowBits {
    match model.ring(label) {
        Some(r) => window_bits(
            label,
            r.range(from, to),
            r.mean(from, to),
            r.window(from, to),
        ),
        None => (Vec::new(), None, None),
    }
}

fn window_bits(
    label: NodeId,
    range: Vec<(SimTime, f64)>,
    mean: Option<f64>,
    window: Option<WindowAgg>,
) -> WindowBits {
    (
        range.into_iter().map(|(t, w)| (t, w.to_bits())).collect(),
        mean.map(f64::to_bits),
        window.map(|w| row_bits(label, w)),
    )
}
