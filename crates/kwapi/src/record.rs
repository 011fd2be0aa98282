//! One sampler call, kept as the call and not as its samples.
//!
//! A sampling call reads a fixed list of wattmeters at a fixed list of
//! instants, and its only randomness is the sensor noise: two generator
//! draws per sample that chaos did not drop. So the call is kept as what
//! it read before noise, which samples chaos dropped, and where the
//! generator stood; any sample is then re-derived bit for bit by replaying
//! the draws up to it.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};
use std::ops::Range;
use ttt_sim::{SimDuration, SimTime};
use ttt_testbed::NodeId;

/// Generator draws between two replay checkpoints of a call, at most
/// (one tick's draws when a tick alone has more): deriving one sample
/// skips no more than this many draws plus the tick's own.
const CHECKPOINT_DRAWS: u64 = 512;

/// Append-only storage in fixed-size chunks: what is written never moves,
/// and growing costs one allocation of a chunk, never a copy.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    chunks: Vec<Vec<T>>,
    chunk: usize,
}

/// Where an [`Arena`] put one call's elements.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    chunk: u32,
    start: u32,
    len: u32,
}

impl<T: Clone> Arena<T> {
    /// An arena whose chunks hold `chunk` elements; the first one is
    /// allocated now.
    pub(crate) fn new(chunk: usize) -> Self {
        let chunk = chunk.max(64);
        Arena {
            chunks: vec![Vec::with_capacity(chunk)],
            chunk,
        }
    }

    /// The chunk `len` more elements go to, contiguously. When the last
    /// chunk has no room left for them, its tail stays unused and a new
    /// chunk starts.
    fn room(&mut self, len: usize) -> &mut Vec<T> {
        let room = self.chunks.last().map_or(0, |c| c.capacity() - c.len());
        if room < len {
            self.chunks.push(Vec::with_capacity(self.chunk.max(len)));
        }
        let last = self.chunks.len() - 1;
        &mut self.chunks[last]
    }

    fn span(&self, start: usize, len: usize) -> Span {
        Span {
            chunk: (self.chunks.len() - 1) as u32,
            start: start as u32,
            len: len as u32,
        }
    }

    /// Append `items` contiguously.
    pub(crate) fn push(&mut self, items: &[T]) -> Span {
        let chunk = self.room(items.len());
        let start = chunk.len();
        chunk.extend_from_slice(items);
        self.span(start, items.len())
    }

    /// Append `len` copies of `value` contiguously.
    pub(crate) fn push_n(&mut self, len: usize, value: T) -> Span {
        let chunk = self.room(len);
        let start = chunk.len();
        chunk.resize(start + len, value);
        self.span(start, len)
    }

    pub(crate) fn get(&self, span: Span) -> &[T] {
        let start = span.start as usize;
        &self.chunks[span.chunk as usize][start..start + span.len as usize]
    }

    fn get_mut(&mut self, span: Span) -> &mut [T] {
        let start = span.start as usize;
        &mut self.chunks[span.chunk as usize][start..start + span.len as usize]
    }
}

/// What one wattmeter of a call read before noise, and how many of the
/// call's samples of it chaos kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reading {
    pub(crate) label: NodeId,
    pub(crate) count: u32,
    pub(crate) watts: f64,
}

/// One sampler call. Its slots are tick-major and reading-minor: slot
/// `k·m + j` is reading `j` at tick `k`, in the order the draws were made.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    /// Tick `k` is at `origin + period·(k + 1)`.
    pub(crate) origin: SimTime,
    pub(crate) period: SimDuration,
    pub(crate) ticks: u64,
    /// Ticks between two checkpoints.
    stride: u64,
    /// Multiplicative Gaussian sensor noise of the sampler that called.
    noise: f64,
    /// The newest instant of this call or of any earlier one, so a walk
    /// back from the newest call knows when nothing older can reach a
    /// window.
    pub(crate) reach: SimTime,
    readings: Span,
    /// The generator before tick `c·stride`, for each `c`.
    checkpoints: Span,
    /// One bit per slot, set where chaos dropped the sample; empty when
    /// chaos was off.
    drops: Span,
}

/// The arenas every call's elements live in.
#[derive(Debug)]
pub(crate) struct Arenas {
    readings: Arena<Reading>,
    checkpoints: Arena<SmallRng>,
    drops: Arena<u64>,
}

impl Arenas {
    /// Arenas whose first chunks hold `readings` readings, as many drop
    /// words, and a quarter as many checkpoints.
    pub(crate) fn new(readings: usize) -> Self {
        Arenas {
            readings: Arena::new(readings),
            checkpoints: Arena::new(readings / 4),
            drops: Arena::new(readings),
        }
    }

    /// Run the draws of a call over `readings` (counts zero) and keep it:
    /// the generator moves exactly as the samples' noise draws would move
    /// it, and each reading's count becomes the samples chaos kept.
    /// `dropped(label, instant)` is the chaos decision.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record(
        &mut self,
        readings: &mut [Reading],
        (origin, period, ticks): (SimTime, SimDuration, u64),
        noise: f64,
        reach: SimTime,
        chaos: bool,
        dropped: impl Fn(NodeId, SimTime) -> bool,
        rng: &mut SmallRng,
    ) -> Record {
        let m = readings.len() as u64;
        let stride = (CHECKPOINT_DRAWS / (2 * m)).max(1);
        let checkpoints = self
            .checkpoints
            .push_n(ticks.div_ceil(stride) as usize, rng.clone());
        let words = if chaos { (ticks * m).div_ceil(64) } else { 0 };
        let drops = self.drops.push_n(words as usize, 0);
        let (marks, bits) = (
            self.checkpoints.get_mut(checkpoints),
            self.drops.get_mut(drops),
        );
        for k in 0..ticks {
            if k % stride == 0 {
                marks[(k / stride) as usize] = rng.clone();
            }
            let t = origin + period.saturating_mul(k + 1);
            for (j, reading) in readings.iter_mut().enumerate() {
                if chaos && dropped(reading.label, t) {
                    let slot = k * m + j as u64;
                    bits[(slot / 64) as usize] |= 1 << (slot % 64);
                    continue;
                }
                reading.count += 1;
                rng.next_u64();
                rng.next_u64();
            }
        }
        let head = Record {
            origin,
            period,
            ticks,
            stride,
            noise,
            reach,
            readings: self.readings.push(readings),
            checkpoints,
            drops,
        };
        Record {
            reach: reach.max(self.call(head).tick_at(ticks - 1)),
            ..head
        }
    }

    pub(crate) fn call(&self, head: Record) -> Call<'_> {
        Call {
            head,
            readings: self.readings.get(head.readings),
            checkpoints: self.checkpoints.get(head.checkpoints),
            drops: self.drops.get(head.drops),
        }
    }
}

/// A call with its elements, ready to be read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Call<'a> {
    pub(crate) head: Record,
    pub(crate) readings: &'a [Reading],
    checkpoints: &'a [SmallRng],
    drops: &'a [u64],
}

impl Call<'_> {
    /// The instant of tick `k`.
    pub(crate) fn tick_at(&self, k: u64) -> SimTime {
        self.head.origin + self.head.period.saturating_mul(k + 1)
    }

    /// The newest instant the call sampled at.
    pub(crate) fn end(&self) -> SimTime {
        self.tick_at(self.head.ticks - 1)
    }

    /// How many ticks fall before `t`.
    pub(crate) fn ticks_before(&self, t: SimTime) -> u64 {
        let (origin, p) = (self.head.origin.as_nanos(), self.head.period.as_nanos());
        match t.as_nanos().checked_sub(origin) {
            None | Some(0) => 0,
            Some(_) if p == 0 => self.head.ticks,
            Some(d) => ((d - 1) / p).min(self.head.ticks),
        }
    }

    /// The ticks in `[from, to)`.
    pub(crate) fn ticks_in(&self, from: SimTime, to: SimTime) -> Range<u64> {
        self.ticks_before(from)..self.ticks_before(to)
    }

    /// The slot of wattmeter `label` in a tick, if the call read it.
    /// Readings are in ascending label order.
    pub(crate) fn slot_of(&self, label: NodeId) -> Option<usize> {
        self.readings.binary_search_by_key(&label, |r| r.label).ok()
    }

    fn slot(&self, k: u64, j: usize) -> u64 {
        k * self.readings.len() as u64 + j as u64
    }

    /// Whether chaos dropped reading `j`'s sample at tick `k`.
    pub(crate) fn dropped(&self, k: u64, j: usize) -> bool {
        self.dropped_slot(self.slot(k, j))
    }

    fn dropped_slot(&self, slot: u64) -> bool {
        self.drops
            .get((slot / 64) as usize)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    /// How many of reading `j`'s samples at `ticks` chaos kept.
    pub(crate) fn kept_in(&self, j: usize, ticks: Range<u64>) -> u64 {
        if self.drops.is_empty() {
            return ticks.end.saturating_sub(ticks.start);
        }
        ticks.filter(|&k| !self.dropped(k, j)).count() as u64
    }

    /// The tick of reading `j`'s `n`-th kept sample (from zero), or the
    /// tick count when it kept no more.
    pub(crate) fn nth_kept_tick(&self, j: usize, n: u64) -> u64 {
        if self.drops.is_empty() {
            return n.min(self.head.ticks);
        }
        (0..self.head.ticks)
            .filter(|&k| !self.dropped(k, j))
            .nth(n as usize)
            .unwrap_or(self.head.ticks)
    }

    /// The tick of reading `j`'s newest kept sample.
    pub(crate) fn last_kept_tick(&self, j: usize) -> Option<u64> {
        (0..self.head.ticks).rev().find(|&k| !self.dropped(k, j))
    }
}

/// The call's generator, replayed forward; samples are derived in slot
/// order.
#[derive(Debug)]
pub(crate) struct Replay<'a> {
    call: Call<'a>,
    /// The generator as it stood before the draws of `slot`.
    rng: SmallRng,
    slot: u64,
}

impl<'a> Replay<'a> {
    /// A replay of `call`'s draws from its first checkpoint.
    pub(crate) fn of(call: Call<'a>) -> Self {
        Replay {
            rng: call.checkpoints[0].clone(),
            slot: 0,
            call,
        }
    }

    /// The sample of reading `j` at tick `k`, which chaos kept and which
    /// comes at or after every slot derived before it.
    pub(crate) fn sample(&mut self, k: u64, j: usize) -> f64 {
        let call = self.call;
        let target = call.slot(k, j);
        debug_assert!(target >= self.slot, "samples are derived in slot order");
        let c = k / call.head.stride;
        let checkpoint = call.slot(c * call.head.stride, 0);
        if checkpoint > self.slot {
            self.rng = call.checkpoints[c as usize].clone();
            self.slot = checkpoint;
        }
        for slot in self.slot..target {
            if !call.dropped_slot(slot) {
                self.rng.next_u64();
                self.rng.next_u64();
            }
        }
        self.slot = target + 1;
        let noisy = call.readings[j].watts * (1.0 + call.head.noise * gaussian(&mut self.rng));
        noisy.max(0.0)
    }
}

/// One standard normal draw (Box–Muller), two uniform draws.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}
