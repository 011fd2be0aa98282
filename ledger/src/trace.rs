//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer: kept in a pre-sized buffer, written out at exit.

use std::io::{self, Write};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Metric-style name (`core.run_until`, `oar.parse_request`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Which traced campaign the span belongs to (0 = none: a leaf driver).
    pub campaign_id: u32,
}

/// The span buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    campaign_id: u32,
}

impl Tracer {
    /// A tracer whose buffer holds `capacity` spans before it regrows.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            // detlint: allow(no-wall-clock) -- span clock origin; spans are host-time facts by definition
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            campaign_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to campaign `id`.
    pub fn set_campaign(&mut self, id: u32) {
        self.campaign_id = id;
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            campaign_id: self.campaign_id,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Time `f` as a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Duration in seconds of the closed span `id`.
    pub fn span_seconds(&self, id: u32) -> f64 {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"campaign_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.campaign_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_campaign() {
        let mut tr = Tracer::new(8);
        let outer = tr.enter("workload");
        tr.set_campaign(3);
        let inner = tr.enter("campaign");
        tr.span("core.new", || ());
        tr.exit(inner);
        tr.exit(outer);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(outer));
        assert_eq!(tr.spans[2].parent, Some(inner));
        assert_eq!(tr.spans[2].campaign_id, 3);
        assert!(tr.spans[0].end_ns >= tr.spans[2].end_ns);
        assert_eq!(tr.seconds("core.new").len(), 1);
        assert_eq!(tr.seconds("core.new"), [tr.span_seconds(2)]);

        let mut text = Vec::new();
        tr.write_jsonl(&mut text)
            .expect("a Vec accepts every write");
        let text = String::from_utf8(text).expect("spans are ASCII");
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\": \"core.new\""));
        assert!(text.contains("\"parent\": null"));
    }
}
