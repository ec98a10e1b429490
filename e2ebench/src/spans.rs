//! In-memory span recording for the traced run.
//!
//! A span is a named interval around one call into the program, with the
//! request it belongs to and the span that caused it. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is its
//! duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Layer name, e.g. `json.decode`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
}

/// A span recorder; one per thread, merged with [`Spans::absorb`].
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-layer totals derived from the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this layer.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl Spans {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Timestamp of `at` on this recorder's axis.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index (for children).
    pub fn push(
        &mut self,
        req: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            req,
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Moves every span of `other` (same origin) into this recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Count, total and self time per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start.max(parent.start);
                let hi = s.end.min(parent.end);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end - s.start;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(*cov);
        }
        out
    }

    /// Every span as tab-separated lines: index, request id, layer name,
    /// start and end in nanoseconds since the origin, and the parent's
    /// index (`-` for a root).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("span\treq\tname\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.req, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut s = Spans::new(Instant::now());
        let root = s.push(7, "request", 0, 100, None);
        s.push(7, "json.decode", 10, 30, Some(root));
        let d = s.push(7, "service.decide", 30, 90, Some(root));
        s.push(7, "telemetry.record_trace", 80, 95, Some(d)); // clipped at 90
        let layers = s.layers();
        assert_eq!(layers["request"].self_ns, 100 - 20 - 60);
        assert_eq!(layers["service.decide"].self_ns, 60 - 10);
        assert_eq!(layers["json.decode"].self_ns, 20);
        assert_eq!(layers["telemetry.record_trace"].total_ns, 15);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        a.push(1, "x", 0, 10, None);
        let mut b = Spans::new(origin);
        let r = b.push(2, "request", 0, 10, None);
        b.push(2, "y", 1, 2, Some(r));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.layers()["request"].self_ns, 9);
    }
}
