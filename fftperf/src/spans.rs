//! The harness's in-memory span buffer.
//!
//! One span per call the harness makes into a layer (set-up, an op, a
//! verification, a layer-replay call), plus the `TraceEvent`s a `*_traced`
//! entry point returns, converted into children of their op. Spans stay in
//! memory until the worker ends and are then appended to the trace file as
//! JSON lines. Nothing is recorded in the crates themselves.

use fft3d::TraceEvent;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a span in its buffer, plus one; `0` is "no span" (the parent of
/// a root, or what a disabled buffer hands out).
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: SpanId,
    /// Spans of one op share its number; `0` outside any op.
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (tile, bytes, completed, ...).
    pub fields: Vec<(&'static str, f64)>,
}

/// A span that has started and not yet ended.
pub struct Open {
    pub id: SpanId,
    start: Instant,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer that records (`enabled`) or one whose every call is a no-op,
    /// which is what the untraced pass measures with.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span `[start, start + elapsed]`.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        parent: SpanId,
        op: u32,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        elapsed: Duration,
        fields: Vec<(&'static str, f64)>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            parent,
            op,
            layer,
            name,
            start_ns,
            end_ns: start_ns + elapsed.as_nanos() as u64,
            fields,
        });
        self.spans.len() as SpanId
    }

    /// Opens a span whose children are recorded while it runs; close it with
    /// [`Spans::end`].
    pub fn begin(
        &mut self,
        parent: SpanId,
        op: u32,
        layer: &'static str,
        name: &'static str,
    ) -> Open {
        let start = Instant::now();
        Open {
            id: self.add(parent, op, layer, name, start, Duration::ZERO, Vec::new()),
            start,
        }
    }

    /// Closes `open` over the interval its caller measured, which may be
    /// narrower than begin-to-now (an op is timed between its barriers).
    pub fn close(&mut self, open: Open, start: Instant, elapsed: Duration) {
        let start_ns = self.ns(start);
        if let Some(span) = open
            .id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.start_ns = start_ns;
            span.end_ns = start_ns + elapsed.as_nanos() as u64;
        }
    }

    /// Closes `open` now and returns how long it ran. The time is measured
    /// whether or not spans are kept, so a caller can use it as its
    /// measurement.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.start.elapsed();
        let start = open.start;
        self.close(open, start, elapsed);
        elapsed
    }

    /// Times a call that records no spans of its own.
    pub fn time<R>(
        &mut self,
        parent: SpanId,
        op: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(parent, op, layer, name);
        let r = f();
        (r, self.end(open))
    }

    /// Converts the events of one traced transform, which are stamped in
    /// seconds since `origin`, into children of `parent`.
    pub fn add_events(&mut self, parent: SpanId, op: u32, origin: Instant, events: &[TraceEvent]) {
        if !self.enabled {
            return;
        }
        let base = self.ns(origin);
        for e in events {
            let mut fields = Vec::new();
            if let Some(tile) = e.kind.tile() {
                fields.push(("tile", tile as f64));
            }
            match e.kind {
                fft3d::EventKind::PostA2a { bytes, .. } => fields.push(("bytes", bytes as f64)),
                fft3d::EventKind::Test { completed, .. } => {
                    fields.push(("completed", f64::from(u8::from(completed))))
                }
                _ => {}
            }
            self.spans.push(Span {
                parent,
                op,
                layer: "fft3d",
                name: e.kind.label(),
                start_ns: base + (e.start * 1e9) as u64,
                end_ns: base + (e.end * 1e9) as u64,
                fields,
            });
        }
    }

    /// Takes over the spans of `other`, a buffer another thread filled.
    pub fn absorb(&mut self, other: Spans) {
        if !self.enabled {
            return;
        }
        let shift = self.spans.len() as SpanId;
        let later = self.ns(other.epoch);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += shift;
            }
            s.start_ns += later;
            s.end_ns += later;
            s
        }));
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its direct children cover (children may nest or overlap, so the
    /// union of their intervals is taken).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get(i as usize)) else {
            return 0;
        };
        let kids = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .collect();
        (span.end_ns - span.start_ns).saturating_sub(union_len(kids))
    }

    /// Appends every span to `out` as one JSON object per line.
    pub fn write_jsonl(&self, worker: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"worker\":\"{worker}\",\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                i + 1,
                s.parent,
                s.op,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i as SpanId + 1)
            )?;
            for (k, v) in &s.fields {
                write!(out, ",\"{k}\":{v}")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`; empty and inverted ones count
/// for nothing.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (a, b) in intervals {
        if b > a && b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: &mut Spans, parent: SpanId, start_us: u64, len_us: u64) -> SpanId {
        let start = s.epoch + Duration::from_micros(start_us);
        s.add(
            parent,
            1,
            "t",
            "x",
            start,
            Duration::from_micros(len_us),
            Vec::new(),
        )
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let mut s = Spans::new(true);
        let root = at(&mut s, 0, 0, 100);
        let a = at(&mut s, root, 10, 20); // [10, 30)
        at(&mut s, root, 20, 20); // [20, 40) overlaps a
        at(&mut s, root, 60, 10); // [60, 70)
        at(&mut s, a, 12, 5); // grandchild: not root's business
        assert_eq!(s.self_ns(root), (100 - 30 - 10) * 1000);
        assert_eq!(s.self_ns(a), 15_000);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut s = Spans::new(true);
        let root = at(&mut s, 0, 50, 50);
        at(&mut s, root, 0, 60); // starts before the parent
        at(&mut s, root, 90, 60); // ends after it
        assert_eq!(s.self_ns(root), 30_000);
    }

    #[test]
    fn disabled_buffer_records_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let (v, d) = s.time(0, 0, "t", "x", || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert_eq!(s.self_ns(1), 0);
        let mut out = Vec::new();
        s.write_jsonl("w", &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_its_fields() {
        let mut s = Spans::new(true);
        let start = s.epoch;
        s.add(
            0,
            3,
            "mpisim",
            "post",
            start,
            Duration::from_nanos(5),
            vec![("bytes", 32.0)],
        );
        let mut out = Vec::new();
        s.write_jsonl("w", &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"worker\":\"w\",\"id\":1,\"parent\":0,\"op\":3,\"layer\":\"mpisim\",\
             \"name\":\"post\",\"start_ns\":0,\"end_ns\":5,\"self_ns\":5,\"bytes\":32}\n"
        );
    }
}
