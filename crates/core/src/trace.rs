//! Per-tile event tracing behind the Figure 8/9 breakdowns.
//!
//! [`StepTimes`] answers "how much time went to each category"; this module
//! answers *when* — which tile was packing while which all-to-all was in
//! flight, how many `MPI_Test` polls each tile absorbed, and how much of the
//! communication was actually hidden behind compute. Both backends emit the
//! same [`TraceEvent`] schema: the mpisim backend stamps wall-clock seconds
//! since the run started, the simnet backend stamps virtual seconds.
//!
//! Recording goes through the [`Recorder`] trait so the hot paths stay
//! untouched when tracing is off: the default [`NoopRecorder`] reports
//! `enabled() == false` and every instrumentation site checks that flag
//! before computing timestamps.

#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unreachable))]

use crate::breakdown::StepTimes;
use std::fmt::Write as _;

/// What happened during one traced span. Compute phases carry the tile and
/// the sub-tile block index within it (always 0 on the model-level simulated
/// backend, which does not iterate sub-tiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The upfront 1-D FFT along z over the whole local slab.
    Fftz,
    /// The upfront local z-x-y transposition.
    Transpose,
    /// 1-D FFTs along y for one sub-tile block of a tile.
    Ffty { tile: usize, subtile: usize },
    /// Packing one sub-tile into the tile's send blocks.
    Pack { tile: usize, subtile: usize },
    /// Posting the non-blocking all-to-all for a tile; `bytes` is the total
    /// payload this rank contributes to the exchange.
    PostA2a { tile: usize, bytes: u64 },
    /// One `MPI_Test` poll of a tile's in-flight all-to-all; `completed`
    /// reports the request state the poll observed.
    Test { tile: usize, completed: bool },
    /// Blocking completion of a tile's all-to-all (the stall, if any).
    Wait { tile: usize },
    /// Unpacking one sub-tile block of a received tile.
    Unpack { tile: usize, subtile: usize },
    /// 1-D FFTs along x for one sub-tile block of a received tile.
    Fftx { tile: usize, subtile: usize },
    /// The resilient driver took a degradation step while waiting on
    /// `tile` — the recovery becoming visible in the timeline.
    Degrade { tile: usize, action: DegradeAction },
    /// The recovery driver observed the death of world rank `rank`
    /// (zero-width marker; see `crate::recover`).
    RankLost { rank: usize },
    /// The recovery driver shrank the communicator from `from` survivors to
    /// `to` before re-decomposing (zero-width marker).
    Shrink { from: usize, to: usize },
    /// An integrity check caught silent data corruption on `tile` — wire
    /// checksum, staging-buffer hash, or ABFT checksum line (zero-width
    /// marker; the timeline renders it as an `X`).
    Corrupt { tile: usize },
}

/// One rung of the degradation ladder the resilient pipeline climbs when a
/// tile's all-to-all stalls (in this order; see `pipeline::try_run_new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Multiply the `F*` polling frequencies: progression was starving.
    BoostPolls,
    /// Halve the window `W`: fewer concurrent exchanges contending.
    ShrinkWindow,
    /// Abandon overlap: drain everything in flight and finish the remaining
    /// tiles with blocking (FFTW-style) exchanges.
    Fallback,
    /// Re-pack and re-post a tile's exchange after an integrity check
    /// rejected the staged payload (silent-corruption healing).
    Retransmit,
}

impl DegradeAction {
    /// Short label used in JSON and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeAction::BoostPolls => "boost-polls",
            DegradeAction::ShrinkWindow => "shrink-window",
            DegradeAction::Fallback => "fallback",
            DegradeAction::Retransmit => "retransmit",
        }
    }
}

impl EventKind {
    /// The tile this event belongs to, if any.
    pub fn tile(&self) -> Option<usize> {
        match *self {
            EventKind::Fftz
            | EventKind::Transpose
            | EventKind::RankLost { .. }
            | EventKind::Shrink { .. } => None,
            EventKind::Ffty { tile, .. }
            | EventKind::Pack { tile, .. }
            | EventKind::PostA2a { tile, .. }
            | EventKind::Test { tile, .. }
            | EventKind::Wait { tile }
            | EventKind::Unpack { tile, .. }
            | EventKind::Fftx { tile, .. }
            | EventKind::Degrade { tile, .. }
            | EventKind::Corrupt { tile } => Some(tile),
        }
    }

    /// Short label matching the [`StepTimes`] entry names.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Fftz => "FFTz",
            EventKind::Transpose => "Transpose",
            EventKind::Ffty { .. } => "FFTy",
            EventKind::Pack { .. } => "Pack",
            EventKind::PostA2a { .. } => "Ialltoall",
            EventKind::Test { .. } => "Test",
            EventKind::Wait { .. } => "Wait",
            EventKind::Unpack { .. } => "Unpack",
            EventKind::Fftx { .. } => "FFTx",
            EventKind::Degrade { .. } => "Degrade",
            EventKind::RankLost { .. } => "RankLost",
            EventKind::Shrink { .. } => "Shrink",
            EventKind::Corrupt { .. } => "Corrupt",
        }
    }

    /// `true` for the CPU-busy phases that can hide communication.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            EventKind::Fftz
                | EventKind::Transpose
                | EventKind::Ffty { .. }
                | EventKind::Pack { .. }
                | EventKind::Unpack { .. }
                | EventKind::Fftx { .. }
        )
    }
}

/// One timestamped span on one rank. Times are seconds since the rank
/// started the transform (wall clock on mpisim, virtual on simnet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Span start, seconds.
    pub start: f64,
    /// Span end, seconds; `end >= start`.
    pub end: f64,
    /// What the span was.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Sink for trace events. Instrumentation sites must check [`enabled`]
/// before doing any timestamp work, so a disabled recorder costs one
/// non-inlined call per span and nothing else.
///
/// [`enabled`]: Recorder::enabled
pub trait Recorder {
    /// `false` to make every instrumentation site a no-op.
    fn enabled(&self) -> bool;
    /// Appends one event to the rank's stream.
    fn record(&mut self, event: TraceEvent);
}

/// The default recorder: tracing off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// In-memory recorder collecting the rank's full event stream.
#[derive(Debug, Default, Clone)]
pub struct MemRecorder {
    /// Events in the order they were recorded.
    pub events: Vec<TraceEvent>,
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

impl MemRecorder {
    /// Takes the collected events, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// Rebuilds the Figure 8 per-category breakdown from an event stream.
///
/// Each span contributes its duration to its category. `Test` spans that
/// fall inside a compute span (the simulated backend charges poll overhead
/// *during* a phase) are subtracted from the surrounding compute category,
/// so compute categories count pure compute and `test` counts every poll —
/// matching how both backends accumulate [`StepTimes`] directly.
pub fn derive_step_times(events: &[TraceEvent]) -> StepTimes {
    let mut steps = StepTimes::default();
    let mut compute: Vec<(f64, f64, EventKind)> = Vec::new();
    for ev in events {
        if let Some(category) = category(&mut steps, ev.kind) {
            *category += ev.duration();
        }
        if ev.kind.is_compute() {
            compute.push((ev.start, ev.end, ev.kind));
        }
    }
    // Subtract nested polls from their surrounding compute span's category.
    compute.sort_by(|a, b| a.0.total_cmp(&b.0));
    for ev in events {
        if let EventKind::Test { .. } = ev.kind {
            let idx = compute.partition_point(|&(s, _, _)| s <= ev.start);
            if idx == 0 {
                continue;
            }
            let (_, end, kind) = compute[idx - 1];
            if ev.end <= end + 1e-12 {
                if let Some(category) = category(&mut steps, kind) {
                    *category -= ev.duration();
                }
            }
        }
    }
    steps
}

/// The [`StepTimes`] entry a span of `kind` counts towards; `None` for the
/// recovery markers, which are instants, not time spent in a category.
fn category(steps: &mut StepTimes, kind: EventKind) -> Option<&mut f64> {
    Some(match kind {
        EventKind::Fftz => &mut steps.fftz,
        EventKind::Transpose => &mut steps.transpose,
        EventKind::Ffty { .. } => &mut steps.ffty,
        EventKind::Pack { .. } => &mut steps.pack,
        EventKind::PostA2a { .. } => &mut steps.ialltoall,
        EventKind::Test { .. } => &mut steps.test,
        EventKind::Wait { .. } => &mut steps.wait,
        EventKind::Unpack { .. } => &mut steps.unpack,
        EventKind::Fftx { .. } => &mut steps.fftx,
        EventKind::Degrade { .. }
        | EventKind::RankLost { .. }
        | EventKind::Shrink { .. }
        | EventKind::Corrupt { .. } => return None,
    })
}

/// How well a rank's communication hid behind its compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapSummary {
    /// Union of the per-tile in-flight intervals (post start → wait end).
    pub inflight: f64,
    /// Portion of [`inflight`](Self::inflight) during which a compute span
    /// was running — communication genuinely hidden behind compute.
    pub covered: f64,
    /// `covered / inflight`, or 0 when nothing was in flight.
    pub coverage: f64,
    /// Total time blocked in `Wait` — the stall the overlap failed to hide.
    pub wait_stall: f64,
    /// Number of `MPI_Test` polls issued.
    pub tests: usize,
    /// Polls that observed a completed request.
    pub tests_completed: usize,
    /// Number of communication tiles observed (tiles with a `PostA2a`).
    pub tiles: usize,
    /// `tests / tiles`, or 0 with no tiles.
    pub tests_per_tile: f64,
}

impl OverlapSummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"inflight_s\":{},\"covered_s\":{},\"coverage\":{},\
             \"wait_stall_s\":{},\"tests\":{},\"tests_completed\":{},\
             \"tiles\":{},\"tests_per_tile\":{}}}",
            json_f64(self.inflight),
            json_f64(self.covered),
            json_f64(self.coverage),
            json_f64(self.wait_stall),
            self.tests,
            self.tests_completed,
            self.tiles,
            json_f64(self.tests_per_tile),
        )
    }
}

/// Merges possibly-overlapping intervals into a sorted disjoint list.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|&(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the intersection of two disjoint sorted interval lists.
fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Computes the overlap-efficiency summary for one rank's event stream.
///
/// A tile's all-to-all is considered in flight from its `PostA2a` start to
/// its `Wait` end; the covered portion is the intersection of the in-flight
/// union with the union of compute spans.
pub fn overlap_summary(events: &[TraceEvent]) -> OverlapSummary {
    let mut post: Vec<(usize, f64)> = Vec::new();
    let mut wait_end: Vec<(usize, f64)> = Vec::new();
    let mut compute: Vec<(f64, f64)> = Vec::new();
    let mut wait_stall = 0.0;
    let mut tests = 0usize;
    let mut tests_completed = 0usize;
    for ev in events {
        match ev.kind {
            EventKind::PostA2a { tile, .. } => post.push((tile, ev.start)),
            EventKind::Wait { tile } => {
                wait_end.push((tile, ev.end));
                wait_stall += ev.duration();
            }
            EventKind::Test { completed, .. } => {
                tests += 1;
                tests_completed += usize::from(completed);
            }
            _ => {}
        }
        if ev.kind.is_compute() {
            compute.push((ev.start, ev.end));
        }
    }
    let inflight_iv: Vec<(f64, f64)> = post
        .iter()
        .filter_map(|&(tile, start)| {
            wait_end
                .iter()
                .find(|&&(t, _)| t == tile)
                .map(|&(_, end)| (start, end))
        })
        .collect();
    let inflight_iv = merge_intervals(inflight_iv);
    let compute_iv = merge_intervals(compute);
    let inflight: f64 = inflight_iv.iter().map(|&(s, e)| e - s).sum();
    let covered = intersection_len(&inflight_iv, &compute_iv);
    let tiles = post.len();
    OverlapSummary {
        inflight,
        covered,
        coverage: if inflight > 0.0 {
            covered / inflight
        } else {
            0.0
        },
        wait_stall,
        tests,
        tests_completed,
        tiles,
        tests_per_tile: if tiles > 0 {
            tests as f64 / tiles as f64
        } else {
            0.0
        },
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn write_event_json(s: &mut String, ev: &TraceEvent) {
    let mut tile = None;
    let mut subtile = None;
    let mut bytes = None;
    let mut completed = None;
    let mut action = None;
    let mut rank = None;
    let mut shrink = None;
    match ev.kind {
        EventKind::Fftz | EventKind::Transpose => {}
        EventKind::Ffty {
            tile: t,
            subtile: st,
        }
        | EventKind::Pack {
            tile: t,
            subtile: st,
        }
        | EventKind::Unpack {
            tile: t,
            subtile: st,
        }
        | EventKind::Fftx {
            tile: t,
            subtile: st,
        } => {
            tile = Some(t);
            subtile = Some(st);
        }
        EventKind::PostA2a { tile: t, bytes: b } => {
            tile = Some(t);
            bytes = Some(b);
        }
        EventKind::Test {
            tile: t,
            completed: c,
        } => {
            tile = Some(t);
            completed = Some(c);
        }
        EventKind::Wait { tile: t } | EventKind::Corrupt { tile: t } => tile = Some(t),
        EventKind::Degrade { tile: t, action: a } => {
            tile = Some(t);
            action = Some(a);
        }
        EventKind::RankLost { rank: r } => rank = Some(r),
        EventKind::Shrink { from, to } => shrink = Some((from, to)),
    };
    // `fmt::Write` for `String` never fails: the results carry no error.
    let _ = write!(
        s,
        "{{\"kind\":\"{}\",\"start\":{},\"end\":{}",
        ev.kind.label(),
        json_f64(ev.start),
        json_f64(ev.end)
    );
    if let Some(t) = tile {
        let _ = write!(s, ",\"tile\":{t}");
    }
    if let Some(st) = subtile {
        let _ = write!(s, ",\"subtile\":{st}");
    }
    if let Some(b) = bytes {
        let _ = write!(s, ",\"bytes\":{b}");
    }
    if let Some(c) = completed {
        let _ = write!(s, ",\"completed\":{c}");
    }
    if let Some(a) = action {
        let _ = write!(s, ",\"action\":\"{}\"", a.label());
    }
    if let Some(r) = rank {
        let _ = write!(s, ",\"rank\":{r}");
    }
    if let Some((from, to)) = shrink {
        let _ = write!(s, ",\"from\":{from},\"to\":{to}");
    }
    s.push('}');
}

/// Serialises per-rank event streams (plus each rank's overlap summary) as
/// a single JSON document — the timeline interchange format for external
/// plotting scripts.
pub fn trace_to_json(per_rank: &[Vec<TraceEvent>]) -> String {
    let mut s = String::from("{\"ranks\":[");
    for (rank, events) in per_rank.iter().enumerate() {
        if rank > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"rank\":{rank},\"summary\":");
        s.push_str(&overlap_summary(events).to_json());
        s.push_str(",\"events\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_event_json(&mut s, ev);
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: f64, end: f64, kind: EventKind) -> TraceEvent {
        TraceEvent { start, end, kind }
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let mut r = NoopRecorder;
        assert!(!r.enabled());
        r.record(ev(0.0, 1.0, EventKind::Fftz)); // must not panic
    }

    #[test]
    fn mem_recorder_collects_in_order() {
        let mut r = MemRecorder::default();
        assert!(r.enabled());
        r.record(ev(0.0, 1.0, EventKind::Fftz));
        r.record(ev(1.0, 2.0, EventKind::Transpose));
        let events = r.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, EventKind::Transpose);
        assert!(r.events.is_empty());
    }

    #[test]
    fn derive_maps_each_kind_to_its_category() {
        let events = vec![
            ev(0.0, 1.0, EventKind::Fftz),
            ev(1.0, 1.5, EventKind::Transpose),
            ev(
                1.5,
                2.0,
                EventKind::Ffty {
                    tile: 0,
                    subtile: 0,
                },
            ),
            ev(
                2.0,
                2.25,
                EventKind::Pack {
                    tile: 0,
                    subtile: 0,
                },
            ),
            ev(2.25, 2.3, EventKind::PostA2a { tile: 0, bytes: 64 }),
            ev(
                2.3,
                2.31,
                EventKind::Test {
                    tile: 0,
                    completed: false,
                },
            ),
            ev(2.31, 2.5, EventKind::Wait { tile: 0 }),
            ev(
                2.5,
                2.75,
                EventKind::Unpack {
                    tile: 0,
                    subtile: 0,
                },
            ),
            ev(
                2.75,
                3.0,
                EventKind::Fftx {
                    tile: 0,
                    subtile: 0,
                },
            ),
        ];
        let s = derive_step_times(&events);
        assert!((s.fftz - 1.0).abs() < 1e-12);
        assert!((s.transpose - 0.5).abs() < 1e-12);
        assert!((s.ffty - 0.5).abs() < 1e-12);
        assert!((s.pack - 0.25).abs() < 1e-12);
        assert!((s.ialltoall - 0.05).abs() < 1e-12);
        assert!((s.test - 0.01).abs() < 1e-12);
        assert!((s.wait - 0.19).abs() < 1e-12);
        assert!((s.unpack - 0.25).abs() < 1e-12);
        assert!((s.fftx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn derive_subtracts_polls_nested_in_compute() {
        // Simulated-backend shape: a 1 s FFTy span with two 0.1 s polls
        // charged inside it. Pure FFTy compute is 0.8 s.
        let events = vec![
            ev(
                0.0,
                1.0,
                EventKind::Ffty {
                    tile: 0,
                    subtile: 0,
                },
            ),
            ev(
                0.3,
                0.4,
                EventKind::Test {
                    tile: 0,
                    completed: false,
                },
            ),
            ev(
                0.6,
                0.7,
                EventKind::Test {
                    tile: 0,
                    completed: true,
                },
            ),
        ];
        let s = derive_step_times(&events);
        assert!((s.ffty - 0.8).abs() < 1e-12, "ffty={}", s.ffty);
        assert!((s.test - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlap_summary_measures_coverage() {
        // Tile 0 in flight over [1.0, 3.0]; the FFTy span on the next tile
        // covers [1.1, 2.0] of it (the Pack span ends as the post begins and
        // contributes nothing).
        let events = vec![
            ev(
                0.0,
                1.0,
                EventKind::Pack {
                    tile: 0,
                    subtile: 0,
                },
            ),
            ev(
                1.0,
                1.1,
                EventKind::PostA2a {
                    tile: 0,
                    bytes: 128,
                },
            ),
            ev(
                1.1,
                2.0,
                EventKind::Ffty {
                    tile: 1,
                    subtile: 0,
                },
            ),
            ev(
                2.0,
                2.01,
                EventKind::Test {
                    tile: 0,
                    completed: false,
                },
            ),
            ev(2.5, 3.0, EventKind::Wait { tile: 0 }),
        ];
        let s = overlap_summary(&events);
        assert!((s.inflight - 2.0).abs() < 1e-12);
        assert!((s.covered - 0.9).abs() < 1e-12, "covered={}", s.covered);
        assert!((s.coverage - 0.45).abs() < 1e-12);
        assert!((s.wait_stall - 0.5).abs() < 1e-12);
        assert_eq!(s.tests, 1);
        assert_eq!(s.tests_completed, 0);
        assert_eq!(s.tiles, 1);
    }

    #[test]
    fn interval_union_merges_overlaps() {
        let merged = merge_intervals(vec![(2.0, 3.0), (0.0, 1.5), (1.0, 2.5), (5.0, 5.0)]);
        assert_eq!(merged, vec![(0.0, 3.0)]);
        assert!((intersection_len(&merged, &[(2.5, 4.0)]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degrade_markers_carry_their_action_without_polluting_the_breakdown() {
        let events = vec![
            ev(0.0, 1.0, EventKind::Fftz),
            ev(
                1.0,
                1.0,
                EventKind::Degrade {
                    tile: 2,
                    action: DegradeAction::ShrinkWindow,
                },
            ),
        ];
        let s = derive_step_times(&events);
        assert!((s.total() - 1.0).abs() < 1e-12, "markers add no time");
        assert_eq!(events[1].kind.tile(), Some(2));
        assert!(!events[1].kind.is_compute());
        let json = trace_to_json(&[events]);
        assert!(json.contains("\"kind\":\"Degrade\""));
        assert!(json.contains("\"action\":\"shrink-window\""));
    }

    #[test]
    fn recovery_markers_serialise_and_stay_out_of_the_breakdown() {
        let events = vec![
            ev(0.0, 1.0, EventKind::Fftz),
            ev(1.0, 1.0, EventKind::RankLost { rank: 3 }),
            ev(1.0, 1.0, EventKind::Shrink { from: 4, to: 3 }),
        ];
        let s = derive_step_times(&events);
        assert!((s.total() - 1.0).abs() < 1e-12, "markers add no time");
        assert_eq!(events[1].kind.tile(), None);
        assert!(!events[1].kind.is_compute() && !events[2].kind.is_compute());
        let json = trace_to_json(&[events]);
        assert!(json.contains("\"kind\":\"RankLost\"") && json.contains("\"rank\":3"));
        assert!(json.contains("\"kind\":\"Shrink\""));
        assert!(json.contains("\"from\":4,\"to\":3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn corrupt_markers_carry_their_tile_without_polluting_the_breakdown() {
        let events = vec![
            ev(0.0, 1.0, EventKind::Fftz),
            ev(1.0, 1.0, EventKind::Corrupt { tile: 4 }),
            ev(
                1.0,
                1.0,
                EventKind::Degrade {
                    tile: 4,
                    action: DegradeAction::Retransmit,
                },
            ),
        ];
        let s = derive_step_times(&events);
        assert!((s.total() - 1.0).abs() < 1e-12, "markers add no time");
        assert_eq!(events[1].kind.tile(), Some(4));
        assert!(!events[1].kind.is_compute());
        let json = trace_to_json(&[events]);
        assert!(json.contains("\"kind\":\"Corrupt\"") && json.contains("\"tile\":4"));
        assert!(json.contains("\"action\":\"retransmit\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_round_trips_the_schema_fields() {
        let per_rank = vec![vec![
            ev(0.0, 1.0, EventKind::Fftz),
            ev(
                1.0,
                1.5,
                EventKind::PostA2a {
                    tile: 2,
                    bytes: 4096,
                },
            ),
            ev(
                1.5,
                1.6,
                EventKind::Test {
                    tile: 2,
                    completed: true,
                },
            ),
            ev(1.6, 1.7, EventKind::Wait { tile: 2 }),
        ]];
        let json = trace_to_json(&per_rank);
        assert!(json.starts_with("{\"ranks\":[{\"rank\":0,"));
        // Kinds serialise under their StepTimes category label.
        assert!(json.contains("\"kind\":\"Ialltoall\""));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("\"completed\":true"));
        assert!(json.contains("\"summary\":{\"inflight_s\":"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
