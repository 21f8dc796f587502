//! Behavioural tests of the per-tile tracing layer (`fft3d::trace`) on both
//! backends: the event stream must reconstruct the Figure 8 breakdown, and
//! its post/wait structure must follow the windowed pipeline.

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::real_env::local_test_slab;
use fft3d::sim_env::{Execution, Simulation};
use fft3d::trace::{derive_step_times, overlap_summary, EventKind, MemRecorder, TraceEvent};
use fft3d::{FftSession, ProblemSpec, Resilience, StepTimes, TuningParams, Variant};
use simnet::model::umd_cluster;

fn posts_and_waits(events: &[TraceEvent]) -> (Vec<usize>, Vec<usize>) {
    let mut posts = Vec::new();
    let mut waits = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::PostA2a { tile, .. } => posts.push(tile),
            EventKind::Wait { tile } => waits.push(tile),
            _ => {}
        }
    }
    (posts, waits)
}

/// Per-category relative agreement, with an absolute floor so categories
/// measured in microseconds don't fail on rounding.
fn assert_steps_close(derived: &StepTimes, direct: &StepTimes, rel: f64, abs: f64) {
    for ((name, d), (_, s)) in derived.entries().iter().zip(direct.entries().iter()) {
        assert!(
            (d - s).abs() <= rel * s.abs() + abs,
            "category {name}: derived {d} vs direct {s}"
        );
    }
}

#[test]
fn mpisim_trace_reconstructs_step_times_and_matches_untraced_output() {
    let spec = ProblemSpec::cube(32, 4);
    let params = TuningParams::seed(&spec);
    let results = mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let mut rec = MemRecorder::default();
        let traced = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &Resilience::default(), &mut rec)
        .expect("clean run");
        let plain = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute(&input)
        .expect("clean run");
        (rec.take(), traced.stats, traced.data == plain.data)
    });
    for (rank, (events, stats, same_data)) in results.iter().enumerate() {
        assert!(
            same_data,
            "rank {rank}: tracing must not change the transform"
        );
        assert!(!events.is_empty(), "rank {rank}: no events recorded");
        for ev in events {
            assert!(ev.end >= ev.start, "rank {rank}: negative span {ev:?}");
            assert!(ev.start >= 0.0 && ev.end <= stats.elapsed + 1e-6);
        }
        // The event stream carries the full breakdown (5 % tolerance per
        // the instrumentation sharing the same timer reads).
        let derived = derive_step_times(events);
        assert_steps_close(&derived, &stats.steps, 0.05, 1e-5);
        assert!(
            (derived.total() - stats.steps.total()).abs() <= 0.05 * stats.steps.total() + 1e-5,
            "rank {rank}: derived total {} vs direct {}",
            derived.total(),
            stats.steps.total()
        );
        // Every Test event was counted in the stats.
        let tests = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Test { .. }))
            .count() as u64;
        assert_eq!(tests, stats.tests, "rank {rank}");
    }
}

#[test]
fn mpisim_trace_pairs_each_post_with_one_wait_in_window_order() {
    let spec = ProblemSpec::cube(32, 4);
    let params = TuningParams::seed(&spec);
    let all_events = mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let mut rec = MemRecorder::default();
        FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &Resilience::default(), &mut rec)
        .expect("clean run");
        rec.take()
    });
    let tiles = params.tiles(&spec);
    for (rank, events) in all_events.iter().enumerate() {
        let (posts, waits) = posts_and_waits(events);
        assert_eq!(posts.len(), tiles, "rank {rank}: one post per tile");
        // Exactly one wait per posted tile, completed in post (FIFO window)
        // order.
        assert_eq!(
            posts, waits,
            "rank {rank}: waits must drain the window in order"
        );
        // Posts are the tile sequence 0..k.
        assert_eq!(posts, (0..tiles).collect::<Vec<_>>(), "rank {rank}");
        // A tile's wait never starts before its post ends.
        for tile in 0..tiles {
            let post_end = events
                .iter()
                .find(|e| matches!(e.kind, EventKind::PostA2a { tile: t, .. } if t == tile))
                .map(|e| e.end)
                .expect("post exists");
            let wait_start = events
                .iter()
                .find(|e| matches!(e.kind, EventKind::Wait { tile: t } if t == tile))
                .map(|e| e.start)
                .expect("wait exists");
            assert!(wait_start >= post_end, "rank {rank} tile {tile}");
        }
    }
}

#[test]
fn simnet_trace_has_monotone_virtual_time_and_exact_breakdown() {
    let spec = ProblemSpec::cube(256, 8);
    let params = TuningParams::seed(&spec);
    let traced = Simulation::slab(spec, Variant::New, params)
        .expect("feasible seed")
        .traced();
    let Execution { report, events, .. } = traced.run(umd_cluster()).expect("clean run").remove(0);
    assert_eq!(events.len(), spec.p);
    for (rank, rank_events) in events.iter().enumerate() {
        assert!(!rank_events.is_empty(), "rank {rank}");
        for ev in rank_events {
            assert!(ev.end >= ev.start, "rank {rank}: {ev:?}");
        }
        // Virtual time never runs backwards: the phase spans (everything
        // but the polls charged inside them) are disjoint and ordered.
        let mut last_end = 0.0f64;
        for ev in rank_events {
            if matches!(ev.kind, EventKind::Test { .. }) {
                continue;
            }
            assert!(
                ev.start >= last_end - 1e-12,
                "rank {rank}: phase span starts at {} before previous end {}",
                ev.start,
                last_end
            );
            last_end = ev.end;
        }
        // The virtual-time derivation is exact: polls are charged inside
        // phase spans and subtracted back out.
        let derived = derive_step_times(rank_events);
        assert_steps_close(&derived, &report.per_rank[rank].steps, 1e-9, 1e-9);
        // Overlap summary is well-formed.
        let s = overlap_summary(rank_events);
        assert!((0.0..=1.0).contains(&s.coverage), "rank {rank}: {s:?}");
        assert_eq!(s.tiles, params.tiles(&spec), "rank {rank}");
        assert_eq!(
            s.tests as u64, report.per_rank[rank].tests,
            "rank {rank}: every poll must appear in the trace"
        );
    }
}
