//! Chaos sweep: how the overlapped pipeline degrades under injected faults.
//!
//! Part 1 sweeps straggler severity × window `W` on the simulated backend
//! (UMD model): each cell reports the modeled completion time under a
//! seeded [`FaultPlan`] straggler, normalised to the fault-free run of the
//! same `W` — showing how much cushion a deeper window buys against a slow
//! rank.
//!
//! Part 2 runs real (small-scale) executions over `mpisim` with injected
//! send delays and transient drops, a watchdog armed, and reports what the
//! degradation ladder did on each rank: stalls detected, rungs climbed
//! (boost-polls / shrink-window / fallback), and whether the run abandoned
//! overlap entirely.
//!
//! Part 3 is the rank-kill axis: a victim rank dies at the first, middle,
//! and last tile boundary, and the survivors recover elastically
//! (revoke/shrink/agree, re-decompose over `p − 1`, re-fetch the lost slab
//! from a replica — DESIGN.md §14); each row reports attempts consumed,
//! the agreed dead set, the shrink, and the recovered spectrum's error
//! against the serial oracle.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin chaos [-- seed]
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::real_env::local_test_slab;
use fft3d::{
    fft3_simulated, FftSession, NoopRecorder, ProblemSpec, Resilience, TuningParams, Variant,
};
use mpisim::FaultPlan;
use simnet::model::umd_cluster;
use std::time::Duration;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    simulated_sweep();
    real_ladder_demo(seed);
    rank_kill_demo(seed);
}

/// Straggler severity × window sweep on the calibrated cost model.
fn simulated_sweep() {
    let spec = ProblemSpec::cube(256, 16);
    let base = TuningParams::seed(&spec);
    let severities = [0.0, 0.5, 1.0, 2.0, 4.0];
    let windows = [1, 2, 4, 8];

    println!("simulated straggler sweep — UMD model, p = 16, N = 256³");
    println!("cells: completion time (s), ×slowdown vs fault-free same-W\n");
    print!("{:>10}", "severity");
    for w in windows {
        print!("{:>18}", format!("W = {w}"));
    }
    println!();

    for s in severities {
        print!("{s:>10.1}");
        for w in windows {
            let params = TuningParams { w, ..base };
            let clean = fft3_simulated(umd_cluster(), spec, Variant::New, params, false).time;
            let platform = if s > 0.0 {
                umd_cluster().with_straggler(3, s)
            } else {
                umd_cluster()
            };
            let faulted = fft3_simulated(platform, spec, Variant::New, params, false).time;
            print!("{:>18}", format!("{faulted:.3}s {:.2}×", faulted / clean));
        }
        println!();
    }
    println!();
}

/// Real runs over mpisim: show the ladder working.
fn real_ladder_demo(seed: u64) {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    println!("real-backend ladder demo — p = 4, N = 12³, seed {seed}");
    println!("(watchdog 15 ms, poll boost 4×, 8 strikes per wait)\n");

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        ("healthy", FaultPlan::seeded(seed)),
        (
            "straggler (rank 1, 60 ms send delay)",
            FaultPlan::seeded(seed).with_straggler(1, 30.0),
        ),
        (
            "transient drops (p = 0.25, ≤ 8 retransmits)",
            FaultPlan::seeded(seed).with_drops(0.25, 8),
        ),
        (
            "straggler + drops",
            FaultPlan::seeded(seed)
                .with_straggler(1, 30.0)
                .with_drops(0.15, 8),
        ),
    ];
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(15)),
        max_strikes: 8,
    };

    for (label, plan) in scenarios {
        let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let started = std::time::Instant::now();
            let out = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute_traced(&input, &res, &mut NoopRecorder);
            (started.elapsed(), out.map(|o| o.recovery))
        });

        println!("{label}:");
        for (rank, (elapsed, outcome)) in results.iter().enumerate() {
            match outcome {
                Ok(rec) => {
                    let actions: Vec<&str> = rec.actions.iter().map(|a| a.label()).collect();
                    println!(
                        "  rank {rank}: {:>7.1} ms  stalls {}  ladder [{}]{}",
                        elapsed.as_secs_f64() * 1e3,
                        rec.stalls_detected,
                        actions.join(", "),
                        if rec.fell_back { "  FELL BACK" } else { "" },
                    );
                }
                Err(e) => println!("  rank {rank}: FAILED — {e}"),
            }
        }
        println!();
    }
}

/// Rank-kill axis: a death at each tile position, survivors recovering
/// elastically through the ULFM-style driver.
fn rank_kill_demo(seed: u64) {
    use fft3d::real_env::compare_with_serial;
    use fft3d::serial::{fft3_serial, full_test_array};
    use fft3d::{run_recoverable, RecoverConfig, ReplicaSource};
    use std::sync::Arc;

    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let tiles = params.tiles(&spec);
    println!("rank-kill recovery demo — p = 4, N = 12³, victim rank 1, seed {seed}");
    println!("(replica slab source; the crash position sweeps the tile axis)\n");

    let input = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
    let mut reference = (*input).clone();
    fft3_serial(
        &mut reference,
        spec.nx,
        spec.ny,
        spec.nz,
        Direction::Forward,
    );
    let reference = Arc::new(reference);

    let positions = [
        ("first", 0usize),
        ("middle", tiles / 2),
        ("last", tiles.saturating_sub(1)),
    ];
    for (label, at_tile) in positions {
        let plan = FaultPlan::seeded(seed).with_rank_crash(1, at_tile);
        let source = ReplicaSource::new(Arc::clone(&input));
        let reference = Arc::clone(&reference);
        let results = mpisim::run_crashable(spec.p, plan, move |comm| {
            let started = std::time::Instant::now();
            let out = run_recoverable(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                &source,
                &RecoverConfig::default(),
                &mut NoopRecorder,
            );
            let summary = out.map(|o| {
                let err = compare_with_serial(&o.spec, o.rank, &o.output, &reference);
                (o.attempts, o.lost, o.spec.p, err)
            });
            (started.elapsed(), summary)
        });

        println!("crash at {label} tile boundary (tile {at_tile}/{tiles}):");
        for (rank, slot) in results.iter().enumerate() {
            match slot {
                None => println!("  rank {rank}:    DEAD (injected)"),
                Some((elapsed, Ok((attempts, lost, p2, err)))) => println!(
                    "  rank {rank}: {:>7.1} ms  attempts {attempts}  agreed dead {lost:?}  \
                     p {}→{p2}  err vs serial {err:.2e}",
                    elapsed.as_secs_f64() * 1e3,
                    spec.p,
                ),
                Some((_, Err(e))) => println!("  rank {rank}: FAILED — {e}"),
            }
        }
        println!();
    }
}
