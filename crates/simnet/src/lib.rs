//! # simnet — a discrete-event cluster simulator for overlap studies
//!
//! Substitute for the paper's two physical machines (UMD-Cluster and
//! Hopper, §5.1). Every simulated rank is a *rank program* — an `async`
//! closure executing the *actual algorithm control flow* (tiles, windows,
//! poll placement) — while compute and communication charge modeled virtual
//! time. All programs of a run are resumable computations on the caller's
//! thread; a program is suspended only where it consults the other ranks (a
//! post, a poll, a wait), and only when it is no longer the earliest:
//!
//! * [`model::MachineModel`] — FFT flop costs with L2 effects, pack/unpack
//!   rates sensitive to sub-tile cache residency and stride (what makes
//!   `Px, Pz, Uy, Uz` tunable), transpose rates, `MPI_Test` cost.
//! * [`model::NetModel`] — α–β rounds with topology contention and
//!   concurrent-window bandwidth sharing (what makes `T` and `W` tunable).
//! * [`engine::Engine`] — a conservative virtual-time stepper: it always
//!   resumes the runnable rank with the minimum clock, so runs are exactly
//!   reproducible.
//! * [`proc::SimRank`] — the per-rank API: `compute`,
//!   `alltoall_init_in_group` + `start` (a persistent plan and its
//!   executions), `compute_with_polls` (manual progression), `wait`,
//!   `barrier`; the calls that consult the engine are `async`.
//!
//! ```
//! use simnet::{run_sim, model::umd_cluster};
//!
//! // Four ranks overlap a 1 MiB-per-peer alltoall with 30 ms of compute.
//! let finish = run_sim(umd_cluster(), 4, async |sim| {
//!     let plan = sim.alltoall_init_in_group(sim.size(), 1 << 20);
//!     let op = sim.start(plan).await;
//!     sim.compute_with_polls(0.030, 64, &[op]).await;
//!     sim.wait(op).await;
//!     sim.now()
//! });
//! // The ≈21 ms exchange hides almost entirely behind the compute.
//! assert!(finish[0].as_secs_f64() < 0.035);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp
    )
)]

pub mod engine;
pub mod model;
pub mod proc;
pub mod time;

pub use model::Platform;
pub use proc::{OpId, PlanId, PollRecord, SimRank};
pub use time::SimTime;

use engine::{Engine, Program};
use std::rc::Rc;

/// Runs `f` as the program of each of `size` simulated ranks of `platform`,
/// all on the calling thread, returning results in rank order. A panic in
/// any rank propagates at once, with that rank's payload.
pub fn run_sim<F, R>(platform: Platform, size: usize, f: F) -> Vec<R>
where
    F: AsyncFn(&mut SimRank) -> R,
{
    let engine = Rc::new(Engine::new(size));
    let platform = Rc::new(platform);
    let f = &f;
    let programs = (0..size).map(|rank| {
        let mut sim = SimRank::new(engine.clone(), platform.clone(), rank);
        Box::pin(async move { f(&mut sim).await }) as Program<'_, R>
    });
    engine.run(programs.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::hopper;

    #[test]
    fn results_come_back_in_rank_order() {
        let out = run_sim(hopper(), 5, async |sim| sim.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate() {
        run_sim(hopper(), 3, async |sim| {
            if sim.rank() == 2 {
                panic!("boom");
            }
            sim.barrier().await;
        });
    }

    #[test]
    fn compute_only_ranks_never_interact() {
        let out = run_sim(hopper(), 2, async |sim| {
            sim.compute(0.5);
            sim.now().as_secs_f64()
        });
        assert!(out.iter().all(|&t| (t - 0.5).abs() < 1e-9));
    }
}
