//! # mpisim — a thread-backed message-passing runtime with MPI semantics
//!
//! The workspace's stand-in for an MPI-3 library: ranks are OS threads in
//! one process, exchanging typed messages through matched mailboxes. The
//! pieces of MPI-3 the paper's design depends on are reproduced faithfully:
//!
//! * **Non-blocking all-to-all with manual progression** ([`IAlltoall`]):
//!   a libNBC-style round schedule that advances *only* inside
//!   `test`/`wait` calls — the semantics behind the paper's `MPI_Test`
//!   frequency parameters (`Fy`, `Fp`, `Fu`, `Fx`, §3.3).
//! * **Persistent all-to-all** ([`PersistentAlltoall`], MPI-4
//!   `MPI_Alltoall_init` analogue): schedule and staging set up once,
//!   then repeated generation-tagged `start`/`test`/`wait` cycles with
//!   zero per-execution negotiation; released with `free()`.
//! * Blocking collectives: `alltoall(v)`, `barrier`, `bcast`, `gather`,
//!   `allgather`, reductions.
//! * Tagged point-to-point with MPI matching/ordering semantics, and
//!   communicator `dup`/`split`.
//!
//! Use [`run`] to launch a set of ranks:
//!
//! ```
//! let sums = mpisim::run(4, |comm| {
//!     let contrib = [comm.rank() as f64];
//!     comm.allreduce_sum(&contrib)[0]
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```
//!
//! A rank panic aborts the whole world (peers unwind with an "aborted"
//! panic instead of deadlocking), mirroring `MPI_Abort`.
//!
//! ## Fault injection
//!
//! [`run_with_faults`] launches a world with a [`FaultPlan`]: seeded message
//! drops with bounded retransmit, straggler/send delays, and blackholed
//! ranks. The non-blocking all-to-all then exposes the typed error path —
//! [`IAlltoall::try_test`] and [`IAlltoall::wait_timeout`] return a
//! [`CollError`] (`Stalled` / `Dropped`) instead of spinning forever or
//! panicking.
//!
//! ## Rank death (ULFM-style recovery)
//!
//! A plan with a `RankCrash` fault kills one rank's thread at a tile
//! boundary ([`Comm::crash_point`]); launch such plans with
//! [`run_crashable`], which returns `None` for the dead rank and the
//! survivors' results in rank position. Survivors observe the death as
//! [`CollError::RankFailed`] at their next stuck point and recover with the
//! ULFM-flavoured primitives: [`Comm::revoke`] (poison in-flight operations
//! world-wide), [`Comm::agree`] (fault-aware consensus on an error flag and
//! the failure set), and [`Comm::shrink`] (dense survivor communicator).
//! See DESIGN.md §14.
//!
//! ## Verification
//!
//! [`run_with_config`] launches a *checked* world: runtime MPI-usage lints
//! (`MC001`–`MC003`, `MC006`, `MC007`), a wait-for-graph deadlock detector
//! that names the cycle of ranks, or the chain ending at a rank that
//! returned without joining a collective (`MC005`), and an optional seeded
//! virtual scheduler ([`SchedConfig`]) that perturbs delivery order
//! deterministically so racy interleavings reproduce from their seed.
//! [`explore()`] drives a workload over many schedules and fault plans; see
//! DESIGN.md §12.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

pub mod check;
mod coll;
mod comm;
pub mod explore;
mod nbc;
mod persistent;
mod world;

pub use check::{
    Backoff, CheckConfig, CheckOutcome, CheckReport, Finding, LintId, SchedConfig, SchedMode,
};
pub use comm::Comm;
pub use explore::{explore, ExploreConfig, ExploreReport, ScheduleFailure};
pub use faultplan::{FaultKind, FaultPlan};
pub use nbc::{CollError, IAlltoall, SendBlocks};
pub use persistent::PersistentAlltoall;

use check::CheckState;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use world::World;

/// Everything configurable about a world launch.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Faults to inject (the empty plan by default).
    pub faults: FaultPlan,
    /// Park-slice policy for blocking waits (defaults to the legacy 50 ms
    /// cap with exponential ramp-up from 500 µs).
    pub backoff: Backoff,
    /// Verification instrumentation; `None` runs unchecked.
    pub check: Option<CheckConfig>,
}

impl RunConfig {
    /// A checked run under `cfg` with tight park slices.
    pub fn checked(cfg: CheckConfig) -> Self {
        RunConfig {
            faults: FaultPlan::none(),
            backoff: Backoff::checked(),
            check: Some(cfg),
        }
    }
}

/// Launches `size` ranks, each running `f` with its own [`Comm`] handle for
/// the world communicator, and returns their results in rank order.
///
/// Panics propagate: if any rank panics, `run` re-raises the first panic
/// after all ranks have unwound.
pub fn run<F, R>(size: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    run_with_faults(size, FaultPlan::none(), f)
}

/// [`run`] with a [`FaultPlan`] injected into the world: non-blocking
/// collective sends are delayed, dropped (with bounded retransmit) and
/// blackholed per the plan's seeded decisions.
pub fn run_with_faults<F, R>(size: usize, faults: FaultPlan, f: F) -> Vec<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    assert!(
        faults.crash.is_none(),
        "run_with_faults expects every rank to return a result; \
         use run_crashable for plans with a RankCrash fault"
    );
    let outcome = run_with_config(
        size,
        RunConfig {
            faults,
            ..RunConfig::default()
        },
        f,
    );
    outcome
        .results
        .expect("unchecked runs either return results or propagate the panic")
}

/// [`run_with_faults`] for plans that may kill a rank outright: returns one
/// `Option<R>` per world rank, `None` for ranks that died to an injected
/// `RankCrash` fault (survivor results keep their rank positions).
///
/// A genuine (non-injected) rank panic still aborts the world and
/// propagates, as with [`run`].
pub fn run_crashable<F, R>(size: usize, faults: FaultPlan, f: F) -> Vec<Option<R>>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    let outcome = run_with_config(
        size,
        RunConfig {
            faults,
            ..RunConfig::default()
        },
        f,
    );
    let crashed = outcome.crashed.clone();
    let survivors = outcome
        .results
        .expect("crash runs either return survivor results or propagate the panic");
    let mut out: Vec<Option<R>> = (0..size).map(|_| None).collect();
    let mut it = survivors.into_iter();
    for (rank, slot) in out.iter_mut().enumerate() {
        if !crashed.contains(&rank) {
            *slot = Some(it.next().expect("one result per surviving rank"));
        }
    }
    out
}

/// The fully-configurable launcher: [`run`] semantics plus fault injection,
/// backoff policy, and the verification layer.
///
/// Behaviour differences from [`run`]:
/// * Returns a [`CheckOutcome`]: per-rank results plus the verification
///   [`CheckReport`] (empty when `cfg.check` is `None`).
/// * When the deadlock detector fires (lint `MC005`), the world is aborted
///   and the resulting rank panics are **swallowed**: `results` is `None`
///   and the report carries the finding with the named ranks, instead of
///   the process unwinding with an opaque panic (or, for a collective some
///   ranks returned without joining, hanging).
/// * An injected `RankCrash` fault kills its rank's thread *without*
///   aborting the world: survivors keep running, the dead rank is listed in
///   [`CheckOutcome::crashed`], and `results` holds the survivors' values in
///   rank order (the teardown leftover scan is skipped — orphaned traffic is
///   expected collateral of a death).
/// * Any other rank panic propagates, as with [`run`].
pub fn run_with_config<F, R>(size: usize, cfg: RunConfig, f: F) -> CheckOutcome<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    let schedule = match &cfg.check {
        Some(c) => c
            .sched
            .map(|s| s.describe())
            .unwrap_or_else(|| "native".to_owned()),
        None => String::new(),
    };
    let check_arc = cfg.check.map(|c| Arc::new(CheckState::new(size, c)));
    // Deterministic park jitter: unless the caller pinned a jitter seed,
    // fold the fault seed in so one `(fault seed, schedule)` pair fully
    // determines every wait-loop park slice — no ambient entropy.
    let backoff = if cfg.backoff.jitter_seed == 0 {
        cfg.backoff.with_seed(cfg.faults.seed)
    } else {
        cfg.backoff
    };
    // An injected death unwinds via `panic_any(RankCrashed)`; it is the
    // simulated failure mechanism, not a bug, so keep the default panic
    // hook from spraying a backtrace per kill (crash sweeps inject
    // hundreds). The filter keys on the payload type — real panics still
    // print through the previous hook. Process-global, installed once.
    if cfg.faults.has_crash() {
        static QUIET_CRASHES: std::sync::Once = std::sync::Once::new();
        QUIET_CRASHES.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info
                    .payload()
                    .downcast_ref::<world::RankCrashed>()
                    .is_none()
                {
                    prev(info);
                }
            }));
        });
    }
    let world = World::new(size, cfg.faults, backoff, check_arc.clone());
    let mut results = Vec::with_capacity(size);
    let mut crashed: Vec<usize> = Vec::new();
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let world = world.clone();
                let f = &f;
                s.spawn(move || {
                    let comm = Comm::world_comm(world.clone(), rank);
                    match std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))) {
                        Ok(v) => {
                            // A returned rank sends nothing more: the
                            // deadlock probe may now end a wait-for chain
                            // here (MC005).
                            if let Some(check) = &world.check {
                                check.mark_returned(rank);
                            }
                            Ok(v)
                        }
                        Err(e) => {
                            // An *injected* crash (RankCrash fault) is a
                            // simulated process death, not a bug: the dead
                            // rank already marked itself failed, and the
                            // survivors must keep running — do NOT abort.
                            if e.downcast_ref::<world::RankCrashed>().is_none() {
                                world.abort();
                            }
                            Err(e)
                        }
                    }
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let joined = h.join().unwrap_or_else(|_| {
                // The rank thread died *outside* catch_unwind (an unwind in
                // the spawn scaffolding, or a panic-in-panic in a payload's
                // Drop). Abort the world so peers unwind, and surface a
                // diagnostic naming the rank instead of a bare expect.
                world.abort();
                Err(Box::new(format!(
                    "mpisim: rank {rank} thread terminated outside catch_unwind — \
                     aborting world (peer results are unreliable)"
                )) as Box<dyn std::any::Any + Send>)
            });
            match joined {
                Ok(v) => results.push(v),
                Err(e) => {
                    if let Some(c) = e.downcast_ref::<world::RankCrashed>() {
                        debug_assert_eq!(c.0, rank, "crash payload names the dying rank");
                        crashed.push(rank);
                        continue;
                    }
                    // Prefer the original panic over secondary "aborted"
                    // panics from peers that were woken by the abort flag.
                    let secondary = |p: &Box<dyn std::any::Any + Send>| {
                        p.downcast_ref::<String>()
                            .map(|s| s.contains("peer rank panicked"))
                            .or_else(|| {
                                p.downcast_ref::<&str>()
                                    .map(|s| s.contains("peer rank panicked"))
                            })
                            .unwrap_or(false)
                    };
                    match &first_panic {
                        None => first_panic = Some(e),
                        Some(prev) if secondary(prev) && !secondary(&e) => first_panic = Some(e),
                        _ => {}
                    }
                }
            }
        }
    });

    let complete = first_panic.is_none() && results.len() + crashed.len() == size;
    let Some(check) = check_arc else {
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        return CheckOutcome {
            results: complete.then_some(results),
            crashed,
            report: CheckReport::default(),
        };
    };

    // Teardown lint MC001: messages still sitting in a mailbox after every
    // rank returned cleanly were posted but never received. Skipped after
    // an abort — and after a rank death, where in-flight traffic to and
    // from the dead process is expected collateral of the failure.
    let unmatched = if world.is_aborted() || !world.failed_set().is_empty() {
        None
    } else {
        world.force_release_all();
        let mut findings = Vec::new();
        for (dst, mb) in world.mailboxes.iter().enumerate() {
            for (src, tag) in mb.leftover_pairs() {
                let (ctx, kind, payload) = check::decode_tag(tag);
                findings.push(Finding {
                    id: LintId::UnmatchedSend,
                    rank: Some(dst),
                    cycle: Vec::new(),
                    message: format!(
                        "message to rank {dst} from comm-rank {src} was posted but never \
                         received (ctx {ctx:#x}, {kind} payload {payload:#x})"
                    ),
                });
            }
        }
        Some(findings)
    };

    let failed = world.failed_set();
    drop(world);
    let mut report = match Arc::try_unwrap(check) {
        Ok(state) => state.into_report(schedule, unmatched),
        Err(_) => panic!("mpisim: check state still shared after world teardown"),
    };
    // MC002/MC006 exemption for the dead: an injected crash unwinds through
    // the rank's in-flight requests and persistent plans, so their drops are
    // collateral of the failure, not a leak bug — survivors purge the staged
    // rounds when they write the rank off. Leaks on *surviving* ranks still
    // report.
    if !failed.is_empty() {
        report.findings.retain(|f| {
            !((f.id == LintId::RequestLeak || f.id == LintId::PersistentLeak)
                && f.rank.is_some_and(|r| failed.contains(&r)))
        });
    }

    if report.deadlock().is_some() {
        // The detector aborted the world; the rank panics are the expected
        // mechanism, not the diagnosis — the finding is.
        return CheckOutcome {
            results: None,
            crashed,
            report,
        };
    }
    if let Some(p) = first_panic {
        std::panic::resume_unwind(p);
    }
    CheckOutcome {
        results: complete.then_some(results),
        crashed,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = run(6, |comm| comm.rank() * comm.size());
        assert_eq!(out, vec![0, 6, 12, 18, 24, 30]);
    }

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    #[should_panic(expected = "deliberate failure")]
    fn rank_panic_propagates() {
        run(3, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure in rank 1");
            }
            // Peers block on a message that never comes; the abort
            // machinery must unwind them rather than deadlock.
            let _ = comm.recv_vec::<u8>((comm.rank() + 1) % comm.size(), 99);
        });
    }

    #[test]
    #[should_panic(expected = "world size must be ≥ 1")]
    fn zero_ranks_rejected() {
        run(0, |_comm| ());
    }

    #[test]
    fn checked_run_reports_clean_on_clean_code() {
        let outcome = run_with_config(4, RunConfig::checked(CheckConfig::default()), |comm| {
            let sum = comm.allreduce_sum(&[comm.rank() as f64]);
            sum[0] as usize
        });
        assert_eq!(outcome.results, Some(vec![6; 4]));
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.findings);
        assert!(outcome.report.delivered > 0);
    }

    #[test]
    fn checked_run_under_scheduler_still_correct() {
        for seed in 0..8 {
            let outcome = run_with_config(
                4,
                RunConfig::checked(CheckConfig::with_sched(SchedConfig::random(seed))),
                |comm| {
                    let send: Vec<i64> = (0..comm.size())
                        .map(|d| (comm.rank() * 10 + d) as i64)
                        .collect();
                    comm.ialltoall(&send, 1, vec![0i64; comm.size()])
                        .wait(&comm)
                },
            );
            let results = outcome.results.expect("no deadlock");
            for (me, out) in results.iter().enumerate() {
                for (s, &v) in out.iter().enumerate() {
                    assert_eq!(v, (s * 10 + me) as i64, "seed {seed}");
                }
            }
            assert!(
                outcome.report.is_clean(),
                "seed {seed}: {:?}",
                outcome.report.findings
            );
        }
    }

    #[test]
    fn crashed_rank_leaves_survivors_running() {
        // Rank 1 dies at tile boundary 0; survivors detect the death via
        // agree and return their results — no abort, no hang.
        let plan = FaultPlan::seeded(5).with_rank_crash(1, 0);
        let out = run_crashable(4, plan, |comm| {
            if comm.rank() == 1 {
                comm.crash_point(0); // dies here
            }
            let (_flags, failed) = comm.agree(0);
            failed
        });
        assert!(out[1].is_none(), "crashed rank must not produce a result");
        for (rank, r) in out.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            assert_eq!(
                r.as_deref(),
                Some(&[1usize][..]),
                "rank {rank}: survivors must agree on the failure set"
            );
        }
    }

    #[test]
    fn crash_point_is_free_for_untargeted_ranks() {
        let plan = FaultPlan::seeded(5).with_rank_crash(2, 7);
        let out = run_crashable(2, plan, |comm| {
            // Plan targets world rank 2, which doesn't exist here; nothing
            // fires and the run completes normally.
            comm.crash_point(7);
            comm.rank()
        });
        assert_eq!(out, vec![Some(0), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "use run_crashable")]
    fn run_with_faults_rejects_crash_plans() {
        let plan = FaultPlan::seeded(1).with_rank_crash(0, 0);
        let _ = run_with_faults(2, plan, |comm| comm.rank());
    }

    #[test]
    fn checked_run_records_the_crash_without_findings() {
        let plan = FaultPlan::seeded(9).with_rank_crash(0, 0);
        let outcome = run_with_config(
            3,
            RunConfig {
                faults: plan,
                backoff: Backoff::checked(),
                check: Some(CheckConfig::default()),
            },
            |comm| {
                if comm.rank() == 0 {
                    comm.crash_point(0);
                }
                let (_f, failed) = comm.agree(0);
                failed
            },
        );
        assert_eq!(outcome.crashed, vec![0]);
        let results = outcome.results.expect("survivors complete");
        assert_eq!(results, vec![vec![0], vec![0]]);
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.findings);
    }

    #[test]
    fn unmatched_send_is_reported_as_mc001() {
        let outcome = run_with_config(2, RunConfig::checked(CheckConfig::default()), |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 77); // never received
            }
            comm.barrier();
        });
        let f = outcome
            .report
            .findings
            .iter()
            .find(|f| f.id == LintId::UnmatchedSend)
            .expect("MC001 expected");
        assert_eq!(f.rank, Some(1));
        assert!(!outcome.report.is_clean());
    }
}
