//! Persistent non-blocking all-to-all — the runtime's analogue of MPI-4's
//! `MPI_Alltoall_init` / `MPI_Start` persistent collectives.
//!
//! Production FFT traffic is repetitive: the same `(communicator, counts)`
//! exchange executes millions of times. The one-shot [`crate::IAlltoall`]
//! re-derives its schedule and copies a flat buffer in and out on every
//! post. A [`PersistentAlltoall`] fixes the counts **once** at
//! [`Comm::alltoallv_init`] time and then supports repeated
//! [`PersistentAlltoall::start`] / [`PersistentAlltoall::test`] /
//! [`PersistentAlltoall::wait`] cycles with zero per-execution negotiation
//! and zero copies:
//!
//! * the schedule vectors are shared (`Arc`) with every execution — never
//!   recomputed, never cloned;
//! * an execution moves owned per-peer blocks: `start` takes one block per
//!   destination, each peer block *is* its round's wire payload, the self
//!   block moves straight to the receive side, and
//!   [`PersistentAlltoall::take_recv`] hands over the per-source blocks —
//!   each the very allocation its sender filled. The caller recycles them
//!   as its next send blocks, so a steady state allocates nothing;
//! * each `start` draws a fresh collective sequence number, so round tags
//!   of different executions (and of concurrent one-shot collectives) can
//!   never cross-match — the generation tag MPI pins down with per-request
//!   communicator contexts.
//!
//! The lifecycle discipline mirrors `IAlltoall`'s: a plan must end in
//! [`PersistentAlltoall::free`], which cancels any in-flight execution and
//! purges its staged rounds. Dropping an unfreed plan in a checked run
//! records lint **MC006** ([`LintId::PersistentLeak`]).

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::check::{CheckState, Finding, LintId, Severity};
use crate::comm::Comm;
use crate::nbc::{CollError, Exchange, SendBlocks};
use faultplan::PayloadBits;
use std::sync::Arc;
use std::time::Duration;

/// A persistent all-to-all plan: counts fixed at init, executions started
/// at will. Created by [`Comm::alltoall_init`] / [`Comm::alltoallv_init`];
/// must be released with [`PersistentAlltoall::free`].
///
/// A plan is `#[must_use]`: one whose handle is discarded can never be
/// started or freed, so it does not compile under `deny(unused_must_use)`
/// (the workspace's `clippy -D warnings` gate). A plan that is kept but
/// dropped unfreed is the runtime lint MC006.
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// mpisim::run(2, |comm| {
///     comm.alltoallv_init(&[1, 1], &[1, 1], vec![0u64; 2]);
/// });
/// ```
///
/// ```
/// #![deny(unused_must_use)]
/// mpisim::run(2, |comm| {
///     let plan = comm.alltoallv_init(&[1, 1], &[1, 1], vec![0u64; 2]);
///     plan.free(&comm);
/// });
/// ```
#[must_use = "a discarded plan can never be started or freed; keep it and free() it"]
pub struct PersistentAlltoall<T> {
    send_counts: Box<[usize]>,
    recv_counts: Arc<[usize]>,
    /// The latest completed execution's per-source blocks, until taken.
    recv: Vec<Vec<T>>,
    /// The in-flight (or failed-but-retryable) execution, `None` between
    /// executions. Completed executions are reclaimed eagerly, so a `Some`
    /// here is never complete.
    active: Option<Exchange<T>>,
    /// Executions started over this plan's lifetime.
    executions: u64,
    freed: bool,
    /// World rank of the owner (diagnostics in the leak lint).
    world_rank: usize,
    /// Verification state of a checked run (`None` otherwise).
    check: Option<Arc<CheckState>>,
}

impl<T> Drop for PersistentAlltoall<T> {
    fn drop(&mut self) {
        // MC006: a persistent plan dropped without `free` leaves any
        // in-flight execution's staged rounds in peers' mailboxes and
        // (on a real MPI) leaks the registered request. Only *observed* in
        // checked runs; recorded, never panicked.
        if self.freed {
            return;
        }
        let in_flight = self.active.is_some();
        if let Some(exec) = &mut self.active {
            // One diagnostic per mistake: the plan-level finding below
            // covers the embedded execution too.
            exec.disarm_leak_lint();
        }
        if let Some(check) = &self.check {
            check.add_finding(Finding {
                id: LintId::PersistentLeak,
                severity: Severity::Error,
                rank: Some(self.world_rank),
                cycle: Vec::new(),
                message: format!(
                    "rank {} dropped a persistent all-to-all plan ({} execution(s) \
                     started{}) without free() — persistent requests must be freed",
                    self.world_rank,
                    self.executions,
                    if in_flight {
                        ", one still in flight"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
}

impl Comm {
    /// Sets up a persistent all-to-all with a uniform per-peer `count`
    /// (see [`Self::alltoallv_init`] for `recv`).
    #[expect(clippy::disallowed_methods, reason = "the uniform plan is the v plan")]
    pub fn alltoall_init<T: PayloadBits + Clone + Send + 'static>(
        &self,
        count: usize,
        recv: Vec<T>,
    ) -> PersistentAlltoall<T> {
        let counts = vec![count; self.size()];
        self.alltoallv_init(&counts, &counts, recv)
    }

    /// Sets up a persistent vector all-to-all: `send_counts[d]` elements
    /// will go to rank `d` on every execution, `recv_counts[s]` arrive from
    /// rank `s`. The counts are fixed here, once; [`PersistentAlltoall::start`]
    /// negotiates nothing.
    ///
    /// `recv` is dropped: the receive side of a plan is the blocks its peers
    /// send, handed over by [`PersistentAlltoall::take_recv`]. The argument
    /// stays so that callers written against the flat-buffer plan compile.
    pub fn alltoallv_init<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send_counts: &[usize],
        recv_counts: &[usize],
        recv: Vec<T>,
    ) -> PersistentAlltoall<T> {
        drop(recv);
        let p = self.size();
        assert_eq!(
            send_counts.len(),
            p,
            "send_counts must have one entry per rank"
        );
        assert_eq!(
            recv_counts.len(),
            p,
            "recv_counts must have one entry per rank"
        );
        PersistentAlltoall {
            send_counts: send_counts.into(),
            recv_counts: recv_counts.into(),
            recv: Vec::new(),
            active: None,
            executions: 0,
            freed: false,
            world_rank: self.world_rank(self.rank()),
            check: self.world.check.clone(),
        }
    }
}

impl<T: PayloadBits + Clone + Send + 'static> PersistentAlltoall<T> {
    /// Starts one execution (`MPI_Start`) over `blocks`, one per
    /// destination with `send_counts[d]` elements for rank `d`: owned
    /// blocks move onto the wire as they are, a flat buffer is copied into
    /// blocks first (see [`SendBlocks`]). Kicks the eager self round; the
    /// counts were fixed at init and are reused as-is. Blocks of an earlier
    /// execution not taken with [`Self::take_recv`] are dropped.
    ///
    /// # Panics
    /// If the previous execution has not completed (persistent requests
    /// admit one outstanding execution), if the plan was freed, or if
    /// `blocks` does not match the registered counts.
    pub fn start(&mut self, comm: &Comm, blocks: impl SendBlocks<T>) {
        assert!(!self.freed, "start on a freed persistent all-to-all");
        assert!(
            self.active.is_none(),
            "start before the previous execution completed — wait (or free) first"
        );
        let blocks = blocks.into_blocks(&self.send_counts);
        let mut exec = comm.start_exchange(blocks, self.recv_counts.clone());
        self.executions += 1;
        // The post's eager progression may already have completed the
        // exchange (p = 1, or every peer's block already queued).
        if exec.is_complete() {
            self.recv = exec.take_recv();
        } else {
            self.active = Some(exec);
        }
    }

    /// One `MPI_Test` on the current execution; `true` when it (or no
    /// execution at all) is complete. On completion the received blocks
    /// are ready for [`Self::take_recv`].
    ///
    /// # Panics
    /// On a fault-plan error; use [`Self::try_test`] for the typed path.
    pub fn test(&mut self, comm: &Comm) -> bool {
        self.try_test(comm)
            .unwrap_or_else(|e| panic!("persistent all-to-all failed: {e}"))
    }

    /// Fallible `MPI_Test`: progress the current execution, surfacing the
    /// typed fault error. Errors are sticky per execution, exactly as for
    /// [`crate::IAlltoall::try_test`].
    pub fn try_test(&mut self, comm: &Comm) -> Result<bool, CollError> {
        let Some(exec) = self.active.as_mut() else {
            return Ok(true);
        };
        let done = exec.progress(comm)?;
        if done {
            self.reclaim();
        }
        Ok(done)
    }

    /// `MPI_Wait`: blocks until the current execution completes and hands
    /// over the received blocks (see [`Self::take_recv`]). With no
    /// execution in flight, hands over whatever has not been taken yet.
    ///
    /// # Panics
    /// On a fault-plan error; use [`Self::wait_timeout`] for the typed path.
    pub fn wait(&mut self, comm: &Comm) -> Vec<Vec<T>> {
        match self.active.take() {
            Some(mut exec) => {
                exec.wait(comm);
                exec.take_recv()
            }
            None => std::mem::take(&mut self.recv),
        }
    }

    /// `MPI_Wait` with a stall watchdog, mirroring
    /// [`crate::IAlltoall::wait_timeout`]: on error the execution stays
    /// alive for a retry or for [`Self::free`]. On success the blocks are
    /// ready for [`Self::take_recv`].
    pub fn wait_timeout(&mut self, comm: &Comm, timeout: Duration) -> Result<(), CollError> {
        let Some(exec) = self.active.as_mut() else {
            return Ok(());
        };
        exec.wait_timeout(comm, timeout)?;
        self.reclaim();
        Ok(())
    }

    /// The latest completed execution's per-source blocks, in rank order;
    /// empty while an execution is in flight and once they are taken.
    pub fn recv(&self) -> &[Vec<T>] {
        &self.recv
    }

    /// Hands over the completed execution's per-source blocks, in rank
    /// order: block `s` holds `recv_counts[s]` elements from rank `s`, and
    /// is the allocation rank `s` passed to its `start`. The plan keeps
    /// nothing of them.
    ///
    /// # Panics
    /// While an execution is in flight.
    pub fn take_recv(&mut self) -> Vec<Vec<T>> {
        assert!(
            self.active.is_none(),
            "take_recv() while an execution is in flight"
        );
        std::mem::take(&mut self.recv)
    }

    /// Moves a completed execution's blocks into the plan.
    fn reclaim(&mut self) {
        if let Some(mut exec) = self.active.take() {
            self.recv = exec.take_recv();
        }
    }

    /// `true` when no execution is in flight.
    pub fn is_complete(&self) -> bool {
        self.active.is_none()
    }

    /// Executions started over this plan's lifetime.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// The sticky fault error of the current execution, if any.
    pub fn failure(&self) -> Option<CollError> {
        self.active.as_ref().and_then(|e| e.failure())
    }

    /// Releases the plan (`MPI_Request_free` for persistent requests):
    /// cancels any in-flight execution — purging its staged rounds from
    /// this rank's mailbox, with the same post-abort safety as
    /// [`crate::IAlltoall::cancel`] — and disarms the MC006 leak lint.
    /// Returns the number of messages reclaimed.
    pub fn free(mut self, comm: &Comm) -> usize {
        self.freed = true;
        match self.active.take() {
            Some(mut exec) => exec.cancel(comm),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, CheckConfig, CollError, FaultPlan, LintId, RunConfig};
    use std::time::Duration;

    #[test]
    fn setup_once_execute_many_is_exact_every_time() {
        // Three executions over one plan, each with different data: every
        // execution must deliver its own permuted blocks — fresh generation
        // tags keep executions from cross-matching even though the plan
        // (schedule, staging) is shared.
        let p = 4;
        run(p, move |comm| {
            let me = comm.rank();
            let mut plan = comm.alltoall_init(2, Vec::new());
            for gen in 0..3i64 {
                let send: Vec<Vec<i64>> = (0..p)
                    .map(|d| {
                        let base = 1000 * gen + (me * 10 + d) as i64;
                        vec![base, -base]
                    })
                    .collect();
                plan.start(&comm, send);
                let out = plan.wait(&comm);
                for (s, block) in out.iter().enumerate() {
                    let base = 1000 * gen + (s * 10 + me) as i64;
                    assert_eq!(block, &[base, -base], "gen {gen} src {s}");
                }
            }
            assert_eq!(plan.executions(), 3);
            plan.free(&comm);
        });
    }

    #[test]
    fn vector_counts_and_test_polling() {
        let p = 3;
        run(p, move |comm| {
            let me = comm.rank();
            // Rank i sends (d+1) elements valued i to rank d.
            let send_counts: Vec<usize> = (0..p).map(|d| d + 1).collect();
            let recv_counts = vec![me + 1; p];
            let mut plan = comm.alltoallv_init(&send_counts, &recv_counts, Vec::new());
            for _ in 0..2 {
                // The flat form of the send side: packed in rank order.
                let send: Vec<u8> = vec![me as u8; send_counts.iter().sum()];
                plan.start(&comm, &send);
                while !plan.test(&comm) {
                    std::thread::yield_now();
                }
                let out = plan.take_recv();
                for (s, block) in out.iter().enumerate() {
                    assert_eq!(block, &vec![s as u8; me + 1]);
                }
                assert!(plan.recv().is_empty(), "taken blocks leave the plan");
            }
            plan.free(&comm);
        });
    }

    #[test]
    fn blocks_travel_by_ownership_on_a_fault_free_plan() {
        // Zero copy: on a clean network every block a rank takes out of the
        // plan is the allocation its sender handed to `start` — the self
        // block included — over a fresh and a recycled execution.
        let p = 2;
        let per_rank = run(p, move |comm| {
            let me = comm.rank();
            let mut plan = comm.alltoall_init(3, Vec::new());
            let mut blocks: Vec<Vec<u64>> = vec![Vec::new(); p];
            let mut log = Vec::new();
            for gen in 0..2u64 {
                for (d, block) in blocks.iter_mut().enumerate() {
                    block.clear();
                    block.resize(3, gen * 100 + (me * 10 + d) as u64);
                }
                let packed: Vec<usize> = blocks.iter().map(|b| b.as_ptr() as usize).collect();
                plan.start(&comm, blocks);
                blocks = plan.wait(&comm);
                for (s, block) in blocks.iter().enumerate() {
                    assert_eq!(block, &[gen * 100 + (s * 10 + me) as u64; 3]);
                }
                let received: Vec<usize> = blocks.iter().map(|b| b.as_ptr() as usize).collect();
                log.push((packed, received));
            }
            plan.free(&comm);
            log
        });
        for (me, log) in per_rank.iter().enumerate() {
            for (gen, (_, received)) in log.iter().enumerate() {
                for (s, &ptr) in received.iter().enumerate() {
                    let packed = per_rank[s][gen].0[me];
                    assert_eq!(
                        ptr, packed,
                        "rank {me} gen {gen}: block from {s} was copied"
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_plan_completes_at_start() {
        run(1, |comm| {
            let mut plan = comm.alltoall_init(2, Vec::new());
            plan.start(&comm, vec![vec![42u64, 7]]);
            assert!(plan.is_complete(), "the self round completes eagerly");
            assert_eq!(plan.recv(), &[vec![42, 7]]);
            plan.free(&comm);
        });
    }

    #[test]
    fn free_reclaims_an_in_flight_execution() {
        // Freeing a plan mid-execution must purge the staged rounds, like
        // IAlltoall::cancel — mailboxes quiesce afterwards.
        let p = 4;
        run(p, move |comm| {
            let send: Vec<u64> = (0..p).map(|d| d as u64).collect();
            let mut plan = comm.alltoall_init(1, vec![0u64; p]);
            plan.start(&comm, &send);
            let _ = plan.test(&comm);
            comm.barrier();
            plan.free(&comm);
            comm.barrier();
            assert_eq!(
                comm.pending_messages(),
                0,
                "rank {} leaked staged messages",
                comm.rank()
            );
        });
    }

    #[test]
    fn unfreed_plan_reports_mc006_freed_plan_is_clean() {
        let run_once = |free: bool| {
            crate::run_with_config(2, RunConfig::checked(CheckConfig::default()), move |comm| {
                let send = vec![comm.rank() as i32; 2];
                let mut plan = comm.alltoall_init(1, vec![0i32; 2]);
                plan.start(&comm, &send);
                plan.wait(&comm);
                if free {
                    plan.free(&comm);
                }
                // An unfreed plan drops here — with no execution in flight,
                // so MC006 is the only thing wrong with this world.
            })
        };
        let leaky = run_once(false);
        let findings: Vec<_> = leaky
            .report
            .findings
            .iter()
            .filter(|f| f.id == LintId::PersistentLeak)
            .collect();
        assert_eq!(findings.len(), 2, "{:?}", leaky.report.findings);
        assert!(findings[0].message.contains("free()"));
        let clean = run_once(true);
        assert!(clean.report.is_clean(), "{:?}", clean.report.findings);
    }

    #[test]
    fn in_flight_drop_reports_one_finding_not_two() {
        // A plan dropped with an execution still in flight must surface a
        // single MC006 naming the in-flight state — not an MC002 for the
        // embedded execution on top.
        let outcome =
            crate::run_with_config(3, RunConfig::checked(CheckConfig::default()), move |comm| {
                let send = vec![comm.rank() as i32; 3];
                let mut plan = comm.alltoall_init(1, vec![0i32; 3]);
                plan.start(&comm, &send);
                comm.barrier();
                drop(plan); // leak: neither waited nor freed
                comm.barrier();
            });
        let mc006 = outcome
            .report
            .findings
            .iter()
            .filter(|f| f.id == LintId::PersistentLeak)
            .count();
        let mc002 = outcome
            .report
            .findings
            .iter()
            .filter(|f| f.id == LintId::RequestLeak)
            .count();
        assert_eq!(mc002, 0, "{:?}", outcome.report.findings);
        assert_eq!(mc006, 3, "{:?}", outcome.report.findings);
        assert!(outcome
            .report
            .findings
            .iter()
            .any(|f| f.message.contains("in flight")));
    }

    #[test]
    fn straggler_between_executions_still_exact() {
        // A straggling member slows the exchange but every execution still
        // completes exactly — the persistent schedule is fault-transparent.
        let p = 3;
        let plan = FaultPlan::none().with_straggler_spec(faultplan::Straggler {
            rank: 1,
            compute_factor: 1.0,
            send_delay: Duration::from_millis(3),
        });
        crate::run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let mut pa = comm.alltoall_init(1, vec![0i32; p]);
            for gen in 0..3i32 {
                let send: Vec<i32> = (0..p).map(|d| 100 * gen + (me * 10 + d) as i32).collect();
                pa.start(&comm, &send);
                let out = pa.wait(&comm);
                for (s, block) in out.iter().enumerate() {
                    assert_eq!(block, &[100 * gen + (s * 10 + me) as i32], "gen {gen}");
                }
            }
            pa.free(&comm);
        });
    }

    #[test]
    fn revoked_comm_surfaces_revoked_on_the_persistent_path() {
        let p = 3;
        let results = run(p, move |comm| {
            let send: Vec<i32> = (0..p).map(|d| d as i32).collect();
            let mut plan = comm.alltoall_init(1, vec![0i32; p]);
            plan.start(&comm, &send);
            if comm.rank() == 0 {
                comm.revoke();
            } else {
                while !comm.is_revoked() {
                    std::thread::yield_now();
                }
            }
            let err = plan
                .wait_timeout(&comm, Duration::from_secs(5))
                .expect_err("revoked comm must not complete");
            // Sticky across polls of the same execution.
            assert_eq!(plan.try_test(&comm), Err(err));
            assert_eq!(plan.failure(), Some(err));
            plan.free(&comm);
            err
        });
        for (rank, e) in results.iter().enumerate() {
            assert_eq!(*e, CollError::Revoked, "rank {rank}");
        }
    }
}
