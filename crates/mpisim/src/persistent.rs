//! Persistent non-blocking all-to-all — the runtime's analogue of MPI-4's
//! `MPI_Alltoall_init` / `MPI_Start` persistent collectives.
//!
//! Production FFT traffic is repetitive: the same `(communicator, counts)`
//! exchange executes millions of times. The one-shot [`crate::IAlltoall`]
//! re-derives its round schedule (counts, displacements, block table) and
//! re-registers a receive buffer on every post. A [`PersistentAlltoall`]
//! does that work **once** at [`Comm::alltoallv_init`] time and then
//! supports repeated [`PersistentAlltoall::start`] /
//! [`PersistentAlltoall::test`] / [`PersistentAlltoall::wait`] cycles with
//! zero per-execution negotiation:
//!
//! * the schedule vectors are shared (`Arc`) with every execution — never
//!   recomputed, never cloned;
//! * the receive buffer is registered at init and recycled across
//!   executions — no per-execution allocation on the receive side (the
//!   per-destination send blocks are the wire copy itself and are consumed
//!   by the peers);
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
use crate::nbc::{displs, CollError, IAlltoall};
use faultplan::PayloadBits;
use std::sync::Arc;
use std::time::Duration;

/// A persistent all-to-all plan: schedule computed at init, executions
/// started at will. Created by [`Comm::alltoall_init`] /
/// [`Comm::alltoallv_init`]; must be released with
/// [`PersistentAlltoall::free`].
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
    send_counts: Arc<[usize]>,
    send_displs: Arc<[usize]>,
    recv_counts: Arc<[usize]>,
    recv_displs: Arc<[usize]>,
    total_send: usize,
    /// Pre-registered receive staging, recycled across executions; holds
    /// the latest completed execution's blocks between executions.
    recv: Vec<T>,
    /// The in-flight (or failed-but-retryable) execution, `None` between
    /// executions. Completed executions are reclaimed eagerly, so a `Some`
    /// here is never complete.
    active: Option<IAlltoall<T>>,
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
    /// Sets up a persistent all-to-all with a uniform per-peer `count`.
    /// `recv` is the registered receive staging buffer (length
    /// `count · size`), recycled across every execution.
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
    /// rank `s`. All schedule state (displacements, block table, staging
    /// registration) is computed here, once; [`PersistentAlltoall::start`]
    /// does none of it.
    pub fn alltoallv_init<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send_counts: &[usize],
        recv_counts: &[usize],
        recv: Vec<T>,
    ) -> PersistentAlltoall<T> {
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
        let total_recv: usize = recv_counts.iter().sum();
        assert_eq!(recv.len(), total_recv, "recv buffer length mismatch");
        PersistentAlltoall {
            send_displs: displs(send_counts).into(),
            send_counts: send_counts.to_vec().into(),
            recv_displs: displs(recv_counts).into(),
            recv_counts: recv_counts.to_vec().into(),
            total_send: send_counts.iter().sum(),
            recv,
            active: None,
            executions: 0,
            freed: false,
            world_rank: self.world_rank(self.rank()),
            check: self.world.check.clone(),
        }
    }
}

impl<T: PayloadBits + Clone + Send + 'static> PersistentAlltoall<T> {
    /// Starts one execution over `send` (`MPI_Start`): stages the
    /// per-destination blocks (the wire copy) and kicks the eager self-copy
    /// round. Everything else — schedule, displacements, receive staging —
    /// was set up at init and is reused as-is.
    ///
    /// # Panics
    /// If the previous execution has not completed (persistent requests
    /// admit one outstanding execution), if the plan was freed, or if
    /// `send` does not match the registered counts.
    pub fn start(&mut self, comm: &Comm, send: &[T]) {
        assert!(!self.freed, "start on a freed persistent all-to-all");
        assert!(
            self.active.is_none(),
            "start before the previous execution completed — wait (or free) first"
        );
        assert_eq!(send.len(), self.total_send, "send buffer length mismatch");
        assert_eq!(
            self.recv.len(),
            self.recv_counts.iter().sum::<usize>(),
            "receive staging taken (take_recv) but not restored before start"
        );
        let recv = std::mem::take(&mut self.recv);
        let exec = comm.start_alltoall(
            send,
            &self.send_displs,
            &self.send_counts,
            recv,
            self.recv_displs.clone(),
            self.recv_counts.clone(),
        );
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
    /// become available via [`Self::recv`].
    ///
    /// # Panics
    /// On a fault-plan error; use [`Self::try_test`] for the typed path.
    pub fn test(&mut self, comm: &Comm) -> bool {
        self.try_test(comm)
            .unwrap_or_else(|e| panic!("persistent all-to-all failed: {e}"))
    }

    /// Fallible `MPI_Test`: progress the current execution, surfacing the
    /// typed fault error. Errors are sticky per execution, exactly as for
    /// [`IAlltoall::try_test`].
    pub fn try_test(&mut self, comm: &Comm) -> Result<bool, CollError> {
        let Some(exec) = self.active.as_mut() else {
            return Ok(true);
        };
        let done = exec.try_test(comm)?;
        if done {
            self.reclaim();
        }
        Ok(done)
    }

    /// `MPI_Wait`: blocks until the current execution completes and returns
    /// the received blocks (per-source, in rank order). A no-op returning
    /// the previous results when no execution is in flight.
    ///
    /// # Panics
    /// On a fault-plan error; use [`Self::wait_timeout`] for the typed path.
    pub fn wait(&mut self, comm: &Comm) -> &[T] {
        if let Some(exec) = self.active.take() {
            // Reuses IAlltoall's backoff-managed wait (park slices reset on
            // every round advance) and reclaims the staging buffer.
            self.recv = exec.wait(comm);
        }
        &self.recv
    }

    /// `MPI_Wait` with a stall watchdog, mirroring
    /// [`IAlltoall::wait_timeout`]: on error the execution stays alive for
    /// a retry or for [`Self::free`]. On success the blocks are available
    /// via [`Self::recv`].
    pub fn wait_timeout(&mut self, comm: &Comm, timeout: Duration) -> Result<(), CollError> {
        let Some(exec) = self.active.as_mut() else {
            return Ok(());
        };
        exec.wait_timeout(comm, timeout)?;
        self.reclaim();
        Ok(())
    }

    /// The latest completed execution's received blocks.
    ///
    /// # Panics
    /// While an execution is in flight (its staging is not yet coherent).
    pub fn recv(&self) -> &[T] {
        assert!(
            self.active.is_none(),
            "recv() while an execution is in flight"
        );
        &self.recv
    }

    /// Takes the completed execution's received blocks *out* of the plan,
    /// for consumers that need an owned buffer (e.g. to read it while
    /// mutating other state). The registration stays alive; the buffer must
    /// come back via [`Self::restore_recv`] before the next [`Self::start`].
    ///
    /// # Panics
    /// While an execution is in flight.
    pub fn take_recv(&mut self) -> Vec<T> {
        assert!(
            self.active.is_none(),
            "take_recv() while an execution is in flight"
        );
        std::mem::take(&mut self.recv)
    }

    /// Returns a buffer taken with [`Self::take_recv`] to the plan's
    /// registered staging.
    ///
    /// # Panics
    /// If `buf` does not match the registered receive counts.
    pub fn restore_recv(&mut self, buf: Vec<T>) {
        assert_eq!(
            buf.len(),
            self.recv_counts.iter().sum::<usize>(),
            "restored buffer must match the registered receive counts"
        );
        self.recv = buf;
    }

    /// Moves a completed execution's buffer back into the plan.
    fn reclaim(&mut self) {
        if let Some(exec) = self.active.take() {
            debug_assert!(exec.is_complete(), "reclaim of an incomplete execution");
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
    /// [`IAlltoall::cancel`] — and disarms the MC006 leak lint. Returns the
    /// number of messages reclaimed.
    pub fn free(mut self, comm: &Comm) -> usize {
        self.freed = true;
        match self.active.take() {
            Some(exec) => exec.cancel(comm),
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
            let mut plan = comm.alltoall_init(2, vec![0i64; 2 * p]);
            for gen in 0..3i64 {
                let send: Vec<i64> = (0..p)
                    .flat_map(|d| {
                        let base = 1000 * gen + (me * 10 + d) as i64;
                        [base, -base]
                    })
                    .collect();
                plan.start(&comm, &send);
                let out = plan.wait(&comm).to_vec();
                for s in 0..p {
                    let base = 1000 * gen + (s * 10 + me) as i64;
                    assert_eq!(out[2 * s], base, "gen {gen} src {s}");
                    assert_eq!(out[2 * s + 1], -base, "gen {gen} src {s}");
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
            let total_recv = recv_counts.iter().sum();
            let mut plan = comm.alltoallv_init(&send_counts, &recv_counts, vec![0u8; total_recv]);
            for _ in 0..2 {
                let send: Vec<u8> = vec![me as u8; send_counts.iter().sum()];
                plan.start(&comm, &send);
                while !plan.test(&comm) {
                    std::thread::yield_now();
                }
                let out = plan.recv();
                for s in 0..p {
                    for j in 0..me + 1 {
                        assert_eq!(out[s * (me + 1) + j], s as u8);
                    }
                }
            }
            plan.free(&comm);
        });
    }

    #[test]
    fn single_rank_plan_completes_at_start() {
        run(1, |comm| {
            let mut plan = comm.alltoall_init(2, vec![0u64; 2]);
            plan.start(&comm, &[42, 7]);
            assert!(plan.is_complete(), "self-copy completes eagerly");
            assert_eq!(plan.recv(), &[42, 7]);
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
                let out = pa.wait(&comm).to_vec();
                for (s, &v) in out.iter().enumerate() {
                    assert_eq!(v, 100 * gen + (s * 10 + me) as i32, "gen {gen}");
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
