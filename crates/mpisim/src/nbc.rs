//! Non-blocking collectives with **manual progression** — the runtime's
//! analogue of `MPI_Ialltoall` / `MPI_Test` / `MPI_Wait` over a libNBC-style
//! round schedule.
//!
//! The collective is decomposed into `p` pairwise-exchange rounds; in round
//! `r`, rank `i` sends its block for rank `(i+r) mod p` and receives the
//! block from rank `(i−r) mod p`. Crucially, **rounds advance only inside
//! [`IAlltoall::test`] or [`IAlltoall::wait`]**: round `r`'s send is not even
//! posted until rounds `< r` have completed locally. A rank that computes
//! without polling therefore stalls its partners — precisely the
//! asynchronous-progression behaviour (Hoefler & Lumsdaine's "to thread or
//! not to thread") that the paper's `Fy/Fp/Fu/Fx` parameters exist to
//! manage.
//!
//! Every all-to-all moves owned per-peer blocks (`Exchange`, the one
//! exchange form): a block handed in for a peer is that round's wire
//! payload and the receiver keeps it. [`IAlltoall`] and the blocking
//! `alltoall`/`alltoallv` are flat-buffer adaptors over it; a
//! [`crate::PersistentAlltoall`] exposes the blocks themselves.
//!
//! ## Faults and the typed error path
//!
//! When the world carries a [`faultplan::FaultPlan`], every round send
//! consults it: sends may be delayed (stragglers), dropped and retransmitted
//! within a bounded budget, or blackholed outright. The fallible entry
//! points — [`IAlltoall::try_test`] and [`IAlltoall::wait_timeout`] — then
//! surface a [`CollError`] instead of spinning forever (`Stalled`, detected
//! by a per-round progress watchdog) or panicking (`Dropped`, an exhausted
//! retransmit budget). The legacy `test`/`wait` keep their infallible
//! signatures and panic on a fault error, mirroring `MPI_Abort`.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::check::{CheckState, Finding, LintId, WaitInfo};
use crate::comm::{encode_tag, Comm, Kind};
use faultplan::{checksum, flip_seeded_bit, PayloadBits};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a non-blocking collective could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollError {
    /// The round schedule made no progress for the watchdog timeout: the
    /// rank was waiting on `peer`'s block for `round` (a peer that stopped
    /// progressing, or whose messages are being swallowed).
    Stalled {
        /// First incomplete round of the schedule.
        round: usize,
        /// **World rank** whose block the stalled round is missing — the
        /// same numbering [`CollError::RankFailed`] uses, so the two stay
        /// comparable after a `shrink()` renumbers communicator ranks.
        peer: usize,
    },
    /// A round send exhausted its retransmit budget under a fault plan with
    /// `fail_after_budget`.
    Dropped {
        /// The round whose send was lost.
        round: usize,
        /// Destination communicator rank of the lost block.
        peer: usize,
    },
    /// A member of the communicator died (ULFM `MPI_ERR_PROC_FAILED`): the
    /// collective cannot complete and the operation surfaces the failure
    /// instead of hanging. Names the **world rank** of the dead process.
    RankFailed(usize),
    /// The communicator was revoked by a peer ([`Comm::revoke`], ULFM
    /// `MPI_ERR_REVOKED`): every in-flight operation on it is poisoned.
    Revoked,
    /// A round payload failed its wire checksum — silent data corruption in
    /// transit, detected rather than delivered. Surfaces only once the
    /// corrupt-retransmit budget is exhausted (a healing link retries
    /// transparently); corrupted data is **never** force-delivered.
    Corrupt {
        /// **World rank** whose payload failed the checksum.
        src: usize,
        /// Sequence number of the poisoned collective.
        seq: u64,
    },
}

impl std::fmt::Display for CollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollError::Stalled { round, peer } => {
                write!(f, "stalled in round {round} waiting on world rank {peer}")
            }
            CollError::Dropped { round, peer } => {
                write!(f, "round {round} send to rank {peer} exhausted retransmits")
            }
            CollError::RankFailed(rank) => {
                write!(f, "world rank {rank} failed (process death)")
            }
            CollError::Revoked => write!(f, "communicator revoked by a peer"),
            CollError::Corrupt { src, seq } => write!(
                f,
                "payload from world rank {src} failed its checksum in collective {seq} \
                 (silent corruption detected)"
            ),
        }
    }
}

impl std::error::Error for CollError {}

/// One round payload on the mpisim wire: the sender's block itself plus a
/// checksum of its bit pattern, computed by the sender from the pristine
/// block. The checksum is verified twice — at the delivery point (the
/// link-layer CRC model: a corrupt frame is discarded there and the sender's
/// intact block retries) and end-to-end by the receiver before it accepts
/// the block, so no corrupted payload can ever land silently.
pub(crate) struct Frame<T> {
    pub(crate) block: Vec<T>,
    pub(crate) sum: u64,
}

/// What an all-to-all sends: one block per destination rank, `counts[d]`
/// elements for rank `d`. Owned blocks (`Vec<Vec<T>>`) move onto the wire as
/// they are; a flat buffer — per-destination blocks packed contiguously in
/// rank order, the MPI layout — is copied into blocks first.
pub trait SendBlocks<T> {
    /// The per-destination blocks.
    ///
    /// # Panics
    /// If the data does not match `counts`.
    fn into_blocks(self, counts: &[usize]) -> Vec<Vec<T>>;
}

impl<T> SendBlocks<T> for Vec<Vec<T>> {
    fn into_blocks(self, counts: &[usize]) -> Vec<Vec<T>> {
        assert_eq!(self.len(), counts.len(), "one send block per rank");
        for (d, (block, &count)) in self.iter().zip(counts).enumerate() {
            assert_eq!(block.len(), count, "send block {d} length mismatch");
        }
        self
    }
}

impl<T: Clone> SendBlocks<T> for &[T] {
    fn into_blocks(self, counts: &[usize]) -> Vec<Vec<T>> {
        let total: usize = counts.iter().sum();
        assert_eq!(self.len(), total, "send buffer length mismatch");
        let mut rest = self;
        let split = |&count: &usize| {
            let (block, tail) = rest.split_at(count);
            rest = tail;
            block.to_vec()
        };
        counts.iter().map(split).collect()
    }
}

impl<T: Clone> SendBlocks<T> for &Vec<T> {
    fn into_blocks(self, counts: &[usize]) -> Vec<Vec<T>> {
        self.as_slice().into_blocks(counts)
    }
}

/// Copies per-source blocks into `out` back to back, in rank order: the flat
/// receive side of [`IAlltoall`] and the blocking all-to-alls.
fn flatten_into<T: Clone>(blocks: &[Vec<T>], out: &mut [T]) {
    let total: usize = blocks.iter().map(Vec::len).sum();
    assert_eq!(out.len(), total, "recv buffer length mismatch");
    let mut rest = out;
    for block in blocks {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(block.len());
        head.clone_from_slice(block);
        rest = tail;
    }
}

/// One execution of an all-to-all over owned blocks: the one exchange form
/// under [`IAlltoall`] and [`crate::PersistentAlltoall`]. The block a sender
/// hands in for a peer becomes that round's frame payload, and the receiver
/// keeps it — a block is written once by its producer and never copied on
/// the way (a fault plan's corrupted frame is the one exception: it travels
/// as a flipped copy and is discarded).
pub(crate) struct Exchange<T> {
    seq: u64,
    /// Per-destination blocks still to send: a round's send takes its block
    /// out, and the self block moved to `recv` at start.
    send: Vec<Vec<T>>,
    /// Per-source blocks received so far, in rank order; a source's entry
    /// stays empty until its round arrives.
    recv: Vec<Vec<T>>,
    /// Shared with a [`crate::PersistentAlltoall`] plan when this execution
    /// was started from one — the schedule is computed once, not per start.
    recv_counts: Arc<[usize]>,
    /// Next round awaiting its receive.
    round: usize,
    /// Rounds whose sends have been posted (`round ≤ sent ≤ round+1`).
    sent: usize,
    size: usize,
    rank: usize,
    /// Send attempts of the current round, counted across fault-plan drops.
    send_attempts: u32,
    /// Corrupt-discarded attempts of the current round (the link-layer ARQ
    /// counter), independent of the drop budget.
    corrupt_attempts: u32,
    /// A fault error this request hit; sticky, re-reported on every
    /// subsequent progression attempt.
    failed: Option<CollError>,
    /// Set by `cancel`; suppresses the request-leak lint.
    cancelled: bool,
    /// World rank of the owner (diagnostics in the leak lint).
    world_rank: usize,
    /// Verification state of a checked run (`None` otherwise).
    check: Option<Arc<CheckState>>,
}

impl<T> Drop for Exchange<T> {
    fn drop(&mut self) {
        // MC002: an incomplete request dropped without `wait` or `cancel`
        // leaks its staged rounds in peers' mailboxes. Only *observed* in
        // checked runs; the lint is recorded, never panicked, so drops
        // during unwinding stay safe.
        if self.cancelled || self.round == self.size {
            return;
        }
        if let Some(check) = &self.check {
            check.add_finding(Finding {
                id: LintId::RequestLeak,
                rank: Some(self.world_rank),
                cycle: Vec::new(),
                message: format!(
                    "rank {} dropped IAlltoall seq {} at round {}/{} without wait or cancel \
                     — staged round messages leak in peers' mailboxes",
                    self.world_rank, self.seq, self.round, self.size
                ),
            });
        }
    }
}

/// An in-flight non-blocking all-to-all (vector variant) over flat buffers.
/// Created by [`Comm::ialltoallv`] / [`Comm::ialltoall`]; completed by
/// `test`/`wait`.
///
/// The flat adaptor over the block exchange: the post copies the send
/// buffer into per-destination blocks, and `wait` (or
/// [`IAlltoall::take_recv`] after completion) copies the received blocks
/// into the caller's receive buffer, contiguous per-source blocks in rank
/// order.
///
/// A request is `#[must_use]`: a post whose handle is discarded can never
/// be completed, so it does not compile under `deny(unused_must_use)` (the
/// workspace's `clippy -D warnings` gate). A handle that is kept but dropped
/// incomplete is the runtime lint MC002.
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// mpisim::run(2, |comm| {
///     comm.ialltoall(&[1u64, 2], 1, vec![0u64; 2]);
/// });
/// ```
///
/// ```
/// #![deny(unused_must_use)]
/// mpisim::run(2, |comm| {
///     let out = comm.ialltoall(&[1u64, 2], 1, vec![0u64; 2]).wait(&comm);
///     assert_eq!(out.len(), 2);
/// });
/// ```
#[must_use = "a discarded request can never be completed; wait, test it to completion or cancel it"]
pub struct IAlltoall<T> {
    exchange: Exchange<T>,
    /// The caller's receive buffer, filled on completion.
    recv: Vec<T>,
}

impl Comm {
    /// Starts a non-blocking all-to-all: block `d` of `send` (length
    /// `count`) goes to rank `d`. `recv` must have length `count · size` and
    /// is consumed into the returned request.
    #[expect(clippy::disallowed_methods, reason = "the uniform post is the v post")]
    pub fn ialltoall<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send: &[T],
        count: usize,
        recv: Vec<T>,
    ) -> IAlltoall<T> {
        let counts = vec![count; self.size()];
        self.ialltoallv(send, &counts, &counts, recv)
    }

    /// Vector variant: `send_counts[d]` elements go to rank `d` (packed
    /// contiguously in rank order), `recv_counts[s]` arrive from rank `s`.
    pub fn ialltoallv<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
        recv: Vec<T>,
    ) -> IAlltoall<T> {
        let total_recv: usize = recv_counts.iter().sum();
        assert_eq!(recv.len(), total_recv, "recv buffer length mismatch");
        let exchange =
            self.start_exchange(send.into_blocks(send_counts), recv_counts.to_vec().into());
        IAlltoall { exchange, recv }
    }

    /// Kicks off one execution over owned per-destination blocks — the
    /// common tail of every all-to-all. Moves the self block straight to the
    /// receive side (round 0, done eagerly like real NBC implementations do,
    /// and immune to faults) and draws a fresh collective sequence number so
    /// concurrent (or repeated) executions can never cross-match.
    ///
    /// # Panics
    /// If there is not one block per rank and one count per rank, or the
    /// self block's length is not this rank's receive count from itself.
    pub(crate) fn start_exchange<T: PayloadBits + Clone + Send + 'static>(
        &self,
        mut send: Vec<Vec<T>>,
        recv_counts: Arc<[usize]>,
    ) -> Exchange<T> {
        let (p, me) = (self.size(), self.rank());
        assert_eq!(send.len(), p, "one send block per rank");
        assert_eq!(
            recv_counts.len(),
            p,
            "recv_counts must have one entry per rank"
        );
        assert_eq!(
            send[me].len(),
            recv_counts[me],
            "the self block must match the receive count from self"
        );
        let mut recv: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        recv[me] = std::mem::take(&mut send[me]);
        let mut req = Exchange {
            seq: self.next_coll_seq(),
            send,
            recv,
            recv_counts,
            round: 1,
            sent: 1,
            size: p,
            rank: me,
            send_attempts: 0,
            corrupt_attempts: 0,
            failed: None,
            cancelled: false,
            world_rank: self.world_rank(me),
            check: self.world.check.clone(),
        };
        // Push the first peer round at post time. A fault error this early
        // is remembered and surfaced by the first test/wait.
        let _ = req.progress(self);
        req
    }
}

impl<T: PayloadBits + Clone + Send + 'static> Exchange<T> {
    fn round_tag(&self, round: usize) -> u64 {
        // 30 bits of sequence, 10 bits of round index.
        (self.seq << 10) | round as u64
    }

    /// Posts round `r`'s send to `dest`, applying the world's fault plan.
    /// Returns `Ok(false)` when this attempt was dropped (the block stays
    /// staged; a later progression opportunity retries).
    fn post_send(&mut self, comm: &Comm, r: usize, dest: usize) -> Result<bool, CollError> {
        let plan = comm.faults();
        if plan.is_active() {
            let src_w = comm.world_rank(self.rank);
            if plan.is_blackholed(src_w, r) {
                // Swallow the block but report success: this rank believes
                // it sent and never retries — the hard-stall scenario whose
                // detection falls to the peers' watchdogs.
                drop(std::mem::take(&mut self.send[dest]));
                return Ok(true);
            }
            if plan.should_drop(
                self.seq,
                src_w,
                comm.world_rank(dest),
                r,
                self.send_attempts,
            ) {
                self.send_attempts += 1;
                if self.send_attempts > plan.max_retransmits() {
                    if plan.fail_after_budget() {
                        return Err(CollError::Dropped {
                            round: r,
                            peer: dest,
                        });
                    }
                    // Budget spent but the fault is transient: the network
                    // healed — force delivery below.
                } else {
                    return Ok(false);
                }
            }
            let delay = plan.send_delay_for(src_w);
            if !delay.is_zero() {
                #[expect(clippy::disallowed_methods, reason = "the FaultPlan's straggler delay")]
                std::thread::sleep(delay);
            }
            // Silent in-transit corruption: flip one seeded bit of a *copy*
            // of the staged block and run the delivery-point checksum — the
            // link-layer CRC model. A detected corrupt frame is discarded
            // (the pristine staged block retries, ARQ-style) within the
            // corrupt-retransmit budget; past the budget the typed error
            // surfaces. Corrupted data is never force-delivered.
            if let Some(h) = plan.should_corrupt(
                self.seq,
                src_w,
                comm.world_rank(dest),
                r,
                self.corrupt_attempts,
            ) {
                let pristine = std::mem::take(&mut self.send[dest]);
                let sum = checksum(&pristine);
                let mut corrupted = pristine.clone();
                let _ = flip_seeded_bit(&mut corrupted, h);
                if checksum(&corrupted) != sum {
                    self.send[dest] = pristine;
                    self.corrupt_attempts += 1;
                    if self.corrupt_attempts > plan.corrupt_retransmits() {
                        return Err(CollError::Corrupt {
                            src: src_w,
                            seq: self.seq,
                        });
                    }
                    return Ok(false);
                }
                // Checksum collision (impossible for a single flipped bit
                // by the PayloadBits contract, and the no-op flip of an
                // empty block): the frame passes the link CRC and is
                // delivered; the receiver's end-to-end verify shares the
                // same blind spot, which is exactly what the corruption
                // sweep's numerical gate exists to rule out.
                self.deliver(comm, r, dest, corrupted, sum);
                return Ok(true);
            }
        }
        let block = std::mem::take(&mut self.send[dest]);
        let sum = checksum(&block);
        self.deliver(comm, r, dest, block, sum);
        Ok(true)
    }

    /// Puts round `r`'s frame in `dest`'s mailbox and resets the round's
    /// retransmit counters.
    fn deliver(&mut self, comm: &Comm, r: usize, dest: usize, block: Vec<T>, sum: u64) {
        comm.deliver(
            dest,
            encode_tag(comm.ctx, Kind::Nbc, self.round_tag(r)),
            Box::new(Frame { block, sum }),
        );
        self.send_attempts = 0;
        self.corrupt_attempts = 0;
    }

    /// Records a sticky fault error and returns it.
    fn fail(&mut self, e: CollError) -> Result<bool, CollError> {
        self.failed = Some(e);
        Err(e)
    }

    /// Called where progression would report "no progress possible right
    /// now": before parking, consult the failure detector. A dead member
    /// means the remaining rounds can never arrive, so the stuck state is
    /// surfaced as a typed [`CollError::RankFailed`] instead of a wait that
    /// either hangs (no watchdog) or mis-reports `Stalled` (with one).
    fn stuck(&mut self, comm: &Comm) -> Result<bool, CollError> {
        if let Some(dead) = comm.first_failed_member() {
            return self.fail(CollError::RankFailed(dead));
        }
        Ok(false)
    }

    /// Advances as many rounds as currently possible. Returns `Ok(true)`
    /// when the collective has completed; fault errors are sticky.
    pub(crate) fn progress(&mut self, comm: &Comm) -> Result<bool, CollError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        // A revoked communicator poisons every in-flight operation on it,
        // even ones that could still complete from queued messages — the
        // ULFM contract that lets one rank's failure detection interrupt
        // its peers' blocking waits promptly.
        if comm.is_revoked() {
            return self.fail(CollError::Revoked);
        }
        let p = self.size;
        while self.round < p {
            let r = self.round;
            if self.sent == r {
                let dest = (self.rank + r) % p;
                debug_assert_ne!(dest, self.rank, "self round done at post time");
                match self.post_send(comm, r, dest) {
                    Ok(true) => self.sent = r + 1,
                    Ok(false) => return self.stuck(comm),
                    Err(e) => return self.fail(e),
                }
            }
            let src = (self.rank + p - r) % p;
            debug_assert_ne!(src, self.rank, "self round handled above");
            let tag = encode_tag(comm.ctx, Kind::Nbc, self.round_tag(r));
            match comm.my_mailbox().try_take(src, tag) {
                Some(msg) => {
                    let frame = *msg
                        .data
                        .downcast::<Frame<T>>()
                        .unwrap_or_else(|_| panic!("alltoall type mismatch in round {r}"));
                    // End-to-end integrity: re-verify the sender's checksum
                    // before the block is accepted. Catches any corruption
                    // the delivery-point check did not (e.g. a flip while
                    // queued in the mailbox).
                    if checksum(&frame.block) != frame.sum {
                        return self.fail(CollError::Corrupt {
                            src: comm.world_rank(src),
                            seq: self.seq,
                        });
                    }
                    assert_eq!(
                        frame.block.len(),
                        self.recv_counts[src],
                        "alltoall count mismatch: rank {src} sent {}, we expected {}",
                        frame.block.len(),
                        self.recv_counts[src]
                    );
                    self.recv[src] = frame.block;
                    self.round = r + 1;
                }
                None => return self.stuck(comm),
            }
        }
        Ok(true)
    }

    /// `true` once every round has completed (no progress attempt).
    pub(crate) fn is_complete(&self) -> bool {
        self.round == self.size
    }

    /// Communicator rank whose block the first incomplete round is missing
    /// — the single definition of the round-schedule source expression,
    /// shared by the wait-for graph and the stall watchdog.
    fn missing_src(&self) -> usize {
        (self.rank + self.size - self.round) % self.size
    }

    /// Registers the wait-for edge of the first incomplete round (checked
    /// runs): this rank is blocked on the peer whose block round `round`
    /// is missing.
    fn mark_blocked(&self, comm: &Comm) {
        if let Some(check) = &self.check {
            let src = self.missing_src();
            check.set_blocked(
                self.world_rank,
                WaitInfo {
                    peer_world: comm.world_rank(src),
                    src_key: src,
                    tag: encode_tag(comm.ctx, Kind::Nbc, self.round_tag(self.round)),
                },
            );
        }
    }

    fn clear_blocked(&self) {
        if let Some(check) = &self.check {
            check.clear_blocked(self.world_rank);
        }
    }

    /// [`IAlltoall::wait`] without the hand-over: blocks until complete.
    pub(crate) fn wait(&mut self, comm: &Comm) {
        let bo = comm.world.backoff;
        let probe_after = self.check.as_ref().map(|c| c.config().deadlock_after);
        let mut slice = bo.first();
        let mut waited = Duration::ZERO;
        let mut last_round = self.round;
        loop {
            match self.progress(comm) {
                Ok(true) => {
                    self.clear_blocked();
                    return;
                }
                Ok(false) => {
                    // A round advance means the exchange is healthy: restart
                    // the ramp so steady progress keeps park slices short
                    // instead of inheriting the previous round's cap-length
                    // backoff (same policy as `wait_timeout`).
                    if self.round > last_round {
                        last_round = self.round;
                        slice = bo.first();
                    }
                    self.mark_blocked(comm);
                    comm.my_mailbox().wait_arrival(slice);
                    waited += slice;
                    if let Some(after) = probe_after {
                        if waited >= after {
                            comm.probe_deadlock_or_panic();
                            waited = Duration::ZERO;
                        }
                    }
                    slice = bo.next(slice);
                }
                Err(e) => panic!("all-to-all failed: {e}"),
            }
        }
    }

    /// See [`IAlltoall::wait_timeout`].
    pub(crate) fn wait_timeout(&mut self, comm: &Comm, timeout: Duration) -> Result<(), CollError> {
        let bo = comm.world.backoff;
        let mut slice = bo.first();
        let mut last_progress = Instant::now();
        let mut last_round = self.round;
        loop {
            if self.progress(comm)? {
                self.clear_blocked();
                return Ok(());
            }
            if self.round > last_round {
                last_round = self.round;
                last_progress = Instant::now();
                slice = bo.first();
            } else if last_progress.elapsed() >= timeout {
                self.clear_blocked();
                // Report the missing peer's *world* rank — the numbering
                // RankFailed uses and the one that stays meaningful after a
                // shrink() renumbers communicator ranks.
                let peer = comm.world_rank(self.missing_src());
                return Err(CollError::Stalled {
                    round: self.round,
                    peer,
                });
            }
            self.mark_blocked(comm);
            comm.my_mailbox().wait_arrival(slice);
            slice = bo.next(slice);
        }
    }

    /// Takes the per-source blocks out of a completed execution.
    ///
    /// # Panics
    /// If the collective has not completed.
    pub(crate) fn take_recv(&mut self) -> Vec<Vec<T>> {
        assert!(self.is_complete(), "take_recv on an incomplete all-to-all");
        std::mem::take(&mut self.recv)
    }

    /// Cancels the execution, purging every round message of it still
    /// queued in this rank's mailbox (see [`IAlltoall::cancel`]). Returns
    /// the number of messages reclaimed here.
    pub(crate) fn cancel(&mut self, comm: &Comm) -> usize {
        self.cancelled = true;
        if comm.world_aborted() {
            return 0;
        }
        let mut purged = 0;
        for r in 0..self.size {
            let tag = encode_tag(comm.ctx, Kind::Nbc, self.round_tag(r));
            purged += comm.my_mailbox().purge(|m| m.tag == tag);
        }
        purged
    }
}

impl<T> Exchange<T> {
    /// Disarms the MC002 request-leak lint without purging. Used by the
    /// persistent-plan drop path, where the plan-level MC006 finding is the
    /// single diagnostic for the whole unfreed plan (its in-flight execution
    /// included) — two findings for one mistake would be noise.
    pub(crate) fn disarm_leak_lint(&mut self) {
        self.cancelled = true;
    }

    /// The sticky fault error this execution hit, if any.
    pub(crate) fn failure(&self) -> Option<CollError> {
        self.failed
    }
}

impl<T: PayloadBits + Clone + Send + 'static> IAlltoall<T> {
    /// One `MPI_Test`: makes progress and reports completion.
    ///
    /// # Panics
    /// On a fault-plan error (exhausted retransmit budget); use
    /// [`Self::try_test`] for the typed error path.
    pub fn test(&mut self, comm: &Comm) -> bool {
        self.try_test(comm)
            .unwrap_or_else(|e| panic!("all-to-all failed: {e}"))
    }

    /// Fallible `MPI_Test`: makes progress and reports completion, or the
    /// typed fault error.
    pub fn try_test(&mut self, comm: &Comm) -> Result<bool, CollError> {
        self.exchange.progress(comm)
    }

    /// `true` once every round has completed (no progress attempt).
    pub fn is_complete(&self) -> bool {
        self.exchange.is_complete()
    }

    /// Rounds of the schedule completed locally so far — the request-level
    /// progression state a `test` transition advances. Tracing consumers
    /// read this to see how far each poll pushed the collective.
    pub fn rounds_done(&self) -> usize {
        self.exchange.round
    }

    /// Total rounds in the schedule (one per rank, including the eager
    /// self-copy round).
    pub fn rounds_total(&self) -> usize {
        self.exchange.size
    }

    /// `MPI_Wait`: progresses (blocking between arrivals, with exponential
    /// backoff up to the world's configured cap) until completion, then
    /// returns the receive buffer (per-source blocks in rank order).
    ///
    /// # Panics
    /// On a fault-plan error; use [`Self::wait_timeout`] for the typed
    /// error path.
    pub fn wait(mut self, comm: &Comm) -> Vec<T> {
        self.exchange.wait(comm);
        self.take_recv()
    }

    /// `MPI_Wait` with a stall watchdog: progresses until completion, but if
    /// the round schedule advances by nothing for `timeout`, returns
    /// [`CollError::Stalled`] naming the first incomplete round and the peer
    /// it is missing. On success the receive buffer is available via
    /// [`Self::take_recv`]; on error the request stays alive for a retry (a
    /// later `wait_timeout` grants a fresh watchdog period) or for
    /// [`Self::cancel`].
    ///
    /// Detection latency is `timeout` plus one mailbox park slice (bounded
    /// by the world's backoff cap, 50 ms by default).
    pub fn wait_timeout(&mut self, comm: &Comm, timeout: Duration) -> Result<(), CollError> {
        self.exchange.wait_timeout(comm, timeout)
    }

    /// Takes the receive buffer out of a completed request.
    ///
    /// # Panics
    /// If the collective has not completed.
    pub fn take_recv(mut self) -> Vec<T> {
        flatten_into(&self.exchange.take_recv(), &mut self.recv);
        self.recv
    }

    /// Cancels an incomplete collective, purging every round message of this
    /// operation still queued in this rank's mailbox. Without this, dropping
    /// an in-flight request leaks its staged blocks in peers' queues for the
    /// lifetime of the world. Cancellation is collective: each rank reclaims
    /// the messages addressed to *it*, so all members must cancel (or
    /// complete) for the world to quiesce. Returns the number of messages
    /// reclaimed here.
    ///
    /// Safe after a world abort: once the abort flag is up, peers may be
    /// unwinding and tearing their mailboxes down concurrently, so cancel
    /// marks the request cancelled (disarming the leak lint) and skips the
    /// purge instead of racing teardown — the world is dead, nothing can
    /// observe the leftover messages. Idempotent in effect: already-complete
    /// or already-error requests cancel cleanly too.
    pub fn cancel(mut self, comm: &Comm) -> usize {
        self.exchange.cancel(comm)
    }
}

impl Comm {
    /// Blocking all-to-all: the vector form with `count` elements per peer.
    pub fn alltoall<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send: &[T],
        count: usize,
        recv: &mut [T],
    ) {
        let counts = vec![count; self.size()];
        self.alltoallv(send, &counts, &counts, recv);
    }

    /// Blocking vector all-to-all, implemented as post + wait (what FFTW's
    /// transpose does with `MPI_Alltoallv`): the received blocks are copied
    /// straight into `recv`.
    pub fn alltoallv<T: PayloadBits + Clone + Send + 'static>(
        &self,
        send: &[T],
        send_counts: &[usize],
        recv_counts: &[usize],
        recv: &mut [T],
    ) {
        let mut exchange =
            self.start_exchange(send.into_blocks(send_counts), recv_counts.to_vec().into());
        exchange.wait(self);
        flatten_into(&exchange.take_recv(), recv);
    }
}

#[cfg(test)]
mod tests {
    use super::CollError;
    use crate::{run, run_with_faults, FaultPlan};
    use std::time::Duration;

    #[test]
    fn ialltoall_permutes_blocks() {
        let p = 4;
        run(p, move |comm| {
            let me = comm.rank();
            // Block for dest d = [me*10 + d].
            let send: Vec<i64> = (0..p).map(|d| (me * 10 + d) as i64).collect();
            let recv = vec![0i64; p];
            let req = comm.ialltoall(&send, 1, recv);
            let out = req.wait(&comm);
            // Block from src s must be s*10 + me.
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i64);
            }
        });
    }

    #[test]
    fn blocking_alltoall_matches_nonblocking() {
        let p = 3;
        run(p, move |comm| {
            let me = comm.rank();
            let send: Vec<u32> = (0..2 * p).map(|i| (me * 100 + i) as u32).collect();
            let mut recv = vec![0u32; 2 * p];
            comm.alltoall(&send, 2, &mut recv);
            for s in 0..p {
                assert_eq!(recv[2 * s], (s * 100 + 2 * me) as u32);
                assert_eq!(recv[2 * s + 1], (s * 100 + 2 * me + 1) as u32);
            }
        });
    }

    #[test]
    fn alltoallv_with_uneven_counts() {
        let p = 3;
        run(p, move |comm| {
            let me = comm.rank();
            // Rank i sends (d+1) elements to rank d, all valued i.
            let send_counts: Vec<usize> = (0..p).map(|d| d + 1).collect();
            let recv_counts = vec![me + 1; p];
            let send: Vec<u8> = vec![me as u8; send_counts.iter().sum()];
            let mut recv = vec![0u8; recv_counts.iter().sum()];
            comm.alltoallv(&send, &send_counts, &recv_counts, &mut recv);
            for s in 0..p {
                for j in 0..me + 1 {
                    assert_eq!(recv[s * (me + 1) + j], s as u8);
                }
            }
        });
    }

    #[test]
    fn test_polling_completes_the_collective() {
        run(2, |comm| {
            let send = vec![comm.rank() as i32; 2];
            let recv = vec![0i32; 2];
            let mut req = comm.ialltoall(&send, 1, recv);
            let mut polls = 0u64;
            let done = loop {
                polls += 1;
                if req.test(&comm) {
                    break req.take_recv();
                }
                std::thread::yield_now();
            };
            assert!(req_polls_ok(polls));
            assert_eq!(done[1 - comm.rank()], (1 - comm.rank()) as i32);
            assert_eq!(done[comm.rank()], comm.rank() as i32);
        });

        fn req_polls_ok(polls: u64) -> bool {
            polls >= 1
        }
    }

    #[test]
    fn later_rounds_wait_for_local_progression() {
        // With p = 4, round r's send is posted only after rounds < r have
        // completed locally, so a rank that never polls withholds its later-
        // round sends and stalls its partners — the manual-progression
        // behaviour the paper's F* parameters manage. Rank 0 delays its
        // polling; everyone still completes once it does poll.
        let p = 4;
        run(p, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            if me == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                // Peers cannot all be done: they need our round-2+ sends,
                // which only our own progression posts. (Round 1's send was
                // posted at ialltoall time.)
            }
            let out = loop {
                if req.test(&comm) {
                    break req.take_recv();
                }
                std::thread::yield_now();
            };
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i32);
            }
        });
    }

    #[test]
    fn multiple_outstanding_alltoalls_do_not_mix() {
        // The windowed pipeline posts W alltoalls concurrently; their round
        // tags must keep them apart even when tested out of order.
        let p = 3;
        run(p, move |comm| {
            let me = comm.rank();
            let a: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let b: Vec<i32> = (0..p).map(|d| (me * 10 + d + 100) as i32).collect();
            let ra = comm.ialltoall(&a, 1, vec![0i32; p]);
            let rb = comm.ialltoall(&b, 1, vec![0i32; p]);
            // Complete the *second* first.
            let out_b = rb.wait(&comm);
            let out_a = ra.wait(&comm);
            for s in 0..p {
                assert_eq!(out_a[s], (s * 10 + me) as i32);
                assert_eq!(out_b[s], (s * 10 + me + 100) as i32);
            }
        });
    }

    #[test]
    fn round_progress_is_monotone_and_completes() {
        // rounds_done never decreases across test transitions and reaches
        // rounds_total exactly when the request reports completion.
        let p = 4;
        run(p, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            assert_eq!(req.rounds_total(), p);
            let mut last = req.rounds_done();
            loop {
                let done = req.test(&comm);
                let now = req.rounds_done();
                assert!(now >= last, "rounds went backwards: {last} -> {now}");
                last = now;
                assert_eq!(done, now == req.rounds_total());
                assert_eq!(done, req.is_complete());
                if done {
                    break;
                }
                std::thread::yield_now();
            }
        });
    }

    #[test]
    fn single_rank_alltoall_is_a_copy() {
        run(1, |comm| {
            let send = vec![42u64, 7];
            let out = comm.ialltoall(&send, 2, vec![0u64; 2]).wait(&comm);
            assert_eq!(out, vec![42, 7]);
        });
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn mismatched_counts_panic() {
        run(2, |comm| {
            // Rank 0 claims it will send 2 to each; rank 1 expects 3 from each.
            if comm.rank() == 0 {
                let send = vec![0u8; 4];
                let _ = comm
                    .ialltoallv(&send, &[2, 2], &[2, 2], vec![0u8; 4])
                    .wait(&comm);
            } else {
                let send = vec![0u8; 6];
                let _ = comm
                    .ialltoallv(&send, &[3, 3], &[3, 3], vec![0u8; 6])
                    .wait(&comm);
            }
        });
    }

    #[test]
    fn transient_drops_retransmit_to_completion() {
        // A lossy but healing network: every collective still delivers the
        // exact permuted blocks, via seeded drops and bounded retransmit.
        let p = 4;
        let plan = FaultPlan::seeded(11).with_drops(0.4, 8);
        run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let send: Vec<i64> = (0..p).map(|d| (me * 10 + d) as i64).collect();
            let out = comm.ialltoall(&send, 1, vec![0i64; p]).wait(&comm);
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i64);
            }
        });
    }

    #[test]
    fn exhausted_fatal_budget_surfaces_dropped() {
        // Near-certain drops with a tiny budget and fail_after_budget: the
        // typed error must name a Dropped round, and it must be sticky.
        let p = 2;
        let plan = FaultPlan::seeded(3).with_fatal_drops(0.999, 1);
        let results = run_with_faults(p, plan, move |comm| {
            let send = vec![comm.rank() as i32; p];
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            // wait_timeout bounds the run even if one direction's seeded
            // draws were to deliver: that rank would then stall (its peer's
            // send was dropped) rather than hang.
            let err = req
                .wait_timeout(&comm, Duration::from_secs(2))
                .expect_err("drops at p≈1 cannot complete");
            // Sticky: the same error re-reports.
            assert_eq!(req.try_test(&comm), Err(err));
            req.cancel(&comm);
            err
        });
        assert!(
            results
                .iter()
                .all(|e| matches!(e, CollError::Dropped { .. })),
            "{results:?}"
        );
    }

    #[test]
    fn transient_corruption_retransmits_to_completion() {
        // A link that flips bits: every corrupt frame is caught at the
        // delivery-point checksum and retried from the intact staged copy,
        // so the collective still delivers the exact permuted blocks.
        let p = 4;
        let plan = FaultPlan::seeded(13).with_payload_corruption(0.4, 8);
        run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let send: Vec<i64> = (0..p).map(|d| (me * 10 + d) as i64).collect();
            let out = comm.ialltoall(&send, 1, vec![0i64; p]).wait(&comm);
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i64);
            }
        });
    }

    #[test]
    fn corruption_and_drops_heal_independently() {
        // Both fault families active at once: their budgets are separate
        // counters, so a run with healing drops *and* healing corruption
        // still completes exactly.
        let p = 3;
        let plan = FaultPlan::seeded(7)
            .with_drops(0.3, 8)
            .with_payload_corruption(0.3, 8);
        run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let send: Vec<u32> = (0..p).map(|d| (me * 10 + d) as u32).collect();
            let out = comm.ialltoall(&send, 1, vec![0u32; p]).wait(&comm);
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as u32);
            }
        });
    }

    #[test]
    fn exhausted_corrupt_budget_surfaces_corrupt_not_garbage() {
        // Near-certain corruption with a tiny budget: the typed Corrupt
        // error must surface (sticky), naming the sender's world rank — and
        // no rank may ever observe a wrong value in its receive buffer.
        let p = 2;
        let plan = FaultPlan::seeded(3).with_payload_corruption(0.999, 1);
        let results = run_with_faults(p, plan, move |comm| {
            let send = vec![comm.rank() as i32; p];
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            let err = req
                .wait_timeout(&comm, Duration::from_secs(2))
                .expect_err("corruption at p≈1 cannot complete");
            assert_eq!(req.try_test(&comm), Err(err), "error must be sticky");
            req.cancel(&comm);
            err
        });
        for (rank, e) in results.iter().enumerate() {
            match e {
                CollError::Corrupt { src, .. } => {
                    // The sender detects its own frame being mangled, so it
                    // names itself; a stalled peer would name the sender too.
                    assert!(*src < p, "rank {rank}: bogus src {src}");
                }
                CollError::Stalled { .. } => {
                    // The peer whose incoming block was poisoned times out
                    // waiting — also a detection, never a delivery.
                }
                other => panic!("rank {rank}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn blackholed_peer_trips_the_watchdog() {
        // All of rank 1's non-self sends vanish while it believes they were
        // delivered. Under manual progression the stall cascades around the
        // ring — a rank stuck waiting on rank 1 withholds its own
        // later-round sends, starving even rank 1 itself — so every rank's
        // wait_timeout must surface Stalled within the watchdog period
        // instead of hanging. The watchdog names the *immediate* missing
        // peer, which for most ranks is an intermediate victim rather than
        // the blackholed origin.
        let p = 4;
        let plan = FaultPlan::none().with_blackhole(1, 0);
        let results = run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            let out = req.wait_timeout(&comm, Duration::from_millis(150));
            req.cancel(&comm);
            out
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(
                matches!(r, Err(CollError::Stalled { .. })),
                "rank {rank}: {r:?}"
            );
        }
    }

    #[test]
    fn wait_timeout_succeeds_on_a_healthy_network() {
        let p = 3;
        run(p, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me + d) as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            req.wait_timeout(&comm, Duration::from_secs(5))
                .expect("healthy network must complete");
            let out = req.take_recv();
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s + me) as i32);
            }
        });
    }

    #[test]
    fn cancel_reclaims_staged_rounds() {
        // Regression: dropping an incomplete collective used to leak its
        // already-posted round sends in peers' mailboxes forever. After a
        // collective cancel, every mailbox must be empty again.
        let p = 4;
        run(p, move |comm| {
            let send: Vec<u64> = (0..p).map(|d| d as u64).collect();
            // Post, progress a little, then abandon without completing.
            let mut req = comm.ialltoall(&send, 1, vec![0u64; p]);
            let _ = req.test(&comm);
            // Every send of this collective happens inside the post or the
            // test above, so after the barrier no new pushes occur and a
            // single purge per rank reclaims everything.
            comm.barrier();
            req.cancel(&comm);
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
    fn dead_member_surfaces_rank_failed_naming_the_rank() {
        // Rank 2 "dies" (marks itself failed and returns without
        // participating). Every survivor's wait must surface RankFailed
        // naming world rank 2 — never Stalled, never a hang.
        let p = 4;
        let results = run(p, move |comm| {
            if comm.rank() == 2 {
                comm.world.mark_failed(2);
                return None;
            }
            let send: Vec<i32> = (0..p).map(|d| d as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            let err = req
                .wait_timeout(&comm, Duration::from_secs(5))
                .expect_err("a dead member cannot complete an alltoall");
            // Sticky on re-poll, and cancel still reclaims staged rounds.
            assert_eq!(req.try_test(&comm), Err(err));
            req.cancel(&comm);
            Some(err)
        });
        for (rank, r) in results.iter().enumerate() {
            if rank == 2 {
                assert!(r.is_none());
            } else {
                assert_eq!(
                    *r,
                    Some(CollError::RankFailed(2)),
                    "rank {rank}: wrong failure report"
                );
            }
        }
    }

    #[test]
    fn revoked_comm_poisons_in_flight_collectives() {
        let p = 3;
        let results = run(p, move |comm| {
            let send: Vec<i32> = (0..p).map(|d| d as i32).collect();
            let mut req = comm.ialltoall(&send, 1, vec![0i32; p]);
            if comm.rank() == 0 {
                comm.revoke();
            } else {
                // Hold polling until the poison is visible so the test is
                // deterministic (a fast schedule could otherwise complete
                // the exchange before the revoke lands).
                while !comm.is_revoked() {
                    std::thread::yield_now();
                }
            }
            // Every rank (including the revoker) sees the poison instead of
            // progressing; revoke wakes parked receivers, so this is bounded.
            let err = req
                .wait_timeout(&comm, Duration::from_secs(5))
                .expect_err("revoked comm must not complete");
            req.cancel(&comm);
            err
        });
        for (rank, e) in results.iter().enumerate() {
            assert_eq!(*e, CollError::Revoked, "rank {rank}");
        }
    }

    #[test]
    fn cancel_after_world_abort_is_safe_and_skips_the_purge() {
        // Regression (teardown race): cancelling an in-flight collective
        // after the world aborted used to purge mailboxes that peers might
        // be tearing down. Cancel must now be a no-op purge that still
        // disarms the leak lint, on every rank, without panicking.
        let p = 2;
        let results = run(p, move |comm| {
            let send: Vec<i32> = (0..p).map(|d| d as i32).collect();
            let req = comm.ialltoall(&send, 1, vec![0i32; p]);
            if comm.rank() == 0 {
                comm.world.abort();
            }
            while !comm.world.is_aborted() {
                std::thread::yield_now();
            }
            req.cancel(&comm)
        });
        assert_eq!(results, vec![0, 0], "post-abort cancel must not purge");
    }

    #[test]
    fn wait_backoff_resets_on_round_advance() {
        // Regression: `wait` used to let its park slice keep growing across
        // round boundaries, so a steadily-progressing exchange parked at the
        // backoff cap between rounds. Drops that heal after two retransmits
        // force (nearly) two full send-retry parks per round (no arrival can
        // wake a sender whose own retry is the blocker); with the per-round
        // reset those parks stay at the bottom of the ramp (~11 ms/round),
        // while the old behaviour pinned every round ≥ 2 at two cap-length
        // parks (≥ 200 ms each here).
        let p = 3;
        let cfg = crate::RunConfig {
            faults: FaultPlan::seeded(1).with_drops(0.99, 2),
            backoff: crate::Backoff {
                initial: Duration::from_millis(1),
                max: Duration::from_millis(100),
                multiplier: 10,
                jitter_seed: 1,
            },
            check: None,
        };
        let outcome = crate::run_with_config(p, cfg, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let req = comm.ialltoall(&send, 1, vec![0i32; p]);
            let t0 = std::time::Instant::now();
            let out = req.wait(&comm);
            let waited = t0.elapsed();
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i32);
            }
            waited
        });
        let waits = outcome.results.expect("healing drops always complete");
        for (rank, waited) in waits.iter().enumerate() {
            assert!(
                *waited < Duration::from_millis(160),
                "rank {rank}: wait parked for {waited:?} under steady progress — \
                 backoff slice not reset on round advance"
            );
        }
    }

    #[test]
    fn stalled_peer_is_a_world_rank_on_split_comms() {
        // World ranks 2 and 3 form a sub-communicator; world rank 2's sends
        // are blackholed. World rank 3 is comm rank 1 in the sub-comm and
        // waits on comm rank 0 — the watchdog must name *world* rank 2, the
        // same numbering RankFailed uses, so stall reports stay unambiguous
        // after a shrink() renumbers survivors.
        let p = 4;
        let plan = FaultPlan::none().with_blackhole(2, 0);
        let results = run_with_faults(p, plan, move |comm| {
            let color = if comm.rank() >= 2 { 0 } else { -1 };
            let Some(sub) = comm.split(color, comm.rank() as i64) else {
                return None; // world ranks 0 and 1 sit this exchange out
            };
            let send: Vec<i32> = (0..2).map(|d| (comm.rank() * 10 + d) as i32).collect();
            let mut req = sub.ialltoall(&send, 1, vec![0i32; 2]);
            let out = req.wait_timeout(&sub, Duration::from_millis(150));
            req.cancel(&sub);
            Some(out)
        });
        // World rank 2's own receive leg is healthy (rank 3's sends are not
        // blackholed), so only rank 3 observes the stall.
        assert_eq!(
            results[3],
            Some(Err(CollError::Stalled { round: 1, peer: 2 })),
            "stall must name world rank 2, not comm rank 0"
        );
        assert_eq!(
            results[2],
            Some(Ok(())),
            "the blackholed rank still receives"
        );
    }

    #[test]
    fn straggler_send_delay_slows_but_completes() {
        let p = 3;
        let plan = FaultPlan::none().with_straggler_spec(faultplan::Straggler {
            rank: 0,
            compute_factor: 1.0,
            send_delay: Duration::from_millis(5),
        });
        run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            let send: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let out = comm.ialltoall(&send, 1, vec![0i32; p]).wait(&comm);
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as i32);
            }
        });
    }
}
