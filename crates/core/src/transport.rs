//! The tile-exchange transport under the real stage executor.
//!
//! Algorithm 1 has one way to move a tile: post a non-blocking all-to-all,
//! `MPI_Test` it from inside the compute loops, wait, hand the block to
//! Unpack. This module is that one way, and the only place in `fft3d` that
//! touches [`mpisim`]'s non-blocking and persistent all-to-all types. The
//! executor (`crate::executor`) builds one [`Transport`] per exchange stage
//! — the slab's over the world communicator, the pencil's over the row and
//! then the column subcommunicator — and keeps what is its own: the index
//! kernels, the FFT batches, and the `F*` counts that decide *when* to
//! poll.
//!
//! A tile has one lifecycle: its persistent plan ([`TilePlans`]) is
//! initialised when the tile is first posted, started on every post, and
//! freed when its session drops (or when a fault path cancels it; the next
//! post re-initialises).
//!
//! A tile's data moves as owned per-peer blocks and is copied once, by
//! Pack. [`Transport::staged`] lends Pack the tile's blocks from the
//! session-owned [`Staging`] pool, [`Transport::post`] moves them into the
//! plan — each peer block is its wire payload, the self block goes straight
//! to the receive side — and the blocks that arrive, the peers'
//! allocations, go back to the pool after unpack ([`Transport::recycle`]).
//! An idle plan holds no block, and a steady-state execution creates none.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation, clippy::expect_used))]

use crate::breakdown::StepTimes;
use crate::error::{Error, IntegrityStage};
use crate::trace::{EventKind, Recorder, TraceEvent};
use cfft::Complex64;
use mpisim::{CollError, Comm, PersistentAlltoall};
use std::time::{Duration, Instant};

/// The watchdog period never escalates past this: a dead peer is reported
/// within `max_strikes + 1` capped periods however long the ladder is.
const WATCHDOG_CAP: Duration = Duration::from_secs(5);

/// Pins a backend fault to the tile whose exchange it hit.
fn coll_to_error(tile: usize, e: CollError) -> Error {
    match e {
        CollError::Stalled { round, peer } => Error::Stalled { tile, round, peer },
        CollError::Dropped { round, peer } => Error::Dropped { tile, round, peer },
        CollError::RankFailed(rank) => Error::RankFailed { tile, rank },
        CollError::Revoked => Error::Revoked { tile },
        CollError::Corrupt { .. } => Error::IntegrityFailed {
            tile,
            stage: IntegrityStage::Wire,
        },
    }
}

/// One tile's exchange counts: everything a persistent plan's init needs.
#[derive(Debug)]
pub(crate) struct TileExchange {
    /// Elements this rank sends to each destination rank: the lengths of
    /// the tile's send blocks.
    pub send_counts: Vec<usize>,
    /// Elements this rank receives from each source rank.
    pub recv_counts: Vec<usize>,
    /// Total elements staged on the send side.
    pub total_send: usize,
}

impl TileExchange {
    pub(crate) fn new(send_counts: Vec<usize>, recv_counts: Vec<usize>) -> Self {
        TileExchange {
            total_send: send_counts.iter().sum(),
            send_counts,
            recv_counts,
        }
    }

    /// Elements of the tile's largest block, sent or received.
    pub(crate) fn largest_block(&self) -> usize {
        let counts = self.send_counts.iter().chain(&self.recv_counts);
        counts.copied().max().unwrap_or(0)
    }
}

/// Request handle for one tile's all-to-all.
pub(crate) enum Req {
    /// In-flight execution of the persistent plan for this tile of the
    /// stage; the execution lives inside the plan, so the handle is just
    /// the tile number.
    Persistent(usize),
    /// No exchange was posted: the executor's integrity check rejected the
    /// staged payload at the named stage. [`Transport::wait`] surfaces the
    /// failure; no peer ever saw (or sequenced) the withheld exchange.
    Withheld(IntegrityStage),
}

/// Persistent exchange plans of one stage, one slot per tile. A session
/// owns the table; each plan is initialised when its tile is first posted,
/// and a tile freed by a cancel re-initialises the same way.
pub(crate) struct TilePlans(Vec<Option<PersistentAlltoall<Complex64>>>);

impl TilePlans {
    /// An empty table for a stage of `tiles` tiles.
    pub(crate) fn new(tiles: usize) -> Self {
        TilePlans((0..tiles).map(|_| None).collect())
    }

    /// Initialised plans.
    pub(crate) fn live(&self) -> usize {
        self.0.iter().flatten().count()
    }

    /// Frees every plan over the communicator that posted them (an
    /// in-flight execution is cancelled with its plan); returns how many.
    pub(crate) fn free_all(&mut self, comm: &Comm) -> usize {
        let mut freed = 0;
        for plan in self.0.iter_mut().filter_map(Option::take) {
            plan.free(comm);
            freed += 1;
        }
        freed
    }
}

/// Distributes polls evenly across a loop of `total_units` work units.
pub(crate) struct PollSchedule {
    total_units: u64,
    polls: u64,
    done: u64,
    issued: u64,
}

impl PollSchedule {
    pub(crate) fn new(total_units: usize, polls: u32) -> Self {
        PollSchedule {
            total_units: total_units.max(1) as u64,
            polls: polls as u64,
            done: 0,
            issued: 0,
        }
    }

    /// Marks one unit done; returns how many polls are now due.
    pub(crate) fn after_unit(&mut self) -> u64 {
        self.done += 1;
        let target = self.polls * self.done / self.total_units;
        let due = target - self.issued;
        self.issued = target;
        due
    }
}

/// Network staging of one rank: one bounded pool of exchange blocks. A
/// session owns one for its lifetime, shared by its stages. Pack fills the
/// blocks the pool lends for the current tile, the post moves them to the
/// peers, and the blocks that arrive come back after unpack, so a
/// steady-state execution creates no block. A lent block is resized to its
/// count but not cleared: Pack rewrites every element of it before anything
/// reads it (DESIGN.md §15).
pub(crate) struct Staging {
    /// The current tile's per-destination blocks, lent from the pool by the
    /// first Pack of the tile and moved out by its post.
    send: Vec<Vec<Complex64>>,
    pool: Vec<Vec<Complex64>>,
    /// Blocks the pool retains: what the windowed pipeline has packed and
    /// not yet unpacked at most, in the stage with the most.
    max_blocks: usize,
    /// Capacity a retained block keeps: the largest block of any tile, so a
    /// block that served a larger earlier tile cannot pin its memory.
    block_cap: usize,
    /// Blocks created because the pool was empty.
    created: u64,
}

impl Staging {
    /// Staging for a session that never has more than `max_blocks` blocks
    /// packed and not yet unpacked, none longer than `block_cap`.
    pub(crate) fn new(max_blocks: usize, block_cap: usize) -> Self {
        Staging {
            send: Vec::new(),
            pool: Vec::new(),
            max_blocks,
            block_cap,
            created: 0,
        }
    }

    /// The current tile's blocks, block `q` resized to `counts[q]`
    /// elements: the ones already lent if the tile has them, otherwise
    /// pooled (or new) blocks.
    fn lend(&mut self, counts: &[usize]) -> &mut [Vec<Complex64>] {
        while self.send.len() > counts.len() {
            let spare = self.send.pop().unwrap_or_default();
            self.put(spare);
        }
        while let Some(&count) = counts.get(self.send.len()) {
            let block = self.take(count);
            self.send.push(block);
        }
        for (block, &count) in self.send.iter_mut().zip(counts) {
            // Grown to exactly the count, so a pooled block reaches the
            // largest size once and is never reallocated again.
            block.reserve_exact(count.saturating_sub(block.len()));
            block.resize(count, Complex64::ZERO);
        }
        &mut self.send
    }

    /// The pooled block that fits `count` most tightly — the smallest that
    /// holds it, else the largest — so the stages' different block sizes
    /// keep their own allocations; a new block if the pool is empty.
    fn take(&mut self, count: usize) -> Vec<Complex64> {
        let fit = |(_, block): &(usize, &Vec<Complex64>)| match block.capacity() {
            cap if cap >= count => (false, cap),
            cap => (true, usize::MAX - cap),
        };
        match self.pool.iter().enumerate().min_by_key(fit) {
            Some((at, _)) => self.pool.swap_remove(at),
            None => {
                self.created += 1;
                Vec::new()
            }
        }
    }

    /// Returns a block to the pool: dropped if the pool is full, shrunk
    /// first if its capacity exceeds the per-block cap.
    fn put(&mut self, mut block: Vec<Complex64>) {
        if self.pool.len() >= self.max_blocks {
            return;
        }
        if block.capacity() > self.block_cap {
            block.truncate(self.block_cap);
            block.shrink_to(self.block_cap);
        }
        self.pool.push(block);
    }
}

/// One exchange stage's view of the network: the communicator, the
/// session's plans for the stage, the staging, the watchdog, and the trace
/// sink. The driver never holds more than one packed-unposted and one
/// waited-unpacked tile, so one set of lent blocks and one arrived slot
/// carry every tile.
pub(crate) struct Transport<'a> {
    comm: &'a Comm,
    plans: &'a mut TilePlans,
    staging: &'a mut Staging,
    /// Watchdog timeout for waits; `None` blocks forever.
    stall_timeout: Option<Duration>,
    /// Added to the stage's tile numbers in errors and trace events (the
    /// pencil's second stage numbers its tiles after the first's).
    tile_base: usize,
    epoch: Instant,
    recorder: &'a mut dyn Recorder,
    /// Per-source blocks of the most recently waited tile, awaiting unpack.
    arrived: Option<Vec<Vec<Complex64>>>,
    /// Exchange schedule setups: one per plan init.
    pub(crate) setups: u64,
    /// `MPI_Test` calls issued.
    pub(crate) tests: u64,
    /// The `ialltoall`, `wait` and `test` shares of the run.
    pub(crate) steps: StepTimes,
}

impl<'a> Transport<'a> {
    pub(crate) fn new(
        comm: &'a Comm,
        plans: &'a mut TilePlans,
        staging: &'a mut Staging,
        stall_timeout: Option<Duration>,
        tile_base: usize,
        epoch: Instant,
        recorder: &'a mut dyn Recorder,
    ) -> Self {
        Transport {
            comm,
            plans,
            staging,
            stall_timeout,
            tile_base,
            epoch,
            recorder,
            arrived: None,
            setups: 0,
            tests: 0,
            steps: StepTimes::default(),
        }
    }

    /// The number `tile` goes by in errors and trace events.
    pub(crate) fn tile_id(&self, tile: usize) -> usize {
        self.tile_base + tile
    }

    /// Records one traced span; no-op (and no timestamp math) when tracing
    /// is disabled.
    pub(crate) fn span(&mut self, t0: Instant, t1: Instant, kind: EventKind) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent {
                start: t0.duration_since(self.epoch).as_secs_f64(),
                end: t1.duration_since(self.epoch).as_secs_f64(),
                kind,
            });
        }
    }

    /// Records an instantaneous event (a detection, a ladder step).
    pub(crate) fn mark(&mut self, kind: EventKind) {
        let now = Instant::now();
        self.span(now, now, kind);
    }

    /// The current tile's per-destination blocks for Pack to fill, block
    /// `q` of `counts[q]` elements: lent from the pool by the tile's first
    /// call, the same blocks on every later one until the post moves them.
    pub(crate) fn staged(&mut self, counts: &[usize]) -> &mut [Vec<Complex64>] {
        self.staging.lend(counts)
    }

    fn plan_mut(&mut self, tile: usize) -> Result<&mut PersistentAlltoall<Complex64>, Error> {
        self.plans.0[tile].as_mut().ok_or(Error::Internal(
            "in-flight persistent execution without its plan",
        ))
    }

    /// Posts `tile`'s exchange: moves the staged blocks into the tile's
    /// persistent plan — its first post inits the plan, every later one
    /// just starts it, zero per-execution negotiation.
    #[expect(clippy::disallowed_methods, reason = "every tile is posted here")]
    pub(crate) fn post(&mut self, tile: usize, xg: &TileExchange) -> Req {
        let comm = self.comm;
        let t0 = Instant::now();
        self.staging.lend(&xg.send_counts);
        let blocks = std::mem::take(&mut self.staging.send);
        let plan = match &mut self.plans.0[tile] {
            Some(plan) => plan,
            slot => {
                self.setups += 1;
                let plan = comm.alltoallv_init(&xg.send_counts, &xg.recv_counts, Vec::new());
                slot.insert(plan)
            }
        };
        plan.start(comm, blocks);
        let req = Req::Persistent(tile);
        let t1 = Instant::now();
        self.steps.ialltoall += (t1 - t0).as_secs_f64();
        let tile = self.tile_id(tile);
        let bytes = (xg.total_send * std::mem::size_of::<Complex64>()) as u64;
        self.span(t0, t1, EventKind::PostA2a { tile, bytes });
        req
    }

    /// One `MPI_Test` on `req`, a fault named after its tile.
    fn try_test(&mut self, req: &mut Req) -> Result<bool, Error> {
        let comm = self.comm;
        match req {
            Req::Persistent(tile) => {
                let id = self.tile_id(*tile);
                let plan = self.plan_mut(*tile)?;
                plan.try_test(comm).map_err(|e| coll_to_error(id, e))
            }
            // A withheld exchange never completes; the failure surfaces at
            // wait time, where the driver can heal it.
            Req::Withheld(_) => Ok(false),
        }
    }

    /// Polls every in-flight exchange `times` times, surfacing the first
    /// fault a poll observes (named after the tile it hit).
    pub(crate) fn poll(&mut self, inflight: &mut [(usize, Req)], times: u64) -> Result<(), Error> {
        if times == 0 || inflight.is_empty() {
            return Ok(());
        }
        if self.recorder.enabled() {
            // Traced path: time and record each poll individually so the
            // event stream shows which tile each `MPI_Test` touched and
            // whether it observed completion.
            for _ in 0..times {
                for (tile, req) in inflight.iter_mut() {
                    let t0 = Instant::now();
                    let result = self.try_test(req);
                    let t1 = Instant::now();
                    self.tests += 1;
                    self.steps.test += (t1 - t0).as_secs_f64();
                    let completed = result?;
                    let tile = self.tile_id(*tile);
                    self.span(t0, t1, EventKind::Test { tile, completed });
                }
            }
            return Ok(());
        }
        // Untraced path: one clock read pair for the whole batch.
        let t0 = Instant::now();
        let mut outcome = Ok(());
        'polls: for _ in 0..times {
            for (_, req) in inflight.iter_mut() {
                self.tests += 1;
                if let Err(e) = self.try_test(req) {
                    outcome = Err(e);
                    break 'polls;
                }
            }
        }
        self.steps.test += t0.elapsed().as_secs_f64();
        outcome
    }

    /// `MPI_Wait` on `tile`'s exchange: blocking without a watchdog,
    /// bounded by it otherwise. On success the received blocks are ready for
    /// [`Self::take_recv`]; on a fault the live request is handed back with
    /// the error, for a retry after a degradation step or for
    /// [`Self::cancel`].
    pub(crate) fn wait(&mut self, tile: usize, req: Req) -> Result<(), (Req, Error)> {
        let (comm, timeout) = (self.comm, self.stall_timeout);
        let id = self.tile_id(tile);
        let t0 = Instant::now();
        let outcome = match req {
            Req::Withheld(stage) => {
                // Nothing was posted: surface the integrity failure so the
                // driver can heal (Pack stage retransmits) or abort.
                return Err((
                    Req::Withheld(stage),
                    Error::IntegrityFailed { tile: id, stage },
                ));
            }
            Req::Persistent(pt) => {
                let plan = match self.plan_mut(pt) {
                    Ok(plan) => plan,
                    Err(e) => return Err((Req::Persistent(pt), e)),
                };
                let waited = match timeout {
                    // Spins (with parking) until complete, panics on an
                    // unrecoverable collective fault.
                    None => Ok(plan.wait(comm)),
                    Some(timeout) => plan.wait_timeout(comm, timeout).map(|()| plan.take_recv()),
                };
                // On a fault the execution stays alive inside the plan.
                waited.map_err(|e| (Req::Persistent(pt), coll_to_error(id, e)))
            }
        };
        let t1 = Instant::now();
        self.steps.wait += (t1 - t0).as_secs_f64();
        self.span(t0, t1, EventKind::Wait { tile: id });
        match outcome {
            Ok(blocks) => {
                self.arrived = Some(blocks);
                Ok(())
            }
            Err((req, err)) => {
                if matches!(err, Error::IntegrityFailed { .. }) {
                    // Wire corruption past the link-layer retransmit budget:
                    // mark the detection in the timeline.
                    self.mark(EventKind::Corrupt { tile: id });
                }
                Err((req, err))
            }
        }
    }

    /// The waited tile's per-source blocks, in rank order; give them back
    /// with [`Self::recycle`] once unpacked.
    pub(crate) fn take_recv(&mut self) -> Result<Vec<Vec<Complex64>>, Error> {
        self.arrived
            .take()
            .ok_or(Error::Internal("unpack without a waited tile"))
    }

    /// Returns an unpacked tile's blocks to the pool.
    pub(crate) fn recycle(&mut self, blocks: Vec<Vec<Complex64>>) {
        for block in blocks {
            self.staging.put(block);
        }
    }

    /// Disposes of a request that will never be waited, reclaiming whatever
    /// the abandoned exchange staged in this rank's mailbox.
    pub(crate) fn cancel(&mut self, req: Req) {
        match req {
            Req::Persistent(tile) => {
                // Free the whole plan — its in-flight execution is purged
                // with it; a later execution re-inits the tile lazily.
                if let Some(plan) = self.plans.0[tile].take() {
                    plan.free(self.comm);
                }
            }
            // A withheld request never staged anything.
            Req::Withheld(_) => {}
        }
    }

    /// Grows the watchdog period before the next retry. Doubling per strike
    /// gives a straggler-induced stall enough grace to drain (the strike
    /// budget alone is too tight once the mailbox parks back off from
    /// microseconds); the cap keeps a dead peer's detection time linear in
    /// the strike budget.
    pub(crate) fn escalate(&mut self) {
        if let Some(t) = self.stall_timeout.as_mut() {
            *t = t.saturating_mul(2).min(WATCHDOG_CAP);
        }
    }
}

#[cfg(test)]
impl TilePlans {
    /// Blocks idle plans are holding on to.
    pub(crate) fn idle_blocks(&self) -> usize {
        self.0.iter().flatten().map(|p| p.recv().len()).sum()
    }
}

#[cfg(test)]
impl Staging {
    /// `(blocks, elements of capacity)` the pool retains.
    pub(crate) fn pooled(&self) -> (usize, usize) {
        let capacity = self.pool.iter().map(Vec::capacity).sum();
        (self.pool.len(), capacity)
    }

    /// Blocks created so far, and the pool's bound on its elements.
    pub(crate) fn created_and_bound(&self) -> (u64, usize) {
        (self.created, self.max_blocks * self.block_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoopRecorder;

    #[test]
    fn watchdog_escalation_doubles_saturates_and_stops_at_the_cap() {
        mpisim::run(1, |comm| {
            let secs = Duration::from_secs;
            for (from, expect) in [
                (secs(2), [secs(4), secs(5), secs(5)]),
                (Duration::MAX - secs(1), [secs(5); 3]),
            ] {
                let (mut plans, mut staging) = (TilePlans::new(0), Staging::new(0, 0));
                let mut recorder = NoopRecorder;
                let mut net = Transport::new(
                    &comm,
                    &mut plans,
                    &mut staging,
                    Some(from),
                    0,
                    Instant::now(),
                    &mut recorder,
                );
                for want in expect {
                    net.escalate();
                    assert_eq!(net.stall_timeout, Some(want), "from {from:?}");
                }
            }
        });
    }

    #[test]
    fn block_pool_caps_retained_blocks() {
        // Returns beyond the pipeline's working set are dropped.
        let mut staging = Staging::new(3, 100);
        for _ in 0..8 {
            staging.put(vec![Complex64::ZERO; 10]);
        }
        assert_eq!(staging.pooled(), (3, 30));
    }

    #[test]
    fn block_pool_shrinks_oversized_returns() {
        // A block sized for a peak tile is shrunk to the per-block cap.
        let mut staging = Staging::new(4, 8);
        staging.put(vec![Complex64::ZERO; 64]);
        let (_, capacity) = staging.pooled();
        assert!(capacity <= 8, "{capacity}");
        let lent = staging.lend(&[4]);
        assert_eq!(lent[0].len(), 4);
        assert!(lent[0].capacity() < 64);
    }

    #[test]
    fn block_pool_lends_resized_blocks_without_clearing_them() {
        let mut staging = Staging::new(4, 16);
        let seven = Complex64::new(7.0, 7.0);
        staging.lend(&[0, 4])[1].fill(seven);
        // Every Pack of a tile sees the same blocks.
        assert!(staging.lend(&[0, 4])[1].iter().all(|&c| c == seven));
        for block in std::mem::take(&mut staging.send) {
            staging.put(block);
        }
        assert_eq!(staging.created_and_bound(), (2, 64));
        // A recycled block keeps what it held (Pack rewrites all of it);
        // only the elements it grows by are new.
        let lent = &staging.lend(&[6])[0];
        assert!(lent[..4].iter().all(|&c| c == seven));
        assert!(lent[4..].iter().all(|&c| c == Complex64::ZERO));
        assert_eq!(staging.created_and_bound().0, 2, "no block created");
    }

    #[test]
    fn block_pool_lends_the_tightest_fit() {
        // Two stages' block sizes through one pool: each count gets the
        // smallest block that holds it, else the largest there is.
        let mut staging = Staging::new(8, 64);
        for len in [8, 32, 16] {
            staging.put(Vec::with_capacity(len));
        }
        let capacities = |staging: &mut Staging, counts: &[usize]| -> Vec<usize> {
            let lent = staging.lend(counts).iter().map(Vec::capacity).collect();
            for block in std::mem::take(&mut staging.send) {
                staging.put(block);
            }
            lent
        };
        assert_eq!(capacities(&mut staging, &[10]), [16]);
        assert_eq!(capacities(&mut staging, &[16, 16]), [16, 32]);
        assert_eq!(capacities(&mut staging, &[40]), [40]);
        assert_eq!(staging.created_and_bound().0, 0);
    }

    #[test]
    fn poll_schedule_distributes_evenly() {
        let mut s = PollSchedule::new(4, 8);
        let emitted: Vec<u64> = (0..4).map(|_| s.after_unit()).collect();
        assert_eq!(emitted, vec![2, 2, 2, 2]);
        let mut s = PollSchedule::new(3, 2);
        let emitted: Vec<u64> = (0..3).map(|_| s.after_unit()).collect();
        assert_eq!(emitted.iter().sum::<u64>(), 2);
    }
}
