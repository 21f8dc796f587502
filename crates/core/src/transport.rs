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
//! post re-initialises). A plan borrows its receive block from the
//! session-owned [`Staging`] pool at post time and gives it back after
//! unpack, so an idle plan holds no staging.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

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

/// One tile's exchange counts: everything a persistent plan's init needs
/// besides the receive block.
#[derive(Debug)]
pub(crate) struct TileExchange {
    /// Elements this rank sends to each destination rank.
    pub send_counts: Vec<usize>,
    /// Prefix sums of `send_counts`, total included: destination `q`'s block
    /// of the pack buffer is `send_bounds[q]..send_bounds[q + 1]`.
    pub send_bounds: Vec<usize>,
    /// Elements this rank receives from each source rank.
    pub recv_counts: Vec<usize>,
    /// Exclusive prefix sums of `recv_counts`.
    pub recv_displs: Vec<usize>,
    /// Total elements staged on the send side.
    pub total_send: usize,
    /// Total elements arriving on the receive side.
    pub total_recv: usize,
}

impl TileExchange {
    pub(crate) fn new(send_counts: Vec<usize>, recv_counts: Vec<usize>) -> Self {
        let prefix = |counts: &[usize]| {
            let mut sums = vec![0];
            for count in counts {
                sums.push(sums[sums.len() - 1] + count);
            }
            sums
        };
        let send_bounds = prefix(&send_counts);
        let mut recv_displs = prefix(&recv_counts);
        TileExchange {
            total_send: send_bounds[send_counts.len()],
            total_recv: recv_displs.pop().expect("prefix sums start at 0"),
            send_counts,
            send_bounds,
            recv_counts,
            recv_displs,
        }
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

/// Bounded recycle pool for all-to-all receive buffers.
///
/// Retains at most `max_buffers` buffers (the windowed pipeline never has
/// more than `W + 1` tiles between post and unpack), and shrinks a returned
/// buffer whose capacity exceeds `max_len` — e.g. one that served a larger
/// earlier tile — before retaining it, so mixed tile sizes cannot pin
/// peak-tile memory for the rest of the run.
#[derive(Debug)]
struct BufferPool {
    max_buffers: usize,
    max_len: usize,
    bufs: Vec<Vec<Complex64>>,
}

impl BufferPool {
    fn new(max_buffers: usize, max_len: usize) -> Self {
        BufferPool {
            max_buffers,
            max_len,
            bufs: Vec::new(),
        }
    }

    /// Hands out a zero-filled buffer of exactly `len` elements, recycling
    /// a retained one when available.
    fn take(&mut self, len: usize) -> Vec<Complex64> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, Complex64::ZERO);
        buf
    }

    /// Returns a buffer to the pool; dropped if the pool is full, shrunk
    /// first if its capacity exceeds the pool's per-buffer cap.
    fn put(&mut self, mut buf: Vec<Complex64>) {
        if self.bufs.len() >= self.max_buffers {
            return;
        }
        if buf.capacity() > self.max_len {
            buf.truncate(self.max_len);
            buf.shrink_to(self.max_len);
        }
        self.bufs.push(buf);
    }
}

/// Network staging of one rank: the pack buffer the current tile is posted
/// from and the receive pool. A session owns one for its lifetime, so a
/// steady-state execution allocates no staging. Both are fully rewritten
/// before they are read (DESIGN.md §15).
pub(crate) struct Staging {
    send: Vec<Complex64>,
    /// Elements the largest tile's pack can need; `send` never retains more.
    send_cap: usize,
    pool: BufferPool,
}

impl Staging {
    /// Staging for a session none of whose tiles packs more than `send_cap`
    /// elements or receives more than `recv_len`, with at most `buffers`
    /// tiles between post and unpack.
    pub(crate) fn new(send_cap: usize, buffers: usize, recv_len: usize) -> Self {
        Staging {
            send: Vec::new(),
            send_cap,
            pool: BufferPool::new(buffers, recv_len),
        }
    }
}

/// One exchange stage's view of the network: the communicator, the
/// session's plans for the stage, the staging, the watchdog, and the trace
/// sink. The driver never holds more than one
/// packed-unposted and one waited-unpacked tile, so one send buffer and one
/// arrived slot carry every tile.
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
    /// Receive block of the most recently waited tile, awaiting unpack.
    arrived: Option<Vec<Complex64>>,
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

    /// The first `len` elements of the pack buffer, grown on demand and
    /// never retaining more than the largest tile needs.
    pub(crate) fn staged(&mut self, len: usize) -> &mut [Complex64] {
        let s = &mut *self.staging;
        if s.send.len() < len {
            s.send.resize(len, Complex64::ZERO);
        }
        if s.send.capacity() > s.send_cap {
            s.send.truncate(s.send_cap);
            s.send.shrink_to(s.send_cap);
        }
        &mut s.send[..len]
    }

    fn plan_mut(&mut self, tile: usize) -> &mut PersistentAlltoall<Complex64> {
        self.plans.0[tile]
            .as_mut()
            .expect("in-flight persistent execution without its plan")
    }

    /// Posts `tile`'s exchange from the pack buffer into a pooled receive
    /// block: the tile's first post inits its persistent plan, every later
    /// one lends it a pool buffer and starts it — zero per-execution
    /// negotiation.
    #[expect(clippy::disallowed_methods, reason = "every tile is posted here")]
    pub(crate) fn post(&mut self, tile: usize, xg: &TileExchange) -> Req {
        let comm = self.comm;
        let t0 = Instant::now();
        let recv = self.staging.pool.take(xg.total_recv);
        let send = &self.staging.send[..xg.total_send];
        let plan = match &mut self.plans.0[tile] {
            Some(plan) => {
                plan.restore_recv(recv);
                plan
            }
            slot => {
                self.setups += 1;
                slot.insert(comm.alltoallv_init(&xg.send_counts, &xg.recv_counts, recv))
            }
        };
        plan.start(comm, send);
        let req = Req::Persistent(tile);
        let t1 = Instant::now();
        self.steps.ialltoall += (t1 - t0).as_secs_f64();
        let tile = self.tile_id(tile);
        let bytes = (xg.total_send * std::mem::size_of::<Complex64>()) as u64;
        self.span(t0, t1, EventKind::PostA2a { tile, bytes });
        req
    }

    /// One `MPI_Test` on `req`.
    fn try_test(&mut self, req: &mut Req) -> Result<bool, CollError> {
        let comm = self.comm;
        match req {
            Req::Persistent(tile) => self.plan_mut(*tile).try_test(comm),
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
                    let tile = self.tile_id(*tile);
                    let completed = result.map_err(|e| coll_to_error(tile, e))?;
                    self.span(t0, t1, EventKind::Test { tile, completed });
                }
            }
            return Ok(());
        }
        // Untraced path: one clock read pair for the whole batch.
        let t0 = Instant::now();
        let mut outcome = Ok(());
        'polls: for _ in 0..times {
            for (tile, req) in inflight.iter_mut() {
                self.tests += 1;
                if let Err(e) = self.try_test(req) {
                    outcome = Err(coll_to_error(self.tile_id(*tile), e));
                    break 'polls;
                }
            }
        }
        self.steps.test += t0.elapsed().as_secs_f64();
        outcome
    }

    /// `MPI_Wait` on `tile`'s exchange: blocking without a watchdog,
    /// bounded by it otherwise. On success the receive block is ready for
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
                let plan = self.plan_mut(pt);
                let waited = match timeout {
                    // Spins (with parking) until complete, panics on an
                    // unrecoverable collective fault.
                    None => {
                        plan.wait(comm);
                        Ok(())
                    }
                    Some(timeout) => plan.wait_timeout(comm, timeout),
                };
                // On a fault the execution stays alive inside the plan.
                waited
                    .map(|()| plan.take_recv())
                    .map_err(|e| (Req::Persistent(pt), e))
            }
        };
        let t1 = Instant::now();
        self.steps.wait += (t1 - t0).as_secs_f64();
        self.span(t0, t1, EventKind::Wait { tile: id });
        match outcome {
            Ok(recv) => {
                self.arrived = Some(recv);
                Ok(())
            }
            Err((req, e)) => {
                let err = coll_to_error(id, e);
                if matches!(err, Error::IntegrityFailed { .. }) {
                    // Wire corruption past the link-layer retransmit budget:
                    // mark the detection in the timeline.
                    self.mark(EventKind::Corrupt { tile: id });
                }
                Err((req, err))
            }
        }
    }

    /// The waited tile's receive block (per-source blocks in rank order);
    /// give it back with [`Self::recycle`] once unpacked.
    pub(crate) fn take_recv(&mut self) -> Result<Vec<Complex64>, Error> {
        self.arrived
            .take()
            .ok_or(Error::Internal("unpack without a waited tile"))
    }

    /// Returns an unpacked receive block to the pool.
    pub(crate) fn recycle(&mut self, recv: Vec<Complex64>) {
        self.staging.pool.put(recv);
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
    /// Receive elements idle plans are holding on to.
    pub(crate) fn idle_staging(&self) -> usize {
        self.0.iter().flatten().map(|p| p.recv().len()).sum()
    }
}

#[cfg(test)]
impl Staging {
    /// `(buffers, elements of capacity)` the receive pool retains.
    pub(crate) fn pooled(&self) -> (usize, usize) {
        let bufs = &self.pool.bufs;
        (bufs.len(), bufs.iter().map(|b| b.capacity()).sum())
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
                let (mut plans, mut staging) = (TilePlans::new(0), Staging::new(0, 0, 0));
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
    fn buffer_pool_caps_retained_buffers() {
        // Regression: the recv pool used to be an unbounded Vec that only
        // ever grew; returns beyond the pipeline's working set are dropped.
        let mut pool = BufferPool::new(3, 100);
        for _ in 0..8 {
            pool.put(vec![Complex64::ZERO; 10]);
        }
        assert_eq!(pool.bufs.len(), 3);
    }

    #[test]
    fn buffer_pool_shrinks_oversized_returns() {
        // Regression: a buffer sized for a peak tile used to keep its full
        // capacity forever; now it is shrunk to the per-buffer cap.
        let mut pool = BufferPool::new(4, 8);
        pool.put(vec![Complex64::ZERO; 64]);
        assert!(pool.bufs[0].capacity() <= 8, "{}", pool.bufs[0].capacity());
        let b = pool.take(4);
        assert_eq!(b.len(), 4);
        assert!(b.capacity() < 64);
    }

    #[test]
    fn buffer_pool_recycles_and_zeroes() {
        let mut pool = BufferPool::new(2, 16);
        let mut b = pool.take(4);
        b.fill(Complex64::new(7.0, 7.0));
        pool.put(b);
        let b = pool.take(8);
        assert!(b.iter().all(|&c| c == Complex64::ZERO));
        assert!(pool.bufs.is_empty());
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
