//! Per-rank simulation handle: virtual compute, collective posts, polls,
//! and waits.
//!
//! A [`SimRank`] owns everything rank-local: its virtual clock and the
//! progression state machines of its in-flight all-to-alls. Its `async`
//! methods are the ones that consult the engine — a post, a poll, a wait —
//! and so the only places a rank program may be suspended (see
//! [`crate::engine`]); everything else is plain arithmetic on the rank's own
//! state. The manual-progression model lives here:
//!
//! * a collective becomes *ready* when every rank has posted it (the
//!   engine's one piece of shared state);
//! * after readiness, the schedule's rounds execute one at a time, and a
//!   round may **start only at a progression opportunity** — an
//!   `MPI_Test` poll ([`SimRank::compute_with_polls`]) or a blocking
//!   [`SimRank::wait`], which progresses continuously;
//! * each poll costs the platform's `t_test`, so polling too often burns
//!   compute while polling too rarely leaves rounds stalled between polls —
//!   the §3.3 trade-off the `F*` parameters tune.
//!
//! Most polls of a phase observe nothing: the op has completed, its peers
//! cannot have posted yet, or its round is still in flight. Each op has a
//! *horizon*, the earliest clock at which a test of it can change anything,
//! and a run of polls that all test their ops before their horizons is
//! charged in one step of integer arithmetic — the clock, the Test count and
//! the poll log come out exactly as if every poll had been made. Only the
//! polls that can start a round, end one or ask the engine are stepped.

use crate::engine::{Engine, OpSeq, ReadyInfo};
use crate::model::{A2aShape, Platform};
use crate::time::SimTime;
use std::rc::Rc;

/// Handle to an in-flight non-blocking all-to-all: its index among the
/// plan executions this rank has started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(usize);

/// Handle to a persistent all-to-all plan created by
/// [`SimRank::alltoall_init_in_group`]: the setup-once half of MPI's
/// `MPI_Alltoall_init` / `MPI_Start` split. The schedule shape is resolved
/// and the post overhead charged at init; every subsequent
/// [`SimRank::start`] begins an execution with **zero setup cost**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(usize);

#[derive(Debug, Clone, Copy)]
struct A2aPlan {
    shape: A2aShape,
    group: usize,
    executions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ready {
    Unknown,
    /// Cannot be ready before this time (peers' clock lower bound); polls
    /// earlier than it skip the engine round-trip entirely.
    Bound(SimTime),
    Known(SimTime),
}

#[derive(Debug)]
struct LocalOp {
    /// The collective's sequence number on the communicator.
    seq: OpSeq,
    shape: A2aShape,
    /// Participant count the round model uses (≤ `size`; subgroup
    /// collectives of symmetric process grids use their group size).
    group: usize,
    ready: Ready,
    rounds_done: u32,
    inflight_end: Option<SimTime>,
    completed: Option<SimTime>,
}

impl LocalOp {
    /// The earliest clock at which a test of this op can change anything:
    /// `None` once it has completed; `clock` itself while the rendezvous is
    /// unresolved (only the engine can tell); the peers' lower bound; the
    /// ready time until the first round starts, then the end of the round
    /// in flight.
    fn horizon(&self, clock: SimTime) -> Option<SimTime> {
        if self.completed.is_some() {
            return None;
        }
        Some(match self.ready {
            Ready::Unknown => clock,
            Ready::Bound(b) => b,
            Ready::Known(t) => self.inflight_end.unwrap_or(t),
        })
    }
}

/// One recorded `MPI_Test` call, for tracing consumers: the virtual span
/// the poll occupied and the request state it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRecord {
    /// The polled op's index in the `ops` slice the phase's
    /// [`SimRank::compute_with_polls`] was given.
    pub slot: usize,
    /// Virtual time the poll started.
    pub start: SimTime,
    /// Virtual time the poll ended (`start` plus the platform's `t_test`).
    pub end: SimTime,
    /// Whether the poll observed a completed request.
    pub completed: bool,
}

/// A simulated rank: the object the 3-D FFT's simulated backend drives.
pub struct SimRank {
    engine: Rc<Engine>,
    platform: Rc<Platform>,
    rank: usize,
    size: usize,
    clock: SimTime,
    next_seq: OpSeq,
    /// Every non-blocking all-to-all this rank has posted, in post order
    /// (an [`OpId`] is an index here; nothing is ever removed).
    ops: Vec<LocalOp>,
    /// Persistent plans created by [`Self::alltoall_init_in_group`].
    plans: Vec<A2aPlan>,
    /// Times this rank paid the per-collective setup charge
    /// (`post_overhead`). Persistent executions after init never bump it —
    /// the counter is the observable "zero per-execution setup" proof.
    setup_charges: u64,
    /// Posted-but-incomplete all-to-alls: concurrent windows share this
    /// rank's link bandwidth.
    active: u32,
    test_calls: u64,
    /// The platform's `t_test`, in clock units.
    t_test: SimTime,
    /// When tracing, every poll's test appends a [`PollRecord`] here,
    /// made or charged in closed form alike.
    poll_log: Option<Vec<PollRecord>>,
    /// Deterministic per-rank noise state (xorshift64*).
    noise_state: u64,
}

/// Duration of one round of an all-to-all of `shape` among `group` ranks
/// while this rank has `active` windows open, stretched by the fault plan's
/// link degradation.
fn faulted_round_time(platform: &Platform, group: usize, shape: A2aShape, active: u32) -> SimTime {
    let rt = platform.net.round_time(group, shape, active);
    let lf = platform.faults.link_factor();
    if lf > 1.0 {
        SimTime::from_secs_f64(rt.as_secs_f64() * lf)
    } else {
        rt
    }
}

impl SimRank {
    pub(crate) fn new(engine: Rc<Engine>, platform: Rc<Platform>, rank: usize) -> Self {
        SimRank {
            size: engine.size(),
            t_test: SimTime::from_secs_f64(platform.machine.t_test),
            engine,
            platform,
            rank,
            clock: SimTime::ZERO,
            next_seq: 0,
            ops: Vec::new(),
            plans: Vec::new(),
            setup_charges: 0,
            active: 0,
            test_calls: 0,
            poll_log: None,
            noise_state: 0x9e37_79b9_7f4a_7c15 ^ (rank as u64).wrapping_mul(0xda94_2042_e4dd_58b5),
        }
    }

    /// Fault-plan multiplier on this rank's compute phases (1.0 for
    /// non-stragglers).
    #[inline]
    fn compute_factor(&self) -> f64 {
        self.platform.faults.compute_factor(self.rank)
    }

    /// Next noise factor in `[1 − jitter, 1 + jitter]` (1.0 when noise is
    /// disabled). Deterministic per rank and draw index.
    fn noise_factor(&mut self) -> f64 {
        let j = self.platform.jitter;
        if j == 0.0 {
            return 1.0;
        }
        let mut x = self.noise_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.noise_state = x;
        let u = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + j * (2.0 * u - 1.0)
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the simulation.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The platform model this simulation runs on.
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Total `MPI_Test` calls made so far (the paper's Test accounting).
    #[inline]
    pub fn test_calls(&self) -> u64 {
        self.test_calls
    }

    /// Spends `secs` of pure computation (no progression opportunities).
    /// Subject to the platform's execution noise and the fault plan's
    /// straggler factor for this rank.
    pub fn compute(&mut self, secs: f64) {
        let f = self.noise_factor() * self.compute_factor();
        self.clock += SimTime::from_secs_f64(secs * f);
    }

    /// Creates a persistent all-to-all plan among a group of `group` ranks —
    /// the whole world, or e.g. the row/column communicators of a pencil
    /// decomposition (the `MPI_Alltoall_init` half of the
    /// persistent-collective split). The schedule shape is resolved and
    /// `post_overhead` charged **now, once**; every later [`Self::start`]
    /// of this plan posts with zero setup cost. The rendezvous of a
    /// subgroup's executions is still global — valid for the symmetric
    /// schedules this simulator targets, where every subgroup runs the same
    /// program — but the round structure and bandwidth model use the
    /// subgroup size.
    pub fn alltoall_init_in_group(&mut self, group: usize, bytes_per_peer: u64) -> PlanId {
        assert!(
            group >= 1 && group <= self.size,
            "group must be within the world"
        );
        self.clock += self.platform.net.post_overhead(group);
        self.setup_charges += 1;
        let shape = self.platform.net.shape(group, bytes_per_peer);
        self.plans.push(A2aPlan {
            shape,
            group,
            executions: 0,
        });
        PlanId(self.plans.len() - 1)
    }

    /// Starts one execution of a persistent plan (`MPI_Start`): the
    /// rendezvous is posted at the current clock, the execution's round
    /// state machine added, and round 0 gets the free progression attempt
    /// real NBC implementations make at post time — but no `post_overhead`
    /// is charged: setup was paid at init. Returns the [`OpId`] that
    /// [`Self::compute_with_polls`] and [`Self::wait`] drive.
    pub async fn start(&mut self, plan: PlanId) -> OpId {
        let p = self
            .plans
            .get_mut(plan.0)
            .expect("start on unknown persistent plan");
        p.executions += 1;
        let (shape, group) = (p.shape, p.group);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.engine.post(self.rank, self.clock, seq).await;
        let op = OpId(self.ops.len());
        self.ops.push(LocalOp {
            seq,
            shape,
            group,
            ready: Ready::Unknown,
            rounds_done: 0,
            inflight_end: None,
            completed: None,
        });
        self.active += 1;
        self.progress(op).await;
        op
    }

    /// Executions started so far on `plan`.
    pub fn plan_executions(&self, plan: PlanId) -> u64 {
        self.plans[plan.0].executions
    }

    /// Times this rank paid a collective setup charge (`post_overhead`):
    /// once per plan init and once per barrier; [`Self::start`] never does.
    #[inline]
    pub fn setup_charges(&self) -> u64 {
        self.setup_charges
    }

    /// One `MPI_Test` on `op`, the `slot`-th op of its phase: charges
    /// `t_test` and progresses the round pipeline. Returns `true` when the
    /// collective has completed.
    async fn test(&mut self, slot: usize, op: OpId) -> bool {
        self.test_calls += 1;
        let start = self.clock;
        self.clock += self.t_test;
        let completed = self.progress(op).await;
        if let Some(log) = &mut self.poll_log {
            log.push(PollRecord {
                slot,
                start,
                end: self.clock,
                completed,
            });
        }
        completed
    }

    /// How many of the next polls of a phase observe nothing. Poll `k`
    /// (from 0) tests `ops[j]` at `clock + k·per_poll + slice + (j+1)·t_test`,
    /// and a test before the op's [`LocalOp::horizon`] changes nothing.
    /// `u64::MAX` when no poll ever can (every op completed, or a zero-cost
    /// poll below every horizon).
    fn idle_polls(&self, slice: SimTime, per_poll: SimTime, ops: &[OpId]) -> u64 {
        let mut idle = u64::MAX;
        let mut at = self.clock + slice;
        for &op in ops {
            at += self.t_test;
            let Some(horizon) = self.ops[op.0].horizon(self.clock) else {
                continue;
            };
            if horizon <= at {
                return 0;
            }
            if per_poll > SimTime::ZERO {
                idle = idle.min((horizon - at).0.div_ceil(per_poll.0));
            }
        }
        idle
    }

    /// Charges `n` polls that observe nothing, as if each had been made:
    /// the clock, the Test count and, when tracing, one [`PollRecord`] per
    /// test.
    fn charge_idle_polls(&mut self, n: u64, slice: SimTime, per_poll: SimTime, ops: &[OpId]) {
        if let Some(log) = &mut self.poll_log {
            for k in 0..n {
                let mut start = self.clock + per_poll * k + slice;
                for (slot, &op) in ops.iter().enumerate() {
                    let end = start + self.t_test;
                    let completed = self.ops[op.0].completed.is_some();
                    log.push(PollRecord {
                        slot,
                        start,
                        end,
                        completed,
                    });
                    start = end;
                }
            }
        }
        self.clock += per_poll * n;
        self.test_calls += n * ops.len() as u64;
    }

    /// Starts recording every subsequent `MPI_Test` call into the poll log
    /// (drained with [`Self::take_poll_log`]). Off by default: the log
    /// costs one `Vec` push per poll, which tracing consumers opt into.
    pub fn enable_poll_log(&mut self) {
        if self.poll_log.is_none() {
            self.poll_log = Some(Vec::new());
        }
    }

    /// Takes the polls recorded since the last drain. Empty (and free) when
    /// the log was never enabled.
    pub fn take_poll_log(&mut self) -> Vec<PollRecord> {
        match &mut self.poll_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// `true` once `op` has been observed complete (no progression attempt).
    pub fn is_complete(&self, op: OpId) -> bool {
        self.ops[op.0].completed.is_some()
    }

    /// Executes a compute phase of `secs` with `polls` evenly spaced
    /// progression opportunities, each testing every op in `ops` (the
    /// paper's Algorithms 2–3: "call `MPI_Test` on the `W` previous tiles
    /// `F` times in total during this algorithm").
    ///
    /// Returns the `t_test` overhead charged, so callers can account
    /// compute and Test time separately (Figure 8's breakdown).
    ///
    /// Every poll is charged, but only the polls that can change an op's
    /// state are made: a maximal run of polls that each test every op
    /// before its horizon (the earliest clock at which a test of it can
    /// start or end a round, or learn of the rendezvous) is charged in
    /// closed form, `n·(slice + |ops|·t_test)` of clock and `n·|ops|` Test
    /// calls. The clock is integer nanoseconds, so the result is the one
    /// poll-by-poll progression gives, poll log included.
    pub async fn compute_with_polls(&mut self, secs: f64, polls: u32, ops: &[OpId]) -> SimTime {
        let total = SimTime::from_secs_f64(secs * self.noise_factor() * self.compute_factor());
        if polls == 0 || ops.is_empty() {
            self.clock += total;
            return SimTime::ZERO;
        }
        let start_tests = self.test_calls;
        let slice = total / (polls as u64 + 1);
        let per_poll = slice + self.t_test * ops.len() as u64;
        let mut left = polls as u64;
        while left > 0 {
            let idle = self.idle_polls(slice, per_poll, ops).min(left);
            self.charge_idle_polls(idle, slice, per_poll, ops);
            left -= idle;
            if left > 0 {
                self.clock += slice;
                for (slot, &op) in ops.iter().enumerate() {
                    self.test(slot, op).await;
                }
                left -= 1;
            }
        }
        // Remainder of the compute after the last poll.
        self.clock += total - slice * polls as u64;
        SimTime::from_secs_f64(
            (self.test_calls - start_tests) as f64 * self.platform.machine.t_test,
        )
    }

    /// `MPI_Wait`: progresses continuously until `op` completes; advances
    /// the clock to the completion time and returns it.
    pub async fn wait(&mut self, op: OpId) -> SimTime {
        let o = &mut self.ops[op.0];
        if let Some(t) = o.completed {
            return t;
        }
        let ready = match o.ready {
            Ready::Known(t) => t,
            _ => {
                let engine = &self.engine;
                let t = engine.block_on_ready(self.rank, self.clock, o.seq).await;
                o.ready = Ready::Known(t);
                t
            }
        };
        let mut t = self.clock.max(ready);
        let mut rd = o.rounds_done;
        if let Some(e) = o.inflight_end {
            t = t.max(e);
            rd += 1;
        }
        // The remaining rounds run back to back, all at this moment's
        // bandwidth share.
        if rd < o.shape.rounds {
            let rt = faulted_round_time(&self.platform, o.group, o.shape, self.active);
            t += rt * (o.shape.rounds - rd) as u64;
            rd = o.shape.rounds;
        }
        o.rounds_done = rd;
        o.inflight_end = None;
        o.completed = Some(t);
        self.active -= 1;
        self.clock = self.clock.max(t);
        t
    }

    /// Blocking all-to-all: rendezvous with all ranks, then the full
    /// exchange at blocking-collective efficiency. Returns
    /// `(ready_time, completion_time)`.
    async fn blocking_alltoall(&mut self, bytes_per_peer: u64) -> (SimTime, SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.clock += self.platform.net.post_overhead(self.size);
        self.setup_charges += 1;
        self.engine.post(self.rank, self.clock, seq).await;
        let ready = self.engine.block_on_ready(self.rank, self.clock, seq).await;
        let end = ready
            + self
                .platform
                .net
                .blocking_duration(self.size, bytes_per_peer);
        self.clock = end;
        (ready, end)
    }

    /// Barrier: rendezvous plus a log-round release cost.
    pub async fn barrier(&mut self) {
        let _ = self.blocking_alltoall(0).await;
    }

    /// Advances round state for `op` at the current clock — the heart of the
    /// manual-progression model — and reports whether it has completed.
    async fn progress(&mut self, op: OpId) -> bool {
        let clock = self.clock;
        let o = &mut self.ops[op.0];
        if o.completed.is_some() {
            return true;
        }
        // Resolve readiness, using the cached lower bound to avoid engine
        // round-trips for polls that cannot possibly observe readiness.
        let ready = match o.ready {
            Ready::Known(t) => t,
            Ready::Bound(b) if clock < b => return false,
            _ => match self.engine.query(self.rank, clock, o.seq).await {
                ReadyInfo::Ready(t) => {
                    o.ready = Ready::Known(t);
                    t
                }
                ReadyInfo::NotBefore(b) => {
                    o.ready = Ready::Bound(b);
                    return false;
                }
            },
        };
        if clock < ready {
            return false;
        }
        // Zero-round collectives (p = 1) complete at readiness.
        if o.shape.rounds == 0 {
            o.completed = Some(ready);
            self.active -= 1;
            return true;
        }
        if let Some(end) = o.inflight_end {
            if end > clock {
                return false; // round still in flight; nothing to start
            }
            o.rounds_done += 1;
            o.inflight_end = None;
            if o.rounds_done == o.shape.rounds {
                o.completed = Some(end);
                self.active -= 1;
                return true;
            }
        }
        // Start the next round at this progression opportunity.
        let rt = faulted_round_time(&self.platform, o.group, o.shape, self.active);
        o.inflight_end = Some(clock.max(ready) + rt);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{hopper, umd_cluster};
    use crate::run_sim;
    use proptest::prelude::*;

    /// A world-wide exchange of a plan of its own: init (paying the setup
    /// charge) and start.
    async fn post(sim: &mut SimRank, bytes_per_peer: u64) -> OpId {
        let plan = sim.alltoall_init_in_group(sim.size(), bytes_per_peer);
        sim.start(plan).await
    }

    #[test]
    fn single_rank_alltoall_completes_at_post() {
        let times = run_sim(umd_cluster(), 1, async |sim| {
            let op = post(sim, 1 << 20).await;
            sim.wait(op).await;
            sim.now()
        });
        // p = 1: zero rounds, so only the post overhead elapses.
        assert!(times[0] < SimTime::from_micros(10));
    }

    #[test]
    fn wait_without_polls_pays_nearly_full_serial_time() {
        let p = 4;
        let bytes = 1 << 20;
        let times = run_sim(umd_cluster(), p, async move |sim| {
            let op = post(sim, bytes).await;
            sim.compute(0.01); // compute with zero polls: no progression
            let end = sim.wait(op).await;
            (end, sim.now())
        });
        let plat = umd_cluster();
        let shape = plat.net.shape(p, bytes);
        let rt = plat.net.round_time(p, shape, 1);
        for (end, now) in &times {
            assert_eq!(end, now);
            // At most the round kicked at post time (only the last poster is
            // "ready" then) overlaps the compute; the rest serialize inside
            // wait.
            let lower = SimTime::from_secs_f64(0.01) + rt * (shape.rounds as u64 - 1);
            let upper =
                SimTime::from_secs_f64(0.01) + rt * shape.rounds as u64 + SimTime::from_millis(1);
            assert!(*end >= lower, "end={end} lower={lower}");
            assert!(*end <= upper, "end={end} upper={upper}");
        }
    }

    #[test]
    fn ample_polling_overlaps_communication_with_compute() {
        // With enough evenly spaced polls, rounds pipeline behind compute:
        // the post→wait span is close to max(compute, comm) instead of
        // compute + comm.
        let p = 4;
        let bytes = 1 << 20;
        let plat = umd_cluster();
        let comm = plat.net.blocking_duration(p, bytes).as_secs_f64();
        let compute = comm * 1.5; // compute-heavy: overlap can hide comm fully
        let times = run_sim(umd_cluster(), p, async move |sim| {
            let op = post(sim, bytes).await;
            sim.compute_with_polls(compute, 200, &[op]).await;
            sim.wait(op).await;
            sim.now().as_secs_f64()
        });
        for &t in &times {
            assert!(
                t < compute * 1.15,
                "overlapped time {t:.4} should be close to compute {compute:.4}"
            );
            assert!(t >= compute);
        }
    }

    #[test]
    fn too_few_polls_stall_rounds() {
        let p = 8;
        let bytes = 1 << 20;
        let plat = umd_cluster();
        let comm = plat.net.blocking_duration(p, bytes).as_secs_f64();
        let compute = comm * 1.5;
        let run_with_polls = |polls: u32| {
            run_sim(umd_cluster(), p, async move |sim| {
                let op = post(sim, bytes).await;
                sim.compute_with_polls(compute, polls, &[op]).await;
                sim.wait(op).await;
                sim.now().as_secs_f64()
            })[0]
        };
        let sparse = run_with_polls(2);
        let ample = run_with_polls(64);
        assert!(
            sparse > ample * 1.1,
            "2 polls ({sparse:.4}s) must be slower than 64 polls ({ample:.4}s)"
        );
    }

    #[test]
    fn excessive_polling_costs_test_overhead() {
        let p = 4;
        let bytes = 64 * 1024;
        let times_few = run_sim(umd_cluster(), p, async move |sim| {
            let op = post(sim, bytes).await;
            sim.compute_with_polls(0.005, 32, &[op]).await;
            sim.wait(op).await;
            sim.now().as_secs_f64()
        });
        let times_many = run_sim(umd_cluster(), p, async move |sim| {
            let op = post(sim, bytes).await;
            sim.compute_with_polls(0.005, 50_000, &[op]).await;
            sim.wait(op).await;
            sim.now().as_secs_f64()
        });
        assert!(
            times_many[0] > times_few[0] + 0.02,
            "50k tests at ~0.9µs each must add visible overhead: few={} many={}",
            times_few[0],
            times_many[0]
        );
    }

    #[test]
    fn poll_log_records_every_test_span() {
        let p = 4;
        let bytes = 1 << 18;
        let logs = run_sim(umd_cluster(), p, async move |sim| {
            sim.enable_poll_log();
            let op = post(sim, bytes).await;
            sim.compute_with_polls(0.005, 16, &[op]).await;
            sim.wait(op).await;
            (sim.take_poll_log(), sim.test_calls())
        });
        for (log, calls) in &logs {
            assert_eq!(log.len() as u64, *calls);
            // Virtual timestamps are monotone and each span charges t_test.
            for w in log.windows(2) {
                assert!(w[0].end <= w[1].start);
            }
            for rec in log {
                assert!(rec.end > rec.start);
            }
            // The completion transition is monotone: once observed complete,
            // later polls of the same op stay complete.
            let mut seen_complete = false;
            for rec in log {
                if seen_complete {
                    assert!(rec.completed);
                }
                seen_complete |= rec.completed;
            }
        }
    }

    #[test]
    fn poll_log_is_empty_when_disabled() {
        let logs = run_sim(umd_cluster(), 2, async |sim| {
            let op = post(sim, 1024).await;
            sim.compute_with_polls(0.001, 4, &[op]).await;
            sim.wait(op).await;
            sim.take_poll_log()
        });
        assert!(logs.iter().all(|l| l.is_empty()));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let times = run_sim(umd_cluster(), 4, async |sim| {
            sim.compute(0.001 * (sim.rank() as f64 + 1.0));
            sim.barrier().await;
            sim.now()
        });
        assert!(times.iter().all(|&t| t == times[0]));
        assert!(times[0] >= SimTime::from_secs_f64(0.004));
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            run_sim(umd_cluster(), 6, async |sim| {
                let op = post(sim, 123_456).await;
                sim.compute_with_polls(0.003, 17, &[op]).await;
                sim.wait(op).await;
                let op2 = post(sim, 7_777).await;
                sim.compute_with_polls(0.001, 3, &[op2]).await;
                sim.wait(op2).await;
                sim.now()
            })
        };
        let a = go();
        for _ in 0..5 {
            assert_eq!(go(), a);
        }
    }

    #[test]
    fn straggler_slows_itself_and_starves_its_peers() {
        // Small messages: compute dominates, so the straggler's 4x compute
        // stretch shows through undiluted by round time.
        let p = 4;
        let bytes = 1 << 16;
        let body = async |sim: &mut SimRank| {
            sim.compute(0.01);
            let op = post(sim, bytes).await;
            sim.compute_with_polls(0.005, 50, &[op]).await;
            sim.wait(op).await;
            sim.now()
        };
        let healthy = run_sim(umd_cluster(), p, body);
        let faulted = run_sim(umd_cluster().with_straggler(2, 3.0), p, body);
        // The straggler's own compute stretches 4x (0.015s → 0.06s)...
        assert!(
            faulted[2] > healthy[2] + SimTime::from_secs_f64(0.03),
            "straggler: {} vs healthy {}",
            faulted[2],
            healthy[2]
        );
        // ...and its peers finish later too: the collective cannot become
        // ready before the slowest poster arrives.
        for r in [0, 1, 3] {
            assert!(
                faulted[r] > healthy[r],
                "rank {r}: {} !> {}",
                faulted[r],
                healthy[r]
            );
        }
    }

    #[test]
    fn degraded_links_stretch_the_exchange() {
        let p = 4;
        let bytes = 1 << 20;
        let body = async |sim: &mut SimRank| {
            let op = post(sim, bytes).await;
            sim.wait(op).await
        };
        let healthy = run_sim(umd_cluster(), p, body)[0];
        let degraded = run_sim(umd_cluster().with_degraded_links(2.0), p, body)[0];
        // Round time is α + bytes/bw, all scaled by 2: the wait-dominated
        // exchange takes nearly twice as long.
        let ratio = degraded.as_secs_f64() / healthy.as_secs_f64();
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn faulted_runs_stay_deterministic() {
        let plat = || {
            umd_cluster()
                .with_straggler(1, 2.5)
                .with_degraded_links(1.7)
        };
        let go = || {
            run_sim(plat(), 4, async |sim| {
                let op = post(sim, 200_000).await;
                sim.compute_with_polls(0.004, 13, &[op]).await;
                sim.wait(op).await;
                sim.now()
            })
        };
        let a = go();
        assert_eq!(go(), a);
    }

    #[test]
    fn persistent_start_skips_the_setup_charge() {
        let p = 4;
        let bytes = 1 << 20;
        let reps = 5u64;
        // A fresh plan per exchange pays post_overhead every time; one plan
        // started `reps` times pays it once, at init.
        let fresh = run_sim(umd_cluster(), p, async move |sim| {
            for _ in 0..reps {
                let op = post(sim, bytes).await;
                sim.wait(op).await;
            }
            (sim.now(), sim.setup_charges())
        });
        let persistent = run_sim(umd_cluster(), p, async move |sim| {
            let plan = sim.alltoall_init_in_group(sim.size(), bytes);
            for _ in 0..reps {
                let op = sim.start(plan).await;
                sim.wait(op).await;
            }
            (sim.now(), sim.setup_charges(), sim.plan_executions(plan))
        });
        let overhead = umd_cluster().net.post_overhead(p);
        for r in 0..p {
            let (t_fresh, c_fresh) = fresh[r];
            let (t_pers, c_pers, execs) = persistent[r];
            assert_eq!(c_fresh, reps, "a fresh plan pays setup per exchange");
            assert_eq!(c_pers, 1, "persistent pays setup exactly once");
            assert_eq!(execs, reps);
            // The saved virtual time is exactly the skipped setup charges.
            assert_eq!(t_fresh - t_pers, overhead * (reps - 1));
        }
    }

    #[test]
    fn persistent_plans_stay_deterministic_across_runs() {
        let go = || {
            run_sim(umd_cluster().with_straggler(1, 2.0), 4, async |sim| {
                let plan = sim.alltoall_init_in_group(sim.size(), 123_456);
                for _ in 0..3 {
                    let op = sim.start(plan).await;
                    sim.compute_with_polls(0.002, 9, &[op]).await;
                    sim.wait(op).await;
                }
                sim.now()
            })
        };
        let a = go();
        assert_eq!(go(), a);
    }

    #[test]
    fn concurrent_windows_share_bandwidth() {
        // Two overlapping alltoalls must take longer than one, but less
        // than two run serially (they do overlap).
        let p = 4;
        let bytes = 1 << 20;
        let one = run_sim(umd_cluster(), p, async move |sim| {
            let op = post(sim, bytes).await;
            sim.compute_with_polls(1.0, 5_000, &[op]).await;
            sim.wait(op).await
        })[0];
        let two = run_sim(umd_cluster(), p, async move |sim| {
            let a = post(sim, bytes).await;
            let b = post(sim, bytes).await;
            sim.compute_with_polls(1.0, 5_000, &[a, b]).await;
            let ea = sim.wait(a).await;
            let eb = sim.wait(b).await;
            ea.max(eb)
        })[0];
        assert!(two > one);
        assert!(two < one * 2);
    }

    /// The oracle [`SimRank::compute_with_polls`] must agree with: every
    /// poll of the phase made, one test at a time.
    async fn compute_polling_each(
        sim: &mut SimRank,
        secs: f64,
        polls: u32,
        ops: &[OpId],
    ) -> SimTime {
        let total = SimTime::from_secs_f64(secs * sim.noise_factor() * sim.compute_factor());
        if polls == 0 || ops.is_empty() {
            sim.clock += total;
            return SimTime::ZERO;
        }
        let start_tests = sim.test_calls;
        let slice = total / (polls as u64 + 1);
        for _ in 0..polls {
            sim.clock += slice;
            for (slot, &op) in ops.iter().enumerate() {
                sim.test(slot, op).await;
            }
        }
        sim.clock += total - slice * polls as u64;
        SimTime::from_secs_f64((sim.test_calls - start_tests) as f64 * sim.platform.machine.t_test)
    }

    /// One step of a random rank program. Every rank runs the same steps
    /// (collectives are posted in one order) with its own compute speed.
    #[derive(Debug, Clone)]
    enum Step {
        Post {
            group: usize,
            bytes: u64,
        },
        Compute {
            secs: f64,
        },
        /// `picks` name posted ops modulo their count, repeats allowed. An
        /// `aimed` phase sizes its compute so that its first poll makes its
        /// earliest-due test exactly at that op's horizon.
        Phase {
            secs: f64,
            polls: u32,
            picks: Vec<usize>,
            aimed: bool,
        },
        Wait {
            pick: usize,
        },
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A program of 1…16 steps on `p` ranks that starts with a post. A
    /// tenth of the phases have no compute, so with a zero `t_test` their
    /// polls cost nothing at all.
    fn script(seed: u64, p: usize) -> Vec<Step> {
        let mut rng = seed;
        let mut next = move |n: u64| splitmix(&mut rng) % n;
        let len = 1 + next(16);
        let mut steps = vec![Step::Post {
            group: p,
            bytes: 1 + next(1 << 20),
        }];
        for _ in 0..len {
            steps.push(match next(8) {
                0 | 1 => Step::Post {
                    group: [1, p, 1 + next(p as u64) as usize][next(3) as usize],
                    bytes: 1 + next(1 << 20),
                },
                2 => Step::Compute {
                    secs: next(2_000) as f64 * 1e-6,
                },
                3 => Step::Wait {
                    pick: next(64) as usize,
                },
                _ => Step::Phase {
                    secs: if next(10) == 0 {
                        0.0
                    } else {
                        next(20_000) as f64 * 1e-6
                    },
                    polls: next(301) as u32,
                    picks: (0..1 + next(8)).map(|_| next(64) as usize).collect(),
                    aimed: next(3) == 0,
                },
            });
        }
        steps
    }

    /// Everything a phase leaves behind on a rank: the clock, the Test
    /// count, the returned Test time, every op's progression state and the
    /// polls logged.
    type Snapshot = (
        SimTime,
        u64,
        SimTime,
        Vec<(Ready, u32, Option<SimTime>, Option<SimTime>)>,
        Vec<PollRecord>,
    );

    /// Runs `steps` on every rank, each phase in closed form or, for the
    /// oracle, poll by poll; one snapshot per phase.
    fn replay(platform: Platform, p: usize, steps: &[Step], oracle: bool) -> Vec<Vec<Snapshot>> {
        run_sim(platform, p, async |sim| {
            sim.enable_poll_log();
            // Ranks compute at different speeds, so a phase meets peers that
            // have not posted yet as well as ones long ready.
            let speed = 0.25 + (sim.rank() * 7 % 5) as f64 * 0.5;
            let mut posted = Vec::new();
            let mut snapshots = Vec::new();
            for step in steps {
                match *step {
                    Step::Post { group, bytes } => {
                        let plan = sim.alltoall_init_in_group(group, bytes);
                        posted.push(sim.start(plan).await);
                    }
                    Step::Compute { secs } => sim.compute(secs * speed),
                    Step::Wait { pick } => {
                        sim.wait(posted[pick % posted.len()]).await;
                    }
                    Step::Phase {
                        secs,
                        polls,
                        ref picks,
                        aimed,
                    } => {
                        let ops: Vec<OpId> =
                            picks.iter().map(|&i| posted[i % posted.len()]).collect();
                        let mut secs = secs * speed;
                        // The slice that brings slot j's test onto the next
                        // clock at which it can change the op (a peer's
                        // post, a round's start or end), independently of
                        // `LocalOp::horizon`; exact only without jitter and
                        // stragglers.
                        let now = sim.now();
                        let due = ops.iter().enumerate().filter_map(|(j, op)| {
                            let test = now + sim.t_test * (j as u64 + 1);
                            let o = &sim.ops[op.0];
                            let h = match (o.completed, o.ready) {
                                (Some(_), _) | (None, Ready::Unknown) => None,
                                (None, Ready::Bound(b)) => Some(b),
                                (None, Ready::Known(t)) => Some(o.inflight_end.unwrap_or(t)),
                            };
                            h.filter(|&h| h > test).map(|h| h - test)
                        });
                        if let Some(slice) = due.min().filter(|_| aimed) {
                            secs = (slice * (polls as u64 + 1)).as_secs_f64();
                        }
                        let test = if oracle {
                            compute_polling_each(sim, secs, polls, &ops).await
                        } else {
                            sim.compute_with_polls(secs, polls, &ops).await
                        };
                        let state = sim.ops.iter();
                        let state =
                            state.map(|o| (o.ready, o.rounds_done, o.inflight_end, o.completed));
                        snapshots.push((
                            sim.now(),
                            sim.test_calls(),
                            test,
                            state.collect(),
                            sim.take_poll_log(),
                        ));
                    }
                }
            }
            for op in posted {
                sim.wait(op).await;
            }
            snapshots
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Charging idle polls in closed form is exact: every phase of a
        /// random program leaves each rank in the state poll-by-poll
        /// progression leaves it in, on platforms with jitter, a free
        /// `MPI_Test`, or degraded links and a straggler.
        #[test]
        fn closed_form_polls_match_polling_each(
            seed in any::<u64>(),
            p in 1usize..7,
            platform in 0usize..4,
        ) {
            let platform = match platform {
                0 => umd_cluster(),
                1 => hopper().with_jitter(0.1),
                2 => {
                    let mut free = umd_cluster();
                    free.machine.t_test = 0.0;
                    free
                }
                _ => umd_cluster().with_degraded_links(1.7).with_straggler(0, 2.0),
            };
            let steps = script(seed, p);
            let closed = replay(platform.clone(), p, &steps, false);
            let each = replay(platform, p, &steps, true);
            prop_assert_eq!(closed, each);
        }
    }
}
