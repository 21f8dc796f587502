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

#[derive(Debug, Clone, Copy)]
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

/// One recorded `MPI_Test` call, for tracing consumers: the virtual span
/// the poll occupied and the request state it observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollRecord {
    /// The polled operation.
    pub op: OpId,
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
    /// When tracing, every `test()` appends a [`PollRecord`] here.
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
        // mpicheck:allow(SL012): 0.0 is the exact disabled-jitter sentinel
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
    /// `test`/`wait` drive.
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

    /// One `MPI_Test` on `op`: charges `t_test` and progresses the round
    /// pipeline. Returns `true` when the collective has completed.
    pub async fn test(&mut self, op: OpId) -> bool {
        self.test_calls += 1;
        let start = self.clock;
        self.clock += self.t_test;
        let completed = self.progress(op).await;
        if let Some(log) = &mut self.poll_log {
            log.push(PollRecord {
                op,
                start,
                end: self.clock,
                completed,
            });
        }
        completed
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
    pub async fn compute_with_polls(&mut self, secs: f64, polls: u32, ops: &[OpId]) -> SimTime {
        let total = SimTime::from_secs_f64(secs * self.noise_factor() * self.compute_factor());
        if polls == 0 || ops.is_empty() {
            self.clock += total;
            return SimTime::ZERO;
        }
        let start_tests = self.test_calls;
        let slice = total / (polls as u64 + 1);
        for _ in 0..polls {
            self.clock += slice;
            for &op in ops {
                self.test(op).await;
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
    use crate::model::umd_cluster;
    use crate::run_sim;

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
}
