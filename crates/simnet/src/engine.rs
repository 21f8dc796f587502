//! Conservative virtual-time engine.
//!
//! A *rank program* is a resumable computation: real control flow (tiles,
//! windows, poll placement) that advances a *virtual* clock and may give up
//! control at exactly two places — [`Engine::turn`], when another rank is now
//! earlier, and [`Engine::block_on_ready`], when the collective it waits on
//! still lacks a post. All programs of a run live on the caller's thread and
//! [`Engine::run`] resumes them one at a time under one invariant: **the
//! program that runs is the runnable rank with the minimum virtual clock**
//! (ties broken by rank id), and only it touches shared state. Under that
//! discipline, any question a rank asks at time `t` ("has everyone posted
//! collective 17 yet?") has a causally complete answer — no other rank can
//! later act at a time `≤ t` — so simulations are bit-reproducible.
//!
//! The only cross-rank coupling the network model needs is per-collective:
//! the *ready time* (the max of all ranks' post times). Everything else —
//! round progression, bandwidth sharing, poll accounting — is rank-local
//! arithmetic, which is what makes the simulator fast enough to sit inside
//! an auto-tuning loop.

use crate::time::SimTime;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Identifies one collective operation: the N-th collective posted on the
/// communicator (all ranks must post collectives in the same order, the
/// usual MPI rule).
pub type OpSeq = u64;

/// Answer to "is collective `seq` ready?" asked at the caller's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyInfo {
    /// All ranks have posted; the collective became ready at this time.
    Ready(SimTime),
    /// Not all ranks have posted; it cannot become ready before this time
    /// (the minimum clock among ranks that have not posted).
    NotBefore(SimTime),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Runnable: eligible for min-clock selection.
    Ready,
    /// Suspended until the given collective becomes ready.
    Blocked(OpSeq),
    /// Rank program returned.
    Done,
}

struct OpShared {
    posted: Vec<bool>,
    nposted: usize,
    post_max: SimTime,
    ready: Option<SimTime>,
}

impl OpShared {
    fn new(p: usize) -> Self {
        OpShared {
            posted: vec![false; p],
            nposted: 0,
            post_max: SimTime::ZERO,
            ready: None,
        }
    }
}

struct RankState {
    /// The clock the rank last published (at its last [`Engine::turn`]).
    clock: SimTime,
    status: Status,
}

struct State {
    ranks: Vec<RankState>,
    /// The program [`Engine::run`] resumes next: the earliest runnable rank,
    /// `None` once no rank is runnable.
    next: Option<usize>,
    ops: Vec<OpShared>,
}

impl State {
    /// The runnable rank with the minimum `(clock, rank)`, if any.
    fn earliest(&self) -> Option<usize> {
        let runnable = self.ranks.iter().enumerate();
        let runnable = runnable.filter(|(_, r)| r.status == Status::Ready);
        runnable.min_by_key(|(_, r)| r.clock).map(|(rank, _)| rank)
    }

    fn op_mut(&mut self, seq: OpSeq) -> &mut OpShared {
        let (idx, p) = (seq as usize, self.ranks.len());
        while self.ops.len() <= idx {
            self.ops.push(OpShared::new(p));
        }
        &mut self.ops[idx]
    }
}

/// Hands control back to [`Engine::run`] once: pending on the first poll,
/// ready when the stepper resumes the program.
struct Suspend(bool);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.0, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// One rank program of a run, as [`Engine::run`] takes them.
pub type Program<'a, R> = Pin<Box<dyn Future<Output = R> + 'a>>;

/// The shared engine. One per simulation run.
pub struct Engine {
    state: RefCell<State>,
}

impl Engine {
    /// Creates an engine for `size` ranks. Rank 0 runs first.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "simulation needs at least one rank");
        let ranks = (0..size).map(|_| RankState {
            clock: SimTime::ZERO,
            status: Status::Ready,
        });
        Engine {
            state: RefCell::new(State {
                ranks: ranks.collect(),
                next: Some(0),
                ops: Vec::new(),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.state.borrow().ranks.len()
    }

    /// The stepper: resumes the earliest runnable program until every one
    /// has returned; results come back in rank order. A rank's panic unwinds
    /// straight through with its own payload.
    ///
    /// # Panics
    /// On deadlock: no rank is runnable while some still wait on a
    /// collective.
    pub fn run<R>(&self, mut programs: Vec<Program<'_, R>>) -> Vec<R> {
        assert_eq!(programs.len(), self.size(), "one program per rank");
        let mut cx = Context::from_waker(Waker::noop());
        let mut results: Vec<Option<R>> = programs.iter().map(|_| None).collect();
        loop {
            let next = self.state.borrow().next;
            let Some(rank) = next else { break };
            if let Poll::Ready(result) = programs[rank].as_mut().poll(&mut cx) {
                results[rank] = Some(result);
                let mut s = self.state.borrow_mut();
                s.ranks[rank].status = Status::Done;
                s.next = s.earliest();
            }
        }
        let blocked = |r: &RankState| matches!(r.status, Status::Blocked(_));
        assert!(
            !self.state.borrow().ranks.iter().any(blocked),
            "simnet: deadlock — all ranks blocked on collectives that can no longer complete"
        );
        let done = |result: Option<R>| result.expect("every rank ran to completion");
        results.into_iter().map(done).collect()
    }

    /// Establishes the min-clock invariant for `rank` at `clock`: publishes
    /// the clock, hands off if another rank is now earlier, and returns once
    /// `rank` is the earliest runnable rank again.
    pub async fn turn(&self, rank: usize, clock: SimTime) {
        let earliest = {
            let mut s = self.state.borrow_mut();
            s.ranks[rank].clock = clock;
            s.next = s.earliest();
            s.next
        };
        if earliest != Some(rank) {
            Suspend(false).await;
        }
    }

    /// Records that `rank` posted collective `seq` at `clock`. When the last
    /// rank posts, the ready time freezes and ranks blocked on the collective
    /// are released.
    pub async fn post(&self, rank: usize, clock: SimTime, seq: OpSeq) {
        self.turn(rank, clock).await;
        let mut s = self.state.borrow_mut();
        let size = s.ranks.len();
        let op = s.op_mut(seq);
        assert!(
            !op.posted[rank],
            "rank {rank} posted collective {seq} twice"
        );
        op.posted[rank] = true;
        op.nposted += 1;
        op.post_max = op.post_max.max(clock);
        if op.nposted == size {
            op.ready = Some(op.post_max);
            // Release ranks parked in block_on_ready.
            for r in &mut s.ranks {
                if r.status == Status::Blocked(seq) {
                    r.status = Status::Ready;
                }
            }
        }
    }

    /// Asks, at `clock`, whether collective `seq` — which `rank` has posted —
    /// is ready. The answer is causally exact thanks to the min-clock
    /// discipline.
    pub async fn query(&self, rank: usize, clock: SimTime, seq: OpSeq) -> ReadyInfo {
        self.turn(rank, clock).await;
        let s = self.state.borrow();
        let State { ranks, ops, .. } = &*s;
        let op = &ops[seq as usize];
        if let Some(t) = op.ready {
            return ReadyInfo::Ready(t);
        }
        // Lower bound: the earliest any non-posted rank could still post.
        let mut bound: Option<SimTime> = None;
        for (r, state) in ranks.iter().enumerate() {
            if !op.posted[r] {
                assert!(
                    state.status != Status::Done,
                    "rank {r} finished without posting collective {seq}"
                );
                bound = Some(bound.map_or(state.clock, |b| b.min(state.clock)));
            }
        }
        ReadyInfo::NotBefore(bound.expect("unready op must have a non-posted rank"))
    }

    /// Suspends `rank` until collective `seq` is ready; returns the ready
    /// time. The rank's clock is *not* advanced — the caller folds the ready
    /// time into its own completion computation.
    pub async fn block_on_ready(&self, rank: usize, clock: SimTime, seq: OpSeq) -> SimTime {
        if let ReadyInfo::Ready(t) = self.query(rank, clock, seq).await {
            return t;
        }
        {
            let mut s = self.state.borrow_mut();
            s.ranks[rank].status = Status::Blocked(seq);
            s.next = s.earliest();
        }
        // Resumed only once released (the last post made us `Ready`) and the
        // earliest runnable rank.
        Suspend(false).await;
        let ready = self.state.borrow().ops[seq as usize].ready;
        ready.expect("released from block_on_ready without a ready time")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(engine, rank)` as the program of each of `p` ranks.
    fn run_ranks<F: AsyncFn(&Engine, usize)>(p: usize, f: F) {
        let eng = Engine::new(p);
        let programs = (0..p).map(|r| Box::pin(f(&eng, r)) as Program<'_, ()>);
        eng.run(programs.collect());
    }

    #[test]
    fn post_and_ready_time_is_max_of_posts() {
        run_ranks(3, async |eng, r| {
            let t = SimTime::from_micros(10 * (r as u64 + 1));
            eng.post(r, t, 0).await;
            let ready = eng.block_on_ready(r, t, 0).await;
            assert_eq!(ready, SimTime::from_micros(30));
        });
    }

    #[test]
    fn query_gives_lower_bound_before_ready() {
        run_ranks(2, async |eng, r| {
            if r == 0 {
                eng.post(0, SimTime::from_micros(1), 0).await;
                // Rank 1 has not posted; its clock is a valid lower bound.
                match eng.query(0, SimTime::from_micros(1), 0).await {
                    ReadyInfo::Ready(_) => {
                        // Possible only if rank 1 already posted — at a
                        // larger clock, fine.
                    }
                    ReadyInfo::NotBefore(b) => assert!(b <= SimTime::from_micros(500)),
                }
                let ready = eng.block_on_ready(0, SimTime::from_micros(1), 0).await;
                assert_eq!(ready, SimTime::from_micros(500));
            } else {
                eng.post(1, SimTime::from_micros(500), 0).await;
            }
        });
    }

    #[test]
    fn min_clock_rank_runs_first() {
        // Both ranks contend; the engine must always grant the turn to the
        // earlier clock, so the later rank observes the earlier one's post.
        run_ranks(2, async |eng, r| {
            if r == 0 {
                eng.post(0, SimTime::from_nanos(5), 0).await;
            } else {
                // Rank 1 queries at a much later time: by then rank 0's
                // post (at 5 ns) must be visible.
                eng.post(1, SimTime::from_micros(100), 0).await;
                let ready = eng.block_on_ready(1, SimTime::from_micros(100), 0).await;
                assert_eq!(ready, SimTime::from_micros(100));
            }
        });
    }

    #[test]
    fn several_sequential_collectives() {
        run_ranks(4, async |eng, r| {
            let mut clock = SimTime::from_micros(r as u64);
            for seq in 0..10u64 {
                eng.post(r, clock, seq).await;
                let ready = eng.block_on_ready(r, clock, seq).await;
                assert!(ready >= clock);
                clock = ready + SimTime::from_micros(1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        // Rank 1 exits without posting; rank 0 blocks forever on seq 0, and
        // the stepper finds no runnable rank.
        run_ranks(2, async |eng, r| {
            if r == 0 {
                eng.post(0, SimTime::ZERO, 0).await;
                eng.block_on_ready(0, SimTime::ZERO, 0).await;
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 finished without posting collective 0")]
    fn a_finished_rank_that_never_posted_is_diagnosed() {
        // Rank 1 is long gone when rank 0 asks about the collective.
        run_ranks(2, async |eng, r| {
            if r == 0 {
                eng.post(0, SimTime::from_micros(1), 0).await;
                eng.block_on_ready(0, SimTime::from_micros(1), 0).await;
            }
        });
    }

    #[test]
    #[should_panic(expected = "posted collective 0 twice")]
    fn double_post_is_rejected() {
        run_ranks(1, async |eng, _| {
            eng.post(0, SimTime::ZERO, 0).await;
            eng.post(0, SimTime::ZERO, 0).await;
        });
    }
}
