//! Shared state backing a set of simulated ranks.
//!
//! One [`World`] is created per [`crate::run`] invocation. It owns a mailbox
//! per rank (tag/source-matched message queues), a generation-counted
//! barrier, and the bookkeeping used by communicator `split`.
//!
//! All deliveries route through [`World::deliver`], the single choke point
//! where the optional verification layer's ([`crate::check`]) virtual
//! scheduler may *hold* a message back for a bounded number of receiver
//! yield points. Held messages live in the destination
//! mailbox's side queue and are released by [`Mailbox::service_held`], which
//! every receive path calls — so a deferral delays a delivery but can never
//! lose it.

use crate::check::{Backoff, CheckState};
use faultplan::FaultPlan;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Panic payload a rank thread unwinds with when a `RankCrash` fault fires.
///
/// `run_with_config` downcasts for this type to tell an *injected* process
/// death (survivors keep running; the world is **not** aborted) apart from a
/// genuine bug panic (world aborts, panic propagates to the joiner).
pub(crate) struct RankCrashed(pub usize);

/// A message in flight: the payload is a type-erased `Vec<T>`.
///
/// `src` is the *communicator* rank of the sender (what the receiver
/// matches on); the sender's world rank is only known at the delivery call
/// site, [`World::deliver`].
pub(crate) struct Msg {
    pub src: usize,
    pub tag: u64,
    pub data: Box<dyn Any + Send>,
}

impl Msg {
    pub fn new(src: usize, tag: u64, data: Box<dyn Any + Send>) -> Self {
        Msg { src, tag, data }
    }
}

/// Per-rank mailbox with blocking matched receive.
pub(crate) struct Mailbox {
    queue: Mutex<Vec<Msg>>,
    /// Deliveries the virtual scheduler is holding back, with the number of
    /// service visits left before forced release.
    held: Mutex<Vec<(Msg, u32)>>,
    arrived: Condvar,
    /// Set when any rank panics; blocking receives then panic instead of
    /// hanging the joiner (the runtime's `MPI_Abort` analogue).
    aborted: Arc<AtomicBool>,
}

impl Mailbox {
    fn new(aborted: Arc<AtomicBool>) -> Self {
        Mailbox {
            queue: Mutex::new(Vec::new()),
            held: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
            aborted,
        }
    }

    pub fn check_abort(&self) {
        if self.aborted.load(Ordering::Acquire) {
            panic!("mpisim: aborted because a peer rank panicked");
        }
    }

    /// Deposits a message and wakes any waiting receiver.
    pub fn push(&self, msg: Msg) {
        let mut q = self.queue.lock();
        q.push(msg);
        self.arrived.notify_all();
    }

    /// Parks `msg` in the held queue for `visits` service visits.
    pub fn hold(&self, msg: Msg, visits: u32) {
        self.held.lock().push((msg, visits.max(1)));
    }

    /// One scheduler tick: decrements every held delivery's countdown and
    /// releases the expired ones into the live queue. Called at every
    /// receiver yield point, so a held message is delivered after a bounded
    /// number of the receiver's own scheduling decisions — deterministic in
    /// the receiver's program order, not in wall-clock time.
    pub fn service_held(&self) {
        let mut held = self.held.lock();
        if held.is_empty() {
            return;
        }
        let mut released = false;
        let mut i = 0;
        while i < held.len() {
            held[i].1 -= 1;
            if held[i].1 == 0 {
                let (msg, _) = held.swap_remove(i);
                self.queue.lock().push(msg);
                released = true;
            } else {
                i += 1;
            }
        }
        drop(held);
        if released {
            self.arrived.notify_all();
        }
    }

    /// Releases every held delivery immediately (deadlock probe, teardown).
    pub fn force_release(&self) {
        let mut held = self.held.lock();
        if held.is_empty() {
            return;
        }
        let mut q = self.queue.lock();
        for (msg, _) in held.drain(..) {
            q.push(msg);
        }
        drop(q);
        self.arrived.notify_all();
    }

    /// `true` when a queued (not held) message matches `(src, tag)`.
    pub fn has_match(&self, src: usize, tag: u64) -> bool {
        self.queue
            .lock()
            .iter()
            .any(|m| m.src == src && m.tag == tag)
    }

    /// Removes and returns the first message matching `(src, tag)`, or
    /// `None` when none is queued. FIFO per (src, tag) pair, as MPI
    /// ordering semantics require.
    pub fn try_take(&self, src: usize, tag: u64) -> Option<Msg> {
        self.service_held();
        let mut q = self.queue.lock();
        let pos = q.iter().position(|m| m.src == src && m.tag == tag)?;
        Some(q.remove(pos))
    }

    /// One bounded blocking step of a matched receive: checks, waits up to
    /// `dur` for an arrival, re-checks — all under one queue lock, so a push
    /// between check and wait cannot be missed. Returns `None` on timeout
    /// (the caller loops, giving the scheduler and abort flag a yield
    /// point).
    pub fn take_or_wait(&self, src: usize, tag: u64, dur: Duration) -> Option<Msg> {
        self.service_held();
        let mut q = self.queue.lock();
        if let Some(pos) = q.iter().position(|m| m.src == src && m.tag == tag) {
            return Some(q.remove(pos));
        }
        self.arrived.wait_for(&mut q, dur);
        q.iter()
            .position(|m| m.src == src && m.tag == tag)
            .map(|pos| q.remove(pos))
    }

    /// Waits up to `dur` for any arrival notification (used by `wait` on
    /// non-blocking collectives to avoid spinning). The caller re-checks
    /// its own completion condition and loops.
    pub fn wait_arrival(&self, dur: Duration) {
        self.service_held();
        {
            let mut q = self.queue.lock();
            self.arrived.wait_for(&mut q, dur);
        }
        self.check_abort();
    }

    /// Number of queued + held messages (diagnostics).
    pub fn len(&self) -> usize {
        self.queue.lock().len() + self.held.lock().len()
    }

    /// Removes every queued *or held* message matching `pred`; returns how
    /// many were removed. Used by `IAlltoall::cancel` to reclaim staged
    /// rounds of an abandoned collective.
    pub fn purge<F: Fn(&Msg) -> bool>(&self, pred: F) -> usize {
        let mut q = self.queue.lock();
        let before = q.len();
        q.retain(|m| !pred(m));
        let mut removed = before - q.len();
        drop(q);
        let mut held = self.held.lock();
        let before = held.len();
        held.retain(|(m, _)| !pred(m));
        removed += before - held.len();
        removed
    }

    /// Snapshot of `(src, tag)` pairs still queued or held (teardown lint).
    pub fn leftover_pairs(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = self.queue.lock().iter().map(|m| (m.src, m.tag)).collect();
        out.extend(self.held.lock().iter().map(|(m, _)| (m.src, m.tag)));
        out
    }
}

/// Rendezvous table used by `Comm::split`: ranks post `(color, key, rank)`
/// tuples under a split-operation sequence number and the last arrival
/// computes the grouping.
/// One rank's posted `(color, key, world_rank)` tuple.
type SplitEntry = (i64, i64, usize);
/// Per-rank split outcome: `(new_rank, member_world_ranks)`.
type SplitResult = (usize, Vec<usize>);

pub(crate) struct SplitTable {
    entries: Mutex<HashMap<u64, Vec<SplitEntry>>>,
    done: Condvar,
    results: Mutex<HashMap<u64, HashMap<usize, SplitResult>>>,
}

impl SplitTable {
    fn new() -> Self {
        SplitTable {
            entries: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            results: Mutex::new(HashMap::new()),
        }
    }

    /// Posts this rank's split key and blocks until the grouping for `seq`
    /// is available; returns `(new_rank, member_world_ranks)` where members
    /// are sorted by `(key, world_rank)`. A negative `color` opts out and
    /// returns an empty membership.
    pub fn split(
        &self,
        seq: u64,
        n: usize,
        color: i64,
        key: i64,
        rank: usize,
    ) -> (usize, Vec<usize>) {
        {
            let mut e = self.entries.lock();
            let v = e.entry(seq).or_default();
            v.push((color, key, rank));
            if v.len() == n {
                // Last arrival computes every group's membership.
                let list = e.remove(&seq).expect("just inserted");
                let mut by_color: HashMap<i64, Vec<(i64, usize)>> = HashMap::new();
                for (c, k, r) in list {
                    if c >= 0 {
                        by_color.entry(c).or_default().push((k, r));
                    }
                }
                let mut res: HashMap<usize, (usize, Vec<usize>)> = HashMap::new();
                for (_c, mut members) in by_color {
                    members.sort();
                    let ranks: Vec<usize> = members.iter().map(|&(_, r)| r).collect();
                    for (new_rank, &(_, r)) in members.iter().enumerate() {
                        res.insert(r, (new_rank, ranks.clone()));
                    }
                }
                self.results.lock().insert(seq, res);
                self.done.notify_all();
            }
        }
        let mut r = self.results.lock();
        loop {
            if let Some(groups) = r.get_mut(&seq) {
                if color < 0 {
                    return (usize::MAX, Vec::new());
                }
                if let Some(out) = groups.remove(&rank) {
                    return out;
                }
            }
            self.done.wait(&mut r);
        }
    }
}

/// The process-wide state shared by all ranks of one `run` invocation.
pub(crate) struct World {
    pub size: usize,
    pub mailboxes: Vec<Mailbox>,
    pub split_table: SplitTable,
    /// Faults to inject into this run's collectives (the empty plan for
    /// worlds launched via [`crate::run`]).
    pub faults: Arc<FaultPlan>,
    /// Park-slice policy for every blocking wait in this world.
    pub backoff: Backoff,
    /// Verification instrumentation; `None` outside checked runs.
    pub check: Option<Arc<CheckState>>,
    aborted: Arc<AtomicBool>,
    /// Per-rank "this process died" flags (ULFM failure detector state).
    /// Set by the crashing rank itself before its thread unwinds, so by the
    /// time any survivor can observe missing traffic the flag is visible.
    failed: Vec<AtomicBool>,
    /// Communicator contexts poisoned by [`crate::Comm::revoke`].
    revoked: Mutex<HashSet<u64>>,
}

impl World {
    pub fn new(
        size: usize,
        faults: FaultPlan,
        backoff: Backoff,
        check: Option<Arc<CheckState>>,
    ) -> Arc<Self> {
        assert!(size >= 1, "world size must be ≥ 1");
        let aborted = Arc::new(AtomicBool::new(false));
        Arc::new(World {
            size,
            mailboxes: (0..size).map(|_| Mailbox::new(aborted.clone())).collect(),
            split_table: SplitTable::new(),
            faults: Arc::new(faults),
            backoff,
            check,
            aborted,
            failed: (0..size).map(|_| AtomicBool::new(false)).collect(),
            revoked: Mutex::new(HashSet::new()),
        })
    }

    /// Delivers `msg` from world rank `src_world` into `dst_world`'s
    /// mailbox — the single send-side choke point. Under a checked run this
    /// asks the virtual scheduler whether to hold the delivery back for a
    /// bounded number of receiver yield points.
    pub fn deliver(&self, src_world: usize, dst_world: usize, msg: Msg) {
        let mb = &self.mailboxes[dst_world];
        if let Some(check) = &self.check {
            if let Some(visits) = check.sched_decision(src_world, dst_world, msg.tag) {
                check.count_deferred();
                mb.hold(msg, visits);
                return;
            }
            check.count_delivered();
        }
        mb.push(msg);
    }

    /// Releases every scheduler-held delivery in the world (deadlock probe
    /// and teardown).
    pub fn force_release_all(&self) {
        for mb in &self.mailboxes {
            mb.force_release();
        }
    }

    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Marks the world aborted and wakes every blocked receiver so rank
    /// threads unwind instead of deadlocking after a peer panic.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.arrived.notify_all();
        }
    }

    /// Records that world rank `rank` has died and wakes every blocked
    /// receiver so its peers re-check their completion conditions (and the
    /// failure detector) instead of waiting on traffic that will never come.
    pub fn mark_failed(&self, rank: usize) {
        self.failed[rank].store(true, Ordering::Release);
        if let Some(check) = &self.check {
            // A dead rank is not blocked on anyone: drop it from the
            // wait-for graph so the deadlock probe never names a cycle
            // through a process that no longer exists.
            check.clear_blocked(rank);
        }
        for mb in &self.mailboxes {
            mb.arrived.notify_all();
        }
    }

    /// `true` when world rank `rank` has died.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed[rank].load(Ordering::Acquire)
    }

    /// World ranks currently known dead, ascending.
    pub fn failed_set(&self) -> Vec<usize> {
        (0..self.size).filter(|&r| self.is_failed(r)).collect()
    }

    /// Poisons communicator context `ctx`: subsequent (and in-flight)
    /// operations on it surface `CollError::Revoked` instead of making
    /// progress. Wakes all receivers so blocked waits observe the poison.
    pub fn revoke_ctx(&self, ctx: u64) {
        self.revoked.lock().insert(ctx);
        for mb in &self.mailboxes {
            mb.arrived.notify_all();
        }
    }

    /// `true` when `ctx` has been revoked.
    pub fn is_revoked(&self, ctx: u64) -> bool {
        self.revoked.lock().contains(&ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn msg(src: usize, tag: u64, val: i32) -> Msg {
        Msg::new(src, tag, Box::new(vec![val]))
    }

    /// Blocking matched receive for tests (the runtime's loops live in
    /// `Comm`; tests exercise the mailbox primitive directly).
    fn take(mb: &Mailbox, src: usize, tag: u64) -> Msg {
        loop {
            if let Some(m) = mb.take_or_wait(src, tag, Duration::from_millis(50)) {
                return m;
            }
            mb.check_abort();
        }
    }

    #[test]
    fn mailbox_matches_src_and_tag() {
        let mb = Mailbox::new(Arc::new(AtomicBool::new(false)));
        mb.push(msg(1, 7, 1));
        mb.push(msg(2, 7, 2));
        mb.push(msg(1, 9, 3));
        assert!(mb.try_take(3, 7).is_none());
        let m = mb.try_take(2, 7).expect("queued");
        assert_eq!(m.src, 2);
        let m = take(&mb, 1, 9);
        assert_eq!(
            *m.data.downcast::<Vec<i32>>().expect("i32 payload"),
            vec![3]
        );
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn mailbox_is_fifo_per_pair() {
        let mb = Mailbox::new(Arc::new(AtomicBool::new(false)));
        mb.push(msg(0, 1, 10));
        mb.push(msg(0, 1, 20));
        let a = take(&mb, 0, 1);
        let b = take(&mb, 0, 1);
        assert_eq!(
            *a.data.downcast::<Vec<i32>>().expect("i32 payload"),
            vec![10]
        );
        assert_eq!(
            *b.data.downcast::<Vec<i32>>().expect("i32 payload"),
            vec![20]
        );
    }

    #[test]
    fn blocking_take_wakes_on_push() {
        let mb = Arc::new(Mailbox::new(Arc::new(AtomicBool::new(false))));
        let mb2 = mb.clone();
        let h = thread::spawn(move || {
            let m = take(&mb2, 5, 42);
            *m.data.downcast::<Vec<i32>>().expect("i32 payload")
        });
        thread::sleep(Duration::from_millis(20));
        mb.push(msg(5, 42, 9));
        assert_eq!(h.join().expect("no panic"), vec![9]);
    }

    #[test]
    fn held_messages_release_after_service_visits() {
        let mb = Mailbox::new(Arc::new(AtomicBool::new(false)));
        mb.hold(msg(0, 7, 1), 3);
        assert_eq!(mb.len(), 1, "held messages count as in flight");
        assert!(mb.try_take(0, 7).is_none(), "visit 1: still held");
        assert!(mb.try_take(0, 7).is_none(), "visit 2: still held");
        // Visit 3 releases it into the queue at the top of try_take.
        assert!(mb.try_take(0, 7).is_some());
        assert_eq!(mb.len(), 0);
    }

    #[test]
    fn force_release_flushes_held_immediately() {
        let mb = Mailbox::new(Arc::new(AtomicBool::new(false)));
        mb.hold(msg(0, 7, 1), 1000);
        mb.hold(msg(1, 7, 2), 1000);
        assert!(!mb.has_match(0, 7), "held ⇒ not yet matchable");
        mb.force_release();
        assert!(mb.has_match(0, 7));
        assert!(mb.has_match(1, 7));
    }

    #[test]
    fn purge_reaches_held_messages() {
        let mb = Mailbox::new(Arc::new(AtomicBool::new(false)));
        mb.push(msg(0, 7, 1));
        mb.hold(msg(0, 7, 2), 1000);
        mb.hold(msg(0, 8, 3), 1000);
        assert_eq!(mb.purge(|m| m.tag == 7), 2);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn failed_flags_and_revoked_ctx_round_trip() {
        let world = World::new(4, FaultPlan::none(), Backoff::default(), None);
        assert!(world.failed_set().is_empty());
        world.mark_failed(2);
        assert!(world.is_failed(2));
        assert!(!world.is_failed(0));
        assert_eq!(world.failed_set(), vec![2]);
        assert!(!world.is_revoked(7));
        world.revoke_ctx(7);
        assert!(world.is_revoked(7));
        assert!(!world.is_revoked(8));
    }

    #[test]
    fn mark_failed_wakes_blocked_receivers() {
        let world = World::new(2, FaultPlan::none(), Backoff::default(), None);
        let w = world.clone();
        let h = thread::spawn(move || {
            // A receiver parked on an arrival that will never come must be
            // woken by the failure notification, then observe the flag.
            while !w.is_failed(1) {
                w.mailboxes[0].wait_arrival(Duration::from_secs(5));
            }
        });
        thread::sleep(Duration::from_millis(20));
        world.mark_failed(1);
        h.join().expect("receiver observed the failure");
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        let t = Arc::new(SplitTable::new());
        let mut handles = Vec::new();
        // 4 ranks: colors 0,0,1,1; keys reversed within color.
        for (rank, (color, key)) in [(0i64, 1i64), (0, 0), (1, 5), (1, 2)].iter().enumerate() {
            let t = t.clone();
            let (color, key) = (*color, *key);
            handles.push(thread::spawn(move || t.split(0, 4, color, key, rank)));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        // Ranks 0,1 share color 0; rank 1 has the lower key so becomes rank 0.
        assert_eq!(results[0], (1, vec![1, 0]));
        assert_eq!(results[1], (0, vec![1, 0]));
        assert_eq!(results[2], (1, vec![3, 2]));
        assert_eq!(results[3], (0, vec![3, 2]));
    }
}
