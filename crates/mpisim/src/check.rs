//! Dynamic verification instrumentation: the checked mode
//! [`crate::explore()`] runs every schedule under.
//!
//! Two cooperating mechanisms, both wired into the message path of
//! `crate::world::World` and activated only when a run is launched with a
//! [`CheckConfig`] (via [`crate::run_with_config`]):
//!
//! 1. **Virtual scheduler** ([`SchedConfig`]): every message delivery
//!    consults a seeded decision — a pure function of
//!    `(seed, src, dest, tag, nth-message-on-that-edge)` drawn through
//!    [`faultplan::hash5`] — that may *defer* the delivery for a bounded
//!    number of receiver yield points. Because the decision is keyed on the
//!    sender's program order (not wall-clock arrival order), the same
//!    schedule descriptor perturbs the same deliveries on every run: a race
//!    surfaced by a seed reproduces from that seed. Two modes:
//!    [`SchedMode::Random`] (seeded probabilistic deferral) and
//!    [`SchedMode::Systematic`] (a delay-bounded, DPOR-lite enumeration of
//!    deferral masks over delivery-decision classes).
//! 2. **Wait-for-graph deadlock detection**: blocking receives register the
//!    peer (and tag) they are stuck on; a rank that has waited past the
//!    configured threshold walks the graph, and a cycle in which no edge is
//!    satisfiable by a queued or deferred message — or a chain that ends at
//!    a rank whose closure has already returned, so will never send again —
//!    is reported as a [`LintId::Deadlock`] finding *naming the ranks*, then
//!    the world is aborted so the run terminates instead of hanging.
//!
//! Every receive names its source (the transport moves data only through
//! collectives), so no schedule can change which message a receive matches;
//! the checks look for what a schedule *can* change — a hang, a leak, a
//! message nobody takes. Findings carry stable lint IDs (`MC001`–`MC003`,
//! `MC005`–`MC007`; `MC004` is retired and not reused). See DESIGN.md §12
//! for the full catalogue and the exploration methodology.

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use faultplan::hash5;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Exponential backoff policy for blocking waits.
///
/// Replaces the runtime's historical hardcoded 50 ms park slices: every
/// blocking loop starts at [`Backoff::initial`] and multiplies up to
/// [`Backoff::max`] between wakeups. The default reproduces the legacy cap
/// (50 ms) while reacting to prompt deliveries in microseconds;
/// [`Backoff::checked`] keeps slices tight so schedule exploration and the
/// deadlock probe stay fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First park slice of a blocking wait.
    pub initial: Duration,
    /// Upper bound no slice exceeds.
    pub max: Duration,
    /// Growth factor between consecutive slices (≥ 1).
    pub multiplier: u32,
    /// Seed for the deterministic park jitter (see [`Backoff::park`]).
    /// Folded from the run's fault seed by `run_with_config`, so two runs
    /// with the same `(fault seed, schedule descriptor)` park identically —
    /// no ambient entropy enters the wait loops.
    pub jitter_seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            initial: Duration::from_micros(500),
            max: Duration::from_millis(50),
            multiplier: 2,
            jitter_seed: 0,
        }
    }
}

impl Backoff {
    /// Tight slices for checked runs: deferred deliveries release within a
    /// few hundred microseconds and deadlock probes fire promptly.
    pub fn checked() -> Self {
        Backoff {
            initial: Duration::from_micros(100),
            max: Duration::from_millis(2),
            multiplier: 2,
            jitter_seed: 0,
        }
    }

    /// The same policy with the jitter seed set (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The first slice (never zero, so `wait_for` cannot busy-spin).
    pub fn first(&self) -> Duration {
        self.initial.max(Duration::from_micros(1))
    }

    /// The slice following `cur`.
    pub fn next(&self, cur: Duration) -> Duration {
        (cur * self.multiplier.max(1)).min(self.max.max(self.initial))
    }

    /// `cur` with deterministic jitter applied: a pure function of
    /// `(jitter_seed, cur, salt)` scaling the slice into `[75%, 125%]`.
    ///
    /// Wait loops that would otherwise park in lockstep (every survivor of a
    /// rank failure re-polling on the same exponential ladder) pass a
    /// per-caller `salt` (e.g. the waiting rank) to de-synchronise without
    /// reaching for ambient entropy — replays under a recorded schedule
    /// descriptor stay bit-identical. The envelope bounds are unchanged:
    /// the result is clamped to `[1µs, max]`.
    pub fn park(&self, cur: Duration, salt: u64) -> Duration {
        let h = hash5(
            self.jitter_seed,
            cur.as_nanos() as u64,
            salt,
            0xbac_0ff,
            0x9a17_7e12,
        );
        // 75% + (h % 50%+1) percent of the slice.
        let pct = 75 + (h % 51) as u32;
        (cur * pct / 100).clamp(Duration::from_micros(1), self.max.max(self.initial))
    }
}

// ---------------------------------------------------------------------------
// Findings and the lint catalogue
// ---------------------------------------------------------------------------

/// Stable identifiers for the runtime lint catalogue (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintId {
    /// `MC001` — a posted message was never received: at world teardown a
    /// mailbox still holds it (an unmatched send / unmatched post).
    UnmatchedSend,
    /// `MC002` — a non-blocking collective request was dropped while
    /// incomplete, without `wait` or `cancel` (its staged rounds leak).
    RequestLeak,
    /// `MC003` — two distinct communicator-creation events mapped to the
    /// same context id: their tag spaces collide and messages can cross.
    CtxCollision,
    /// `MC005` — a cycle of ranks each blocked on the next, or a chain of
    /// them ending at a rank that has returned, with no satisfiable message
    /// in flight: deadlock, reported with the ranks. The chain is the shape
    /// of a collective some ranks issue and their peers never join.
    Deadlock,
    /// `MC006` — a persistent collective plan was dropped without `free()`:
    /// its registration (and any in-flight execution's staged rounds) leaks.
    PersistentLeak,
    /// `MC007` — a recovery checkpoint was consulted after the membership
    /// it captured had changed by more than the one loss XOR parity can
    /// repair: the checkpoint is stale and must not be restored from.
    StaleCheckpoint,
}

impl LintId {
    /// Stable code, e.g. `"MC005"`.
    pub fn code(&self) -> &'static str {
        match self {
            LintId::UnmatchedSend => "MC001",
            LintId::RequestLeak => "MC002",
            LintId::CtxCollision => "MC003",
            LintId::Deadlock => "MC005",
            LintId::PersistentLeak => "MC006",
            LintId::StaleCheckpoint => "MC007",
        }
    }

    /// One-line description for reports.
    pub fn summary(&self) -> &'static str {
        match self {
            LintId::UnmatchedSend => "message posted but never received",
            LintId::RequestLeak => "request dropped without wait or cancel",
            LintId::CtxCollision => "communicator context/tag-space collision",
            LintId::Deadlock => "wait-for cycle, or chain to a returned rank, of blocked ranks",
            LintId::PersistentLeak => "persistent plan dropped without free",
            LintId::StaleCheckpoint => "stale checkpoint consulted after membership change",
        }
    }
}

/// One verification finding: a correctness hazard — the run is wrong,
/// leaks, or hangs. Exploration fails a schedule on any finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Catalogue entry.
    pub id: LintId,
    /// World rank the finding is attributed to, when meaningful.
    pub rank: Option<usize>,
    /// For [`LintId::Deadlock`]: the world ranks in wait-for order —
    /// a cycle (`cycle[i]` waits on `cycle[(i+1) % len]`), or a chain
    /// (`cycle[i]` waits on `cycle[i+1]`) whose last rank has returned.
    pub cycle: Vec<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.id.code(), self.message)
    }
}

// ---------------------------------------------------------------------------
// Scheduler configuration
// ---------------------------------------------------------------------------

/// How the virtual scheduler picks deliveries to defer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Seeded probabilistic deferral: each delivery defers with the
    /// configured probability, decided by a hash of the message coordinates.
    Random {
        /// Seed for every deferral decision.
        seed: u64,
    },
    /// Delay-bounded systematic exploration (DPOR-lite): delivery decisions
    /// hash into `bits` classes and class `i` defers iff bit `i` of `mask`
    /// is set. Sweeping `mask` over `0..2^bits` enumerates every bounded
    /// combination of per-class delivery delays.
    Systematic {
        /// Deferral mask over decision classes.
        mask: u64,
        /// Number of decision classes (≤ 64).
        bits: u32,
    },
}

/// Virtual-scheduler configuration for one checked run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Decision mode.
    pub mode: SchedMode,
    /// Deferral probability in `[0, 1)` ([`SchedMode::Random`] only).
    pub defer_prob: f64,
    /// Maximum receiver yield-point visits a deferred delivery is held for.
    pub max_hold: u32,
}

impl SchedConfig {
    /// A random schedule from `seed` with default perturbation strength.
    pub fn random(seed: u64) -> Self {
        SchedConfig {
            mode: SchedMode::Random { seed },
            defer_prob: 0.35,
            max_hold: 3,
        }
    }

    /// A systematic schedule: decision classes in `0..bits`, deferral
    /// pattern `mask`.
    pub fn systematic(mask: u64, bits: u32) -> Self {
        SchedConfig {
            mode: SchedMode::Systematic {
                mask,
                bits: bits.clamp(1, 64),
            },
            defer_prob: 0.0,
            max_hold: 2,
        }
    }

    /// Short reproducible descriptor, e.g. `"random(seed=7,p=0.35)"`.
    pub fn describe(&self) -> String {
        match self.mode {
            SchedMode::Random { seed } => {
                format!(
                    "random(seed={seed},p={:.2},hold={})",
                    self.defer_prob, self.max_hold
                )
            }
            SchedMode::Systematic { mask, bits } => {
                format!(
                    "systematic(mask={mask:#x},bits={bits},hold={})",
                    self.max_hold
                )
            }
        }
    }

    /// The deferral decision for one delivery: `Some(hold_visits)` to defer,
    /// `None` to deliver immediately. Pure in the message coordinates.
    fn decide(&self, src: usize, dest: usize, tag: u64, nth: u64) -> Option<u32> {
        let edge = ((src as u64) << 32) | dest as u64;
        match self.mode {
            SchedMode::Random { seed } => {
                let h = hash5(seed, edge, tag, nth, 0x5eed_5c4e_d01e);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                (u < self.defer_prob)
                    .then(|| 1 + ((h >> 33) % u64::from(self.max_hold.max(1))) as u32)
            }
            SchedMode::Systematic { mask, bits } => {
                let class = (hash5(0xd1ce, edge, tag, nth, 1) % u64::from(bits.max(1))) as u32;
                (mask >> class & 1 == 1).then(|| 1 + class % self.max_hold.max(1))
            }
        }
    }
}

/// Full checking configuration for [`crate::run_with_config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckConfig {
    /// Delivery perturbation; `None` checks the run under the native
    /// schedule only.
    pub sched: Option<SchedConfig>,
    /// How long a rank must be continuously blocked before it probes the
    /// wait-for graph for a deadlock cycle.
    pub deadlock_after: Duration,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            sched: None,
            deadlock_after: Duration::from_millis(250),
        }
    }
}

impl CheckConfig {
    /// Checking with delivery perturbation under `sched`.
    pub fn with_sched(sched: SchedConfig) -> Self {
        CheckConfig {
            sched: Some(sched),
            ..CheckConfig::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// What a checked run observed.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Messages delivered (including released deferrals).
    pub delivered: u64,
    /// Deliveries the virtual scheduler deferred.
    pub deferred: u64,
    /// Reproducible descriptor of the schedule this run executed under.
    pub schedule: String,
}

impl CheckReport {
    /// `true` when no finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The deadlock finding, if one was reported.
    pub fn deadlock(&self) -> Option<&Finding> {
        self.findings.iter().find(|f| f.id == LintId::Deadlock)
    }
}

/// Results plus verification report of one checked run.
#[derive(Debug)]
pub struct CheckOutcome<R> {
    /// Per-rank results in rank order; `None` when the run was terminated
    /// by the checker (e.g. a detected deadlock aborted the world). For
    /// runs with an injected [`faultplan::FaultKind::RankCrash`], holds the
    /// *survivors'* results in survivor rank order — crashed ranks (listed
    /// in [`CheckOutcome::crashed`]) contribute nothing.
    pub results: Option<Vec<R>>,
    /// World ranks that died by injected crash, ascending. Empty for
    /// ordinary runs; a bug panic still propagates instead of landing here.
    pub crashed: Vec<usize>,
    /// The verification report (empty for unchecked runs).
    pub report: CheckReport,
}

// ---------------------------------------------------------------------------
// Internal shared state
// ---------------------------------------------------------------------------

/// What a blocked rank is waiting on (one wait-for edge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitInfo {
    /// World rank of the peer this rank needs a message from.
    pub peer_world: usize,
    /// Communicator-rank key the matcher uses (`Msg::src`).
    pub src_key: usize,
    /// Full mailbox tag the matcher uses.
    pub tag: u64,
}

/// Per-world verification state, shared by every rank thread.
pub(crate) struct CheckState {
    cfg: CheckConfig,
    /// Wait-for edges of currently blocked ranks.
    blocked: Mutex<Vec<Option<WaitInfo>>>,
    /// Ranks whose closure has returned normally: they send nothing more,
    /// so a wait on one of them that no queued message satisfies is final.
    /// A crashed rank is never marked (its peers take the typed
    /// `RankFailed` route instead). The `Release` store in
    /// [`Self::mark_returned`] pairs with the `Acquire` load in
    /// `find_cycle`: a prober that sees the flag also sees every message
    /// the rank delivered before returning.
    returned: Vec<AtomicBool>,
    findings: Mutex<Vec<Finding>>,
    delivered: AtomicU64,
    deferred: AtomicU64,
    /// Per-(src,dest,tag) delivery counters: the deterministic "nth message
    /// on this edge" coordinate of scheduler decisions.
    edge_seq: Mutex<HashMap<(usize, usize, u64), u64>>,
    /// ctx id → creation event `(parent_ctx, split_seq, color)`.
    ctxs: Mutex<HashMap<u64, (u64, u64, i64)>>,
    deadlock_reported: AtomicBool,
}

impl CheckState {
    pub fn new(size: usize, cfg: CheckConfig) -> Self {
        CheckState {
            cfg,
            blocked: Mutex::new(vec![None; size]),
            returned: (0..size).map(|_| AtomicBool::new(false)).collect(),
            findings: Mutex::new(Vec::new()),
            delivered: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            edge_seq: Mutex::new(HashMap::new()),
            ctxs: Mutex::new(HashMap::new()),
            deadlock_reported: AtomicBool::new(false),
        }
    }

    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    pub fn add_finding(&self, f: Finding) {
        self.findings.lock().push(f);
    }

    pub fn count_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count_deferred(&self) {
        self.deferred.fetch_add(1, Ordering::Relaxed);
    }

    /// The scheduler's deferral decision for one delivery (bumps the edge
    /// counter as a side effect).
    pub fn sched_decision(&self, src: usize, dest: usize, tag: u64) -> Option<u32> {
        let sched = self.cfg.sched?;
        let nth = {
            let mut seq = self.edge_seq.lock();
            let n = seq.entry((src, dest, tag)).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        sched.decide(src, dest, tag, nth)
    }

    /// Registers a communicator context creation; reports `MC003` when the
    /// ctx id is already live from a *different* creation event.
    pub fn register_ctx(&self, ctx: u64, creation: (u64, u64, i64), rank: usize) {
        let mut ctxs = self.ctxs.lock();
        match ctxs.get(&ctx).copied() {
            None => {
                ctxs.insert(ctx, creation);
            }
            Some(prev) if prev != creation => {
                drop(ctxs);
                self.add_finding(Finding {
                    id: LintId::CtxCollision,
                    rank: Some(rank),
                    cycle: Vec::new(),
                    message: format!(
                        "context id {ctx:#x} created twice: first by (parent={:#x}, seq={}, \
                         color={}), again by (parent={:#x}, seq={}, color={}) — tag spaces collide",
                        prev.0, prev.1, prev.2, creation.0, creation.1, creation.2
                    ),
                });
            }
            Some(_) => {} // same creation event, registered by a peer rank
        }
    }

    pub fn set_blocked(&self, rank: usize, info: WaitInfo) {
        self.blocked.lock()[rank] = Some(info);
    }

    pub fn clear_blocked(&self, rank: usize) {
        self.blocked.lock()[rank] = None;
    }

    /// Records that `rank`'s closure returned normally.
    pub fn mark_returned(&self, rank: usize) {
        self.returned[rank].store(true, Ordering::Release);
    }

    /// `true` once a deadlock has been reported (world is going down).
    pub fn deadlock_was_reported(&self) -> bool {
        self.deadlock_reported.load(Ordering::Acquire)
    }

    /// Walks the wait-for graph from `me`. Returns the world ranks of the
    /// cycle `me` (transitively) feeds into, or of the chain from `me` to a
    /// rank that has returned, when no edge on the way can be satisfied by a
    /// queued message; the flag is `true` for a chain. The caller must have
    /// force-released all deferred deliveries first.
    fn find_cycle(
        &self,
        me: usize,
        satisfiable: &dyn Fn(usize, &WaitInfo) -> bool,
    ) -> Option<(Vec<usize>, bool)> {
        let snap: Vec<Option<WaitInfo>> = self.blocked.lock().clone();
        let mut path = vec![me];
        let mut cur = me;
        loop {
            let info = snap[cur]?;
            let next = info.peer_world;
            if satisfiable(cur, &info) {
                return None; // a message is already there; no deadlock
            }
            if let Some(pos) = path.iter().position(|&r| r == next) {
                return Some((path[pos..].to_vec(), false));
            }
            path.push(next);
            if self.returned[next].load(Ordering::Acquire) {
                return Some((path, true));
            }
            cur = next;
        }
    }

    /// Deadlock probe run by a rank blocked past `deadlock_after`. Returns
    /// `true` when a deadlock was reported (by this rank or a peer): the
    /// caller must unwind. `settle` is slept between two confirming probes
    /// to reject transient cycles (a peer mid-transition).
    pub fn probe_deadlock(
        &self,
        me: usize,
        settle: Duration,
        force_release: &dyn Fn(),
        satisfiable: &dyn Fn(usize, &WaitInfo) -> bool,
        abort_world: &dyn Fn(),
    ) -> bool {
        if self.deadlock_was_reported() {
            return true;
        }
        // Scheduler-held deliveries could satisfy an edge: flush them so a
        // cycle is only ever reported on genuinely missing messages.
        force_release();
        let Some(first) = self.find_cycle(me, satisfiable) else {
            return false;
        };
        #[expect(clippy::disallowed_methods, reason = "a configured settle time")]
        std::thread::sleep(settle);
        force_release();
        match self.find_cycle(me, satisfiable) {
            Some(second) if second == first => {}
            _ => return false, // transient; keep waiting
        }
        if self
            .deadlock_reported
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            let (ranks, chain) = first;
            let named = ranks
                .iter()
                .map(|r| format!("rank {r}"))
                .collect::<Vec<_>>()
                .join(" → ");
            let message = if chain {
                format!(
                    "wait-for chain to a rank that has returned, with no satisfiable message: \
                     {named} (returned) — a collective its peers never join"
                )
            } else {
                let closing = ranks[0];
                format!("wait-for cycle with no satisfiable message: {named} → rank {closing}")
            };
            self.add_finding(Finding {
                id: LintId::Deadlock,
                rank: Some(me),
                cycle: ranks,
                message,
            });
        }
        abort_world();
        true
    }

    /// Drains the state into a report. `scan_unmatched` supplies the
    /// teardown mailbox scan (skipped after aborts, where leftover messages
    /// are expected).
    pub fn into_report(
        self,
        schedule: String,
        scan_unmatched: Option<Vec<Finding>>,
    ) -> CheckReport {
        let mut findings = self.findings.into_inner();
        if let Some(unmatched) = scan_unmatched {
            findings.extend(unmatched);
        }
        CheckReport {
            findings,
            delivered: self.delivered.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            schedule,
        }
    }
}

// ---------------------------------------------------------------------------
// Tag decoding (diagnostics)
// ---------------------------------------------------------------------------

/// Decodes a raw mailbox tag into `(ctx, kind, payload)` for diagnostics;
/// kind is reported as the runtime's class name.
pub fn decode_tag(tag: u64) -> (u64, &'static str, u64) {
    let ctx = tag >> 44;
    let kind = match (tag >> 40) & 0xf {
        1 => "p2p",
        2 => "coll",
        3 => "nbc",
        _ => "unknown",
    };
    (ctx, kind, tag & ((1 << 40) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_to_cap() {
        let b = Backoff::default();
        let mut cur = b.first();
        for _ in 0..20 {
            cur = b.next(cur);
        }
        assert_eq!(cur, b.max);
        let mut cur = b.first();
        let nxt = b.next(cur);
        assert!(nxt >= cur * 2 || nxt == b.max);
        cur = Duration::from_millis(49);
        assert_eq!(b.next(cur), b.max);
    }

    #[test]
    fn park_jitter_is_deterministic_bounded_and_seed_sensitive() {
        let b = Backoff::default().with_seed(42);
        let cur = Duration::from_millis(10);
        // Pure: same (seed, cur, salt) ⇒ same slice, across calls.
        assert_eq!(b.park(cur, 3), b.park(cur, 3));
        // Bounded: every draw stays inside the 75%–125% envelope and the cap.
        for salt in 0..64 {
            let p = b.park(cur, salt);
            assert!(p >= cur * 75 / 100 && p <= cur * 125 / 100, "{p:?}");
            assert!(p <= b.max);
        }
        // Sensitive: some salt (and some seed) must actually move the slice.
        assert!((0..64).any(|s| b.park(cur, s) != b.park(cur, s + 64)));
        let b2 = Backoff::default().with_seed(43);
        assert!((0..64).any(|s| b.park(cur, s) != b2.park(cur, s)));
        // The cap still binds: a near-max slice cannot jitter past `max`.
        let p = b.park(b.max, 0);
        assert!(p <= b.max && p >= b.max * 75 / 100);
    }

    #[test]
    fn sched_decisions_are_pure_and_seed_sensitive() {
        let a = SchedConfig::random(1);
        let b = SchedConfig::random(2);
        let draws = |s: &SchedConfig| -> Vec<Option<u32>> {
            (0..256).map(|n| s.decide(0, 1, 7, n)).collect()
        };
        assert_eq!(draws(&a), draws(&a), "same seed ⇒ same schedule");
        assert_ne!(draws(&a), draws(&b), "different seed ⇒ different schedule");
        let defers = draws(&a).iter().filter(|d| d.is_some()).count();
        assert!((40..150).contains(&defers), "defer rate ≈ 0.35: {defers}");
        for d in draws(&a).into_iter().flatten() {
            assert!((1..=a.max_hold).contains(&d));
        }
    }

    #[test]
    fn systematic_mask_zero_defers_nothing_and_full_mask_everything() {
        let none = SchedConfig::systematic(0, 6);
        let all = SchedConfig::systematic((1 << 6) - 1, 6);
        for n in 0..64 {
            assert_eq!(none.decide(0, 1, n, 0), None);
            assert!(all.decide(0, 1, n, 0).is_some());
        }
    }

    #[test]
    fn ctx_collision_is_flagged_only_for_distinct_creations() {
        let st = CheckState::new(2, CheckConfig::default());
        st.register_ctx(0xabc, (0, 1, 0), 0);
        st.register_ctx(0xabc, (0, 1, 0), 1); // peer registering same creation
        assert!(st.findings.lock().is_empty());
        st.register_ctx(0xabc, (0, 2, 5), 1); // different creation, same ctx
        let f = &st.findings.lock()[0];
        assert_eq!(f.id, LintId::CtxCollision);
        assert_eq!(f.id.code(), "MC003");
    }

    #[test]
    fn find_cycle_names_the_loop_and_respects_satisfiability() {
        let st = CheckState::new(3, CheckConfig::default());
        let w = |peer: usize| WaitInfo {
            peer_world: peer,
            src_key: peer,
            tag: 1,
        };
        st.set_blocked(0, w(1));
        st.set_blocked(1, w(2));
        st.set_blocked(2, w(0));
        let (cycle, chain) = st.find_cycle(0, &|_, _| false).expect("cycle");
        assert!(!chain);
        assert_eq!(cycle.len(), 3);
        assert!(cycle.contains(&0) && cycle.contains(&1) && cycle.contains(&2));
        // Any satisfiable edge dissolves the deadlock.
        assert!(st.find_cycle(0, &|r, _| r == 1).is_none());
        // A rank not in the cycle still reports the cycle it feeds into.
        st.set_blocked(0, w(1));
        st.set_blocked(1, w(2));
        st.set_blocked(2, w(1));
        let cycle = st.find_cycle(0, &|_, _| false).expect("tail into cycle");
        assert_eq!(cycle, (vec![1, 2], false));
    }

    #[test]
    fn find_cycle_ends_a_chain_at_a_returned_rank() {
        let st = CheckState::new(3, CheckConfig::default());
        let w = |peer: usize| WaitInfo {
            peer_world: peer,
            src_key: peer,
            tag: 1,
        };
        st.set_blocked(0, w(1));
        st.set_blocked(1, w(2));
        // Rank 2 is neither blocked nor gone: still live, no verdict.
        assert!(st.find_cycle(0, &|_, _| false).is_none());
        st.mark_returned(2);
        assert_eq!(st.find_cycle(0, &|_, _| false), Some((vec![0, 1, 2], true)));
        // A queued message on the way still dissolves it.
        assert!(st.find_cycle(0, &|r, _| r == 1).is_none());
    }

    /// The catalogue's codes are stable: distinct, `MC001`–`MC003` and
    /// `MC005`–`MC007`, and the retired `MC004` names nothing.
    #[test]
    fn lint_codes_are_distinct_and_skip_the_retired_mc004() {
        let all = [
            LintId::UnmatchedSend,
            LintId::RequestLeak,
            LintId::CtxCollision,
            LintId::Deadlock,
            LintId::PersistentLeak,
            LintId::StaleCheckpoint,
        ];
        // A variant missing from `all` stops this match from compiling.
        let _listed = |id: LintId| match id {
            LintId::UnmatchedSend
            | LintId::RequestLeak
            | LintId::CtxCollision
            | LintId::Deadlock
            | LintId::PersistentLeak
            | LintId::StaleCheckpoint => {}
        };
        let codes: Vec<&str> = all.iter().map(LintId::code).collect();
        assert_eq!(
            codes,
            ["MC001", "MC002", "MC003", "MC005", "MC006", "MC007"]
        );
        let distinct: std::collections::HashSet<_> = codes.iter().collect();
        assert_eq!(distinct.len(), all.len());
        assert!(!codes.contains(&"MC004"));
    }

    #[test]
    fn decode_tag_splits_fields() {
        let tag = (5u64 << 44) | (3u64 << 40) | 99;
        assert_eq!(decode_tag(tag), (5, "nbc", 99));
    }
}
