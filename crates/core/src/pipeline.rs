//! The overlap pipeline drivers — Algorithm 1 of the paper, factored out of
//! the two backends (real execution on `mpisim`, modeled execution on
//! `simnet`) so both run the *same* schedule.
//!
//! [`try_run_new`] / [`try_run_th`] are resilient drivers: they climb a
//! **degradation ladder** when a tile's all-to-all stalls — first boost the
//! `MPI_Test` polling frequencies, then shrink the window `W`, then fall
//! back to blocking (FFTW-style) exchanges — and only after the per-wait
//! strike budget is spent surface a typed [`Error`]. The climb is reported
//! in the returned [`Recovery`] and mirrored to the backend via
//! [`OverlapEnv::on_degrade`] so traces show the recovery.
//!
//! The drivers are `async`: a backend's stepping methods may suspend the
//! schedule — the simulated one does, wherever its rank must let an earlier
//! rank run first (see `simnet::engine`) — and resume it later at the same
//! statement. The backends that never suspend (the real executor, the
//! service's program recorder) run a driver to completion with the
//! crate's `block_on`, which polls it exactly once.

#![cfg_attr(not(test), deny(clippy::unreachable))]

use crate::error::{Error, IntegrityStage};
use crate::trace::DegradeAction;
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// Runs a driver over a backend that never suspends: no thread, lock or
/// allocation — the schedule is an ordinary call.
///
/// # Panics
/// If `driver` suspends — only `sim_env::SimEnv` may, and simnet's stepper
/// resumes it.
pub(crate) fn block_on<F: Future>(driver: F) -> F::Output {
    match pin!(driver).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(output) => output,
        Poll::Pending => panic!("a backend that never suspends suspended its driver"),
    }
}

/// What a backend must provide for the tile pipeline to run over it.
///
/// Tiles are indexed `0..num_tiles()`. `inflight` always holds the tiles
/// whose all-to-all is outstanding, oldest first; the compute hooks poll
/// them per the backend's `F*` parameters. The four per-tile steps are
/// `async`: those are where a backend may suspend the schedule.
#[expect(async_fn_in_trait, reason = "drivers and backends share a thread")]
pub trait OverlapEnv {
    /// Backend-specific request handle for one tile's all-to-all.
    type Req;

    /// Number of communication tiles `k = ⌈Nz/T⌉`.
    fn num_tiles(&self) -> usize;
    /// Window size `W` (0 disables overlap: the NEW-0/TH-0 variants).
    fn window(&self) -> usize;
    /// Steps 1–2: FFTz and Transpose (performed once, not per tile).
    fn fftz_transpose(&mut self);
    /// Algorithm 2: FFTy and Pack on `tile`, polling `inflight` `Fy`+`Fp`
    /// times. A poll may observe a fault on an in-flight exchange; the
    /// error names the tile it hit.
    async fn ffty_pack(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error>;
    /// Posts the non-blocking all-to-all for `tile`.
    async fn post_a2a(&mut self, tile: usize) -> Self::Req;
    /// `MPI_Wait` on `tile`'s all-to-all. On a fault (stall past the
    /// backend's watchdog timeout, exhausted retransmit budget) the request
    /// is handed back with the error so the driver can retry after a
    /// degradation step, or cancel it.
    async fn wait(&mut self, tile: usize, req: Self::Req) -> Result<(), (Self::Req, Error)>;
    /// Algorithm 3: Unpack and FFTx on `tile`, polling `inflight` `Fu`+`Fx`
    /// times.
    async fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error>;

    /// Degradation hook: raise the `F*` polling frequencies (called at most
    /// once per run, on the ladder's first rung). Default: no-op.
    fn boost_polls(&mut self) {}
    /// Degradation hook: grow the watchdog period before the next retry. A
    /// stall that survives a rung climb is usually contention (a straggler,
    /// a congested window), not a dead peer, so each strike grants the next
    /// attempt more room; a truly wedged exchange still surfaces within the
    /// bounded strike budget (see [`Resilience::max_strikes`]). Default:
    /// no-op.
    fn escalate_watchdog(&mut self) {}
    /// Degradation hook: the driver took `action` while waiting on `tile`.
    /// Backends surface this in their trace stream. Default: no-op.
    fn on_degrade(&mut self, _tile: usize, _action: DegradeAction) {}
    /// Disposes a request that will never be waited (the driver's error
    /// path). Backends reclaim whatever the exchange staged. Default: drop.
    fn cancel(&mut self, _tile: usize, _req: Self::Req) {}
    /// Recovery hook: rebuild and re-post `tile`'s exchange after an
    /// integrity check rejected the staged payload **before any peer saw
    /// it** (the Pack stage — a memory bit-flip between pack and post).
    /// Backends that keep the pristine transformed data re-pack from it and
    /// return the fresh request; the default `None` declines, surfacing the
    /// error instead. Only Pack-stage failures are retried: once a payload
    /// reaches the wire the collective has consumed a sequence number on
    /// every rank, and re-posting would desynchronise the communicator.
    fn retransmit(&mut self, _tile: usize) -> Option<Self::Req> {
        None
    }
    /// Inspection hook: `Some(stage)` when `req` is a poisoned placeholder
    /// the backend handed out *instead of posting* (its integrity check
    /// rejected the staged payload). The drivers consult this immediately
    /// after every post and heal Pack-stage poisons via
    /// [`OverlapEnv::retransmit`] on the spot — before any later collective
    /// is posted, which is what keeps every rank's collective sequence
    /// numbers in lockstep. Default: requests are never poisoned.
    fn post_poisoned(&self, _req: &Self::Req) -> Option<IntegrityStage> {
        None
    }
    /// The number `tile` goes by in errors and trace events — a stage that
    /// is not its transform's first numbers its tiles after the earlier
    /// stages'. The backend's own errors carry it already; the drivers use it
    /// for the ones they raise themselves. Default: the stage's own number.
    fn tile_id(&self, tile: usize) -> usize {
        tile
    }
    /// Cooperative scheduling point, called by the drivers once per tile
    /// iteration. Backends with a runtime scheduler (mpisim's checked mode)
    /// hook this to release deferred message deliveries at deterministic
    /// points in the pipeline's program order; others leave the no-op
    /// default.
    fn sched_point(&mut self) {}
}

/// Multiplier the degradation ladder's first rung applies to the `F*`
/// polling frequencies.
pub const POLL_BOOST: u32 = 4;

/// Stall-handling policy for the resilient drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resilience {
    /// Watchdog timeout a backend's `wait` applies before reporting
    /// [`Error::Stalled`]. `None` disables the watchdog: waits block
    /// forever.
    pub stall_timeout: Option<Duration>,
    /// Stalls tolerated per wait before the driver gives up on it. Each
    /// strike grants the wait another watchdog period, doubled per strike
    /// (see [`OverlapEnv::escalate_watchdog`]); the real executors cap an
    /// escalated period at 5 s, so a wait is bounded by the sum over strikes
    /// `i = 0..=max_strikes` of `min(2^i · stall_timeout, 5 s)`: 16 s
    /// (`2 + 4 + 5 + 5`) for a 2 s timeout and three strikes, not the
    /// uncapped `(2^(max_strikes + 1) − 1) · stall_timeout` = 30 s (which is
    /// what the simulated backend's virtual-time watchdog still allows).
    pub max_strikes: u32,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            stall_timeout: None,
            max_strikes: 3,
        }
    }
}

impl Resilience {
    /// A policy with the watchdog armed at `timeout` and default ladder
    /// settings.
    pub fn with_timeout(timeout: Duration) -> Self {
        Resilience {
            stall_timeout: Some(timeout),
            ..Resilience::default()
        }
    }
}

/// What the resilient driver had to do to finish the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Watchdog firings observed (some may have resolved without a ladder
    /// climb once the ladder was already at its top rung).
    pub stalls_detected: u32,
    /// Ladder rungs climbed, in order: a prefix of
    /// `[BoostPolls, ShrinkWindow, Fallback]`.
    pub actions: Vec<DegradeAction>,
    /// `true` once the run abandoned overlap and finished with blocking
    /// exchanges.
    pub fell_back: bool,
    /// Silent corruptions caught at the Pack stage and healed transparently
    /// by re-packing and re-posting (each also appears in [`actions`] as a
    /// [`DegradeAction::Retransmit`]).
    ///
    /// [`actions`]: Recovery::actions
    pub corruptions_healed: u32,
}

impl Recovery {
    /// `true` when the run needed no degradation at all.
    pub fn clean(&self) -> bool {
        self.stalls_detected == 0
            && self.actions.is_empty()
            && !self.fell_back
            && self.corruptions_healed == 0
    }

    /// Appends what a transform's next exchange stage had to do.
    pub(crate) fn absorb(&mut self, stage: Recovery) {
        self.stalls_detected += stage.stalls_detected;
        self.actions.extend(stage.actions);
        self.fell_back |= stage.fell_back;
        self.corruptions_healed += stage.corruptions_healed;
    }
}

/// Ladder state shared by the resilient drivers.
struct Ladder<'a> {
    res: &'a Resilience,
    recovery: Recovery,
    /// Effective window, shrunk by the ladder's second rung.
    w_eff: usize,
    /// Rungs climbed so far (0..=3).
    rung: usize,
}

impl<'a> Ladder<'a> {
    fn new(res: &'a Resilience, w: usize) -> Self {
        Ladder {
            res,
            recovery: Recovery::default(),
            w_eff: w,
            rung: 0,
        }
    }

    /// Waits on `tile`, absorbing up to `max_strikes` stalls by climbing
    /// the degradation ladder and retrying (each retry grants the backend's
    /// watchdog another period). A non-stall fault, or a stall past the
    /// strike budget, cancels the request and surfaces the error.
    async fn wait_recover<E: OverlapEnv>(
        &mut self,
        env: &mut E,
        tile: usize,
        mut req: E::Req,
    ) -> Result<(), Error> {
        let mut strikes = 0;
        loop {
            match env.wait(tile, req).await {
                Ok(()) => return Ok(()),
                Err((r, Error::Stalled { .. })) if strikes < self.res.max_strikes => {
                    strikes += 1;
                    self.recovery.stalls_detected += 1;
                    env.escalate_watchdog();
                    if self.rung < 3 {
                        // The stall rungs, in order; Retransmit is
                        // corruption healing, not a rung.
                        let action = match self.rung {
                            0 => {
                                env.boost_polls();
                                DegradeAction::BoostPolls
                            }
                            1 => {
                                self.w_eff = (self.w_eff / 2).max(1);
                                DegradeAction::ShrinkWindow
                            }
                            _ => {
                                self.recovery.fell_back = true;
                                DegradeAction::Fallback
                            }
                        };
                        self.rung += 1;
                        env.on_degrade(tile, action);
                        self.recovery.actions.push(action);
                    }
                    req = r;
                }
                Err((r, e)) => {
                    env.cancel(tile, r);
                    return Err(e);
                }
            }
        }
    }

    /// Posts `tile`'s exchange, healing Pack-stage integrity rejections on
    /// the spot. A backend that rejects its own staged payload (resident
    /// hash mismatch — a memory bit-flip between pack and post) hands back
    /// a poisoned request instead of posting; since no peer saw anything
    /// and no sequence number was consumed, re-packing from the pristine
    /// transformed data and re-posting *immediately* — before any later
    /// collective — is transparent to the rest of the communicator. The
    /// retry budget is separate from the stall strikes: a flaky memory
    /// cell should not eat the watchdog's patience, and vice versa.
    /// Non-Pack poisons are never retried (the payload reached the wire or
    /// the in-place transforms destroyed the pristine data) and surface as
    /// [`Error::IntegrityFailed`].
    async fn post_recover<E: OverlapEnv>(
        &mut self,
        env: &mut E,
        tile: usize,
    ) -> Result<E::Req, Error> {
        let mut req = env.post_a2a(tile).await;
        let mut retries = 0;
        while let Some(stage) = env.post_poisoned(&req) {
            env.cancel(tile, req);
            let healed = match stage {
                IntegrityStage::Pack if retries < self.res.max_strikes => env.retransmit(tile),
                _ => None,
            };
            let Some(fresh) = healed else {
                let tile = env.tile_id(tile);
                return Err(Error::IntegrityFailed { tile, stage });
            };
            retries += 1;
            env.on_degrade(tile, DegradeAction::Retransmit);
            self.recovery.actions.push(DegradeAction::Retransmit);
            self.recovery.corruptions_healed += 1;
            req = fresh;
        }
        Ok(req)
    }
}

/// Cancels everything still in flight (the drivers' error path) and returns
/// the error.
fn cancel_all<E: OverlapEnv>(
    env: &mut E,
    inflight: &mut Vec<(usize, E::Req)>,
    err: Error,
) -> Error {
    for (tile, req) in inflight.drain(..) {
        env.cancel(tile, req);
    }
    err
}

/// Runs the paper's full pipeline (Algorithm 1): all four compute steps
/// overlap with the windowed all-to-alls.
///
/// ```text
/// for i ← 0 to k + W − 1 do
///     if i < k  then FFTy and Pack on tile i
///     if i ≥ W  then MPI_Wait on tile (i − W)
///     if i < k  then MPI_Ialltoall on tile i
///     if i ≥ W  then Unpack and FFTx on tile (i − W)
/// ```
///
/// With `window() == 0` this degenerates to the paper's NEW-0: per tile,
/// post immediately followed by wait (lines 6–7 "replaced with
/// `MPI_Ialltoall` and `MPI_Wait` on tile i"), no polls.
///
/// On a detected stall the driver climbs the degradation ladder (boost
/// polls → shrink window → blocking fallback) and keeps going; it returns
/// what it had to do, or the fault that exhausted the ladder. All in-flight
/// requests are cancelled on the error path — nothing leaks.
pub async fn try_run_new<E: OverlapEnv>(env: &mut E, res: &Resilience) -> Result<Recovery, Error> {
    try_run(env, res, drive_new).await
}

/// What both schedules share: the fixed steps, the `W = 0` degenerate case
/// (per tile, post immediately followed by wait — no overlap, no polls), and
/// the error path. `drive` is the windowed schedule over `k` tiles:
/// [`drive_new`] or [`drive_th`].
async fn try_run<E: OverlapEnv>(
    env: &mut E,
    res: &Resilience,
    drive: impl AsyncFnOnce(
        &mut E,
        usize,
        &mut Ladder<'_>,
        &mut Vec<(usize, E::Req)>,
    ) -> Result<(), Error>,
) -> Result<Recovery, Error> {
    env.fftz_transpose();
    let k = env.num_tiles();
    let w = env.window();
    let mut ladder = Ladder::new(res, w);

    if w == 0 {
        for i in 0..k {
            env.sched_point();
            env.ffty_pack(i, &mut []).await?;
            let req = ladder.post_recover(env, i).await?;
            ladder.wait_recover(env, i, req).await?;
            env.unpack_fftx(i, &mut []).await?;
        }
        return Ok(ladder.recovery);
    }

    let mut inflight: Vec<(usize, E::Req)> = Vec::with_capacity(w);
    match drive(env, k, &mut ladder, &mut inflight).await {
        Ok(()) => Ok(ladder.recovery),
        Err(e) => Err(cancel_all(env, &mut inflight, e)),
    }
}

/// The windowed NEW schedule, restructured around "how many waits does this
/// iteration owe" so the window can shrink mid-run. With a constant window
/// this emits exactly the legacy Algorithm-1 call sequence (pinned by the
/// tests below).
async fn drive_new<E: OverlapEnv>(
    env: &mut E,
    k: usize,
    ladder: &mut Ladder<'_>,
    inflight: &mut Vec<(usize, E::Req)>,
) -> Result<(), Error> {
    for np in 0..k {
        env.sched_point();
        env.ffty_pack(np, inflight).await?;
        if ladder.recovery.fell_back && inflight.is_empty() {
            // Fallback rung: blocking exchange per tile, no overlap.
            let req = ladder.post_recover(env, np).await?;
            ladder.wait_recover(env, np, req).await?;
            env.unpack_fftx(np, &mut []).await?;
            continue;
        }
        // How many in-flight exchanges must complete before tile np's post
        // keeps the window within W. Zero through the fill phase; one per
        // iteration in steady state; more right after a window shrink.
        let need = (inflight.len() + 1).saturating_sub(ladder.w_eff.max(1));
        if need == 0 {
            let req = ladder.post_recover(env, np).await?;
            inflight.push((np, req));
            continue;
        }
        // A shrunk window can owe more than one wait; drain the extras
        // first so the post below never raises concurrency past W.
        for _ in 1..need {
            let (tile, req) = inflight.remove(0);
            ladder.wait_recover(env, tile, req).await?;
            env.unpack_fftx(tile, inflight).await?;
        }
        let (tile, req) = inflight.remove(0);
        ladder.wait_recover(env, tile, req).await?;
        let req_np = ladder.post_recover(env, np).await?;
        inflight.push((np, req_np));
        env.unpack_fftx(tile, inflight).await?;
        if ladder.recovery.fell_back {
            // The ladder topped out while this tile was in the window:
            // drain everything and let the remaining tiles go blocking.
            while !inflight.is_empty() {
                let (tile, req) = inflight.remove(0);
                ladder.wait_recover(env, tile, req).await?;
                env.unpack_fftx(tile, inflight).await?;
            }
        }
    }
    while !inflight.is_empty() {
        let (tile, req) = inflight.remove(0);
        ladder.wait_recover(env, tile, req).await?;
        env.unpack_fftx(tile, inflight).await?;
    }
    Ok(())
}

/// Runs the TH comparator's schedule (Hoefler et al. \[18\]): only FFTy and
/// Pack overlap with communication; Unpack and FFTx happen after the wait,
/// with no progression polls — the reason TH's Wait bar dwarfs NEW's in
/// Figure 8. Same stall-recovery ladder as [`try_run_new`].
pub async fn try_run_th<E: OverlapEnv>(env: &mut E, res: &Resilience) -> Result<Recovery, Error> {
    try_run(env, res, drive_th).await
}

/// The TH schedule: owed waits drain (wait + no-poll unpack) *before* the
/// iteration's post, matching the legacy loop's order.
async fn drive_th<E: OverlapEnv>(
    env: &mut E,
    k: usize,
    ladder: &mut Ladder<'_>,
    inflight: &mut Vec<(usize, E::Req)>,
) -> Result<(), Error> {
    for np in 0..k {
        env.sched_point();
        env.ffty_pack(np, inflight).await?;
        let need = if ladder.recovery.fell_back {
            inflight.len()
        } else {
            (inflight.len() + 1).saturating_sub(ladder.w_eff.max(1))
        };
        for _ in 0..need {
            let (tile, req) = inflight.remove(0);
            ladder.wait_recover(env, tile, req).await?;
            env.unpack_fftx(tile, &mut []).await?;
        }
        let req = ladder.post_recover(env, np).await?;
        if ladder.recovery.fell_back {
            ladder.wait_recover(env, np, req).await?;
            env.unpack_fftx(np, &mut []).await?;
        } else {
            inflight.push((np, req));
        }
    }
    while !inflight.is_empty() {
        let (tile, req) = inflight.remove(0);
        ladder.wait_recover(env, tile, req).await?;
        env.unpack_fftx(tile, &mut []).await?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drivers over the scripted backend, which never suspends.
    fn try_run_new(env: &mut Recorder, res: &Resilience) -> Result<Recovery, Error> {
        block_on(super::try_run_new(env, res))
    }

    fn try_run_th(env: &mut Recorder, res: &Resilience) -> Result<Recovery, Error> {
        block_on(super::try_run_th(env, res))
    }

    /// A scripted environment that records the call sequence and can be
    /// told to stall specific waits.
    struct Recorder {
        k: usize,
        w: usize,
        log: Vec<String>,
        next_req: usize,
        /// Outcomes to inject: each wait attempt pops the front; `None`
        /// (or an empty queue) means success.
        wait_script: Vec<Option<Error>>,
        cancelled: Vec<usize>,
        boosts: u32,
        /// Whether `retransmit` offers a fresh request or declines.
        can_retransmit: bool,
        /// Stages to poison successive requests with: each `post_a2a` /
        /// `retransmit` pops the front; empty = clean requests.
        poison_script: std::collections::VecDeque<IntegrityStage>,
        poisoned: std::collections::HashMap<usize, IntegrityStage>,
        /// Tiles of the transform's earlier stages.
        tile_base: usize,
    }

    impl Recorder {
        fn new(k: usize, w: usize) -> Self {
            Recorder {
                k,
                w,
                log: Vec::new(),
                next_req: 0,
                wait_script: Vec::new(),
                cancelled: Vec::new(),
                boosts: 0,
                can_retransmit: true,
                poison_script: std::collections::VecDeque::new(),
                poisoned: std::collections::HashMap::new(),
                tile_base: 0,
            }
        }

        fn stalled(tile: usize) -> Error {
            Error::Stalled {
                tile,
                round: 1,
                peer: 0,
            }
        }

        fn fresh_req(&mut self) -> usize {
            self.next_req += 1;
            if let Some(stage) = self.poison_script.pop_front() {
                self.poisoned.insert(self.next_req, stage);
            }
            self.next_req
        }
    }

    impl OverlapEnv for Recorder {
        type Req = usize;
        fn num_tiles(&self) -> usize {
            self.k
        }
        fn window(&self) -> usize {
            self.w
        }
        fn fftz_transpose(&mut self) {
            self.log.push("zT".into());
        }
        async fn ffty_pack(
            &mut self,
            tile: usize,
            inflight: &mut [(usize, usize)],
        ) -> Result<(), Error> {
            self.log.push(format!("yP{tile}(w{})", inflight.len()));
            Ok(())
        }
        async fn post_a2a(&mut self, tile: usize) -> usize {
            self.log.push(format!("A{tile}"));
            self.fresh_req()
        }
        async fn wait(&mut self, tile: usize, req: usize) -> Result<(), (usize, Error)> {
            self.log.push(format!("W{tile}"));
            match self.wait_script.pop() {
                Some(Some(e)) => Err((req, e)),
                _ => Ok(()),
            }
        }
        async fn unpack_fftx(
            &mut self,
            tile: usize,
            inflight: &mut [(usize, usize)],
        ) -> Result<(), Error> {
            self.log.push(format!("uX{tile}(w{})", inflight.len()));
            Ok(())
        }
        fn boost_polls(&mut self) {
            self.boosts += 1;
            self.log.push("boost".into());
        }
        fn on_degrade(&mut self, tile: usize, action: DegradeAction) {
            self.log.push(format!("D{tile}:{}", action.label()));
        }
        fn cancel(&mut self, tile: usize, _req: usize) {
            self.cancelled.push(tile);
            self.log.push(format!("C{tile}"));
        }
        fn retransmit(&mut self, tile: usize) -> Option<usize> {
            if !self.can_retransmit {
                return None;
            }
            self.log.push(format!("R{tile}"));
            Some(self.fresh_req())
        }
        fn post_poisoned(&self, req: &usize) -> Option<IntegrityStage> {
            self.poisoned.get(req).copied()
        }
        fn tile_id(&self, tile: usize) -> usize {
            self.tile_base + tile
        }
    }

    #[test]
    fn new_schedule_matches_algorithm_1() {
        // k = 3 tiles, W = 2: figure 3's interleaving.
        let mut env = Recorder::new(3, 2);
        try_run_new(&mut env, &Resilience::default()).unwrap();
        assert_eq!(
            env.log,
            vec![
                "zT", "yP0(w0)", "A0", "yP1(w1)", "A1", "yP2(w2)", "W0", "A2", "uX0(w2)", "W1",
                "uX1(w1)", "W2", "uX2(w0)"
            ]
        );
    }

    #[test]
    fn new_with_window_zero_is_sequential_per_tile() {
        let mut env = Recorder::new(2, 0);
        try_run_new(&mut env, &Resilience::default()).unwrap();
        assert_eq!(
            env.log,
            vec!["zT", "yP0(w0)", "A0", "W0", "uX0(w0)", "yP1(w0)", "A1", "W1", "uX1(w0)"]
        );
    }

    #[test]
    fn th_does_not_poll_during_unpack() {
        let mut env = Recorder::new(3, 1);
        try_run_th(&mut env, &Resilience::default()).unwrap();
        // Every uX entry must report an empty window.
        for entry in env.log.iter().filter(|e| e.starts_with("uX")) {
            assert!(entry.ends_with("(w0)"), "TH polled during unpack: {entry}");
        }
        // But packs after the first do see in-flight tiles.
        assert!(env
            .log
            .iter()
            .any(|e| e.starts_with("yP") && e.ends_with("(w1)")));
    }

    #[test]
    fn every_tile_is_waited_exactly_once() {
        for (k, w) in [(1, 1), (4, 1), (4, 2), (4, 4), (5, 3), (8, 2)] {
            let mut env = Recorder::new(k, w);
            try_run_new(&mut env, &Resilience::default()).unwrap();
            for t in 0..k {
                let waits = env.log.iter().filter(|e| **e == format!("W{t}")).count();
                assert_eq!(waits, 1, "k={k} w={w} tile={t}");
                let posts = env.log.iter().filter(|e| **e == format!("A{t}")).count();
                assert_eq!(posts, 1);
            }
        }
    }

    #[test]
    fn window_never_exceeds_w() {
        for (k, w) in [(6, 1), (6, 2), (6, 3)] {
            let mut env = Recorder::new(k, w);
            try_run_new(&mut env, &Resilience::default()).unwrap();
            for e in &env.log {
                if let Some(pos) = e.find("(w") {
                    let n: usize = e[pos + 2..e.len() - 1].parse().unwrap();
                    assert!(n <= w, "k={k} w={w}: {e}");
                }
            }
        }
    }

    #[test]
    fn wait_precedes_unpack_for_same_tile() {
        let mut env = Recorder::new(5, 2);
        try_run_new(&mut env, &Resilience::default()).unwrap();
        for t in 0..5 {
            let wi = env.log.iter().position(|e| *e == format!("W{t}")).unwrap();
            let ui = env
                .log
                .iter()
                .position(|e| e.starts_with(&format!("uX{t}(")))
                .unwrap();
            assert!(wi < ui, "tile {t}: wait at {wi}, unpack at {ui}");
        }
    }

    #[test]
    fn th_matches_legacy_sequence() {
        let mut env = Recorder::new(3, 1);
        try_run_th(&mut env, &Resilience::default()).unwrap();
        assert_eq!(
            env.log,
            vec![
                "zT", "yP0(w0)", "A0", "yP1(w1)", "W0", "uX0(w0)", "A1", "yP2(w1)", "W1",
                "uX1(w0)", "A2", "W2", "uX2(w0)"
            ]
        );
    }

    #[test]
    fn clean_run_reports_clean_recovery() {
        let mut env = Recorder::new(4, 2);
        let rec = try_run_new(&mut env, &Resilience::default()).unwrap();
        assert!(rec.clean());
        assert_eq!(env.boosts, 0);
        assert!(env.cancelled.is_empty());
    }

    #[test]
    fn ladder_climbs_in_order_and_recovers() {
        // k=6, W=2; the first three waits each stall once, then succeed on
        // retry. The ladder must climb boost → shrink → fallback, every
        // tile must still be waited and unpacked exactly once, and the run
        // must report the climb.
        let mut env = Recorder::new(6, 2);
        // wait() pops from the back: build the script so attempts 1..3
        // (whichever waits they land on) stall once each, interleaved with
        // successes. Simplest deterministic shape: every first attempt of
        // the first three waited tiles stalls.
        // Script order is pop() (LIFO), so push in reverse attempt order:
        // [stall, ok, stall, ok, stall] consumed as: W? stall, retry ok,
        // next W stall, retry ok, next W stall, then default-ok forever.
        env.wait_script = vec![
            Some(Recorder::stalled(0)),
            None,
            Some(Recorder::stalled(0)),
            None,
            Some(Recorder::stalled(0)),
        ];
        let rec = try_run_new(&mut env, &Resilience::default()).unwrap();
        assert_eq!(
            rec.actions,
            vec![
                DegradeAction::BoostPolls,
                DegradeAction::ShrinkWindow,
                DegradeAction::Fallback
            ]
        );
        assert_eq!(rec.stalls_detected, 3);
        assert!(rec.fell_back);
        assert_eq!(env.boosts, 1);
        assert!(env.cancelled.is_empty());
        for t in 0..6 {
            let unpacks = env
                .log
                .iter()
                .filter(|e| e.starts_with(&format!("uX{t}(")))
                .count();
            assert_eq!(unpacks, 1, "tile {t} unpacked once: {:?}", env.log);
            let posts = env.log.iter().filter(|e| **e == format!("A{t}")).count();
            assert_eq!(posts, 1, "tile {t} posted once");
        }
        // After the fallback rung, later tiles run post → wait → unpack
        // with nothing else interleaved (blocking, no overlap).
        let a5 = env.log.iter().position(|e| *e == "A5").unwrap();
        assert_eq!(env.log[a5 + 1], "W5");
        assert!(env.log[a5 + 2].starts_with("uX5("));
    }

    #[test]
    fn exhausted_strikes_surface_the_error_and_cancel_inflight() {
        let mut env = Recorder::new(4, 2);
        // Every wait attempt stalls: the first waited tile (0) burns the
        // 3-strike budget and errors on the 4th attempt.
        env.wait_script = vec![Some(Recorder::stalled(0)); 16];
        let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
        assert!(matches!(err, Error::Stalled { .. }), "{err}");
        // The failed tile's request and the other in-flight request were
        // both cancelled — nothing leaks.
        assert_eq!(env.cancelled, vec![0, 1]);
    }

    #[test]
    fn non_stall_faults_do_not_climb_the_ladder() {
        let mut env = Recorder::new(3, 2);
        env.wait_script = vec![Some(Error::Dropped {
            tile: 0,
            round: 2,
            peer: 1,
        })];
        let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
        assert!(matches!(err, Error::Dropped { .. }));
        assert_eq!(env.boosts, 0, "dropped data is not a stall: no ladder");
        assert_eq!(env.cancelled, vec![0, 1]);
    }

    #[test]
    fn shrink_window_reduces_concurrency_for_later_tiles() {
        // k=8, W=4. Stall twice on the first wait: boost, then shrink to
        // W=2. Afterwards the window reported to ffty_pack must never
        // exceed 2 once the backlog drains.
        let mut env = Recorder::new(8, 4);
        env.wait_script = vec![Some(Recorder::stalled(0)), Some(Recorder::stalled(0))];
        let rec = try_run_new(&mut env, &Resilience::default()).unwrap();
        assert_eq!(
            rec.actions,
            vec![DegradeAction::BoostPolls, DegradeAction::ShrinkWindow]
        );
        assert!(!rec.fell_back);
        // Once the backlog drains, the window seen by later packs is the
        // shrunk W = 2, not the original 4.
        assert!(env.log.contains(&"yP6(w2)".to_string()), "{:?}", env.log);
        assert!(env.log.contains(&"yP7(w2)".to_string()), "{:?}", env.log);
        for t in 0..8 {
            let unpacks = env
                .log
                .iter()
                .filter(|e| e.starts_with(&format!("uX{t}(")))
                .count();
            assert_eq!(unpacks, 1, "tile {t}: {:?}", env.log);
        }
    }

    #[test]
    fn pack_corruption_heals_by_retransmit_at_the_post_point() {
        let mut env = Recorder::new(4, 2);
        // The first post comes back poisoned (staged payload rejected);
        // the driver must dispose it, ask for a retransmit *immediately*
        // (before any later post — sequence lockstep), and finish.
        env.poison_script.push_back(IntegrityStage::Pack);
        let rec = try_run_new(&mut env, &Resilience::default()).unwrap();
        assert_eq!(rec.corruptions_healed, 1);
        assert_eq!(rec.actions, vec![DegradeAction::Retransmit]);
        assert!(!rec.clean());
        assert_eq!(rec.stalls_detected, 0, "corruption is not a stall");
        assert_eq!(env.boosts, 0, "healing does not climb the stall ladder");
        // The retransmit happens straight after the poisoned post, before
        // tile 1 posts anything.
        let a0 = env.log.iter().position(|e| e == "A0").unwrap();
        let r0 = env.log.iter().position(|e| e == "R0").unwrap();
        let a1 = env.log.iter().position(|e| e == "A1").unwrap();
        assert!(a0 < r0 && r0 < a1, "{:?}", env.log);
        assert!(env.cancelled.contains(&0), "poisoned request was disposed");
        for t in 0..4 {
            let unpacks = env
                .log
                .iter()
                .filter(|e| e.starts_with(&format!("uX{t}(")))
                .count();
            assert_eq!(unpacks, 1, "tile {t}: {:?}", env.log);
        }
    }

    #[test]
    fn exhausted_retransmit_budget_surfaces_integrity_error() {
        let mut env = Recorder::new(3, 1);
        // Every post and every retransmit comes back poisoned: 3 retries
        // (max_strikes), then the 4th poison surfaces.
        env.poison_script = vec![IntegrityStage::Pack; 8].into();
        let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
        assert!(
            matches!(
                err,
                Error::IntegrityFailed {
                    stage: IntegrityStage::Pack,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            env.log.iter().filter(|e| **e == "R0").count(),
            3,
            "retry budget is max_strikes: {:?}",
            env.log
        );
    }

    #[test]
    fn a_later_stages_integrity_errors_carry_the_transform_wide_tile() {
        // A sealed second stage whose tiles follow five of the first's. Both
        // ways a rejected post surfaces — the heal budget exhausted, the
        // retransmit declined — name tile 1 as 6, like the backend's own
        // errors (`wait`, the ABFT checks); the hooks keep the stage's number.
        for can_retransmit in [true, false] {
            let mut env = Recorder::new(3, 1);
            env.tile_base = 5;
            env.can_retransmit = can_retransmit;
            // Request 1, tile 0's post, is clean; tile 1's post and every
            // re-post of it are rejected.
            env.poisoned = (2..12).map(|req| (req, IntegrityStage::Pack)).collect();
            let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
            let stage = IntegrityStage::Pack;
            assert_eq!(err, Error::IntegrityFailed { tile: 6, stage });
            let retries = env.log.iter().filter(|e| **e == "R1").count();
            assert_eq!(retries, if can_retransmit { 3 } else { 0 }, "{:?}", env.log);
            assert!(env.cancelled.contains(&1), "{:?}", env.log);
        }
    }

    #[test]
    fn non_pack_integrity_failures_do_not_retry() {
        // A non-Pack poison means the damage is beyond a re-pack (the
        // pristine data itself failed its check): surface immediately
        // without consulting the retransmit hook. Wire-stage failures
        // arrive through `wait` instead — equally non-retried.
        for stage in [IntegrityStage::Ffty, IntegrityStage::Fftx] {
            let mut env = Recorder::new(3, 2);
            env.poison_script.push_back(stage);
            let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
            assert!(matches!(err, Error::IntegrityFailed { .. }), "{err}");
            assert!(
                !env.log.iter().any(|e| e.starts_with('R')),
                "{stage}: {:?}",
                env.log
            );
        }
        let mut env = Recorder::new(3, 2);
        env.wait_script = vec![Some(Error::IntegrityFailed {
            tile: 0,
            stage: IntegrityStage::Wire,
        })];
        let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
        assert!(matches!(err, Error::IntegrityFailed { .. }), "{err}");
        assert!(!env.log.iter().any(|e| e.starts_with('R')), "{:?}", env.log);
        assert!(env.cancelled.contains(&0), "failed wait request disposed");
    }

    #[test]
    fn declined_retransmit_surfaces_the_error() {
        let mut env = Recorder::new(3, 2);
        env.can_retransmit = false;
        env.poison_script.push_back(IntegrityStage::Pack);
        let err = try_run_new(&mut env, &Resilience::default()).unwrap_err();
        assert!(matches!(err, Error::IntegrityFailed { .. }), "{err}");
        // The poisoned request was still cancelled before declining.
        assert!(env.cancelled.contains(&0));
    }

    #[test]
    fn th_ladder_recovers_too() {
        let mut env = Recorder::new(5, 2);
        env.wait_script = vec![Some(Recorder::stalled(0)), None, Some(Recorder::stalled(0))];
        let rec = try_run_th(&mut env, &Resilience::default()).unwrap();
        assert_eq!(rec.stalls_detected, 2);
        for t in 0..5 {
            let unpacks = env
                .log
                .iter()
                .filter(|e| e.starts_with(&format!("uX{t}(")))
                .count();
            assert_eq!(unpacks, 1, "tile {t}: {:?}", env.log);
        }
    }
}
