//! Elastic rank-failure recovery for the distributed transform (ULFM
//! style; DESIGN.md §14).
//!
//! A session's execution ([`crate::FftSession::execute_traced`]) turns a peer
//! death into a typed [`Error::RankFailed`] — but a single rank returning
//! an error does not make a *recovery*: the survivors must learn about the
//! failure together, rebuild a smaller world, and recompute. That protocol
//! lives here, layered strictly on top of the pipeline:
//!
//! 1. **Attempt** the transform on the current communicator.
//! 2. **Agree** (fault-aware consensus, [`mpisim::Comm::agree`]) on whether
//!    *any* rank erred — ranks that finished cleanly still participate, so
//!    an asymmetric outcome (one rank stuck on the dead peer, the rest
//!    done) converges on one decision.
//! 3. On failure: **revoke** the communicator (poisoning stragglers'
//!    in-flight operations), **shrink** to the dense survivor
//!    communicator, re-run the slab decomposition over the surviving `p′`
//!    ranks, re-fetch input from the caller's [`SlabSource`], and retry.
//! 4. A survivor whose input slab cannot be produced is agreed on the same
//!    way, and *every* survivor returns [`Error::Unrecoverable`] — a
//!    missing source is a symmetric, typed outcome, never a hang.
//!
//! An optional Parseval self-check ([`RecoverConfig::verify_energy`])
//! guards against silently accepting a wrong recomputation: for the
//! unnormalised kernels, `Σ|X|² = N·Σ|x|²` must hold across the surviving
//! world, or everyone returns [`Error::VerificationFailed`].

#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::decomp::Decomp;
use crate::error::Error;
use crate::params::{ProblemSpec, TuningParams};
use crate::pipeline::Resilience;
use crate::real_env::{FftSession, RunOutput, Variant};
use crate::serial::block;
use crate::trace::{EventKind, Recorder, TraceEvent};
use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use mpisim::{Comm, LintId};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a rank's input slab comes from when the decomposition changes.
///
/// After a shrink the surviving ranks own *different* x-slabs than before
/// (the slab decomposition is re-run over `p′` ranks), so recovery cannot
/// proceed from the slabs already in memory — the caller must be able to
/// (re)produce the input for an arbitrary `(spec, rank)`. Returning `None`
/// marks the slab unrecoverable; the driver agrees on that across the
/// survivors and everyone gets [`Error::Unrecoverable`].
pub trait SlabSource: Sync {
    /// This rank's x-slab for `spec` (whose `p` is the *current* world
    /// size), in x-y-z layout: `count_x(rank)·ny·nz` elements.
    fn slab(&self, spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>>;

    /// Collective pre-fetch hook: [`run_recoverable`] calls it on every
    /// survivor before each attempt's [`SlabSource::slab`], passing the
    /// current communicator and the world ranks lost so far. Sources that
    /// must cooperate across ranks to reproduce input — [`ParitySource`]
    /// rebuilding a dead peer's slab from parity stripes — override it;
    /// the default does nothing.
    fn prepare(&self, _comm: &Comm, _spec: &ProblemSpec, _lost: &[usize]) {}
}

/// Validates `(spec, rank)` and returns this rank's x-planes, or `None`
/// when the decomposition cannot produce the slab: an empty world, a rank
/// outside it, or an x-split that fails to cover the global extent. Shared by every [`SlabSource`] so no source
/// panics on a malformed spec.
fn slab_extent(spec: &ProblemSpec, rank: usize) -> Option<Range<usize>> {
    if spec.p == 0 || rank >= spec.p {
        return None;
    }
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    if decomp.x.counts().iter().sum::<usize>() != spec.nx {
        return None;
    }
    Some(decomp.x.range(rank))
}

/// Cuts `rank`'s x-slab of `spec` out of a full x-y-z array — the one
/// slab-cutting loop, shared by [`ReplicaSource`], the parity
/// reconstruction path of [`ParitySource`], and the recovery tests.
fn cut_slab(full: &[Complex64], spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>> {
    if full.len() != spec.nx * spec.ny * spec.nz {
        return None;
    }
    let xs = slab_extent(spec, rank)?;
    let mut v = Vec::with_capacity(xs.len() * spec.ny * spec.nz);
    for x in xs {
        for y in 0..spec.ny {
            let row = (x * spec.ny + y) * spec.nz;
            v.extend_from_slice(&full[row..row + spec.nz]);
        }
    }
    Some(v)
}

/// A full in-memory replica of the global input array (x-y-z layout,
/// `nx·ny·nz` elements): any slab of any decomposition can be cut from it.
/// The cheap-but-memory-hungry end of the source spectrum.
pub struct ReplicaSource {
    full: Arc<Vec<Complex64>>,
}

impl ReplicaSource {
    /// Wraps a shared replica; `full.len()` must be `nx·ny·nz` for every
    /// spec this source is asked about (checked at slab time).
    pub fn new(full: Arc<Vec<Complex64>>) -> Self {
        ReplicaSource { full }
    }
}

impl SlabSource for ReplicaSource {
    fn slab(&self, spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>> {
        cut_slab(&self.full, spec, rank)
    }
}

/// Recomputes input elements from a caller-supplied generator
/// `f(x, y, z)` — the zero-replication end of the source spectrum, for
/// inputs that are (re)derivable (test fields, analytic initial
/// conditions, checkpointed closures).
pub struct ComputeSource<F: Fn(usize, usize, usize) -> Complex64 + Sync> {
    f: F,
}

impl<F: Fn(usize, usize, usize) -> Complex64 + Sync> ComputeSource<F> {
    /// Wraps the element generator.
    pub fn new(f: F) -> Self {
        ComputeSource { f }
    }
}

impl<F: Fn(usize, usize, usize) -> Complex64 + Sync> SlabSource for ComputeSource<F> {
    fn slab(&self, spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>> {
        let xs = slab_extent(spec, rank)?;
        Some(block(xs, 0..spec.ny, spec.nz, &self.f))
    }
}

/// XORs `piece` into `acc` on the raw f64 bit patterns. Bitwise XOR (not
/// floating-point addition) makes parity reconstruction *bit-exact*: no
/// rounding, no NaN absorption, and XOR-ing the same piece twice restores
/// the accumulator exactly.
fn xor_into(acc: &mut [Complex64], piece: &[Complex64]) {
    for (a, p) in acc.iter_mut().zip(piece) {
        a.re = f64::from_bits(a.re.to_bits() ^ p.re.to_bits());
        a.im = f64::from_bits(a.im.to_bits() ^ p.im.to_bits());
    }
}

/// An XOR-parity-striped snapshot of the distributed input (DESIGN.md §16):
/// each rank keeps its own slab plus **one** parity stripe of length
/// `q = ceil(max_slab/(p−1))`, so the whole checkpoint costs ≈ `1 + 1/(p−1)`
/// local slabs instead of the `p` slabs a full replica would — and any
/// *single* lost rank's slab is still reconstructible bit-exactly from the
/// survivors.
///
/// The striping: rank `r` cuts its (zero-padded) slab into `p−1` pieces of
/// length `q` and sends piece `j − (j>r)` to peer `j`; each rank XORs the
/// `p−1` pieces it receives into its parity stripe. Piece `k` of a lost
/// rank `x` then lives, XOR-masked by the survivors' own pieces, in the
/// parity stripe of rank `j = k + (k≥x)` — recoverable because every
/// masking piece survives.
pub struct Checkpoint {
    /// World ranks of the capture communicator, dense rank order.
    members: Vec<usize>,
    /// This rank's dense rank at capture time.
    cap_rank: usize,
    /// The spec captured (`spec.p == members.len()`).
    spec: ProblemSpec,
    /// Own-slab snapshot (unpadded).
    slab: Arc<Vec<Complex64>>,
    /// XOR of the `p−1` peer pieces this rank stores; empty when `p == 1`.
    parity: Vec<Complex64>,
    /// Stripe length `q`; 0 when `p == 1`.
    stripe: usize,
    /// Caller-chosen generation tag, for telling checkpoints apart.
    generation: u64,
}

impl Checkpoint {
    /// Collective capture over `comm`: snapshots `input` (this rank's
    /// x-slab of `spec`, `spec.p == comm.size()`) and exchanges parity
    /// stripes via one all-to-all so any one member's slab can later be
    /// rebuilt without full replication.
    pub fn capture(comm: &Comm, spec: &ProblemSpec, input: &[Complex64]) -> Checkpoint {
        Self::capture_tagged(comm, spec, input, 0)
    }

    /// [`Checkpoint::capture`] with an explicit generation tag.
    pub fn capture_tagged(
        comm: &Comm,
        spec: &ProblemSpec,
        input: &[Complex64],
        generation: u64,
    ) -> Checkpoint {
        let p = comm.size();
        let me = comm.rank();
        debug_assert_eq!(p, spec.p, "capture spec must match the communicator");
        let slab = Arc::new(input.to_vec());
        if p == 1 {
            return Checkpoint {
                members: comm.members(),
                cap_rank: 0,
                spec: *spec,
                slab,
                parity: Vec::new(),
                stripe: 0,
                generation,
            };
        }
        let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
        let max_len = decomp.x.max_count() * spec.ny * spec.nz;
        let q = max_len.div_ceil(p - 1);
        // Pieces 0..p−1 of the padded slab, in order, are exactly what the
        // peers 0..p (skipping self) receive: peer j < me gets piece j,
        // peer j > me gets piece j−1 — so the padded slab doubles as the
        // send buffer with counts {q everywhere, 0 to self}.
        let mut padded = input.to_vec();
        padded.resize(q * (p - 1), Complex64::ZERO);
        let counts: Vec<usize> = (0..p).map(|j| if j == me { 0 } else { q }).collect();
        let mut recv = vec![Complex64::ZERO; q * (p - 1)];
        comm.alltoallv(&padded, &counts, &counts, &mut recv);
        let mut parity = vec![Complex64::ZERO; q];
        for piece in recv.chunks_exact(q) {
            xor_into(&mut parity, piece);
        }
        Checkpoint {
            members: comm.members(),
            cap_rank: me,
            spec: *spec,
            slab,
            parity,
            stripe: q,
            generation,
        }
    }

    /// The generation tag this capture was taken with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// World ranks of the capture membership, dense rank order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Elements this rank stores for the checkpoint: the own-slab snapshot
    /// plus the parity stripe (the ≈`slab/(p−1)` overhead that replaces a
    /// full replica).
    pub fn memory_elements(&self) -> usize {
        self.slab.len() + self.parity.len()
    }

    /// Elements of parity-stripe overhead beyond the own-slab snapshot.
    pub fn parity_elements(&self) -> usize {
        self.parity.len()
    }

    /// Wraps the checkpoint in a [`SlabSource`] for [`run_recoverable`].
    pub fn into_source(self) -> ParitySource {
        ParitySource {
            ckpt: self,
            state: Mutex::new(ParityState::Own),
        }
    }
}

/// What [`ParitySource::prepare`] concluded about the current membership.
enum ParityState {
    /// Membership unchanged (or `prepare` not called yet): serve the
    /// own-slab snapshot directly.
    Own,
    /// One capture member is gone; the full array was rebuilt from parity
    /// and any survivor's slab of any decomposition can be cut from it.
    Rebuilt(Arc<Vec<Complex64>>),
    /// The capture cannot serve the current membership (reported as MC007).
    Stale,
}

/// A [`SlabSource`] backed by a [`Checkpoint`]: serves the captured slab
/// while the membership is intact, rebuilds a single lost member's data
/// bit-exactly from the XOR parity stripes inside
/// [`SlabSource::prepare`], and refuses (with an `MC007` finding) when
/// more than one member is gone or the membership grew past the capture.
pub struct ParitySource {
    ckpt: Checkpoint,
    state: Mutex<ParityState>,
}

impl ParitySource {
    /// The number of capture members missing from `live`, as capture
    /// ranks; `None` if `live` contains a rank the capture never had.
    fn missing_capture_ranks(&self, live: &[usize]) -> Option<Vec<usize>> {
        for w in live {
            if !self.ckpt.members.contains(w) {
                return None;
            }
        }
        Some(
            (0..self.ckpt.members.len())
                .filter(|&r| !live.contains(&self.ckpt.members[r]))
                .collect(),
        )
    }

    /// Rebuilds the full global array from the survivors' slabs + parity
    /// stripes after capture rank `x` was lost. Collective over `comm`
    /// (whose members must be exactly the capture members minus `x` — the
    /// caller verified this, so the `None` arms below are unreachable; they
    /// exist because a panic on a recovery path would kill a survivor).
    fn rebuild(&self, comm: &Comm, lost: usize) -> Option<Arc<Vec<Complex64>>> {
        let ck = &self.ckpt;
        let p = ck.members.len();
        let q = ck.stripe;
        let spec = &ck.spec;
        let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
        // Transient gather: every survivor contributes its zero-padded
        // slab followed by its parity stripe — q·(p−1) + q = q·p elements
        // each, so survivor i's block starts at i·q·p. The gather runs
        // before any bail-out so no survivor leaves peers hanging in it.
        let mut contrib = ck.slab.to_vec();
        contrib.resize(q * (p - 1), Complex64::ZERO);
        contrib.extend_from_slice(&ck.parity);
        let gathered = comm.allgather(&contrib);
        // Survivor i (comm rank order) is capture rank cap_of[i].
        let live = comm.members();
        let mut cap_of = Vec::with_capacity(live.len());
        for w in &live {
            cap_of.push(ck.members.iter().position(|m| m == w)?);
        }
        let block = |cap: usize| -> Option<&[Complex64]> {
            let i = cap_of.iter().position(|&c| c == cap)?;
            gathered.get(i * q * p..(i + 1) * q * p)
        };
        // Piece k of the lost slab sits in the parity stripe of capture
        // rank j = k + (k≥x), masked by every other survivor's piece
        // j − (j>r) — XOR them away.
        let mut lost_padded = vec![Complex64::ZERO; q * (p - 1)];
        for k in 0..p - 1 {
            let j = k + usize::from(k >= lost);
            let holder = block(j)?;
            let piece = &mut lost_padded[k * q..(k + 1) * q];
            piece.copy_from_slice(&holder[q * (p - 1)..q * p]);
            for &r in &cap_of {
                if r == j || r == lost {
                    continue;
                }
                let kr = j - usize::from(j > r);
                xor_into(piece, block(r)?.get(kr * q..(kr + 1) * q)?);
            }
        }
        // Slabs are contiguous x-row ranges of the full array, so the full
        // array is the capture-rank-ordered concatenation of the (unpadded)
        // slabs.
        let mut full = Vec::with_capacity(spec.nx * spec.ny * spec.nz);
        for cap in 0..p {
            let len = decomp.x.count(cap) * spec.ny * spec.nz;
            if cap == lost {
                full.extend_from_slice(lost_padded.get(..len)?);
            } else {
                full.extend_from_slice(block(cap)?.get(..len)?);
            }
        }
        Some(Arc::new(full))
    }
}

impl SlabSource for ParitySource {
    fn slab(&self, spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>> {
        match &*self.state.lock() {
            ParityState::Stale => None,
            ParityState::Rebuilt(full) => cut_slab(full, spec, rank),
            ParityState::Own => {
                // No membership change: the capture decomposition must
                // still be in force for the snapshot to be this rank's
                // slab.
                (*spec == self.ckpt.spec && rank == self.ckpt.cap_rank)
                    .then(|| self.ckpt.slab.to_vec())
            }
        }
    }

    fn prepare(&self, comm: &Comm, _spec: &ProblemSpec, _lost: &[usize]) {
        let live = comm.members();
        let state = match self.missing_capture_ranks(&live) {
            Some(missing) if missing.is_empty() => ParityState::Own,
            Some(missing) if missing.len() == 1 => {
                if self.ckpt.members.len() == 1 {
                    // Unreachable in practice (a live comm is non-empty),
                    // but a 1-rank capture has no parity to rebuild from.
                    ParityState::Stale
                } else {
                    match self.rebuild(comm, missing[0]) {
                        Some(full) => ParityState::Rebuilt(full),
                        // Unreachable after the membership check above;
                        // degrade to no-source rather than panic.
                        None => ParityState::Stale,
                    }
                }
            }
            verdict => {
                let why = match verdict {
                    None => "the membership has ranks the capture never saw".to_string(),
                    Some(missing) => format!(
                        "{} capture members are gone — XOR parity covers one loss",
                        missing.len()
                    ),
                };
                comm.report_finding(
                    LintId::StaleCheckpoint,
                    format!(
                        "checkpoint generation {} (members {:?}) cannot serve \
                         membership {:?}: {}",
                        self.ckpt.generation, self.ckpt.members, live, why
                    ),
                );
                ParityState::Stale
            }
        };
        *self.state.lock() = state;
    }
}

/// Policy knobs of the recovery driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverConfig {
    /// Resilience policy for each attempt. The driver *forces* a stall
    /// watchdog (default 200 ms) when none is set: without one, a wait on
    /// a dead peer blocks forever and the failure is never typed.
    pub resilience: Resilience,
    /// Upper bound on transform attempts (first try + retries).
    pub max_attempts: u32,
    /// Relative tolerance for the post-recovery Parseval energy check;
    /// `None` skips verification. The check is collective over the
    /// surviving communicator and fails everyone together.
    pub verify_energy: Option<f64>,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        RecoverConfig {
            resilience: Resilience::default(),
            max_attempts: 3,
            verify_energy: Some(1e-6),
        }
    }
}

/// What a successful (possibly recovered) run produced.
pub struct RecoverOutcome {
    /// This rank's output slab under the *final* decomposition.
    pub output: RunOutput,
    /// The spec the final attempt ran with (`spec.p` = surviving ranks).
    pub spec: ProblemSpec,
    /// This rank's dense rank in the final communicator.
    pub rank: usize,
    /// The shrunk communicator, when recovery re-built one (`None` means
    /// the original communicator completed the run and remains valid).
    pub comm: Option<Comm>,
    /// Transform attempts consumed (1 for a clean run).
    pub attempts: u32,
    /// World ranks lost across all recoveries, ascending.
    pub lost: Vec<usize>,
}

/// Flag bits the per-attempt consensus agrees on.
const FLAG_FAILURE: u64 = 1; // a failure-class error: recoverable by shrink
const FLAG_FATAL: u64 = 2; // a non-failure error: retrying cannot help
const FLAG_NO_SOURCE: u64 = 4; // a survivor's input slab has no source

fn classify(e: &Error) -> u64 {
    match e {
        Error::RankFailed { .. }
        | Error::Revoked { .. }
        | Error::Stalled { .. }
        | Error::Dropped { .. } => FLAG_FAILURE,
        _ => FLAG_FATAL,
    }
}

/// Runs the distributed transform with elastic rank-failure recovery.
///
/// Collective over `comm`: every member must call it with consistent
/// arguments and an equivalent `source`. On a peer death mid-transform the
/// survivors converge (agree → revoke → shrink → re-decompose → re-fetch →
/// retry) and each returns its slab of the recomputed result under the
/// shrunk world; the caller learns the new geometry from the outcome. All
/// error returns are symmetric across survivors except the per-rank typed
/// error of a fatal (non-failure) attempt.
#[expect(clippy::too_many_arguments, reason = "inputs of one collective call")]
#[expect(clippy::disallowed_methods, reason = "the ULFM steps live here")]
pub fn run_recoverable(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    source: &dyn SlabSource,
    cfg: &RecoverConfig,
    recorder: &mut dyn Recorder,
) -> Result<RecoverOutcome, Error> {
    let mut resilience = cfg.resilience;
    if resilience.stall_timeout.is_none() {
        resilience.stall_timeout = Some(Duration::from_millis(200));
    }
    let started = Instant::now();
    let mut owned: Option<Comm> = None;
    let mut spec_cur = spec;
    let mut params_cur = params;
    let mut lost: Vec<usize> = Vec::new();
    let mut last_err: Option<Error> = None;

    for attempt in 1..=cfg.max_attempts.max(1) {
        let cur = owned.as_ref().unwrap_or(comm);
        spec_cur.p = cur.size();

        // Fetch this attempt's input and agree on availability before
        // spending any compute: one unrecoverable slab fails everyone with
        // the same typed error. The prepare hook runs first so cooperative
        // sources (parity reconstruction) can rebuild lost data
        // collectively.
        source.prepare(cur, &spec_cur, &lost);
        let slab = source.slab(&spec_cur, cur.rank());
        let miss_flag = if slab.is_some() { 0 } else { FLAG_NO_SOURCE };
        let (flags, _) = cur.agree(miss_flag);
        if flags & FLAG_NO_SOURCE != 0 {
            return Err(Error::Unrecoverable(
                "a survivor's input slab has no surviving source",
            ));
        }
        let slab = slab.ok_or(Error::Internal("agreed-present slab missing"))?;

        // One attempt is one session executed once, freed before the vote.
        let result = FftSession::new(cur, spec_cur, variant, params_cur, dir, Rigor::Estimate)
            .execute_traced(&slab, &resilience, recorder);

        // Per-attempt consensus: ranks that finished cleanly must still
        // join recovery when any peer erred (the dead rank's neighbours
        // can be stuck while distant ranks completed every tile).
        let my_flag = result.as_ref().err().map_or(0, classify);
        let (flags, agreed_failed) = cur.agree(my_flag);

        if flags == 0 {
            let output = result?;
            if let Some(tol) = cfg.verify_energy {
                verify_parseval(cur, &spec_cur, &slab, &output, tol)?;
            }
            return Ok(RecoverOutcome {
                output,
                spec: spec_cur,
                rank: cur.rank(),
                comm: owned,
                attempts: attempt,
                lost,
            });
        }
        if flags & FLAG_FATAL != 0 {
            // Retrying cannot fix a parameter or invariant error. Each rank
            // reports its own typed error; clean ranks learn a peer's.
            return Err(result.err().unwrap_or(Error::Unrecoverable(
                "a peer hit a non-recoverable error during the transform",
            )));
        }
        last_err = result.err();

        // Failure-class error somewhere: rebuild the world. Revoke first so
        // any straggler still progressing an old exchange is poisoned out
        // of it instead of waiting on a peer that has moved on.
        cur.revoke();
        if recorder.enabled() {
            let t = started.elapsed().as_secs_f64();
            for &r in &agreed_failed {
                recorder.record(TraceEvent {
                    start: t,
                    end: t,
                    kind: EventKind::RankLost { rank: r },
                });
            }
        }
        let from = cur.size();
        let shrunk = cur.shrink();
        let to = shrunk.size();
        if recorder.enabled() {
            let t = started.elapsed().as_secs_f64();
            recorder.record(TraceEvent {
                start: t,
                end: t,
                kind: EventKind::Shrink { from, to },
            });
        }
        for r in agreed_failed {
            if !lost.contains(&r) {
                lost.push(r);
            }
        }
        lost.sort_unstable();
        if to != from {
            // The decomposition changes: re-seed the schedule parameters
            // for the surviving world (thread budget is preserved). The
            // caller's hand-tuned schedule was tuned for the old `p`.
            let mut p2 = spec_cur;
            p2.p = to;
            let threads = params_cur.threads;
            params_cur = TuningParams::seed(&p2);
            params_cur.threads = threads;
        }
        owned = Some(shrunk);
    }
    Err(last_err.unwrap_or(Error::Unrecoverable("recovery attempts exhausted")))
}

/// Parseval self-check over the surviving world: for the unnormalised
/// kernels `Σ|X|² = N·Σ|x|²` (both directions), within `tol` relative.
fn verify_parseval(
    comm: &Comm,
    spec: &ProblemSpec,
    input: &[Complex64],
    output: &RunOutput,
    tol: f64,
) -> Result<(), Error> {
    let e_in: f64 = input.iter().map(|c| c.norm_sqr()).sum();
    let e_out: f64 = output.data.iter().map(|c| c.norm_sqr()).sum();
    let sums = comm.allreduce_sum(&[e_in, e_out]);
    let n = (spec.nx * spec.ny * spec.nz) as f64;
    let expect = n * sums[0];
    if (sums[1] - expect).abs() > tol * expect.max(f64::MIN_POSITIVE) {
        return Err(Error::VerificationFailed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::test_field;

    #[test]
    fn replica_source_cuts_the_same_slab_as_the_direct_builder() {
        let spec = ProblemSpec {
            nx: 6,
            ny: 5,
            nz: 4,
            p: 3,
        };
        let full = Arc::new(crate::serial::full_test_array(spec.nx, spec.ny, spec.nz));
        let src = ReplicaSource::new(full);
        for rank in 0..spec.p {
            let direct = crate::real_env::local_test_slab(&spec, rank);
            assert_eq!(src.slab(&spec, rank).as_deref(), Some(&direct[..]));
        }
        // Wrong-size replica refuses rather than mis-slicing.
        let short = ReplicaSource::new(Arc::new(vec![Complex64::ZERO; 7]));
        assert!(short.slab(&spec, 0).is_none());
    }

    #[test]
    fn compute_source_matches_replica_source_on_every_decomposition() {
        let base = ProblemSpec {
            nx: 8,
            ny: 6,
            nz: 3,
            p: 4,
        };
        let full = Arc::new(crate::serial::full_test_array(base.nx, base.ny, base.nz));
        let replica = ReplicaSource::new(full);
        let compute = ComputeSource::new(test_field);
        for p in 1..=4 {
            let spec = ProblemSpec { p, ..base };
            for rank in 0..p {
                assert_eq!(
                    compute.slab(&spec, rank),
                    replica.slab(&spec, rank),
                    "p={p} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn sources_refuse_malformed_specs_instead_of_panicking() {
        let spec = ProblemSpec {
            nx: 6,
            ny: 5,
            nz: 4,
            p: 3,
        };
        let full = Arc::new(crate::serial::full_test_array(spec.nx, spec.ny, spec.nz));
        let src = ReplicaSource::new(full);
        // A rank outside the decomposition used to panic in the axis
        // split; it must refuse instead — `run_recoverable` turns the
        // refusal into a typed `Unrecoverable`.
        assert!(src.slab(&spec, spec.p).is_none());
        assert!(src.slab(&spec, usize::MAX).is_none());
        let empty = ProblemSpec { p: 0, ..spec };
        assert!(src.slab(&empty, 0).is_none());
        // Same guards on the generator-backed source.
        let compute = ComputeSource::new(test_field);
        assert!(compute.slab(&spec, spec.p).is_none());
        assert!(compute.slab(&empty, 0).is_none());
    }

    #[test]
    fn xor_parity_round_trips_bit_patterns() {
        let a = Complex64::new(1.5, -0.000123);
        let b = Complex64::new(-7.25e100, 3.0);
        let mut acc = vec![a, b];
        let piece = vec![b, a];
        xor_into(&mut acc, &piece);
        xor_into(&mut acc, &piece);
        assert_eq!(acc[0].re.to_bits(), a.re.to_bits());
        assert_eq!(acc[1].im.to_bits(), b.im.to_bits());
    }

    /// XOR-parity reconstruction: capture once, then for every possible
    /// single loss the survivors rebuild the lost slab bit-exactly, and
    /// the parity-backed source agrees with the replica-backed one (which
    /// in turn agrees with the compute-backed one) on every slab of the
    /// shrunk decomposition.
    #[test]
    fn parity_checkpoint_rebuilds_any_single_lost_rank_bit_exactly() {
        let spec = ProblemSpec {
            nx: 7,
            ny: 5,
            nz: 3,
            p: 4,
        };
        let full = Arc::new(crate::serial::full_test_array(spec.nx, spec.ny, spec.nz));
        let fullc = Arc::clone(&full);
        mpisim::run(spec.p, move |comm| {
            let me = comm.rank();
            let own = crate::real_env::local_test_slab(&spec, me);
            let ckpt = Checkpoint::capture(&comm, &spec, &own);
            // Overhead: one stripe ≈ a (p−1)-th of the largest slab, not a
            // full replica.
            assert_eq!(ckpt.parity_elements(), (2 * 5 * 3usize).div_ceil(3));
            assert_eq!(ckpt.memory_elements(), own.len() + ckpt.parity_elements());
            let src = ckpt.into_source();
            let replica = ReplicaSource::new(Arc::clone(&fullc));
            let compute = ComputeSource::new(test_field);
            for lost in 0..spec.p {
                // The "lost" rank sits this round out; survivors regroup.
                let color = if me == lost { -1 } else { 0 };
                let Some(sub) = comm.split(color, me as i64) else {
                    continue;
                };
                let mut spec2 = spec;
                spec2.p = sub.size();
                src.prepare(&sub, &spec2, &[lost]);
                for r in 0..spec2.p {
                    let got = src.slab(&spec2, r).expect("rebuilt slab");
                    let want = replica.slab(&spec2, r).expect("replica slab");
                    assert_eq!(got, want, "lost={lost} rank={r}");
                    assert_eq!(compute.slab(&spec2, r).as_ref(), Some(&want));
                }
            }
            // Intact membership again: the source serves the snapshot.
            src.prepare(&comm, &spec, &[]);
            assert_eq!(src.slab(&spec, me), Some(own));
        });
    }

    /// Two losses exceed what one XOR stripe covers: the source refuses
    /// (slab `None` → `Unrecoverable` upstream) and files the MC007
    /// stale-checkpoint lint in checked runs.
    #[test]
    fn checkpoint_stale_after_two_losses_files_mc007() {
        use mpisim::{run_with_config, CheckConfig, RunConfig};
        let spec = ProblemSpec {
            nx: 8,
            ny: 4,
            nz: 3,
            p: 4,
        };
        let outcome = run_with_config(
            spec.p,
            RunConfig::checked(CheckConfig::default()),
            move |comm| {
                let me = comm.rank();
                let own = crate::real_env::local_test_slab(&spec, me);
                let ckpt = Checkpoint::capture_tagged(&comm, &spec, &own, 7);
                assert_eq!(ckpt.generation(), 7);
                assert_eq!(ckpt.members(), &[0, 1, 2, 3]);
                let src = ckpt.into_source();
                let color = if me <= 1 { -1 } else { 0 };
                if let Some(sub) = comm.split(color, me as i64) {
                    let mut spec2 = spec;
                    spec2.p = sub.size();
                    src.prepare(&sub, &spec2, &[0, 1]);
                    assert!(src.slab(&spec2, sub.rank()).is_none());
                }
            },
        );
        assert!(outcome.results.is_some(), "no deadlock");
        let mc007 = outcome
            .report
            .findings
            .iter()
            .filter(|f| f.id == mpisim::LintId::StaleCheckpoint)
            .count();
        assert_eq!(mc007, 2, "each survivor reports the stale checkpoint");
    }

    /// End-to-end: a rank dies mid-transform and the survivors recover the
    /// victim's input from parity stripes alone — no replica anywhere —
    /// then match the serial oracle.
    #[test]
    fn run_recoverable_heals_a_crash_from_parity_checkpoints() {
        use crate::real_env::compare_with_serial;
        use crate::serial::fft3_serial;
        let spec = ProblemSpec::cube(8, 3);
        let params = TuningParams::seed(&spec);
        let mut reference = crate::serial::full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(
            &mut reference,
            spec.nx,
            spec.ny,
            spec.nz,
            Direction::Forward,
        );
        let reference = Arc::new(reference);
        let victim = 1;
        let faults = faultplan::FaultPlan::seeded(0xc0ffee).with_rank_crash(victim, 1);
        let results = mpisim::run_crashable(spec.p, faults, move |comm| {
            let own = crate::real_env::local_test_slab(&spec, comm.rank());
            let src = Checkpoint::capture(&comm, &spec, &own).into_source();
            let outcome = run_recoverable(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                &src,
                &RecoverConfig::default(),
                &mut crate::trace::NoopRecorder,
            )
            .expect("parity recovery succeeds");
            assert_eq!(outcome.lost, vec![victim]);
            assert_eq!(outcome.spec.p, spec.p - 1);
            compare_with_serial(&outcome.spec, outcome.rank, &outcome.output, &reference)
        });
        let tol = 1e-9 * spec.len() as f64;
        for (rank, err) in results.into_iter().enumerate() {
            match err {
                None => assert_eq!(rank, victim),
                Some(e) => assert!(e < tol, "rank {rank} err {e}"),
            }
        }
    }

    #[test]
    fn error_classification_separates_failure_from_fatal() {
        assert_eq!(
            classify(&Error::RankFailed { tile: 0, rank: 1 }),
            FLAG_FAILURE
        );
        assert_eq!(classify(&Error::Revoked { tile: 0 }), FLAG_FAILURE);
        assert_eq!(
            classify(&Error::Stalled {
                tile: 0,
                round: 0,
                peer: 0
            }),
            FLAG_FAILURE
        );
        assert_eq!(classify(&Error::Internal("bug")), FLAG_FATAL);
        assert_eq!(classify(&Error::VerificationFailed), FLAG_FATAL);
    }
}
