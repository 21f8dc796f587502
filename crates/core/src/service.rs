//! Multi-tenant FFT service: admission control, deadlines, and tenant
//! fault isolation (DESIGN.md §19).
//!
//! Every robustness layer so far protects **one transform at a time**.
//! This module is the job-queue front end above them: tenants submit
//! [`JobSpec`]s (problem size, direction, priority, deadline), and a
//! deterministic discrete-event scheduler co-schedules the resulting
//! overlapped pipelines over one simulated cluster. Concurrent jobs
//! contend for the same links — each in-flight all-to-all drains at
//! [`simnet::model::NetModel::effective_bw`] with the *cluster-wide*
//! number of active exchanges, so admitting one more job degrades every
//! tenant's β_eff, exactly as §4 of the paper observes for co-scheduled
//! windows.
//!
//! The robustness core:
//!
//! * **Admission control** — completion time is predicted from the same
//!   cost table (`crate::stage`) and the same windowed driver
//!   ([`crate::pipeline`]) the simulated pipelines run on, so the
//!   controller can never disagree with the simulation it gates. Jobs that cannot meet their deadline, or that would overflow
//!   their tenant's bounded queue, are shed with a typed
//!   [`Admission::Rejected`] reason instead of being accepted and killed
//!   later (backpressure, not unbounded growth).
//! * **Deficit round-robin fairness** — the cluster's compute is arbitrated
//!   per tenant with a deficit counter, so a tenant flooding the queue
//!   cannot starve another; priorities order jobs *within* a tenant.
//! * **Deadline watchdogs** — an admitted job that overruns its deadline
//!   (admission is a prediction, not a guarantee) is cancelled with a typed
//!   reason and its in-flight exchanges are torn down immediately,
//!   returning bandwidth to everyone else.
//! * **Retry with [`Backoff`]** — a job killed by its own injected
//!   [`FaultPlan`] crash is retried after a deterministic, jittered pause
//!   (the same pure [`Backoff::park`] arithmetic mpisim's waits use), up to
//!   `max_attempts`.
//! * **Tenant isolation** — one tenant's faults are scoped to its own
//!   jobs ([`FaultPlan::scoped`]); on the data layer
//!   ([`Service::run_with_data`]) every other tenant's spectrum must stay
//!   bit-exact vs serial, which `tests/service.rs` pins.
//!
//! Same-geometry jobs share plan state: the first job of a geometry pays
//! the per-tile exchange-setup overhead, later ones ride the persistent
//! plan (§15's setup-once/execute-many, lifted to the service layer), the
//! scheduler-level analogue of sharing `PlanCache`.
//! A tenant's same-geometry job train can also be submitted as one fused
//! [`JobSpec::arrays`] batch, whose program keeps the window open across
//! array boundaries — the inter-array pipeline shape of
//! [`crate::sim_env::Simulation::arrays`].
//!
//! Everything on the timing layer is a pure function of (jobs, config):
//! no wall clock, no hash-map iteration, no thread scheduling — the same
//! submission always yields the same [`ServiceReport`].

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::expect_used))]

use crate::decomp::{auto_select, Decomposition};
use crate::error::Error;
use crate::params::{ProblemSpec, TuningParams};
use crate::pencil::{
    compare_pencil_with_serial, pencil_blocking, pencil_seed, pencil_test_input, PencilSession,
};
use crate::pipeline::{block_on, try_run_new, OverlapEnv, Resilience};
use crate::real_env::{compare_with_serial, local_test_slab, FftSession, Variant};
use crate::recover::{run_recoverable, RecoverConfig, ReplicaSource};
use crate::serial::{fft3_serial, full_test_array};
use crate::stage::{self, Phase, StageCosts};
use crate::trace::NoopRecorder;
use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use faultplan::FaultKind;
use mpisim::{Backoff, FaultPlan};
use simnet::model::NetModel;
use simnet::Platform;
use std::sync::Arc;

/// Absolute tolerance for event-time comparisons (virtual seconds).
const EPS: f64 = 1e-12;
/// Residual fluid volume (bytes) below which a flow counts as drained.
const BYTE_EPS: f64 = 1e-6;

// ---------------------------------------------------------------------------
// Public job / outcome types
// ---------------------------------------------------------------------------

/// One tenant's transform request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Submitting tenant.
    pub tenant: usize,
    /// Problem geometry (`spec.p` is ignored; the service's rank count
    /// applies).
    pub spec: ProblemSpec,
    /// Transform direction.
    pub dir: Direction,
    /// Priority within the tenant *and* the admission class: under
    /// overload, lower-priority jobs are shed first. Higher is better.
    pub priority: u8,
    /// Relative deadline in virtual seconds after submission; `None`
    /// accepts any completion time.
    pub deadline: Option<f64>,
    /// Submission time (virtual seconds from the epoch of the batch).
    pub arrival: f64,
    /// Arrays in this job train (> 1 fuses them into one pipeline, as
    /// [`crate::sim_env::Simulation::arrays`] does).
    pub arrays: usize,
    /// Faults this job brings with it (crashes, stragglers, slow links) —
    /// scoped to this job alone, never to other tenants.
    pub faults: FaultPlan,
}

impl JobSpec {
    /// A plain job: priority 0, no deadline, arrival at 0, one array, no
    /// faults.
    pub fn new(tenant: usize, spec: ProblemSpec, dir: Direction) -> Self {
        JobSpec {
            tenant,
            spec,
            dir,
            priority: 0,
            deadline: None,
            arrival: 0.0,
            arrays: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Sets the priority (higher survives overload longer).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the relative deadline.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the arrival time.
    pub fn at(mut self, arrival: f64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Submits a fused train of `arrays` same-geometry transforms.
    pub fn with_arrays(mut self, arrays: usize) -> Self {
        self.arrays = arrays;
        self
    }

    /// Attaches this job's fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Why the admission controller refused a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The job can never run: invalid geometry or tuning parameters.
    Infeasible(Error),
    /// The tenant's bounded queue is full — backpressure, resubmit later.
    QueueFull {
        /// The per-tenant live-job bound that was hit.
        limit: usize,
    },
    /// The cost model predicts the job cannot meet its deadline given the
    /// backlog of work at its priority or above.
    DeadlineUnmeetable {
        /// Predicted completion (virtual seconds after submission).
        predicted: f64,
        /// The deadline that cannot be met.
        deadline: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Infeasible(e) => write!(f, "infeasible job: {e}"),
            RejectReason::QueueFull { limit } => {
                write!(f, "tenant queue full ({limit} live jobs)")
            }
            RejectReason::DeadlineUnmeetable {
                predicted,
                deadline,
            } => write!(
                f,
                "deadline unmeetable: predicted {predicted:.3}s > deadline {deadline:.3}s"
            ),
        }
    }
}

/// Why a previously admitted job was cancelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CancelReason {
    /// The deadline watchdog fired: the job overran its deadline and its
    /// bandwidth was reclaimed.
    DeadlineExceeded {
        /// The relative deadline that was exceeded.
        deadline: f64,
    },
    /// The job's faults killed every allowed attempt; carries the last
    /// attempt's error.
    RetriesExhausted(Error),
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:.3}s exceeded")
            }
            CancelReason::RetriesExhausted(e) => write!(f, "retries exhausted: {e}"),
        }
    }
}

/// The admission controller's verdict for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Admitted; carries the predicted completion (virtual seconds after
    /// submission) the decision was based on.
    Accepted {
        /// Predicted completion time used for the decision.
        predicted: f64,
    },
    /// Shed at submission with a typed reason.
    Rejected {
        /// Why the job was not admitted.
        reason: RejectReason,
    },
}

/// Terminal state of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// Shed by the admission controller.
    Rejected(RejectReason),
    /// Ran to completion.
    Completed {
        /// Flow completion time: finish − submission (virtual seconds).
        fct: f64,
    },
    /// Admitted, then cancelled.
    Cancelled {
        /// Virtual time of the cancellation.
        at: f64,
        /// Why it was cancelled.
        reason: CancelReason,
    },
}

impl JobOutcome {
    /// Flow completion time for completed jobs.
    pub fn fct(&self) -> Option<f64> {
        match self {
            JobOutcome::Completed { fct } => Some(*fct),
            _ => None,
        }
    }

    /// `true` for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

impl std::fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutcome::Rejected(r) => write!(f, "rejected: {r}"),
            JobOutcome::Completed { fct } => write!(f, "completed in {fct:.3}s"),
            JobOutcome::Cancelled { at, reason } => {
                write!(f, "cancelled at {at:.3}s: {reason}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration and reports
// ---------------------------------------------------------------------------

/// Service-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated cluster every job runs on.
    pub platform: Platform,
    /// Ranks of the shared cluster; every job is decomposed over all of
    /// them (`decomp::auto_select` picks slab or pencil per geometry).
    pub ranks: usize,
    /// Per-tenant bound on live (admitted, unfinished) jobs; submissions
    /// past it are shed with [`RejectReason::QueueFull`].
    pub queue_limit: usize,
    /// Deficit-round-robin quantum in CPU seconds per tenant turn.
    pub quantum: f64,
    /// Safety factor on predicted completion times (> 1 sheds earlier).
    pub headroom: f64,
    /// Transform attempts per job before [`CancelReason::RetriesExhausted`].
    pub max_attempts: u32,
    /// Retry pacing for fault-killed jobs; its deterministic jitter
    /// ([`Backoff::park`]) spaces competing retries apart.
    pub backoff: Backoff,
}

impl ServiceConfig {
    /// Defaults: queue limit 8, 25 ms quantum, 1.2× headroom, 3 attempts,
    /// the default seeded backoff.
    pub fn new(platform: Platform, ranks: usize) -> Self {
        ServiceConfig {
            platform,
            ranks,
            queue_limit: 8,
            quantum: 25e-3,
            headroom: 1.2,
            max_attempts: 3,
            backoff: Backoff::default().with_seed(0x5eed_cafe),
        }
    }
}

/// What one job would cost running alone on the cluster (cold plan
/// caches): the baseline FCT slowdowns are measured against, and the byte
/// total the conservation check compares with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsolatedRun {
    /// Completion time with no other tenant present (virtual seconds).
    pub time: f64,
    /// Logical bytes one rank puts on the wire, over all attempts.
    pub bytes: u64,
    /// Attempts consumed (1 unless the job's own faults kill it).
    pub attempts: u32,
}

/// Per-job accounting in a [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into the submitted batch.
    pub job: usize,
    /// Submitting tenant.
    pub tenant: usize,
    /// Job priority.
    pub priority: u8,
    /// Submission time.
    pub submitted: f64,
    /// Terminal state.
    pub outcome: JobOutcome,
    /// Virtual time the job reached its terminal state (`None` for
    /// rejections, which never start).
    pub finished_at: Option<f64>,
    /// Isolated-run baseline (zeroed for infeasible jobs).
    pub isolated: f64,
    /// Isolated-run wire bytes.
    pub isolated_bytes: u64,
    /// Wire bytes actually exchanged in the shared run.
    pub bytes: u64,
    /// Attempts consumed.
    pub attempts: u32,
    /// Decomposition `auto_select` chose (`None` if infeasible).
    pub decomp: Option<Decomposition>,
    /// `true` when the job rode an already-built exchange plan (shared
    /// persistent-plan cache; it skips the per-tile setup overhead).
    pub plan_reused: bool,
}

impl JobRecord {
    /// FCT for completed jobs.
    pub fn fct(&self) -> Option<f64> {
        self.outcome.fct()
    }

    /// Slowdown vs the isolated run, for completed jobs.
    pub fn slowdown(&self) -> Option<f64> {
        let fct = self.outcome.fct()?;
        (self.isolated > 0.0).then(|| fct / self.isolated)
    }
}

/// Order statistics over a set of per-job values (FCTs or slowdowns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FctStats {
    /// Values the statistics are over.
    pub count: usize,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl FctStats {
    fn from_values(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        let count = values.len();
        if count == 0 {
            return FctStats::default();
        }
        let pick = |pct: f64| {
            let idx = ((pct / 100.0 * count as f64).ceil() as usize).max(1) - 1;
            values[idx.min(count - 1)]
        };
        FctStats {
            count,
            p50: pick(50.0),
            p99: pick(99.0),
            mean: values.iter().sum::<f64>() / count as f64,
            max: values[count - 1],
        }
    }
}

/// Per-tenant accounting.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant id.
    pub tenant: usize,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs shed at admission.
    pub rejected: usize,
    /// Jobs cancelled after admission.
    pub cancelled: usize,
    /// Mean slowdown of this tenant's completed jobs (0 if none).
    pub mean_slowdown: f64,
    /// Wire bytes this tenant's completed jobs exchanged.
    pub bytes: u64,
}

/// Everything the service observed for one submitted batch.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-job records, in submission-batch order.
    pub jobs: Vec<JobRecord>,
    /// Per-tenant summaries, ascending by tenant id.
    pub tenants: Vec<TenantStats>,
    /// FCT statistics over completed jobs.
    pub fct: FctStats,
    /// Slowdown (FCT / isolated) statistics over completed jobs.
    pub slowdown: FctStats,
    /// Jain fairness index over per-tenant mean slowdowns (1.0 = perfectly
    /// fair; ≥ 0.9 is the acceptance bar).
    pub jain: f64,
    /// Virtual time the last job reached a terminal state.
    pub makespan: f64,
    /// Jobs that rode a shared exchange plan instead of building their own.
    pub plan_reuses: usize,
}

impl ServiceReport {
    /// Completed-job count.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|r| r.outcome.is_completed())
            .count()
    }

    /// Rejected-job count.
    pub fn rejected(&self) -> usize {
        self.jobs
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
            .count()
    }

    /// Cancelled-job count.
    pub fn cancelled(&self) -> usize {
        self.jobs
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Cancelled { .. }))
            .count()
    }
}

/// Real-data result of one completed job ([`Service::run_with_data`]).
#[derive(Debug, Clone)]
pub struct JobData {
    /// The spec the final attempt ran with (`p` shrinks after recovery).
    pub spec: ProblemSpec,
    /// Per-world-rank output blocks (`None` for ranks lost to a crash).
    pub slabs: Vec<Option<Vec<Complex64>>>,
    /// Worst per-rank error vs the serial reference.
    pub max_err: f64,
    /// World ranks lost to this job's own faults.
    pub lost: Vec<usize>,
    /// Transform attempts the data layer consumed (1 for a clean job).
    pub attempts: u32,
}

// ---------------------------------------------------------------------------
// Job profiles: the step/flow program a job runs on the engine
// ---------------------------------------------------------------------------

/// One scheduler-visible step of a job's pipeline program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// CPU work in (already fault-scaled) seconds; arbitrated by DRR.
    Compute(f64),
    /// Activate flow `i` — the non-blocking post, free at this level.
    Post(usize),
    /// Block until flow `i` has fully drained; consuming it credits its
    /// logical bytes.
    Wait(usize),
}

/// One all-to-all exchange as the fluid network model sees it.
#[derive(Debug, Clone, Copy)]
struct FlowSpec {
    /// Remaining volume in bytes (schedule rounds × round bytes, inflated
    /// by any link degradation).
    fluid: f64,
    /// Fixed latency (α per round), drained after the bytes.
    latency: f64,
    /// Unscaled wire bytes credited when the flow is consumed.
    logical: u64,
    /// Communicator size of the exchange (sets its contention β_eff).
    group: usize,
    /// Seconds this flow needs alone on the link (for backlog prediction).
    serial: f64,
}

/// Where a job's injected crash bites: just before `step` (the post of
/// communication tile `tile`, the convention [`FaultKind::RankCrash`]
/// uses) on the first attempt.
#[derive(Debug, Clone, Copy)]
struct CrashMark {
    step: usize,
    tile: usize,
    rank: usize,
}

/// A job compiled to the engine's step/flow program, priced on the same
/// cost model the pipelines run on.
#[derive(Debug, Clone, Default)]
struct JobProfile {
    steps: Vec<Step>,
    flows: Vec<FlowSpec>,
    /// Total CPU seconds (for the admission backlog estimate).
    compute_total: f64,
    /// Total serialized network seconds (ditto).
    net_total: f64,
    crash: Option<CrashMark>,
}

/// Exchange-geometry key for the shared persistent-plan cache:
/// `(grid rows or 0 for slab, nx, ny, nz, p, t)`.
type GeomKey = (usize, usize, usize, usize, usize, usize);

/// Records the step/flow program of a job from the calls
/// [`crate::pipeline::try_run_new`] makes while it drives each
/// [`StageCosts`] of the job: when a tile is posted and when it is waited is
/// the driver's decision, here as on every other backend.
struct Emitter<'a> {
    net: &'a NetModel,
    /// The program so far.
    out: JobProfile,
    compute_scale: f64,
    link_scale: f64,
    /// Whether every post pays the exchange-setup cost of its subgroup
    /// (`false` once the geometry's plan is shared).
    cold: bool,
    /// `(tile, rank)` of the job's injected crash; tiles count the job's
    /// posts, across stages and arrays.
    crash_tile: Option<(usize, usize)>,
    posts: usize,
}

impl Emitter<'_> {
    fn compute(&mut self, secs: f64) {
        let s = secs * self.compute_scale;
        if s > 0.0 {
            self.out.steps.push(Step::Compute(s));
            self.out.compute_total += s;
        }
    }

    /// Appends the program of `arrays` back-to-back arrays through one
    /// exchange stage (array boundaries keep the window open — the fused
    /// job-train shape of [`crate::sim_env::Simulation::arrays`]).
    fn emit(&mut self, stage: &StageCosts, arrays: usize) -> Result<(), Error> {
        let mut run = StageProgram {
            em: self,
            stage,
            arrays,
        };
        block_on(try_run_new(&mut run, &Resilience::default())).map(drop)
    }

    fn into_profile(mut self) -> JobProfile {
        // A crash tile past the end of the job bites at the last post.
        if let (Some((tile, rank)), None) = (self.crash_tile, self.out.crash) {
            let is_post = |s: &Step| matches!(s, Step::Post(_));
            if let Some(step) = self.out.steps.iter().rposition(is_post) {
                self.out.crash = Some(CrashMark { step, tile, rank });
            }
        }
        self.out
    }
}

/// One stage of a job under the pipeline driver; a request is the index of
/// the tile's flow. Compute phases become CPU steps (the engine arbitrates
/// them; polling is free at this level). Which phases run ahead of a post —
/// the array-train rule included — is the cost table's statement
/// ([`StageCosts::before_post`]), as it is for `sim_env::SimEnv`.
struct StageProgram<'e, 'a> {
    em: &'e mut Emitter<'a>,
    stage: &'e StageCosts,
    arrays: usize,
}

impl OverlapEnv for StageProgram<'_, '_> {
    type Req = usize;

    fn num_tiles(&self) -> usize {
        self.stage.train_tiles(self.arrays)
    }

    fn window(&self) -> usize {
        self.stage.window
    }

    fn fftz_transpose(&mut self) {
        for part in self.stage.fixed.iter().flat_map(|ph| &ph.parts) {
            self.em.compute(part.secs);
        }
    }

    async fn ffty_pack(
        &mut self,
        tile: usize,
        _inflight: &mut [(usize, usize)],
    ) -> Result<(), Error> {
        for part in self.stage.before_post(tile).flat_map(|ph| &ph.parts) {
            self.em.compute(part.secs);
        }
        Ok(())
    }

    async fn post_a2a(&mut self, tile: usize) -> usize {
        let em = &mut *self.em;
        let group = self.stage.group;
        let per_peer = self.stage.tile(tile).bytes_per_peer;
        let wire = em.net.exchange_bytes(group, per_peer);
        let fluid = wire as f64 * em.link_scale;
        let latency = em.net.exchange_latency(group, per_peer) * em.link_scale;
        let serial = fluid / em.net.effective_bw(group, 1) + latency;
        em.out.flows.push(FlowSpec {
            fluid,
            latency,
            logical: wire,
            group,
            serial,
        });
        em.out.net_total += serial;
        if em.cold {
            em.compute(em.net.post_overhead(group).as_secs_f64());
        }
        if let Some((tile, rank)) = em.crash_tile {
            if em.posts == tile && em.out.crash.is_none() {
                let step = em.out.steps.len();
                em.out.crash = Some(CrashMark { step, tile, rank });
            }
        }
        em.posts += 1;
        let flow = em.out.flows.len() - 1;
        em.out.steps.push(Step::Post(flow));
        flow
    }

    async fn wait(&mut self, _tile: usize, flow: usize) -> Result<(), (usize, Error)> {
        self.em.out.steps.push(Step::Wait(flow));
        Ok(())
    }

    async fn unpack_fftx(
        &mut self,
        tile: usize,
        _inflight: &mut [(usize, usize)],
    ) -> Result<(), Error> {
        let post = &self.stage.tile(tile).post;
        self.em.compute(post.iter().map(Phase::secs).sum());
        Ok(())
    }
}

/// The job's problem on this cluster's ranks.
fn cluster_spec(cfg: &ServiceConfig, job: &JobSpec) -> ProblemSpec {
    ProblemSpec {
        p: cfg.ranks,
        ..job.spec
    }
}

/// Decides the job's decomposition — once per job (two simulated runs);
/// the profile, the admission and the data layer all take it from here.
fn decide(cfg: &ServiceConfig, job: &JobSpec) -> Result<Decomposition, Error> {
    auto_select(cfg.platform.clone(), &cluster_spec(cfg, job), cfg.ranks)
}

/// Compiles one job, decomposed as `decomp`, to its engine program.
/// `reused` marks that the geometry's exchange plan already lives in the
/// shared cache, waiving the per-post setup overhead.
fn build_profile(
    cfg: &ServiceConfig,
    job: &JobSpec,
    decomp: Decomposition,
    reused: bool,
) -> Result<(JobProfile, GeomKey), Error> {
    let spec = cluster_spec(cfg, job);
    let machine = &cfg.platform.machine;
    let net = &cfg.platform.net;
    let compute_scale = (0..cfg.ranks)
        .map(|r| cfg.platform.faults.compute_factor(r) * job.faults.compute_factor(r))
        .fold(1.0, f64::max);
    let link_scale = cfg.platform.faults.link_factor() * job.faults.link_factor();
    let crash_tile = job
        .faults
        .crash
        .as_ref()
        .map(|FaultKind::RankCrash { rank, at_tile }| (*at_tile, *rank));
    let arrays = job.arrays.max(1);
    let mut em = Emitter {
        net,
        out: JobProfile::default(),
        compute_scale,
        link_scale,
        cold: !reused,
        crash_tile,
        posts: 0,
    };
    let key = match decomp {
        Decomposition::Slab => {
            let (params, tier) = Variant::New.resolve(&spec, TuningParams::seed(&spec));
            // Rank 0 carries the biggest blocks: the conservative price.
            em.emit(&stage::slab(machine, &spec, &params, 0, tier), arrays)?;
            (0, spec.nx, spec.ny, spec.nz, cfg.ranks, params.t)
        }
        Decomposition::Pencil(grid) => {
            let params = pencil_seed(&spec, grid);
            let [row, col] = stage::pencil(machine, &spec, grid, &params);
            for _ in 0..arrays {
                em.emit(&row, 1)?;
                em.emit(&col, 1)?;
            }
            (grid.pr, spec.nx, spec.ny, spec.nz, cfg.ranks, params.t)
        }
    };
    Ok((em.into_profile(), key))
}

// ---------------------------------------------------------------------------
// The discrete-event engine
// ---------------------------------------------------------------------------

/// One admitted job's live state.
struct Slot {
    job: usize,
    tenant: usize,
    priority: u8,
    submitted: f64,
    deadline_at: Option<f64>,
    profile: JobProfile,
    plan_reused: bool,
    next_step: usize,
    attempt: u32,
    retry_at: Option<f64>,
    blocked_on: Option<usize>,
    flow_done: Vec<bool>,
    compute_done: f64,
    net_done: f64,
    bytes: u64,
    finished: Option<(f64, JobOutcome)>,
}

impl Slot {
    /// A freshly admitted job at the start of its first attempt.
    fn new(
        job: usize,
        tenant: usize,
        priority: u8,
        submitted: f64,
        deadline_at: Option<f64>,
        profile: JobProfile,
        plan_reused: bool,
    ) -> Self {
        Slot {
            job,
            tenant,
            priority,
            submitted,
            deadline_at,
            flow_done: vec![false; profile.flows.len()],
            profile,
            plan_reused,
            next_step: 0,
            attempt: 1,
            retry_at: None,
            blocked_on: None,
            compute_done: 0.0,
            net_done: 0.0,
            bytes: 0,
            finished: None,
        }
    }

    fn alive(&self) -> bool {
        self.finished.is_none()
    }
}

/// One in-flight exchange sharing the cluster's links.
struct ActiveFlow {
    slot: usize,
    flow: usize,
    fluid: f64,
    latency: f64,
    group: usize,
}

impl ActiveFlow {
    fn eta(&self, rate: f64) -> f64 {
        self.fluid / rate + self.latency
    }

    fn drain(&mut self, dt: f64, rate: f64) {
        let bytes_time = self.fluid / rate;
        if dt >= bytes_time {
            self.fluid = 0.0;
            self.latency = (self.latency - (dt - bytes_time)).max(0.0);
        } else {
            self.fluid -= dt * rate;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Cpu {
    slot: usize,
    secs: f64,
    finish: f64,
}

struct Arrival {
    at: f64,
    job: usize,
}

struct Engine<'a> {
    cfg: &'a ServiceConfig,
    jobs: &'a [JobSpec],
    prepared: &'a [Result<(IsolatedRun, GeomKey, Decomposition), Error>],
    now: f64,
    slots: Vec<Slot>,
    active: Vec<ActiveFlow>,
    cpu: Option<Cpu>,
    tenants: Vec<usize>,
    deficit: Vec<f64>,
    cursor: usize,
    geoms: Vec<GeomKey>,
    rejections: Vec<(usize, f64, RejectReason)>,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        jobs: &'a [JobSpec],
        prepared: &'a [Result<(IsolatedRun, GeomKey, Decomposition), Error>],
        tenants: Vec<usize>,
    ) -> Self {
        let deficit = vec![0.0; tenants.len()];
        Engine {
            cfg,
            jobs,
            prepared,
            now: 0.0,
            slots: Vec::new(),
            active: Vec::new(),
            cpu: None,
            tenants,
            deficit,
            cursor: 0,
            geoms: Vec::new(),
            rejections: Vec::new(),
        }
    }

    fn bw(&self, group: usize, n_active: u32) -> f64 {
        self.cfg.platform.net.effective_bw(group, n_active)
    }

    /// Cluster-wide count of in-flight exchanges, saturating at the model's
    /// window-count width.
    fn active_windows(&self) -> u32 {
        u32::try_from(self.active.len()).unwrap_or(u32::MAX)
    }

    /// Predicted completion (relative seconds) for a job of `prio` with an
    /// isolated span of `iso`: the backlog of unfinished work at its
    /// priority or above on the binding resource (CPU or network — they
    /// overlap, so the max binds), plus its own span, padded by the
    /// headroom factor.
    fn predict(&self, prio: u8, iso: f64) -> f64 {
        let mut cpu_backlog = 0.0;
        let mut net_backlog = 0.0;
        for s in self
            .slots
            .iter()
            .filter(|s| s.alive() && s.priority >= prio)
        {
            cpu_backlog += (s.profile.compute_total - s.compute_done).max(0.0);
            net_backlog += (s.profile.net_total - s.net_done).max(0.0);
        }
        (cpu_backlog.max(net_backlog) + iso) * self.cfg.headroom
    }

    fn admission(&self, j: usize) -> Admission {
        let job = &self.jobs[j];
        let (iso, _, _) = match &self.prepared[j] {
            Ok(v) => v,
            Err(e) => {
                return Admission::Rejected {
                    reason: RejectReason::Infeasible(*e),
                }
            }
        };
        let live = self
            .slots
            .iter()
            .filter(|s| s.tenant == job.tenant && s.alive())
            .count();
        if live >= self.cfg.queue_limit {
            return Admission::Rejected {
                reason: RejectReason::QueueFull {
                    limit: self.cfg.queue_limit,
                },
            };
        }
        let predicted = self.predict(job.priority, iso.time);
        if let Some(deadline) = job.deadline {
            if predicted > deadline {
                return Admission::Rejected {
                    reason: RejectReason::DeadlineUnmeetable {
                        predicted,
                        deadline,
                    },
                };
            }
        }
        Admission::Accepted { predicted }
    }

    fn admit(&mut self, j: usize) {
        match self.admission(j) {
            Admission::Rejected { reason } => {
                self.rejections.push((j, self.now, reason));
            }
            Admission::Accepted { .. } => {
                let job = &self.jobs[j];
                let (key, decomp) = match &self.prepared[j] {
                    Ok((_, key, decomp)) => (*key, *decomp),
                    Err(e) => {
                        self.rejections
                            .push((j, self.now, RejectReason::Infeasible(*e)));
                        return;
                    }
                };
                let reused = self.geoms.contains(&key);
                if !reused {
                    self.geoms.push(key);
                }
                let profile = match build_profile(self.cfg, job, decomp, reused) {
                    Ok((profile, _)) => profile,
                    Err(e) => {
                        self.rejections
                            .push((j, self.now, RejectReason::Infeasible(e)));
                        return;
                    }
                };
                let i = self.slots.len();
                let deadline_at = job.deadline.map(|d| self.now + d);
                self.slots.push(Slot::new(
                    j,
                    job.tenant,
                    job.priority,
                    self.now,
                    deadline_at,
                    profile,
                    reused,
                ));
                self.progress(i);
            }
        }
    }

    /// Pushes this slot's program forward through every step that costs
    /// nothing at the engine level, stopping at a CPU step (DRR's job), a
    /// wait on an undrained flow, or the end of the program.
    fn progress(&mut self, i: usize) {
        loop {
            if self.slots[i].finished.is_some() {
                return;
            }
            let next = self.slots[i].next_step;
            if next >= self.slots[i].profile.steps.len() {
                let fct = self.now - self.slots[i].submitted;
                self.slots[i].finished = Some((self.now, JobOutcome::Completed { fct }));
                return;
            }
            if self.slots[i].attempt == 1 {
                if let Some(c) = self.slots[i].profile.crash {
                    if c.step == next {
                        self.fail_attempt(i, c);
                        return;
                    }
                }
            }
            match self.slots[i].profile.steps[next] {
                Step::Compute(_) => return,
                Step::Post(f) => {
                    self.activate(i, f);
                    self.slots[i].next_step += 1;
                }
                Step::Wait(f) => {
                    if self.slots[i].flow_done[f] {
                        let fs = self.slots[i].profile.flows[f];
                        self.slots[i].bytes += fs.logical;
                        self.slots[i].net_done += fs.serial;
                        self.slots[i].next_step += 1;
                    } else {
                        self.slots[i].blocked_on = Some(f);
                        return;
                    }
                }
            }
        }
    }

    fn activate(&mut self, slot: usize, flow: usize) {
        let fs = self.slots[slot].profile.flows[flow];
        if fs.fluid <= BYTE_EPS && fs.latency <= EPS {
            // Degenerate exchange (single-rank group): completes at post.
            self.slots[slot].flow_done[flow] = true;
            return;
        }
        self.active.push(ActiveFlow {
            slot,
            flow,
            fluid: fs.fluid,
            latency: fs.latency,
            group: fs.group,
        });
    }

    /// The job's first attempt dies at its crash mark: tear down its
    /// flows (reclaiming their bandwidth share), then either schedule a
    /// backoff-paced retry or cancel with a typed reason.
    fn fail_attempt(&mut self, i: usize, c: CrashMark) {
        self.active.retain(|f| f.slot != i);
        if let Some(cpu) = &self.cpu {
            if cpu.slot == i {
                self.cpu = None;
            }
        }
        let salt = ((self.slots[i].job as u64) << 8) | self.slots[i].attempt as u64;
        let s = &mut self.slots[i];
        s.blocked_on = None;
        for d in s.flow_done.iter_mut() {
            *d = false;
        }
        s.next_step = 0;
        s.compute_done = 0.0;
        s.net_done = 0.0;
        s.attempt += 1;
        if s.attempt > self.cfg.max_attempts {
            let err = Error::RankFailed {
                tile: c.tile,
                rank: c.rank,
            };
            s.finished = Some((
                self.now,
                JobOutcome::Cancelled {
                    at: self.now,
                    reason: CancelReason::RetriesExhausted(err),
                },
            ));
            return;
        }
        let mut pause = self.cfg.backoff.first();
        for _ in 2..s.attempt {
            pause = self.cfg.backoff.next(pause);
        }
        let jittered = self.cfg.backoff.park(pause, salt).as_secs_f64();
        s.retry_at = Some(self.now + jittered);
    }

    /// Deadline watchdog (or operator) cancellation: terminal state plus
    /// immediate teardown of in-flight exchanges and any running compute.
    fn cancel(&mut self, i: usize, reason: CancelReason) {
        self.active.retain(|f| f.slot != i);
        if let Some(cpu) = &self.cpu {
            if cpu.slot == i {
                self.cpu = None;
            }
        }
        let s = &mut self.slots[i];
        s.blocked_on = None;
        s.retry_at = None;
        s.finished = Some((
            self.now,
            JobOutcome::Cancelled {
                at: self.now,
                reason,
            },
        ));
    }

    /// Highest-priority runnable job of `tenant` (lowest slot id breaks
    /// ties — FIFO within a priority).
    fn runnable(&self, tenant: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.tenant != tenant
                || !s.alive()
                || s.retry_at.is_some()
                || s.blocked_on.is_some()
                || s.next_step >= s.profile.steps.len()
                || !matches!(s.profile.steps[s.next_step], Step::Compute(_))
            {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if s.priority > self.slots[b].priority {
                        best = Some(i);
                    }
                }
            }
        }
        best
    }

    /// Deficit-round-robin arbitration of the shared compute: each tenant
    /// turn tops up its deficit by one quantum and runs compute steps until
    /// the deficit is spent; empty tenants forfeit their carry.
    fn dispatch_cpu(&mut self) {
        if self.cpu.is_some() {
            return;
        }
        let nt = self.tenants.len();
        for k in 0..nt {
            let ti = (self.cursor + k) % nt;
            let tenant = self.tenants[ti];
            let Some(i) = self.runnable(tenant) else {
                self.deficit[ti] = 0.0;
                continue;
            };
            if self.deficit[ti] <= 0.0 {
                self.deficit[ti] += self.cfg.quantum;
            }
            let Step::Compute(c) = self.slots[i].profile.steps[self.slots[i].next_step] else {
                continue;
            };
            self.deficit[ti] -= c;
            self.cursor = if self.deficit[ti] <= 0.0 {
                (ti + 1) % nt
            } else {
                ti
            };
            self.cpu = Some(Cpu {
                slot: i,
                secs: c,
                finish: self.now + c,
            });
            return;
        }
    }

    /// Advances the fluid network to `to`, completing every flow that
    /// drains on the way. Rates are constant between completions (each
    /// flow gets `effective_bw(group, n_active)` with the cluster-wide
    /// active count), so the walk visits each completion instant exactly.
    fn advance_flows(&mut self, to: f64) {
        loop {
            if self.active.is_empty() {
                break;
            }
            let n = self.active_windows();
            let mut first = f64::INFINITY;
            let mut argmin = 0;
            for (idx, f) in self.active.iter().enumerate() {
                let eta = f.eta(self.bw(f.group, n));
                if eta < first {
                    first = eta;
                    argmin = idx;
                }
            }
            if self.now + first > to + EPS {
                let dt = to - self.now;
                if dt > EPS {
                    for idx in 0..self.active.len() {
                        let rate = self.bw(self.active[idx].group, n);
                        self.active[idx].drain(dt, rate);
                    }
                }
                break;
            }
            let dt = first.max(0.0);
            for idx in 0..self.active.len() {
                let rate = self.bw(self.active[idx].group, n);
                self.active[idx].drain(dt, rate);
            }
            self.now += dt;
            // Float residue must not stall the walk: the argmin flow is
            // done by construction.
            self.active[argmin].fluid = 0.0;
            self.active[argmin].latency = 0.0;
            let mut done: Vec<(usize, usize)> = Vec::new();
            self.active.retain(|f| {
                if f.fluid <= BYTE_EPS && f.latency <= EPS {
                    done.push((f.slot, f.flow));
                    false
                } else {
                    true
                }
            });
            for (slot, flow) in done {
                self.slots[slot].flow_done[flow] = true;
                if self.slots[slot].blocked_on == Some(flow) {
                    self.slots[slot].blocked_on = None;
                    self.progress(slot);
                }
            }
        }
        self.now = to;
    }

    /// The event loop: repeatedly find the earliest of CPU completion,
    /// flow completion, retry release, arrival, and deadline; advance the
    /// fluid network there; fire everything due. Flow completions fire
    /// before deadlines at the same instant, so a job finishing exactly at
    /// its deadline counts as completed.
    fn drive(&mut self, arrivals: &[Arrival]) {
        let mut ai = 0;
        loop {
            self.dispatch_cpu();
            let mut t = f64::INFINITY;
            if let Some(c) = &self.cpu {
                t = t.min(c.finish);
            }
            if ai < arrivals.len() {
                t = t.min(arrivals[ai].at);
            }
            for s in &self.slots {
                if !s.alive() {
                    continue;
                }
                if let Some(r) = s.retry_at {
                    t = t.min(r);
                }
                if let Some(d) = s.deadline_at {
                    t = t.min(d);
                }
            }
            if !self.active.is_empty() {
                let n = self.active_windows();
                for f in &self.active {
                    t = t.min(self.now + f.eta(self.bw(f.group, n)));
                }
            }
            if !t.is_finite() {
                break;
            }
            let t = t.max(self.now);
            self.advance_flows(t);
            if let Some(c) = self.cpu {
                if c.finish <= self.now + EPS {
                    self.cpu = None;
                    self.slots[c.slot].compute_done += c.secs;
                    self.slots[c.slot].next_step += 1;
                    self.progress(c.slot);
                }
            }
            for i in 0..self.slots.len() {
                if self.slots[i].alive() {
                    if let Some(r) = self.slots[i].retry_at {
                        if r <= self.now + EPS {
                            self.slots[i].retry_at = None;
                        }
                    }
                }
            }
            while ai < arrivals.len() && arrivals[ai].at <= self.now + EPS {
                let j = arrivals[ai].job;
                ai += 1;
                self.admit(j);
            }
            for i in 0..self.slots.len() {
                if !self.slots[i].alive() {
                    continue;
                }
                if let Some(d) = self.slots[i].deadline_at {
                    if d <= self.now + EPS {
                        let deadline = d - self.slots[i].submitted;
                        self.cancel(i, CancelReason::DeadlineExceeded { deadline });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The service front end
// ---------------------------------------------------------------------------

/// The multi-tenant service: owns the policy, prices jobs, schedules
/// batches.
#[derive(Debug, Clone)]
pub struct Service {
    cfg: ServiceConfig,
}

impl Service {
    /// Builds a service over the given cluster policy.
    pub fn new(cfg: ServiceConfig) -> Self {
        Service { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Prices one job running alone on the cluster with cold plan caches:
    /// the slowdown baseline and the conservation reference.
    pub fn isolated_run(&self, job: &JobSpec) -> Result<IsolatedRun, Error> {
        let (profile, _) = build_profile(&self.cfg, job, decide(&self.cfg, job)?, false)?;
        Ok(run_isolated(&self.cfg, profile))
    }

    /// Runs a batch of submissions on the timing layer: admission,
    /// scheduling, contention, deadlines, retries — returning the full
    /// per-job / per-tenant accounting. Deterministic: a pure function of
    /// `(jobs, config)`.
    pub fn run(&self, jobs: &[JobSpec]) -> ServiceReport {
        // `decide` is a pure function of `(cfg, spec)` that costs two
        // simulated runs, so a run asks once per geometry — the decision-side
        // twin of the engine's plan-reuse table (`Engine::geoms`).
        let mut decided: Vec<(ProblemSpec, Result<Decomposition, Error>)> = Vec::new();
        let prepared: Vec<Result<(IsolatedRun, GeomKey, Decomposition), Error>> = jobs
            .iter()
            .map(|job| {
                let spec = cluster_spec(&self.cfg, job);
                let decomp = match decided.iter().find(|(known, _)| *known == spec) {
                    Some((_, decomp)) => *decomp,
                    None => {
                        let decomp = decide(&self.cfg, job);
                        decided.push((spec, decomp));
                        decomp
                    }
                }?;
                let (profile, key) = build_profile(&self.cfg, job, decomp, false)?;
                Ok((run_isolated(&self.cfg, profile), key, decomp))
            })
            .collect();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival).then(a.cmp(&b)));
        let arrivals: Vec<Arrival> = order
            .iter()
            .map(|&j| Arrival {
                at: jobs[j].arrival.max(0.0),
                job: j,
            })
            .collect();
        let mut tenants: Vec<usize> = jobs.iter().map(|j| j.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut eng = Engine::new(&self.cfg, jobs, &prepared, tenants.clone());
        eng.drive(&arrivals);
        assemble_report(jobs, &prepared, &tenants, eng)
    }

    /// Runs the batch on the timing layer, then executes every *completed*
    /// job on the real-data `mpisim` backend, in completion order, with
    /// each job's faults scoped to itself. Clean jobs run one `FftSession`
    /// (or `PencilSession`) execution; crashed jobs recover through
    /// [`run_recoverable`]. Returns the per-job data (indexed like the
    /// submission batch; `None` for jobs that did not complete) so tests
    /// can pin tenant isolation bit-for-bit.
    pub fn run_with_data(
        &self,
        jobs: &[JobSpec],
    ) -> Result<(ServiceReport, Vec<Option<JobData>>), Error> {
        let report = self.run(jobs);
        let mut data: Vec<Option<JobData>> = vec![None; jobs.len()];
        let mut done: Vec<(f64, usize)> = report
            .jobs
            .iter()
            .filter(|r| r.outcome.is_completed())
            .map(|r| (r.finished_at.unwrap_or(0.0), r.job))
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, j) in done {
            let decomp = report.jobs[j]
                .decomp
                .ok_or(Error::Internal("a completed job has a decomposition"))?;
            data[j] = Some(execute_job(&self.cfg, &jobs[j], decomp, j as u64)?);
        }
        Ok((report, data))
    }
}

/// Runs one compiled profile alone on a fresh engine.
fn run_isolated(cfg: &ServiceConfig, profile: JobProfile) -> IsolatedRun {
    let mut eng = Engine::new(cfg, &[], &[], vec![0]);
    eng.slots
        .push(Slot::new(0, 0, 0, 0.0, None, profile, false));
    eng.progress(0);
    eng.drive(&[]);
    let s = &eng.slots[0];
    IsolatedRun {
        time: s.finished.map(|(at, _)| at).unwrap_or(eng.now),
        bytes: s.bytes,
        attempts: s.attempt,
    }
}

fn assemble_report(
    jobs: &[JobSpec],
    prepared: &[Result<(IsolatedRun, GeomKey, Decomposition), Error>],
    tenants: &[usize],
    eng: Engine<'_>,
) -> ServiceReport {
    let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let (iso, decomp) = match &prepared[j] {
            Ok((iso, _, d)) => (*iso, Some(*d)),
            Err(_) => (
                IsolatedRun {
                    time: 0.0,
                    bytes: 0,
                    attempts: 0,
                },
                None,
            ),
        };
        let slot = eng.slots.iter().find(|s| s.job == j);
        let (submitted, finished_at, outcome) = if let Some(slot) = slot {
            let (at, outcome) = slot.finished.unwrap_or((
                eng.now,
                JobOutcome::Cancelled {
                    at: eng.now,
                    reason: CancelReason::RetriesExhausted(Error::Internal(
                        "job stranded at end of run",
                    )),
                },
            ));
            (slot.submitted, Some(at), outcome)
        } else if let Some((_, at, reason)) = eng.rejections.iter().find(|(rj, _, _)| *rj == j) {
            (*at, None, JobOutcome::Rejected(*reason))
        } else {
            // Unreachable: every submission either gets a slot or a
            // rejection. Keep the record total anyway.
            let never = Error::Internal("submission was never processed");
            let outcome = JobOutcome::Rejected(RejectReason::Infeasible(never));
            (job.arrival, None, outcome)
        };
        let record = JobRecord {
            job: j,
            tenant: job.tenant,
            priority: job.priority,
            submitted,
            outcome,
            finished_at,
            isolated: iso.time,
            isolated_bytes: iso.bytes,
            bytes: slot.map_or(0, |s| s.bytes),
            attempts: slot.map_or(0, |s| s.attempt),
            decomp,
            plan_reused: slot.is_some_and(|s| s.plan_reused),
        };
        records.push(record);
    }

    let fcts: Vec<f64> = records.iter().filter_map(JobRecord::fct).collect();
    let slowdowns: Vec<f64> = records.iter().filter_map(JobRecord::slowdown).collect();
    let mut tenant_stats = Vec::with_capacity(tenants.len());
    for &t in tenants {
        let mine: Vec<&JobRecord> = records.iter().filter(|r| r.tenant == t).collect();
        let completed: Vec<&&JobRecord> =
            mine.iter().filter(|r| r.outcome.is_completed()).collect();
        let slows: Vec<f64> = completed.iter().filter_map(|r| r.slowdown()).collect();
        tenant_stats.push(TenantStats {
            tenant: t,
            submitted: mine.len(),
            completed: completed.len(),
            rejected: mine
                .iter()
                .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
                .count(),
            cancelled: mine
                .iter()
                .filter(|r| matches!(r.outcome, JobOutcome::Cancelled { .. }))
                .count(),
            mean_slowdown: if slows.is_empty() {
                0.0
            } else {
                slows.iter().sum::<f64>() / slows.len() as f64
            },
            bytes: completed.iter().map(|r| r.bytes).sum(),
        });
    }
    let per_tenant_slow: Vec<f64> = tenant_stats
        .iter()
        .filter(|t| t.completed > 0)
        .map(|t| t.mean_slowdown)
        .collect();
    let jain = jain_index(&per_tenant_slow);
    let makespan = records
        .iter()
        .filter_map(|r| r.finished_at)
        .fold(0.0, f64::max);
    let plan_reuses = records.iter().filter(|r| r.plan_reused).count();
    ServiceReport {
        jobs: records,
        tenants: tenant_stats,
        fct: FctStats::from_values(fcts),
        slowdown: FctStats::from_values(slowdowns),
        jain,
        makespan,
        plan_reuses,
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 for an empty or uniform
/// set.
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sq)
}

// ---------------------------------------------------------------------------
// Real-data execution (tenant-isolation layer)
// ---------------------------------------------------------------------------

fn serial_reference(spec: &ProblemSpec, dir: Direction) -> Arc<Vec<Complex64>> {
    let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
    fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
    Arc::new(reference)
}

/// Executes one completed job, decomposed as the timing layer decided, on
/// the real-data backend with its faults scoped to itself (`salt` = the
/// job's batch index), sharing the process-global plan caches with every
/// job executed before it.
fn execute_job(
    cfg: &ServiceConfig,
    job: &JobSpec,
    decomp: Decomposition,
    salt: u64,
) -> Result<JobData, Error> {
    /// What one surviving rank hands back.
    struct Done {
        spec: ProblemSpec,
        data: Vec<Complex64>,
        err: f64,
        attempts: u32,
        lost: Vec<usize>,
    }
    let spec = cluster_spec(cfg, job);
    let dir = job.dir;
    let faults = job.faults.clone().scoped(salt);
    let reference = serial_reference(&spec, dir);
    let clean = move |data: Vec<Complex64>, err: f64| Done {
        spec,
        data,
        err,
        attempts: 1,
        lost: Vec::new(),
    };
    // Per world rank: `None` for a rank its own job's crash killed.
    let outs: Vec<Option<Result<Done, Error>>> = match decomp {
        Decomposition::Slab if faults.has_crash() => {
            let params = TuningParams::seed(&spec);
            let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
            mpisim::run_crashable(spec.p, faults, move |comm| {
                let oc = run_recoverable(
                    &comm,
                    spec,
                    Variant::New,
                    params,
                    dir,
                    &ReplicaSource::new(Arc::clone(&full)),
                    &RecoverConfig::default(),
                    &mut NoopRecorder,
                )?;
                Ok(Done {
                    err: compare_with_serial(&oc.spec, oc.rank, &oc.output, &reference),
                    spec: oc.spec,
                    data: oc.output.data,
                    attempts: oc.attempts,
                    lost: oc.lost,
                })
            })
        }
        Decomposition::Slab => {
            let params = TuningParams::seed(&spec);
            let outs = mpisim::run_with_faults(spec.p, faults, move |comm| {
                let input = local_test_slab(&spec, comm.rank());
                let (variant, rigor) = (Variant::New, Rigor::Estimate);
                let mut session = FftSession::new(&comm, spec, variant, params, dir, rigor);
                let out = session.execute(&input)?;
                let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
                Ok(clean(out.data, err))
            });
            outs.into_iter().map(Some).collect()
        }
        // The pencil path has no ULFM recovery story yet: a crash there
        // cannot be healed into full data, so surface it as a typed error
        // instead of letting `run_with_faults` panic.
        Decomposition::Pencil(_) if faults.has_crash() => {
            return Err(Error::Unrecoverable(
                "pencil decomposition has no crash-recovery path",
            ));
        }
        Decomposition::Pencil(grid) => {
            let outs = mpisim::run_with_faults(spec.p, faults, move |comm| {
                let input = pencil_test_input(&spec, grid, comm.rank());
                let blocking = pencil_blocking(&spec, grid);
                let mut session = PencilSession::new(&comm, spec, grid, blocking, dir)?;
                let out = session.execute(&input)?.output;
                let err = compare_pencil_with_serial(&spec, grid, comm.rank(), &out, &reference);
                Ok(clean(out.data, err))
            });
            outs.into_iter().map(Some).collect()
        }
    };
    let mut job = JobData {
        spec,
        slabs: vec![None; spec.p],
        max_err: 0.0,
        lost: Vec::new(),
        attempts: 1,
    };
    for (rank, out) in outs.into_iter().enumerate() {
        let Some(out) = out else {
            job.lost.push(rank);
            continue;
        };
        let done = out?;
        job.spec = done.spec;
        job.max_err = job.max_err.max(done.err);
        job.attempts = job.attempts.max(done.attempts);
        job.lost.extend(done.lost);
        job.slabs[rank] = Some(done.data);
    }
    job.lost.sort_unstable();
    job.lost.dedup();
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pencil::PencilGrid;
    use simnet::model::umd_cluster;

    fn cfg16() -> ServiceConfig {
        ServiceConfig::new(umd_cluster(), 16)
    }

    fn job(tenant: usize) -> JobSpec {
        JobSpec::new(tenant, ProblemSpec::cube(256, 1), Direction::Forward)
    }

    /// Digest of a report for determinism comparisons: every per-job field
    /// that could diverge, bit-exact.
    fn digest(r: &ServiceReport) -> Vec<(usize, u64, u64, u32, String)> {
        r.jobs
            .iter()
            .map(|j| {
                (
                    j.job,
                    j.fct().unwrap_or(-1.0).to_bits(),
                    j.bytes,
                    j.attempts,
                    format!("{:?}", j.outcome),
                )
            })
            .collect()
    }

    #[test]
    fn single_job_matches_its_isolated_run_exactly() {
        let svc = Service::new(cfg16());
        let j = job(0);
        let iso = svc.isolated_run(&j).expect("isolated run");
        let rep = svc.run(&[j]);
        let rec = &rep.jobs[0];
        let fct = rec.fct().expect("job must complete");
        assert!(
            (fct - iso.time).abs() < 1e-9,
            "alone on the cluster, fct {fct} must equal isolated {}",
            iso.time
        );
        assert_eq!(rec.bytes, iso.bytes, "conservation on the trivial case");
        assert!(rec.bytes > 0, "a 16-rank exchange moves bytes");
        assert!(!rec.plan_reused, "first geometry is a cold plan");
        assert_eq!(rep.jain, 1.0);
    }

    #[test]
    fn same_seed_same_report() {
        let svc = Service::new(cfg16());
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                job(i % 3)
                    .at(i as f64 * 0.05)
                    .with_priority((i % 2) as u8)
                    .with_faults(FaultPlan::seeded(9).with_rank_crash(1, i))
            })
            .collect();
        let a = svc.run(&jobs);
        let b = svc.run(&jobs);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn concurrent_jobs_degrade_each_other() {
        let svc = Service::new(cfg16());
        let jobs = [job(0), job(1)];
        let rep = svc.run(&jobs);
        for rec in &rep.jobs {
            let slow = rec.slowdown().expect("both jobs complete");
            assert!(
                slow > 1.05,
                "two jobs sharing the links must each slow down, got {slow}"
            );
            assert!(slow < 2.5, "sharing cannot cost more than serialisation");
        }
        // Symmetric tenants → near-perfect fairness.
        assert!(rep.jain > 0.99, "jain {}", rep.jain);
    }

    #[test]
    fn tenant_queue_bound_backpressures() {
        let mut cfg = cfg16();
        cfg.queue_limit = 1;
        let svc = Service::new(cfg);
        let rep = svc.run(&[job(0), job(0)]);
        assert!(rep.jobs[0].outcome.is_completed());
        match rep.jobs[1].outcome {
            JobOutcome::Rejected(RejectReason::QueueFull { limit: 1 }) => {}
            ref o => panic!("expected QueueFull rejection, got {o:?}"),
        }
    }

    #[test]
    fn unmeetable_deadline_is_shed_at_admission() {
        let svc = Service::new(cfg16());
        let j = job(0);
        let iso = svc.isolated_run(&j).expect("isolated run");
        let rep = svc.run(&[j.with_deadline(iso.time * 0.5)]);
        match rep.jobs[0].outcome {
            JobOutcome::Rejected(RejectReason::DeadlineUnmeetable {
                predicted,
                deadline,
            }) => {
                assert!(predicted > deadline);
            }
            ref o => panic!("expected DeadlineUnmeetable, got {o:?}"),
        }
    }

    #[test]
    fn overrunning_job_is_cancelled_and_bandwidth_reclaimed() {
        let svc = Service::new(cfg16());
        let iso = svc.isolated_run(&job(0)).expect("isolated run").time;
        // Three concurrent tenants; measure what contention does to the
        // first job, then give it a deadline past the admission bound
        // (headroom × iso — it arrives alone, so it is admitted) but short
        // of its contended completion, so the watchdog must fire.
        let mix = |deadline: Option<f64>| {
            let mut first = job(0);
            first.deadline = deadline;
            [first, job(1).at(iso * 0.01), job(2).at(iso * 0.01)]
        };
        let free = svc.run(&mix(None));
        let contended = free.jobs[0].fct().expect("contended run completes");
        let admit_bound = iso * svc.config().headroom;
        assert!(
            contended > admit_bound,
            "scenario needs contention past the admission bound: {contended} vs {admit_bound}"
        );
        let deadline = (admit_bound + contended) / 2.0;
        let rep = svc.run(&mix(Some(deadline)));
        match rep.jobs[0].outcome {
            JobOutcome::Cancelled {
                at,
                reason: CancelReason::DeadlineExceeded { .. },
            } => {
                assert!((at - deadline).abs() < 1e-6, "cancel at the deadline");
            }
            ref o => panic!("expected DeadlineExceeded, got {o:?}"),
        }
        // The survivors complete, faster than three-way sharing would
        // allow for their whole span (the cancel returned bandwidth).
        for rec in &rep.jobs[1..] {
            let slow = rec.slowdown().expect("survivors complete");
            assert!(slow < 3.0, "slowdown {slow}");
        }
    }

    #[test]
    fn crashed_job_retries_with_backoff_and_completes() {
        let svc = Service::new(cfg16());
        let iso_clean = svc.isolated_run(&job(0)).expect("isolated").time;
        let crashy = job(0).with_faults(FaultPlan::seeded(3).with_rank_crash(2, 4));
        let rep = svc.run(std::slice::from_ref(&crashy));
        let rec = &rep.jobs[0];
        assert!(rec.outcome.is_completed(), "{:?}", rec.outcome);
        assert_eq!(rec.attempts, 2, "one crash, one successful retry");
        let fct = rec.fct().expect("completed");
        assert!(
            fct > iso_clean,
            "the lost attempt and backoff must cost time: {fct} vs {iso_clean}"
        );
        // Conservation: the isolated baseline crashes identically, so the
        // byte totals still match.
        assert_eq!(rec.bytes, rec.isolated_bytes);
    }

    #[test]
    fn retries_exhausted_is_a_typed_cancellation() {
        let mut cfg = cfg16();
        cfg.max_attempts = 1;
        let svc = Service::new(cfg);
        let rep = svc.run(&[job(0).with_faults(FaultPlan::seeded(3).with_rank_crash(2, 4))]);
        match rep.jobs[0].outcome {
            JobOutcome::Cancelled {
                reason: CancelReason::RetriesExhausted(Error::RankFailed { rank: 2, .. }),
                ..
            } => {}
            ref o => panic!("expected RetriesExhausted(RankFailed), got {o:?}"),
        }
    }

    #[test]
    fn second_job_of_a_geometry_rides_the_shared_plan() {
        let svc = Service::new(cfg16());
        let iso = svc.isolated_run(&job(0)).expect("isolated").time;
        let jobs = [job(0), job(1).at(iso * 2.0)];
        let rep = svc.run(&jobs);
        assert!(!rep.jobs[0].plan_reused);
        assert!(rep.jobs[1].plan_reused, "same geometry must share the plan");
        assert_eq!(rep.plan_reuses, 1);
        let (a, b) = (
            rep.jobs[0].fct().expect("a completes"),
            rep.jobs[1].fct().expect("b completes"),
        );
        assert!(
            b <= a + 1e-12,
            "a warm plan cannot be slower than the cold one: {b} vs {a}"
        );
    }

    #[test]
    fn a_cold_pencil_post_pays_the_setup_of_its_subgroup() {
        let cfg = ServiceConfig::new(umd_cluster(), 16);
        let job = JobSpec::new(0, ProblemSpec::cube(64, 1), Direction::Forward);
        let grid = PencilGrid { pr: 4, pc: 4 };
        let profile = |reused| build_profile(&cfg, &job, Decomposition::Pencil(grid), reused);
        let (cold, _) = profile(false).expect("cold profile");
        let (warm, _) = profile(true).expect("warm profile");
        let spec = cluster_spec(&cfg, &job);
        let stages = stage::pencil(
            &cfg.platform.machine,
            &spec,
            grid,
            &pencil_seed(&spec, grid),
        );
        let net = &cfg.platform.net;
        let setup: f64 = stages
            .iter()
            .map(|s| s.tiles as f64 * net.post_overhead(s.group).as_secs_f64())
            .sum();
        let charged = cold.compute_total - warm.compute_total;
        assert!(
            (charged - setup).abs() <= 1e-9 * cold.compute_total,
            "cold minus warm charges {charged} s of setup, the subgroups' posts cost {setup} s"
        );
    }

    #[test]
    fn pencil_grid_past_the_slab_wall_completes() {
        let svc = Service::new(ServiceConfig::new(umd_cluster(), 128));
        let j = JobSpec::new(0, ProblemSpec::cube(64, 1), Direction::Forward);
        let rep = svc.run(&[j]);
        let rec = &rep.jobs[0];
        assert!(rec.outcome.is_completed(), "{:?}", rec.outcome);
        assert!(matches!(rec.decomp, Some(Decomposition::Pencil(_))));
        assert!(rec.bytes > 0);
        assert_eq!(rec.bytes, rec.isolated_bytes);
    }

    #[test]
    fn infeasible_geometry_is_a_typed_rejection() {
        let svc = Service::new(cfg16());
        let j = JobSpec::new(
            0,
            ProblemSpec {
                nx: 0,
                ny: 8,
                nz: 8,
                p: 1,
            },
            Direction::Forward,
        );
        let rep = svc.run(&[j]);
        match rep.jobs[0].outcome {
            JobOutcome::Rejected(RejectReason::Infeasible(Error::InfeasibleParams(_))) => {}
            ref o => panic!("expected Infeasible rejection, got {o:?}"),
        }
    }

    #[test]
    fn empty_batch_is_an_empty_report() {
        let svc = Service::new(cfg16());
        let rep = svc.run(&[]);
        assert!(rep.jobs.is_empty());
        assert_eq!(rep.jain, 1.0);
        assert_eq!(rep.makespan, 0.0);
    }

    #[test]
    fn fct_stats_are_nearest_rank() {
        let s = FctStats::from_values(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[2.0, 2.0, 2.0]), 1.0);
        let skewed = jain_index(&[1.0, 1.0, 10.0]);
        assert!(skewed < 0.6, "{skewed}");
    }
}
