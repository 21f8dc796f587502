//! Simulated execution backend: the pipeline schedule of
//! [`crate::pipeline`] interpreted against [`simnet`], charging the costs of
//! `crate::stage`.
//!
//! This backend regenerates the paper's evaluation at full scale (up to
//! p = 256, N = 2048³) without the data: compute phases charge the machine
//! model, all-to-alls run the manual-progression round model, and the
//! breakdown accounting mirrors Figure 8's categories. One object,
//! [`Simulation`], owns a modelled transform the way `executor::Session`
//! owns a real one, holds the file's one launch of a simulated world and is the
//! model's entry point: the slab variants (one stage over all ranks), the
//! fused multi-array train of §7 (the same stage with the tile stream
//! spanning several arrays), and the pencil decomposition (two stages over
//! the grid's rows and columns, run back to back) are its two constructors
//! and six setters. The three free functions left are shims `fftperf/`
//! still imports. One interpreter, `SimEnv`, runs each stage; its per-tile steps await
//! [`SimRank`], so a rank's whole transform is the `async` rank program
//! simnet's stepper suspends and resumes. Like the real session it models,
//! it moves every tile one way: a persistent plan initialised at the tile's
//! first post (paying the setup charge there) and started on every post, so
//! a single execution is the first of a repeated run, not a path of its own.

#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use crate::breakdown::{RunStats, StepTimes};
use crate::decomp::{Decomp, Decomposition};
use crate::error::Error;
use crate::params::{ProblemSpec, ThParams, TuningParams};
use crate::pencil::{validate_pencil, PencilGrid};
use crate::pipeline::{try_run_new, try_run_th, OverlapEnv, Recovery, Resilience, POLL_BOOST};
use crate::real_env::Variant;
use crate::stage::{self, Phase, StageCosts, Step};
use crate::trace::{EventKind, TraceEvent};
use simnet::model::{MachineModel, TransposeCost};
use simnet::{run_interchangeable, run_sim, OpId, PlanId, Platform, SimRank, SimTime};

/// One rank's view of one simulated exchange stage.
struct SimEnv<'a> {
    sim: &'a mut SimRank,
    stage: &'a StageCosts,
    /// The run this stage belongs to: its array count and whether array 0's
    /// fixed phases are skipped.
    run: &'a Simulation,
    /// Persistent all-to-all plans, one per tile of the train, shared
    /// across repeated executions: inited lazily at a tile's first post
    /// (paying `post_overhead` once), started with zero setup thereafter.
    /// Every array of a train has plans of its own, as back-to-back
    /// transforms would.
    plans: &'a mut Vec<Option<PlanId>>,
    steps: StepTimes,
    /// Event log for the timeline view, virtual-time stamped; `None`
    /// disables collection (and the rank's poll log stays off).
    events: Option<Vec<TraceEvent>>,
    /// Virtual-time stall watchdog: a single wait longer than this many
    /// seconds is reported to the degradation ladder as [`Error::Stalled`].
    /// `None` disarms it.
    stall_timeout: Option<f64>,
    /// Current poll multiplier (1 until the ladder boosts).
    boost: u32,
    /// Tiles already reported as stalled — `simnet`'s `wait` is idempotent,
    /// so the ladder's retry of the same (completed) op returns instantly;
    /// this guard turns that into exactly one climb per slow tile.
    reported: Vec<usize>,
    /// The in-flight ops a phase polls (scratch, refilled per phase).
    ops: Vec<OpId>,
}

impl SimEnv<'_> {
    /// Records a span from `start` to the current virtual time.
    fn record(&mut self, kind: EventKind, start: SimTime) {
        if let Some(ev) = &mut self.events {
            ev.push(TraceEvent {
                start: start.as_secs_f64(),
                end: self.sim.now().as_secs_f64(),
                kind,
            });
        }
    }

    /// Converts the rank's freshly logged polls into `Test` events. A
    /// record's slot indexes the ops the phase polled, which are the
    /// in-flight window's in order, so it names the tile directly.
    fn drain_polls(&mut self, inflight: &[(usize, OpId)]) {
        let Some(events) = &mut self.events else {
            return;
        };
        for rec in self.sim.take_poll_log() {
            let tile = inflight[rec.slot].0;
            events.push(TraceEvent {
                start: rec.start.as_secs_f64(),
                end: rec.end.as_secs_f64(),
                kind: EventKind::Test {
                    tile,
                    completed: rec.completed,
                },
            });
        }
    }

    /// Runs one compute phase with its polls over the in-flight window,
    /// splitting the elapsed virtual time between Test and the phase's
    /// categories (by modeled share).
    async fn phase(&mut self, ph: &Phase, tile: usize, inflight: &[(usize, OpId)]) {
        self.ops.clear();
        self.ops.extend(inflight.iter().map(|&(_, op)| op));
        let polls = ph.polls.saturating_mul(self.boost);
        let secs = ph.secs();
        let t0 = self.sim.now();
        let test = self
            .sim
            .compute_with_polls(secs, polls, &self.ops)
            .await
            .as_secs_f64();
        let busy = (self.sim.now() - t0).as_secs_f64() - test;
        // The timeline labels a stretch by its first kernel.
        self.record(event_kind(ph.parts[0].kind, tile), t0);
        self.drain_polls(inflight);
        for part in &ph.parts {
            let share = if secs > 0.0 { part.secs / secs } else { 0.0 };
            *step_slot(&mut self.steps, part.kind) += busy * share;
        }
        self.steps.test += test;
    }
}

/// The trace event a phase of `kind` on `tile` shows up as.
fn event_kind(kind: Step, tile: usize) -> EventKind {
    match kind {
        Step::Fftz => EventKind::Fftz,
        Step::Transpose => EventKind::Transpose,
        Step::Ffty => EventKind::Ffty { tile, subtile: 0 },
        Step::Pack => EventKind::Pack { tile, subtile: 0 },
        Step::Unpack => EventKind::Unpack { tile, subtile: 0 },
        Step::Fftx => EventKind::Fftx { tile, subtile: 0 },
    }
}

/// The breakdown category a phase of `kind` is booked under.
fn step_slot(steps: &mut StepTimes, kind: Step) -> &mut f64 {
    match kind {
        Step::Fftz => &mut steps.fftz,
        Step::Transpose => &mut steps.transpose,
        Step::Ffty => &mut steps.ffty,
        Step::Pack => &mut steps.pack,
        Step::Unpack => &mut steps.unpack,
        Step::Fftx => &mut steps.fftx,
    }
}

impl OverlapEnv for SimEnv<'_> {
    type Req = OpId;

    fn num_tiles(&self) -> usize {
        self.stage.train_tiles(self.run.arrays)
    }

    fn window(&self) -> usize {
        self.stage.window
    }

    fn fftz_transpose(&mut self) {
        if self.run.skip_fixed_steps {
            return;
        }
        // Nothing is in flight yet, so the phases run unpolled and are
        // booked at their modeled cost.
        let stage = self.stage;
        for part in stage.fixed.iter().flat_map(|ph| &ph.parts) {
            let t0 = self.sim.now();
            self.sim.compute(part.secs);
            self.record(event_kind(part.kind, 0), t0);
            *step_slot(&mut self.steps, part.kind) += part.secs;
        }
    }

    async fn ffty_pack(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, OpId)],
    ) -> Result<(), Error> {
        let stage = self.stage;
        for ph in stage.before_post(tile) {
            self.phase(ph, tile, inflight).await;
        }
        Ok(())
    }

    async fn post_a2a(&mut self, tile: usize) -> OpId {
        let group = self.stage.group;
        let per_peer = self.stage.tile(tile).bytes_per_peer;
        let t0 = self.sim.now();
        if self.plans.len() <= tile {
            self.plans.resize(tile + 1, None);
        }
        let sim = &mut *self.sim;
        let plan =
            *self.plans[tile].get_or_insert_with(|| sim.alltoall_init_in_group(group, per_peer));
        let op = sim.start(plan).await;
        self.steps.ialltoall += (self.sim.now() - t0).as_secs_f64();
        let bytes = per_peer * group.saturating_sub(1) as u64;
        self.record(EventKind::PostA2a { tile, bytes }, t0);
        op
    }

    async fn wait(&mut self, tile: usize, req: OpId) -> Result<(), (OpId, Error)> {
        // The simulator charges fault costs (stragglers, degraded links)
        // into the round model, so waits always complete — slower, never
        // wedged.
        let t0 = self.sim.now();
        self.sim.wait(req).await;
        let waited = (self.sim.now() - t0).as_secs_f64();
        self.steps.wait += waited;
        self.record(EventKind::Wait { tile }, t0);
        // Virtual-time watchdog: the exchange *did* complete, but it took
        // longer than the armed budget — report it so the ladder degrades
        // instead of letting a straggler silently serialise the pipeline.
        // The ladder's retry re-waits the same op, which returns instantly;
        // the `reported` guard makes this exactly one strike per slow tile.
        if self.stall_timeout.is_some_and(|limit| waited > limit) && !self.reported.contains(&tile)
        {
            self.reported.push(tile);
            // Blame the platform's worst straggler.
            let faults = &self.sim.platform().faults;
            let peer = (0..self.sim.size())
                .max_by(|&a, &b| {
                    faults
                        .compute_factor(a)
                        .total_cmp(&faults.compute_factor(b))
                })
                .unwrap_or(0);
            return Err((
                req,
                Error::Stalled {
                    tile,
                    round: 0,
                    peer,
                },
            ));
        }
        Ok(())
    }

    async fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, OpId)],
    ) -> Result<(), Error> {
        let stage = self.stage;
        for ph in &stage.tile(tile).post {
            self.phase(ph, tile, inflight).await;
        }
        Ok(())
    }

    fn boost_polls(&mut self) {
        self.boost = POLL_BOOST;
    }

    fn escalate_watchdog(&mut self) {
        if let Some(limit) = self.stall_timeout.as_mut() {
            *limit *= 2.0;
        }
    }
}

/// Aggregated result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// 3-D FFT time: the slowest rank's completion (what the paper's
    /// tables report).
    pub time: f64,
    /// Rank-0 per-step breakdown: every rank's when the ranks are
    /// interchangeable (see [`Simulation::run`]), while a ragged split, a
    /// straggler or jitter makes the ranks' breakdowns differ.
    pub steps: StepTimes,
    /// Per-rank statistics.
    pub per_rank: Vec<RunStats>,
    /// Collective setup charges (`post_overhead`) rank 0 paid during this
    /// run: one per tile for a single execution and for the first of a
    /// [`Simulation::repeated`] run, zero for every later one.
    pub setup_charges: u64,
}

/// One modelled transform — everything a simulated run needs, and the one
/// place a simulated world is launched. Built by [`Simulation::slab`] or
/// [`Simulation::pencil`] (both validate as the real backend does), shaped
/// by the chained setters, priced by [`Simulation::run`]:
///
/// ```
/// use fft3d::sim_env::Simulation;
/// use fft3d::{ProblemSpec, TuningParams, Variant};
/// use simnet::model::umd_cluster;
///
/// let spec = ProblemSpec::cube(128, 8);
/// let sim = Simulation::slab(spec, Variant::New, TuningParams::seed(&spec))?.repeated(2);
/// let runs = sim.run(umd_cluster())?;
/// assert_eq!(runs[1].report.setup_charges, 0); // plans persist across executions
/// # Ok::<(), fft3d::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: ProblemSpec,
    decomp: Decomposition,
    /// The tuning vector and Transpose tier the variant resolved to.
    params: TuningParams,
    tier: TransposeCost,
    /// TH's schedule ([`try_run_th`]) instead of the windowed one.
    th: bool,
    arrays: usize,
    skip_fixed_steps: bool,
    reps: usize,
    trace: bool,
    res: Resilience,
}

/// One execution of a [`Simulation`], folded over its ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// Timing: the slowest rank's completion, rank 0's breakdown and setup
    /// charges, every rank's statistics.
    pub report: SimReport,
    /// Per-rank event timelines, virtual-time stamped (empty ones unless
    /// [`Simulation::traced`]) — the data behind the Figure 3 visualisation
    /// and the overlap-efficiency summary (see [`crate::trace`]).
    pub events: Vec<Vec<TraceEvent>>,
    /// What the degradation ladder had to do (rank 0's view); clean when no
    /// watchdog was armed or nothing stalled.
    pub recovery: Recovery,
}

impl Simulation {
    /// One untraced, unwatched execution of the slab pipeline of `variant`,
    /// pricing `params` as given — no `Variant::check`: the cost table
    /// clamps what a real run would reject. Only the [`fft3_simulated`] /
    /// [`th_simulated`] shims price this way.
    fn unchecked(spec: ProblemSpec, variant: Variant, params: TuningParams) -> Self {
        let (params, tier) = variant.resolve(&spec, params);
        Simulation {
            spec,
            decomp: Decomposition::Slab,
            params,
            tier,
            th: variant == Variant::Th,
            arrays: 1,
            skip_fixed_steps: false,
            reps: 1,
            trace: false,
            res: Resilience::default(),
        }
    }

    /// The slab pipeline of `variant` (one stage over all ranks), behind
    /// the validation the real backend runs: an infeasible `(spec, params)`
    /// pair is [`Error::InfeasibleParams`], not a garbage cost estimate.
    pub fn slab(spec: ProblemSpec, variant: Variant, params: TuningParams) -> Result<Self, Error> {
        variant.check(&spec, &params)?;
        Ok(Self::unchecked(spec, variant, params))
    }

    /// NEW's schedule on the pencil decomposition over `grid` — §7's main
    /// future-work item on the model: two stages over the grid's rows and
    /// columns, the tuning vector honoured the way [`crate::PencilSession`]
    /// applies it (see `stage::pencil`; [`crate::pencil::pencil_blocking`]
    /// is its blocking point). Behind the validation the real backend runs.
    pub fn pencil(
        spec: ProblemSpec,
        grid: PencilGrid,
        params: TuningParams,
    ) -> Result<Self, Error> {
        validate_pencil(spec.p, &spec, grid, &params)?;
        Ok(Simulation {
            decomp: Decomposition::Pencil(grid),
            ..Self::unchecked(spec, Variant::New, params)
        })
    }

    /// Streams `n` arrays through each stage as one train — the paper's §7
    /// third extension, inter-array on top of intra-array overlap: array
    /// `a + 1`'s FFTz/Transpose/FFTy/Pack also hide the tail of array `a`'s
    /// all-to-alls, so the fill/drain bubbles between back-to-back
    /// transforms (`n ×` the single-array time) disappear (see
    /// `StageCosts::before_post` for what happens at the boundaries).
    pub fn arrays(mut self, n: usize) -> Self {
        self.arrays = n;
        self
    }

    /// `n` back-to-back executions over the same persistent per-tile plans
    /// (setup once, execute many): the first initialises each tile's plan
    /// as it is first posted, every later one starts them with zero setup.
    pub fn repeated(mut self, n: usize) -> Self {
        self.reps = n;
        self
    }

    /// Collects every rank's event timeline into [`Execution::events`].
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Skips array 0's fixed phases — the §4.4 tuning-speed technique ("the
    /// AH client does not execute FFTz and Transpose during auto-tuning",
    /// as in Figure 5); leave it off for end-to-end times (Table 2).
    pub fn skip_fixed_steps(mut self) -> Self {
        self.skip_fixed_steps = true;
        self
    }

    /// Prices Transpose at `tier` instead of the one the variant resolved
    /// to — how the ablation study denies NEW the §3.5 fast path.
    pub fn transpose(mut self, tier: TransposeCost) -> Self {
        self.tier = tier;
        self
    }

    /// Stall policy, its `stall_timeout` in **virtual** seconds: a single
    /// wait longer than that climbs the degradation ladder.
    pub fn resilience(mut self, res: Resilience) -> Self {
        self.res = res;
        self
    }

    /// The exchange stages each rank runs back to back, priced on
    /// `machine` once for the run: the distinct tables, and per rank the
    /// index of its own. A table holds one stage for the slab variants and
    /// the §7 train, the row and the column stage for the pencil. A slab
    /// table depends on its rank only through the rank's block shape
    /// `(x.count(r), y.count(r))`, so there is one per distinct shape (one
    /// for an even split, up to four for a ragged one); `stage::pencil`
    /// prices every rank at the largest block, so the pencil has one.
    fn stages(&self, machine: &MachineModel) -> (Vec<Vec<StageCosts>>, Vec<usize>) {
        let (spec, params) = (&self.spec, &self.params);
        match self.decomp {
            Decomposition::Slab => {
                let d = Decomp::new(spec.nx, spec.ny, spec.p);
                let (mut shapes, mut tables) = (Vec::new(), Vec::new());
                let of_rank = (0..spec.p).map(|rank| {
                    let shape = (d.x.count(rank), d.y.count(rank));
                    shapes.iter().position(|&s| s == shape).unwrap_or_else(|| {
                        shapes.push(shape);
                        tables.push(vec![stage::slab(machine, spec, params, rank, self.tier)]);
                        tables.len() - 1
                    })
                });
                let of_rank = of_rank.collect();
                (tables, of_rank)
            }
            Decomposition::Pencil(grid) => {
                let table = stage::pencil(machine, spec, grid, params).into();
                (vec![table], vec![0; spec.p])
            }
        }
    }

    /// Runs the transform on every rank of `platform`, one [`Execution`]
    /// per repetition: the stage tables are priced once, before any rank
    /// starts, and each rank borrows its own; per rank each stage keeps one
    /// persistent-plan table across the executions; per execution the
    /// ranks fold into one [`SimReport`] — the slowest rank's time; rank
    /// 0's steps, setup charges and ladder record. A train of zero arrays
    /// is [`Error::EmptyBatch`].
    ///
    /// When the ranks are interchangeable — one stage table for all of them
    /// (every even slab split, every pencil), no jitter, the same compute
    /// factor on every rank, and an `MPI_Test` that costs at least a clock
    /// tick — they run one program in lockstep, and
    /// [`simnet::run_interchangeable`] runs it once for all `p`: each
    /// execution's per-rank statistics and timelines are that program's,
    /// `p` times over, exactly what `p` programs give. A free test is left
    /// out: it can poll at the very instant every rank posts, and a rank
    /// sees the others' posts at that instant only if the stepper resumed
    /// them first, so the `p` programs stop being alike.
    pub fn run(&self, platform: Platform) -> Result<Vec<Execution>, Error> {
        self.run_as(platform, true)
    }

    /// [`Self::run`], with `one_for_all` false forcing one program per rank
    /// even where the ranks are interchangeable: the oracle the one-program
    /// run is held to.
    fn run_as(&self, platform: Platform, one_for_all: bool) -> Result<Vec<Execution>, Error> {
        if self.arrays == 0 {
            return Err(Error::EmptyBatch);
        }
        let (tables, of_rank) = self.stages(&platform.machine);
        let program = async |sim: &mut SimRank| {
            let costs = &tables[of_rank[sim.rank()]];
            let mut plans = vec![Vec::new(); costs.len()];
            if self.trace {
                sim.enable_poll_log();
            }
            let mut runs = Vec::with_capacity(self.reps);
            for _ in 0..self.reps {
                runs.push(self.execute(sim, costs, &mut plans).await?);
            }
            Ok::<_, Error>(runs)
        };
        let p = self.spec.p;
        if one_for_all && interchangeable(p, &tables, &platform) {
            let mut runs = run_interchangeable(platform, p, program)?;
            for run in &mut runs {
                run.report.per_rank = vec![run.report.per_rank[0]; p];
                run.events = vec![run.events.pop().unwrap_or_default(); p];
            }
            return Ok(runs);
        }
        let mut per_rank = run_sim(platform, p, program).into_iter();
        let mut runs = per_rank.next().transpose()?.unwrap_or_default();
        for later in per_rank {
            for (run, other) in runs.iter_mut().zip(later?) {
                run.report.time = run.report.time.max(other.report.time);
                run.report.per_rank.extend(other.report.per_rank);
                run.events.extend(other.events);
            }
        }
        Ok(runs)
    }

    /// One execution on one rank: the stages back to back through
    /// [`SimEnv`].
    async fn execute(
        &self,
        sim: &mut SimRank,
        costs: &[StageCosts],
        plans: &mut [Vec<Option<PlanId>>],
    ) -> Result<Execution, Error> {
        let start = sim.now();
        let tests0 = sim.test_calls();
        let setups0 = sim.setup_charges();
        let mut steps = StepTimes::default();
        let mut events = self.trace.then(Vec::new);
        let mut recovery = Recovery::default();
        for (stage, plans) in costs.iter().zip(plans) {
            let mut env = SimEnv {
                sim: &mut *sim,
                stage,
                run: self,
                plans,
                steps,
                events,
                stall_timeout: self.res.stall_timeout.map(|d| d.as_secs_f64()),
                boost: 1,
                reported: Vec::new(),
                ops: Vec::new(),
            };
            recovery.absorb(if self.th {
                try_run_th(&mut env, &self.res).await?
            } else {
                try_run_new(&mut env, &self.res).await?
            });
            (steps, events) = (env.steps, env.events);
        }
        let stats = RunStats {
            steps,
            elapsed: (sim.now() - start).as_secs_f64(),
            tests: sim.test_calls() - tests0,
        };
        Ok(Execution {
            report: SimReport {
                time: stats.elapsed,
                steps,
                per_rank: vec![stats],
                setup_charges: sim.setup_charges() - setups0,
            },
            events: vec![events.unwrap_or_default()],
            recovery,
        })
    }

    /// The run's first execution.
    pub(crate) fn first(&self, platform: Platform) -> Result<Execution, Error> {
        let first = self.run(platform)?.into_iter().next();
        first.ok_or(Error::Internal("a simulation with no execution"))
    }
}

/// Whether the `p` ranks of a run over the stage `tables` on `platform`
/// are interchangeable (see [`Simulation::run`]): one table, no jitter, one
/// compute factor, and a test that advances the clock.
fn interchangeable(p: usize, tables: &[Vec<StageCosts>], platform: &Platform) -> bool {
    let faults = &platform.faults;
    let speed = faults.compute_factor(0).to_bits();
    tables.len() == 1
        && platform.jitter == 0.0
        && SimTime::from_secs_f64(platform.machine.t_test) > SimTime::ZERO
        && (1..p).all(|r| faults.compute_factor(r).to_bits() == speed)
}

/// **Shim for `fftperf/`**, which a code PR may not edit: the slab
/// [`Simulation`] run once, pricing `params` *unchecked*
/// (`Simulation::unchecked`) — callers hand it vectors a real run would
/// reject. Goes, with the other four shims, once the benchmark imports
/// [`Simulation`] (ROADMAP item 3). `skip_fixed_steps` is
/// [`Simulation::skip_fixed_steps`].
pub fn fft3_simulated(
    platform: Platform,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    skip_fixed_steps: bool,
) -> SimReport {
    let sim = Simulation {
        skip_fixed_steps,
        ..Simulation::unchecked(spec, variant, params)
    };
    let run = sim.first(platform);
    run.expect("a simulated wait cannot fail with the watchdog disarmed")
        .report
}

/// **Shim for `fftperf/`** (see [`fft3_simulated`], which it calls): the TH
/// comparator from its three-parameter space. Goes with it.
pub fn th_simulated(
    platform: Platform,
    spec: ProblemSpec,
    th: ThParams,
    skip_fixed_steps: bool,
) -> SimReport {
    fft3_simulated(platform, spec, Variant::Th, th.widen(), skip_fixed_steps)
}

/// **Shim for `fftperf/`**: the time of [`Simulation::pencil`] run once.
/// Goes with [`fft3_simulated`].
///
/// # Panics
/// When the real backend would reject `(spec, grid, params)`: a grid that
/// does not cover `spec.p` ranks, a zero extent, `t = 0` or `threads = 0`.
pub fn pencil_overlap_simulated_params(
    platform: Platform,
    spec: ProblemSpec,
    grid: PencilGrid,
    params: &TuningParams,
) -> f64 {
    let run = Simulation::pencil(spec, grid, *params).and_then(|sim| sim.first(platform));
    run.expect("a feasible pencil configuration").report.time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamError;
    use crate::pencil::{pencil_blocking, pencil_seed};
    use crate::trace::DegradeAction;
    use simnet::model::{hopper, umd_cluster};
    use std::time::Duration;

    fn paper_spec() -> ProblemSpec {
        ProblemSpec::cube(256, 16)
    }

    /// NEW at the seed vector, for the setters under test to shape.
    fn new_at_seed(spec: ProblemSpec) -> Simulation {
        Simulation::slab(spec, Variant::New, TuningParams::seed(&spec)).expect("feasible seed")
    }

    fn reports(sim: Simulation, platform: Platform) -> Vec<SimReport> {
        let runs = sim.run(platform).expect("nothing arms the watchdog");
        runs.into_iter().map(|run| run.report).collect()
    }

    #[test]
    fn new_beats_fftw_on_umd_model() {
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let fftw = fft3_simulated(umd_cluster(), spec, Variant::Fftw, seed, false);
        let new = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
        assert!(
            new.time < fftw.time,
            "overlap must help on the slow network: NEW {:.3}s vs FFTW {:.3}s",
            new.time,
            fftw.time
        );
    }

    #[test]
    fn overlap_shrinks_wait_time() {
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let new = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
        let new0 = fft3_simulated(
            umd_cluster(),
            spec,
            Variant::New,
            seed.without_overlap(),
            false,
        );
        assert!(
            new.steps.wait < new0.steps.wait * 0.6,
            "NEW wait {:.3}s must be well below NEW-0 wait {:.3}s",
            new.steps.wait,
            new0.steps.wait
        );
    }

    #[test]
    fn th_waits_longer_than_new() {
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let new = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
        let th = th_simulated(umd_cluster(), spec, ThParams::seed(&spec), false);
        assert!(
            th.steps.wait > new.steps.wait,
            "TH does not overlap Unpack/FFTx, so its Wait must exceed NEW's"
        );
        assert!(th.time > new.time);
    }

    #[test]
    fn speedup_is_smaller_on_the_fast_network() {
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let umd_fftw = fft3_simulated(umd_cluster(), spec, Variant::Fftw, seed, false).time;
        let umd_new = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false).time;
        let hop_fftw = fft3_simulated(hopper(), spec, Variant::Fftw, seed, false).time;
        let hop_new = fft3_simulated(hopper(), spec, Variant::New, seed, false).time;
        let umd_speedup = umd_fftw / umd_new;
        let hop_speedup = hop_fftw / hop_new;
        assert!(
            umd_speedup > hop_speedup,
            "Gemini's fast network leaves less to hide: UMD {umd_speedup:.2}× vs Hopper {hop_speedup:.2}×"
        );
    }

    #[test]
    fn skip_fixed_steps_removes_fftz_and_transpose() {
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let full = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
        let skipped = fft3_simulated(umd_cluster(), spec, Variant::New, seed, true);
        assert_eq!(skipped.steps.fftz, 0.0);
        assert_eq!(skipped.steps.transpose, 0.0);
        assert!(skipped.time < full.time);
        let fixed = full.steps.fftz + full.steps.transpose;
        assert!((full.time - skipped.time - fixed).abs() < 0.25 * fixed + 5e-3);
    }

    #[test]
    fn repeated_transforms_pay_setup_once() {
        let spec = ProblemSpec::cube(128, 8);
        let seed = TuningParams::seed(&spec);
        let k = seed.tiles(&spec) as u64;
        let reps = reports(new_at_seed(spec).repeated(4), umd_cluster());
        assert_eq!(reps.len(), 4);
        assert_eq!(reps[0].setup_charges, k, "first execution pays per tile");
        for (i, r) in reps.iter().enumerate().skip(1) {
            assert_eq!(r.setup_charges, 0, "execution {i} must do zero setup");
        }
        // Steady-state executions are no slower than the first (they skip
        // the per-tile post overhead; everything else is identical).
        for r in &reps[1..] {
            assert!(r.time <= reps[0].time + 1e-12);
        }
        // And the one-shot path keeps paying k on every call.
        let one = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
        assert_eq!(one.setup_charges, k);
    }

    #[test]
    fn repeated_transforms_are_deterministic_and_stable() {
        let spec = ProblemSpec::cube(64, 4);
        let sim = new_at_seed(spec).skip_fixed_steps().repeated(3);
        let a = reports(sim.clone(), hopper());
        let b = reports(sim, hopper());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.steps, y.steps);
        }
        // Executions 2 and 3 run the identical zero-setup schedule, so the
        // virtual-time model gives them identical durations.
        assert_eq!(a[1].time, a[2].time);
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = ProblemSpec::cube(128, 8);
        let seed = TuningParams::seed(&spec);
        let a = fft3_simulated(hopper(), spec, Variant::New, seed, false);
        let b = fft3_simulated(hopper(), spec, Variant::New, seed, false);
        assert_eq!(a.time, b.time);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn parameters_change_the_simulated_time() {
        // The whole point of auto-tuning: configurations differ materially.
        let spec = paper_spec();
        let seed = TuningParams::seed(&spec);
        let a = fft3_simulated(umd_cluster(), spec, Variant::New, seed, true).time;
        let worse = TuningParams {
            t: 1,
            w: 1,
            fy: 1,
            fp: 0,
            fu: 0,
            fx: 0,
            ..seed
        };
        let b = fft3_simulated(umd_cluster(), spec, Variant::New, worse, true).time;
        assert!(
            b > a * 1.2,
            "tiny tiles with no polling must be much slower: {a:.3} vs {b:.3}"
        );
    }

    /// A fused train of `narrays` and the same workload as back-to-back
    /// single-array transforms.
    fn train(sim: Simulation, platform: Platform, narrays: usize) -> (Execution, f64) {
        let single = sim.first(platform.clone()).expect("single array");
        let fused = sim.arrays(narrays).first(platform).expect("train");
        (fused, single.report.time * narrays as f64)
    }

    #[test]
    fn fused_multi_array_beats_sequential() {
        let (fused, sequential) = train(new_at_seed(paper_spec()), umd_cluster(), 4);
        assert!(
            fused.report.time < sequential,
            "fused {:.3}s must beat sequential {sequential:.3}s",
            fused.report.time
        );
        assert!(
            fused.recovery.clean(),
            "nothing should degrade on a clean run"
        );
    }

    #[test]
    fn one_array_is_close_to_the_single_pipeline() {
        // Same work, slightly different poll placement during fixed steps —
        // at every thread count: the train and the sequential baseline it
        // is compared against are priced from the same `Th`-scaled table.
        // (Hopper's fast network does not hide a mis-scaled compute phase
        // the way UMD's exchange does.)
        let spec = paper_spec();
        for (platform, threads) in [(umd_cluster(), 1), (hopper(), 1), (hopper(), 4)] {
            let params = TuningParams {
                threads,
                ..TuningParams::seed(&spec)
            };
            let sim = Simulation::slab(spec, Variant::New, params).expect("feasible");
            let (fused, sequential) = train(sim, platform, 1);
            let ratio = fused.report.time / sequential;
            assert!(
                (0.8..=1.05).contains(&ratio),
                "threads {threads}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn gain_grows_with_array_count() {
        let gain = |n| {
            let (fused, sequential) = train(new_at_seed(paper_spec()), umd_cluster(), n);
            sequential / fused.report.time
        };
        let (g2, g6) = (gain(2), gain(6));
        assert!(g6 >= g2 * 0.99, "g2={g2:.3} g6={g6:.3}");
    }

    /// Pinned regression (ISSUE #10 satellite 1): zero arrays is a typed
    /// [`Error::EmptyBatch`], not an `assert!` panic.
    #[test]
    fn zero_arrays_is_a_typed_error() {
        let spec = ProblemSpec::cube(64, 4);
        let none = new_at_seed(spec).arrays(0).run(umd_cluster());
        assert_eq!(none.map(|runs| runs.len()), Err(Error::EmptyBatch));
        // Zero ranks used to divide by zero in the feasibility check.
        let nobody = ProblemSpec { p: 0, ..spec };
        let refused = Simulation::slab(nobody, Variant::New, TuningParams::seed(&spec));
        assert_eq!(refused.err(), Some(ParamError::ZeroRanks.into()));
    }

    /// Pinned regression (ISSUE #10 satellite 1): infeasible tuning
    /// parameters surface as [`Error::InfeasibleParams`] from the public
    /// constructor, not as a garbage cost estimate or a panic.
    #[test]
    fn infeasible_params_are_a_typed_error() {
        let spec = ProblemSpec::cube(64, 4);
        let mut params = TuningParams::seed(&spec);
        params.t = spec.nz + 1; // tile taller than the axis

        // TH and FFTW share the tile-size rule, and zero ranks are rejected
        // before anything divides by `p`, whatever the variant.
        let nobody = ProblemSpec { p: 0, ..spec };
        for variant in [Variant::New, Variant::Th, Variant::Fftw] {
            for (spec, params, want) in [
                (spec, params, ParamError::TileSize(params.t)),
                (nobody, TuningParams::seed(&nobody), ParamError::ZeroRanks),
            ] {
                let got = Simulation::slab(spec, variant, params);
                assert_eq!(got.err(), Some(want.into()), "{variant:?}");
            }
        }
    }

    /// With a watchdog armed, a severe straggler mid-train trips the
    /// degradation ladder (BoostPolls first) instead of silently
    /// serialising the whole batch — and the run still completes.
    #[test]
    fn straggler_during_job_train_degrades_instead_of_hanging() {
        let spec = paper_spec();
        let pair = new_at_seed(spec).arrays(2);
        // Budget each wait at the *whole* clean run's duration: no single
        // clean wait can exceed it, so a clean run never trips…
        let clean = pair.first(umd_cluster()).expect("clean run").report.time;
        let watched = pair.resilience(Resilience::with_timeout(Duration::from_secs_f64(clean)));
        let calm = watched
            .first(umd_cluster())
            .unwrap_or_else(|e| panic!("clean run failed under watchdog: {e}"));
        assert_eq!(calm.recovery.stalls_detected, 0, "{:?}", calm.recovery);

        // …while a 200× compute straggler makes individual exchanges dwarf
        // the whole clean run and must be caught.
        let slow = umd_cluster().with_straggler(1, 200.0);
        let rep = watched
            .first(slow)
            .unwrap_or_else(|e| panic!("straggled run failed to degrade: {e}"));
        assert!(
            rep.recovery.stalls_detected > 0,
            "a 200x straggler must trip a whole-run-length watchdog"
        );
        assert_eq!(
            rep.recovery.actions.first(),
            Some(&DegradeAction::BoostPolls),
            "ladder must start at its gentlest rung: {:?}",
            rep.recovery.actions
        );
        assert!(
            rep.report.time > clean,
            "straggled run should still be slower end to end"
        );
    }

    /// The disarmed default never reports, even under a straggler: no
    /// stalls detected, no ladder actions.
    #[test]
    fn disarmed_watchdog_never_reports() {
        let slow = umd_cluster().with_straggler(1, 50.0);
        let rep = new_at_seed(paper_spec()).arrays(2).first(slow);
        let rep = rep.expect("disarmed run");
        assert!(rep.recovery.clean(), "{:?}", rep.recovery);
    }

    #[test]
    fn overlapped_pencil_beats_blocking_pencil() {
        // §7 realised: applying the overlap method to the 2-D decomposition
        // hides exchange time on the communication-bound UMD model.
        let spec = paper_spec();
        let grid = PencilGrid::near_square(16);
        let blocking = pencil_overlap_simulated_params(
            umd_cluster(),
            spec,
            grid,
            &pencil_blocking(&spec, grid),
        );
        assert!(blocking > 0.0 && blocking.is_finite());
        let overlapped =
            pencil_overlap_simulated_params(umd_cluster(), spec, grid, &pencil_seed(&spec, grid));
        assert!(
            overlapped < blocking,
            "overlap must help the pencil path too: {overlapped:.3} vs {blocking:.3}"
        );
    }

    /// A feasible tuning vector for `spec`, drawn from `draw(n)` ∈ `0..n`.
    fn feasible(spec: &ProblemSpec, draw: &mut impl FnMut(usize) -> usize) -> TuningParams {
        let (nxl, nyl, polls) = (spec.nx / spec.p, spec.ny / spec.p, 2 * spec.p + 1);
        let t = 1 + draw(spec.nz);
        TuningParams {
            t,
            w: 1 + draw(spec.nz.div_ceil(t)),
            px: 1 + draw(nxl),
            pz: 1 + draw(t),
            uy: 1 + draw(nyl),
            uz: 1 + draw(t),
            fy: draw(polls) as u32,
            fp: draw(polls) as u32,
            fu: draw(polls) as u32,
            fx: draw(polls) as u32,
            threads: 1 + draw(4),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        /// One program standing for the interchangeable ranks of an even
        /// split gives every field of every execution the p-program run
        /// gives: slabs of NEW, FFTW and TH and pencils over any grid, on
        /// both presets. With a free `MPI_Test` the ranks do not count as
        /// interchangeable, so there is nothing to compare.
        #[test]
        fn one_program_run_matches_every_rank_run(
            seed: u64,
            p_at in 0usize..10,
            shape in 0usize..4,
            platform in 0usize..3,
            reps in 1usize..4,
            arrays in 1usize..3,
            skip: bool,
            trace: bool,
        ) {
            let mut rng = seed;
            let mut draw = |n: usize| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                ((rng >> 33) % n as u64) as usize
            };
            let p = [1, 2, 3, 4, 6, 8, 12, 16, 32, 64][p_at];
            let spec = ProblemSpec {
                nx: p * (1 + draw(3)),
                ny: p * (1 + draw(3)),
                nz: 1 + draw(48),
                p,
            };
            let params = feasible(&spec, &mut draw);
            let sim = match shape {
                0 => Simulation::slab(spec, Variant::New, params),
                1 => Simulation::slab(spec, Variant::Fftw, params),
                2 => Simulation::slab(spec, Variant::Th, params),
                _ => {
                    let pr = (1..=p).filter(|d| p % d == 0).nth(draw(p)).unwrap_or(1);
                    let grid = PencilGrid { pr, pc: p / pr };
                    Simulation::pencil(spec, grid, params)
                }
            };
            let mut sim = sim.expect("a feasible vector").repeated(reps).arrays(arrays);
            if skip {
                sim = sim.skip_fixed_steps();
            }
            if trace {
                sim = sim.traced();
            }
            let free = platform == 2;
            let platform = match platform {
                0 => umd_cluster(),
                1 => hopper(),
                _ => {
                    let mut free = umd_cluster();
                    free.machine.t_test = 0.0;
                    free
                }
            };
            let (tables, _) = sim.stages(&platform.machine);
            proptest::prop_assert_eq!(interchangeable(p, &tables, &platform), !free);
            if free {
                return Ok(());
            }
            let one = sim.run_as(platform.clone(), true).expect("no watchdog");
            let each = sim.run_as(platform, false).expect("no watchdog");
            proptest::prop_assert_eq!(one, each);
        }
    }

    #[test]
    fn pencil_cost_model_is_deterministic_and_positive() {
        let spec = ProblemSpec::cube(128, 8);
        let grid = PencilGrid::near_square(8);
        let params = pencil_seed(&spec, grid);
        let a = pencil_overlap_simulated_params(umd_cluster(), spec, grid, &params);
        let b = pencil_overlap_simulated_params(umd_cluster(), spec, grid, &params);
        assert!(a > 0.0 && a.is_finite());
        assert_eq!(a, b);
    }
}
