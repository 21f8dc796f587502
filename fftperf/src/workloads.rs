//! The six workloads and the loop that times them.
//!
//! A workload is a [`Rank`]: something that can run one op, traced or not,
//! and verify the output of its latest op. The real transforms run one
//! `Rank` per mpisim rank thread, in lockstep; rank 0 keeps the clock and
//! tells the others what to do next. Everything here calls the crates'
//! public API and nothing else.

use crate::clock::Bracket;
use crate::inputs::{pencil_block, seeded_field, service_trace, Rng, Sizes, REAL_RANKS};
use crate::spans::{union_len, SpanId, Spans};
use crate::stats::median;
use cfft::complex::max_abs_diff;
use cfft::{Complex64, Direction, Rigor};
use fft3d::real_env::compare_with_serial;
use fft3d::serial::fft3_serial;
use fft3d::{
    compare_pencil_with_serial, derive_step_times, fft3_simulated, overlap_summary, pencil_seed,
    th_simulated, try_fft3_dist, try_fft3_dist_traced, EventKind, FftSession, JobOutcome, JobSpec,
    MemRecorder, PencilGrid, PencilOutput, PencilSession, ProblemSpec, RejectReason, Resilience,
    RunOutput, Service, ServiceConfig, ServiceReport, StepTimes, ThParams, TraceEvent,
    TuningParams, Variant,
};
use mpisim::Comm;
use simnet::model::{umd_cluster, Platform};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tuner::{tune_new, tune_th, TuneResult};

/// How many traced ops keep their `TraceEvent`s as child spans in the trace
/// file. Every traced op feeds the metrics; a tile-per-plane op polls about
/// a thousand times, so only the first few are written out.
const DETAILED_OPS: u32 = 4;
/// A timed loop never stops short of this many untraced samples, so that a
/// median exists however slow the machine.
const MIN_SAMPLES: usize = 3;

/// One worker's orders: a cold start through the first verified op, a
/// warm-up, then ops for `seconds`.
pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: &'a Sizes,
    pub seconds: f64,
    /// Every second timed op runs through the `*_traced` entry point, so one
    /// process yields both sides of the tracing overhead.
    pub traced: bool,
    /// The workload runs on one CPU, the one this thread's clock probe
    /// measures, so its times are put at the reference clock. Ops that keep
    /// both CPUs busy run at a steady clock, which a probe taken while one
    /// of them idles does not see; they are reported as measured.
    pub one_cpu: bool,
    /// When the worker process entered `main`, and the clock probe taken
    /// then.
    pub entry: Instant,
    pub entry_clock: Bracket,
}

/// What one worker measured.
#[derive(Default)]
pub struct Report {
    /// Worker entry to the end of the first op, input generation excluded.
    pub setup_s: f64,
    /// Peak resident set once the first op is verified, in KiB.
    pub first_rss_kb: u64,
    /// Wall time of each timed op, in milliseconds. Like `setup_s`, at the
    /// reference clock for a workload that runs on one CPU.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub attempted: u64,
    /// One line for each op that failed its verification or changed a value
    /// that must repeat. (An op that returns an error ends the process.)
    pub failures: Vec<String>,
    /// Per-layer metrics the ops themselves yield.
    pub metrics: Vec<(&'static str, f64)>,
    /// Values that repeated exactly on every timed op, to be compared with
    /// another pass of the same seed.
    pub exact: BTreeMap<&'static str, f64>,
    /// Grid points one op transforms (or prices, for the simulators).
    pub points_per_op: f64,
}

/// One finished op.
pub struct Op {
    pub start: Instant,
    /// Barrier to barrier for the distributed transforms, call to return
    /// otherwise.
    pub wall: Duration,
    /// For each traced transform in the op: when it began, and this rank's
    /// events, stamped in seconds since then.
    pub traces: Vec<(Instant, Vec<TraceEvent>)>,
    /// Values that must be the same on every timed op of this workload.
    pub exact: Vec<(&'static str, f64)>,
    pub points: f64,
}

/// Where an op hangs the spans of the calls it makes.
pub struct Scope<'a> {
    pub spans: &'a mut Spans,
    pub parent: SpanId,
    pub op: u32,
}

#[derive(Clone, Copy, PartialEq)]
enum Next {
    Stop,
    Untraced,
    Traced,
}

trait Rank {
    /// One op. A typed error from a transform ends the process with its
    /// message: the ranks of a world that has lost a collective agree on
    /// nothing any more, and a panic is how mpisim releases the others.
    fn op(&mut self, traced: bool, scope: Scope) -> Op;
    /// Checks the output of the latest op. Collective where ops are.
    fn verify(&mut self) -> Result<(), String>;
    /// Turns the leader's decision into every rank's decision.
    fn agree(&mut self, next: Next) -> Next {
        next
    }
    /// Whether ops get faster after the first. The real transforms do, for
    /// a few ops, while the allocator settles and fresh pages are faulted
    /// in; a simulation leaves nothing behind that its first op has not.
    fn warms_up(&self) -> bool {
        true
    }
}

/// Sums over the traced ops of one run.
#[derive(Default)]
struct TraceSums {
    ops: u32,
    steps: StepTimes,
    unattributed_ns: u64,
    tests: usize,
    bytes: u64,
    inflight: f64,
    covered: f64,
    wait_stall: f64,
}

impl TraceSums {
    fn add(&mut self, op: &Op) {
        self.ops += 1;
        let t0 = op.start;
        let mut busy = Vec::new();
        for (origin, events) in &op.traces {
            self.steps += derive_step_times(events);
            let summary = overlap_summary(events);
            self.tests += summary.tests;
            self.inflight += summary.inflight;
            self.covered += summary.covered;
            self.wait_stall += summary.wait_stall;
            let base = origin.duration_since(t0).as_nanos() as u64;
            for e in events {
                if let EventKind::PostA2a { bytes, .. } = e.kind {
                    self.bytes += bytes;
                }
                busy.push((base + (e.start * 1e9) as u64, base + (e.end * 1e9) as u64));
            }
        }
        if !op.traces.is_empty() {
            self.unattributed_ns += (op.wall.as_nanos() as u64).saturating_sub(union_len(busy));
        }
    }

    fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let per_op = |v: f64| {
            if self.ops == 0 {
                0.0
            } else {
                v / f64::from(self.ops)
            }
        };
        let s = &self.steps;
        for (name, seconds) in [
            ("fft3d.step_ms.fftz", s.fftz),
            ("fft3d.step_ms.transpose", s.transpose),
            ("fft3d.step_ms.ffty", s.ffty),
            ("fft3d.step_ms.pack", s.pack),
            ("fft3d.step_ms.unpack", s.unpack),
            ("fft3d.step_ms.fftx", s.fftx),
            ("fft3d.step_ms.ialltoall", s.ialltoall),
            ("fft3d.step_ms.wait", s.wait),
            ("fft3d.step_ms.test", s.test),
            ("fft3d.wait_stall_ms", self.wait_stall),
        ] {
            out.push((name, per_op(seconds * 1e3)));
        }
        out.push((
            "fft3d.unattributed_ms",
            per_op(self.unattributed_ns as f64 / 1e6),
        ));
        out.push(("fft3d.tests_per_op", per_op(self.tests as f64)));
        out.push(("fft3d.bytes_exchanged_per_op", per_op(self.bytes as f64)));
        let coverage = if self.inflight > 0.0 {
            self.covered / self.inflight
        } else {
            0.0
        };
        out.push(("fft3d.overlap_coverage", coverage));
    }
}

/// `Ok` when `holds`. Conditions are written the way they should come out, so
/// that a NaN, which compares false with everything, fails them.
fn require(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// One rank's run: the workload, where its spans go, and what it has
/// measured so far.
struct Driver<'a> {
    rank: &'a mut dyn Rank,
    ctx: &'a Ctx<'a>,
    spans: &'a mut Spans,
    rep: Report,
    ops: u32,
    traced_ops: u32,
    verify_ms: Vec<f64>,
}

impl Driver<'_> {
    /// Runs one op inside its span.
    fn op(&mut self, traced: bool) -> Op {
        self.ops += 1;
        self.rep.attempted += 1;
        let name = if traced { "op.traced" } else { "op" };
        let open = self.spans.begin(0, self.ops, "harness", name);
        let parent = open.id;
        let op = self.rank.op(
            traced,
            Scope {
                spans: self.spans,
                parent,
                op: self.ops,
            },
        );
        self.spans.close(open, op.start, op.wall);
        if traced {
            self.traced_ops += 1;
            if self.traced_ops <= DETAILED_OPS {
                for (origin, events) in &op.traces {
                    self.spans.add_events(parent, self.ops, *origin, events);
                }
            }
        }
        op
    }

    fn verify(&mut self) {
        let rank = &mut *self.rank;
        let (verdict, took) = self
            .spans
            .time(0, self.ops, "harness", "verify", || rank.verify());
        self.verify_ms.push(took.as_secs_f64() * 1e3);
        if let Err(why) = verdict {
            self.rep.failures.push(format!("op {}: {why}", self.ops));
        }
    }

    /// Ops for `ctx.seconds`, the first and the last verified.
    fn timed(&mut self) {
        let Ctx {
            seconds,
            traced,
            one_cpu,
            ..
        } = *self.ctx;
        if self.rank.warms_up() {
            for _ in 0..self.ctx.sizes.warmups {
                self.op(false);
            }
        }
        let mut sums = TraceSums::default();
        let (mut raw, mut factors) = (Vec::new(), Vec::new());
        let mut exact: Vec<(&'static str, f64)> = Vec::new();
        let mut setups = 0.0;
        let mut timed = 0usize;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let want = if Instant::now() >= deadline && self.rep.untraced_ms.len() >= MIN_SAMPLES {
                Next::Stop
            } else if traced && timed % 2 == 1 {
                Next::Traced
            } else {
                Next::Untraced
            };
            let next = self.rank.agree(want);
            if next == Next::Stop {
                break;
            }
            let clock = one_cpu.then(Bracket::open);
            let op = self.op(next == Next::Traced);
            let factor = clock.map_or(1.0, Bracket::factor);
            let raw_ms = op.wall.as_secs_f64() * 1e3;
            if next == Next::Traced {
                self.rep.traced_ms.push(raw_ms / factor);
                sums.add(&op);
            } else {
                self.rep.untraced_ms.push(raw_ms / factor);
                raw.push(raw_ms);
                factors.push(factor);
            }
            self.rep.points_per_op = op.points;
            // Traced ops report more exact values than untraced ones (bytes
            // come from the events), so values are matched by name.
            for (name, value) in op.exact {
                match exact.iter().find(|(n, _)| *n == name) {
                    None => exact.push((name, value)),
                    Some((_, v)) if v.to_bits() == value.to_bits() => {}
                    Some((_, v)) => {
                        let why = format!("op {}: {name} was {v}, is now {value}", self.ops);
                        self.rep.failures.push(why);
                    }
                }
                if name == "exchange_setups" {
                    setups += value;
                }
            }
            if timed == 0 {
                self.verify();
            }
            timed += 1;
        }
        if timed > 1 {
            self.verify();
        }
        self.rep.exact = exact.into_iter().collect();
        sums.metrics(&mut self.rep.metrics);
        self.rep
            .metrics
            .push(("fft3d.exchange_setups_per_op", setups / timed.max(1) as f64));
        // The per-layer times are wall times; these two turn the end-to-end
        // median back into one.
        self.rep
            .metrics
            .push(("harness.op_ms_raw_p50", median(&raw)));
        self.rep
            .metrics
            .push(("harness.clock_factor", median(&factors)));
    }
}

/// Runs `rank` as `ctx` orders and reports what it measured. `made_input` is
/// the time the worker spent generating inputs, which set-up excludes.
fn drive(rank: &mut dyn Rank, ctx: &Ctx, made_input: Duration, spans: &mut Spans) -> Report {
    let mut d = Driver {
        rank,
        ctx,
        spans,
        rep: Report::default(),
        ops: 0,
        traced_ops: 0,
        verify_ms: Vec::new(),
    };
    // Set-up ends with the first op. Its verification comes after, because
    // the reference transform would otherwise warm the plan cache.
    d.op(false);
    let setup = ctx.entry.elapsed().saturating_sub(made_input);
    let factor = if ctx.one_cpu {
        ctx.entry_clock.factor()
    } else {
        1.0
    };
    d.rep.setup_s = setup.as_secs_f64() / factor;
    d.verify();
    d.rep.first_rss_kb = crate::host::peak_rss_kb();
    d.timed();
    d.rep
        .metrics
        .push(("harness.verify_ms", median(&d.verify_ms)));
    d.rep
}

// ---------------------------------------------------------------------------
// serial128
// ---------------------------------------------------------------------------

struct Serial<'a> {
    n: usize,
    field: &'a [Complex64],
    data: Vec<Complex64>,
    probes: Vec<(usize, usize, usize)>,
}

impl Rank for Serial<'_> {
    fn op(&mut self, _traced: bool, scope: Scope) -> Op {
        // The transform is in place; a fresh copy keeps magnitudes bounded.
        self.data.copy_from_slice(self.field);
        let n = self.n;
        let start = Instant::now();
        let data = &mut self.data;
        let (_, wall) = scope
            .spans
            .time(scope.parent, scope.op, "fft3d", "fft3_serial", || {
                fft3_serial(data, n, n, n, Direction::Forward)
            });
        Op {
            start,
            wall,
            traces: Vec::new(),
            exact: Vec::new(),
            points: (n * n * n) as f64,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let n = self.n;
        let volume = (n * n * n) as f64;
        // A naive DFT at a few seeded output points pins the spectrum itself;
        // the round trip alone would pass a transform that is merely unitary.
        for &(kx, ky, kz) in &self.probes {
            let want = naive_dft_point(self.field, n, (kx, ky, kz));
            let got = self.data[(kx * n + ky) * n + kz];
            let err = (got - want).abs();
            require(err <= 1e-9 * volume, || {
                format!("bin ({kx},{ky},{kz}) is off the naive DFT by {err:e}")
            })?;
        }
        let mut back = self.data.clone();
        fft3_serial(&mut back, n, n, n, Direction::Backward);
        for z in &mut back {
            *z = z.scale(1.0 / volume);
        }
        // `max_abs_diff` keeps the larger of two numbers, which a NaN never
        // is, so finiteness is checked apart.
        let err = max_abs_diff(&back, self.field);
        require(err <= 1e-10 && all_finite(&back), || {
            format!("round trip is off by {err:e}")
        })
    }
}

fn all_finite(data: &[Complex64]) -> bool {
    data.iter().all(|z| z.is_finite())
}

/// One bin of the 3-D DFT of `field` (an `n³` cube), summed directly.
fn naive_dft_point(field: &[Complex64], n: usize, k: (usize, usize, usize)) -> Complex64 {
    let roots = |k: usize| -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::cis(-std::f64::consts::TAU * ((k * j) % n) as f64 / n as f64))
            .collect()
    };
    let (wx, wy, wz) = (roots(k.0), roots(k.1), roots(k.2));
    let mut total = Complex64::ZERO;
    for x in 0..n {
        let mut plane = Complex64::ZERO;
        for y in 0..n {
            let line = &field[(x * n + y) * n..][..n];
            let mut sum = Complex64::ZERO;
            for (v, w) in line.iter().zip(&wz) {
                sum = v.mul_add(*w, sum);
            }
            plane = sum.mul_add(wy[y], plane);
        }
        total = plane.mul_add(wx[x], total);
    }
    total
}

// ---------------------------------------------------------------------------
// The distributed transforms
// ---------------------------------------------------------------------------

/// What every rank thread of a distributed workload shares.
struct Shared<'a> {
    spec: ProblemSpec,
    field: &'a [Complex64],
    /// The serial spectrum of `field`, computed by whichever rank verifies
    /// first and only after the first op, so that set-up plans cold.
    reference: OnceLock<Vec<Complex64>>,
}

impl Shared<'_> {
    fn reference(&self) -> &[Complex64] {
        self.reference.get_or_init(|| {
            let s = &self.spec;
            let mut v = self.field.to_vec();
            fft3_serial(&mut v, s.nx, s.ny, s.nz, Direction::Forward);
            v
        })
    }

    /// The spectra agree when every rank's worst deviation is within the
    /// repository's own gate of `1e-9·N³`. The comparisons keep the larger
    /// of two numbers, which a NaN never is, so `finite` says apart whether
    /// this rank's output held only numbers.
    fn judge(&self, comm: &Comm, local_err: f64, finite: bool) -> Result<(), String> {
        let worst = comm.allreduce_max(if finite { local_err } else { f64::INFINITY });
        require(worst <= 1e-9 * self.spec.len() as f64, || {
            format!("spectrum deviates from fft3_serial by {worst:e}")
        })
    }
}

/// Rank 0's decision, broadcast.
fn broadcast(comm: &Comm, next: Next) -> Next {
    let mut word = vec![next as u8];
    comm.bcast(&mut word, 0);
    [Next::Stop, Next::Untraced, Next::Traced][usize::from(word[0])]
}

/// Times `f` between two barriers, as rank 0 sees it.
fn between_barriers<R>(comm: &Comm, f: impl FnOnce() -> R) -> (Instant, Duration, R) {
    comm.barrier();
    let start = Instant::now();
    let r = f();
    comm.barrier();
    (start, start.elapsed(), r)
}

fn posted_bytes(events: &[TraceEvent]) -> f64 {
    events
        .iter()
        .map(|e| match e.kind {
            EventKind::PostA2a { bytes, .. } => bytes as f64,
            _ => 0.0,
        })
        .sum()
}

/// `slab128_steady` (a session, persistent plans) and `slab64_tiles` (one
/// shot, fresh posts): the same transform through the two uses of mpisim.
struct Slab<'a> {
    shared: &'a Shared<'a>,
    comm: &'a Comm,
    params: TuningParams,
    input: Vec<Complex64>,
    session: Option<FftSession<'a>>,
    last: Option<RunOutput>,
}

impl Rank for Slab<'_> {
    fn op(&mut self, traced: bool, _scope: Scope) -> Op {
        let spec = self.shared.spec;
        let (comm, params, input) = (self.comm, self.params, &self.input);
        let mut recorder = MemRecorder::default();
        let session = &mut self.session;
        let (start, wall, out) = between_barriers(comm, || match (session, traced) {
            (Some(s), false) => s.execute(input),
            (Some(s), true) => s.execute_traced(input, &Resilience::default(), &mut recorder),
            (None, false) => try_fft3_dist(
                comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                input,
            ),
            (None, true) => try_fft3_dist_traced(
                comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                input,
                &Resilience::default(),
                &mut recorder,
            ),
        });
        let out = out.unwrap_or_else(|e| panic!("slab transform failed: {e}"));
        let mut exact = vec![("exchange_setups", out.exchange_setups as f64)];
        if traced {
            exact.push(("bytes_exchanged", posted_bytes(&recorder.events)));
        }
        self.last = Some(out);
        Op {
            start,
            wall,
            // The pipeline stamps events from its own entry, which is the
            // start of the timed region to within the barrier's exit.
            traces: if traced {
                vec![(start, recorder.take())]
            } else {
                Vec::new()
            },
            exact,
            points: spec.len() as f64,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let out = self.last.as_ref().ok_or("no output to verify")?;
        let err = compare_with_serial(
            &self.shared.spec,
            self.comm.rank(),
            out,
            self.shared.reference(),
        );
        self.shared.judge(self.comm, err, all_finite(&out.data))
    }

    fn agree(&mut self, next: Next) -> Next {
        broadcast(self.comm, next)
    }
}

/// `pencil96_steady`: one execution of each of two sessions, a `2×1` and a
/// `1×2` grid, so both the row and the column exchange meet a real peer.
struct Pencil<'a> {
    shared: &'a Shared<'a>,
    comm: &'a Comm,
    legs: Vec<(PencilGrid, Vec<Complex64>, PencilSession)>,
    last: Vec<PencilOutput>,
}

impl Rank for Pencil<'_> {
    fn op(&mut self, traced: bool, _scope: Scope) -> Op {
        let legs = &mut self.legs;
        let mut traces = Vec::new();
        let (start, wall, outs) = between_barriers(self.comm, || {
            legs.iter_mut()
                .map(|(_, input, session)| {
                    if traced {
                        let origin = Instant::now();
                        let mut recorder = MemRecorder::default();
                        let out =
                            session.execute_traced(input, &Resilience::default(), &mut recorder);
                        traces.push((origin, recorder.take()));
                        out
                    } else {
                        session.execute(input)
                    }
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let outs = outs.unwrap_or_else(|e| panic!("pencil transform failed: {e}"));
        let setups: u64 = outs.iter().map(|o| o.exchange_setups).sum();
        let mut exact = vec![("exchange_setups", setups as f64)];
        if traced {
            exact.push((
                "bytes_exchanged",
                traces.iter().map(|(_, e)| posted_bytes(e)).sum(),
            ));
        }
        self.last = outs.into_iter().map(|o| o.output).collect();
        Op {
            start,
            wall,
            traces,
            exact,
            points: (self.legs.len() * self.shared.spec.len()) as f64,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        if self.last.len() != self.legs.len() {
            return Err("no output to verify".into());
        }
        let reference = self.shared.reference();
        let err = self
            .legs
            .iter()
            .zip(&self.last)
            .map(|((grid, _, _), out)| {
                compare_pencil_with_serial(
                    &self.shared.spec,
                    *grid,
                    self.comm.rank(),
                    out,
                    reference,
                )
            })
            .fold(0.0, f64::max);
        let finite = self.last.iter().all(|out| all_finite(&out.data));
        self.shared.judge(self.comm, err, finite)
    }

    fn agree(&mut self, next: Next) -> Next {
        broadcast(self.comm, next)
    }
}

/// Runs a distributed workload: spawns the world, builds one `Rank` per rank
/// thread with `build`, drives them in lockstep, and keeps rank 0's report.
fn run_world<B>(ctx: &Ctx, n: usize, build: B) -> (Report, Spans)
where
    B: for<'c> Fn(&'c Comm, &'c Shared<'c>) -> Box<dyn Rank + 'c> + Sync,
{
    let spec = ProblemSpec::cube(n, REAL_RANKS);
    let made = Instant::now();
    let field = seeded_field(ctx.seed, spec.len());
    let made_input = made.elapsed();
    let shared = Shared {
        spec,
        field: &field,
        reference: OnceLock::new(),
    };
    let mut per_rank = mpisim::run(REAL_RANKS, |comm| {
        // Only the rank that keeps the clock records spans.
        let mut spans = Spans::new(ctx.traced && comm.rank() == 0);
        let report = drive(build(&comm, &shared).as_mut(), ctx, made_input, &mut spans);
        (report, spans)
    });
    per_rank.swap_remove(0)
}

fn slab_input(shared: &Shared, comm: &Comm) -> Vec<Complex64> {
    let slabs = PencilGrid {
        pr: comm.size(),
        pc: 1,
    };
    pencil_block(shared.field, &shared.spec, slabs, comm.rank())
}

// ---------------------------------------------------------------------------
// sim_tune
// ---------------------------------------------------------------------------

/// One Table-2 cell, rebuilt from public calls the way `fft-bench`'s
/// `run_cell` builds it.
pub struct Cell {
    pub fftw_s: f64,
    pub new_s: f64,
    pub th_s: f64,
    pub new: TuneResult<TuningParams>,
    pub th: TuneResult<ThParams>,
    /// Simulations run, the three end-to-end ones included.
    pub simulations: usize,
    /// The span of the `tune_new` call, whose self time is the tuner's own.
    pub new_span: SpanId,
}

pub fn run_cell(platform: &Platform, spec: ProblemSpec, evals: usize, scope: Scope) -> Cell {
    let Scope { spans, parent, op } = scope;
    let seed = TuningParams::seed(&spec);
    let sim = |spans: &mut Spans, parent, variant, params, objective| {
        spans
            .time(parent, op, "simnet", "fft3_simulated", || {
                fft3_simulated(platform.clone(), spec, variant, params, objective).time
            })
            .0
    };
    let fftw_s = sim(spans, parent, Variant::Fftw, seed, false);

    let tuning = spans.begin(parent, op, "tuner", "tune_new");
    let new_span = tuning.id;
    let new = tune_new(
        &spec,
        |p| sim(spans, new_span, Variant::New, *p, true),
        evals,
    );
    spans.end(tuning);
    let new_s = sim(spans, parent, Variant::New, new.best, false);

    let tuning = spans.begin(parent, op, "tuner", "tune_th");
    let th = tune_th(
        &spec,
        |p| {
            spans
                .time(tuning.id, op, "simnet", "th_simulated", || {
                    th_simulated(platform.clone(), spec, *p, true).time
                })
                .0
        },
        evals,
    );
    spans.end(tuning);
    let (th_s, _) = spans.time(parent, op, "simnet", "th_simulated", || {
        th_simulated(platform.clone(), spec, th.best, false).time
    });

    Cell {
        fftw_s,
        new_s,
        th_s,
        simulations: new.executed + th.executed + 3,
        new_span,
        new,
        th,
    }
}

struct SimTune {
    platform: Platform,
    spec: ProblemSpec,
    evals: usize,
    last: Option<Cell>,
}

impl Rank for SimTune {
    fn op(&mut self, _traced: bool, scope: Scope) -> Op {
        let start = Instant::now();
        let cell = run_cell(&self.platform, self.spec, self.evals, scope);
        let wall = start.elapsed();
        let exact = vec![
            ("sim_time_s.fftw", cell.fftw_s),
            ("sim_time_s.new_tuned", cell.new_s),
            ("sim_time_s.th_tuned", cell.th_s),
            ("tune_new.best_objective_s", cell.new.best_value),
            ("tune_new.executed", cell.new.executed as f64),
            ("tune_new.cache_hits", cell.new.cache_hits as f64),
            ("tune_new.infeasible", cell.new.infeasible as f64),
            ("tune_th.best_objective_s", cell.th.best_value),
            ("tune_th.executed", cell.th.executed as f64),
        ];
        let points = (cell.simulations * self.spec.len()) as f64;
        self.last = Some(cell);
        Op {
            start,
            wall,
            traces: Vec::new(),
            exact,
            points,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let cell = self.last.as_ref().ok_or("no cell to verify")?;
        if !cell.new.best.is_feasible(&self.spec) || !cell.th.best.is_feasible(&self.spec) {
            return Err("a tuned configuration is infeasible".into());
        }
        // The shape Table 2 stands on: on the slow network tuned NEW beats
        // the blocking baseline, and tuning never loses to its own seed.
        require(cell.new_s < cell.fftw_s, || {
            format!(
                "tuned NEW {} s does not beat FFTW {} s",
                cell.new_s, cell.fftw_s
            )
        })?;
        let at_seed = cell.new.history.first().map_or(f64::INFINITY, |h| h.1);
        require(cell.new.best_value <= at_seed, || {
            format!(
                "best objective {} is worse than the seed's {at_seed}",
                cell.new.best_value
            )
        })
    }

    fn warms_up(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// service_replay
// ---------------------------------------------------------------------------

/// The service every replay runs on: `umd_cluster` with default policy.
pub fn service(sizes: &Sizes) -> Service {
    Service::new(ServiceConfig::new(umd_cluster(), sizes.service_ranks))
}

/// The values of a replay that are simulated, and so repeat exactly.
pub fn replay_exact(report: &ServiceReport) -> Vec<(&'static str, f64)> {
    vec![
        ("service.completed", report.completed() as f64),
        ("service.rejected", report.rejected() as f64),
        ("service.cancelled", report.cancelled() as f64),
        ("service.slowdown_p99", report.slowdown.p99),
        ("service.jain", report.jain),
        ("service.makespan_s", report.makespan),
        ("service.fct_p50_s", report.fct.p50),
    ]
}

/// A replay is sound when every job has exactly one outcome, none was
/// refused as infeasible (the trace holds only valid geometries), and every
/// completed job kept its 1.5× deadline.
pub fn judge_replay(report: &ServiceReport, jobs: usize) -> Result<(), String> {
    let outcomes = report.completed() + report.rejected() + report.cancelled();
    if report.jobs.len() != jobs || outcomes != jobs {
        return Err(format!("{jobs} jobs in, {outcomes} outcomes out"));
    }
    if let Some(rec) = report
        .jobs
        .iter()
        .find(|r| matches!(r.outcome, JobOutcome::Rejected(RejectReason::Infeasible(_))))
    {
        return Err(format!("job {} refused: {}", rec.job, rec.outcome));
    }
    if report.completed() == 0 {
        return Err("no job completed".into());
    }
    require(report.slowdown.p99 <= 1.5 + 1e-9, || {
        format!(
            "p99 slowdown {} breaks the 1.5x deadline",
            report.slowdown.p99
        )
    })
}

struct ServiceReplay {
    service: Service,
    jobs: Vec<JobSpec>,
    points: f64,
    last: Option<ServiceReport>,
}

impl Rank for ServiceReplay {
    fn op(&mut self, _traced: bool, scope: Scope) -> Op {
        let start = Instant::now();
        let (service, jobs) = (&self.service, &self.jobs);
        let (report, wall) =
            scope
                .spans
                .time(scope.parent, scope.op, "service", "Service::run", || {
                    service.run(jobs)
                });
        let exact = replay_exact(&report);
        self.last = Some(report);
        Op {
            start,
            wall,
            traces: Vec::new(),
            exact,
            points: self.points,
        }
    }

    fn verify(&mut self) -> Result<(), String> {
        let report = self.last.as_ref().ok_or("no report to verify")?;
        judge_replay(report, self.jobs.len())
    }

    fn warms_up(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------

/// Runs workload `name` in this process; `None` if there is none of that
/// name. Returns what it measured and the spans it recorded.
pub fn run(name: &str, ctx: &Ctx) -> Option<(Report, Spans)> {
    let sizes = ctx.sizes;
    let mut spans = Spans::new(ctx.traced);
    let report = match name {
        "serial128" => {
            let n = sizes.slab_n;
            let made = Instant::now();
            let field = seeded_field(ctx.seed, n * n * n);
            let mut rng = Rng::new(ctx.seed ^ 0x0dd_b175);
            let probes = (0..8)
                .map(|_| (rng.below(n), rng.below(n), rng.below(n)))
                .collect();
            let made_input = made.elapsed();
            let mut rank = Serial {
                n,
                field: &field,
                data: vec![Complex64::ZERO; field.len()],
                probes,
            };
            drive(&mut rank, ctx, made_input, &mut spans)
        }
        "slab128_steady" => {
            return Some(run_world(ctx, sizes.slab_n, |comm, shared| {
                let params = TuningParams::seed(&shared.spec);
                Box::new(Slab {
                    shared,
                    comm,
                    params,
                    input: slab_input(shared, comm),
                    session: Some(FftSession::new(
                        comm,
                        shared.spec,
                        Variant::New,
                        params,
                        Direction::Forward,
                        Rigor::Estimate,
                    )),
                    last: None,
                })
            }))
        }
        "slab64_tiles" => {
            return Some(run_world(ctx, sizes.tiles_n, |comm, shared| {
                // One plane per tile, four in flight, one poll per phase:
                // the most messages and the most polls this size allows.
                let params = TuningParams {
                    t: 1,
                    w: 4,
                    pz: 1,
                    uz: 1,
                    fy: 1,
                    fp: 1,
                    fu: 1,
                    fx: 1,
                    ..TuningParams::seed(&shared.spec)
                };
                Box::new(Slab {
                    shared,
                    comm,
                    params,
                    input: slab_input(shared, comm),
                    session: None,
                    last: None,
                })
            }));
        }
        "pencil96_steady" => {
            return Some(run_world(ctx, sizes.pencil_n, |comm, shared| {
                let p = comm.size();
                let legs = [PencilGrid { pr: p, pc: 1 }, PencilGrid { pr: 1, pc: p }]
                    .into_iter()
                    .map(|grid| {
                        let session = PencilSession::new(
                            comm,
                            shared.spec,
                            grid,
                            pencil_seed(&shared.spec, grid),
                            Direction::Forward,
                        )
                        .expect("both grids have as many ranks as the world");
                        let input = pencil_block(shared.field, &shared.spec, grid, comm.rank());
                        (grid, input, session)
                    })
                    .collect();
                Box::new(Pencil {
                    shared,
                    comm,
                    legs,
                    last: Vec::new(),
                })
            }))
        }
        "sim_tune" => {
            let (n, p) = sizes.cell;
            let mut rank = SimTune {
                platform: umd_cluster(),
                spec: ProblemSpec::cube(n, p),
                evals: sizes.tune_evals,
                last: None,
            };
            drive(&mut rank, ctx, Duration::ZERO, &mut spans)
        }
        "service_replay" => {
            let made = Instant::now();
            let service = service(sizes);
            let jobs = service_trace(ctx.seed, sizes, &service);
            let made_input = made.elapsed();
            let points = jobs.iter().map(|j| j.spec.len() as f64).sum();
            let mut rank = ServiceReplay {
                service,
                jobs,
                points,
                last: None,
            };
            drive(&mut rank, ctx, made_input, &mut spans)
        }
        _ => return None,
    };
    Some((report, spans))
}
