//! The conformance table: every point of the transform's behaviour space a
//! check must cover, as data, and the one workload that runs any row.
//!
//! A [`Row`] picks one value on each axis — [`Decomposition`] (slab, or a
//! 2×2 pencil grid), variant, direction, shape, fault and use — and runs on
//! [`RANKS`] ranks under [`mpisim::explore()`], so every row also meets
//! every delivery schedule of the plan it is run with. Each run holds
//! three oracles:
//!
//! * **spectrum** — every rank's output is within `1e-9·N` of
//!   [`fft3d::serial::fft3_serial`], `N` the size of the job's own array;
//!   where the validating constructor ([`Simulation::slab`]/
//!   [`Simulation::pencil`]) refuses the geometry, the real transform must
//!   refuse it with the same typed [`Error`] instead;
//! * **recovery record** — the bit-flip victim heals with a
//!   [`DegradeAction::Retransmit`] and nobody else heals anything; a crash
//!   leaves exactly `{VICTIM}` lost on `RANKS − 1` survivors; executions of
//!   a session after its first set up no exchange;
//! * **checked mode** — no finding (MC001–MC003, MC005–MC007), panic or
//!   hang (the driver's part).
//!
//! `tests/conformance.rs` runs every row on one schedule; `cargo xtask
//! conform` and `check` run each row over its [`Row::plan`]. Two
//! combinations are not rows: the pencil stages arm no integrity seal, so a
//! pencil transform never reaches the trigger point of a staging bit-flip
//! (ROADMAP 4(a)) nor of a rank crash, and a crashed pencil is not
//! recoverable (ROADMAP 4(b)).

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use faultplan::FaultPlan;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::sim_env::Simulation;
use fft3d::{
    compare_pencil_with_serial, pencil_blocking, pencil_seed, pencil_test_input, run_recoverable,
    Decomposition, DegradeAction, Error, FftSession, NoopRecorder, PencilGrid, PencilSession,
    ProblemSpec, RecoverConfig, Recovery, ReplicaSource, TuningParams,
};
use mpisim::{Comm, ExploreConfig, ExploreReport};
use std::fmt;
use std::sync::Arc;

/// World size of every row.
pub const RANKS: usize = 4;

/// The rank a bit-flip or crash row hurts.
pub const VICTIM: usize = 1;

/// The algorithm. On the pencil, NEW is [`pencil_seed`] with one plane per
/// tile and FFTW is [`pencil_blocking`]; NEW-0 and TH are slab-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's overlapped pipeline, at `Th = 2`.
    New,
    /// NEW without overlap (`W = 0`, no polls).
    New0,
    /// Hoefler et al.'s TH.
    Th,
    /// One blocking exchange per stage.
    Fftw,
}

/// The global array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 8³.
    Cube,
    /// 10×9×7: no axis divides among the ranks.
    Ragged,
    /// 3×5×8: more ranks than x-planes, so a slab rank owns nothing.
    Sparse,
}

/// What goes wrong during the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Nothing.
    None,
    /// Seeded wire payload corruption, healed by checksum and retransmit.
    Payload,
    /// One bit of [`VICTIM`]'s packed staging buffer flips at the first,
    /// middle or last tile (one run each).
    Bitflip,
    /// [`VICTIM`] dies at the first, middle or last tile (one run each).
    Crash,
}

/// How the transform is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Use {
    /// One session executed once ([`run_recoverable`] for crash rows).
    OneShot,
    /// One session executed three times.
    Session,
    /// The service's shape: three executions of one session with a
    /// foreign-geometry one-shot (`nz` doubled) between the 1st and 2nd.
    Serve,
}

/// One point of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// One exchange over all ranks ([`FftSession`]), or two over a pencil
    /// grid's rows and columns ([`PencilSession`]).
    pub decomposition: Decomposition,
    /// The algorithm.
    pub variant: Variant,
    /// Transform direction.
    pub dir: Direction,
    /// The global array.
    pub shape: Shape,
    /// What goes wrong.
    pub fault: Fault,
    /// How the transform is driven.
    pub usage: Use,
}

/// Every row: the product of the axes, less the combinations the module
/// doc names and crashes outside one-shot runs.
pub fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    let pencil = Decomposition::Pencil(PencilGrid { pr: 2, pc: 2 });
    for decomposition in [Decomposition::Slab, pencil] {
        let (variants, faults): (&[Variant], &[Fault]) = match decomposition {
            Decomposition::Slab => (
                &[Variant::New, Variant::New0, Variant::Th, Variant::Fftw],
                &[Fault::None, Fault::Payload, Fault::Bitflip, Fault::Crash],
            ),
            Decomposition::Pencil(_) => (
                &[Variant::New, Variant::Fftw],
                &[Fault::None, Fault::Payload],
            ),
        };
        for &variant in variants {
            for dir in [Direction::Forward, Direction::Backward] {
                for shape in [Shape::Cube, Shape::Ragged, Shape::Sparse] {
                    for &fault in faults {
                        for usage in [Use::OneShot, Use::Session, Use::Serve] {
                            if fault != Fault::Crash || usage == Use::OneShot {
                                rows.push(Row {
                                    decomposition,
                                    variant,
                                    dir,
                                    shape,
                                    fault,
                                    usage,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    rows
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = self.spec();
        match self.decomposition {
            Decomposition::Slab => write!(f, "Slab")?,
            Decomposition::Pencil(g) => write!(f, "Pencil{}x{}", g.pr, g.pc)?,
        }
        write!(
            f,
            "/{:?}/{:?}/{}x{}x{}/{:?}/{:?}",
            self.variant, self.dir, spec.nx, spec.ny, spec.nz, self.fault, self.usage
        )
    }
}

/// One geometry a row transforms, with what its oracles compare against.
struct Case {
    spec: ProblemSpec,
    params: TuningParams,
    /// The serial spectrum of the test field.
    reference: Vec<Complex64>,
    /// The typed error the validating constructor refuses the geometry
    /// with.
    refusal: Option<Error>,
}

impl Case {
    /// `err`, the largest deviation from the serial spectrum, in units of
    /// the spectrum oracle's bound `1e-9·N`.
    fn deviation(&self, err: f64) -> f64 {
        err / (1e-9 * self.spec.len() as f64)
    }

    /// The oracle of a transform that returned `e`: the refusal the
    /// validating constructor predicts, on every rank.
    fn refused(&self, e: Error) -> f64 {
        match self.refusal {
            Some(want) if want == e => 0.0,
            Some(want) => panic!("the transform failed with `{e}`, not the refusal `{want}`"),
            None => panic!("the transform failed with `{e}`"),
        }
    }
}

/// One rank's session of a row's transform.
enum Transform<'c> {
    Slab(FftSession<'c>),
    Pencil(PencilSession, PencilGrid),
}

/// What one execution left for the oracles.
struct Ran {
    /// [`Case::deviation`] of the output.
    err: f64,
    recovery: Recovery,
    setups: u64,
}

impl<'c> Transform<'c> {
    fn open(comm: &'c Comm, row: &Row, case: &Case) -> Result<Self, Error> {
        Ok(match row.decomposition {
            Decomposition::Slab => Transform::Slab(FftSession::new(
                comm,
                case.spec,
                row.slab_variant(),
                case.params,
                row.dir,
                Rigor::Estimate,
            )),
            Decomposition::Pencil(grid) => Transform::Pencil(
                PencilSession::new(comm, case.spec, grid, case.params, row.dir)?,
                grid,
            ),
        })
    }

    fn execute(&mut self, rank: usize, case: &Case) -> Result<Ran, Error> {
        let (spec, reference) = (&case.spec, &case.reference);
        Ok(match self {
            Transform::Slab(session) => {
                let out = session.execute(&local_test_slab(spec, rank))?;
                Ran {
                    err: case.deviation(compare_with_serial(spec, rank, &out, reference)),
                    recovery: out.recovery,
                    setups: out.exchange_setups,
                }
            }
            Transform::Pencil(session, grid) => {
                let grid = *grid;
                let out = session.execute(&pencil_test_input(spec, grid, rank))?;
                let err = compare_pencil_with_serial(spec, grid, rank, &out.output, reference);
                Ran {
                    err: case.deviation(err),
                    recovery: out.recovery,
                    setups: out.exchange_setups,
                }
            }
        })
    }
}

impl Row {
    /// The row's global array on [`RANKS`] ranks.
    pub fn spec(&self) -> ProblemSpec {
        let (nx, ny, nz) = match self.shape {
            Shape::Cube => (8, 8, 8),
            Shape::Ragged => (10, 9, 7),
            Shape::Sparse => (3, 5, 8),
        };
        ProblemSpec {
            nx,
            ny,
            nz,
            p: RANKS,
        }
    }

    /// The schedules `cargo xtask conform` runs the row over, the random
    /// seeds offset by `seed_base`. A row an old per-family sweep ran keeps
    /// that sweep's count: 200 (136 random + the 64-mask systematic sweep)
    /// for the fault-free one-shot NEW rows on the cube, 80 (16 + 64) for
    /// the cube's NEW rows the repeated-execution, service, corruption and
    /// crash sweeps ran; every other row runs a compact 8 + 8.
    pub fn plan(&self, seed_base: u64) -> ExploreConfig {
        let swept = self.variant == Variant::New
            && self.dir == Direction::Forward
            && self.shape == Shape::Cube;
        let slab = self.decomposition == Decomposition::Slab;
        let (random, bits) = match (swept, self.fault, self.usage) {
            (true, Fault::None, Use::OneShot) => (136, 6),
            (true, Fault::None, Use::Session) => (16, 6),
            (true, Fault::None, Use::Serve) | (true, _, Use::OneShot) if slab => (16, 6),
            _ => (8, 3),
        };
        ExploreConfig::new(RANKS, seed_base..seed_base.saturating_add(random), bits)
    }

    /// The slab variant the row runs (NEW-0 is NEW at a non-overlapped
    /// tuning vector).
    fn slab_variant(&self) -> fft3d::Variant {
        match self.variant {
            Variant::New | Variant::New0 => fft3d::Variant::New,
            Variant::Th => fft3d::Variant::Th,
            Variant::Fftw => fft3d::Variant::Fftw,
        }
    }

    /// The tuning vector the row runs `spec` at.
    fn params(&self, spec: &ProblemSpec) -> TuningParams {
        let seed = TuningParams::seed(spec);
        match (self.decomposition, self.variant) {
            (Decomposition::Slab, Variant::New) => TuningParams { threads: 2, ..seed },
            (Decomposition::Slab, Variant::New0) => seed.without_overlap(),
            (Decomposition::Slab, _) => seed,
            (Decomposition::Pencil(grid), Variant::New) => TuningParams {
                t: 1,
                threads: 2,
                ..pencil_seed(spec, grid)
            },
            (Decomposition::Pencil(grid), _) => pencil_blocking(spec, grid),
        }
    }

    fn case(&self, spec: ProblemSpec) -> Case {
        let params = self.params(&spec);
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, self.dir);
        let refusal = match self.decomposition {
            Decomposition::Slab => Simulation::slab(spec, self.slab_variant(), params).err(),
            Decomposition::Pencil(grid) => Simulation::pencil(spec, grid, params).err(),
        };
        Case {
            spec,
            params,
            reference,
            refusal,
        }
    }

    /// The row's labelled fault plans: one run per plan and schedule.
    fn faults(&self, case: &Case) -> Vec<(String, FaultPlan)> {
        let tiles = match self.variant {
            Variant::Fftw => 1,
            _ => case.params.tiles(&case.spec),
        };
        let mut at = vec![0, tiles / 2, tiles - 1];
        at.dedup();
        let hurt = |what: &str, plan: fn(FaultPlan, usize, usize) -> FaultPlan| {
            let label = |tile| format!("{what}(rank={VICTIM},tile={tile})");
            let plan = |tile| plan(FaultPlan::seeded(0xc0de), VICTIM, tile);
            at.iter().map(|&tile| (label(tile), plan(tile))).collect()
        };
        match self.fault {
            Fault::None => vec![("clean".to_owned(), FaultPlan::none())],
            Fault::Payload => {
                let plan = FaultPlan::seeded(0xc0de).with_payload_corruption(0.15, 8);
                vec![("payload(p=0.15)".to_owned(), plan)]
            }
            Fault::Bitflip => hurt("bitflip", FaultPlan::with_memory_bitflip),
            Fault::Crash => hurt("crash", FaultPlan::with_rank_crash),
        }
    }

    /// Runs the row once per schedule of `cfg` and fault plan, every rank
    /// held to the three oracles. A run's reported error is its worst
    /// deviation from the serial spectrum in units of its job's `1e-9·N`,
    /// so it fails above 1.
    pub fn explore(&self, cfg: &ExploreConfig) -> ExploreReport {
        let spec = self.spec();
        let mut cases = vec![self.case(spec)];
        if self.usage == Use::Serve {
            cases.push(self.case(ProblemSpec {
                nz: 2 * spec.nz,
                ..spec
            }));
        }
        let faults = self.faults(&cases[0]);
        let workload = |comm: Comm| {
            Some(match self.fault {
                Fault::Crash => self.recover(&comm, &cases[0]),
                _ => self.sessions(&comm, &cases),
            })
        };
        mpisim::explore(cfg, &faults, 1.0, workload)
    }

    /// One rank of a crash row: the survivors shrink, re-decompose and
    /// recompute, re-fetching lost input from a replica of the test field.
    fn recover(&self, comm: &Comm, case: &Case) -> f64 {
        let (nx, ny, nz) = (case.spec.nx, case.spec.ny, case.spec.nz);
        let source = ReplicaSource::new(Arc::new(full_test_array(nx, ny, nz)));
        let outcome = run_recoverable(
            comm,
            case.spec,
            self.slab_variant(),
            case.params,
            self.dir,
            &source,
            &RecoverConfig::default(),
            &mut NoopRecorder,
        );
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => return case.refused(e),
        };
        assert_eq!(outcome.lost, [VICTIM], "the agreed failure set");
        assert_eq!(outcome.spec.p, RANKS - 1, "the world shrinks by one");
        let err = compare_with_serial(
            &outcome.spec,
            outcome.rank,
            &outcome.output,
            &case.reference,
        );
        case.deviation(err)
    }

    /// One rank of every other row: the row's executions of `cases[0]`,
    /// with `cases[1]` as the serve shape's foreign job; the worst
    /// [`Case::deviation`].
    fn sessions(&self, comm: &Comm, cases: &[Case]) -> f64 {
        let rank = comm.rank();
        let victim = self.fault == Fault::Bitflip && rank == VICTIM;
        let jobs: &[usize] = match self.usage {
            Use::OneShot => &[0],
            Use::Session => &[0, 0, 0],
            Use::Serve => &[0, 1, 0, 0],
        };
        let mut session = match Transform::open(comm, self, &cases[0]) {
            Ok(session) => session,
            Err(e) => return cases[0].refused(e),
        };
        let mut worst = 0.0f64;
        for (i, &job) in jobs.iter().enumerate() {
            let case = &cases[job];
            let ran = match job {
                0 => session.execute(rank, case),
                _ => Transform::open(comm, self, case).and_then(|mut t| t.execute(rank, case)),
            };
            let ran = match ran {
                Ok(ran) => ran,
                Err(e) => return case.refused(e),
            };
            if let Some(want) = case.refusal {
                panic!("job {i} ran a geometry the model refuses with `{want}`");
            }
            if victim {
                assert!(
                    ran.recovery.corruptions_healed >= 1
                        && ran.recovery.actions.contains(&DegradeAction::Retransmit),
                    "job {i}: the bit-flip victim did not heal with a retransmit: {:?}",
                    ran.recovery
                );
            } else {
                assert!(ran.recovery.clean(), "job {i}: {:?}", ran.recovery);
            }
            if job == 0 && i > 0 {
                assert_eq!(ran.setups, 0, "job {i} set up its exchanges again");
            }
            worst = worst.max(ran.err);
        }
        worst
    }
}
