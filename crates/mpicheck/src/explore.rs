//! Deterministic schedule exploration.
//!
//! Replays a closure over the mpisim runtime under many delivery
//! interleavings. Two schedule families:
//!
//! * **Random**: [`SchedConfig::random`] seeds — each delivery defers with
//!   probability `defer_prob`, decided by a hash of
//!   `(seed, src, dst, tag, nth-on-edge)`. Broad, cheap coverage.
//! * **Systematic** (DPOR-lite): [`SchedConfig::systematic`] — delivery
//!   decisions hash into `bits` classes; sweeping the deferral mask over
//!   `0..2^bits` enumerates every bounded combination of per-class delays,
//!   including patterns random sampling is unlikely to hit (e.g. "defer
//!   every round-3 message but nothing else").
//!
//! Determinism claim, stated precisely: the *perturbation pattern* — which
//! deliveries are deferred, and for how many receiver yield points — is a
//! pure function of the schedule descriptor, independent of thread timing.
//! The OS still interleaves threads underneath, so a descriptor denotes a
//! family of closely-related executions rather than a single one; in
//! practice a race surfaced by a descriptor re-surfaces under it, which is
//! what exploration needs.
//!
//! The transform sweeps ([`explore_pipeline`], [`explore_pencil`]) take the
//! number of `executions` of one session per schedule: a one-shot call is a
//! session executed once, so `1` sweeps the one-shot path and `3` the
//! setup-once / execute-many path — the same per-tile persistent plans
//! (init at first post, start, free on drop; MC006 if one leaks) either way.

use mpisim::{
    run_with_config, Backoff, CheckConfig, Comm, Finding, RunConfig, SchedConfig, Severity,
};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// What to explore and how hard.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// World size for every schedule.
    pub ranks: usize,
    /// Random-mode seeds to run.
    pub random_seeds: Range<u64>,
    /// Systematic-mode decision classes; all `2^bits` masks are swept.
    /// 0 disables the systematic pass.
    pub systematic_bits: u32,
    /// Deferral probability of the random schedules.
    pub defer_prob: f64,
    /// Maximum hold (receiver yield-point visits) per deferred delivery.
    pub max_hold: u32,
}

impl ExploreConfig {
    /// The acceptance-gate configuration: 4 ranks, 136 random seeds plus a
    /// full 6-bit systematic sweep (64 masks) — 200 schedules.
    pub fn quick() -> Self {
        ExploreConfig {
            ranks: 4,
            random_seeds: 0..136,
            systematic_bits: 6,
            defer_prob: 0.35,
            max_hold: 3,
        }
    }

    /// Number of schedules this configuration runs.
    pub fn schedules(&self) -> u64 {
        let random = self
            .random_seeds
            .end
            .saturating_sub(self.random_seeds.start);
        let systematic = if self.systematic_bits == 0 {
            0
        } else {
            1u64 << self.systematic_bits
        };
        random + systematic
    }

    /// Every schedule of the plan, in run order (random seeds first).
    pub fn plan(&self) -> Vec<SchedConfig> {
        let mut out: Vec<SchedConfig> = self
            .random_seeds
            .clone()
            .map(|seed| {
                let mut s = SchedConfig::random(seed);
                s.defer_prob = self.defer_prob;
                s.max_hold = self.max_hold;
                s
            })
            .collect();
        if self.systematic_bits > 0 {
            for mask in 0..(1u64 << self.systematic_bits) {
                let mut s = SchedConfig::systematic(mask, self.systematic_bits);
                s.max_hold = self.max_hold;
                out.push(s);
            }
        }
        out
    }
}

/// One schedule that did not come back clean.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// Reproducible descriptor (`random(seed=…)` / `systematic(mask=…)`).
    pub schedule: String,
    /// Error-severity findings of the run.
    pub findings: Vec<Finding>,
    /// Panic message, when the run panicked rather than reporting.
    pub panic: Option<String>,
    /// Worst numerical deviation reported by the workload, if it measures
    /// one.
    pub max_err: Option<f64>,
}

/// Aggregate result of an exploration sweep.
#[derive(Debug)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules_run: u64,
    /// Schedules that panicked, reported an error-severity finding, or
    /// exceeded the workload's numerical tolerance.
    pub failures: Vec<ScheduleFailure>,
    /// Info-severity findings observed across clean schedules (surfaced,
    /// not fatal — e.g. MC004 wildcard nondeterminism).
    pub info_findings: usize,
    /// Wall-clock of the sweep in seconds.
    pub wall: f64,
}

impl ExploreReport {
    /// `true` when every schedule came back clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// Runs `workload` once per schedule in `cfg`'s plan, under mpisim's
/// checked mode, and collects every non-clean schedule. The workload
/// returns an optional per-rank "numerical error" which is compared against
/// `tolerance` (pass `f64::INFINITY` for correctness-by-panic workloads).
/// `progress` is called after every schedule with `(done, total)`.
pub fn explore<W>(
    cfg: &ExploreConfig,
    tolerance: f64,
    workload: W,
    progress: impl FnMut(u64, u64),
) -> ExploreReport
where
    W: Fn(Comm) -> Option<f64> + Send + Sync,
{
    let plan: Vec<(SchedConfig, faultplan::FaultPlan, String)> = cfg
        .plan()
        .into_iter()
        .map(|s| {
            let d = s.describe();
            (s, faultplan::FaultPlan::none(), d)
        })
        .collect();
    explore_impl(cfg.ranks, plan, tolerance, workload, progress)
}

/// The engine behind [`explore`] and [`explore_crash_recovery`]: one run
/// per `(schedule, fault plan)` entry, each validated the same way.
/// `expect_crashes` is the set of world ranks the plan is expected to kill;
/// a mismatch (e.g. a crash fault that never fired) fails the schedule.
fn explore_impl<W>(
    ranks: usize,
    plan: Vec<(SchedConfig, faultplan::FaultPlan, String)>,
    tolerance: f64,
    workload: W,
    mut progress: impl FnMut(u64, u64),
) -> ExploreReport
where
    W: Fn(Comm) -> Option<f64> + Send + Sync,
{
    let started = Instant::now();
    let total = plan.len() as u64;
    let mut failures = Vec::new();
    let mut info_findings = 0usize;
    for (i, (sched, faults, descriptor)) in plan.into_iter().enumerate() {
        let expect_crashes: Vec<usize> = (0..ranks)
            .filter_map(|r| faults.crash_at(r).map(|_| r))
            .collect();
        let run_cfg = RunConfig {
            faults,
            backoff: Backoff::checked(),
            check: Some(CheckConfig::with_sched(sched)),
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_with_config(ranks, run_cfg, &workload)
        }));
        match outcome {
            Ok(out) => {
                let errors: Vec<Finding> = out.report.errors().cloned().collect();
                info_findings += out
                    .report
                    .findings
                    .iter()
                    .filter(|f| f.severity == Severity::Info)
                    .count();
                let max_err = out.results.as_ref().and_then(|rs| {
                    rs.iter()
                        .flatten()
                        .cloned()
                        .fold(None, |a: Option<f64>, b| Some(a.map_or(b, |a| a.max(b))))
                });
                let numerically_bad = max_err.is_some_and(|e| e > tolerance);
                let hung = out.results.is_none();
                let wrong_deaths = (out.crashed != expect_crashes).then(|| {
                    format!(
                        "injected-crash mismatch: expected dead ranks {expect_crashes:?}, \
                         observed {:?}",
                        out.crashed
                    )
                });
                if !errors.is_empty() || numerically_bad || hung || wrong_deaths.is_some() {
                    failures.push(ScheduleFailure {
                        schedule: descriptor,
                        findings: errors,
                        panic: wrong_deaths,
                        max_err,
                    });
                }
            }
            Err(e) => {
                failures.push(ScheduleFailure {
                    schedule: descriptor,
                    findings: Vec::new(),
                    panic: Some(panic_message(e)),
                    max_err: None,
                });
            }
        }
        progress(i as u64 + 1, total);
    }
    ExploreReport {
        schedules_run: total,
        failures,
        info_findings,
        wall: started.elapsed().as_secs_f64(),
    }
}

/// The forward serial spectrum of `spec`'s test field — the oracle of every
/// transform sweep — with the tolerance a rank's deviation is held to.
fn serial_oracle(spec: &fft3d::ProblemSpec) -> (std::sync::Arc<Vec<cfft::Complex64>>, f64) {
    let mut reference = fft3d::serial::full_test_array(spec.nx, spec.ny, spec.nz);
    let forward = cfft::Direction::Forward;
    fft3d::serial::fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, forward);
    let tolerance = 1e-9 * (spec.len() as f64).max(1.0);
    (std::sync::Arc::new(reference), tolerance)
}

/// The acceptance workload: the paper's full overlapped pipeline (NEW
/// variant) on a small grid as one [`fft3d::FftSession`] executed
/// `executions` times per schedule, every rank validating each output slab
/// against the serial reference transform. The first execution initialises
/// the per-tile plans (`alltoallv_init`), later ones restart them over the
/// *same* registered schedules (generation tagging, staging reuse, backoff
/// reset), and the session's drop frees them. Checked mode rides along: a
/// plan left unfreed would surface MC006 and fail the schedule, as would a
/// later execution that re-negotiated setup. `cargo xtask check` sweeps
/// ≥ 200 schedules of one execution and a compact plan of three.
pub fn explore_pipeline(
    cfg: &ExploreConfig,
    grid: usize,
    executions: usize,
    progress: impl FnMut(u64, u64),
) -> ExploreReport {
    use cfft::planner::Rigor;
    use cfft::Direction;
    use fft3d::real_env::{compare_with_serial, local_test_slab, Variant};
    use fft3d::{FftSession, ProblemSpec, TuningParams};

    let spec = ProblemSpec::cube(grid, cfg.ranks);
    // Two worker threads per rank so the schedule sweep also exercises the
    // intra-rank parallel kernels (their joins must stay race-free under
    // every interleaving, not just the default sequential path).
    let mut params = TuningParams::seed(&spec);
    params.threads = 2;
    let (reference, tolerance) = serial_oracle(&spec);

    explore(
        cfg,
        tolerance,
        move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let (variant, dir) = (Variant::New, Direction::Forward);
            let mut session = FftSession::new(&comm, spec, variant, params, dir, Rigor::Estimate);
            let mut worst = 0.0f64;
            for exec in 0..executions {
                let out = session
                    .execute(&input)
                    .unwrap_or_else(|e| panic!("execution {exec} faulted under exploration: {e}"));
                if exec > 0 && out.exchange_setups != 0 {
                    panic!(
                        "execution {exec} re-negotiated {} exchange setups",
                        out.exchange_setups
                    );
                }
                worst = worst.max(compare_with_serial(&spec, comm.rank(), &out, &reference));
            }
            Some(worst)
        },
        progress,
    )
}

/// The pencil acceptance workload: the overlapped 2-D pencil backend on a
/// small grid as one [`fft3d::PencilSession`] executed `executions` times
/// per schedule — row *and* column subcommunicator all-to-alls in flight
/// under every delivery interleaving, their per-tile plans initialised by
/// the first execution, reused by later ones and freed by the session's
/// drop — with each rank validating its output pencil against the serial
/// reference transform. Checked mode rides along, so an unmatched post, a
/// rank-divergent collective on a subcommunicator, a deadlock across the
/// two exchange rounds or a leaked plan surfaces as an MC001–MC007 finding
/// and fails the schedule, as does a later execution that re-negotiates
/// setup.
pub fn explore_pencil(
    cfg: &ExploreConfig,
    grid_n: usize,
    executions: usize,
    progress: impl FnMut(u64, u64),
) -> ExploreReport {
    use cfft::Direction;
    use fft3d::{
        compare_pencil_with_serial, pencil_seed, pencil_test_input, PencilGrid, PencilSession,
        ProblemSpec,
    };

    let spec = ProblemSpec::cube(grid_n, cfg.ranks);
    let grid = PencilGrid::near_square(cfg.ranks);
    // Force a multi-tile window so both exchange rounds keep several
    // subcommunicator all-to-alls in flight per schedule; two worker
    // threads per rank as in [`explore_pipeline`].
    let mut params = pencil_seed(&spec, grid);
    params.t = 1;
    params.threads = 2;
    let (reference, tolerance) = serial_oracle(&spec);

    explore(
        cfg,
        tolerance,
        move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let mut session = PencilSession::new(&comm, spec, grid, params, Direction::Forward)
                .unwrap_or_else(|e| panic!("pencil session refused under exploration: {e}"));
            let mut worst = 0.0f64;
            for exec in 0..executions {
                let out = session.execute(&input).unwrap_or_else(|e| {
                    panic!("pencil execution {exec} faulted under exploration: {e}")
                });
                if exec > 0 && out.exchange_setups != 0 {
                    panic!(
                        "pencil execution {exec} re-negotiated {} exchange setups",
                        out.exchange_setups
                    );
                }
                let (rank, out) = (comm.rank(), &out.output);
                let err = compare_pencil_with_serial(&spec, grid, rank, out, &reference);
                worst = worst.max(err);
            }
            Some(worst)
        },
        progress,
    )
}

/// The recovery acceptance sweep: for every schedule in `cfg`'s plan, kill
/// `victim` at the first, middle, and last tile boundary (three fault plans
/// per schedule) and require the survivors to recover elastically — agree
/// on exactly `{victim}` dead, shrink to `ranks − 1`, re-decompose, and
/// produce a spectrum that is serial-exact on every surviving slab. A
/// survivor that hangs, mis-names the dead rank, or returns a wrong
/// spectrum fails the schedule; so does a crash fault that never fired.
pub fn explore_crash_recovery(
    cfg: &ExploreConfig,
    grid: usize,
    victim: usize,
    progress: impl FnMut(u64, u64),
) -> ExploreReport {
    use cfft::planner::Rigor;
    use cfft::Direction;
    use fft3d::real_env::{compare_with_serial, Variant};
    use fft3d::serial::full_test_array;
    use fft3d::trace::NoopRecorder;
    use fft3d::{run_recoverable, ProblemSpec, RecoverConfig, ReplicaSource, TuningParams};
    use std::sync::Arc;

    assert!(victim < cfg.ranks, "victim must be a world rank");
    let spec = ProblemSpec::cube(grid, cfg.ranks);
    let params = TuningParams::seed(&spec);
    let tiles = params.tiles(&spec);
    let mut crash_tiles = vec![0, tiles / 2, tiles.saturating_sub(1)];
    crash_tiles.dedup();

    // The survivors re-fetch the victim's lost input from a full replica
    // of the test field; its serial transform is the oracle.
    let source = ReplicaSource::new(Arc::new(full_test_array(spec.nx, spec.ny, spec.nz)));
    let (reference, tolerance) = serial_oracle(&spec);

    let mut plan = Vec::new();
    for (i, sched) in cfg.plan().into_iter().enumerate() {
        for &at_tile in &crash_tiles {
            let descriptor = format!("{}+crash(rank={victim},tile={at_tile})", sched.describe());
            let faults =
                faultplan::FaultPlan::seeded(0x5eed + i as u64).with_rank_crash(victim, at_tile);
            plan.push((sched, faults, descriptor));
        }
    }

    explore_impl(
        cfg.ranks,
        plan,
        tolerance,
        move |comm| {
            let mut recorder = NoopRecorder;
            let outcome = run_recoverable(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &source,
                &RecoverConfig::default(),
                &mut recorder,
            )
            .unwrap_or_else(|e| panic!("recovery failed under exploration: {e}"));
            assert_eq!(
                outcome.lost,
                vec![victim],
                "agreed failure set names the victim"
            );
            assert_eq!(outcome.spec.p, spec.p - 1, "world shrank by exactly one");
            Some(compare_with_serial(
                &outcome.spec,
                outcome.rank,
                &outcome.output,
                &reference,
            ))
        },
        progress,
    )
}

/// The data-integrity acceptance sweep: for every schedule in `cfg`'s plan,
/// run the overlapped pipeline under three fault families — no faults (the
/// control), seeded payload corruption on the wire (healed transparently by
/// the checksum-verified retransmit protocol), and a silent memory bit-flip
/// in `victim`'s packed staging buffer at the first, middle, and last tile
/// (caught by the resident hash and healed by re-packing from the pristine
/// input at the post point). The gate is *zero undetected corruptions*: a
/// rank whose spectrum deviates from the serial oracle, a bit-flip victim
/// that reports no heal, a clean rank that reports one, or an integrity
/// error that escapes healing all fail the schedule.
pub fn explore_corruption(
    cfg: &ExploreConfig,
    grid: usize,
    victim: usize,
    progress: impl FnMut(u64, u64),
) -> ExploreReport {
    use cfft::planner::Rigor;
    use cfft::Direction;
    use fft3d::real_env::{compare_with_serial, local_test_slab, Variant};
    use fft3d::{DegradeAction, FftSession, ProblemSpec, TuningParams};

    assert!(victim < cfg.ranks, "victim must be a world rank");
    let spec = ProblemSpec::cube(grid, cfg.ranks);
    let params = TuningParams::seed(&spec);
    let tiles = params.tiles(&spec);
    let mut flip_tiles = vec![0, tiles / 2, tiles.saturating_sub(1)];
    flip_tiles.dedup();
    let (reference, tolerance) = serial_oracle(&spec);

    let mut plan = Vec::new();
    for (i, sched) in cfg.plan().into_iter().enumerate() {
        let seed = 0xc0de + i as u64;
        plan.push((
            sched,
            faultplan::FaultPlan::none(),
            format!("{}+clean", sched.describe()),
        ));
        plan.push((
            sched,
            faultplan::FaultPlan::seeded(seed).with_payload_corruption(0.15, 8),
            format!("{}+payload(p=0.15)", sched.describe()),
        ));
        for &at_tile in &flip_tiles {
            plan.push((
                sched,
                faultplan::FaultPlan::seeded(seed).with_memory_bitflip(victim, at_tile),
                format!("{}+bitflip(rank={victim},tile={at_tile})", sched.describe()),
            ));
        }
    }

    explore_impl(
        cfg.ranks,
        plan,
        tolerance,
        move |comm| {
            // Side-effect-free plan probe: am I the bit-flip victim here?
            let flipped = (0..tiles).any(|t| comm.bitflip_point(t).is_some());
            let input = local_test_slab(&spec, comm.rank());
            let out = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&input)
            .unwrap_or_else(|e| panic!("integrity fault escaped healing: {e}"));
            if flipped {
                assert!(
                    out.recovery.corruptions_healed >= 1,
                    "bit-flip victim reported no heal"
                );
                assert!(
                    out.recovery
                        .actions
                        .iter()
                        .any(|a| matches!(a, DegradeAction::Retransmit)),
                    "victim healed without a retransmit: {:?}",
                    out.recovery.actions
                );
            } else {
                assert_eq!(
                    out.recovery.corruptions_healed, 0,
                    "clean rank reported a heal"
                );
            }
            Some(compare_with_serial(&spec, comm.rank(), &out, &reference))
        },
        progress,
    )
}

/// The service acceptance sweep: the co-scheduling shape of
/// `fft3d::service` on real collectives — a same-geometry job train
/// through one [`fft3d::FftSession`] (the shared persistent-plan path)
/// with a *foreign-geometry* tenant job (a session of its own, executed
/// once, on a different problem shape) interleaved between the train's executions, all on one
/// communicator under every delivery interleaving. Checked mode rides
/// along: cross-tenant plan interference (a foreign exchange matched
/// against a registered schedule), a leaked plan, or an output deviating
/// from either serial oracle fails the schedule.
pub fn explore_service(
    cfg: &ExploreConfig,
    grid: usize,
    progress: impl FnMut(u64, u64),
) -> ExploreReport {
    use cfft::planner::Rigor;
    use cfft::Direction;
    use fft3d::real_env::{compare_with_serial, local_test_slab, Variant};
    use fft3d::{FftSession, ProblemSpec, TuningParams};

    // Tenant A's job train: a cube, run twice through one session.
    let spec_a = ProblemSpec::cube(grid, cfg.ranks);
    let params_a = TuningParams::seed(&spec_a);
    // Tenant B's foreign geometry: double the z extent, so its tile
    // schedule and exchange volumes share nothing with A's plans.
    let spec_b = ProblemSpec {
        nz: 2 * grid,
        ..spec_a
    };
    let params_b = TuningParams::seed(&spec_b);
    let (ref_a, tol_a) = serial_oracle(&spec_a);
    let (ref_b, tol_b) = serial_oracle(&spec_b);
    let tolerance = tol_a.max(tol_b);

    explore(
        cfg,
        tolerance,
        move |comm| {
            let input_a = local_test_slab(&spec_a, comm.rank());
            let mut session = FftSession::new(
                &comm,
                spec_a,
                Variant::New,
                params_a,
                Direction::Forward,
                Rigor::Estimate,
            );
            let mut worst = 0.0f64;
            let first = session
                .execute(&input_a)
                .unwrap_or_else(|e| panic!("job-train execution 1 faulted: {e}"));
            worst = worst.max(compare_with_serial(&spec_a, comm.rank(), &first, &ref_a));
            // The foreign tenant's job runs while A's plans stay
            // registered — the cross-tenant interleaving of the service.
            let input_b = local_test_slab(&spec_b, comm.rank());
            let other = FftSession::new(
                &comm,
                spec_b,
                Variant::New,
                params_b,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&input_b)
            .unwrap_or_else(|e| panic!("foreign-tenant job faulted: {e}"));
            worst = worst.max(compare_with_serial(&spec_b, comm.rank(), &other, &ref_b));
            let second = session
                .execute(&input_a)
                .unwrap_or_else(|e| panic!("job-train execution 2 faulted: {e}"));
            if second.exchange_setups != 0 {
                panic!(
                    "job train re-negotiated {} exchange setups after the foreign job",
                    second.exchange_setups
                );
            }
            worst = worst.max(compare_with_serial(&spec_a, comm.rank(), &second, &ref_a));
            session.free();
            Some(worst)
        },
        progress,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_random_plus_systematic() {
        let cfg = ExploreConfig::quick();
        assert_eq!(cfg.schedules(), 200);
        assert_eq!(cfg.plan().len(), 200);
        let no_sys = ExploreConfig {
            systematic_bits: 0,
            ..ExploreConfig::quick()
        };
        assert_eq!(no_sys.schedules(), 136);
    }

    #[test]
    fn explore_smoke_allreduce_is_clean() {
        let cfg = ExploreConfig {
            ranks: 3,
            random_seeds: 0..6,
            systematic_bits: 2,
            defer_prob: 0.4,
            max_hold: 3,
        };
        let report = explore(
            &cfg,
            1e-12,
            |comm| {
                let sum = comm.allreduce_sum(&[comm.rank() as f64]);
                Some((sum[0] - 3.0).abs())
            },
            |_, _| {},
        );
        assert_eq!(report.schedules_run, 10);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn crash_recovery_sweep_is_clean_on_a_small_plan() {
        let cfg = ExploreConfig {
            ranks: 4,
            random_seeds: 0..2,
            systematic_bits: 0,
            defer_prob: 0.3,
            max_hold: 2,
        };
        let report = explore_crash_recovery(&cfg, 8, 1, |_, _| {});
        // 2 schedules × crash at {first, middle, last} tile.
        assert_eq!(report.schedules_run, 6);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn corruption_sweep_is_clean_on_a_small_plan() {
        let cfg = ExploreConfig {
            ranks: 4,
            random_seeds: 0..2,
            systematic_bits: 0,
            defer_prob: 0.3,
            max_hold: 2,
        };
        let report = explore_corruption(&cfg, 8, 1, |_, _| {});
        // 2 schedules × (clean + payload + bit-flip at {first, middle,
        // last} tile).
        assert_eq!(report.schedules_run, 10);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn persistent_sweep_is_clean_on_a_small_plan() {
        let cfg = ExploreConfig {
            ranks: 3,
            random_seeds: 0..3,
            systematic_bits: 1,
            defer_prob: 0.35,
            max_hold: 2,
        };
        let report = explore_pipeline(&cfg, 6, 3, |_, _| {});
        assert_eq!(report.schedules_run, 5);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn pencil_sweep_is_clean_on_a_small_plan() {
        let cfg = ExploreConfig {
            ranks: 4,
            random_seeds: 0..3,
            systematic_bits: 1,
            defer_prob: 0.35,
            max_hold: 2,
        };
        let report = explore_pencil(&cfg, 8, 1, |_, _| {});
        assert_eq!(report.schedules_run, 5);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn pencil_persistent_sweep_is_clean_on_a_small_plan() {
        let cfg = ExploreConfig {
            ranks: 4,
            random_seeds: 0..3,
            systematic_bits: 1,
            defer_prob: 0.35,
            max_hold: 2,
        };
        let report = explore_pencil(&cfg, 8, 3, |_, _| {});
        assert_eq!(report.schedules_run, 5);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn service_interleaving_survives_a_small_sweep() {
        let cfg = ExploreConfig {
            ranks: 4,
            random_seeds: 0..3,
            systematic_bits: 1,
            defer_prob: 0.35,
            max_hold: 2,
        };
        let report = explore_service(&cfg, 6, |_, _| {});
        assert_eq!(report.schedules_run, 5);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn explore_catches_an_unmatched_post() {
        let cfg = ExploreConfig {
            ranks: 2,
            random_seeds: 0..1,
            systematic_bits: 0,
            defer_prob: 0.0,
            max_hold: 1,
        };
        let report = explore(
            &cfg,
            f64::INFINITY,
            |comm| {
                if comm.rank() == 0 {
                    comm.send(&[1u8], 1, 9); // deliberately never received
                }
                comm.barrier();
                None
            },
            |_, _| {},
        );
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert!(f.findings.iter().any(|f| f.id.code() == "MC001"), "{f:?}");
    }
}
