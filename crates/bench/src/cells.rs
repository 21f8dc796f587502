//! Per-cell evaluation: tune NEW and TH for one `(platform, p, N)` setting
//! and measure all three methods — the unit of work behind Tables 2–4 and
//! Figures 5 and 7–9 — and [`Tuned`], the run-scoped map that tunes each
//! cell once however many rows read it.

use fft3d::{ProblemSpec, SimReport, Simulation, ThParams, TuningParams, Variant};
use rayon::prelude::*;
use simnet::model::{hopper, umd_cluster, Platform};
use std::collections::HashMap;
use tuner::driver::{tune_new, tune_th, TuneResult, DEFAULT_MAX_EVALS};

/// Resolves a platform tag from [`crate::paper`] tables.
pub fn platform_by_tag(tag: &str) -> Platform {
    match tag {
        "umd" => umd_cluster(),
        "hopper" => hopper(),
        other => panic!("unknown platform tag {other:?}"),
    }
}

/// The slab pipeline of `variant` at `params`. Every vector a row prices is
/// feasible (a tuner's best, a seed, or one of them with a feature removed),
/// so a refusal is a bug in the row.
pub fn slab(spec: ProblemSpec, variant: Variant, params: TuningParams) -> Simulation {
    Simulation::slab(spec, variant, params)
        .unwrap_or_else(|e| panic!("cannot price {variant:?} at {params:?}: {e}"))
}

/// The report of `sim`'s first execution on `platform`.
pub fn price(sim: &Simulation, platform: &Platform) -> SimReport {
    let runs = sim.run(platform.clone()).expect("no watchdog armed");
    runs.into_iter().next().expect("one execution").report
}

/// The §4.4 tuning objective: one execution of `variant` at `params` with
/// FFTz and Transpose skipped — what Figure 5 and the tuner measure.
pub fn objective(
    platform: &Platform,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
) -> f64 {
    price(&slab(spec, variant, params).skip_fixed_steps(), platform).time
}

/// Everything measured for one experiment cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Platform tag ("umd" / "hopper").
    pub platform: &'static str,
    /// Process count.
    pub p: usize,
    /// Per-dimension extent (the cell's N of N³).
    pub n: usize,
    /// FFTW-baseline end-to-end time (s).
    pub fftw: f64,
    /// NEW end-to-end time with auto-tuned parameters (s).
    pub new: f64,
    /// TH end-to-end time with auto-tuned parameters (s).
    pub th: f64,
    /// The NEW search (Table 3's values, Figure 5's trajectory).
    pub new_tune: TuneResult<TuningParams>,
    /// The TH search.
    pub th_tune: TuneResult<ThParams>,
    /// Modeled FFTW (planner) tuning time (s) — Table 4 column 1.
    pub fftw_tuning: f64,
    /// Full report of the tuned NEW run (breakdowns for Figure 8).
    pub new_report: SimReport,
}

impl CellResult {
    /// NEW's speedup over FFTW (Figure 7's y-axis).
    pub fn speedup_new(&self) -> f64 {
        self.fftw / self.new
    }

    /// TH's speedup over FFTW.
    pub fn speedup_th(&self) -> f64 {
        self.fftw / self.th
    }

    /// NEW auto-tuning time (s) — Table 4 column 2.
    pub fn new_tuning(&self) -> f64 {
        tuning_time(&self.new_tune)
    }

    /// TH auto-tuning time (s) — Table 4 column 3.
    pub fn th_tuning(&self) -> f64 {
        tuning_time(&self.th_tune)
    }
}

/// Models the `FFTW_PATIENT` planner cost for Table 4's FFTW column: the
/// patient planner measures on the order of a hundred candidate plans, each
/// a sweep of the rank-local 1-D transforms.
///
/// The constant is a methodological substitution (documented in DESIGN.md):
/// the *claims* Table 4 supports — NEW's tuning cost is comparable to
/// FFTW's planner cost, and TH tunes fastest because its space is
/// three-dimensional — survive any constant of this magnitude.
pub fn modeled_fftw_tuning(platform: &Platform, spec: &ProblemSpec) -> f64 {
    const CANDIDATE_SWEEPS: f64 = 120.0;
    let m = &platform.machine;
    let nxl = spec.nx.div_ceil(spec.p);
    let nyl = spec.ny.div_ceil(spec.p);
    let local = m.fft_batch(spec.nz, (nxl * spec.ny) as u64)
        + m.fft_batch(spec.ny, (nxl * spec.nz) as u64)
        + m.fft_batch(spec.nx, (nyl * spec.nz) as u64);
    CANDIDATE_SWEEPS * local
}

/// Per-evaluation harness overhead added to auto-tuning time (process
/// launch, reporting to the tuning server).
const EVAL_OVERHEAD: f64 = 0.05;

/// Simulated auto-tuning time: the executed configurations' time plus the
/// per-execution harness overhead.
fn tuning_time<P>(tune: &TuneResult<P>) -> f64 {
    tune.tuning_cost + EVAL_OVERHEAD * tune.executed as f64
}

/// Runs one cell: tunes NEW (10 params) and TH (3 params) against the
/// simulated objective (FFTz/Transpose excluded per §4.4), then measures
/// end-to-end times with the tuned configurations. Only [`Tuned`] calls
/// it, so a run tunes each cell once.
fn run_cell(platform_tag: &'static str, p: usize, n: usize) -> CellResult {
    let platform = platform_by_tag(platform_tag);
    let spec = ProblemSpec::cube(n, p);
    let priced = |variant, params| price(&slab(spec, variant, params), &platform);

    let fftw = priced(Variant::Fftw, TuningParams::seed(&spec)).time;
    let new_tune = tune_new(
        &spec,
        |params| objective(&platform, spec, Variant::New, *params),
        DEFAULT_MAX_EVALS,
    );
    let new_report = priced(Variant::New, new_tune.best);
    let th_tune = tune_th(
        &spec,
        |params| objective(&platform, spec, Variant::Th, params.widen()),
        DEFAULT_MAX_EVALS,
    );
    let th = priced(Variant::Th, th_tune.best.widen()).time;

    CellResult {
        platform: platform_tag,
        p,
        n,
        fftw,
        new: new_report.time,
        th,
        new_tune,
        th_tune,
        fftw_tuning: modeled_fftw_tuning(&platform, &spec),
        new_report,
    }
}

/// The cells one `repro_all` run has tuned, keyed by `(platform, p, N)`:
/// the first row that asks for a cell tunes it, every later row reads the
/// same result.
#[derive(Default)]
pub struct Tuned {
    cells: HashMap<(&'static str, usize, usize), CellResult>,
}

impl Tuned {
    /// The `(p, N)` cells of `platform` sorted by `(p, N)`, tuning in
    /// parallel the ones no earlier row asked for.
    pub fn panel(&mut self, platform: &'static str, cells: &[(usize, usize)]) -> Vec<CellResult> {
        let missing: Vec<(usize, usize)> = cells
            .iter()
            .copied()
            .filter(|&(p, n)| !self.cells.contains_key(&(platform, p, n)))
            .collect();
        let fresh: Vec<CellResult> = missing
            .par_iter()
            .map(|&(p, n)| run_cell(platform, p, n))
            .collect();
        for cell in fresh {
            self.cells.insert((platform, cell.p, cell.n), cell);
        }
        let mut out: Vec<CellResult> = cells
            .iter()
            .map(|&(p, n)| self.cells[&(platform, p, n)].clone())
            .collect();
        out.sort_by_key(|c| (c.p, c.n));
        out
    }

    /// One cell of `platform`.
    pub fn cell(&mut self, platform: &'static str, p: usize, n: usize) -> CellResult {
        self.panel(platform, &[(p, n)]).remove(0)
    }
}

/// Evaluates a previously tuned configuration on a *different* platform
/// (Figure 9's CROSS bars).
pub fn cross_time(platform_tag: &str, p: usize, n: usize, params: TuningParams) -> f64 {
    let spec = ProblemSpec::cube(n, p);
    price(
        &slab(spec, Variant::New, params),
        &platform_by_tag(platform_tag),
    )
    .time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_produces_consistent_speedups() {
        let cell = run_cell("umd", 16, 256);
        assert!(cell.fftw > 0.0 && cell.new > 0.0 && cell.th > 0.0);
        assert!(cell.speedup_new() > 1.0, "tuned NEW must beat FFTW on UMD");
        assert!(cell.new < cell.th, "NEW must beat TH");
        assert!(cell.new_tune.best.is_feasible(&ProblemSpec::cube(256, 16)));
    }

    #[test]
    fn th_tunes_with_fewer_executions_than_new() {
        let cell = run_cell("umd", 16, 256);
        assert!(
            cell.th_tune.executed < cell.new_tune.executed,
            "3 dims must need fewer executions than 10: {} vs {}",
            cell.th_tune.executed,
            cell.new_tune.executed
        );
        assert!(cell.th_tuning() < cell.new_tuning());
    }

    #[test]
    fn fftw_tuning_model_grows_with_problem_size() {
        let plat = platform_by_tag("umd");
        let small = modeled_fftw_tuning(&plat, &ProblemSpec::cube(256, 16));
        let large = modeled_fftw_tuning(&plat, &ProblemSpec::cube(512, 16));
        assert!(large > 4.0 * small);
    }
}
