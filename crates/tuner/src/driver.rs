//! The tuning driver: glues the discrete space, the Nelder–Mead search, and
//! the §4.4 acceleration techniques around a user-supplied objective.
//!
//! Technique map (paper §4.4 → here):
//! 1. *Penalize infeasible configurations* — the objective wrapper returns
//!    `+∞` without executing the target.
//! 2. *Reuse prior performance data* — a history cache keyed by the rounded
//!    configuration short-circuits repeats.
//! 3. *Skip parameter-independent code* — the objective the callers pass in
//!    simulates with `skip_fixed_steps = true` (FFTz/Transpose excluded).
//! 4. *Search-space reduction* — [`crate::space`] builds log-scale grids.
//! 5. *Constructed initial simplex* — seeded at the §4.4 default point.

use crate::nelder_mead::{initial_simplex, minimize};
use crate::space::{
    decode_new, decode_pencil, decode_th, encode_new, encode_pencil, new_space, pencil_space,
    th_space, Space,
};
use fft3d::{pencil_feasible, pencil_seed, PencilGrid, ProblemSpec, ThParams, TuningParams};
use std::collections::HashMap;

/// Outcome of one auto-tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult<P> {
    /// Best feasible configuration found.
    pub best: P,
    /// Objective value of `best` (seconds).
    pub best_value: f64,
    /// Total objective requests from the search (incl. cache hits and
    /// infeasible rejections).
    pub requests: usize,
    /// Configurations actually executed (what tuning time is made of).
    pub executed: usize,
    /// Requests answered from the history cache (§4.4 technique 2).
    pub cache_hits: usize,
    /// Requests rejected as infeasible without execution (technique 1).
    pub infeasible: usize,
    /// Σ execution time of all executed configurations — the simulated
    /// auto-tuning cost reported in Table 4.
    pub tuning_cost: f64,
    /// Executed history in order: (config, seconds).
    pub history: Vec<(P, f64)>,
}

struct CachedObjective<'a, P> {
    cache: HashMap<Vec<usize>, f64>,
    requests: usize,
    executed: usize,
    cache_hits: usize,
    infeasible: usize,
    tuning_cost: f64,
    history: Vec<(P, f64)>,
    run: Box<dyn FnMut(&P) -> f64 + 'a>,
}

impl<P: Clone> CachedObjective<'_, P> {
    fn eval(&mut self, key: Vec<usize>, decoded: P, feasible: bool) -> f64 {
        self.requests += 1;
        if !feasible {
            // Technique 1: report "the worst performance value (infinity)
            // immediately back … without executing the tuning target".
            self.infeasible += 1;
            return f64::INFINITY;
        }
        if let Some(&v) = self.cache.get(&key) {
            // Technique 2: history reuse.
            self.cache_hits += 1;
            return v;
        }
        let v = (self.run)(&decoded);
        self.cache.insert(key, v);
        self.executed += 1;
        self.tuning_cost += v;
        self.history.push((decoded, v));
        v
    }
}

fn run_search<P: Clone, D, Fe>(
    space: &Space,
    seed_values: Vec<usize>,
    decode: D,
    feasible: Fe,
    objective: Box<dyn FnMut(&P) -> f64 + '_>,
    max_evals: usize,
) -> TuneResult<P>
where
    D: Fn(&[usize]) -> P,
    Fe: Fn(&P) -> bool,
{
    let mut obj = CachedObjective {
        cache: HashMap::new(),
        requests: 0,
        executed: 0,
        cache_hits: 0,
        infeasible: 0,
        tuning_cost: 0.0,
        history: Vec::new(),
        run: objective,
    };

    let dim_lens: Vec<usize> = space.dims.iter().map(|d| d.len()).collect();

    // Nelder–Mead with restarts: when the simplex collapses early (common
    // on a coarse grid), re-seed a wider simplex at the incumbent best —
    // the same keep-searching behaviour Active Harmony's session exhibits
    // until its budget is spent.
    let mut start_coords = space.encode(&seed_values);
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    for restart in 0..4 {
        if obj.requests >= max_evals {
            break;
        }
        let init = if restart == 0 {
            initial_simplex(&start_coords, &dim_lens)
        } else {
            wider_simplex(&start_coords, &dim_lens, restart + 1)
        };
        let budget = max_evals - obj.requests;
        let result = minimize(
            init,
            |x| {
                let values = space.decode(x);
                let p = decode(&values);
                let ok = feasible(&p);
                obj.eval(values, p, ok)
            },
            budget,
        );
        let improved = incumbent
            .as_ref()
            .map(|(_, v)| result.best_value < *v)
            .unwrap_or(true);
        if improved {
            incumbent = Some((result.best_point.clone(), result.best_value));
        }
        start_coords = incumbent.as_ref().expect("set above").0.clone();
    }
    let (best_point, best_value) = incumbent.expect("at least one NM run executes");

    // The NM best point is always feasible (infeasible points carry ∞ and
    // the seed is feasible), but guard against a fully-infeasible run.
    let best_values = space.decode(&best_point);
    let best = decode(&best_values);
    let (best, best_value) = if best_value.is_finite() {
        (best, best_value)
    } else {
        let (b, v) = obj
            .history
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .cloned()
            .expect("at least the seed must have executed");
        (b, v)
    };

    TuneResult {
        best,
        best_value,
        requests: obj.requests,
        executed: obj.executed,
        cache_hits: obj.cache_hits,
        infeasible: obj.infeasible,
        tuning_cost: obj.tuning_cost,
        history: obj.history,
    }
}

/// Builds a restart simplex around `seed` with `step`-sized index offsets,
/// alternating direction per dimension to explore a fresh orientation.
fn wider_simplex(seed: &[f64], dim_lens: &[usize], step: usize) -> Vec<Vec<f64>> {
    let d = seed.len();
    let mut simplex = Vec::with_capacity(d + 1);
    simplex.push(seed.to_vec());
    for j in 0..d {
        let mut p = seed.to_vec();
        let hi = (dim_lens[j] - 1) as f64;
        let s = step as f64;
        let dir = if j % 2 == 0 { s } else { -s };
        let moved = (p[j] + dir).clamp(0.0, hi);
        // Guarantee the vertex actually moved (degenerate dims stay put).
        p[j] = if (moved - p[j]).abs() < 0.5 {
            (p[j] - dir).clamp(0.0, hi)
        } else {
            moved
        };
        simplex.push(p);
    }
    simplex
}

/// Default objective-evaluation budget (NM requests, not executions).
pub const DEFAULT_MAX_EVALS: usize = 160;

/// Auto-tunes the ten NEW parameters for `spec` against `objective`
/// (seconds; lower is better). The objective is typically the time of a
/// `fft3d::sim_env::Simulation::slab(..)` run with `.skip_fixed_steps()` —
/// only feasible vectors reach it, so the constructor never refuses — or a
/// real measured run.
pub fn tune_new<'a>(
    spec: &ProblemSpec,
    objective: impl FnMut(&TuningParams) -> f64 + 'a,
    max_evals: usize,
) -> TuneResult<TuningParams> {
    let space = new_space(spec);
    let seed = TuningParams::seed(spec);
    let spec = *spec;
    run_search(
        &space,
        encode_new(&seed),
        decode_new,
        move |p: &TuningParams| p.is_feasible(&spec),
        Box::new(objective),
        max_evals,
    )
}

/// Auto-tunes the overlapped pencil backend: the eleven NEW knobs **plus
/// the process-grid shape** `(pr, pc)`, searched as a constrained
/// dimension over the divisor pairs of `spec.p`. The objective is
/// typically the time of a `fft3d::sim_env::Simulation::pencil(..)` run or
/// a real measured run; the seed is [`pencil_seed`] on the near-square
/// grid.
pub fn tune_pencil<'a>(
    spec: &ProblemSpec,
    objective: impl FnMut(&(TuningParams, PencilGrid)) -> f64 + 'a,
    max_evals: usize,
) -> TuneResult<(TuningParams, PencilGrid)> {
    let space = pencil_space(spec);
    let seed_grid = PencilGrid::near_square(spec.p);
    let seed = pencil_seed(spec, seed_grid);
    let spec = *spec;
    run_search(
        &space,
        encode_pencil(&spec, &seed, seed_grid),
        move |values: &[usize]| decode_pencil(&spec, values),
        move |(p, g): &(TuningParams, PencilGrid)| pencil_feasible(&spec, *g, p),
        Box::new(objective),
        max_evals,
    )
}

/// Auto-tunes the three TH parameters (the comparator is tuned with the
/// same machinery "for fair comparison", §5.1).
pub fn tune_th<'a>(
    spec: &ProblemSpec,
    objective: impl FnMut(&ThParams) -> f64 + 'a,
    max_evals: usize,
) -> TuneResult<ThParams> {
    let space = th_space(spec);
    let seed = ThParams::seed(spec);
    let spec = *spec;
    run_search(
        &space,
        vec![seed.t, seed.w, seed.f as usize],
        decode_th,
        move |p: &ThParams| p.is_feasible(&spec),
        Box::new(objective),
        max_evals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProblemSpec {
        ProblemSpec::cube(64, 4)
    }

    /// A synthetic objective with a known optimum: prefers T = 16, W = 2,
    /// mid-range sub-tiles, moderate polling.
    fn synthetic(p: &TuningParams) -> f64 {
        let lt = (p.t as f64).log2();
        let lw = p.w as f64;
        let pen = |x: f64, c: f64| (x - c) * (x - c);
        1.0 + pen(lt, 4.0)
            + 0.3 * pen(lw, 2.0)
            + 0.05 * pen((p.px as f64).log2(), 2.0)
            + 0.05 * pen((p.fy as f64).log2(), 3.0)
    }

    #[test]
    fn tuner_improves_on_the_seed() {
        let s = spec();
        let seed_val = synthetic(&TuningParams::seed(&s));
        let res = tune_new(&s, synthetic, 200);
        assert!(res.best_value <= seed_val + 1e-12);
        assert!(res.best.is_feasible(&s));
        assert!(res.executed > 0);
    }

    #[test]
    fn tuner_finds_the_synthetic_optimum_region() {
        let s = spec();
        let res = tune_new(&s, synthetic, 400);
        assert!(
            (8..=32).contains(&res.best.t),
            "T should land near 16, got {}",
            res.best.t
        );
        assert!(
            (1..=3).contains(&res.best.w),
            "W near 2, got {}",
            res.best.w
        );
    }

    #[test]
    fn infeasible_configurations_are_never_executed() {
        let s = spec();
        let res = tune_new(
            &s,
            |p| {
                assert!(p.is_feasible(&s), "executed an infeasible config: {p:?}");
                synthetic(p)
            },
            300,
        );
        // The rectangular grid contains Pz > T corners, so NM must have
        // bounced off some.
        assert!(res.requests >= res.executed);
    }

    #[test]
    fn cache_prevents_re_execution() {
        let s = spec();
        let mut runs = 0usize;
        let res = tune_new(
            &s,
            |p| {
                runs += 1;
                synthetic(p)
            },
            300,
        );
        assert_eq!(runs, res.executed);
        assert_eq!(res.requests, res.executed + res.cache_hits + res.infeasible);
    }

    #[test]
    fn tuning_cost_sums_executed_times() {
        let s = spec();
        let res = tune_new(&s, synthetic, 150);
        let sum: f64 = res.history.iter().map(|(_, v)| v).sum();
        assert!((sum - res.tuning_cost).abs() < 1e-9);
    }

    #[test]
    fn pencil_tuning_searches_the_grid_shape() {
        // Synthetic objective that strongly prefers square-ish grids and
        // T near 4: the tuner must move the G dimension off bad shapes.
        let s = ProblemSpec::cube(64, 16);
        let res = tune_pencil(
            &s,
            |(p, g)| {
                let aspect = (g.pr as f64 / g.pc as f64).log2().abs();
                1.0 + aspect + 0.1 * ((p.t as f64).log2() - 2.0).abs()
            },
            300,
        );
        let (params, grid) = res.best;
        assert!(fft3d::pencil_feasible(&s, grid, &params));
        assert_eq!(grid, PencilGrid { pr: 4, pc: 4 }, "square grid wins");
        assert!(res.executed > 0);
    }

    #[test]
    fn pencil_tuning_on_the_cost_model_beats_or_matches_the_seed() {
        use simnet::model::umd_cluster;
        let s = ProblemSpec::cube(128, 8);
        let seed_grid = PencilGrid::near_square(8);
        // Only feasible `(vector, grid)` pairs reach the objective.
        let cost = |p: &TuningParams, g: PencilGrid| {
            let sim = fft3d::sim_env::Simulation::pencil(s, g, *p).expect("feasible");
            sim.run(umd_cluster()).expect("no watchdog armed")[0]
                .report
                .time
        };
        let seed_cost = cost(&pencil_seed(&s, seed_grid), seed_grid);
        let res = tune_pencil(&s, |(p, g)| cost(p, *g), 60);
        assert!(
            res.best_value <= seed_cost + 1e-12,
            "tuned {} vs seed {seed_cost}",
            res.best_value
        );
    }

    #[test]
    fn th_tuning_works_in_three_dims() {
        let s = spec();
        let res = tune_th(
            &s,
            |p| ((p.t as f64).log2() - 3.0).abs() + 0.1 * (p.w as f64 - 2.0).abs(),
            150,
        );
        assert!(res.best.is_feasible(&s));
        assert!(
            (4..=16).contains(&res.best.t),
            "T near 8, got {}",
            res.best.t
        );
        // Three dimensions need far fewer executions than ten.
        assert!(res.executed < 80);
    }
}
