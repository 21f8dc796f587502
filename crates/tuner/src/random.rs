//! Random search over the reduced parameter space — the baseline the paper
//! compares Nelder–Mead against (§5.3.1) and the sampler behind Figure 5's
//! 200-configuration distribution.

use crate::space::{decode_new, new_space};
use fft3d::{ProblemSpec, TuningParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `n` *feasible* configurations uniformly from the reduced space.
///
/// Deterministic for a given `seed`, so Figure 5 regenerates identically.
pub fn random_configs(spec: &ProblemSpec, n: usize, seed: u64) -> Vec<TuningParams> {
    let space = new_space(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut draws = 0usize;
    while out.len() < n {
        draws += 1;
        assert!(
            draws < n * 10_000,
            "feasible-configuration rejection sampling is not converging"
        );
        let values: Vec<usize> = space
            .dims
            .iter()
            .map(|d| d.values[rng.gen_range(0..d.len())])
            .collect();
        let p = decode_new(&values);
        if p.is_feasible(spec) {
            out.push(p);
        }
    }
    out
}

/// Runs random search: evaluates `n` feasible configurations and returns
/// `(best, best_value, all_values)`.
pub fn random_search(
    spec: &ProblemSpec,
    n: usize,
    seed: u64,
    mut objective: impl FnMut(&TuningParams) -> f64,
) -> (TuningParams, f64, Vec<f64>) {
    let configs = random_configs(spec, n, seed);
    let mut best = configs[0];
    let mut best_value = f64::INFINITY;
    let mut values = Vec::with_capacity(n);
    for c in configs {
        let v = objective(&c);
        values.push(v);
        if v < best_value {
            best_value = v;
            best = c;
        }
    }
    (best, best_value, values)
}

/// Percentile rank (0 = best) of `value` within `distribution`.
pub fn percentile_rank(value: f64, distribution: &[f64]) -> f64 {
    if distribution.is_empty() {
        return 0.0;
    }
    let better = distribution.iter().filter(|&&v| v < value).count();
    100.0 * better as f64 / distribution.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProblemSpec {
        ProblemSpec::cube(64, 4)
    }

    #[test]
    fn configs_are_feasible_and_deterministic() {
        let s = spec();
        let a = random_configs(&s, 50, 7);
        let b = random_configs(&s, 50, 7);
        assert_eq!(a, b);
        for c in &a {
            assert!(c.is_feasible(&s), "{c:?}");
        }
    }

    #[test]
    fn shorter_draws_are_prefixes_of_longer_ones() {
        // Figure 5 compares NM with the first `executed` of its 200 draws.
        let s = ProblemSpec::cube(256, 16);
        let all = random_configs(&s, 200, 0xF1645);
        for k in [1, 88, 100, 200] {
            assert_eq!(random_configs(&s, k, 0xF1645), all[..k], "k = {k}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec();
        assert_ne!(random_configs(&s, 20, 1), random_configs(&s, 20, 2));
    }

    #[test]
    fn search_returns_the_minimum() {
        let s = spec();
        let (best, best_value, values) =
            random_search(&s, 40, 3, |p| (p.t as f64 - 16.0).abs() + p.w as f64);
        assert_eq!(values.len(), 40);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(min, best_value);
        assert!(best.is_feasible(&s));
    }

    #[test]
    fn percentile_rank_basics() {
        let dist = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_rank(0.5, &dist), 0.0);
        assert_eq!(percentile_rank(2.5, &dist), 50.0);
        assert_eq!(percentile_rank(10.0, &dist), 100.0);
    }

    #[test]
    fn values_span_a_spread() {
        // The sampler should produce genuinely different configurations —
        // the premise of Figure 5.
        let s = spec();
        let configs = random_configs(&s, 30, 11);
        let distinct_t: std::collections::HashSet<usize> = configs.iter().map(|c| c.t).collect();
        assert!(distinct_t.len() >= 3);
    }
}
