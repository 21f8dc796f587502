//! # tuner — Active Harmony-style auto-tuning for the overlapped 3-D FFT
//!
//! Stand-in for the Active Harmony framework (§4.3): a Nelder–Mead search
//! over a discrete, log-scale-reduced parameter space, with the paper's
//! five §4.4 acceleration techniques (infeasible-configuration penalty,
//! history reuse, fixed-step skipping, search-space reduction, constructed
//! initial simplex), plus the random-search baseline of §5.3.1.
//!
//! ```
//! use fft3d::{ProblemSpec, TuningParams};
//! use tuner::driver::tune_new;
//!
//! // Tune against a synthetic objective with an optimum at T = 8.
//! let spec = ProblemSpec::cube(64, 4);
//! let result = tune_new(&spec, |p| ((p.t as f64).log2() - 3.0).abs(), 200);
//! assert!(result.best.is_feasible(&spec));
//! assert!(result.best_value <= ((TuningParams::seed(&spec).t as f64).log2() - 3.0).abs());
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

pub mod driver;
pub mod nelder_mead;
pub mod random;
pub mod space;

pub use driver::{tune_new, tune_pencil, tune_th, TuneResult, DEFAULT_MAX_EVALS};
pub use random::{percentile_rank, random_configs, random_search};
