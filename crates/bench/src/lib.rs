//! # fft-bench — experiment harness regenerating the paper's evaluation
//!
//! The evaluation is one table, [`EXPERIMENTS`]: each row has a name, says
//! whether `repro_all small` runs it, and runs to its EXPERIMENTS.md
//! section plus the checks it failed. The `repro_all` binary loops over it:
//!
//! ```sh
//! cargo run -p fft-bench --release --bin repro_all           # every row → EXPERIMENTS.md
//! cargo run -p fft-bench --release --bin repro_all -- small  # the rows without Table 2(c)/Fig 8(c)
//! cargo run -p fft-bench --release --bin repro_all -- fig9 service  # named rows, to stdout
//! ```
//!
//! Rows read tuned vectors from one run-scoped [`cells::Tuned`] map, so a
//! run tunes each `(platform, p, N)` cell once however many rows use it.
//! DESIGN.md §4 maps the rows to the paper's tables and figures.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]
pub mod cells;
pub mod experiments;
pub mod paper;
pub mod report;
pub mod studies;

use cells::Tuned;
use std::time::Instant;

/// What a row hands back: its EXPERIMENTS.md section and the checks it
/// failed (empty when every assertion held).
#[derive(Debug, Default)]
pub struct Outcome {
    /// The rendered section.
    pub section: String,
    /// One line per failed check.
    pub failed: Vec<String>,
}

impl Outcome {
    /// A section with no checks.
    pub fn text(section: String) -> Self {
        Outcome {
            section,
            failed: Vec::new(),
        }
    }

    /// Records `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.failed.push(what);
        }
    }
}

/// One row of the evaluation.
pub struct Experiment {
    /// The name `repro_all <name>` selects it by.
    pub name: &'static str,
    /// Whether `repro_all small` runs it.
    pub small: bool,
    /// Renders the section, reading and filling the run's tuned cells.
    pub run: fn(&mut Tuned) -> Outcome,
}

/// Every row, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = {
    use experiments as e;
    use studies as s;
    const fn row(name: &'static str, small: bool, run: fn(&mut Tuned) -> Outcome) -> Experiment {
        Experiment { name, small, run }
    }
    &[
        row("fig5", true, e::fig5),
        row("table2a", true, e::table2a),
        row("table2b", true, e::table2b),
        row("table2c", false, e::table2c),
        row("fig8", true, e::fig8),
        row("fig8c", false, e::fig8c),
        row("fig9", true, e::fig9),
        row("persistent", true, e::persistent),
        row("ablation", true, s::ablation),
        row("decomp_crossover", true, s::decomp_crossover),
        row("multi_array", true, s::multi_array),
        row("noise", true, s::noise),
        row("calibrate", true, s::calibrate),
        row("chaos", true, s::chaos),
        row("timeline", true, s::timeline),
        row("service", true, s::service),
    ]
};

/// A run with at least one failed check: the sections it rendered and the
/// failures, each prefixed with its row's name.
#[derive(Debug)]
pub struct Failed {
    /// Every row's section, failing rows included.
    pub text: String,
    /// `row: check` lines.
    pub checks: Vec<String>,
}

/// Runs `rows` in order over one run's [`Tuned`] cells, logging progress to
/// stderr, and concatenates their sections. Any failed check makes the
/// result an error.
pub fn run_rows(rows: &[&Experiment]) -> Result<String, Failed> {
    let t0 = Instant::now();
    let mut tuned = Tuned::default();
    let (mut text, mut checks) = (String::new(), Vec::new());
    for row in rows {
        eprintln!("[{:>6.1}s] {}…", t0.elapsed().as_secs_f64(), row.name);
        let out = (row.run)(&mut tuned);
        text.push_str(&out.section);
        checks.extend(out.failed.into_iter().map(|c| format!("{}: {c}", row.name)));
    }
    if checks.is_empty() {
        Ok(text)
    } else {
        Err(Failed { text, checks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_an_error() {
        fn passing(_: &mut Tuned) -> Outcome {
            Outcome::text("ok\n".into())
        }
        fn failing(_: &mut Tuned) -> Outcome {
            let mut out = Outcome::text("bad\n".into());
            out.check(false, "the stub's check".into());
            out
        }
        let (pass, fail) = (
            Experiment {
                name: "pass",
                small: true,
                run: passing,
            },
            Experiment {
                name: "fail",
                small: true,
                run: failing,
            },
        );
        assert_eq!(run_rows(&[&pass]).expect("no check fails"), "ok\n");
        let err = run_rows(&[&pass, &fail]).expect_err("the stub's check fails");
        assert_eq!(err.text, "ok\nbad\n");
        assert_eq!(err.checks, ["fail: the stub's check"]);
    }
}
