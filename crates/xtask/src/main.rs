//! `cargo xtask` — workspace automation driver.
//!
//! Subcommands:
//!
//! * `conform [--seed-base N] [--schedules N]` — run every row of the
//!   conformance table (`fft3d_repro::conformance`: decomposition × variant
//!   × direction × shape × fault × use) over its schedule plan under
//!   mpisim's checked mode, each run held to the row's oracles (serial-exact
//!   spectrum or the predicted typed refusal, the expected recovery record,
//!   no panic, no hang, and no finding of mpisim's checked mode: MC001
//!   unmatched send, MC002 leaked request, MC003 context collision, MC005
//!   deadlock, MC006 leaked persistent plan, MC007 stale checkpoint). Exit 1
//!   on any failing run.
//!   `--seed-base` offsets every row's random seeds, so CI cells cover
//!   disjoint seed ranges; `--schedules N` replaces every row's plan by `N`
//!   random schedules. The rows fix the world (4 ranks) and the shapes.
//! * `check [--seed-base N] [--schedules N]` — `cargo clippy --workspace
//!   --all-targets -- -D warnings` (the source lints, DESIGN.md §17), then
//!   `RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps` (no
//!   dangling intra-doc link), then `cargo test --release` over
//!   `kernel_blocks`, `stage_fusion` and `cfft` (the pinned spectra, on the
//!   optimised kernel that ships), over `mpisim` (the block exchange's
//!   length and ownership checks, as the benchmark builds them) and over
//!   `simnet` (closed-form polls and integer rounding against their
//!   oracles, as the benchmark builds them) and `simulation_behavior` (the
//!   pinned simulated numbers, on the simulator the benchmark times), then
//!   `conform`.
//!
//! Flags are parsed once per command into a validated struct: a value that
//! is not a number, a zero count or a flag the command does not take prints
//! the usage text and exits 1.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d_repro::conformance::{table, RANKS};
use mpisim::{ExploreConfig, ExploreReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         \n\
         commands:\n\
         \x20 conform [--seed-base N] [--schedules N]\n\
         \x20                           run every conformance-table row over\n\
         \x20                           its delivery-schedule plan (N random\n\
         \x20                           schedules per row with --schedules)\n\
         \x20 check   [--seed-base N] [--schedules N]\n\
         \x20                           clippy + doc links + release tests of\n\
         \x20                           the pinned spectra and simulated\n\
         \x20                           numbers, mpisim and simnet +\n\
         \x20                           conform (acceptance gate)"
    );
    ExitCode::FAILURE
}

/// `conform`'s (and `check`'s) flags, parsed and validated once.
#[derive(Debug, Clone, Default, PartialEq)]
struct ConformArgs {
    /// Offset of every row's random seeds.
    seed_base: u64,
    /// Random schedules per row instead of the row's plan.
    schedules: Option<u64>,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag} {value}`: expected a non-negative integer"))
}

impl ConformArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = ConformArgs::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            if flag != "--seed-base" && flag != "--schedules" {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            if flag == "--seed-base" {
                out.seed_base = number(flag, value)?;
            } else {
                out.schedules = Some(number(flag, value)?);
            }
        }
        if out.schedules == Some(0) {
            return Err("`--schedules` must be at least 1".to_owned());
        }
        Ok(out)
    }

    /// The schedules a row with plan `plan` runs.
    fn config(&self, plan: ExploreConfig) -> ExploreConfig {
        match self.schedules {
            Some(n) => {
                let base = self.seed_base;
                ExploreConfig::new(RANKS, base..base.saturating_add(n), 0)
            }
            None => plan,
        }
    }
}

/// One `cargo` invocation at the workspace root as a gate of `check`:
/// prints `what` with its verdict.
fn run_cargo(root: &Path, what: &str, args: &[&str], env: &[(&str, &str)]) -> bool {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(root)
        .status();
    let ok = status.is_ok_and(|s| s.success());
    println!("{what} {}", if ok { "clean" } else { "FAILED" });
    ok
}

/// `cargo clippy --workspace --all-targets -- -D warnings`: the source
/// lints, among them the confinement of mpisim's collectives to the
/// transport.
fn run_clippy(root: &Path) -> bool {
    run_cargo(
        root,
        "clippy: source lints",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--quiet",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    )
}

/// `RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps`: a deleted
/// or renamed item must not leave an intra-doc link dangling.
fn run_doc(root: &Path) -> bool {
    run_cargo(
        root,
        "doc: intra-doc links",
        &["doc", "--workspace", "--no-deps", "--quiet"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    )
}

/// The suites whose subject is the code that ships: the bit-identity
/// suites (the kernel's vectorised stage loops exist only in optimised
/// builds, which `cargo test` alone never runs), mpisim's, simnet's and
/// fft3d's unit tests (the benchmark times the optimised exchange,
/// simulator, executor and sessions, so their checks must hold there).
fn run_release_tests(root: &Path) -> bool {
    let release = ["test", "--release", "--quiet"];
    let gates = [
        (
            "release: pinned spectra and simulated numbers",
            &[
                "--test",
                "kernel_blocks",
                "--test",
                "stage_fusion",
                "--test",
                "simulation_behavior",
            ][..],
        ),
        ("release: cfft", &["-p", "cfft"][..]),
        ("release: mpisim", &["-p", "mpisim"][..]),
        ("release: simnet", &["-p", "simnet"][..]),
        ("release: fft3d unit tests", &["-p", "fft3d", "--lib"][..]),
    ];
    // All run, whatever the first found.
    let passed = gates.map(|(what, which)| run_cargo(root, what, &[&release, which].concat(), &[]));
    passed.iter().all(|&ok| ok)
}

/// Prints a row's failing runs.
fn report_failures(row: &str, report: &ExploreReport) {
    for fail in &report.failures {
        println!("  FAILED {row} under {}", fail.schedule);
        for f in &fail.findings {
            println!("    {f}");
        }
        if let Some(p) = &fail.panic {
            println!("    panic: {p}");
        }
        if let Some(e) = fail.max_err {
            println!("    max deviation from the serial spectrum: {e:.3e} × 1e-9·N");
        }
    }
}

/// Every row of the conformance table over its schedule plan, with a
/// progress line at every tenth of the rows.
fn run_conform(args: &ConformArgs) -> bool {
    let rows = table();
    let started = std::time::Instant::now();
    let (mut runs, mut failing_runs, mut failing_rows) = (0, 0, 0);
    println!(
        "conform: {} rows on {RANKS} ranks, random seeds from {}",
        rows.len(),
        args.seed_base
    );
    for (i, row) in rows.iter().enumerate() {
        let report = row.explore(&args.config(row.plan(args.seed_base)));
        runs += report.schedules_run;
        if !report.is_clean() {
            report_failures(&format!("row {} ({row})", i + 1), &report);
            failing_runs += report.failures.len();
            failing_rows += 1;
        }
        if (i + 1) * 10 / rows.len() > i * 10 / rows.len() {
            println!(
                "conform: {}/{} rows, {runs} runs, {failing_rows} failing row(s), {:.0}s",
                i + 1,
                rows.len(),
                started.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "conform: {} rows, {runs} runs in {:.1}s — {failing_runs} failing run(s) in \
         {failing_rows} row(s) (oracles: spectrum or typed refusal, recovery record, \
         no MC001–MC003/MC005–MC007 finding, panic or hang)",
        rows.len(),
        started.elapsed().as_secs_f64()
    );
    failing_rows == 0
}

/// `check`: every gate runs, whatever the earlier ones found.
fn run_check(root: &Path, args: &ConformArgs) -> bool {
    let clippy_ok = run_clippy(root);
    let doc_ok = run_doc(root);
    let release_ok = run_release_tests(root);
    let conform_ok = run_conform(args);
    let all = clippy_ok && doc_ok && release_ok && conform_ok;
    if all {
        println!("check: all gates passed");
    }
    all
}

fn run_command(command: &str, rest: &[String]) -> Result<bool, String> {
    match command {
        "conform" => Ok(run_conform(&ConformArgs::parse(rest)?)),
        "check" => Ok(run_check(&workspace_root(), &ConformArgs::parse(rest)?)),
        name => Err(format!("unknown command `{name}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    match run_command(command, rest) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask: {e}\n");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn conform_flags_parse_with_defaults() {
        assert_eq!(ConformArgs::parse(&[]), Ok(ConformArgs::default()));
        let parsed = ConformArgs::parse(&args("--seed-base 1000 --schedules 8"));
        let want = ConformArgs {
            seed_base: 1000,
            schedules: Some(8),
        };
        assert_eq!(parsed, Ok(want));
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in [
            "--schedules abc",
            "--schedules 0",
            "--seed-base -1",
            "--seed-base",
        ] {
            assert!(ConformArgs::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_rows_fix_the_world_and_the_shapes() {
        for fixed in ["--ranks 4", "--grid 8", "--victim 1", "--executions 3"] {
            assert!(ConformArgs::parse(&args(fixed)).is_err(), "{fixed}");
        }
        assert!(ConformArgs::parse(&args("--bogus 1")).is_err());
    }

    #[test]
    fn schedules_replace_the_plan_and_the_seed_base_offsets_it() {
        let plan = ExploreConfig::new(RANKS, 0..136, 6);
        let kept = ConformArgs::default().config(plan.clone());
        assert_eq!(kept.schedules(), 200);
        let given = ConformArgs {
            seed_base: 1000,
            schedules: Some(8),
        };
        let replaced = given.config(plan);
        assert_eq!(replaced.schedules(), 8);
        assert_eq!(replaced.random_seeds, 1000..1008);
        assert_eq!(replaced.systematic_bits, 0);
    }
}
