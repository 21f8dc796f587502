//! `cargo xtask` — workspace automation driver.
//!
//! Subcommands:
//!
//! * `lint [--format text|sarif] [--output FILE]` — run the mpicheck
//!   source lints (token lints, among them SL015: mpisim's exchanges and
//!   ULFM calls only in the transport) over the workspace's non-test code.
//!   Exit 1 on any finding. `--output` writes the rendered report to a file
//!   (a one-line summary still goes to stdout).
//! * `explore [--seed-base N] [--ranks N] [--grid N] [--schedules N]
//!   [--executions N]` — sweep the overlapped pipeline (NEW variant) over
//!   seeded random plus systematic delivery schedules under mpisim's
//!   checked mode. Each schedule runs one `FftSession` `--executions` times
//!   (default 1: the one-shot path; 3: setup once, execute many), so the
//!   init/start/test/wait cycles of the per-tile all-to-all plans — and
//!   their free-on-drop discipline (MC006) — face every delivery
//!   interleaving. Exit 1 on any schedule with a race/deadlock/lint
//!   finding, a panic, a re-negotiated setup, or a numerical deviation.
//!   `--seed-base` offsets the random seed range so CI can cover disjoint
//!   seed matrices.
//! * `recover [--seed-base N] [--ranks N] [--grid N] [--schedules N]
//!   [--victim N]` — the rank-death sweep: every schedule runs three times,
//!   killing `--victim` at the first, middle, and last tile boundary; the
//!   survivors must agree on the dead rank, shrink, re-decompose, and come
//!   back serial-exact. Exit 1 on any hang, wrong failure set, or
//!   numerical deviation.
//! * `pencil [--seed-base N] [--ranks N] [--grid N] [--schedules N]
//!   [--executions N]` — sweep the overlapped 2-D pencil backend over the
//!   same schedule families, one `PencilSession` executed `--executions`
//!   times per schedule: both exchange rounds (z↔y on the row
//!   subcommunicator, then y↔x on the column subcommunicator) keep
//!   windowed all-to-alls in flight under every delivery interleaving, and
//!   every rank's output pencil must stay serial-exact. Exit 1 on any
//!   MC001–MC007 finding, panic, re-negotiated setup, or numerical
//!   deviation.
//! * `corrupt [--seed-base N] [--ranks N] [--grid N] [--schedules N]
//!   [--victim N]` — the data-integrity sweep: every schedule runs under a
//!   clean control plan, seeded wire payload corruption, and a silent
//!   memory bit-flip in `--victim`'s staging buffer at the first, middle,
//!   and last tile. The gate is zero undetected corruptions — every flip
//!   must be caught and healed, every output serial-exact. Exit 1
//!   otherwise.
//! * `serve [--seed-base N] [--ranks N] [--grid N] [--schedules N]` —
//!   the multi-tenant service sweep: each schedule interleaves one
//!   tenant's persistent-plan job train with a foreign-geometry tenant
//!   job on the same communicator, under mpisim's checked mode, so the
//!   co-scheduled pipelines of `fft3d::service` face every delivery
//!   interleaving. Exit 1 on any MC finding, panic, re-negotiated plan
//!   setup, or numerical deviation from either serial oracle.
//! * `check` — `lint`, then `RUSTDOCFLAGS="-D warnings" cargo doc
//!   --workspace --no-deps` (no dangling intra-doc link), then `cargo test
//!   --release` over `kernel_blocks`, `stage_fusion` and `cfft` (the pinned
//!   spectra, on the optimised kernel that ships), then `explore`
//!   with the acceptance-gate defaults (≥ 200 schedules, 4 ranks, grid 8),
//!   then compact `pencil`, `explore --executions 3`, `pencil --executions
//!   3`, `recover`, `corrupt`, and `serve` sweeps. It takes the four
//!   flags every sweep shares.
//!
//! Flags are parsed once per command into a validated struct: a value that
//! is not a number, a `--victim` that is not a rank of the world, a zero
//! count or a flag the command does not take prints the usage text and
//! exits 1.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mpicheck::{srclint, ExploreConfig, ExploreReport};
use std::io::Write as _;
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

/// One delivery-schedule sweep under mpisim's checked mode: a subcommand
/// of its own and a gate of `check`.
struct Sweep {
    name: &'static str,
    /// The count it takes besides the four flags every sweep shares
    /// ([`SHARED_FLAGS`]; default 1): executions per schedule, or the rank
    /// to hurt.
    flag: Option<&'static str>,
    /// What one schedule runs — the middle of the banner, `{}` the count.
    what: &'static str,
    /// The usage text: a headline, then continuation lines.
    help: &'static [&'static str],
    run: Explorer,
}

/// An mpicheck sweep: `(config, grid, the sweep's count, progress)`.
type Explorer = fn(&ExploreConfig, usize, usize, fn(u64, u64)) -> ExploreReport;

const SWEEPS: [Sweep; 5] = [
    Sweep {
        name: "explore",
        flag: Some("--executions"),
        what: "× {} execution(s) of one NEW-pipeline session",
        help: &[
            "sweep pipeline delivery schedules",
            "(N executions of one session per",
            "schedule; default 1)",
        ],
        run: |cfg, grid, n, progress| mpicheck::explore_pipeline(cfg, grid, n, progress),
    },
    Sweep {
        name: "pencil",
        flag: Some("--executions"),
        what: "× {} execution(s) of one overlapped 2-D pencil session",
        help: &[
            "sweep the overlapped 2-D pencil",
            "backend (row+column all-to-alls)",
        ],
        run: |cfg, grid, n, progress| mpicheck::explore_pencil(cfg, grid, n, progress),
    },
    Sweep {
        name: "recover",
        flag: Some("--victim"),
        what: "× crash of rank {} at first/middle/last tile",
        help: &[
            "rank-death recovery sweep (crash at",
            "first/middle/last tile per schedule)",
        ],
        run: |cfg, grid, n, progress| mpicheck::explore_crash_recovery(cfg, grid, n, progress),
    },
    Sweep {
        name: "corrupt",
        flag: Some("--victim"),
        what: "× (clean + wire corruption + bit-flip in rank {} at first/middle/last tile)",
        help: &[
            "data-integrity sweep (clean + wire",
            "corruption + memory bit-flips; zero",
            "undetected corruptions gate)",
        ],
        run: |cfg, grid, n, progress| mpicheck::explore_corruption(cfg, grid, n, progress),
    },
    Sweep {
        name: "serve",
        flag: None,
        what: "of a co-scheduled tenant mix (persistent job train + foreign-geometry job on one \
               communicator)",
        help: &[
            "multi-tenant service sweep (job",
            "train + foreign-geometry job",
            "interleaved on one communicator)",
        ],
        run: |cfg, grid, _, progress| mpicheck::explore_service(cfg, grid, progress),
    },
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         \n\
         commands:\n\
         \x20 lint    [--format text|sarif] [--output FILE]\n\
         \x20                           run the source lints (DESIGN.md §17;\n\
         \x20                           SARIF 2.1.0 for code scanners)"
    );
    for sweep in &SWEEPS {
        let flag = sweep.flag.map(|f| format!(" [{f} N]")).unwrap_or_default();
        eprintln!("  {:<7} [--seed-base N]   {}", sweep.name, sweep.help[0]);
        eprintln!("          [--ranks N] [--grid N] [--schedules N]{flag}");
        for line in &sweep.help[1..] {
            eprintln!("{:28}{line}", "");
        }
    }
    eprintln!(
        "  check                     lint + doc links + release tests of\n\
         \x20                           the pinned spectra + explore + pencil\n\
         \x20                           (1 and 3 executions) + recover +\n\
         \x20                           corrupt + serve (acceptance gate);\n\
         \x20                           takes the four shared flags"
    );
    ExitCode::FAILURE
}

/// The flags every sweep (and `check`) takes.
const SHARED_FLAGS: [&str; 4] = ["--seed-base", "--ranks", "--grid", "--schedules"];

/// A sweep's flags, parsed and validated once.
#[derive(Debug, Clone, PartialEq)]
struct SweepArgs {
    seed_base: u64,
    ranks: usize,
    grid: usize,
    /// Total schedules; `None` keeps the acceptance-gate plan.
    schedules: Option<u64>,
    /// The sweep's own count ([`Sweep::flag`]).
    count: usize,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            seed_base: 0,
            ranks: 4,
            grid: 8,
            schedules: None,
            count: 1,
        }
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag} {value}`: expected a non-negative integer"))
}

impl SweepArgs {
    /// Parses `args` for a sweep whose own count flag is `own`.
    fn parse(args: &[String], own: Option<&str>) -> Result<Self, String> {
        let mut out = SweepArgs::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            if !SHARED_FLAGS.contains(&flag) && own != Some(flag) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag {
                "--seed-base" => out.seed_base = number(flag, value)?,
                "--ranks" => out.ranks = number(flag, value)?,
                "--grid" => out.grid = number(flag, value)?,
                "--schedules" => out.schedules = Some(number(flag, value)?),
                _ => out.count = number(flag, value)?,
            }
        }
        out.validate(own)?;
        Ok(out)
    }

    /// Rejects what a sweep cannot run: an empty world or grid, zero
    /// executions, a victim that is not a rank of the world.
    fn validate(&self, own: Option<&str>) -> Result<(), String> {
        if self.ranks == 0 || self.grid == 0 {
            return Err("`--ranks` and `--grid` must be at least 1".to_owned());
        }
        match own {
            Some("--victim") if self.count >= self.ranks => Err(format!(
                "`--victim {}` is not a rank of a {}-rank world",
                self.count, self.ranks
            )),
            Some("--executions") if self.count == 0 => {
                Err("`--executions` must be at least 1".to_owned())
            }
            _ => Ok(()),
        }
    }

    /// The schedule plan: `schedules` resizes the random seed range (the
    /// systematic mask sweep stays), `seed_base` then offsets it.
    fn config(&self) -> ExploreConfig {
        let mut cfg = ExploreConfig::quick();
        cfg.ranks = self.ranks;
        if let Some(n) = self.schedules {
            let sys = cfg.schedules() - (cfg.random_seeds.end - cfg.random_seeds.start);
            cfg.random_seeds = 0..n.saturating_sub(sys);
        }
        let seeds = &cfg.random_seeds;
        cfg.random_seeds =
            seeds.start.saturating_add(self.seed_base)..seeds.end.saturating_add(self.seed_base);
        cfg
    }
}

/// `lint`'s flags.
#[derive(Debug, Default, PartialEq)]
struct LintArgs {
    /// `--format sarif` (default text).
    sarif: bool,
    /// `--output FILE`: write the report there, a summary to stdout.
    output: Option<String>,
}

impl LintArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = LintArgs::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let flag = flag.as_str();
            if flag != "--format" && flag != "--output" {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = rest
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match (flag, value.as_str()) {
                ("--output", _) => out.output = Some(value.clone()),
                (_, "text") => out.sarif = false,
                (_, "sarif") => out.sarif = true,
                _ => return Err(format!("`--format {value}`: expected text or sarif")),
            }
        }
        Ok(out)
    }
}

fn run_lint(root: &Path, args: &LintArgs) -> bool {
    let report = srclint::run(root);
    let rendered = if args.sarif {
        srclint::render_sarif(&report)
    } else {
        srclint::render_text(&report)
    };
    match &args.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("lint: cannot write {path}: {e}");
                return false;
            }
            println!(
                "lint: {} finding(s) over {} files -> {path}",
                report.findings.len(),
                report.files
            );
        }
        None => print!("{rendered}"),
    }
    report.is_clean()
}

// `% 25 == 0` keeps the stated MSRV (1.85); `is_multiple_of` needs 1.87.
#[allow(clippy::manual_is_multiple_of)]
fn progress_bar(done: u64, total: u64) {
    if done % 25 == 0 || done == total {
        print!("\r  {done}/{total} schedules");
        let _ = std::io::stdout().flush();
    }
}

fn run_sweep(sweep: &Sweep, args: &SweepArgs) -> bool {
    let (cfg, grid, count) = (args.config(), args.grid, args.count);
    println!(
        "{}: {} schedules {}, grid {grid}^3, {} ranks (random seeds {:?} + {}-bit systematic \
         sweep)",
        sweep.name,
        cfg.schedules(),
        sweep.what.replace("{}", &count.to_string()),
        cfg.ranks,
        cfg.random_seeds,
        cfg.systematic_bits
    );
    let report = (sweep.run)(&cfg, grid, count, progress_bar);
    println!();
    summarize(sweep.name, &report)
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

/// The bit-identity suites on the code that ships: the kernel's vectorised
/// stage loops exist only in optimised builds, which `cargo test` alone
/// never runs.
fn run_release_tests(root: &Path) -> bool {
    let release = ["test", "--release", "--quiet"];
    let gates = [
        (
            "release: pinned spectra",
            &["--test", "kernel_blocks", "--test", "stage_fusion"][..],
        ),
        ("release: cfft", &["-p", "cfft"][..]),
    ];
    // Both run, whatever the first found.
    let passed = gates.map(|(what, which)| run_cargo(root, what, &[&release, which].concat(), &[]));
    passed.iter().all(|&ok| ok)
}

fn summarize(pass: &str, report: &ExploreReport) -> bool {
    println!(
        "{pass}: {} schedules in {:.1}s — {} failure(s), {} info finding(s)",
        report.schedules_run,
        report.wall,
        report.failures.len(),
        report.info_findings
    );
    for fail in &report.failures {
        println!("  FAILED schedule {}", fail.schedule);
        for f in &fail.findings {
            println!("    {f}");
        }
        if let Some(p) = &fail.panic {
            println!("    panic: {p}");
        }
        if let Some(e) = fail.max_err {
            println!("    max numerical error: {e:.3e}");
        }
    }
    report.is_clean()
}

/// `check`: every gate runs, whatever the earlier ones found.
fn run_check(root: &Path, args: &SweepArgs) -> Result<bool, String> {
    // The repeated-execution, recovery, and corruption gates each multiply
    // the per-schedule cost (3 executions / 3 crash positions / 5 fault
    // plans), so default them to a fraction of the explore plan: `check`
    // stays under a few minutes while every schedule family still crosses
    // every crash position, every session execution, and every corruption
    // site.
    let compact = SweepArgs {
        schedules: args.schedules.or(Some(80)),
        ..args.clone()
    };
    // The crash and bit-flip gates hurt rank 1.
    compact.validate(Some("--victim"))?;
    let repeated = SweepArgs {
        count: 3,
        ..compact.clone()
    };
    let lint_ok = run_lint(root, &LintArgs::default());
    let doc_ok = run_doc(root);
    let release_ok = run_release_tests(root);
    let [explore, pencil, recover, corrupt, serve] = &SWEEPS;
    let gates = [
        (explore, args),
        (pencil, &compact),
        (explore, &repeated),
        (pencil, &repeated),
        (recover, &compact),
        (corrupt, &compact),
        (serve, &compact),
    ];
    let passed = gates.map(|(sweep, args)| run_sweep(sweep, args));
    let all = lint_ok && doc_ok && release_ok && passed.iter().all(|&ok| ok);
    if all {
        println!("check: all gates passed");
    }
    Ok(all)
}

fn run_command(command: &str, rest: &[String]) -> Result<bool, String> {
    let root = workspace_root();
    match command {
        "lint" => Ok(run_lint(&root, &LintArgs::parse(rest)?)),
        "check" => run_check(&root, &SweepArgs::parse(rest, None)?),
        name => {
            let sweep = SWEEPS
                .iter()
                .find(|sweep| sweep.name == name)
                .ok_or_else(|| format!("unknown command `{name}`"))?;
            Ok(run_sweep(sweep, &SweepArgs::parse(rest, sweep.flag)?))
        }
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
    fn sweep_flags_parse_with_defaults() {
        let parsed = SweepArgs::parse(&[], Some("--executions"));
        assert_eq!(parsed, Ok(SweepArgs::default()));
        let given = "--seed-base 1000 --ranks 3 --grid 6 --schedules 80 --executions 3";
        let parsed = SweepArgs::parse(&args(given), Some("--executions"));
        let want = SweepArgs {
            seed_base: 1000,
            ranks: 3,
            grid: 6,
            schedules: Some(80),
            count: 3,
        };
        assert_eq!(parsed, Ok(want));
    }

    #[test]
    fn bad_values_are_errors_not_defaults() {
        for bad in ["--schedules abc", "--ranks x", "--grid -1", "--seed-base"] {
            assert!(SweepArgs::parse(&args(bad), None).is_err(), "{bad}");
        }
        assert!(SweepArgs::parse(&args("--ranks 0"), None).is_err());
        assert!(SweepArgs::parse(&args("--executions 0"), Some("--executions")).is_err());
    }

    #[test]
    fn a_flag_the_command_does_not_take_is_an_error() {
        assert!(SweepArgs::parse(&args("--victim 1"), Some("--executions")).is_err());
        assert!(SweepArgs::parse(&args("--executions 3"), None).is_err());
        assert!(SweepArgs::parse(&args("--bogus 1"), Some("--victim")).is_err());
        assert!(LintArgs::parse(&args("--update-baseline")).is_err());
    }

    #[test]
    fn the_victim_must_be_a_rank_of_the_world() {
        let victim = Some("--victim");
        assert!(SweepArgs::parse(&args("--victim 9"), victim).is_err());
        assert!(SweepArgs::parse(&args("--victim 4"), victim).is_err());
        assert!(SweepArgs::parse(&args("--victim 3"), victim).is_ok());
        assert!(SweepArgs::parse(&args("--ranks 8 --victim 7"), victim).is_ok());
        // `check`'s crash and bit-flip gates hurt rank 1.
        let lone = SweepArgs::parse(&args("--ranks 1"), None).expect("a valid world");
        assert!(lone.validate(victim).is_err());
    }

    #[test]
    fn lint_formats_are_text_and_sarif() {
        assert_eq!(LintArgs::parse(&[]), Ok(LintArgs::default()));
        let sarif = LintArgs::parse(&args("--format sarif --output out.sarif"));
        let want = LintArgs {
            sarif: true,
            output: Some("out.sarif".to_owned()),
        };
        assert_eq!(sarif, Ok(want));
        assert!(LintArgs::parse(&args("--format json")).is_err());
        assert!(LintArgs::parse(&args("--output")).is_err());
    }

    #[test]
    fn schedules_resize_the_random_range_and_the_seed_base_offsets_it() {
        let full = SweepArgs::default().config();
        assert_eq!(full.schedules(), 200);
        let compact = SweepArgs {
            schedules: Some(80),
            seed_base: 1000,
            ..SweepArgs::default()
        }
        .config();
        assert_eq!(compact.schedules(), 80);
        assert_eq!(compact.random_seeds, 1000..1016);
    }
}
