//! `cargo xtask` — workspace automation driver.
//!
//! Subcommands:
//!
//! * `lint [--format text|json|sarif] [--output FILE]
//!   [--update-baseline]` — run the mpicheck static analysis
//!   (`SL001`–`SL014`: token lints plus the interprocedural
//!   collective-correctness checks) over the workspace's non-test code.
//!   Exit 1 on any non-baseline finding or stale baseline entry.
//!   `--output` writes the rendered report to a file (a one-line summary
//!   still goes to stdout); `--update-baseline` regenerates
//!   `mpicheck.baseline` from the current findings instead of linting.
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
//!   3`, `recover`, `corrupt`, and `serve` sweeps.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use mpicheck::{srclint, ExploreConfig, ExploreReport};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
    /// (default 1): executions per schedule, or the rank to hurt.
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
         \x20 lint [--format text|json|sarif] [--output FILE]\n\
         \x20      [--update-baseline]  run static analysis (SL001–SL014)"
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
         \x20                           corrupt + serve (acceptance gate)"
    );
    ExitCode::FAILURE
}

fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn parse_str_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run_lint(root: &Path, args: &[String]) -> bool {
    if args.iter().any(|a| a == "--update-baseline") {
        return match srclint::update_baseline(root) {
            Ok(n) => {
                println!(
                    "baseline: {n} finding(s) written to {}",
                    srclint::BASELINE_FILE
                );
                true
            }
            Err(e) => {
                eprintln!("baseline: {e}");
                false
            }
        };
    }
    let report = srclint::run(root);
    let rendered = match parse_str_flag(args, "--format").unwrap_or("text") {
        "json" => srclint::render_json(&report),
        "sarif" => srclint::render_sarif(&report),
        _ => srclint::render_text(&report),
    };
    match parse_str_flag(args, "--output") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("lint: cannot write {path}: {e}");
                return false;
            }
            println!(
                "lint: {} active finding(s), {} baselined, {} stale baseline entr(ies) \
                 over {} files / {} functions -> {path}",
                report.findings.len(),
                report.baselined.len(),
                report.stale_baseline.len(),
                report.files,
                report.functions
            );
        }
        None => print!("{rendered}"),
    }
    report.is_clean()
}

/// Builds the sweep configuration shared by `explore` and `recover` from
/// the command-line flags: `--schedules` resizes the random seed range
/// (keeping the systematic mask sweep), `--seed-base` then offsets it.
fn sweep_config(args: &[String]) -> (ExploreConfig, usize) {
    let seed_base = parse_flag(args, "--seed-base").unwrap_or(0);
    let ranks = parse_flag(args, "--ranks").unwrap_or(4) as usize;
    let grid = parse_flag(args, "--grid").unwrap_or(8) as usize;
    let mut cfg = ExploreConfig::quick();
    cfg.ranks = ranks;
    if let Some(n) = parse_flag(args, "--schedules") {
        let sys = cfg.schedules() - (cfg.random_seeds.end - cfg.random_seeds.start);
        cfg.random_seeds = 0..n.saturating_sub(sys);
    }
    cfg.random_seeds = (cfg.random_seeds.start + seed_base)..(cfg.random_seeds.end + seed_base);
    (cfg, grid)
}

// `% 25 == 0` keeps the stated MSRV (1.85); `is_multiple_of` needs 1.87.
#[allow(clippy::manual_is_multiple_of)]
fn progress_bar(done: u64, total: u64) {
    if done % 25 == 0 || done == total {
        print!("\r  {done}/{total} schedules");
        let _ = std::io::stdout().flush();
    }
}

fn run_sweep(sweep: &Sweep, args: &[String]) -> bool {
    let (cfg, grid) = sweep_config(args);
    let count = sweep
        .flag
        .and_then(|flag| parse_flag(args, flag))
        .unwrap_or(1);
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
    let report = (sweep.run)(&cfg, grid, count as usize, progress_bar);
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let ok = match command.as_str() {
        "lint" => run_lint(&root, rest),
        "check" => {
            let lint_ok = run_lint(&root, &[]);
            let doc_ok = run_doc(&root);
            let release_ok = run_release_tests(&root);
            // The repeated-execution, recovery, and corruption gates each
            // multiply the per-schedule cost (3 executions / 3 crash
            // positions / 5 fault plans), so default them to a fraction of
            // the explore plan: `check` stays under a few minutes while every
            // schedule family still crosses every crash position, every
            // session execution, and every corruption site.
            let mut compact = rest.to_vec();
            if parse_flag(&compact, "--schedules").is_none() {
                compact.extend(["--schedules".to_owned(), "80".to_owned()]);
            }
            let mut repeated = compact.clone();
            repeated.extend(["--executions".to_owned(), "3".to_owned()]);
            let [explore, pencil, recover, corrupt, serve] = &SWEEPS;
            let gates = [
                (explore, rest),
                (pencil, &compact[..]),
                (explore, &repeated[..]),
                (pencil, &repeated[..]),
                (recover, &compact[..]),
                (corrupt, &compact[..]),
                (serve, &compact[..]),
            ];
            // Every gate runs, whatever the earlier ones found.
            let passed = gates.map(|(sweep, args)| run_sweep(sweep, args));
            let all = lint_ok && doc_ok && release_ok && passed.iter().all(|&ok| ok);
            if all {
                println!("check: all gates passed");
            }
            all
        }
        name => match SWEEPS.iter().find(|sweep| sweep.name == name) {
            Some(sweep) => run_sweep(sweep, rest),
            None => return usage(),
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
