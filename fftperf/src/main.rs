//! `fftperf` — the repository's benchmark.
//!
//! ```text
//! fftperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one run of one workload; the last line of output is one JSON
//!         object {"correct", "attempted", "failed", "metrics"} holding the
//!         end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)
//! fftperf [--seed <n>] [--seconds <s>] [--smoke]
//!         every workload, untraced then traced; every metric by name
//! fftperf --repeat-check [--seed <n>] [--seconds <s>] [--smoke]
//!         the full set twice, in opposite orders, compared with the bounds
//! fftperf --list
//!         the workloads and metrics, with units and bounds
//! fftperf --benchmark-json
//!         the text BENCHMARK.json must hold
//! ```
//!
//! Each measurement runs in a child process of this binary (`--worker`), so
//! that process-wide caches start cold and peak memory is per workload. See
//! README.md beside this package for what is measured and why.

mod clock;
mod host;
mod inputs;
mod layers;
mod manifest;
mod spans;
mod stats;
mod workloads;

use inputs::Sizes;
use manifest::{Metric, Workload, END_TO_END, EXACT_PER_LAYER, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Ctx;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    list: bool,
    benchmark_json: bool,
    repeat_check: bool,
    /// Set in a child process: what to run (`--worker`) and how (`--mode`).
    worker: Option<String>,
    mode: String,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        list: false,
        benchmark_json: false,
        repeat_check: false,
        worker: None,
        mode: String::new(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--worker" => args.worker = Some(value()?),
            "--mode" => args.mode = value()?,
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--benchmark-json" => args.benchmark_json = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let entry = Instant::now();
    let entry_clock = clock::Bracket::open();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("fftperf: {why}");
            return ExitCode::from(2);
        }
    };
    if args.list || args.benchmark_json {
        let text = if args.list {
            manifest::list()
        } else {
            manifest::benchmark_json()
        };
        print!("{text}");
        return ExitCode::SUCCESS;
    }
    let outcome = match &args.worker {
        Some(name) => worker(name, &args, entry, entry_clock),
        None => parent(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("fftperf: {why}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// The child: one workload or one layer replay, reported as lines on stdout
// ---------------------------------------------------------------------------

fn worker(
    name: &str,
    args: &Args,
    entry: Instant,
    entry_clock: clock::Bracket,
) -> Result<bool, String> {
    let sizes = Sizes::of(args.smoke);
    let mut spans = Spans::new(true);
    let mut out = String::new();
    let mut metrics = layers::Metrics::new();
    let mut failures = Vec::new();
    match name {
        "replay-real" => {
            layers::replay_cfft(args.seed, &sizes, &mut spans, &mut metrics);
            layers::replay_mpisim(&sizes, &mut spans, &mut metrics);
        }
        "replay-sim" => {
            failures.extend(layers::replay_simulators(
                args.seed,
                &sizes,
                &mut spans,
                &mut metrics,
            ));
        }
        "replay-unpinned" => {
            let (ms, _) = layers::big_simulation(&sizes, &mut spans);
            metrics.push(("simnet.sim_ms.p256", ms));
        }
        workload => {
            let ctx = Ctx {
                seed: args.seed,
                sizes: &sizes,
                seconds: args.seconds.ok_or("a workload worker needs --seconds")?,
                traced: match args.mode.as_str() {
                    "timed" => false,
                    "traced" => true,
                    other => return Err(format!("unknown --mode {other:?}")),
                },
                one_cpu: manifest::workload(workload).is_some_and(|w| w.one_cpu),
                entry,
                entry_clock,
            };
            let report;
            (report, spans) =
                workloads::run(workload, &ctx).ok_or(format!("unknown workload {workload:?}"))?;
            let join = |ms: &[f64]| ms.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
            let _ = writeln!(out, "setup_s {}", report.setup_s);
            let _ = writeln!(out, "first_rss_kb {}", report.first_rss_kb);
            let _ = writeln!(out, "untraced {}", join(&report.untraced_ms));
            let _ = writeln!(out, "traced {}", join(&report.traced_ms));
            let _ = writeln!(out, "attempted {}", report.attempted);
            let _ = writeln!(out, "points {}", report.points_per_op);
            for (name, value) in &report.exact {
                let _ = writeln!(out, "exact {name} {value}");
            }
            metrics = report.metrics;
            failures = report.failures;
        }
    }
    for (name, value) in &metrics {
        let _ = writeln!(out, "metric {name} {value}");
    }
    for why in &failures {
        eprintln!("fftperf: {name}: {why}");
    }
    let _ = writeln!(out, "failed {}", failures.len());
    if let Some(path) = &args.trace_out {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        spans
            .write_jsonl(name, &mut std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let _ = writeln!(out, "rss_kb {}", host::peak_rss_kb());
    print!("{out}");
    Ok(true)
}

/// What the parent reads back from one child.
#[derive(Default)]
struct WorkerOut {
    setup_s: f64,
    first_rss_kb: u64,
    untraced: Vec<f64>,
    traced: Vec<f64>,
    attempted: u64,
    failed: u64,
    points: f64,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
    rss_kb: u64,
}

fn parse_worker(text: &str) -> Result<WorkerOut, String> {
    let mut out = WorkerOut::default();
    let number = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
    for line in text.lines() {
        let mut words = line.split_whitespace();
        let Some(kind) = words.next() else { continue };
        let rest: Vec<&str> = words.collect();
        match (kind, rest.as_slice()) {
            ("setup_s", [v]) => out.setup_s = number(v)?,
            ("first_rss_kb", [v]) => out.first_rss_kb = number(v)? as u64,
            ("untraced", ms) => {
                out.untraced = ms.iter().map(|v| number(v)).collect::<Result<_, _>>()?
            }
            ("traced", ms) => {
                out.traced = ms.iter().map(|v| number(v)).collect::<Result<_, _>>()?
            }
            ("attempted", [v]) => out.attempted = number(v)? as u64,
            ("failed", [v]) => out.failed = number(v)? as u64,
            ("points", [v]) => out.points = number(v)?,
            ("rss_kb", [v]) => out.rss_kb = number(v)? as u64,
            ("metric", [name, v]) => {
                out.metrics.insert(name.to_string(), number(v)?);
            }
            ("exact", [name, v]) => {
                out.exact.insert(name.to_string(), number(v)?);
            }
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The parent: launches children, turns what they report into metrics
// ---------------------------------------------------------------------------

struct Harness {
    exe: PathBuf,
    seed: u64,
    seconds: f64,
    smoke: bool,
    sizes: Sizes,
    /// The CPU pinned children are confined to; `None` once pinning has
    /// proved impossible here.
    pin_cpu: Option<u32>,
}

impl Harness {
    /// Runs one child to its end and parses its report. Pinned children run
    /// under `taskset -c <first allowed cpu>`; where that cannot be done the
    /// harness says so once and carries on unpinned.
    fn launch(
        &mut self,
        worker: &str,
        mode: &str,
        seconds: Option<f64>,
        pinned: bool,
        trace_out: Option<&PathBuf>,
    ) -> Result<WorkerOut, String> {
        let worker_args = |cmd: &mut Command| {
            cmd.args(["--worker", worker, "--mode", mode])
                .args(["--seed", &self.seed.to_string()]);
            if let Some(seconds) = seconds {
                cmd.args(["--seconds", &seconds.to_string()]);
            }
            if self.smoke {
                cmd.arg("--smoke");
            }
            if let Some(path) = trace_out {
                cmd.arg("--trace-out").arg(path);
            }
        };
        let mut output = None;
        if let (true, Some(cpu)) = (pinned, self.pin_cpu) {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", &cpu.to_string()]).arg(&self.exe);
            worker_args(&mut cmd);
            // `taskset` may be missing, or may be refused the affinity call
            // and say so under its own name; the child never ran then.
            let refusal = match cmd.output() {
                Err(e) => e.to_string(),
                Ok(o) => {
                    let said = String::from_utf8_lossy(&o.stderr).trim().to_string();
                    if o.status.success() || !said.starts_with("taskset:") {
                        output = Some(o);
                    }
                    said
                }
            };
            if output.is_none() {
                eprintln!("fftperf: warning: cannot pin ({refusal}); measuring unpinned");
                self.pin_cpu = None;
            }
        }
        let output = match output {
            Some(o) => o,
            None => {
                let mut cmd = Command::new(&self.exe);
                worker_args(&mut cmd);
                cmd.output()
                    .map_err(|e| format!("cannot launch {worker}: {e}"))?
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!(
                "worker {worker} ({mode}) ended with {}",
                output.status
            ));
        }
        parse_worker(&String::from_utf8_lossy(&output.stdout))
            .map_err(|e| format!("worker {worker} ({mode}): {e}"))
    }
}

/// One run of one workload, in the shape of the result line.
#[derive(Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    /// Every metric of the pass, in manifest order.
    metrics: Vec<(&'static Metric, f64)>,
    /// Values that must be equal in every pass of the same seed.
    exact: BTreeMap<String, f64>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Counts a child that could not be run or understood as one failed op.
    fn absorb(&mut self, launched: Result<WorkerOut, String>) -> Option<WorkerOut> {
        match launched {
            Ok(out) => {
                self.attempted += out.attempted.max(1);
                self.failed += out.failed;
                Some(out)
            }
            Err(why) => {
                eprintln!("fftperf: {why}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }

    /// Fills `metrics` from `values` in the order of `wanted`; a metric that
    /// is missing or not a finite number fails the run.
    fn fill(&mut self, wanted: &'static [Metric], values: &BTreeMap<String, f64>) {
        for m in wanted {
            let value = values.get(m.name).copied().filter(|v| v.is_finite());
            if value.is_none() {
                eprintln!("fftperf: metric {} was not measured", m.name);
                self.failed += 1;
            }
            self.metrics.push((m, value.unwrap_or(0.0)));
        }
    }

    fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (m, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        line
    }
}

/// The untraced pass: `launches` processes one after another, each a cold
/// start that goes on to time ops for its share of `seconds`. Every metric
/// is the median over the processes; for the op time, of their medians. A
/// process is lucky or unlucky as a whole (where its pages fell, which clock
/// phase it met), so several short ones repeat better than one long one.
fn run_untraced(h: &mut Harness, w: &Workload) -> RunResult {
    let mut run = RunResult::default();
    let (mut ops, mut setups, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let share = h.seconds / h.sizes.launches as f64;
    for _ in 0..h.sizes.launches {
        let Some(out) = run.absorb(h.launch(w.name, "timed", Some(share), w.one_cpu, None)) else {
            continue;
        };
        setups.push(out.setup_s);
        peaks.push(out.first_rss_kb as f64 / 1024.0);
        if !out.untraced.is_empty() {
            ops.push(stats::median(&out.untraced));
        }
        run.exact.extend(out.exact);
    }
    let mut values = BTreeMap::new();
    for (name, per_launch) in [
        ("op_ms_p50", ops),
        ("setup_s", setups),
        ("peak_rss_mb", peaks),
    ] {
        if !per_launch.is_empty() {
            values.insert(name.to_string(), stats::median(&per_launch));
        }
    }
    run.fill(&END_TO_END, &values);
    run
}

/// The traced pass: the workload with every second op traced, then the
/// layer replays.
fn run_traced(h: &mut Harness, w: &Workload, trace_out: &PathBuf) -> RunResult {
    let mut run = RunResult::default();
    let mut values = BTreeMap::new();
    // Start the trace file afresh; the children append to it in turn.
    if let Err(e) = std::fs::write(trace_out, "") {
        eprintln!("fftperf: {}: {e}", trace_out.display());
        run.failed += 1;
    }
    let launched = h.launch(
        w.name,
        "traced",
        Some(h.seconds),
        w.one_cpu,
        Some(trace_out),
    );
    if let Some(traced) = run.absorb(launched) {
        values.extend(traced.metrics);
        values.insert(
            "harness.steady_rss_mb".into(),
            traced.rss_kb as f64 / 1024.0,
        );
        run.exact = traced.exact;
        if !traced.untraced.is_empty() {
            let sorted = stats::sorted(&traced.untraced);
            let p50 = stats::median_sorted(&sorted);
            let (q1, q3) = stats::quartiles_sorted(&sorted);
            // Below eleven samples no percentile has ten beyond it; the
            // maximum is reported and the percentile reads 0.
            let (percentile, tail) =
                stats::tail_sorted(&sorted).unwrap_or((0.0, sorted[sorted.len() - 1]));
            values.insert("harness.samples".into(), sorted.len() as f64);
            values.insert("harness.op_ms_tail".into(), tail);
            values.insert("harness.tail_percentile".into(), percentile);
            values.insert("harness.op_ms_iqr".into(), q3 - q1);
            values.insert("harness.mpoints_per_s".into(), traced.points / p50 / 1e3);
            if !traced.traced.is_empty() {
                let overhead = stats::median(&traced.traced) / p50 - 1.0;
                values.insert("fft3d.trace_overhead_pct".into(), 100.0 * overhead);
            }
        }
    }
    // The replays take no time limit; each call is repeated a fixed number
    // of times.
    for (replay, pinned) in [("replay-real", false), ("replay-sim", true)] {
        if let Some(out) = run.absorb(h.launch(replay, "", None, pinned, Some(trace_out))) {
            values.extend(out.metrics);
        }
    }
    // The same large simulation free to move between CPUs. Where nothing
    // could be pinned there is nothing to compare, and the ratio is 1.
    let mut slowdown = 1.0;
    if h.pin_cpu.is_some() {
        if let Some(unpinned) = run.absorb(h.launch("replay-unpinned", "", None, false, None)) {
            if let (Some(free), Some(pinned)) = (
                unpinned.metrics.get("simnet.sim_ms.p256"),
                values.get("simnet.sim_ms.p256"),
            ) {
                slowdown = free / pinned;
            }
        }
    }
    values.insert("simnet.unpinned_slowdown".into(), slowdown);
    for name in EXACT_PER_LAYER {
        if let Some(v) = values.get(name) {
            run.exact.insert(format!("per_layer.{name}"), *v);
        }
    }
    run.fill(&PER_LAYER, &values);
    run
}

/// Where a workload's trace goes unless `--trace-out` says otherwise.
fn trace_file(dir: &std::path::Path, w: &Workload) -> PathBuf {
    dir.join(format!("fftperf-trace-{}.jsonl", w.name))
}

fn print_metrics(run: &RunResult) {
    for (m, value) in &run.metrics {
        println!("  {:<36} {value:>16.6} {}", m.name, m.unit);
    }
}

/// Every workload, untraced then traced, in the given order. Returns each
/// workload's two passes.
fn run_set(
    h: &mut Harness,
    order: &[&'static Workload],
    trace_dir: &std::path::Path,
) -> Vec<(&'static Workload, RunResult, RunResult)> {
    order
        .iter()
        .map(|w| {
            println!("{} (seed {}, {} s a pass)", w.name, h.seed, h.seconds);
            let mut untraced = run_untraced(h, w);
            print_metrics(&untraced);
            let trace_out = trace_file(trace_dir, w);
            let traced = run_traced(h, w, &trace_out);
            print_metrics(&traced);
            // A count or a simulated statistic that differs between the two
            // passes of one seed is a failed op of the workload.
            for (name, a) in &untraced.exact {
                if let Some(b) = traced
                    .exact
                    .get(name)
                    .filter(|b| b.to_bits() != a.to_bits())
                {
                    eprintln!("fftperf: {}: {name} is {a} untraced and {b} traced", w.name);
                    untraced.failed += 1;
                }
            }
            println!(
                "  ops attempted {} failed {}; trace in {}",
                untraced.attempted + traced.attempted,
                untraced.failed + traced.failed,
                trace_out.display()
            );
            (*w, untraced, traced)
        })
        .collect()
}

fn value_of(run: &RunResult, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn parent(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let trace_dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    let mut h = Harness {
        exe,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            0.2
        } else {
            f64::from(RUN_SECONDS)
        }),
        smoke: args.smoke,
        sizes: Sizes::of(args.smoke),
        pin_cpu: host::first_allowed_cpu(),
    };
    if h.pin_cpu.is_none() {
        eprintln!("fftperf: warning: no CPU list in /proc/self/status; measuring unpinned");
    }

    // One run of one workload: what the driver asks for.
    if let Some(name) = &args.workload {
        let w = manifest::workload(name).ok_or(format!("unknown workload {name:?}; see --list"))?;
        let run = if args.trace {
            let default = trace_file(&trace_dir, w);
            run_traced(&mut h, w, args.trace_out.as_ref().unwrap_or(&default))
        } else {
            run_untraced(&mut h, w)
        };
        println!(
            "{} seed {} trace {} pinned {}",
            w.name,
            h.seed,
            u8::from(args.trace),
            w.one_cpu && h.pin_cpu.is_some()
        );
        print_metrics(&run);
        println!("{}", run.result_line());
        return Ok(run.correct());
    }

    let forward: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let first = run_set(&mut h, &forward, &trace_dir);
    let mut correct = first.iter().all(|(_, a, b)| a.correct() && b.correct());

    if args.repeat_check {
        // The second set runs the workloads in the opposite order, so that
        // whatever one workload leaves behind meets a different successor.
        let backward: Vec<&'static Workload> = WORKLOADS.iter().rev().collect();
        let second = run_set(&mut h, &backward, &trace_dir);
        correct &= second.iter().all(|(_, a, b)| a.correct() && b.correct());
        println!(
            "repeat check, seed {}: |a - b| / min(a, b) against the bound",
            h.seed
        );
        for (w, a, a_traced) in &first {
            let (_, b, b_traced) = second
                .iter()
                .find(|(other, _, _)| other.name == w.name)
                .expect("both sets run every workload");
            for m in &END_TO_END {
                let (x, y) = (value_of(a, m.name), value_of(b, m.name));
                let apart = (x - y).abs() / x.min(y);
                let bound = m.bound.expect("end-to-end metrics are bounded");
                let pass = apart <= bound;
                correct &= pass;
                println!(
                    "  {:<16} {:<12} {x:>12.4} {y:>12.4}  {:>6.2} % of {:>2.0} %  {}",
                    w.name,
                    m.name,
                    100.0 * apart,
                    100.0 * bound,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
            for (one, other) in [(&a.exact, &b.exact), (&a_traced.exact, &b_traced.exact)] {
                for (name, x) in one {
                    if other.get(name).is_none_or(|y| y.to_bits() != x.to_bits()) {
                        println!(
                            "  {:<16} {name} did not repeat: {x} then {:?}  FAIL",
                            w.name,
                            other.get(name)
                        );
                        correct = false;
                    }
                }
            }
        }
        println!("repeat check: {}", if correct { "PASS" } else { "FAIL" });
        return Ok(correct);
    }

    // The whole set as one JSON document, last.
    let serial = first.iter().find(|(w, _, _)| w.name == "serial128");
    let slab = first.iter().find(|(w, _, _)| w.name == "slab128_steady");
    let scaling_eff = match (serial, slab) {
        (Some((_, s, _)), Some((_, d, _))) => {
            value_of(s, "op_ms_p50") / (inputs::REAL_RANKS as f64 * value_of(d, "op_ms_p50"))
        }
        _ => f64::NAN,
    };
    println!(
        "harness.scaling_eff {scaling_eff:.4} (serial128 op_ms_p50 / ({} x slab128_steady op_ms_p50))",
        inputs::REAL_RANKS
    );
    let mut doc = format!(
        "{{\"env\": {{{}}}, ",
        host::env_json(h.seed, h.pin_cpu.is_some())
    );
    let _ = write!(
        doc,
        "\"correct\": {correct}, \"harness.scaling_eff\": {scaling_eff:.6}, \"workloads\": {{"
    );
    for (i, (w, untraced, traced)) in first.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            w.name,
            untraced.result_line(),
            traced.result_line()
        );
    }
    doc.push_str("}}");
    println!("{doc}");
    Ok(correct)
}
