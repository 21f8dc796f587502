//! The rows beyond the paper's figures: the design-choice ablation, the
//! slab/pencil crossover, the multi-array train, tuning under noise, the
//! calibration probe, the straggler sweep, the Figure 3 timeline and the
//! multi-tenant service — each a function from the run's [`Tuned`] cells
//! to its EXPERIMENTS.md section and the checks it failed.

use crate::cells::{objective, platform_by_tag, price, slab, Tuned};
use crate::paper::TABLE2;
use crate::report::render_overlap;
use crate::Outcome;
use cfft::Direction;
use fft3d::sim_env::Execution;
use fft3d::trace::{derive_step_times, overlap_summary, EventKind, TraceEvent};
use fft3d::{
    auto_select, pencil_blocking, pencil_seed, Decomposition, JobSpec, PencilGrid, ProblemSpec,
    Service, ServiceConfig, Simulation, ThParams, TuningParams, Variant,
};
use simnet::model::{hopper, umd_cluster, TransposeCost};
use std::fmt::Write as _;
use tuner::driver::{tune_new, DEFAULT_MAX_EVALS};

/// `+x.x %` of `v` over `base`.
fn delta(v: f64, base: f64) -> String {
    format!("{:+.1} %", 100.0 * (v / base - 1.0))
}

/// How much each of NEW's design choices (§3) contributes: each removed in
/// turn from the tuned vector of the Figure 8(a) cell (UMD, p = 32,
/// N = 640³).
pub fn ablation(tuned: &mut Tuned) -> Outcome {
    let (p, n) = (32, 640);
    let cell = tuned.cell("umd", p, n);
    let (spec, platform) = (ProblemSpec::cube(n, p), umd_cluster());
    let best = cell.new_tune.best;
    let full = cell.new;
    let time = |sim: Simulation| price(&sim, &platform).time;
    let new = |params| time(slab(spec, Variant::New, params));
    let no_overlap = new(best.without_overlap());
    // The window kept, no polls: rounds progress only inside Wait (the
    // §3.3 manual-progression motivation).
    let no_polls = new(TuningParams {
        fy: 0,
        fp: 0,
        fu: 0,
        fx: 0,
        ..best
    });
    // Whole-tile "sub-tiles" during Pack/Unpack (§3.4).
    let no_tiling = new(TuningParams {
        px: spec.nx.div_ceil(p),
        pz: best.t,
        uy: spec.ny.div_ceil(p),
        uz: best.t,
        ..best
    });
    // The Nx = Ny fast transpose denied (§3.5): the generic tier.
    let no_fast_transpose = time(slab(spec, Variant::New, best).transpose(TransposeCost::Generic));
    let w1 = new(TuningParams { w: 1, ..best });

    let mut s = format!(
        "\n## Ablation — NEW's design choices, one removed at a time\n\n\
         The tuned NEW vector of the UMD-Cluster cell p = {p}, N = {n}³ (Table 2(a),\n\
         Figure 8(a)), each §3 design choice removed in turn.\n\n\
         | configuration | time (s) | vs tuned NEW |\n\
         |---|---|---|\n\
         | tuned NEW | {full:.3} | — |\n"
    );
    for (label, v) in [
        ("− overlap (NEW-0)", no_overlap),
        ("− MPI_Test polls (window kept)", no_polls),
        ("− Pack/Unpack loop tiling", no_tiling),
        ("− Nx = Ny fast transpose", no_fast_transpose),
        ("window W = 1", w1),
        ("FFTW (Table 2(a))", cell.fftw),
        ("tuned TH (Table 2(a))", cell.th),
    ] {
        writeln!(s, "| {label} | {v:.3} | {} |", delta(v, full))
            .expect("write to String cannot fail");
    }
    let mut out = Outcome::text(s);
    out.check(
        no_overlap > full,
        format!("overlap must matter: NEW-0 {no_overlap:.4}s vs tuned NEW {full:.4}s"),
    );
    out.check(
        no_polls > full,
        format!("manual progression must matter: no polls {no_polls:.4}s vs {full:.4}s"),
    );
    out
}

/// Slab (1-D) vs pencil (2-D) decomposition — the §2.2 trade-off and the
/// scalability argument for §7's pencil future work — and `auto_select`
/// against the measured winner across the same sweep.
pub fn decomp_crossover(_: &mut Tuned) -> Outcome {
    let n = 512;
    let time = |sim: Result<Simulation, fft3d::Error>| {
        let sim = sim.unwrap_or_else(|e| panic!("cannot price: {e}"));
        price(&sim, &hopper()).time
    };
    let mut s = format!(
        "\n## Decomposition crossover — slab vs pencil\n\n\
         Hopper model, N = {n}³, seed vectors: the slab NEW pipeline, the\n\
         blocking pencil and the overlapped pencil over the near-square grid,\n\
         beside the decomposition `auto_select` picks. Slabs cannot use more\n\
         ranks than planes.\n\n\
         | p | slab NEW (s) | pencil (s) | pencil+ovl (s) | measured | auto_select |\n\
         |---|---|---|---|---|---|\n"
    );
    let mut crossover = None;
    let mut out = Outcome::default();
    for exp in 3..=11 {
        let p = 1usize << exp;
        let spec = ProblemSpec::cube(n, p);
        let grid = PencilGrid::near_square(p);
        let pencil = time(Simulation::pencil(spec, grid, pencil_blocking(&spec, grid)));
        let ovl = time(Simulation::pencil(spec, grid, pencil_seed(&spec, grid)));
        let slab_new = (p <= n).then(|| {
            time(Simulation::slab(
                spec,
                Variant::New,
                TuningParams::seed(&spec),
            ))
        });
        let measured = match slab_new {
            Some(slab) if slab <= pencil.min(ovl) => "slab",
            _ => "pencil",
        };
        if measured == "pencil" && crossover.is_none() {
            crossover = Some(p);
        }
        let selected = match auto_select(hopper(), &ProblemSpec::cube(n, 1), p) {
            Ok(Decomposition::Slab) => "slab",
            Ok(Decomposition::Pencil(_)) => "pencil",
            Err(e) => panic!("auto_select({n}, {p}) refused: {e}"),
        };
        let slab_cell = slab_new.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        writeln!(
            s,
            "| {p} | {slab_cell} | {pencil:.4} | {ovl:.4} | {measured} | {selected} |"
        )
        .expect("write to String cannot fail");
        // Interior points may wobble near the flip (seed-vector pricing);
        // a wrong pick at either end is a bug.
        if exp == 3 || p > n {
            out.check(
                measured == selected,
                format!(
                    "auto_select picks {selected} at p = {p}, the measured winner is {measured}"
                ),
            );
        }
    }
    match crossover {
        Some(p) => writeln!(
            s,
            "\nPencils overtake slabs from p = {p}; below it the slab's single\n\
             (overlapped) exchange wins."
        ),
        None => writeln!(s, "\nSlabs win across the swept range."),
    }
    .expect("write to String cannot fail");
    out.section = s;
    out
}

/// Inter+intra-array overlap (§7 future work): successive transforms of
/// independent arrays share one tile pipeline.
pub fn multi_array(_: &mut Tuned) -> Outcome {
    let (n, p) = (256, 16);
    let spec = ProblemSpec::cube(n, p);
    let single = slab(spec, Variant::New, TuningParams::seed(&spec));
    let time = |sim: &Simulation| price(sim, &umd_cluster()).time;
    let alone = time(&single);
    let mut s = format!(
        "\n## Multi-array pipeline — inter- plus intra-array overlap\n\n\
         UMD model, N = {n}³, p = {p}, seed vector: `arrays` back-to-back\n\
         single-array transforms against one fused train.\n\n\
         | arrays | sequential (s) | fused (s) | gain |\n\
         |---|---|---|---|\n"
    );
    for arrays in [1usize, 2, 3, 4, 6, 8] {
        let sequential = alone * arrays as f64;
        let fused = time(&single.clone().arrays(arrays));
        writeln!(
            s,
            "| {arrays} | {sequential:.4} | {fused:.4} | {:.2}× |",
            sequential / fused
        )
        .expect("write to String cannot fail");
    }
    Outcome::text(s)
}

/// Robustness under execution noise — why the paper keeps the best of 25
/// runs (§5.2.1): the spread of one tuned vector over fresh noise, and
/// what tuning against a noisy objective costs on the noise-free one.
pub fn noise(tuned: &mut Tuned) -> Outcome {
    const JITTER: f64 = 0.08;
    let (n, p) = (256, 16);
    let spec = ProblemSpec::cube(n, p);
    // Figure 5's Nelder–Mead search is this cell's.
    let nm = tuned.cell("umd", p, n).new_tune;
    let noisy = umd_cluster().with_jitter(JITTER);

    // Each execution of a repeated run draws fresh noise; the first also
    // pays the plans' setup, so it is left out.
    let runs = slab(spec, Variant::New, nm.best)
        .repeated(26)
        .run(noisy.clone())
        .expect("no watchdog armed");
    let times: Vec<f64> = runs[1..].iter().map(|run| run.report.time).collect();
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;

    let quiet = umd_cluster();
    let noisy_best = tune_new(
        &spec,
        |params| objective(&noisy, spec, Variant::New, *params),
        DEFAULT_MAX_EVALS,
    )
    .best;
    let regression = objective(&quiet, spec, Variant::New, noisy_best);
    let change = 100.0 * (regression / nm.best_value - 1.0);

    let mut s = format!(
        "\n## Noise — tuning under ±{:.0} % compute jitter\n\n\
         UMD model, p = {p}, N = {n}³, at the vector Nelder–Mead tuned without\n\
         noise (Figure 5).\n\n\
         {} steady-state executions: min {min:.4}s, mean {mean:.4}s, max {max:.4}s — \
         spread {:.1} % of the mean\n\n\
         | noise-free objective of | time (s) |\n\
         |---|---|\n\
         | the noise-free-tuned vector (Figure 5) | {:.4} |\n\
         | the vector tuned under noise | {regression:.4} |\n\n",
        JITTER * 100.0,
        times.len(),
        100.0 * (max - min) / mean,
        nm.best_value,
    );
    if change > 0.0 {
        writeln!(
            s,
            "Tuning under noise lost {change:.1} % on the noise-free objective: the loss\n\
             the paper's best-of-25 protocol bounds."
        )
    } else {
        writeln!(
            s,
            "Tuning under noise lost nothing: its vector is {:.1} % faster on the\n\
             noise-free objective, so at this budget the search's path, not the\n\
             noise, decides where Nelder–Mead stops.",
            -change
        )
    }
    .expect("write to String cannot fail");
    Outcome::text(s)
}

/// Calibration probe: the seed-vector FFTW, NEW and TH times of every
/// Table 2 cell beside the paper's, the FFTW column being what the platform
/// constants in `simnet::model` are fitted to.
pub fn calibrate(_: &mut Tuned) -> Outcome {
    let mut s = String::from(
        "\n## Calibration — seed vectors against the paper's Table 2\n\n\
         | plat | p | N | FFTW paper | FFTW sim | ratio | NEW paper | NEW seed | TH paper | TH seed |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut log_err_sum = 0.0;
    for &(plat, p, n, fftw_p, new_p, th_p) in TABLE2 {
        let (spec, platform) = (ProblemSpec::cube(n, p), platform_by_tag(plat));
        let seed = TuningParams::seed(&spec);
        let time = |variant, params| price(&slab(spec, variant, params), &platform).time;
        let fftw = time(Variant::Fftw, seed);
        let new = time(Variant::New, seed);
        let th = time(Variant::Th, ThParams::seed(&spec).widen());
        log_err_sum += (fftw / fftw_p).ln().powi(2);
        writeln!(
            s,
            "| {plat} | {p} | {n}³ | {fftw_p:.3} | {fftw:.3} | {:.2} | {new_p:.3} | {new:.3} | {th_p:.3} | {th:.3} |",
            fftw / fftw_p
        )
        .expect("write to String cannot fail");
    }
    let rms = (log_err_sum / TABLE2.len() as f64).sqrt();
    writeln!(
        s,
        "\nFFTW-column RMS log error: {rms:.3} (×{:.2})",
        rms.exp()
    )
    .expect("write to String cannot fail");
    Outcome::text(s)
}

/// Straggler severity × window `W` on the simulated backend: each cell's
/// completion time under a seeded straggler on rank 3, normalised to the
/// fault-free run of the same `W` — the cushion a deeper window buys.
pub fn chaos(_: &mut Tuned) -> Outcome {
    let spec = ProblemSpec::cube(256, 16);
    let base = TuningParams::seed(&spec);
    let sims = [1, 2, 4, 8].map(|w| slab(spec, Variant::New, TuningParams { w, ..base }));
    let clean = sims.each_ref().map(|sim| price(sim, &umd_cluster()).time);
    let mut s = String::from(
        "\n## Chaos — straggler severity × window\n\n\
         UMD model, p = 16, N = 256³, seed vector; rank 3 straggles. Cells:\n\
         completion time, and slowdown against the fault-free run of the same W.\n\n\
         | severity | W = 1 | W = 2 | W = 4 | W = 8 |\n\
         |---|---|---|---|---|\n",
    );
    for severity in [0.0, 0.5, 1.0, 2.0, 4.0] {
        write!(s, "| {severity:.1} |").expect("write to String cannot fail");
        let platform = if severity > 0.0 {
            umd_cluster().with_straggler(3, severity)
        } else {
            umd_cluster()
        };
        for (sim, clean) in sims.iter().zip(clean) {
            let faulted = price(sim, &platform).time;
            write!(s, " {faulted:.3}s {:.2}× |", faulted / clean)
                .expect("write to String cannot fail");
        }
        s.push('\n');
    }
    Outcome::text(s)
}

/// Gantt glyph of one event kind.
fn gantt_char(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Fftz => b'z',
        EventKind::Transpose => b'T',
        EventKind::Ffty { .. } => b'y',
        EventKind::Pack { .. } => b'P',
        EventKind::Unpack { .. } => b'U',
        EventKind::Fftx { .. } => b'x',
        EventKind::PostA2a { .. } => b'A',
        EventKind::Wait { .. } => b'W',
        EventKind::Test { .. } => b't',
        EventKind::Degrade { .. } => b'D',
        EventKind::RankLost { .. } => b'!',
        EventKind::Shrink { .. } => b'S',
        EventKind::Corrupt { .. } => b'X',
    }
}

/// One Gantt line per event over `width` columns spanning `total` seconds.
/// Polls are far too fine for the chart; the overlap summary counts them.
fn render_gantt(events: &[TraceEvent], total: f64, width: usize) -> String {
    let mut s = format!("{:<16} time →\n", "phase");
    for ev in events {
        if matches!(ev.kind, EventKind::Test { .. }) {
            continue;
        }
        let start = ((ev.start / total) * width as f64) as usize;
        let end = (((ev.end / total) * width as f64).ceil() as usize)
            .min(width)
            .max(start + 1);
        let mut row = vec![b' '; width];
        row[start..end].fill(gantt_char(&ev.kind));
        let label = match ev.kind.tile() {
            Some(t) => format!("{} t{t}", ev.kind.label()),
            None => ev.kind.label().to_string(),
        };
        let row = String::from_utf8(row).expect("glyph rows are ASCII");
        writeln!(s, "{label:<16} |{row}|").expect("write to String cannot fail");
    }
    s
}

/// Executable Figure 3: rank 0's pipeline phases over virtual time, the
/// overlap summary derived from the same trace, and the trace's breakdown
/// checked against the directly accumulated one.
pub fn timeline(_: &mut Tuned) -> Outcome {
    let (n, p, t, w) = (256, 16, 64, 2);
    let spec = ProblemSpec::cube(n, p);
    let params = TuningParams {
        t,
        w,
        ..TuningParams::seed(&spec)
    };
    let traced = slab(spec, Variant::New, params).traced();
    let mut runs = traced.run(umd_cluster()).expect("no watchdog armed");
    let Execution { report, events, .. } = runs.remove(0);
    let rank0 = &events[0];
    let total = report.per_rank[0].elapsed;
    let derived = derive_step_times(rank0);

    let s = format!(
        "\n## Timeline — Figure 3, executed\n\n\
         Rank 0 of NEW on the UMD model, N = {n}³, p = {p}, T = {t} ({} tiles),\n\
         W = {w}.\n\n```text\n{}```\n\n\
         Total {total:.4}s, of which Wait is {:.1} %.\n\n\
         Overlap efficiency (rank 0):\n\n{}\n\
         Breakdown cross-check: trace-derived total {:.4}s vs direct {:.4}s.\n",
        params.tiles(&spec),
        render_gantt(rank0, total, 100),
        100.0 * report.steps.wait / total,
        render_overlap(0, &overlap_summary(rank0)),
        derived.total(),
        report.steps.total(),
    );
    Outcome::text(s)
}

/// Multi-tenant overload: four tenants submit jobs at 2× the cluster's
/// service rate, each with a 1.5×-isolated deadline. Its gate: load is
/// shed, p99 slowdown stays within 1.5×, and Jain's index is at least 0.9.
pub fn service(_: &mut Tuned) -> Outcome {
    let (n, p, njobs) = (256, 16, 24);
    let svc = Service::new(ServiceConfig::new(umd_cluster(), p));
    let template = JobSpec::new(0, ProblemSpec::cube(n, 1), Direction::Forward);
    let iso = svc
        .isolated_run(&template)
        .unwrap_or_else(|e| panic!("template job N = {n}³, p = {p} is infeasible: {e}"))
        .time;
    let jobs: Vec<JobSpec> = (0..njobs)
        .map(|i| {
            JobSpec::new(i % 4, ProblemSpec::cube(n, 1), Direction::Forward)
                .with_priority((i % 3) as u8)
                .with_deadline(iso * 1.5)
                .at(i as f64 * iso * 0.5)
        })
        .collect();
    let rep = svc.run(&jobs);

    let mut s = format!(
        "\n## Service — multi-tenant overload\n\n\
         UMD model, N = {n}³, p = {p}: {njobs} jobs from 4 tenants at 2× the service\n\
         rate (one arrival per {:.4}s), each with a 1.5×-isolated deadline\n\
         ({:.4}s).\n\n\
         | job | tenant | prio | arrive (s) | fct (s) | slowdown | outcome |\n\
         |---|---|---|---|---|---|---|\n",
        iso * 0.5,
        iso * 1.5
    );
    for rec in &rep.jobs {
        let fct = rec.fct().map_or_else(|| "-".into(), |v| format!("{v:.4}"));
        let slow = rec
            .slowdown()
            .map_or_else(|| "-".into(), |v| format!("{v:.2}×"));
        writeln!(
            s,
            "| {} | {} | {} | {:.4} | {fct} | {slow} | {} |",
            rec.job, rec.tenant, rec.priority, rec.submitted, rec.outcome
        )
        .expect("write to String cannot fail");
    }
    writeln!(
        s,
        "\n{} completed, {} rejected, {} cancelled; {} plan reuse(s); makespan {:.4}s.\n\
         FCT p50 {:.4}s, p99 {:.4}s, mean {:.4}s, max {:.4}s (n = {}).\n\
         Slowdown against the isolated {iso:.4}s: p50 {:.2}×, p99 {:.2}×, mean {:.2}×, max {:.2}×.\n\
         Jain index over per-tenant mean slowdowns: {:.4}.\n\n\
         | tenant | submitted | completed | rejected | cancelled | mean slowdown | bytes moved |\n\
         |---|---|---|---|---|---|---|",
        rep.completed(),
        rep.rejected(),
        rep.cancelled(),
        rep.plan_reuses,
        rep.makespan,
        rep.fct.p50,
        rep.fct.p99,
        rep.fct.mean,
        rep.fct.max,
        rep.fct.count,
        rep.slowdown.p50,
        rep.slowdown.p99,
        rep.slowdown.mean,
        rep.slowdown.max,
        rep.jain,
    )
    .expect("write to String cannot fail");
    for t in &rep.tenants {
        writeln!(
            s,
            "| {} | {} | {} | {} | {} | {:.2}× | {} |",
            t.tenant, t.submitted, t.completed, t.rejected, t.cancelled, t.mean_slowdown, t.bytes
        )
        .expect("write to String cannot fail");
    }
    let mut out = Outcome::text(s);
    out.check(
        rep.completed() > 0 && rep.rejected() > 0,
        format!(
            "2× load must be shed, not refused outright: {} completed, {} rejected",
            rep.completed(),
            rep.rejected()
        ),
    );
    out.check(
        rep.slowdown.p99 <= 1.5 + 1e-9,
        format!("p99 slowdown {:.3}× exceeds 1.5×", rep.slowdown.p99),
    );
    out.check(
        rep.jain >= 0.9,
        format!("Jain index {:.4} below 0.9", rep.jain),
    );
    out
}
