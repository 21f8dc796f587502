//! Executable Figure 3: renders rank 0's pipeline phases over virtual time
//! as an ASCII Gantt chart, showing computation on tile *i* overlapping the
//! in-flight all-to-alls of the window, plus the overlap-efficiency summary
//! derived from the trace.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin timeline [-- N p T W [--json PATH]]
//! ```
//!
//! With `--json PATH` the full per-rank event streams (and per-rank overlap
//! summaries) are written as one JSON document for external plotting.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::sim_env::{Execution, Simulation};
use fft3d::trace::{derive_step_times, overlap_summary, trace_to_json, EventKind, TraceEvent};
use fft3d::{ProblemSpec, TuningParams, Variant};
use fft_bench::report::render_overlap;
use simnet::model::umd_cluster;

const WIDTH: usize = 100;

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

fn render_gantt(events: &[TraceEvent], total: f64) {
    println!("{:<16} time →", "phase");
    for ev in events {
        // Individual polls are far too fine for a 100-column chart; they
        // are aggregated in the summary below instead.
        if matches!(ev.kind, EventKind::Test { .. }) {
            continue;
        }
        let s = ((ev.start / total) * WIDTH as f64) as usize;
        let e = (((ev.end / total) * WIDTH as f64).ceil() as usize)
            .min(WIDTH)
            .max(s + 1);
        let mut row = vec![b' '; WIDTH];
        let ch = gantt_char(&ev.kind);
        for c in row.iter_mut().take(e).skip(s) {
            *c = ch;
        }
        let label = match ev.kind.tile() {
            Some(t) => format!("{} t{}", ev.kind.label(), t),
            None => ev.kind.label().to_string(),
        };
        println!(
            "{:<16} |{}|",
            label,
            String::from_utf8(row).expect("glyph rows are ASCII")
        );
    }
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            json_path = args.next();
            if json_path.is_none() {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }
        } else {
            positional.push(a);
        }
    }
    let mut positional = positional.into_iter();
    let n: usize = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256);
    let p: usize = positional.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let t: usize = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(n / 4);
    let w: usize = positional.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let spec = ProblemSpec::cube(n, p);
    let params = TuningParams {
        t,
        w,
        ..TuningParams::seed(&spec)
    };
    println!(
        "pipeline timeline — UMD model, N={n}³ p={p} T={t} (k={} tiles) W={w}\n",
        params.tiles(&spec)
    );

    let traced = Simulation::slab(spec, Variant::New, params)
        .unwrap_or_else(|e| panic!("cannot simulate N={n} p={p} T={t} W={w}: {e}"))
        .traced();
    let mut runs = traced.run(umd_cluster()).expect("no watchdog armed");
    let Execution { report, events, .. } = runs.remove(0);
    let rank0 = &events[0];
    let total = report.per_rank[0].elapsed;

    render_gantt(rank0, total);

    println!(
        "\ntotal {:.4}s — Wait is only {:.1} % of it (the overlap at work; \
         compare W=1 or F*=0)",
        total,
        100.0 * report.steps.wait / total
    );

    // Overlap efficiency, derived from the same trace.
    let summary = overlap_summary(rank0);
    println!("\noverlap efficiency (rank 0):");
    print!("{}", render_overlap(0, &summary));

    // Cross-check: the event stream must reproduce the Figure 8 breakdown.
    let derived = derive_step_times(rank0);
    let direct = report.steps;
    println!(
        "\nbreakdown cross-check: trace-derived total {:.4}s vs direct {:.4}s",
        derived.total(),
        direct.total()
    );

    if let Some(path) = json_path {
        let json = trace_to_json(&events);
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {} ranks of trace JSON to {path}", events.len()),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
