//! Ablation study: how much each of NEW's design choices (§3) contributes,
//! measured by removing them one at a time from the tuned configuration on
//! the Figure 8 setting (UMD model, p = 32, N = 640³).
//!
//! ```sh
//! cargo run -p fft-bench --release --bin ablation [-- p N]
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::sim_env::Simulation;
use fft3d::{fft3_simulated, th_simulated, ProblemSpec, ThParams, TuningParams, Variant};
use simnet::model::{umd_cluster, TransposeCost};
use tuner::driver::{tune_new, DEFAULT_MAX_EVALS};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(640);
    let spec = ProblemSpec::cube(n, p);
    let platform = umd_cluster();
    println!("ablation on the UMD model, p = {p}, N = {n}³\n");

    let tuned = tune_new(
        &spec,
        |params| fft3_simulated(platform.clone(), spec, Variant::New, *params, true).time,
        DEFAULT_MAX_EVALS,
    )
    .best;

    let full = fft3_simulated(platform.clone(), spec, Variant::New, tuned, false).time;

    // (1) Remove overlap entirely (W = F* = 0): the paper's NEW-0.
    let no_overlap = fft3_simulated(
        platform.clone(),
        spec,
        Variant::New,
        tuned.without_overlap(),
        false,
    )
    .time;

    // (2) Keep the window but never poll: rounds progress only inside Wait
    //     (the §3.3 manual-progression motivation).
    let no_polls = fft3_simulated(
        platform.clone(),
        spec,
        Variant::New,
        TuningParams {
            fy: 0,
            fp: 0,
            fu: 0,
            fx: 0,
            ..tuned
        },
        false,
    )
    .time;

    // (3) Remove Pack/Unpack loop tiling: whole-tile "sub-tiles" (§3.4).
    let nxl = n / p;
    let nyl = n / p;
    let no_tiling = fft3_simulated(
        platform.clone(),
        spec,
        Variant::New,
        TuningParams {
            px: nxl.max(1),
            pz: tuned.t,
            uy: nyl.max(1),
            uz: tuned.t,
            ..tuned
        },
        false,
    )
    .time;

    // (4) Deny the Nx = Ny fast transpose (§3.5): force the generic tier.
    let generic = Simulation::slab(spec, Variant::New, tuned)
        .expect("the tuner returns a feasible vector")
        .transpose(TransposeCost::Generic);
    let no_fast_transpose = generic.run(platform.clone()).expect("no watchdog armed")[0]
        .report
        .time;

    // (5) Shrink the window to 1 (§3.2's communication parallelism).
    let w1 = fft3_simulated(
        platform.clone(),
        spec,
        Variant::New,
        TuningParams { w: 1, ..tuned },
        false,
    )
    .time;

    // References.
    let fftw = fft3_simulated(platform.clone(), spec, Variant::Fftw, tuned, false).time;
    let th = th_simulated(platform.clone(), spec, ThParams::seed(&spec), false).time;

    println!("tuned NEW                         : {full:.3}s  (baseline)");
    let row = |label: &str, v: f64| {
        println!("{label:<34}: {v:.3}s  (+{:.1} %)", (v / full - 1.0) * 100.0);
    };
    row("− overlap (NEW-0)", no_overlap);
    row("− MPI_Test polls (keep window)", no_polls);
    row("− Pack/Unpack loop tiling", no_tiling);
    row("− Nx=Ny fast transpose", no_fast_transpose);
    row("window W = 1", w1);
    println!("FFTW baseline                     : {fftw:.3}s");
    println!("TH (seed)                         : {th:.3}s");

    assert!(no_overlap > full, "overlap must matter");
    assert!(no_polls > full, "manual progression must matter");
}
