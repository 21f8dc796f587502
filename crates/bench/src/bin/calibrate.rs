//! Calibration probe: prints the simulated FFTW / NEW(seed) / TH(seed)
//! times for every Table 2 cell next to the paper's numbers, so the
//! platform constants in `simnet::model` can be fitted to the FFTW column.
//!
//! Usage: `cargo run -p fft-bench --release --bin calibrate`

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::{fft3_simulated, th_simulated, ProblemSpec, ThParams, TuningParams, Variant};
use fft_bench::paper::TABLE2;
use simnet::model::{hopper, umd_cluster, Platform};
use std::time::Instant;

fn platform(name: &str) -> Platform {
    match name {
        "umd" => umd_cluster(),
        _ => hopper(),
    }
}

fn main() {
    println!(
        "{:<8} {:>4} {:>5} | {:>8} {:>8} {:>6} | {:>8} {:>8} | {:>8} {:>8} | {:>6}",
        "plat",
        "p",
        "N",
        "fftw(p)",
        "fftw(m)",
        "ratio",
        "new(p)",
        "new(m)",
        "th(p)",
        "th(m)",
        "wall"
    );
    let mut log_err_sum = 0.0;
    for &(plat, p, n, fftw_p, new_p, th_p) in TABLE2 {
        let spec = ProblemSpec::cube(n, p);
        let seed = TuningParams::seed(&spec);
        let t0 = Instant::now();
        let fftw = fft3_simulated(platform(plat), spec, Variant::Fftw, seed, false).time;
        let new = fft3_simulated(platform(plat), spec, Variant::New, seed, false).time;
        let th = th_simulated(platform(plat), spec, ThParams::seed(&spec), false).time;
        let wall = t0.elapsed().as_secs_f64();
        let ratio = fftw / fftw_p;
        log_err_sum += (fftw / fftw_p).ln().powi(2);
        println!(
            "{plat:<8} {p:>4} {n:>5} | {fftw_p:>8.3} {fftw:>8.3} {ratio:>6.2} | {new_p:>8.3} {new:>8.3} | {th_p:>8.3} {th:>8.3} | {wall:>6.2}s"
        );
    }
    let rms = (log_err_sum / TABLE2.len() as f64).sqrt();
    println!("\nFFTW-column RMS log error: {rms:.3} (×{:.2})", rms.exp());
}
