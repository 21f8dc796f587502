//! Auto-tuning walkthrough on the simulated Hopper model: seed vs tuned
//! configuration, tuning trajectory, and the speedup over the FFTW
//! baseline — §4 of the paper end to end.
//!
//! ```sh
//! cargo run --release --example autotune [N] [p]
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::{ProblemSpec, Simulation, TuningParams, Variant};
use simnet::model::hopper;
use tuner::driver::{tune_new, DEFAULT_MAX_EVALS};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(512);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let spec = ProblemSpec::cube(n, p);
    println!("auto-tuning NEW for {n}³ on {p} simulated Hopper ranks\n");

    // One modelled run on Hopper. The seed and every vector the tuner
    // proposes are feasible, so the constructor never refuses.
    let time = |sim: Simulation| sim.run(hopper()).expect("no watchdog armed")[0].report.time;
    let sim = |variant, params| Simulation::slab(spec, variant, params).expect("feasible vector");

    let seed = TuningParams::seed(&spec);
    let seed_time = time(sim(Variant::New, seed));
    let fftw_time = time(sim(Variant::Fftw, seed));
    println!("FFTW baseline : {fftw_time:.4}s");
    println!(
        "NEW @ seed    : {seed_time:.4}s  ({:.2}× over FFTW)",
        fftw_time / seed_time
    );

    // The tuning objective excludes FFTz/Transpose (§4.4 technique 3).
    let result = tune_new(
        &spec,
        |params| time(sim(Variant::New, *params).skip_fixed_steps()),
        DEFAULT_MAX_EVALS,
    );

    println!("\ntuning trajectory (objective excludes FFTz/Transpose):");
    let mut best_so_far = f64::INFINITY;
    for (i, (params, v)) in result.history.iter().enumerate() {
        if *v < best_so_far {
            best_so_far = *v;
            println!(
                "  eval {:>3}: {:.4}s  T={} W={} F=({},{},{},{})",
                i + 1,
                v,
                params.t,
                params.w,
                params.fy,
                params.fp,
                params.fu,
                params.fx
            );
        }
    }
    println!(
        "\n{} executed / {} cache hits / {} infeasible rejections (of {} requests)",
        result.executed, result.cache_hits, result.infeasible, result.requests
    );

    let tuned_time = time(sim(Variant::New, result.best));
    println!("\nbest configuration: {:?}", result.best);
    println!(
        "NEW @ tuned   : {tuned_time:.4}s  ({:.2}× over FFTW)",
        fftw_time / tuned_time
    );
    println!(
        "simulated auto-tuning cost: {:.1}s of cluster time",
        result.tuning_cost
    );
    assert!(tuned_time <= seed_time * 1.0001, "tuning must not regress");
}
