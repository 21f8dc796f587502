//! Inter+intra-array overlap (§7 future work): successive 3-D FFTs on
//! independent arrays share one tile pipeline, so the fill/drain bubbles
//! between transforms vanish.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin multi_array [-- N p]
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::{ProblemSpec, Simulation, TuningParams, Variant};
use simnet::model::umd_cluster;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let p: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let spec = ProblemSpec::cube(n, p);
    let params = TuningParams::seed(&spec);
    println!("multi-array pipeline on the UMD model, N = {n}³, p = {p}\n");
    println!(
        "{:>7} | {:>14} | {:>12} | {:>8}",
        "arrays", "sequential (s)", "fused (s)", "gain"
    );
    let time = |sim: &Simulation| match sim.run(umd_cluster()) {
        Ok(runs) => runs[0].report.time,
        Err(e) => panic!("multi-array pipeline failed: {e}"),
    };
    let single = Simulation::slab(spec, Variant::New, params)
        .unwrap_or_else(|e| panic!("multi-array pipeline failed: {e}"));
    // The same workload as back-to-back single-array transforms.
    let alone = time(&single);
    for narrays in [1usize, 2, 3, 4, 6, 8] {
        let (sequential, fused) = (
            alone * narrays as f64,
            time(&single.clone().arrays(narrays)),
        );
        println!(
            "{narrays:>7} | {sequential:>14.4} | {fused:>12.4} | {:>7.2}×",
            sequential / fused
        );
    }
    println!(
        "\nThe fused pipeline hides each array's FFTz/Transpose behind the\n\
         previous array's all-to-all tail — combining Kandalla et al.'s\n\
         inter-array overlap with the paper's intra-array overlap."
    );
}
