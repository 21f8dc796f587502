//! Inter+intra-array overlap (§7 future work): successive 3-D FFTs on
//! independent arrays share one tile pipeline, so the fill/drain bubbles
//! between transforms vanish.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin multi_array [-- N p]
//! ```

use fft3d::{try_multi_simulated, ProblemSpec, Resilience, TuningParams};
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
    for narrays in [1usize, 2, 3, 4, 6, 8] {
        let rep = try_multi_simulated(umd_cluster(), spec, params, narrays, &Resilience::default())
            .unwrap_or_else(|e| panic!("multi-array pipeline failed: {e}"));
        println!(
            "{narrays:>7} | {:>14.4} | {:>12.4} | {:>7.2}×",
            rep.sequential_time,
            rep.fused_time,
            rep.sequential_time / rep.fused_time
        );
    }
    println!(
        "\nThe fused pipeline hides each array's FFTz/Transpose behind the\n\
         previous array's all-to-all tail — combining Kandalla et al.'s\n\
         inter-array overlap with the paper's intra-array overlap."
    );
}
