//! Tables 2, 3, 4 and Figure 7: tuned FFTW/NEW/TH times, speedups, tuned
//! parameter values, and tuning times.
//!
//! Usage: `cargo run -p fft-bench --release --bin table2 -- [umd|hopper|hopper-large|all]`

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft_bench::experiments::{run_panel, HOPPER_CELLS, HOPPER_LARGE_CELLS, UMD_CELLS};
use fft_bench::report::{render_table2, render_table3, render_table4};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let mut panels = Vec::new();
    if which == "umd" || which == "all" {
        panels.push(("Table 2(a) — UMD-Cluster", run_panel("umd", UMD_CELLS)));
    }
    if which == "hopper" || which == "all" {
        panels.push(("Table 2(b) — Hopper", run_panel("hopper", HOPPER_CELLS)));
    }
    if which == "hopper-large" || which == "all" {
        panels.push((
            "Table 2(c) — Hopper (large scale)",
            run_panel("hopper", HOPPER_LARGE_CELLS),
        ));
    }
    for (title, cells) in &panels {
        println!("\n## {title} (+ Figure 7 speedups)\n");
        println!("{}", render_table2(cells));
        println!("### Table 3 — tuned parameters\n");
        println!("{}", render_table3(cells));
        println!("### Table 4 — auto-tuning time\n");
        println!("{}", render_table4(cells));
    }
}
