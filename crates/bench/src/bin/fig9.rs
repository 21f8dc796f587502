//! Figure 9: cross-platform test — a configuration tuned on one platform
//! run on the other is 10–20 % slower than the natively tuned one.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft_bench::experiments::{render_fig9, run_fig9, run_panel, HOPPER_CELLS, UMD_CELLS};

fn main() {
    let umd = run_panel("umd", UMD_CELLS);
    let hopper = run_panel("hopper", HOPPER_CELLS);
    let rows = run_fig9(&umd, &hopper);
    println!("{}", render_fig9(&rows));
}
