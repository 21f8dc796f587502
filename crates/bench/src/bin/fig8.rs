//! Figure 8: per-step performance breakdown of NEW, NEW-0, TH, TH-0 for
//! the paper's three settings.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft_bench::experiments::run_fig8_panel;
use fft_bench::report::render_fig8_panel;

fn main() {
    for (plat, p, n) in [("umd", 32, 640), ("hopper", 32, 640), ("hopper", 256, 2048)] {
        let panel = run_fig8_panel(plat, p, n);
        println!(
            "{}",
            render_fig8_panel(&panel.title, &panel.new, &panel.new0, &panel.th, &panel.th0)
        );
    }
}
