//! Figure 5: cumulative distribution of the 3-D FFT execution time over
//! 200 random parameter configurations (UMD model, 16 ranks, 256³), plus
//! the §5.3.1 Nelder–Mead-vs-random comparison.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

fn main() {
    let result = fft_bench::experiments::run_fig5();
    print!("{}", fft_bench::experiments::render_fig5(&result));
}
