//! Clock normalisation, for the workloads that run on one CPU.
//!
//! The sandbox's CPUs change speed under the harness: a fixed, register-only
//! loop takes 145 µs in one second and 200 µs in the next, in phases that
//! last seconds (the neighbours' load, not ours), and a single-threaded
//! workload follows it. A median over ten seconds then says which phase the
//! run met, not how fast the code is: ten runs of `sim_tune` spread over
//! 16 % of their median, of `service_replay` over 19 %, of `serial128` over
//! 9 %. So each timed interval of such a workload is bracketed by this loop
//! and divided by how much slower than the reference the loop ran; its times
//! are reported "at the reference clock", and the same ten runs spread over
//! 1.8 %, 2.7 % and 3.9 %.
//!
//! The two-rank workloads are left as measured. While both CPUs are busy
//! the clock is steady; a probe taken between ops, while the other rank
//! idles at a barrier, sees a different regime, and dividing by it added
//! noise (`slab64_tiles`: 0.3 % raw, 5 % normalised).

use std::time::Instant;

/// What the probe takes on this sandbox when it is quiet. Only a scale: a
/// normalised time is the wall time on a machine whose probe takes this long.
const REFERENCE_NS: f64 = 150_000.0;

/// One run of the probe: 100 000 dependent xorshift steps, which no compiler
/// collapses and no cache or memory traffic slows. Returns nanoseconds.
fn probe_ns() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64
}

/// Brackets an interval: one probe when it is made, one when it is read.
#[derive(Clone, Copy)]
pub struct Bracket {
    before: f64,
}

impl Bracket {
    pub fn open() -> Self {
        Bracket { before: probe_ns() }
    }

    /// How much slower than the reference the clock ran across the interval:
    /// divide a wall time by this to put it at the reference clock.
    pub fn factor(self) -> f64 {
        (self.before + probe_ns()) / 2.0 / REFERENCE_NS
    }
}
