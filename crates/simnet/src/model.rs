//! Machine and network cost models, with presets for the paper's two
//! platforms.
//!
//! The simulator does not replay measured numbers: every cost below is a
//! *mechanism* whose interaction produces the paper's trade-offs.
//!
//! * The compute model makes the loop-tiling parameters (`Px, Pz, Uy, Uz`)
//!   matter through an L2-residency term and a short-stride penalty (§3.4).
//! * The network model makes `T` matter through per-round latency α versus
//!   pipelining, `W` through concurrent-window bandwidth sharing — fair:
//!   `n` open windows each get `1/n` of the link — and the `F*` parameters
//!   through progression-gated rounds (§3.2–3.3). A group size's
//!   contention is priced once, into a [`Link`]; rounds are priced from it.
//!
//! Absolute constants were calibrated against the FFTW column of Table 2
//! (the `calibrate` row of `repro_all`); shapes are emergent.

use crate::time::SimTime;
use faultplan::FaultPlan;

/// Bytes per complex-double element.
pub const ELEM_BYTES: u64 = 16;

/// Per-node computation cost model.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Sustained flop rate (flop/s) for in-cache 1-D FFT butterflies.
    pub fft_flops: f64,
    /// Multiplier (< 1) applied when an FFT line's working set exceeds L2.
    pub fft_oo_cache_factor: f64,
    /// L2 cache size in bytes (both paper machines: 512 KiB).
    pub l2_bytes: u64,
    /// Effective cache budget for a pack/unpack sub-tile (the paper's §4.4
    /// seed assumes 256 KiB usable, i.e. 16 Ki elements).
    pub subtile_cache_bytes: u64,
    /// Streaming rate (bytes/s) for pack/unpack when the sub-tile fits in
    /// cache after the preceding FFT step touched it.
    pub pack_bw: f64,
    /// Multiplier when the sub-tile overflows the cache (the FFT'd data has
    /// been evicted before Pack re-reads it).
    pub pack_oo_cache_factor: f64,
    /// Multiplier when the innermost contiguous run of a sub-tile is below
    /// a cache line (hardware prefetch and line utilisation collapse).
    pub pack_short_stride_factor: f64,
    /// Contiguous-run threshold (bytes) triggering the short-stride penalty.
    pub short_stride_bytes: u64,
    /// Loop/bookkeeping overhead per sub-tile visit (seconds): many tiny
    /// sub-tiles lose to this term.
    pub subtile_overhead: f64,
    /// Transpose streaming rate (bytes/s) for the generic `z-x-y` path.
    pub transpose_bw_generic: f64,
    /// Transpose streaming rate for the §3.5 `x-z-y` fast path (`Nx = Ny`).
    pub transpose_bw_fast: f64,
    /// Transpose streaming rate for an unblocked triple loop — the
    /// non-optimized rearrangement the TH comparator performs (visible as
    /// TH's tall Transpose bar in Figure 8).
    pub transpose_bw_naive: f64,
    /// Cost of one `MPI_Test` call (seconds).
    pub t_test: f64,
}

impl MachineModel {
    /// Cost of one 1-D FFT of length `n` (Cooley–Tukey flop count over the
    /// sustained rate, degraded when the line spills out of L2).
    pub fn fft_line(&self, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let flops = 5.0 * n as f64 * (n as f64).log2();
        let in_cache = (n as u64 * ELEM_BYTES) <= self.l2_bytes;
        let rate = if in_cache {
            self.fft_flops
        } else {
            self.fft_flops * self.fft_oo_cache_factor
        };
        flops / rate
    }

    /// Cost of a batch of 1-D FFT lines.
    pub fn fft_batch(&self, n: usize, lines: u64) -> f64 {
        self.fft_line(n) * lines as f64
    }

    /// Cost of packing (or unpacking) `total_bytes`, iterated in sub-tiles
    /// of `subtile_bytes` whose innermost contiguous run is `run_bytes`.
    ///
    /// This is the term the paper's loop tiling (§3.4) optimises: the rate
    /// is best when the sub-tile still resides in cache from the preceding
    /// FFT, the contiguous run spans cache lines, and the sub-tile is not so
    /// small that per-sub-tile overhead dominates.
    pub fn pack(&self, total_bytes: u64, subtile_bytes: u64, run_bytes: u64) -> f64 {
        if total_bytes == 0 {
            return 0.0;
        }
        let mut rate = self.pack_bw;
        if subtile_bytes > self.subtile_cache_bytes {
            rate *= self.pack_oo_cache_factor;
        }
        if run_bytes < self.short_stride_bytes {
            // Scale smoothly down to the floor factor as runs shrink.
            let frac = run_bytes as f64 / self.short_stride_bytes as f64;
            rate *= self.pack_short_stride_factor + (1.0 - self.pack_short_stride_factor) * frac;
        }
        let subtiles = (total_bytes as f64 / subtile_bytes.max(1) as f64).ceil();
        total_bytes as f64 / rate + subtiles * self.subtile_overhead
    }

    /// Cost of the Transpose step over `total_bytes`.
    pub fn transpose(&self, total_bytes: u64, style: TransposeCost) -> f64 {
        let bw = match style {
            TransposeCost::Fast => self.transpose_bw_fast,
            TransposeCost::Generic => self.transpose_bw_generic,
            TransposeCost::Naive => self.transpose_bw_naive,
        };
        total_bytes as f64 / bw
    }
}

/// Which transpose implementation a variant uses (cost tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransposeCost {
    /// §3.5 `x-z-y` fast path (`Nx = Ny` only).
    Fast,
    /// Cache-blocked generic permutation.
    Generic,
    /// Unblocked triple loop (TH).
    Naive,
}

/// All-to-all communication cost model.
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Per-message latency α (seconds): injection + routing.
    pub alpha: f64,
    /// Per-rank link bandwidth β (bytes/s), full duplex.
    pub link_bw: f64,
    /// Contention scale: effective bandwidth divides by
    /// `1 + (p / p0)^gamma` as the all-to-all pattern saturates the fabric.
    pub contention_p0: f64,
    /// Contention exponent (torus ≈ higher than a fat Clos).
    pub contention_gamma: f64,
    /// Messages smaller than this use the log-round (Bruck) schedule.
    pub bruck_threshold_bytes: u64,
    /// Per-peer setup charged when an all-to-all is posted.
    pub post_overhead_per_peer: f64,
}

/// The round structure of one all-to-all operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct A2aShape {
    /// Number of point-to-point rounds the schedule executes.
    pub rounds: u32,
    /// Bytes this rank moves in one round.
    pub round_bytes: u64,
}

impl NetModel {
    /// Chooses the schedule for `p` ranks exchanging `bytes_per_peer` with
    /// each peer: pairwise exchange (p−1 rounds of one block) for large
    /// messages, Bruck (⌈log2 p⌉ rounds of p/2 blocks) for small ones —
    /// the same switch real MPI/libNBC implementations make.
    pub fn shape(&self, p: usize, bytes_per_peer: u64) -> A2aShape {
        if p <= 1 {
            return A2aShape {
                rounds: 0,
                round_bytes: 0,
            };
        }
        if bytes_per_peer < self.bruck_threshold_bytes {
            let rounds = (usize::BITS - (p - 1).leading_zeros()).max(1);
            A2aShape {
                rounds,
                round_bytes: bytes_per_peer * (p as u64) / 2,
            }
        } else {
            A2aShape {
                rounds: (p - 1) as u32,
                round_bytes: bytes_per_peer,
            }
        }
    }

    /// The link a rank of a `group`-rank all-to-all sees: the per-rank
    /// bandwidth divided by the contention term `1 + (group / p0)^γ`. The
    /// one place the contention power is taken; price a group's rounds from
    /// the value, not from the model.
    pub fn link(&self, group: usize) -> Link {
        let contention = 1.0 + (group as f64 / self.contention_p0).powf(self.contention_gamma);
        Link {
            alpha: self.alpha,
            bw: self.link_bw / contention,
        }
    }

    /// Duration of a fully progressed (blocking) all-to-all after all ranks
    /// have arrived.
    pub fn blocking_duration(&self, p: usize, bytes_per_peer: u64) -> SimTime {
        let shape = self.shape(p, bytes_per_peer);
        let link = self.link(p);
        SimTime::from_secs_f64(
            shape.rounds as f64 * (link.alpha + shape.round_bytes as f64 / link.effective_bw(1)),
        )
    }

    /// Post-time overhead of initiating an all-to-all among `p` ranks.
    pub fn post_overhead(&self, p: usize) -> SimTime {
        SimTime::from_secs_f64(self.post_overhead_per_peer * p as f64)
    }

    /// Total bytes one rank puts on the wire for the exchange — the
    /// schedule's rounds × per-round volume, which for Bruck *exceeds* the
    /// logical payload (each block transits ⌈log₂ p⌉ hops). This is the
    /// fluid volume a shared link drains, so it is also the unit the
    /// service's byte-conservation accounting uses.
    pub fn exchange_bytes(&self, p: usize, bytes_per_peer: u64) -> u64 {
        let shape = self.shape(p, bytes_per_peer);
        shape.rounds as u64 * shape.round_bytes
    }

    /// Fixed latency of the exchange: α per schedule round, independent of
    /// bandwidth sharing.
    pub fn exchange_latency(&self, p: usize, bytes_per_peer: u64) -> f64 {
        self.shape(p, bytes_per_peer).rounds as f64 * self.alpha
    }
}

/// One group size's view of the network: the round latency and the
/// contention-degraded bandwidth of [`NetModel::link`], priced once so a
/// round costs a division, not a power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Per-message latency α (seconds).
    pub alpha: f64,
    /// Per-rank bandwidth (bytes/s) after contention, before window sharing.
    pub bw: f64,
}

impl Link {
    /// Bandwidth with `active_windows` concurrent all-to-alls sharing the
    /// link. Sharing is fair — each window gets `1/n` of the contended
    /// bandwidth — so the aggregate across concurrent windows never exceeds
    /// the link.
    #[inline]
    pub fn effective_bw(&self, active_windows: u32) -> f64 {
        self.bw / active_windows.max(1) as f64
    }

    /// Duration of one schedule round of `shape` while `active_windows`
    /// all-to-alls share the link.
    #[inline]
    pub fn round_time(&self, shape: A2aShape, active_windows: u32) -> SimTime {
        SimTime::from_secs_f64(
            self.alpha + shape.round_bytes as f64 / self.effective_bw(active_windows),
        )
    }
}

/// A complete platform description.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Compute model.
    pub machine: MachineModel,
    /// Network model.
    pub net: NetModel,
    /// Execution-noise amplitude: each compute phase is scaled by a
    /// deterministic pseudo-random factor in `[1 − jitter, 1 + jitter]`
    /// (OS jitter, cache conflicts). Zero by default; the paper's
    /// best-of-25 methodology (§5.2.1) exists to cope with this term.
    pub jitter: f64,
    /// Faults to inject: straggler ranks scale their compute phases by the
    /// plan's per-rank factor, and degraded links scale every all-to-all
    /// round. The simulator interprets only the plan's cost-model terms —
    /// drops and blackholes are the real runtime's (mpisim's) department.
    pub faults: FaultPlan,
}

impl Platform {
    /// Returns the platform with execution noise enabled.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        self.jitter = jitter;
        self
    }

    /// Returns the platform with a full fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the platform with one straggler rank of the given
    /// dimensionless severity: its compute phases run `1 + severity` times
    /// slower, starving its peers' manual progression.
    pub fn with_straggler(mut self, rank: usize, severity: f64) -> Self {
        self.faults = self.faults.with_straggler(rank, severity);
        self
    }

    /// Returns the platform with every all-to-all round slowed by
    /// `factor ≥ 1` — a degraded interconnect preset.
    pub fn with_degraded_links(mut self, factor: f64) -> Self {
        self.faults = self.faults.with_degraded_links(factor);
        self
    }
}

/// "UMD-Cluster": 64-node Linux cluster, one Intel Xeon 2.66 GHz (SSE) core
/// per node, 512 KB L2, Myrinet 2000 interconnect (§5.1).
///
/// Myrinet 2000 sustains ≈ 230 MB/s per link with multi-microsecond
/// latency; a 2.66 GHz SSE Xeon sustains ≈ 1.3 Gflop/s on complex-double
/// FFT butterflies with early-2000s FFTW.
pub fn umd_cluster() -> Platform {
    Platform {
        name: "UMD-Cluster",
        machine: MachineModel {
            fft_flops: 0.96e9,
            fft_oo_cache_factor: 0.62,
            l2_bytes: 512 * 1024,
            subtile_cache_bytes: 256 * 1024,
            pack_bw: 0.70e9,
            pack_oo_cache_factor: 0.42,
            pack_short_stride_factor: 0.38,
            short_stride_bytes: 64,
            subtile_overhead: 0.35e-6,
            transpose_bw_generic: 0.43e9,
            transpose_bw_fast: 0.77e9,
            transpose_bw_naive: 0.19e9,
            t_test: 0.9e-6,
        },
        jitter: 0.0,
        faults: FaultPlan::none(),
        net: NetModel {
            alpha: 8.5e-6,
            link_bw: 156e6,
            contention_p0: 48.0,
            contention_gamma: 1.15,
            bruck_threshold_bytes: 4 * 1024,
            post_overhead_per_peer: 0.35e-6,
        },
    }
}

/// "Hopper": Cray XE6 at NERSC, two 12-core AMD Magny-Cours 2.1 GHz per
/// node (4 cores/processor used), 64 KB L1 + 512 KB L2 per core, Gemini
/// 3-D-torus interconnect (§5.1).
///
/// Gemini delivers multi-GB/s per-rank bandwidth at ≈ 1.5 µs latency, but
/// the 3-D torus congests faster with p than a Clos network — hence the
/// larger contention exponent.
pub fn hopper() -> Platform {
    Platform {
        name: "Hopper",
        machine: MachineModel {
            fft_flops: 2.24e9,
            fft_oo_cache_factor: 0.66,
            l2_bytes: 512 * 1024,
            subtile_cache_bytes: 256 * 1024,
            pack_bw: 1.93e9,
            pack_oo_cache_factor: 0.45,
            pack_short_stride_factor: 0.40,
            short_stride_bytes: 64,
            subtile_overhead: 0.25e-6,
            transpose_bw_generic: 1.2e9,
            transpose_bw_fast: 2.07e9,
            transpose_bw_naive: 0.54e9,
            t_test: 0.6e-6,
        },
        jitter: 0.0,
        faults: FaultPlan::none(),
        net: NetModel {
            alpha: 1.6e-6,
            link_bw: 1.63e9,
            contention_p0: 40.0,
            contention_gamma: 1.19,
            bruck_threshold_bytes: 4 * 1024,
            post_overhead_per_peer: 0.2e-6,
        },
    }
}

/// Looks a platform up by name (`"umd"` / `"hopper"`), for CLI harnesses.
pub fn by_name(name: &str) -> Option<Platform> {
    match name.to_ascii_lowercase().as_str() {
        "umd" | "umd-cluster" | "umd_cluster" => Some(umd_cluster()),
        "hopper" => Some(hopper()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exchange helpers must decompose `blocking_duration` exactly:
    /// wire bytes at uncontended bandwidth plus the fixed latency — the
    /// invariant that keeps the service's fluid-flow pricing and the
    /// simulator's blocking collectives agreeing on every geometry.
    #[test]
    fn exchange_helpers_decompose_blocking_duration() {
        let net = umd_cluster().net;
        for p in [2usize, 3, 8, 16, 64, 257] {
            for bpp in [64u64, 4096, 1 << 20] {
                let rebuilt = net.exchange_bytes(p, bpp) as f64 / net.link(p).effective_bw(1)
                    + net.exchange_latency(p, bpp);
                let blocking = net.blocking_duration(p, bpp).as_secs_f64();
                // `SimTime` quantizes to whole nanoseconds; allow that.
                assert!(
                    (rebuilt - blocking).abs() <= 1e-9 + 1e-9 * blocking,
                    "p={p} bpp={bpp}: {rebuilt} vs {blocking}"
                );
            }
        }
    }

    #[test]
    fn degenerate_exchange_is_free() {
        let net = umd_cluster().net;
        assert_eq!(net.exchange_bytes(1, 1 << 20), 0);
        assert_eq!(net.exchange_latency(0, 1 << 20), 0.0);
    }

    /// Fair sharing conserves link capacity: `n` concurrent windows each
    /// get `1/n` of the contended bandwidth, so draining two equal flows
    /// concurrently takes exactly as long as draining them back-to-back.
    #[test]
    fn concurrent_windows_share_without_creating_bandwidth() {
        let net = umd_cluster().net;
        for n in [1u32, 2, 3, 8] {
            let shared = net.link(16).effective_bw(n);
            let alone = net.link(16).effective_bw(1);
            assert!(
                (shared * n as f64 - alone).abs() <= 1e-9 * alone,
                "n={n}: aggregate {} vs link {alone}",
                shared * n as f64
            );
        }
    }

    #[test]
    fn fft_cost_grows_superlinearly() {
        let m = umd_cluster().machine;
        let c256 = m.fft_line(256);
        let c512 = m.fft_line(512);
        assert!(c512 > 2.0 * c256);
        assert_eq!(m.fft_line(1), 0.0);
    }

    #[test]
    fn out_of_cache_lines_cost_more_per_flop() {
        let m = umd_cluster().machine;
        // 64 Ki elements = 1 MiB > 512 KiB L2.
        let per_flop_small = m.fft_line(1024) / (5.0 * 1024.0 * 10.0);
        let n = 65536;
        let per_flop_big = m.fft_line(n) / (5.0 * n as f64 * (n as f64).log2());
        assert!(per_flop_big > per_flop_small * 1.3);
    }

    #[test]
    fn pack_prefers_cache_resident_subtiles() {
        let m = umd_cluster().machine;
        let total = 8 * 1024 * 1024;
        let good = m.pack(total, 128 * 1024, 4096);
        let too_big = m.pack(total, 4 * 1024 * 1024, 4096);
        let too_small = m.pack(total, 256, 4096);
        assert!(
            good < too_big,
            "cache-resident sub-tile must beat oversized"
        );
        assert!(good < too_small, "overhead must punish tiny sub-tiles");
    }

    #[test]
    fn pack_penalises_short_runs() {
        let m = umd_cluster().machine;
        let total = 1024 * 1024;
        let long_run = m.pack(total, 128 * 1024, 4096);
        let short_run = m.pack(total, 128 * 1024, 16);
        assert!(short_run > long_run * 1.3);
    }

    #[test]
    fn a2a_shape_switches_to_bruck_for_small_messages() {
        let n = umd_cluster().net;
        let small = n.shape(16, 512);
        assert_eq!(small.rounds, 4); // ⌈log2 16⌉
        let large = n.shape(16, 1 << 20);
        assert_eq!(large.rounds, 15);
        assert_eq!(large.round_bytes, 1 << 20);
        assert_eq!(n.shape(1, 1 << 20).rounds, 0);
    }

    #[test]
    fn contention_reduces_effective_bandwidth() {
        let n = hopper().net;
        assert!(n.link(256).bw < n.link(16).bw);
        assert!(n.link(16).effective_bw(4) < n.link(16).effective_bw(1));
    }

    #[test]
    fn blocking_duration_scales_with_message_size() {
        let n = umd_cluster().net;
        let a = n.blocking_duration(16, 64 * 1024);
        let b = n.blocking_duration(16, 128 * 1024);
        assert!(b > a);
        assert_eq!(n.blocking_duration(1, 1 << 20), SimTime::ZERO);
    }

    #[test]
    fn platform_lookup() {
        assert_eq!(by_name("umd").unwrap().name, "UMD-Cluster");
        assert_eq!(by_name("Hopper").unwrap().name, "Hopper");
        assert!(by_name("bluegene").is_none());
    }

    #[test]
    fn fault_builders_compose() {
        let p = umd_cluster()
            .with_straggler(3, 2.0)
            .with_degraded_links(1.5);
        assert!(p.faults.is_active());
        assert!((p.faults.compute_factor(3) - 3.0).abs() < 1e-12);
        assert_eq!(p.faults.compute_factor(0), 1.0);
        assert!((p.faults.link_factor() - 1.5).abs() < 1e-12);
        // Presets start fault-free.
        assert!(!umd_cluster().faults.is_active());
        assert!(!hopper().faults.is_active());
    }

    #[test]
    fn transpose_cost_tiers_are_ordered() {
        let m = hopper().machine;
        let fast = m.transpose(1 << 24, TransposeCost::Fast);
        let generic = m.transpose(1 << 24, TransposeCost::Generic);
        let naive = m.transpose(1 << 24, TransposeCost::Naive);
        assert!(fast < generic);
        assert!(generic < naive);
    }
}
