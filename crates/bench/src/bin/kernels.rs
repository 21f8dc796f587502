//! Intra-rank kernel microbenchmarks: plan-cache hit vs replan, block vs
//! per-line 1-D FFT, serial vs parallel batched FFT, blocked transpose, and
//! Pack-style gather at the paper's 512³-class per-rank tile geometry. Emits
//! one JSON object so CI and the tuning notes can consume the numbers
//! directly.
//!
//! Usage: `cargo run -p fft-bench --release --bin kernels -- [--smoke] [--threads N]`
//!
//! `--smoke` shrinks the geometry and runs one repetition — a seconds-long
//! CI liveness check, not a measurement. `--threads N` pins the parallel
//! variants' worker count (default: available parallelism, capped at 8).

use cfft::batch::{execute_batch, execute_batch_threaded, BatchLayout, BatchScratch};
use cfft::planner::Rigor;
use cfft::transpose::{permute3, permute3_threaded, Dims3, XYZ_TO_ZXY};
use cfft::{batch::for_each_part_threaded, Complex64, Direction, PlanCache};
use std::fmt::Write as _;
use std::time::Instant;

struct Config {
    /// Repetitions per measurement; the minimum is reported.
    reps: usize,
    /// Worker count for the parallel variants.
    threads: usize,
    /// 1-D transform size (the paper's N).
    n: usize,
    /// This rank's x extent (N / p at p = 64).
    nxl: usize,
}

fn parse_args() -> Config {
    let mut smoke = false;
    let mut threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(8);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                let v = args.next().expect("--threads needs a value");
                threads = v.parse().expect("--threads needs an integer");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    if smoke {
        Config {
            reps: 1,
            threads: threads.min(2),
            n: 64,
            nxl: 4,
        }
    } else {
        Config {
            reps: 5,
            threads,
            n: 512,
            nxl: 8,
        }
    }
}

/// Minimum wall time of `reps` runs of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

/// Deterministic non-trivial test signal.
fn signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|i| {
            let x = i as f64;
            Complex64::new((x * 0.7).sin() + 0.1, (x * 0.3).cos() - 0.2)
        })
        .collect()
}

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

fn json_group(out: &mut String, name: &str, serial_ns: u128, parallel_ns: u128, identical: bool) {
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    writeln!(
        out,
        "  \"{name}\": {{ \"serial_ns\": {serial_ns}, \"parallel_ns\": {parallel_ns}, \
         \"speedup\": {speedup:.3}, \"bit_identical\": {identical} }},"
    )
    .expect("write to String cannot fail");
}

fn main() {
    let cfg = parse_args();
    let n = cfg.n;
    let dir = Direction::Forward;
    let mut out = String::from("{\n");
    writeln!(
        out,
        "  \"config\": {{ \"n\": {}, \"nxl\": {}, \"threads\": {}, \"reps\": {} }},",
        n, cfg.nxl, cfg.threads, cfg.reps
    )
    .expect("write to String cannot fail");

    // --- Plan cache: replan-every-call (the old bug) vs cached hit. Each
    // miss rep uses a fresh local cache so it pays full Measure planning;
    // the hit reps share one warm cache.
    let miss_ns = time_ns(cfg.reps, || {
        let cache = PlanCache::new();
        let (_plan, spent) = cache.plan_timed(n, dir, Rigor::Measure);
        assert!(spent > std::time::Duration::ZERO, "fresh cache must plan");
    });
    let warm = PlanCache::new();
    warm.plan(n, dir, Rigor::Measure);
    let hit_ns = time_ns(cfg.reps.max(3), || {
        let (_plan, spent) = warm.plan_timed(n, dir, Rigor::Measure);
        assert_eq!(spent, std::time::Duration::ZERO, "warm cache must hit");
    });
    writeln!(
        out,
        "  \"plan_cache\": {{ \"miss_ns\": {miss_ns}, \"hit_ns\": {hit_ns}, \
         \"speedup\": {:.1} }},",
        miss_ns as f64 / hit_ns.max(1) as f64
    )
    .expect("write to String cannot fail");

    // --- Batched FFT over one rank's z lines: nxl·ny contiguous lines of
    // length n (the FFTz step's exact shape at N = 512, p = 64).
    let howmany = cfg.nxl * n;
    let layout = BatchLayout::contiguous(n, howmany);
    let src = signal(n * howmany);
    let plan = warm.plan(n, dir, Rigor::Estimate);
    let mut serial_data = src.clone();
    let serial_ns = time_ns(cfg.reps, || {
        serial_data.copy_from_slice(&src);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(&plan, &mut serial_data, layout, &mut scratch);
    });
    let mut parallel_data = src.clone();
    let parallel_ns = time_ns(cfg.reps, || {
        parallel_data.copy_from_slice(&src);
        execute_batch_threaded(&plan, &mut parallel_data, layout, cfg.threads);
    });
    json_group(
        &mut out,
        "batch_fft",
        serial_ns,
        parallel_ns,
        bits(&serial_data) == bits(&parallel_data),
    );

    // --- Block vs per-line: the same lines through `execute_batch` (a block
    // of interleaved lines per Stockham pass — contiguous lines, and the
    // same count as the columns of a matrix) and one `Plan1d::execute` at a
    // time. The three must agree bit for bit; the timings are informational.
    for len in [64usize, 96, 128] {
        let lines = if cfg.reps == 1 { 256 } else { 8192 };
        let plan = warm.plan(len, dir, Rigor::Estimate);
        let src = signal(len * lines);
        let points = (len * lines) as f64;
        let mut scratch = BatchScratch::for_plan(&plan);

        let mut per_line = src.clone();
        let mut line_scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let line_ns = time_ns(cfg.reps, || {
            per_line.copy_from_slice(&src);
            for line in per_line.chunks_exact_mut(len) {
                plan.execute(line, &mut line_scratch);
            }
        });
        let mut block = src.clone();
        let block_ns = time_ns(cfg.reps, || {
            block.copy_from_slice(&src);
            let layout = BatchLayout::contiguous(len, lines);
            execute_batch(&plan, &mut block, layout, &mut scratch);
        });
        // Line l of `src`, stored as column l of a len × lines matrix.
        let columns_src: Vec<Complex64> = (0..len * lines)
            .map(|i| src[(i % lines) * len + i / lines])
            .collect();
        let mut columns = columns_src.clone();
        let strided_ns = time_ns(cfg.reps, || {
            columns.copy_from_slice(&columns_src);
            let layout = BatchLayout {
                howmany: lines,
                stride: lines,
                dist: 1,
            };
            execute_batch(&plan, &mut columns, layout, &mut scratch);
        });
        let identical = bits(&block) == bits(&per_line)
            && (0..len * lines).all(|i| {
                let (got, want) = (columns[i], per_line[(i % lines) * len + i / lines]);
                (got.re.to_bits(), got.im.to_bits()) == (want.re.to_bits(), want.im.to_bits())
            });
        assert!(
            identical,
            "block execution diverged from per-line at n = {len}"
        );
        writeln!(
            out,
            "  \"block_vs_line.n{len}\": {{ \"per_line_ns_per_point\": {:.2}, \
             \"block_ns_per_point\": {:.2}, \"block_strided_ns_per_point\": {:.2}, \
             \"bit_identical\": {identical} }},",
            line_ns as f64 / points,
            block_ns as f64 / points,
            strided_ns as f64 / points,
        )
        .expect("write to String cannot fail");
    }

    // --- Blocked transpose of the whole slab, x-y-z → z-x-y (the step
    // between FFTz and FFTy).
    let dims = Dims3::new(cfg.nxl, n, n);
    let tsrc = signal(cfg.nxl * n * n);
    let mut tdst_s = vec![Complex64::ZERO; tsrc.len()];
    let transpose_serial_ns = time_ns(cfg.reps, || {
        permute3(&tsrc, &mut tdst_s, dims, XYZ_TO_ZXY);
    });
    let mut tdst_p = vec![Complex64::ZERO; tsrc.len()];
    let transpose_parallel_ns = time_ns(cfg.reps, || {
        permute3_threaded(&tsrc, &mut tdst_p, dims, XYZ_TO_ZXY, cfg.threads);
    });
    json_group(
        &mut out,
        "transpose",
        transpose_serial_ns,
        transpose_parallel_ns,
        bits(&tdst_s) == bits(&tdst_p),
    );

    // --- Pack-style gather: split each z-x row of ny elements into p
    // destination sub-rows of nyl (the Pack step's memory access pattern,
    // p = 64 ranks).
    let p = 64.min(n);
    let nyl = n / p;
    let rows = n * cfg.nxl; // (z, xl) pairs over the whole slab
    let psrc = signal(rows * n);
    let bounds: Vec<usize> = (0..=p).map(|s| s * rows * nyl).collect();
    let total = rows * nyl * p;
    let mut pack_s = vec![Complex64::ZERO; total];
    let pack_serial_ns = time_ns(cfg.reps, || {
        for s in 0..p {
            let part = &mut pack_s[bounds[s]..bounds[s + 1]];
            for r in 0..rows {
                part[r * nyl..][..nyl].copy_from_slice(&psrc[r * n + s * nyl..][..nyl]);
            }
        }
    });
    let mut pack_p = vec![Complex64::ZERO; total];
    let pack_parallel_ns = time_ns(cfg.reps, || {
        for_each_part_threaded(&mut pack_p, &bounds, cfg.threads, |s, part| {
            for r in 0..rows {
                part[r * nyl..][..nyl].copy_from_slice(&psrc[r * n + s * nyl..][..nyl]);
            }
        });
    });
    json_group(
        &mut out,
        "pack",
        pack_serial_ns,
        pack_parallel_ns,
        bits(&pack_s) == bits(&pack_p),
    );

    // --- Persistent all-to-all session, real backend: first execution
    // (lazy per-tile plan init) vs steady state (start/wait on registered
    // schedules, zero setups). Reported per world: the slowest rank's first
    // execution against the slowest rank's best steady-state execution.
    {
        use fft3d::real_env::local_test_slab;
        use fft3d::{FftSession, ProblemSpec, TuningParams, Variant};

        let spec = ProblemSpec::cube(4 * cfg.nxl, 4);
        let params = TuningParams::seed(&spec);
        let steady_reps = cfg.reps.max(3);
        let per_rank = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session =
                FftSession::new(&comm, spec, Variant::New, params, dir, Rigor::Estimate);
            let mut times = Vec::new();
            let mut setups = Vec::new();
            for _ in 0..=steady_reps {
                let t0 = Instant::now();
                let run = session.execute(&input).expect("clean bench run");
                times.push(t0.elapsed().as_nanos());
                setups.push(run.exchange_setups);
            }
            session.free();
            (times, setups)
        });
        let first_ns = per_rank.iter().map(|(t, _)| t[0]).max().unwrap_or(0);
        let steady_ns = per_rank
            .iter()
            .map(|(t, _)| t[1..].iter().copied().min().unwrap_or(u128::MAX))
            .max()
            .unwrap_or(0);
        let first_setups: u64 = per_rank.iter().map(|(_, s)| s[0]).sum();
        let steady_setups: u64 = per_rank.iter().flat_map(|(_, s)| &s[1..]).sum();
        writeln!(
            out,
            "  \"persistent_session\": {{ \"grid\": {}, \"ranks\": {}, \
             \"first_ns\": {first_ns}, \"steady_ns\": {steady_ns}, \
             \"speedup\": {:.3}, \"first_setups\": {first_setups}, \
             \"steady_setups\": {steady_setups} }},",
            spec.nx,
            spec.p,
            first_ns as f64 / steady_ns.max(1) as f64
        )
        .expect("write to String cannot fail");
        assert_eq!(steady_setups, 0, "steady state must do zero setups");
    }

    // --- Persistent session, simulated backend: the same setup-once story
    // in deterministic modeled time on the calibrated UMD-Cluster network.
    {
        use fft3d::{fft3_simulated_repeated, ProblemSpec, TuningParams, Variant};
        use simnet::model::umd_cluster;

        let spec = ProblemSpec::cube(if cfg.n <= 64 { 64 } else { 256 }, 16);
        let params = TuningParams::seed(&spec);
        let reps = fft3_simulated_repeated(umd_cluster(), spec, Variant::New, params, false, 4);
        let first = &reps[0];
        let steady = reps[1..]
            .iter()
            .min_by(|a, b| a.time.total_cmp(&b.time))
            .expect("4 repetitions give a steady state");
        writeln!(
            out,
            "  \"persistent_sim\": {{ \"grid\": {}, \"ranks\": {}, \
             \"first_time_s\": {:.6}, \"steady_time_s\": {:.6}, \
             \"first_setup_charges\": {}, \"steady_setup_charges\": {} }},",
            spec.nx, spec.p, first.time, steady.time, first.setup_charges, steady.setup_charges
        )
        .expect("write to String cannot fail");
        assert_eq!(
            steady.setup_charges, 0,
            "simulated steady state is free of setup"
        );
    }

    let stats = warm.stats();
    writeln!(
        out,
        "  \"cache_stats\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"entries\": {} }}\n}}",
        stats.hits, stats.misses, stats.evictions, stats.entries
    )
    .expect("write to String cannot fail");
    print!("{out}");
}
