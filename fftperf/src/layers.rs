//! Layer replays: each layer called alone, from outside, on the shapes the
//! workloads give it, so that a layer's number can be set against its share
//! of an end-to-end number. Every measured call is a span; a metric is the
//! median over `sizes.reps` such calls unless it says otherwise.

use crate::inputs::{seeded_field, service_trace, Sizes, REAL_RANKS};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{judge_replay, replay_exact, run_cell, service, Scope};
use cfft::batch::{execute_batch, BatchLayout, BatchScratch};
use cfft::transpose::{permute3, xzy_fast, Dims3, XYZ_TO_ZXY};
use cfft::{Complex64, Direction, PlanCache, Rigor};
use fft3d::{
    auto_select, fft3_simulated, pencil_overlap_simulated_params, pencil_seed, th_simulated,
    JobSpec, PencilGrid, ProblemSpec, ThParams, TuningParams, Variant,
};
use simnet::model::{hopper, umd_cluster};
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64)>;

/// How many more times than a millisecond-scale call a microsecond-scale
/// one is repeated: it costs nothing and its median needs the samples.
const QUICK: usize = 20;

/// Median duration of `reps` runs of `measure`, in nanoseconds.
fn median_ns(reps: usize, mut measure: impl FnMut() -> Duration) -> f64 {
    let runs: Vec<f64> = (0..reps.max(1))
        .map(|_| measure().as_nanos() as f64)
        .collect();
    median(&runs)
}

/// Median duration of `reps` calls of `call`, each recorded as a span.
fn median_call_ns(
    spans: &mut Spans,
    reps: usize,
    layer: &'static str,
    name: &'static str,
    mut call: impl FnMut(),
) -> f64 {
    median_ns(reps, || spans.time(0, 0, layer, name, &mut call).1)
}

/// cfft on rank 0's slab of `slab128_steady` (`N/2 × N × N`, 16 MiB at
/// N = 128). The slab is far below four times the 260 MiB last-level cache,
/// so the two GB/s figures are cache-assisted copy rates computed from array
/// sizes (read plus write), not memory bandwidth.
pub fn replay_cfft(seed: u64, sizes: &Sizes, spans: &mut Spans, out: &mut Metrics) {
    let n = sizes.slab_n;
    let dims = Dims3::new(n / REAL_RANKS, n, n);
    let source = seeded_field(seed, dims.len());
    let mut data = source.clone();
    let cache = PlanCache::new();
    let reps = sizes.reps;

    // FFTz's line set: every contiguous line of the slab, at the workloads'
    // three lengths (the slab is cut into lines of each length in turn).
    let small = sizes.tiles_n;
    let mixed = sizes.pencil_n;
    for (name, len) in [
        ("cfft.fft_ns_per_point.n64", small),
        ("cfft.fft_ns_per_point.n96", mixed),
        ("cfft.fft_ns_per_point.n128", n),
    ] {
        let plan = cache.plan(len, Direction::Forward, Rigor::Estimate);
        let mut scratch = BatchScratch::for_plan(&plan);
        let lines = data.len() / len;
        let layout = BatchLayout::contiguous(len, lines);
        let ns = median_ns(reps, || {
            data.copy_from_slice(&source);
            let used = &mut data[..lines * len];
            spans
                .time(0, 0, "cfft", "execute_batch", || {
                    execute_batch(&plan, used, layout, &mut scratch)
                })
                .1
        });
        out.push((name, ns / (lines * len) as f64));
    }

    // FFTy's line set before any transpose: y lines of each x plane, one
    // element every N.
    let plan = cache.plan(n, Direction::Forward, Rigor::Estimate);
    let mut scratch = BatchScratch::for_plan(&plan);
    let strided = BatchLayout {
        howmany: n,
        stride: n,
        dist: 1,
    };
    let ns = median_ns(reps, || {
        data.copy_from_slice(&source);
        spans
            .time(0, 0, "cfft", "execute_batch.strided", || {
                for plane in data.chunks_exact_mut(n * n) {
                    execute_batch(&plan, plane, strided, &mut scratch);
                }
            })
            .1
    });
    out.push(("cfft.fft_strided_ns_per_point.n128", ns / dims.len() as f64));

    let moved = (2 * dims.len() * std::mem::size_of::<Complex64>()) as f64;
    let ns = median_call_ns(spans, reps, "cfft", "permute3", || {
        permute3(&source, &mut data, dims, XYZ_TO_ZXY)
    });
    out.push(("cfft.permute3_gbps", moved / ns));
    let ns = median_call_ns(spans, reps, "cfft", "xzy_fast", || {
        xzy_fast(&source, &mut data, dims)
    });
    out.push(("cfft.xzy_fast_gbps", moved / ns));

    // A hit takes tens of nanoseconds, below what one clock reading
    // resolves, so hits are timed a thousand at a time.
    const HITS: u32 = 1000;
    let ns = median_call_ns(spans, reps * QUICK, "cfft", "plan_timed.hit", || {
        for _ in 0..HITS {
            std::hint::black_box(cache.plan_timed(n, Direction::Forward, Rigor::Estimate));
        }
    });
    out.push(("cfft.plan_hit_ns", ns / f64::from(HITS)));
    let ns = median_ns(reps * QUICK, || {
        let fresh = PlanCache::new();
        spans
            .time(0, 0, "cfft", "plan_timed.miss", || {
                std::hint::black_box(fresh.plan_timed(n, Direction::Forward, Rigor::Estimate));
            })
            .1
    });
    out.push(("cfft.plan_miss_us", ns / 1e3));
}

/// mpisim on two ranks, at the message sizes of one `slab128_steady` tile
/// (1 MiB a rank) and one `slab64_tiles` tile (32 KiB a rank). GB/s count
/// the bytes one rank sends, computed from the buffer size.
pub fn replay_mpisim(sizes: &Sizes, spans: &mut Spans, out: &mut Metrics) {
    let reps = sizes.reps;
    let ns = median_call_ns(spans, reps * QUICK, "mpisim", "run.spawn", || {
        mpisim::run(REAL_RANKS, |_| ());
    });
    out.push(("mpisim.world_spawn_us", ns / 1e3));

    // A tile of the steady workload is nxl·ny·T elements, one of the
    // tile-per-plane workload nxl·ny·1.
    let (n, m) = (sizes.slab_n, sizes.tiles_n);
    let large = n / REAL_RANKS * n * (n / 16).max(1);
    let small = m / REAL_RANKS * m;
    let per_rank = mpisim::run(REAL_RANKS, |comm| {
        let mut mine = Spans::new(comm.rank() == 0);
        let mut got = Metrics::new();
        let p = comm.size();
        let buffer = |len: usize| vec![Complex64::new(comm.rank() as f64, 1.0); len];
        let bytes = |len: usize| (len * std::mem::size_of::<Complex64>()) as f64;
        // Both ranks enter every measurement together, so a time is that of
        // the exchange and not of one rank waiting for the other to arrive.
        let timed = |mine: &mut Spans, reps, name, f: &mut dyn FnMut()| {
            median_ns(reps, || {
                comm.barrier();
                mine.time(0, 0, "mpisim", name, &mut *f).1
            })
        };

        let counts = vec![large / p; p];
        let send = buffer(large);
        let mut recv = buffer(large);
        let ns = timed(&mut mine, reps, "alltoallv", &mut || {
            comm.alltoallv(&send, &counts, &counts, &mut recv)
        });
        got.push(("mpisim.alltoallv_gbps.1m", bytes(large) / ns));
        let mut staging = Some(recv);
        let ns = timed(&mut mine, reps, "ialltoallv.test", &mut || {
            let mut req =
                comm.ialltoallv(&send, &counts, &counts, staging.take().expect("staging"));
            while !req.test(&comm) {}
            staging = Some(req.take_recv());
        });
        got.push(("mpisim.ialltoallv_gbps.1m", bytes(large) / ns));

        let counts = vec![small / p; p];
        let send = buffer(small);
        let mut staging = Some(buffer(small));
        let ns = timed(&mut mine, reps * QUICK, "ialltoallv.test", &mut || {
            let mut req =
                comm.ialltoallv(&send, &counts, &counts, staging.take().expect("staging"));
            while !req.test(&comm) {}
            staging = Some(req.take_recv());
        });
        got.push(("mpisim.exchange_us.32k", ns / 1e3));

        // The post alone; the wait that must follow is outside the span.
        let ns = median_ns(reps * QUICK, || {
            comm.barrier();
            let recv = staging.take().expect("staging");
            let (req, took) = mine.time(0, 0, "mpisim", "ialltoallv.post", || {
                comm.ialltoallv(&send, &counts, &counts, recv)
            });
            staging = Some(req.wait(&comm));
            took
        });
        got.push(("mpisim.post_us.32k", ns / 1e3));

        let mut plan = comm.alltoallv_init(&counts, &counts, staging.take().expect("staging"));
        let ns = median_ns(reps * QUICK, || {
            comm.barrier();
            let (_, took) = mine.time(0, 0, "mpisim", "persistent.start", || {
                plan.start(&comm, &send)
            });
            plan.wait(&comm);
            took
        });
        got.push(("mpisim.persistent_start_us.32k", ns / 1e3));
        plan.free(&comm);

        // One poll of a request that cannot complete: rank 1 holds its post
        // back until rank 0 has finished polling.
        const POLLS: u32 = 1000;
        let ns = median_ns(reps, || {
            comm.barrier();
            let recv = buffer(small);
            if comm.rank() == 0 {
                let mut req = comm.ialltoallv(&send, &counts, &counts, recv);
                let (_, took) = mine.time(0, 0, "mpisim", "test.inflight", || {
                    for _ in 0..POLLS {
                        std::hint::black_box(req.test(&comm));
                    }
                });
                comm.send(&[1u8], 1, 7);
                req.wait(&comm);
                took
            } else {
                let mut go = [0u8];
                comm.recv(&mut go, 0, 7);
                comm.ialltoallv(&send, &counts, &counts, recv).wait(&comm);
                Duration::ZERO
            }
        });
        got.push(("mpisim.test_ns", ns / f64::from(POLLS)));

        const BARRIERS: u32 = 100;
        let ns = timed(&mut mine, reps, "barrier", &mut || {
            for _ in 0..BARRIERS {
                comm.barrier();
            }
        });
        got.push(("mpisim.barrier_us", ns / f64::from(BARRIERS) / 1e3));
        (got, mine)
    });
    let (got, mine) = per_rank.into_iter().next().expect("rank 0 reports");
    out.extend(got);
    spans.absorb(mine);
}

/// Host milliseconds of the large simulation (`big_cell` on `hopper`), and
/// the polls it simulated per host second. Run pinned and, in a second
/// process, unpinned; the ratio is `simnet.unpinned_slowdown`.
pub fn big_simulation(sizes: &Sizes, spans: &mut Spans) -> (f64, f64) {
    let (n, p) = sizes.big_cell;
    let spec = ProblemSpec::cube(n, p);
    let params = TuningParams::seed(&spec);
    let mut polls = 0;
    let ns = median_ns(sizes.reps.min(3), || {
        let (report, took) = spans.time(0, 0, "simnet", "fft3_simulated.big", || {
            fft3_simulated(hopper(), spec, Variant::New, params, false)
        });
        polls = report.per_rank.iter().map(|r| r.tests).sum();
        took
    });
    (ns / 1e6, polls as f64 / (ns / 1e9))
}

/// simnet, fft3d's simulated pipelines, the tuner and the service, on the
/// inputs of `sim_tune` and `service_replay`. Returns what is wrong with the
/// replayed trace, if anything.
pub fn replay_simulators(
    seed: u64,
    sizes: &Sizes,
    spans: &mut Spans,
    out: &mut Metrics,
) -> Option<String> {
    let reps = sizes.reps;
    let (n, p) = sizes.cell;
    let spec = ProblemSpec::cube(n, p);
    let at_seed = TuningParams::seed(&spec);

    // Simulated seconds at the seed parameters: pure functions of the model,
    // so they repeat to the bit; the host time of the NEW one is the unit of
    // cost of everything the tuner and the service do.
    let mut new_s = 0.0;
    let ns = median_ns(reps, || {
        let (report, took) = spans.time(0, 0, "simnet", "fft3_simulated", || {
            fft3_simulated(umd_cluster(), spec, Variant::New, at_seed, false)
        });
        new_s = report.time;
        took
    });
    out.push(("simnet.sim_ms.p16", ns / 1e6));
    out.push(("fft3d.sim_time_s.new", new_s));
    let fftw = fft3_simulated(umd_cluster(), spec, Variant::Fftw, at_seed, false);
    out.push(("fft3d.sim_time_s.fftw", fftw.time));
    let th = th_simulated(umd_cluster(), spec, ThParams::seed(&spec), false);
    out.push(("fft3d.sim_time_s.th", th.time));

    let grid = PencilGrid::near_square(p);
    let pencil = pencil_seed(&spec, grid);
    let name = "pencil_overlap_simulated_params";
    let ns = median_call_ns(spans, reps, "fft3d", name, || {
        std::hint::black_box(pencil_overlap_simulated_params(
            umd_cluster(),
            spec,
            grid,
            &pencil,
        ));
    });
    out.push(("fft3d.pencil_sim_ms.p16", ns / 1e6));

    let (ms, polls_per_s) = big_simulation(sizes, spans);
    out.push(("simnet.sim_ms.p256", ms));
    out.push(("simnet.polls_per_s.p256", polls_per_s));

    // One tuning run of the `sim_tune` cell. The tuner's own time is the
    // self time of its span: the run minus the simulations it asked for.
    let open = spans.begin(0, 0, "harness", "replay.cell");
    let started = Instant::now();
    let cell = run_cell(
        &umd_cluster(),
        spec,
        sizes.tune_evals,
        Scope {
            spans,
            parent: open.id,
            op: 0,
        },
    );
    let cell_s = started.elapsed().as_secs_f64();
    spans.end(open);
    out.push(("tuner.self_ms", spans.self_ns(cell.new_span) as f64 / 1e6));
    out.push(("tuner.evals_per_s", cell.simulations as f64 / cell_s));
    out.push(("tuner.executed", cell.new.executed as f64));
    out.push(("tuner.cache_hits", cell.new.cache_hits as f64));
    out.push(("tuner.infeasible", cell.new.infeasible as f64));
    out.push(("tuner.best_objective_s", cell.new.best_value));

    // The service: its two per-job costs on the largest geometry, then one
    // replay of the seeded trace.
    let service = service(sizes);
    let (nx, ny, nz) = sizes.geometries[1];
    let geometry = ProblemSpec { nx, ny, nz, p: 1 };
    let ranks = sizes.service_ranks;
    let ns = median_call_ns(spans, reps, "fft3d", "auto_select", || {
        let _ = std::hint::black_box(auto_select(umd_cluster(), &geometry, ranks));
    });
    out.push(("service.auto_select_ms", ns / 1e6));
    let job = JobSpec::new(0, geometry, Direction::Forward);
    let ns = median_call_ns(spans, reps, "service", "isolated_run", || {
        let _ = std::hint::black_box(service.isolated_run(&job));
    });
    out.push(("service.isolated_run_ms", ns / 1e6));
    let jobs = service_trace(seed, sizes, &service);
    let (report, took) = spans.time(0, 0, "service", "Service::run", || service.run(&jobs));
    out.push(("service.jobs_per_s", jobs.len() as f64 / took.as_secs_f64()));
    out.extend(
        replay_exact(&report)
            .into_iter()
            .filter(|(name, _)| crate::manifest::PER_LAYER.iter().any(|m| m.name == *name)),
    );
    judge_replay(&report, jobs.len())
        .err()
        .map(|why| format!("replayed trace: {why}"))
}
