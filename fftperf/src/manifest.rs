//! The benchmark's contract: which workloads it runs and which metrics it
//! prints. `BENCHMARK.json` at the root of the repository is
//! [`benchmark_json`] written to a file, and a test keeps the two equal.

use std::fmt::Write as _;

/// How long one run measures, in seconds (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Confined to one CPU, and timed at the reference clock (`clock.rs`).
    /// The simulators hand control between their rank threads, and across
    /// two cores the same call varies threefold; the serial transform has
    /// one thread anyway.
    pub one_cpu: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serial128",
        why:
            "single-thread 128^3 fft3_serial: cfft does all the work and mpisim none, so a kernel \
              or transpose change shows here; the baseline of scaling efficiency",
        one_cpu: true,
    },
    Workload {
        name: "slab128_steady",
        why:
            "FftSession::execute at 128^3 on 2 ranks after warm-up: the per-timestep steady state \
              with persistent plans; shows staging, allocation and bandwidth work",
        one_cpu: false,
    },
    Workload {
        name: "slab64_tiles",
        why: "one-shot try_fft3_dist at 64^3, T=1 W=4: 64 fresh 32 KiB posts and many polls per \
              op, the latency-bound use of mpisim; kernel changes should barely move it",
        one_cpu: false,
    },
    Workload {
        name: "pencil96_steady",
        why: "two PencilSessions (2x1 and 1x2 grids) at 96^3, mixed radix: the second \
              decomposition through the same layers, so a slab-only gain that slows pencil shows",
        one_cpu: false,
    },
    Workload {
        name: "sim_tune",
        why: "one Table-2 cell (256^3, p=16, umd_cluster): FFTW at seed, tune_new, tune_th, then \
              NEW and TH at the tuned points; simnet and sim_env do the work",
        one_cpu: true,
    },
    Workload {
        name: "service_replay",
        why: "Service::run over a seeded 60-job, 4-tenant trace at 2x the service rate on 16 \
              ranks: admission, the fluid-flow engine and decomp::auto_select per job",
        one_cpu: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gate(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower: true,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower: false,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off: the median
/// time of one op and the time of a cold start through its first op, both at
/// the reference clock (see `clock.rs`), and the peak resident set of that
/// cold start. Failed ops are not listed: they are the `failed` of every
/// result line, and any at all fail the run.
///
/// Each bound is at least three times the widest spread ten runs of any
/// workload showed on the two-core sandbox (7 % for the 128³ ops, whose 64
/// to 200 MiB compete with the neighbours for cache and memory; 5 % for
/// set-up; 3 % for the 4 MiB resident set of the simulators), so that a
/// regression is told from the machine's own noise.
pub const END_TO_END: [Metric; 3] = [
    gate("op_ms_p50", "ms", 0.25),
    gate("setup_s", "s", 0.25),
    gate("peak_rss_mb", "MiB", 0.15),
];

/// What single layers did, from the traced pass and the layer replays.
pub const PER_LAYER: [Metric; 63] = [
    // cfft, replayed on rank 0's slab of the steady slab workload.
    lower("cfft.fft_ns_per_point.n64", "ns"),
    lower("cfft.fft_ns_per_point.n96", "ns"),
    lower("cfft.fft_ns_per_point.n128", "ns"),
    lower("cfft.fft_strided_ns_per_point.n128", "ns"),
    higher("cfft.permute3_gbps", "GB/s"),
    higher("cfft.xzy_fast_gbps", "GB/s"),
    lower("cfft.plan_hit_ns", "ns"),
    lower("cfft.plan_miss_us", "us"),
    // mpisim, replayed on two ranks at the two workloads' tile sizes.
    higher("mpisim.alltoallv_gbps.1m", "GB/s"),
    higher("mpisim.ialltoallv_gbps.1m", "GB/s"),
    lower("mpisim.exchange_us.32k", "us"),
    lower("mpisim.post_us.32k", "us"),
    lower("mpisim.persistent_start_us.32k", "us"),
    lower("mpisim.test_ns", "ns"),
    lower("mpisim.barrier_us", "us"),
    lower("mpisim.world_spawn_us", "us"),
    // fft3d's real pipeline, from the traced ops of the workload itself
    // (all zero for a workload that runs no real transform).
    lower("fft3d.step_ms.fftz", "ms"),
    lower("fft3d.step_ms.transpose", "ms"),
    lower("fft3d.step_ms.ffty", "ms"),
    lower("fft3d.step_ms.pack", "ms"),
    lower("fft3d.step_ms.unpack", "ms"),
    lower("fft3d.step_ms.fftx", "ms"),
    lower("fft3d.step_ms.ialltoall", "ms"),
    lower("fft3d.step_ms.wait", "ms"),
    lower("fft3d.step_ms.test", "ms"),
    lower("fft3d.unattributed_ms", "ms"),
    lower("fft3d.tests_per_op", "count"),
    lower("fft3d.exchange_setups_per_op", "count"),
    lower("fft3d.bytes_exchanged_per_op", "bytes"),
    higher("fft3d.overlap_coverage", "ratio"),
    lower("fft3d.wait_stall_ms", "ms"),
    lower("fft3d.trace_overhead_pct", "%"),
    // simnet and fft3d's simulated pipeline.
    lower("simnet.sim_ms.p16", "ms"),
    lower("simnet.sim_ms.p256", "ms"),
    higher("simnet.polls_per_s.p256", "1/s"),
    lower("simnet.unpinned_slowdown", "ratio"),
    lower("fft3d.pencil_sim_ms.p16", "ms"),
    lower("fft3d.sim_time_s.new", "s"),
    lower("fft3d.sim_time_s.fftw", "s"),
    lower("fft3d.sim_time_s.th", "s"),
    // tuner.
    higher("tuner.evals_per_s", "1/s"),
    lower("tuner.self_ms", "ms"),
    lower("tuner.executed", "count"),
    higher("tuner.cache_hits", "count"),
    lower("tuner.infeasible", "count"),
    lower("tuner.best_objective_s", "s"),
    // service.
    higher("service.jobs_per_s", "1/s"),
    lower("service.auto_select_ms", "ms"),
    lower("service.isolated_run_ms", "ms"),
    higher("service.completed", "count"),
    lower("service.rejected", "count"),
    lower("service.cancelled", "count"),
    lower("service.slowdown_p99", "ratio"),
    higher("service.jain", "ratio"),
    // The harness's own view of the workload's untraced samples.
    higher("harness.samples", "count"),
    lower("harness.op_ms_tail", "ms"),
    higher("harness.tail_percentile", "%"),
    lower("harness.op_ms_iqr", "ms"),
    higher("harness.mpoints_per_s", "1/s"),
    lower("harness.verify_ms", "ms"),
    // Wall-clock median and the clock factor that separates it from the
    // end-to-end one; peak resident set after the whole traced run.
    lower("harness.op_ms_raw_p50", "ms"),
    lower("harness.clock_factor", "ratio"),
    lower("harness.steady_rss_mb", "MiB"),
];

/// Per-layer metrics that are counts or simulated statistics: they repeat to
/// the bit in every pass of one seed, and `--repeat-check` fails if not.
pub const EXACT_PER_LAYER: [&str; 14] = [
    "fft3d.exchange_setups_per_op",
    "fft3d.bytes_exchanged_per_op",
    "fft3d.sim_time_s.new",
    "fft3d.sim_time_s.fftw",
    "fft3d.sim_time_s.th",
    "tuner.executed",
    "tuner.cache_hits",
    "tuner.infeasible",
    "tuner.best_objective_s",
    "service.completed",
    "service.rejected",
    "service.cancelled",
    "service.slowdown_p99",
    "service.jain",
];

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "fftperf/Cargo.toml",
    "--",
];

fn metric_json(out: &mut String, m: &Metric, last: bool) {
    let better = if m.lower { "lower" } else { "higher" };
    let _ = write!(
        out,
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
        m.name, m.unit
    );
    if let Some(b) = m.bound {
        let _ = write!(out, ", \"bound\": {b}");
    }
    out.push_str(if last { "}\n" } else { "},\n" });
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [");
    for (i, c) in COMMAND.iter().enumerate() {
        let _ = write!(out, "{}\"{c}\"", if i == 0 { "" } else { ", " });
    }
    out.push_str("],\n  \"paths\": [\"fftperf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        metric_json(&mut out, m, i + 1 == END_TO_END.len());
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        metric_json(&mut out, m, i + 1 == PER_LAYER.len());
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--list`: every workload and metric by name, with unit and bound.
pub fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        let cpus = if w.one_cpu {
            "confined to one CPU"
        } else {
            "free to use both CPUs"
        };
        let _ = writeln!(out, "  {:<16} {cpus}; {}", w.name, w.why);
    }
    for (title, metrics) in [
        ("end to end", &END_TO_END[..]),
        ("per layer", &PER_LAYER[..]),
    ] {
        let _ = writeln!(out, "{title}");
        for m in metrics {
            let better = if m.lower { "lower" } else { "higher" };
            let bound = m.bound.map_or(String::new(), |b| {
                format!("  may worsen by {:.0} %", b * 100.0)
            });
            let _ = writeln!(
                out,
                "  {:<36} {:<6} {better} is better{bound}",
                m.name, m.unit
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` is generated: when a workload or a metric changes,
    /// replace the file with the output of `fftperf --benchmark-json`.
    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        let generated = benchmark_json();
        assert!(
            on_disk == generated,
            "BENCHMARK.json is stale; it should read:\n{generated}"
        );
    }

    #[test]
    fn names_are_unique_well_formed_and_all_listed() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        let listing = list();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                listing
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "--list omits {name}"
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && ok(m.unit, "_/%.-"), "{}", m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{}: {} characters", w.name, w.why.len());
            assert!(
                !w.why.contains(['"', '\\', '\n']),
                "{} needs escaping",
                w.name
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
