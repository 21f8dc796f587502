//! Multi-tenant service overload demo (ISSUE 10): four symmetric tenants
//! submit 3-D FFT jobs at 2× the cluster's service rate, every job carrying
//! a 1.5×-isolated deadline. The admission controller sheds load with typed
//! reasons — preferentially from the lowest priority class — while the
//! deadline watchdog keeps every accepted job inside its latency promise.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin service [-- N p [jobs]] [--smoke]
//! ```
//!
//! `--smoke` runs a small fast configuration (32³ over 4 ranks, 8 jobs)
//! suitable for CI.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use cfft::Direction;
use fft3d::{JobSpec, ProblemSpec, Service, ServiceConfig};
use simnet::model::umd_cluster;

fn main() {
    let mut positional = Vec::new();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            positional.push(arg);
        }
    }
    let (mut n, mut p, mut njobs) = (256usize, 16usize, 24usize);
    if smoke {
        (n, p, njobs) = (32, 4, 8);
    }
    if let Some(v) = positional.first().and_then(|s| s.parse().ok()) {
        n = v;
    }
    if let Some(v) = positional.get(1).and_then(|s| s.parse().ok()) {
        p = v;
    }
    if let Some(v) = positional.get(2).and_then(|s| s.parse().ok()) {
        njobs = v;
    }

    let svc = Service::new(ServiceConfig::new(umd_cluster(), p));
    let template = JobSpec::new(0, ProblemSpec::cube(n, 1), Direction::Forward);
    let iso = match svc.isolated_run(&template) {
        Ok(run) => run.time,
        Err(e) => {
            eprintln!("service: template job N = {n}^3, p = {p} is infeasible: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "multi-tenant service on the UMD model, N = {n}^3, p = {p}: {njobs} jobs\n\
         from 4 tenants at 2x the service rate (one arrival per iso/2 = {:.4}s),\n\
         each with a 1.5x-isolated deadline ({:.4}s)\n",
        iso * 0.5,
        iso * 1.5
    );

    let jobs: Vec<JobSpec> = (0..njobs)
        .map(|i| {
            JobSpec::new(i % 4, ProblemSpec::cube(n, 1), Direction::Forward)
                .with_priority((i % 3) as u8)
                .with_deadline(iso * 1.5)
                .at(i as f64 * iso * 0.5)
        })
        .collect();
    let rep = svc.run(&jobs);

    println!(
        "{:>4} | {:>6} | {:>4} | {:>9} | {:>8} | {:>8} | outcome",
        "job", "tenant", "prio", "arrive(s)", "fct(s)", "slowdown"
    );
    for rec in &rep.jobs {
        let fct = rec
            .fct()
            .map_or_else(|| format!("{:>8}", "-"), |v| format!("{v:>8.4}"));
        let slow = rec
            .slowdown()
            .map_or_else(|| format!("{:>8}", "-"), |v| format!("{v:>7.2}x"));
        println!(
            "{:>4} | {:>6} | {:>4} | {:>9.4} | {fct} | {slow} | {}",
            rec.job, rec.tenant, rec.priority, rec.submitted, rec.outcome
        );
    }

    println!(
        "\n{} completed, {} rejected, {} cancelled; {} plan reuse(s); makespan {:.4}s",
        rep.completed(),
        rep.rejected(),
        rep.cancelled(),
        rep.plan_reuses,
        rep.makespan
    );
    println!(
        "FCT      : p50 {:.4}s  p99 {:.4}s  mean {:.4}s  max {:.4}s  (n = {})",
        rep.fct.p50, rep.fct.p99, rep.fct.mean, rep.fct.max, rep.fct.count
    );
    println!(
        "slowdown : p50 {:.2}x  p99 {:.2}x  mean {:.2}x  max {:.2}x  vs isolated {iso:.4}s",
        rep.slowdown.p50, rep.slowdown.p99, rep.slowdown.mean, rep.slowdown.max
    );
    println!(
        "fairness : Jain index {:.4} over per-tenant mean slowdowns\n",
        rep.jain
    );

    println!(
        "{:>6} | {:>9} | {:>9} | {:>8} | {:>9} | {:>13} | {:>12}",
        "tenant", "submitted", "completed", "rejected", "cancelled", "mean slowdown", "bytes moved"
    );
    for t in &rep.tenants {
        println!(
            "{:>6} | {:>9} | {:>9} | {:>8} | {:>9} | {:>12.2}x | {:>12}",
            t.tenant, t.submitted, t.completed, t.rejected, t.cancelled, t.mean_slowdown, t.bytes
        );
    }

    let accepted_ok = rep.completed() > 0
        && rep.rejected() > 0
        && rep.slowdown.p99 <= 1.5 + 1e-9
        && rep.jain >= 0.9;
    println!(
        "\nacceptance gate (shed under 2x load, p99 slowdown <= 1.5x, Jain >= 0.9): {}",
        if accepted_ok { "PASS" } else { "FAIL" }
    );
    if !accepted_ok {
        std::process::exit(1);
    }
}
