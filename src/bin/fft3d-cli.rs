//! Command-line driver: run a distributed 3-D FFT (real data, thread
//! runtime) or a simulated cluster run, from the shell.
//!
//! ```sh
//! fft3d-cli real --n 64 --p 4 --variant new
//! fft3d-cli sim  --n 512 --p 32 --platform hopper --variant fftw
//! fft3d-cli tune --n 256 --p 16 --platform umd
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::sim_env::Simulation;
use fft3d::trace::NoopRecorder;
use fft3d::{Error, FftSession, ProblemSpec, Resilience, SimReport, TuningParams, Variant};
use simnet::Platform;
use tuner::driver::{tune_new, DEFAULT_MAX_EVALS};

struct Args {
    n: usize,
    p: usize,
    platform: String,
    variant: Variant,
    verify: bool,
    fault_seed: u64,
    corrupt: Option<f64>,
}

fn parse(mut raw: impl Iterator<Item = String>) -> (String, Args) {
    let mode = raw.next().unwrap_or_else(|| usage("missing mode"));
    let mut args = Args {
        n: 64,
        p: 4,
        platform: "umd".into(),
        variant: Variant::New,
        verify: true,
        fault_seed: 0x5eed,
        corrupt: None,
    };
    while let Some(flag) = raw.next() {
        let mut val = || raw.next().unwrap_or_else(|| usage("missing value"));
        match flag.as_str() {
            "--n" => args.n = val().parse().unwrap_or_else(|_| usage("bad --n")),
            "--p" => args.p = val().parse().unwrap_or_else(|_| usage("bad --p")),
            "--platform" => args.platform = val(),
            "--variant" => {
                args.variant = match val().as_str() {
                    "new" => Variant::New,
                    "th" => Variant::Th,
                    "fftw" => Variant::Fftw,
                    other => usage(&format!("unknown variant {other}")),
                }
            }
            "--no-verify" => args.verify = false,
            "--fault-seed" => {
                args.fault_seed = val().parse().unwrap_or_else(|_| usage("bad --fault-seed"))
            }
            "--corrupt" => {
                let p: f64 = val().parse().unwrap_or_else(|_| usage("bad --corrupt"));
                if !(0.0..1.0).contains(&p) {
                    usage("--corrupt probability must be in [0, 1)");
                }
                args.corrupt = Some(p);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (mode, args)
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: fft3d-cli <real|sim|tune> [--n N] [--p P] \
         [--platform umd|hopper] [--variant new|th|fftw] [--no-verify]\n\
         \x20               [--fault-seed N] [--corrupt PROB]\n\
         \n\
         fault injection (real mode): --corrupt flips one seeded bit per\n\
         message payload with the given probability; detection and healing\n\
         are reported. exit codes: 2 usage, 3 integrity failure escaped\n\
         healing, 4 unrecoverable, 5 rank failure, 1 other pipeline error"
    );
    std::process::exit(2)
}

/// Maps a typed pipeline error to the documented process exit code.
fn fault_exit_code(e: &Error) -> i32 {
    match e {
        Error::IntegrityFailed { .. } => 3,
        Error::Unrecoverable(_) => 4,
        Error::RankFailed { .. } | Error::Revoked { .. } => 5,
        _ => 1,
    }
}

/// Prices `sim` once on `platform`; an infeasible configuration ends the
/// process with its typed error.
fn simulate(sim: Result<Simulation, Error>, platform: Platform) -> SimReport {
    match sim.and_then(|sim| sim.run(platform)) {
        Ok(mut runs) => runs.remove(0).report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(fault_exit_code(&e))
        }
    }
}

fn main() {
    let (mode, args) = parse(std::env::args().skip(1));
    let spec = ProblemSpec::cube(args.n, args.p);
    let params = TuningParams::seed(&spec);

    match mode.as_str() {
        "real" => {
            println!(
                "real run: {}³ on {} ranks, {:?}",
                args.n, args.p, args.variant
            );
            let faults = match args.corrupt {
                Some(prob) => {
                    println!(
                        "fault injection: payload corruption p={prob} \
                         (seed {:#x}, checksum-verified retransmit)",
                        args.fault_seed
                    );
                    faultplan::FaultPlan::seeded(args.fault_seed).with_payload_corruption(prob, 8)
                }
                None => faultplan::FaultPlan::none(),
            };
            let reference = if args.verify {
                let mut r = full_test_array(spec.nx, spec.ny, spec.nz);
                fft3_serial(&mut r, spec.nx, spec.ny, spec.nz, Direction::Forward);
                Some(std::sync::Arc::new(r))
            } else {
                None
            };
            let variant = args.variant;
            // Under fault injection, arm the stall watchdog so collective
            // failures surface as typed errors (and exit codes) instead of
            // panics in the blocking wait path.
            let resilience = Resilience {
                stall_timeout: args.corrupt.map(|_| std::time::Duration::from_millis(200)),
                ..Resilience::default()
            };
            let results = mpisim::run_with_faults(spec.p, faults, move |comm| {
                let input = local_test_slab(&spec, comm.rank());
                let t0 = std::time::Instant::now();
                let (fwd, rigor) = (Direction::Forward, Rigor::Estimate);
                let mut session = FftSession::new(&comm, spec, variant, params, fwd, rigor);
                let out = session.execute_traced(&input, &resilience, &mut NoopRecorder)?;
                let wall = t0.elapsed().as_secs_f64();
                let err = reference
                    .as_ref()
                    .map(|r| compare_with_serial(&spec, comm.rank(), &out, r));
                Ok((wall, err, out.stats.steps, out.recovery.corruptions_healed))
            });
            // Report the most diagnostic error across ranks: a corrupted
            // rank surfaces IntegrityFailed while its peers merely observe
            // the secondary stall, so rank order alone would mask the cause.
            let severity = |e: &Error| match e {
                Error::IntegrityFailed { .. } => 3,
                Error::Unrecoverable(_) => 2,
                Error::RankFailed { .. } | Error::Revoked { .. } => 1,
                _ => 0,
            };
            if let Some(e) = results
                .iter()
                .filter_map(|r: &Result<_, Error>| r.as_ref().err())
                .max_by_key(|e| severity(e))
            {
                eprintln!("error: {e}");
                std::process::exit(fault_exit_code(e));
            }
            let oks: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
            let slowest = oks.iter().map(|r| r.0).fold(0.0, f64::max);
            println!("wall time (slowest rank): {slowest:.4}s");
            println!("rank 0 breakdown:\n{}", oks[0].2);
            let healed: u64 = oks.iter().map(|r| u64::from(r.3)).sum();
            if healed > 0 {
                println!("corruptions detected and healed: {healed}");
            }
            if let Some(err) = oks
                .iter()
                .filter_map(|r| r.1)
                .fold(None, |a: Option<f64>, e| Some(a.map_or(e, |x| x.max(e))))
            {
                println!("max |distributed − serial| = {err:.3e}");
                assert!(err < 1e-8 * spec.len() as f64, "verification failed");
                println!("verified ✓");
            }
        }
        "sim" => {
            let platform =
                simnet::model::by_name(&args.platform).unwrap_or_else(|| usage("unknown platform"));
            println!(
                "simulated run: {}³ on {} ranks of {}, {:?}",
                args.n, args.p, platform.name, args.variant
            );
            let rep = simulate(Simulation::slab(spec, args.variant, params), platform);
            println!("modeled time: {:.4}s", rep.time);
            println!("breakdown:\n{}", rep.steps);
        }
        "tune" => {
            let platform =
                simnet::model::by_name(&args.platform).unwrap_or_else(|| usage("unknown platform"));
            println!(
                "tuning NEW: {}³ on {} ranks of {}",
                args.n, args.p, platform.name
            );
            let result = tune_new(
                &spec,
                |p| {
                    let sim = Simulation::slab(spec, Variant::New, *p);
                    simulate(sim.map(Simulation::skip_fixed_steps), platform.clone()).time
                },
                DEFAULT_MAX_EVALS,
            );
            println!("best configuration: {:?}", result.best);
            println!(
                "objective {:.4}s after {} executed configurations ({:.1}s tuning cost)",
                result.best_value, result.executed, result.tuning_cost
            );
        }
        other => usage(&format!("unknown mode {other}")),
    }
}
