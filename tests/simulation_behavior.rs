//! Cross-crate integration on the simulated backend: the qualitative
//! claims of the paper's evaluation must hold as model-level invariants.

use cfft::Direction;
use fft3d::{
    fft3_simulated, pencil_blocking, pencil_overlap_simulated_params, pencil_seed, th_simulated,
    Decomposition, DegradeAction, Execution, JobSpec, PencilGrid, ProblemSpec, Resilience, Service,
    ServiceConfig, SimReport, Simulation, StepTimes, ThParams, TraceEvent, TuningParams, Variant,
};
use simnet::model::{hopper, umd_cluster, TransposeCost};
use simnet::Platform;
use std::time::Duration;
use tuner::driver::{tune_new, tune_th};

#[test]
fn tuned_new_beats_fftw_everywhere_reported() {
    // Spot-check one cell per panel (the full sweep lives in repro_all).
    for (plat, p, n) in [("umd", 16usize, 256usize), ("hopper", 32, 384)] {
        let platform = if plat == "umd" {
            umd_cluster()
        } else {
            hopper()
        };
        let spec = ProblemSpec::cube(n, p);
        let tuned = tune_new(
            &spec,
            |params| fft3_simulated(platform.clone(), spec, Variant::New, *params, true).time,
            120,
        );
        let new = fft3_simulated(platform.clone(), spec, Variant::New, tuned.best, false).time;
        let fftw = fft3_simulated(platform.clone(), spec, Variant::Fftw, tuned.best, false).time;
        assert!(
            new < fftw,
            "{plat} p={p} N={n}: NEW {new:.3} vs FFTW {fftw:.3}"
        );
    }
}

#[test]
fn tuning_never_loses_to_the_seed() {
    let spec = ProblemSpec::cube(256, 16);
    let seed_time = fft3_simulated(
        umd_cluster(),
        spec,
        Variant::New,
        TuningParams::seed(&spec),
        true,
    )
    .time;
    let tuned = tune_new(
        &spec,
        |params| fft3_simulated(umd_cluster(), spec, Variant::New, *params, true).time,
        160,
    );
    assert!(tuned.best_value <= seed_time + 1e-12);
}

#[test]
fn new_overlaps_more_than_th() {
    // Figure 8's central claim, as an invariant over several settings.
    for (p, n) in [(16usize, 256usize), (32, 384)] {
        let spec = ProblemSpec::cube(n, p);
        let params = TuningParams::seed(&spec);
        let new = fft3_simulated(umd_cluster(), spec, Variant::New, params, false);
        let th = th_simulated(umd_cluster(), spec, ThParams::seed(&spec), false);
        assert!(
            new.steps.wait < th.steps.wait,
            "p={p} N={n}: NEW wait {:.3} must be < TH wait {:.3}",
            new.steps.wait,
            th.steps.wait
        );
    }
}

#[test]
fn breakdown_sums_are_consistent_with_elapsed() {
    let spec = ProblemSpec::cube(256, 16);
    let params = TuningParams::seed(&spec);
    let rep = fft3_simulated(hopper(), spec, Variant::New, params, false);
    for stats in &rep.per_rank {
        let sum = stats.steps.total();
        // A rank is always doing exactly one accounted thing, so the busy
        // sum must match elapsed up to rounding.
        assert!(
            (sum - stats.elapsed).abs() < 1e-6 + 0.01 * stats.elapsed,
            "sum {sum:.4} vs elapsed {:.4}",
            stats.elapsed
        );
    }
}

#[test]
fn more_ranks_reduce_time_for_fixed_problem() {
    let n = 512;
    let t16 = fft3_simulated(
        hopper(),
        ProblemSpec::cube(n, 16),
        Variant::New,
        TuningParams::seed(&ProblemSpec::cube(n, 16)),
        false,
    )
    .time;
    let t32 = fft3_simulated(
        hopper(),
        ProblemSpec::cube(n, 32),
        Variant::New,
        TuningParams::seed(&ProblemSpec::cube(n, 32)),
        false,
    )
    .time;
    assert!(
        t32 < t16,
        "strong scaling must hold at this size: {t32:.3} vs {t16:.3}"
    );
}

#[test]
fn window_zero_means_no_test_calls() {
    let spec = ProblemSpec::cube(128, 8);
    let params = TuningParams::seed(&spec).without_overlap();
    let rep = fft3_simulated(umd_cluster(), spec, Variant::New, params, false);
    for stats in &rep.per_rank {
        assert_eq!(stats.tests, 0, "NEW-0 must not poll");
    }
    assert_eq!(rep.steps.test, 0.0);
}

#[test]
fn th_tuning_explores_a_smaller_space() {
    let spec = ProblemSpec::cube(256, 16);
    let new = tune_new(
        &spec,
        |params| fft3_simulated(umd_cluster(), spec, Variant::New, *params, true).time,
        160,
    );
    let th = tune_th(
        &spec,
        |params| th_simulated(umd_cluster(), spec, *params, true).time,
        160,
    );
    assert!(
        th.executed < new.executed,
        "3-dim TH ({}) must execute fewer configs than 10-dim NEW ({})",
        th.executed,
        new.executed
    );
}

#[test]
fn cross_platform_configs_are_suboptimal() {
    // Figure 9 as an invariant: tune on Hopper, run on UMD, compare with
    // native UMD tuning.
    let spec = ProblemSpec::cube(256, 16);
    let umd_tuned = tune_new(
        &spec,
        |params| fft3_simulated(umd_cluster(), spec, Variant::New, *params, true).time,
        160,
    );
    let hop_tuned = tune_new(
        &spec,
        |params| fft3_simulated(hopper(), spec, Variant::New, *params, true).time,
        160,
    );
    let native = fft3_simulated(umd_cluster(), spec, Variant::New, umd_tuned.best, false).time;
    let cross = fft3_simulated(umd_cluster(), spec, Variant::New, hop_tuned.best, false).time;
    assert!(
        native <= cross * 1.001,
        "natively tuned {native:.4} must not lose to cross-tuned {cross:.4}"
    );
}

#[test]
fn determinism_across_repetitions() {
    let spec = ProblemSpec::cube(384, 32);
    let params = TuningParams::seed(&spec);
    let a = fft3_simulated(hopper(), spec, Variant::New, params, false);
    let b = fft3_simulated(hopper(), spec, Variant::New, params, false);
    assert_eq!(a.time, b.time);
    for (x, y) in a.per_rank.iter().zip(&b.per_rank) {
        assert_eq!(x.elapsed, y.elapsed);
        assert_eq!(x.tests, y.tests);
    }
}

// ---------------------------------------------------------------------------
// Golden table: values captured at the commit before the simulators were
// moved onto one stage cost table and one window driver (ISSUE 13). The slab
// pipeline, the multi-array train at one thread and the service price and
// schedule exactly what they did, so these compare with `==`. The runs whose
// last posts tie were re-pinned once, deliberately, when a tie stopped
// giving the highest-numbered rank the free round at post (DESIGN.md §5).
// ---------------------------------------------------------------------------

/// The slab pipeline of `variant` at `params`, for the setters under test.
fn slab(spec: ProblemSpec, variant: Variant, params: TuningParams) -> Simulation {
    Simulation::slab(spec, variant, params).expect("feasible parameters")
}

/// Every execution of `sim` on `platform`.
fn run(sim: &Simulation, platform: Platform) -> Vec<Execution> {
    sim.run(platform).expect("simulated run")
}

/// `[fftz, transpose, ffty, pack, unpack, fftx, ialltoall, wait, test]`.
fn steps(v: [f64; 9]) -> StepTimes {
    StepTimes {
        fftz: v[0],
        transpose: v[1],
        ffty: v[2],
        pack: v[3],
        unpack: v[4],
        fftx: v[5],
        ialltoall: v[6],
        wait: v[7],
        test: v[8],
    }
}

#[test]
fn golden_slab_variants() {
    let ragged = ProblemSpec {
        nx: 100,
        ny: 72,
        nz: 90,
        p: 7,
    };
    #[rustfmt::skip]
    let table = [
        (umd_cluster(), ProblemSpec::cube(256, 16), [
            (Variant::New, 0.234388302, [0.04369066666666667, 0.02178859220779221, 0.04369067199999999, 0.024012256000000006, 0.024012256000000006, 0.04369067199999999, 8.96e-5, 0.032578387, 0.0008352000000000009]),
            (Variant::Th, 0.429944034, [0.04369066666666667, 0.08830113684210526, 0.04369067199999999, 0.057070960000000004, 0.05707096, 0.04369067199999999, 8.96e-5, 0.09592176599999999, 0.0004176000000000003]),
            (Variant::Fftw, 0.330344925, [0.04369066666666667, 0.02178859220779221, 0.043690667, 0.024012251, 0.024012251, 0.043690667, 5.6e-6, 0.12945423, 0.0]),
        ]),
        (hopper(), ProblemSpec::cube(384, 32), [
            (Variant::New, 0.146147915, [0.03390814903141979, 0.013677078260869566, 0.03390814399999999, 0.014765200000000004, 0.014765200000000004, 0.03390814399999999, 0.00010239999999999997, 0.0, 0.0011136000000000008]),
            (Variant::Th, 0.221924501, [0.03390814903141979, 0.0524288, 0.03390814399999999, 0.032602224000000006, 0.032602224000000006, 0.03390814399999999, 0.00010239999999999997, 0.001907616, 0.0005567999999999999]),
            (Variant::Fftw, 0.174716425, [0.03390814903141979, 0.013677078260869566, 0.033908149, 0.014765198, 0.014765198, 0.033908149, 6.4e-6, 0.029778104, 0.0]),
        ]),
        (umd_cluster(), ragged, [
            (Variant::New, 0.019424956, [0.003286500630016898, 0.003616744186046512, 0.0031235219999999997, 0.0022280220000000005, 0.0022691519999999995, 0.003425742, 4.409999999999999e-5, 0.001005485, 0.00035640000000000037]),
            (Variant::Th, 0.03266094, [0.003286500630016898, 0.008185263157894737, 0.0031235219999999997, 0.0022280220000000005, 0.0022691519999999995, 0.003425742, 4.409999999999999e-5, 0.009920437999999998, 0.00017819999999999994]),
            (Variant::Fftw, 0.027218463, [0.003286500630016898, 0.003616744186046512, 0.003123525, 0.002228014, 0.002269157, 0.003425738, 2.45e-6, 0.009266334, 0.0]),
        ]),
    ];
    for (platform, spec, variants) in table {
        let seed = TuningParams::seed(&spec);
        for (variant, time, breakdown) in variants {
            let rep = fft3_simulated(platform.clone(), spec, variant, seed, false);
            assert_eq!(rep.time, time, "{spec:?} {variant:?}");
            assert_eq!(rep.steps, steps(breakdown), "{spec:?} {variant:?}");
            // A single execution is the first of a repeated run, field for
            // field: there is no one-shot path of its own.
            let reps = run(&slab(spec, variant, seed).repeated(1), platform.clone());
            assert_eq!(reps.len(), 1);
            let first = &reps[0].report;
            assert_eq!(first.time, rep.time, "{spec:?} {variant:?}");
            assert_eq!(first.steps, rep.steps, "{spec:?} {variant:?}");
            assert_eq!(first.setup_charges, rep.setup_charges);
            assert_eq!(first.per_rank.len(), rep.per_rank.len());
            for (a, b) in first.per_rank.iter().zip(&rep.per_rank) {
                assert_eq!((a.steps, a.elapsed, a.tests), (b.steps, b.elapsed, b.tests));
            }
        }
    }
    // Tracing is a flag of the same run: the traced report is the untraced
    // one, field for field.
    let spec = ProblemSpec::cube(256, 16);
    let seed = TuningParams::seed(&spec);
    let plain = fft3_simulated(umd_cluster(), spec, Variant::New, seed, false);
    let traced = run(&slab(spec, Variant::New, seed).traced(), umd_cluster()).remove(0);
    let (traced, events) = (traced.report, traced.events);
    assert_eq!(events.len(), spec.p);
    assert_eq!((traced.time, traced.steps), (plain.time, plain.steps));
    assert_eq!(traced.setup_charges, plain.setup_charges);
    assert_eq!(traced.per_rank.len(), plain.per_rank.len());
    for (a, b) in traced.per_rank.iter().zip(&plain.per_rank) {
        assert_eq!((a.steps, a.elapsed, a.tests), (b.steps, b.elapsed, b.tests));
    }
}

/// The pencil model, captured at the commit before every simulated transform
/// became a constructor of one modelled run (ISSUE 19).
#[test]
fn golden_pencil_model() {
    let ragged = ProblemSpec {
        nx: 100,
        ny: 72,
        nz: 90,
        p: 6,
    };
    #[rustfmt::skip]
    let table = [
        (umd_cluster(), ProblemSpec::cube(256, 16), PencilGrid { pr: 4, pc: 4 }, 0.243837016, 0.397664953),
        (hopper(), ProblemSpec::cube(384, 32), PencilGrid::near_square(32), 0.160847632, 0.1918322),
        (umd_cluster(), ragged, PencilGrid { pr: 3, pc: 2 }, 0.02373129, 0.034748949),
    ];
    for (platform, spec, grid, overlapped, blocking) in table {
        let seed = pencil_seed(&spec, grid);
        assert_eq!(
            pencil_overlap_simulated_params(platform.clone(), spec, grid, &seed),
            overlapped,
            "{spec:?} {grid:?}"
        );
        assert_eq!(
            pencil_overlap_simulated_params(
                platform.clone(),
                spec,
                grid,
                &pencil_blocking(&spec, grid)
            ),
            blocking,
            "{spec:?} {grid:?}"
        );
        // The blocking point is one tile per stage, no window and no polls.
        let one_tile = TuningParams {
            t: spec.nx.max(spec.nz),
            ..seed.without_overlap()
        };
        assert_eq!(
            pencil_overlap_simulated_params(platform, spec, grid, &one_tile),
            blocking,
            "{spec:?} {grid:?}"
        );
    }
}

#[test]
fn golden_repeated_executions() {
    let spec = ProblemSpec::cube(128, 8);
    let seed = TuningParams::seed(&spec);
    let reps: Vec<SimReport> = run(&slab(spec, Variant::New, seed).repeated(3), umd_cluster())
        .into_iter()
        .map(|run| run.report)
        .collect();
    // Execution 0 pays the 16 per-tile setups; the steady state pays none
    // and is otherwise identical.
    #[rustfmt::skip]
    let mut want = steps([0.009557333333333333, 0.005447148051948052, 0.009557328000000002, 0.006003056000000001, 0.006003056000000001, 0.009557328000000002, 4.48e-5, 0.003015477, 0.00041760000000000045]);
    assert_eq!(reps[0].time, 0.049603126);
    assert_eq!(reps[0].steps, want);
    assert_eq!(reps[0].setup_charges, 16);
    want.ialltoall = 0.0;
    for rep in &reps[1..] {
        assert_eq!(rep.time, 0.049558326);
        assert_eq!(rep.steps, want);
        assert_eq!(rep.setup_charges, 0);
    }
}

#[test]
fn golden_multi_array_trains() {
    let spec = ProblemSpec::cube(256, 16);
    let seed = TuningParams::seed(&spec);
    #[rustfmt::skip]
    let table = [
        (1, 0.234388302, 0.234388302, [0.043690667, 0.021788592, 0.04369067199999999, 0.024012256000000006, 0.024012256000000006, 0.04369067199999999, 8.96e-5, 0.032578387, 0.0008352000000000009]),
        (3, 0.663954878, 0.703164906, [0.131072001, 0.065365776, 0.1310720160000001, 0.07203676800000001, 0.07203676800000001, 0.1310720160000001, 0.00026879999999999987, 0.058294733, 0.0027359999999999915]),
    ];
    for (arrays, fused, sequential, breakdown) in table {
        let single = slab(spec, Variant::New, seed);
        let alone = run(&single, umd_cluster()).remove(0).report.time;
        let rep = run(&single.arrays(arrays), umd_cluster()).remove(0).report;
        assert_eq!(rep.time, fused, "{arrays} arrays");
        assert_eq!(alone * arrays as f64, sequential, "{arrays} arrays");
        // Array 0's FFTz and Transpose run with nothing in flight and are
        // booked at their modeled cost, as the single-array pipeline books
        // them; the train used to book the nanosecond-rounded clock
        // advance. The clock itself (`fused_time`) is unchanged.
        let want = steps(breakdown);
        assert!((rep.steps.fftz - want.fftz).abs() < 1e-9);
        assert!((rep.steps.transpose - want.transpose).abs() < 1e-9);
        let tiles = StepTimes {
            fftz: want.fftz,
            transpose: want.transpose,
            ..rep.steps
        };
        assert_eq!(tiles, want, "{arrays} arrays");
    }
}

// ---------------------------------------------------------------------------
// Runs whose rank hand-off order is not round-robin (a straggler, degraded
// links, jitter, ragged slabs, pencils, a ladder that climbs on some ranks
// only, 256 ranks), captured at the commit before simnet's thread-per-rank
// engine became one min-clock stepper on the caller's thread (ISSUE 20).
// Those with tied last posts were re-pinned with the tables above.
// ---------------------------------------------------------------------------

/// FNV-1a over the bit pattern of every field fed to it, so that one pinned
/// digest is an `==` on all of them.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn steps(&mut self, s: &StepTimes) {
        #[rustfmt::skip]
        let all = [s.fftz, s.transpose, s.ffty, s.pack, s.unpack, s.fftx, s.ialltoall, s.wait, s.test];
        for v in all {
            self.word(v.to_bits());
        }
    }
}

/// Every field of a report: time, rank-0 steps, setup charges, and each
/// rank's steps, elapsed time and `MPI_Test` count.
fn report_digest(rep: &SimReport) -> u64 {
    let mut d = Digest::new();
    d.word(rep.time.to_bits());
    d.steps(&rep.steps);
    d.word(rep.setup_charges);
    d.word(rep.per_rank.len() as u64);
    for rank in &rep.per_rank {
        d.steps(&rank.steps);
        d.word(rank.elapsed.to_bits());
        d.word(rank.tests);
    }
    d.0
}

/// Every rank's event stream: each span's bounds and kind, in order.
fn events_digest(events: &[Vec<TraceEvent>]) -> u64 {
    let mut d = Digest::new();
    for rank in events {
        d.word(rank.len() as u64);
        for ev in rank {
            d.word(ev.start.to_bits());
            d.word(ev.end.to_bits());
            d.bytes(format!("{:?}", ev.kind).as_bytes());
        }
    }
    d.0
}

#[test]
fn golden_uneven_hand_off_orders() {
    let cube = ProblemSpec::cube(256, 16);
    let ragged = ProblemSpec {
        nx: 100,
        ny: 72,
        nz: 90,
        p: 3,
    };
    let straggler = || umd_cluster().with_straggler(2, 3.0);
    // `(time, Σ tests, report digest, event-stream digest)`.
    #[rustfmt::skip]
    let table = [
        ("straggler", straggler(), cube, Variant::New, (0.804465196, 14848u64, 2629229576894315868u64, 10362900469140399367u64)),
        ("straggler", straggler(), cube, Variant::Th, (1.342230492, 7424, 4767612115258989145, 5608205826195337982)),
        ("degraded links", umd_cluster().with_degraded_links(2.0), cube, Variant::New, (0.465992017, 14848, 9674046038109058679, 213414574087668373)),
        ("jitter", umd_cluster().with_jitter(0.05), cube, Variant::New, (0.263738719, 14848, 5111436216622947776, 2724684838087664770)),
        ("jitter", hopper().with_jitter(0.2), ProblemSpec::cube(384, 32), Variant::Th, (0.242463672, 29696, 2934928313548682386, 888606986752267827)),
        ("ragged", umd_cluster(), ragged, Variant::New, (0.040574208, 396, 5400642596223141560, 12752832544877439722)),
        ("ragged straggler", umd_cluster().with_straggler(1, 1.5), ragged, Variant::Th, (0.124063413, 198, 4070517641525753047, 4111105636836994580)),
        ("256 ranks", hopper(), ProblemSpec::cube(640, 256), Variant::New, (0.705544038, 3801088, 610839312141570717, 1684860321160965029)),
    ];
    for (what, platform, spec, variant, want) in table {
        let seed = TuningParams::seed(&spec);
        let rep = fft3_simulated(platform.clone(), spec, variant, seed, false);
        let traced = run(&slab(spec, variant, seed).traced(), platform).remove(0);
        let (traced, events) = (traced.report, traced.events);
        let tests: u64 = rep.per_rank.iter().map(|r| r.tests).sum();
        let got = (rep.time, tests, report_digest(&rep), events_digest(&events));
        assert_eq!(got, want, "{what} {spec:?} {variant:?}");
        assert_eq!(report_digest(&traced), got.2, "{what} {spec:?} {variant:?}");
    }
}

#[test]
fn golden_uneven_pencils() {
    let cube = ProblemSpec::cube(256, 16);
    let ragged = ProblemSpec {
        nx: 100,
        ny: 72,
        nz: 90,
        p: 6,
    };
    #[rustfmt::skip]
    let table = [
        (umd_cluster().with_straggler(2, 3.0), cube, PencilGrid { pr: 4, pc: 4 }, 0.908483648),
        (umd_cluster().with_jitter(0.05), cube, PencilGrid { pr: 4, pc: 4 }, 0.281131821),
        (umd_cluster().with_straggler(4, 2.0).with_jitter(0.1), ragged, PencilGrid { pr: 3, pc: 2 }, 0.065940057),
        (umd_cluster().with_degraded_links(2.0), ragged, PencilGrid { pr: 3, pc: 2 }, 0.03379873),
    ];
    for (platform, spec, grid, overlapped) in table {
        let seed = pencil_seed(&spec, grid);
        assert_eq!(
            pencil_overlap_simulated_params(platform, spec, grid, &seed),
            overlapped,
            "{spec:?} {grid:?}"
        );
    }
}

/// A three-array train behind a straggler with the virtual-time watchdog
/// armed: the straggler itself never waits long, so the ladder climbs on its
/// peers only and the ranks run different schedules from then on.
#[test]
fn golden_ladder_climbs_on_some_ranks_only() {
    let spec = ProblemSpec::cube(256, 16);
    let seed = TuningParams::seed(&spec);
    let platform = umd_cluster().with_straggler(2, 3.0);
    use DegradeAction::{BoostPolls, Fallback, ShrinkWindow};
    // `(watchdog in virtual ms, rank-0 steps digest, stalls, rungs)`. The
    // straggler finishes last whatever its peers do: the fused time holds.
    #[rustfmt::skip]
    let table = [
        (5, 9383448873527769439u64, 5, vec![BoostPolls, ShrinkWindow, Fallback]),
        (80, 8687699102228815853, 2, vec![BoostPolls, ShrinkWindow]),
        (150, 7679561364217097781, 1, vec![BoostPolls]),
    ];
    for (ms, digest, stalls, rungs) in table {
        let res = Resilience::with_timeout(Duration::from_millis(ms));
        let train = slab(spec, Variant::New, seed).arrays(3).resilience(res);
        let rep = run(&train, platform.clone()).remove(0);
        let mut d = Digest::new();
        d.steps(&rep.report.steps);
        assert_eq!(rep.report.time, 2.413625988, "{ms} ms");
        assert_eq!(d.0, digest, "{ms} ms");
        assert_eq!(rep.recovery.stalls_detected, stalls, "{ms} ms");
        assert_eq!(rep.recovery.actions, rungs, "{ms} ms");
    }
}

/// What the ten free simulator functions removed in ISSUE 23 returned at
/// 0a2dba1 (computed there through them, in a scratch copy), from the public
/// [`Simulation`] that replaced them: the fallible slab run per variant, the
/// Transpose-tier override, the skipped fixed steps, three repeated
/// executions, a traced run, a three-array train behind a straggler with the
/// virtual watchdog armed, and both pencil points.
#[test]
fn golden_public_simulation_runs() {
    let spec = ProblemSpec::cube(128, 8);
    let seed = TuningParams::seed(&spec);
    let new = slab(spec, Variant::New, seed);
    let pinned = |sim: &Simulation, platform: Platform| -> Vec<(f64, u64)> {
        let runs = run(sim, platform).into_iter();
        runs.map(|run| (run.report.time, report_digest(&run.report)))
            .collect()
    };
    #[rustfmt::skip]
    let table = [
        ("NEW", new.clone(), vec![(0.049603126, 9292812477707108664u64)]),
        ("TH", slab(spec, Variant::Th, seed), vec![(0.089353606, 311441383765790514)]),
        ("FFTW", slab(spec, Variant::Fftw, seed), vec![(0.072710195, 113590251174270299)]),
        ("naive transpose", new.clone().transpose(TransposeCost::Naive), vec![(0.066231262, 18429747200931299479)]),
        ("fixed steps skipped", new.clone().skip_fixed_steps(), vec![(0.034598645, 13293129577898193299)]),
        ("TH ×3", slab(spec, Variant::Th, seed).repeated(3), vec![(0.089353606, 311441383765790514), (0.089308806, 5950456555240939327), (0.089308806, 5950456555240939327)]),
    ];
    for (what, sim, want) in table {
        assert_eq!(pinned(&sim, umd_cluster()), want, "{what}");
    }

    let traced = run(&new.clone().traced(), hopper()).remove(0);
    assert_eq!(
        (
            traced.report.time,
            report_digest(&traced.report),
            events_digest(&traced.events)
        ),
        (0.018980666, 8716931770268489713, 10339877981336594645)
    );

    // Three arrays behind a straggler, each wait budgeted at 20 virtual ms;
    // the sequential baseline is the single-array time × 3.
    let slow = umd_cluster().with_straggler(2, 3.0);
    let alone = run(&new, slow.clone()).remove(0).report.time;
    let watched = Resilience::with_timeout(Duration::from_millis(20));
    let train = run(&new.arrays(3).resilience(watched), slow).remove(0);
    let mut d = Digest::new();
    d.steps(&train.report.steps);
    assert_eq!(
        (train.report.time, alone * 3.0, d.0),
        (0.555005679, 0.554890479, 11773969483826517236)
    );
    assert_eq!(train.recovery.stalls_detected, 2);
    assert_eq!(
        train.recovery.actions,
        [DegradeAction::BoostPolls, DegradeAction::ShrinkWindow]
    );

    let ragged = ProblemSpec {
        nx: 100,
        ny: 72,
        nz: 90,
        p: 6,
    };
    #[rustfmt::skip]
    let pencils = [
        (spec, PencilGrid { pr: 2, pc: 4 }, 0.021164064, 0.024381965),
        (ragged, PencilGrid { pr: 3, pc: 2 }, 0.008793037, 0.009690756),
    ];
    for (spec, grid, overlapped, blocking) in pencils {
        let time = |params| {
            let sim = Simulation::pencil(spec, grid, params).expect("feasible point");
            run(&sim, hopper()).remove(0).report.time
        };
        assert_eq!(time(pencil_seed(&spec, grid)), overlapped, "{grid:?}");
        assert_eq!(time(pencil_blocking(&spec, grid)), blocking, "{grid:?}");
    }
}

/// The ranks of an even split run one program at one speed, so the model
/// must give every one of them the same run, whatever its number: no rank
/// may finish later because the stepper resumed it last at a tied post.
/// Ranks of a ragged split differ by block shape, and those of one shape
/// must agree.
#[test]
fn every_rank_of_an_even_split_reports_the_same_run() {
    let fields = |r: &fft3d::RunStats| (r.steps, r.elapsed, r.tests);
    let cube = ProblemSpec::cube(256, 16);
    let seed = TuningParams::seed(&cube);
    let mut even = Vec::new();
    for platform in [umd_cluster(), hopper()] {
        for variant in [Variant::New, Variant::Fftw, Variant::Th] {
            even.push((
                format!("{} {variant:?}", platform.name),
                platform.clone(),
                slab(cube, variant, seed),
            ));
        }
    }
    let grid = PencilGrid { pr: 4, pc: 4 };
    let pencil = Simulation::pencil(cube, grid, pencil_seed(&cube, grid)).expect("feasible seed");
    even.push(("pencil 4x4".into(), umd_cluster(), pencil));
    for (what, platform, sim) in even {
        let rep = run(&sim, platform).remove(0).report;
        assert_eq!(rep.per_rank.len(), cube.p, "{what}");
        for (rank, stats) in rep.per_rank.iter().enumerate() {
            let want = fields(&rep.per_rank[0]);
            assert_eq!(fields(stats), want, "{what}: rank {rank}");
        }
        // So each rank's elapsed time is the reported (slowest) one.
        assert_eq!(rep.per_rank[0].elapsed, rep.time, "{what}");
    }

    let ragged = ProblemSpec::cube(200, 12);
    let split = fft3d::decomp::Decomp::new(ragged.nx, ragged.ny, ragged.p);
    let shape = |r: usize| (split.x.count(r), split.y.count(r));
    for variant in [Variant::New, Variant::Fftw, Variant::Th] {
        let sim = slab(ragged, variant, TuningParams::seed(&ragged));
        let rep = run(&sim, umd_cluster()).remove(0).report;
        let mut shapes = Vec::new();
        for (rank, stats) in rep.per_rank.iter().enumerate() {
            let first = (0..rank).find(|&r| shape(r) == shape(rank)).unwrap_or(rank);
            shapes.push(shape(rank));
            let want = fields(&rep.per_rank[first]);
            assert_eq!(fields(stats), want, "{variant:?}: rank {rank}");
        }
        shapes.dedup();
        assert!(shapes.len() > 1, "the split is ragged");
    }
}

/// simnet has no threads of its own: every rank program of a run executes,
/// suspends and resumes on the thread that called `run_sim`.
#[test]
fn every_rank_runs_on_the_callers_thread() {
    let caller = std::thread::current().id();
    let seen = simnet::run_sim(umd_cluster(), 16, async |sim| {
        let before = std::thread::current().id();
        // Staggered clocks, so the ranks are suspended and resumed out of
        // rank order.
        sim.compute(1e-3 * ((sim.rank() * 7) % 16) as f64);
        let plan = sim.alltoall_init_in_group(sim.size(), 1 << 16);
        let op = sim.start(plan).await;
        sim.compute_with_polls(2e-3, 8, &[op]).await;
        sim.wait(op).await;
        sim.barrier().await;
        [before, std::thread::current().id()]
    });
    assert_eq!(seen, vec![[caller; 2]; 16]);
}

/// SplitMix64, for a seeded trace that needs no other crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn golden_service_trace_with_slab_and_pencil_jobs() {
    // 24 jobs of three geometries from four tenants at twice the service
    // rate on 16 ranks, every eighth a two-array train. On this cluster
    // `auto_select` sits on both sides of the slab/pencil crossover: 128³
    // goes pencil, the two larger geometries slab.
    let svc = Service::new(ServiceConfig::new(umd_cluster(), 16));
    let geometries = [(128, 128, 128), (256, 256, 256), (256, 256, 128)];
    let job = |tenant, (nx, ny, nz): (usize, usize, usize)| {
        JobSpec::new(tenant, ProblemSpec { nx, ny, nz, p: 1 }, Direction::Forward)
    };
    let isolated: Vec<f64> = geometries
        .iter()
        .map(|g| svc.isolated_run(&job(0, *g)).expect("feasible").time)
        .collect();
    let gap = isolated.iter().sum::<f64>() / 3.0 / 2.0;
    let mut rng = 20140216u64;
    let mut at = 0.0;
    let jobs: Vec<JobSpec> = (0..24)
        .map(|i| {
            let g = i % 3;
            let spec = job(i % 4, geometries[g])
                .with_priority((i / 3 % 3) as u8)
                .with_deadline(1.5 * isolated[g])
                .with_arrays(if i % 8 == 5 { 2 } else { 1 })
                .at(at);
            let unit = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            at += gap * (0.9 + 0.2 * unit);
            spec
        })
        .collect();
    let rep = svc.run(&jobs);
    for (i, rec) in rep.jobs.iter().enumerate() {
        match rec.decomp {
            Some(Decomposition::Pencil(_)) => assert_eq!(i % 3, 0, "job {i} went pencil"),
            Some(Decomposition::Slab) => assert_ne!(i % 3, 0, "job {i} went slab"),
            None => panic!("job {i} is feasible"),
        }
    }
    // Re-pinned once, deliberately, when a cold pencil post began paying
    // the exchange setup of its subgroup instead of the whole world's.
    assert_eq!(
        (
            rep.makespan,
            rep.fct.p50,
            rep.completed(),
            rep.rejected(),
            rep.cancelled()
        ),
        (1.500963593450429, 0.24817480623972887, 8, 12, 4)
    );
    assert_eq!(rep.slowdown.p99, 1.4700576971228123);
    assert_eq!(rep.jain, 0.9971518867693746);
}

/// The two points a `sim_tune` tuning run ended at on `umd_cluster` 256³,
/// p = 16: NEW's optimum and TH's `{T 4, W 1, F 256}` (as the full vector
/// TH's three knobs stand for). Captured at the commit before idle polls
/// were charged in closed form, so a poll the model no longer steps must
/// cost exactly what it did. Since a tie at the last post gives no rank a
/// free round, TH's point is re-pinned and NEW's optimum is a neighbour of
/// the one pinned here (`Fy` 16, `Fx` 16).
#[test]
fn golden_tuned_points() {
    let spec = ProblemSpec::cube(256, 16);
    #[rustfmt::skip]
    let new = TuningParams { t: 8, w: 2, px: 16, pz: 2, uy: 16, uz: 2, fy: 32, fp: 8, fu: 16, fx: 8, threads: 1 };
    #[rustfmt::skip]
    let th = TuningParams { t: 4, w: 1, px: 1, pz: 1, uy: 1, uz: 1, fy: 128, fp: 128, fu: 0, fx: 0, threads: 1 };
    // `(time, steps, per-rank tests, traced event-stream digest)`.
    #[rustfmt::skip]
    let table = [
        (Variant::New, new, (0.211945794, [0.04369066666666667, 0.02178859220779221, 0.04369065599999997, 0.024012256000000006, 0.024012256000000006, 0.04369065600000003, 0.0001792, 0.0073679109999999996, 0.003513599999999997], [3904u64; 16], 15022578959409937333u64)),
        (Variant::Th, th, (0.3408711, [0.04369066666666667, 0.08830113684210526, 0.043690687999999984, 0.02398982400000003, 0.02398982400000003, 0.043690687999999984, 0.00035839999999999944, 0.05864467199999994, 0.014515199999999971], [16128; 16], 5851893291516120293)),
    ];
    for (variant, params, (time, breakdown, tests, events)) in table {
        let rep = fft3_simulated(umd_cluster(), spec, variant, params, false);
        let traced = run(&slab(spec, variant, params).traced(), umd_cluster()).remove(0);
        let per_rank: Vec<u64> = rep.per_rank.iter().map(|r| r.tests).collect();
        assert_eq!(rep.time, time, "{variant:?}");
        assert_eq!(rep.steps, steps(breakdown), "{variant:?}");
        assert_eq!(per_rank, tests, "{variant:?}");
        assert_eq!(events_digest(&traced.events), events, "{variant:?}");
        assert_eq!(
            report_digest(&traced.report),
            report_digest(&rep),
            "{variant:?}"
        );
    }
    // TH's three knobs run exactly the widened vector above.
    let th_point = th_simulated(umd_cluster(), spec, ThParams { t: 4, w: 1, f: 256 }, false);
    let widened = fft3_simulated(umd_cluster(), spec, Variant::Th, th, false);
    assert_eq!(report_digest(&th_point), report_digest(&widened));
}
