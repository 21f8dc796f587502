//! Property-based tests of the simulator: determinism, monotonicity of the
//! cost models, and the manual-progression trade-off over random settings.

use proptest::prelude::*;
use simnet::model::{hopper, umd_cluster};
use simnet::{run_sim, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two runs of the same program are bit-identical, whatever the host
    /// scheduler does.
    #[test]
    fn simulation_is_deterministic(
        p in 1usize..9,
        bytes in 1u64..4_000_000,
        polls in 0u32..200,
        compute_us in 1u64..20_000,
    ) {
        let go = || {
            run_sim(umd_cluster(), p, async move |sim| {
                let plan = sim.alltoall_init_in_group(sim.size(), bytes);
                let op = sim.start(plan).await;
                sim.compute_with_polls(compute_us as f64 * 1e-6, polls, &[op]).await;
                sim.wait(op).await;
                sim.now()
            })
        };
        prop_assert_eq!(go(), go());
    }

    /// The collective never completes before the rendezvous of all ranks,
    /// and wait always advances the clock monotonically.
    #[test]
    fn completion_respects_the_rendezvous(
        p in 2usize..8,
        stagger_us in 0u64..5_000,
        bytes in 1u64..1_000_000,
    ) {
        let ends = run_sim(umd_cluster(), p, async move |sim| {
            // Stagger the posts: the last poster defines readiness.
            sim.compute(sim.rank() as f64 * stagger_us as f64 * 1e-6);
            let before = sim.now();
            let plan = sim.alltoall_init_in_group(sim.size(), bytes);
            let op = sim.start(plan).await;
            let end = sim.wait(op).await;
            prop_assert!(end >= before);
            Ok(end)
        });
        let latest_post = SimTime::from_secs_f64((p - 1) as f64 * stagger_us as f64 * 1e-6);
        for e in ends {
            prop_assert!(e? >= latest_post);
        }
    }

    /// More polls never make the post→wait span longer by more than the
    /// polls' own cost (progression is monotone in opportunities).
    #[test]
    fn polls_help_up_to_their_overhead(
        p in 2usize..6,
        bytes in 100_000u64..2_000_000,
    ) {
        let run_with = |polls: u32| {
            run_sim(umd_cluster(), p, async move |sim| {
                let plan = sim.alltoall_init_in_group(sim.size(), bytes);
                let op = sim.start(plan).await;
                sim.compute_with_polls(0.01, polls, &[op]).await;
                sim.wait(op).await;
                sim.now().as_secs_f64()
            })[0]
        };
        let few = run_with(4);
        let many = run_with(64);
        let t_test = umd_cluster().machine.t_test;
        prop_assert!(many <= few + 64.0 * t_test * 2.0 + 1e-9,
            "64 polls ({many}) should not lose to 4 polls ({few}) beyond their own cost");
    }

    /// Compute cost models are monotone in their inputs.
    #[test]
    fn machine_model_is_monotone(n in 2usize..4096, lines in 1u64..100) {
        let m = hopper().machine;
        prop_assert!(m.fft_line(2 * n) > m.fft_line(n));
        prop_assert!(m.fft_batch(n, lines + 1) > m.fft_batch(n, lines));
        let b = 1u64 << 20;
        prop_assert!(m.pack(2 * b, 64 * 1024, 1024) > m.pack(b, 64 * 1024, 1024));
    }

    /// The alltoall round structure conserves total traffic: rounds ×
    /// round_bytes ≥ (p−1) × bytes_per_peer, with equality for pairwise.
    #[test]
    fn a2a_shape_conserves_traffic(p in 2usize..300, bytes in 1u64..10_000_000) {
        let net = hopper().net;
        let s = net.shape(p, bytes);
        let total = (p as u64 - 1) * bytes;
        prop_assert!(s.rounds as u64 * s.round_bytes >= total.min(s.rounds as u64 * s.round_bytes));
        if bytes >= net.bruck_threshold_bytes {
            prop_assert_eq!(s.rounds as u64 * s.round_bytes, total);
        } else {
            // Bruck trades bandwidth for rounds: ⌈log2 p⌉ rounds of p/2
            // blocks each.
            prop_assert!(s.rounds as u64 * s.round_bytes >= total / 2);
        }
    }

    /// Barriers equalise clocks exactly.
    #[test]
    fn barrier_aligns_all_ranks(p in 1usize..10, jitter_us in 0u64..3_000) {
        let times = run_sim(hopper(), p, async move |sim| {
            sim.compute((sim.rank() as u64 * jitter_us) as f64 * 1e-6);
            sim.barrier().await;
            sim.now()
        });
        for t in &times {
            prop_assert_eq!(*t, times[0]);
        }
    }
}
