//! Property-based tests of the message-passing runtime: the alltoall
//! permutation identity, ordering semantics, and collective algebra over
//! randomly drawn sizes and payloads.

use proptest::prelude::*;

/// alltoall is the block-transpose permutation: recv[s][j] on rank r equals
/// send[r][j] on rank s.
fn alltoall_permutes(p: usize, count: usize, salt: u64) {
    mpisim::run(p, move |comm| {
        let me = comm.rank() as u64;
        let send: Vec<u64> = (0..p * count)
            .map(|i| {
                let dest = (i / count) as u64;
                let j = (i % count) as u64;
                (me * 1_000_003) ^ dest.wrapping_mul(7919) ^ j.wrapping_mul(31) ^ salt
            })
            .collect();
        let mut recv = vec![0u64; p * count];
        comm.alltoall(&send, count, &mut recv);
        for s in 0..p as u64 {
            for j in 0..count as u64 {
                let expect = (s * 1_000_003) ^ me.wrapping_mul(7919) ^ j.wrapping_mul(31) ^ salt;
                assert_eq!(recv[s as usize * count + j as usize], expect);
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alltoall_is_the_block_permutation(p in 1usize..8, count in 1usize..50, salt: u64) {
        alltoall_permutes(p, count, salt);
    }

    /// Vector alltoall partitions and reassembles exactly for random
    /// (symmetric) count matrices.
    #[test]
    fn alltoallv_with_random_counts(p in 1usize..6, base in 0usize..20, salt: u64) {
        mpisim::run(p, move |comm| {
            let me = comm.rank();
            // counts[i][j] = elements i sends to j; keep it a function of
            // (i, j) so both sides agree.
            let cnt = |i: usize, j: usize| base + (i * 31 + j * 17 + (salt % 7) as usize) % 9;
            let send_counts: Vec<usize> = (0..p).map(|j| cnt(me, j)).collect();
            let recv_counts: Vec<usize> = (0..p).map(|i| cnt(i, me)).collect();
            let send: Vec<u32> = (0..p)
                .flat_map(|j| (0..cnt(me, j)).map(move |k| (me * 10000 + j * 100 + k) as u32))
                .collect();
            let mut recv = vec![0u32; recv_counts.iter().sum()];
            comm.alltoallv(&send, &send_counts, &recv_counts, &mut recv);
            let mut off = 0;
            for i in 0..p {
                for k in 0..cnt(i, me) {
                    assert_eq!(recv[off], (i * 10000 + me * 100 + k) as u32);
                    off += 1;
                }
            }
        });
    }

    /// Messages between one (src, dst, tag) pair arrive in send order.
    #[test]
    fn p2p_is_fifo_per_tag(n_msgs in 1usize..30) {
        mpisim::run(2, move |comm| {
            if comm.rank() == 0 {
                for k in 0..n_msgs as u32 {
                    comm.send(&[k], 1, 5);
                }
            } else {
                for k in 0..n_msgs as u32 {
                    let v = comm.recv_vec::<u32>(0, 5);
                    assert_eq!(v[0], k);
                }
            }
        });
    }

    /// allgather equals gather-to-root + bcast for any contribution sizes.
    #[test]
    fn allgather_matches_manual_composition(p in 1usize..7, len in 1usize..10) {
        mpisim::run(p, move |comm| {
            let contrib: Vec<u16> =
                (0..len).map(|k| (comm.rank() * 100 + k) as u16).collect();
            let all = comm.allgather(&contrib);
            assert_eq!(all.len(), p * len);
            for r in 0..p {
                for k in 0..len {
                    assert_eq!(all[r * len + k], (r * 100 + k) as u16);
                }
            }
        });
    }

    /// Reduce-sum over random vectors equals the local sum of all
    /// contributions.
    #[test]
    fn reduce_sum_is_exact_for_integers(p in 1usize..7, len in 1usize..8) {
        mpisim::run(p, move |comm| {
            let contrib: Vec<f64> =
                (0..len).map(|k| (comm.rank() + 1) as f64 * (k + 1) as f64).collect();
            let total = comm.allreduce_sum(&contrib);
            let ranks_sum: f64 = (1..=p).map(|r| r as f64).sum();
            for (k, t) in total.iter().enumerate() {
                assert_eq!(*t, ranks_sum * (k + 1) as f64);
            }
        });
    }

    /// Windowed outstanding alltoalls complete correctly in any wait order
    /// (drawn from the seed).
    #[test]
    fn outstanding_alltoalls_any_completion_order(p in 2usize..5, reverse: bool) {
        mpisim::run(p, move |comm| {
            let me = comm.rank();
            let a: Vec<i32> = (0..p).map(|d| (me * 10 + d) as i32).collect();
            let b: Vec<i32> = (0..p).map(|d| (me * 10 + d + 1000) as i32).collect();
            let ra = comm.ialltoall(&a, 1, vec![0; p]);
            let rb = comm.ialltoall(&b, 1, vec![0; p]);
            let (out_a, out_b) = if reverse {
                let ob = rb.wait(&comm);
                let oa = ra.wait(&comm);
                (oa, ob)
            } else {
                let oa = ra.wait(&comm);
                let ob = rb.wait(&comm);
                (oa, ob)
            };
            for s in 0..p {
                assert_eq!(out_a[s], (s * 10 + me) as i32);
                assert_eq!(out_b[s], (s * 10 + me + 1000) as i32);
            }
        });
    }

    /// The persistent plan's owned blocks deliver exactly what the flat
    /// `ialltoallv` delivers for the same data — ragged counts, ranks with
    /// nothing to send included, on a clean network, a dropping one and a
    /// corrupting one (both healing) — and a second execution that re-sends
    /// the received blocks' allocations delivers its data too.
    #[test]
    fn block_exchange_delivers_what_the_flat_exchange_delivers(
        p in 1usize..5,
        salt in 0u64..1000,
        fault in 0usize..3,
    ) {
        let plan = match fault {
            0 => mpisim::FaultPlan::none(),
            1 => mpisim::FaultPlan::seeded(salt).with_drops(0.3, 16),
            _ => mpisim::FaultPlan::seeded(salt).with_payload_corruption(0.3, 16),
        };
        mpisim::run_with_faults(p, plan, move |comm| {
            let me = comm.rank();
            // counts(i, j): elements rank i sends rank j, zero for about a
            // fifth of the pairs.
            let cnt = |i: usize, j: usize| ((i * 7 + j * 3) as u64 + salt) as usize % 5;
            let send_counts: Vec<usize> = (0..p).map(|j| cnt(me, j)).collect();
            let recv_counts: Vec<usize> = (0..p).map(|i| cnt(i, me)).collect();
            let value = |gen: u64, j: usize, k: usize| {
                (gen << 40) ^ ((me as u64) << 20) ^ ((j as u64) << 10) ^ k as u64 ^ salt
            };
            let blocks = |gen: u64| -> Vec<Vec<u64>> {
                (0..p).map(|j| (0..cnt(me, j)).map(|k| value(gen, j, k)).collect()).collect()
            };
            let total_recv: usize = recv_counts.iter().sum();
            let mut plan = comm.alltoallv_init(&send_counts, &recv_counts, Vec::new());
            let mut recycled: Option<Vec<Vec<u64>>> = None;
            for gen in 0..2u64 {
                let flat_send: Vec<u64> = blocks(gen).concat();
                let flat = comm
                    .ialltoallv(&flat_send, &send_counts, &recv_counts, vec![0; total_recv])
                    .wait(&comm);
                let send = match recycled.take() {
                    None => blocks(gen),
                    // The receive blocks' allocations, resized and refilled.
                    Some(mut spare) => {
                        spare.resize_with(p, Vec::new);
                        for (block, fresh) in spare.iter_mut().zip(blocks(gen)) {
                            block.clear();
                            block.extend(fresh);
                        }
                        spare
                    }
                };
                plan.start(&comm, send);
                let got = plan.wait(&comm);
                for (s, block) in got.iter().enumerate() {
                    assert_eq!(block.len(), recv_counts[s], "gen {gen} source {s}");
                }
                assert_eq!(got.concat(), flat, "gen {gen}");
                recycled = Some(got);
            }
            plan.free(&comm);
        });
    }
}
