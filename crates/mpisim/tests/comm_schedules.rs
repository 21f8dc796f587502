//! `Comm::dup` / `Comm::split` matching under adversarial schedules: tag
//! isolation between parent and child communicators, and concurrent splits
//! from all ranks, must survive arbitrary message-delivery delays without
//! cross-talk or ctx collisions.

use mpisim::{run_with_config, CheckConfig, RunConfig, SchedConfig};

fn checked(sched: SchedConfig) -> RunConfig {
    RunConfig::checked(CheckConfig::with_sched(sched))
}

/// Parent and duplicated child exchange on the *same* tag number at the
/// same time. The ctx component of the internal tag must keep the two
/// traffic streams apart even when the scheduler delays one of them past
/// the other's receive.
#[test]
fn dup_isolates_identical_tags_under_adversarial_schedules() {
    for seed in 0..16 {
        let outcome = run_with_config(4, checked(SchedConfig::random(seed)), |comm| {
            let child = comm.dup();
            let to = (comm.rank() + 1) % comm.size();
            let from = (comm.rank() + comm.size() - 1) % comm.size();
            // Same tag (7) on both communicators, parent payload vs child
            // payload distinguishable.
            comm.send(&[100 + comm.rank() as u64], to, 7);
            child.send(&[200 + comm.rank() as u64], to, 7);
            // Receive child first: its message may arrive second — the
            // runtime must hold the parent's message for the parent comm.
            let c = child.recv_vec::<u64>(from, 7);
            let p = comm.recv_vec::<u64>(from, 7);
            (p[0], c[0])
        });
        let results = outcome.results.expect("no deadlock under dup traffic");
        assert!(
            outcome.report.is_clean(),
            "seed {seed}: {:?}",
            outcome.report.findings
        );
        for (rank, (p, c)) in results.iter().enumerate() {
            let from = (rank + 3) % 4;
            assert_eq!(*p, 100 + from as u64, "seed {seed}: parent stream crossed");
            assert_eq!(*c, 200 + from as u64, "seed {seed}: child stream crossed");
        }
    }
}

/// All ranks split into odd/even halves and exchange within the halves
/// while the parent communicator also carries traffic, under both random
/// and systematic schedules.
#[test]
fn split_halves_stay_isolated_under_adversarial_schedules() {
    let mut plans: Vec<SchedConfig> = (0..8).map(SchedConfig::random).collect();
    plans.extend((0..8).map(|m| SchedConfig::systematic(m, 3)));
    for sched in plans {
        let descriptor = sched.describe();
        let outcome = run_with_config(4, checked(sched), |comm| {
            let half = comm
                .split((comm.rank() % 2) as i64, comm.rank() as i64)
                .expect("all ranks keep a color");
            assert_eq!(half.size(), 2);
            // Parent ring exchange, tag 3.
            let to = (comm.rank() + 1) % comm.size();
            let from = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(&[10 + comm.rank() as u64], to, 3);
            // Intra-half exchange on the same tag number.
            let peer = 1 - half.rank();
            half.send(&[50 + comm.rank() as u64], peer, 3);
            let h = half.recv_vec::<u64>(peer, 3);
            let p = comm.recv_vec::<u64>(from, 3);
            (p[0], h[0])
        });
        let results = outcome
            .results
            .unwrap_or_else(|| panic!("{descriptor}: deadlocked"));
        assert!(
            outcome.report.is_clean(),
            "{descriptor}: {:?}",
            outcome.report.findings
        );
        for (rank, (p, h)) in results.iter().enumerate() {
            // Parent ring: message came from world rank-1.
            assert_eq!(*p, 10 + ((rank + 3) % 4) as u64, "{descriptor}");
            // Halves pair {0,2} and {1,3}: the other member of my parity.
            let half_peer = (rank + 2) % 4;
            assert_eq!(*h, 50 + half_peer as u64, "{descriptor}");
        }
    }
}

/// Two *concurrent* splits issued back-to-back from every rank must land
/// in distinct ctx spaces (no MC003), and nested children of children must
/// still match correctly when deliveries are reordered.
#[test]
fn concurrent_and_nested_splits_get_distinct_contexts() {
    for seed in [0u64, 3, 11, 20140216] {
        let outcome = run_with_config(4, checked(SchedConfig::random(seed)), |comm| {
            // Two splits in a row — same colors, different seq — then a
            // split of the child: three fresh contexts.
            let a = comm.split(0, comm.rank() as i64).expect("kept");
            let b = comm.split(0, comm.rank() as i64).expect("kept");
            let c = a
                .split((a.rank() % 2) as i64, a.rank() as i64)
                .expect("kept");
            // Same tag everywhere; payload encodes the communicator.
            let to_a = (a.rank() + 1) % a.size();
            let from_a = (a.rank() + a.size() - 1) % a.size();
            a.send(&[1000 + a.rank() as u64], to_a, 9);
            b.send(&[2000 + b.rank() as u64], to_a, 9);
            c.send(&[3000 + comm.rank() as u64], 1 - c.rank(), 9);
            let vc = c.recv_vec::<u64>(1 - c.rank(), 9);
            let vb = b.recv_vec::<u64>(from_a, 9);
            let va = a.recv_vec::<u64>(from_a, 9);
            (va[0], vb[0], vc[0])
        });
        let results = outcome.results.expect("no deadlock");
        assert!(
            outcome.report.is_clean(),
            "seed {seed}: {:?}",
            outcome.report.findings
        );
        for (rank, (va, vb, vc)) in results.iter().enumerate() {
            let from = (rank + 3) % 4;
            assert_eq!(*va, 1000 + from as u64, "seed {seed}");
            assert_eq!(*vb, 2000 + from as u64, "seed {seed}");
            let c_peer = (rank + 2) % 4; // pairs {0,2} / {1,3}
            assert_eq!(*vc, 3000 + c_peer as u64, "seed {seed}");
        }
    }
}

/// Non-blocking collectives on a duplicated communicator progress and
/// complete under deferral, while the parent runs its own ialltoall with
/// the same sequence numbers.
#[test]
fn nbc_on_dup_does_not_cross_with_parent_nbc() {
    for seed in 0..10 {
        let outcome = run_with_config(4, checked(SchedConfig::random(seed)), |comm| {
            let child = comm.dup();
            let n = comm.size();
            let ps: Vec<i64> = (0..n).map(|d| (comm.rank() * 10 + d) as i64).collect();
            let cs: Vec<i64> = (0..n).map(|d| -((comm.rank() * 10 + d) as i64)).collect();
            let preq = comm.ialltoall(&ps, 1, vec![0i64; n]);
            let creq = child.ialltoall(&cs, 1, vec![0i64; n]);
            let crecv = creq.wait(&child);
            let precv = preq.wait(&comm);
            (precv, crecv)
        });
        let results = outcome.results.expect("no deadlock");
        assert!(
            outcome.report.is_clean(),
            "seed {seed}: {:?}",
            outcome.report.findings
        );
        for (rank, (p, c)) in results.iter().enumerate() {
            for src in 0..4usize {
                assert_eq!(p[src], (src * 10 + rank) as i64, "seed {seed}");
                assert_eq!(c[src], -((src * 10 + rank) as i64), "seed {seed}");
            }
        }
    }
}
