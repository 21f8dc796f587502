//! Communicators and point-to-point messaging.

use crate::check::{Finding, LintId, WaitInfo};
use crate::world::{Msg, World};
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

/// Message kinds multiplexed onto the mailbox tag space.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    P2p = 1,
    Coll = 2,
    Nbc = 3,
}

/// Encodes `(ctx, kind, payload)` into a mailbox tag.
pub(crate) fn encode_tag(ctx: u64, kind: Kind, payload: u64) -> u64 {
    debug_assert!(payload < (1 << 40), "tag payload overflow");
    (ctx << 44) | ((kind as u64) << 40) | payload
}

fn mix_ctx(parent: u64, seq: u64, color: i64) -> u64 {
    // SplitMix64-style mixing, truncated to the 20 bits the tag layout
    // reserves for context ids. Collisions across live communicators are
    // astronomically unlikely at the scales the runtime supports (and a
    // checked run reports any actual collision as lint MC003).
    let mut z = parent
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(color as u64);
    z ^= z >> 31;
    z & 0xf_ffff
}

/// A communicator: a rank's handle onto an ordered group of ranks.
///
/// Mirrors the MPI object of the same name. `Comm` is deliberately not
/// `Sync`: each rank thread owns its own handle, as in MPI. Collective
/// calls must be made by every member in the same order.
pub struct Comm {
    pub(crate) world: Arc<World>,
    pub(crate) ctx: u64,
    rank: usize,
    /// World ranks of the members, indexed by communicator rank.
    members: Arc<Vec<usize>>,
    coll_seq: Cell<u64>,
    split_seq: Cell<u64>,
    /// Sequence counter for [`Comm::agree`] rendezvous (separate from
    /// `coll_seq`: ranks abandon a faulted pipeline at *different* points,
    /// so their `coll_seq` counters disagree by the time recovery starts —
    /// agree must match on a counter that only recovery advances).
    agree_seq: Cell<u64>,
    /// Sequence counter for [`Comm::shrink`] context derivation.
    shrink_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn world_comm(world: Arc<World>, rank: usize) -> Self {
        let members = Arc::new((0..world.size).collect());
        Comm {
            world,
            ctx: 0,
            rank,
            members,
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            agree_seq: Cell::new(0),
            shrink_seq: Cell::new(0),
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// World rank backing communicator rank `r`.
    #[inline]
    pub(crate) fn world_rank(&self, r: usize) -> usize {
        self.members[r]
    }

    /// World ranks of every member, in dense communicator-rank order —
    /// the membership generation a checkpoint is tagged with, so a
    /// snapshot taken before a shrink is detectable as stale afterwards.
    pub fn members(&self) -> Vec<usize> {
        self.members.as_ref().clone()
    }

    /// Next collective sequence number (consistent across members because
    /// collectives must be called in the same order on every rank).
    pub(crate) fn next_coll_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    /// The mailbox of this rank.
    pub(crate) fn my_mailbox(&self) -> &crate::world::Mailbox {
        &self.world.mailboxes[self.world_rank(self.rank)]
    }

    /// The fault plan installed at [`crate::run_with_faults`] time (the
    /// empty plan under [`crate::run`]).
    pub(crate) fn faults(&self) -> &faultplan::FaultPlan {
        &self.world.faults
    }

    /// Messages currently queued in this rank's mailbox — a leak check for
    /// abandoned collectives (after a collective `cancel` on every rank, a
    /// quiesced world reports 0 everywhere).
    pub fn pending_messages(&self) -> usize {
        self.my_mailbox().len()
    }

    /// A cooperative scheduling point: gives the virtual scheduler (checked
    /// runs) a chance to release deliveries it held back for this rank.
    /// Free outside checked runs. The overlapped pipeline calls this once
    /// per tile so deferred deliveries release in the receiver's program
    /// order, which is what makes explored schedules reproducible.
    pub fn progress_hint(&self) {
        self.my_mailbox().service_held();
    }

    // ------------------------------------------------------------------
    // Delivery and blocking-receive machinery (shared by p2p, collectives
    // and the non-blocking collectives in `nbc`)
    // ------------------------------------------------------------------

    /// Sends `data` to communicator rank `dest` under a fully-encoded
    /// mailbox tag, through the world's delivery choke point (the virtual
    /// scheduler under checked runs).
    pub(crate) fn deliver(&self, dest: usize, tag: u64, data: Box<dyn Any + Send>) {
        self.world.deliver(
            self.world_rank(self.rank),
            self.world_rank(dest),
            Msg::new(self.rank, tag, data),
        );
    }

    /// Runs the deadlock probe; returns only if no deadlock was confirmed
    /// (otherwise panics, after the probe has aborted the world).
    pub(crate) fn probe_deadlock_or_panic(&self) {
        let Some(check) = &self.world.check else {
            return;
        };
        let me = self.world_rank(self.rank);
        let world = &self.world;
        let reported = check.probe_deadlock(
            me,
            Duration::from_millis(5),
            &|| world.force_release_all(),
            &|r, info| world.mailboxes[r].has_match(info.src_key, info.tag),
            &|| world.abort(),
        );
        if reported {
            panic!("mpisim: deadlock detected at rank {me} (lint MC005; see check report)");
        }
    }

    /// Blocking matched receive from communicator rank `src_key` under a
    /// raw mailbox `tag`, with exponential-backoff parking, abort checking,
    /// and (checked runs) wait-for-graph registration plus the deadlock
    /// probe once the wait exceeds the configured threshold.
    pub(crate) fn blocking_take(&self, src_key: usize, tag: u64) -> Msg {
        let me = self.world_rank(self.rank);
        let mb = self.my_mailbox();
        // Fast path: already queued.
        if let Some(msg) = mb.try_take(src_key, tag) {
            return msg;
        }
        let bo = self.world.backoff;
        let mut slice = bo.first();
        let mut waited = Duration::ZERO;
        let probe_after = self.world.check.as_ref().map(|c| c.config().deadlock_after);
        if let Some(check) = &self.world.check {
            check.set_blocked(
                me,
                WaitInfo {
                    peer_world: self.world_rank(src_key),
                    src_key,
                    tag,
                },
            );
        }
        let msg = loop {
            if let Some(m) = mb.take_or_wait(src_key, tag, slice) {
                break m;
            }
            mb.check_abort();
            if self.world.is_failed(self.world_rank(src_key)) {
                // The sender died. Flush any scheduler-held delivery it made
                // before dying; if the message still isn't there, it never
                // will be — abort (the MPI_Abort analogue for the infallible
                // blocking API) rather than hang. Fault-aware code paths use
                // the typed CollError::RankFailed route instead.
                mb.force_release();
                if let Some(m) = mb.try_take(src_key, tag) {
                    break m;
                }
                panic!(
                    "mpisim: blocking receive from failed world rank {} — \
                     use fault-aware operations on a communicator with dead members",
                    self.world_rank(src_key)
                );
            }
            waited += slice;
            if let Some(after) = probe_after {
                if waited >= after {
                    self.probe_deadlock_or_panic();
                    waited = Duration::ZERO; // re-arm; cycle was transient
                }
            }
            slice = bo.next(slice);
        };
        if let Some(check) = &self.world.check {
            check.clear_blocked(me);
        }
        msg
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Buffered (eager) send: copies `buf` and returns immediately.
    pub fn send<T: Clone + Send + 'static>(&self, buf: &[T], dest: usize, tag: u32) {
        assert!(dest < self.size(), "send destination {dest} out of range");
        let data: Vec<T> = buf.to_vec();
        self.deliver(
            dest,
            encode_tag(self.ctx, Kind::P2p, tag as u64),
            Box::new(data),
        );
    }

    /// Blocking receive into `buf`; the matched message length must equal
    /// `buf.len()`.
    pub fn recv<T: Clone + Send + 'static>(&self, buf: &mut [T], src: usize, tag: u32) {
        let v = self.recv_vec::<T>(src, tag);
        assert_eq!(
            v.len(),
            buf.len(),
            "recv length mismatch: message has {}, buffer holds {}",
            v.len(),
            buf.len()
        );
        buf.clone_from_slice(&v);
    }

    /// Blocking receive returning the payload vector.
    pub fn recv_vec<T: Clone + Send + 'static>(&self, src: usize, tag: u32) -> Vec<T> {
        assert!(src < self.size(), "recv source {src} out of range");
        let msg = self.blocking_take(src, encode_tag(self.ctx, Kind::P2p, tag as u64));
        *msg.data
            .downcast::<Vec<T>>()
            .unwrap_or_else(|_| panic!("recv type mismatch from rank {src} tag {tag}"))
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Duplicates the communicator into a fresh context (tag space).
    pub fn dup(&self) -> Comm {
        self.split(0, self.rank as i64)
            .expect("dup never excludes the caller")
    }

    /// Splits by `color` (ranks sharing a color form a new communicator,
    /// ordered by `key` then current rank). A negative color returns `None`
    /// (the MPI `MPI_UNDEFINED` case).
    pub fn split(&self, color: i64, key: i64) -> Option<Comm> {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        // The split rendezvous is keyed by (ctx, seq) so concurrent splits
        // of different communicators cannot collide.
        let table_seq = (self.ctx << 20) ^ seq;
        let (new_rank, members_world) = self.world.split_table.split(
            table_seq,
            self.size(),
            color,
            key,
            self.world_rank(self.rank),
        );
        if color < 0 {
            return None;
        }
        let ctx = mix_ctx(self.ctx, seq.wrapping_add(1), color);
        if let Some(check) = &self.world.check {
            check.register_ctx(ctx, (self.ctx, seq, color), self.world_rank(self.rank));
        }
        Some(Comm {
            world: self.world.clone(),
            ctx,
            rank: new_rank,
            members: Arc::new(members_world),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            agree_seq: Cell::new(0),
            shrink_seq: Cell::new(0),
        })
    }

    // ------------------------------------------------------------------
    // ULFM-style failure handling (revoke / shrink / agree)
    // ------------------------------------------------------------------

    /// World rank of the first member of this communicator known to have
    /// died, or `None` while everyone is (believed) alive. This is the
    /// failure detector consulted at every stuck point; it is purely local
    /// (a flag read), so detection adds no traffic.
    pub fn first_failed_member(&self) -> Option<usize> {
        self.members
            .iter()
            .copied()
            .find(|&w| self.world.is_failed(w))
    }

    /// `true` once the world has aborted (a peer panicked). Cancellation
    /// paths consult this to avoid racing teardown.
    pub fn world_aborted(&self) -> bool {
        self.world.is_aborted()
    }

    /// Revokes this communicator (ULFM `MPI_Comm_revoke`): every in-flight
    /// and future non-blocking operation on this context — on **every**
    /// member — surfaces [`crate::CollError::Revoked`] instead of making
    /// progress. Used by a rank that has detected a failure to interrupt
    /// peers still blocked in collectives that can never complete. Revoking
    /// an already-revoked communicator is a no-op.
    pub fn revoke(&self) {
        self.world.revoke_ctx(self.ctx);
    }

    /// `true` once this communicator has been revoked by any member.
    pub fn is_revoked(&self) -> bool {
        self.world.is_revoked(self.ctx)
    }

    /// A crash fault's trigger point: if the world's fault plan schedules
    /// this rank's death at tile boundary `tile`, the rank records itself
    /// failed (so survivors' failure detectors observe the death) and
    /// unwinds its thread with a payload the runtime recognises as an
    /// *injected* crash — survivors keep running and the world is not
    /// aborted. Free when no crash fault targets this rank.
    pub fn crash_point(&self, tile: usize) {
        let me = self.world_rank(self.rank);
        if self.faults().crash_at(me) == Some(tile) {
            self.world.mark_failed(me);
            std::panic::panic_any(crate::world::RankCrashed(me));
        }
    }

    /// A memory-corruption fault's trigger point, by analogy with
    /// [`Comm::crash_point`]: returns the seeded bit-flip site when the
    /// world's fault plan schedules a resident-memory bit-flip for this
    /// rank at tile boundary `tile` (the caller reduces the site hash over
    /// its buffer, see `faultplan::flip_seeded_bit`). Free when no bit-flip
    /// targets this rank.
    pub fn bitflip_point(&self, tile: usize) -> Option<u64> {
        let plan = self.faults();
        let me = self.world_rank(self.rank);
        (plan.bitflip_at(me) == Some(tile)).then(|| plan.bitflip_site(me))
    }

    /// Files a runtime-lint finding from a higher layer (recorded in
    /// checked runs, a no-op otherwise). The recovery layer uses this to
    /// report `MC007` when a stale checkpoint is consulted.
    pub fn report_finding(&self, id: LintId, message: String) {
        if let Some(check) = &self.world.check {
            check.add_finding(Finding {
                id,
                rank: Some(self.world_rank(self.rank)),
                cycle: Vec::new(),
                message,
            });
        }
    }

    /// Fault-aware consensus (ULFM `MPI_Comm_agree`): every *living* member
    /// contributes `local_flag`; returns the bitwise OR of all contributions
    /// together with the agreed set of dead members (world ranks). Members
    /// that die before contributing are excluded from the OR and included in
    /// the failure set; a member whose contribution was already in flight
    /// when it died is still counted. Never hangs on a dead peer.
    ///
    /// Every living member must call `agree` the same number of times (it is
    /// a collective); the rendezvous is sequenced independently of ordinary
    /// collectives, so ranks may reach it having abandoned different amounts
    /// of pipeline work.
    pub fn agree(&self, local_flag: u64) -> (u64, Vec<usize>) {
        let aseq = self.agree_seq.get();
        self.agree_seq.set(aseq + 1);
        // Distinct payload region (bit 39) keeps agree traffic out of the
        // ordinary collectives' `(seq << 8) | round` tag space.
        let tag = encode_tag(self.ctx, Kind::Coll, (1 << 39) | (aseq << 4));
        let words = self.world.size.div_ceil(64);

        let mut payload = vec![0u64; 1 + words];
        payload[0] = local_flag;
        for r in self.world.failed_set() {
            payload[1 + r / 64] |= 1 << (r % 64);
        }
        for dest in 0..self.size() {
            if dest == self.rank || self.world.is_failed(self.world_rank(dest)) {
                continue;
            }
            self.deliver(dest, tag, Box::new(payload.clone()));
        }

        let mut flags = local_flag;
        let mut bitmap: Vec<u64> = payload[1..].to_vec();
        let mb = self.my_mailbox();
        let bo = self.world.backoff;
        for src in 0..self.size() {
            if src == self.rank {
                continue;
            }
            let src_w = self.world_rank(src);
            let mut slice = bo.first();
            let mut park = 0u64;
            loop {
                if let Some(msg) = mb.try_take(src, tag) {
                    let v = *msg
                        .data
                        .downcast::<Vec<u64>>()
                        .unwrap_or_else(|_| panic!("agree payload type mismatch from {src_w}"));
                    flags |= v[0];
                    for (w, &word) in bitmap.iter_mut().zip(&v[1..]) {
                        *w |= word;
                    }
                    break;
                }
                if self.world.is_failed(src_w) {
                    // Scheduler-held contributions from the dead peer must
                    // not be lost: flush holds, re-check once, then give up.
                    mb.force_release();
                    if mb.has_match(src, tag) {
                        continue;
                    }
                    bitmap[src_w / 64] |= 1 << (src_w % 64);
                    break;
                }
                mb.wait_arrival(bo.park(slice, park));
                slice = bo.next(slice);
                park += 1;
            }
        }
        for r in self.world.failed_set() {
            bitmap[r / 64] |= 1 << (r % 64);
        }
        let failed = (0..self.world.size)
            .filter(|r| bitmap[r / 64] & (1 << (r % 64)) != 0)
            .collect();
        (flags, failed)
    }

    /// Builds a dense communicator of the survivors (ULFM
    /// `MPI_Comm_shrink`): internally agrees on the failure set, then every
    /// survivor deterministically derives the same membership (dead members
    /// removed, world-rank order preserved) and a fresh context. There is no
    /// extra rendezvous beyond the agreement — membership is a pure function
    /// of the agreed set, and mailboxes buffer any early traffic on the new
    /// context — so shrink cannot hang on the very failure it handles.
    pub fn shrink(&self) -> Comm {
        #[expect(clippy::disallowed_methods, reason = "shrink starts with an agree")]
        let (_flags, failed) = self.agree(0);
        let members_world: Vec<usize> = self
            .members
            .iter()
            .copied()
            .filter(|w| !failed.contains(w))
            .collect();
        let me = self.world_rank(self.rank);
        let new_rank = members_world
            .iter()
            .position(|&w| w == me)
            .expect("shrink called by a rank in the agreed failure set");
        let sseq = self.shrink_seq.get();
        self.shrink_seq.set(sseq + 1);
        // The context must be identical on every survivor: derive it from
        // the parent ctx, the shrink count, and the agreed failure set.
        let fail_hash = failed
            .iter()
            .fold(0x5u64, |h, &r| faultplan::mix(h ^ r as u64));
        let color = (fail_hash & 0x7fff_ffff) as i64;
        let seq = 0x5_1125u64.wrapping_add(sseq);
        let ctx = mix_ctx(self.ctx, seq, color);
        if let Some(check) = &self.world.check {
            check.register_ctx(ctx, (self.ctx, seq, color), me);
        }
        Comm {
            world: self.world.clone(),
            ctx,
            rank: new_rank,
            members: Arc::new(members_world),
            coll_seq: Cell::new(0),
            split_seq: Cell::new(0),
            agree_seq: Cell::new(0),
            shrink_seq: Cell::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn tag_encoding_is_injective_across_kinds() {
        let a = encode_tag(1, Kind::P2p, 5);
        let b = encode_tag(1, Kind::Coll, 5);
        let c = encode_tag(2, Kind::P2p, 5);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn send_recv_round_trip() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1.5f64, 2.5], 1, 7);
            } else {
                let mut buf = [0.0f64; 2];
                comm.recv(&mut buf, 0, 7);
                assert_eq!(buf, [1.5, 2.5]);
            }
        });
    }

    #[test]
    fn messages_with_different_tags_do_not_cross() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u32], 1, 10);
                comm.send(&[2u32], 1, 20);
            } else {
                // Receive in reverse tag order.
                let b = comm.recv_vec::<u32>(0, 20);
                let a = comm.recv_vec::<u32>(0, 10);
                assert_eq!((a[0], b[0]), (1, 2));
            }
        });
    }

    #[test]
    fn split_creates_independent_tag_spaces() {
        run(4, |comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color, comm.rank() as i64).unwrap();
            assert_eq!(sub.size(), 2);
            // Ranks 0,2 -> color 0 (sub ranks 0,1); ranks 1,3 -> color 1.
            let peer = 1 - sub.rank();
            sub.send(&[comm.rank() as u32], peer, 0);
            let got = sub.recv_vec::<u32>(peer, 0);
            // The peer's world rank differs from ours by 2.
            assert_eq!((got[0] as i64 - comm.rank() as i64).abs(), 2);
        });
    }

    #[test]
    fn dup_preserves_rank_and_size() {
        run(3, |comm| {
            let d = comm.dup();
            assert_eq!(d.rank(), comm.rank());
            assert_eq!(d.size(), comm.size());
            assert_ne!(d.ctx, comm.ctx);
        });
    }

    #[test]
    fn agree_ors_flags_across_living_members() {
        run(4, |comm| {
            let (flags, failed) = comm.agree(1u64 << comm.rank());
            assert_eq!(flags, 0b1111, "every member's flag must be OR'd in");
            assert!(failed.is_empty());
            // Agree is repeatable: a second round re-synchronises cleanly.
            let (flags, _) = comm.agree(u64::from(comm.rank() == 0));
            assert_eq!(flags, 1);
        });
    }

    #[test]
    fn agree_excludes_a_dead_member_and_reports_it() {
        let results = run(4, |comm| {
            if comm.rank() == 3 {
                comm.world.mark_failed(3);
                return None;
            }
            let (flags, failed) = comm.agree(1u64 << comm.rank());
            Some((flags, failed))
        });
        for (rank, r) in results.iter().enumerate() {
            if rank == 3 {
                assert!(r.is_none());
                continue;
            }
            let (flags, failed) = r.as_ref().expect("survivors agree");
            assert_eq!(
                *flags, 0b0111,
                "rank {rank}: dead member must not contribute"
            );
            assert_eq!(*failed, vec![3], "rank {rank}: failure set");
        }
    }

    #[test]
    fn shrink_renumbers_survivors_densely_and_communicates() {
        let results = run(4, |comm| {
            if comm.rank() == 1 {
                comm.world.mark_failed(1);
                return None;
            }
            let sub = comm.shrink();
            // The shrunk communicator must be fully usable: run a real
            // exchange over it.
            let send: Vec<u64> = (0..sub.size())
                .map(|d| (sub.rank() * 10 + d) as u64)
                .collect();
            let out = sub.ialltoall(&send, 1, vec![0u64; sub.size()]).wait(&sub);
            Some((sub.rank(), sub.size(), out))
        });
        // World ranks 0, 2, 3 survive and become sub ranks 0, 1, 2.
        let expect_rank = [Some(0), None, Some(1), Some(2)];
        for (wrank, r) in results.iter().enumerate() {
            match (r, expect_rank[wrank]) {
                (None, None) => {}
                (Some((sr, size, out)), Some(want)) => {
                    assert_eq!(*sr, want, "world rank {wrank}: dense renumbering");
                    assert_eq!(*size, 3);
                    for (s, &v) in out.iter().enumerate() {
                        assert_eq!(v, (s * 10 + want) as u64);
                    }
                }
                other => panic!("world rank {wrank}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_recv_length_panics() {
        run(1, |comm| {
            comm.send(&[1u8, 2, 3], 0, 0);
            let mut buf = [0u8; 2];
            comm.recv(&mut buf, 0, 0);
        });
    }
}
