//! # faultplan — deterministic, seeded fault injection for the overlapped
//! all-to-all
//!
//! The paper's design hinges on manual asynchronous progression: a rank that
//! stops calling `MPI_Test` stalls every peer's rounds. To claim the NEW
//! variant degrades gracefully under node imbalance and flaky interconnects,
//! we must be able to *reproduce* those conditions on demand. A [`FaultPlan`]
//! is a pure description of the conditions to inject, interpreted by both
//! backends:
//!
//! * the **mpisim** runtime turns straggler/send delays into real `sleep`s
//!   before non-blocking-collective sends, drops messages per the seeded
//!   drop decision (retrying within the retransmit budget), and blackholes
//!   a rank's late-round sends to force a hard stall;
//! * the **simnet** simulator scales a straggler rank's compute time and
//!   every rank's all-to-all round time, reproducing Figure-8-style
//!   breakdowns under imbalance without touching real wall clocks.
//!
//! Every decision is a pure function of the plan's `seed` and the message
//! coordinates `(collective, src, dest, round, attempt)`, so a faulted run
//! is exactly repeatable — the property the chaos sweeps and CI fault
//! matrix rely on.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use std::time::Duration;

/// A rank that runs slower than its peers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// World rank of the slow process.
    pub rank: usize,
    /// Multiplier (≥ 1) applied to this rank's compute phases by the
    /// simulated backend.
    pub compute_factor: f64,
    /// Real delay injected before each of this rank's non-blocking
    /// collective sends by the mpisim backend.
    pub send_delay: Duration,
}

impl Straggler {
    /// A straggler of dimensionless `severity ≥ 0`: compute runs
    /// `1 + severity` times slower (simnet) and every NBC send is preceded
    /// by `severity · 2 ms` of delay (mpisim).
    pub fn severity(rank: usize, severity: f64) -> Self {
        assert!(severity >= 0.0, "severity must be non-negative");
        Straggler {
            rank,
            compute_factor: 1.0 + severity,
            send_delay: Duration::from_micros((severity * 2000.0) as u64),
        }
    }
}

/// Transient message loss on the non-blocking all-to-all rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropSpec {
    /// Per-attempt probability in `[0, 1)` that a round send is dropped.
    pub probability: f64,
    /// Retransmit attempts allowed after the first drop before the budget
    /// is exhausted.
    pub max_retransmits: u32,
    /// What happens once the budget is exhausted: `true` surfaces a typed
    /// `Dropped` error, `false` force-delivers (a transient fault that
    /// healed).
    pub fail_after_budget: bool,
}

/// Silent payload corruption on the non-blocking all-to-all rounds: a
/// seeded fraction of round sends arrive with one flipped bit. Unlike
/// [`DropSpec`] there is no "force-deliver" mode — an exhausted retransmit
/// budget always surfaces a typed `Corrupt` error, because delivering data
/// known to be corrupt is never acceptable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptSpec {
    /// Per-attempt probability in `[0, 1)` that a round send is corrupted
    /// in transit.
    pub probability: f64,
    /// Retransmit attempts allowed after the first detected corruption
    /// before the budget is exhausted.
    pub max_retransmits: u32,
}

/// A single silent bit-flip in a rank's *resident* slab data — the memory
/// SDC scenario: no message is involved, so wire checksums cannot see it;
/// only the pipeline's own integrity checks (resident hashes / ABFT
/// checksum lines) can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBitflip {
    /// World rank whose resident data is hit.
    pub rank: usize,
    /// Tile boundary at which the flip lands (0 = before the first
    /// exchange) — the same coordinate system as [`FaultKind::RankCrash`].
    pub at_tile: usize,
}

/// A rank whose sends silently vanish after a given round — the hard-stall
/// scenario: the rank *believes* it sent, so it never retries, and every
/// peer's watchdog must fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackhole {
    /// World rank whose sends are swallowed.
    pub rank: usize,
    /// Rounds `> after_round` are blackholed; earlier rounds deliver.
    pub after_round: usize,
}

/// A rank that dies outright — the process-loss scenario. The rank's thread
/// unwinds at a tile (phase) boundary; survivors must detect the loss,
/// shrink, and recover rather than hang (ULFM-style, DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `rank` exits just before starting communication tile `at_tile`.
    RankCrash {
        /// World rank that dies.
        rank: usize,
        /// Tile boundary at which it dies (0 = before the first exchange).
        at_tile: usize,
    },
}

/// A deterministic, seeded description of the faults to inject into one run.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and is free to
/// consult on hot paths ([`FaultPlan::is_active`] is a field read).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Slow ranks.
    pub stragglers: Vec<Straggler>,
    /// Transient message loss.
    pub drop: Option<DropSpec>,
    /// Hard-stall injection.
    pub blackhole: Option<Blackhole>,
    /// Multiplier (≥ 1) on all-to-all round time (simnet): a degraded
    /// interconnect.
    pub link_degradation: f64,
    /// Process-loss injection (at most one per run).
    pub crash: Option<FaultKind>,
    /// Silent in-transit payload corruption.
    pub corrupt: Option<CorruptSpec>,
    /// Silent resident-memory bit-flip (at most one per run).
    pub bitflip: Option<MemoryBitflip>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan carrying `seed` for later probabilistic faults.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a straggler of the given dimensionless severity (see
    /// [`Straggler::severity`]).
    pub fn with_straggler(mut self, rank: usize, severity: f64) -> Self {
        self.stragglers.push(Straggler::severity(rank, severity));
        self
    }

    /// Adds a fully specified straggler.
    pub fn with_straggler_spec(mut self, s: Straggler) -> Self {
        self.stragglers.push(s);
        self
    }

    /// Enables transient message drops.
    pub fn with_drops(mut self, probability: f64, max_retransmits: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "drop probability must be in [0, 1)"
        );
        self.drop = Some(DropSpec {
            probability,
            max_retransmits,
            fail_after_budget: false,
        });
        self
    }

    /// Enables drops whose exhausted retransmit budget surfaces a typed
    /// `Dropped` error instead of force-delivering.
    pub fn with_fatal_drops(mut self, probability: f64, max_retransmits: u32) -> Self {
        self = self.with_drops(probability, max_retransmits);
        if let Some(d) = &mut self.drop {
            d.fail_after_budget = true;
        }
        self
    }

    /// Blackholes `rank`'s sends for rounds `> after_round`.
    pub fn with_blackhole(mut self, rank: usize, after_round: usize) -> Self {
        self.blackhole = Some(Blackhole { rank, after_round });
        self
    }

    /// Scales every all-to-all round by `factor ≥ 1` (simnet).
    pub fn with_degraded_links(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "link degradation must be ≥ 1");
        self.link_degradation = factor;
        self
    }

    /// Kills `rank` at the boundary of communication tile `at_tile`.
    pub fn with_rank_crash(mut self, rank: usize, at_tile: usize) -> Self {
        self.crash = Some(FaultKind::RankCrash { rank, at_tile });
        self
    }

    /// Enables silent in-transit payload corruption: each round send is
    /// independently corrupted with `probability`, and a detected
    /// corruption may be retransmitted up to `max_retransmits` times before
    /// the typed `Corrupt` error surfaces.
    pub fn with_payload_corruption(mut self, probability: f64, max_retransmits: u32) -> Self {
        assert!(
            (0.0..1.0).contains(&probability),
            "corruption probability must be in [0, 1)"
        );
        self.corrupt = Some(CorruptSpec {
            probability,
            max_retransmits,
        });
        self
    }

    /// Flips one bit of `rank`'s resident slab data at the boundary of
    /// communication tile `at_tile`.
    pub fn with_memory_bitflip(mut self, rank: usize, at_tile: usize) -> Self {
        self.bitflip = Some(MemoryBitflip { rank, at_tile });
        self
    }

    /// Reseeds the plan for an isolated scope (a service job, a retry
    /// attempt) identified by `salt`: the fault *structure* — which ranks
    /// straggle, what crashes, how degraded the links are — is preserved,
    /// but every probabilistic decision (drops, corruption, bit-flip
    /// positions) draws from an independent stream. Two jobs sharing one
    /// tenant-supplied plan therefore fault independently, which is what
    /// per-job fault scoping in `fft3d::service` needs.
    pub fn scoped(mut self, salt: u64) -> Self {
        self.seed = hash5(self.seed, salt, 0x5c09_e0d5, 0, 0);
        self
    }

    /// `true` when the plan injects anything at all — the hot-path gate.
    pub fn is_active(&self) -> bool {
        !self.stragglers.is_empty()
            || self.drop.is_some()
            || self.blackhole.is_some()
            || self.link_degradation > 1.0
            || self.crash.is_some()
            || self.corrupt.is_some()
            || self.bitflip.is_some()
    }

    /// `true` when the plan schedules a rank death.
    pub fn has_crash(&self) -> bool {
        self.crash.is_some()
    }

    /// The tile boundary at which `rank` is scheduled to die, if any.
    pub fn crash_at(&self, rank: usize) -> Option<usize> {
        match self.crash {
            Some(FaultKind::RankCrash { rank: r, at_tile }) if r == rank => Some(at_tile),
            _ => None,
        }
    }

    /// Compute-time multiplier for `rank` (1.0 for non-stragglers).
    pub fn compute_factor(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map(|s| s.compute_factor)
            .unwrap_or(1.0)
    }

    /// Delay to inject before one of `rank`'s NBC sends: its straggler
    /// delay, if it straggles.
    pub fn send_delay_for(&self, rank: usize) -> Duration {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map_or(Duration::ZERO, |s| s.send_delay)
    }

    /// All-to-all round-time multiplier (≥ 1).
    pub fn link_factor(&self) -> f64 {
        self.link_degradation.max(1.0)
    }

    /// `true` when `rank`'s send for `round` is blackholed.
    pub fn is_blackholed(&self, rank: usize, round: usize) -> bool {
        matches!(self.blackhole, Some(b) if b.rank == rank && round > b.after_round)
    }

    /// Seeded drop decision for one send attempt. `salt` distinguishes
    /// collectives (mpisim passes the collective sequence number), so the
    /// same round of different tiles draws independently.
    pub fn should_drop(
        &self,
        salt: u64,
        src: usize,
        dest: usize,
        round: usize,
        attempt: u32,
    ) -> bool {
        let Some(d) = self.drop else { return false };
        let h = hash5(
            self.seed,
            salt,
            ((src as u64) << 32) | dest as u64,
            round as u64,
            attempt as u64,
        );
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < d.probability
    }

    /// Retransmit attempts allowed after the first drop (0 when drops are
    /// disabled).
    pub fn max_retransmits(&self) -> u32 {
        self.drop.map(|d| d.max_retransmits).unwrap_or(0)
    }

    /// Whether an exhausted retransmit budget is fatal.
    pub fn fail_after_budget(&self) -> bool {
        self.drop.map(|d| d.fail_after_budget).unwrap_or(false)
    }

    /// Seeded corruption decision for one send attempt: `Some(h)` when this
    /// attempt's payload is corrupted in transit, where `h` is a nonzero
    /// draw-specific hash the injection site uses to pick the flipped bit.
    /// Drawn from a different domain than [`FaultPlan::should_drop`], so
    /// drop and corruption decisions on the same coordinates are
    /// independent.
    pub fn should_corrupt(
        &self,
        salt: u64,
        src: usize,
        dest: usize,
        round: usize,
        attempt: u32,
    ) -> Option<u64> {
        let c = self.corrupt?;
        let h = hash5(
            self.seed ^ 0xc0_44u64.rotate_left(32),
            salt,
            ((src as u64) << 32) | dest as u64,
            round as u64,
            attempt as u64,
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (u < c.probability).then(|| mix(h) | 1)
    }

    /// Retransmit attempts allowed after a detected corruption (0 when
    /// corruption is disabled).
    pub fn corrupt_retransmits(&self) -> u32 {
        self.corrupt.map(|c| c.max_retransmits).unwrap_or(0)
    }

    /// The tile boundary at which `rank`'s resident data takes a bit-flip,
    /// if any.
    pub fn bitflip_at(&self, rank: usize) -> Option<usize> {
        match self.bitflip {
            Some(b) if b.rank == rank => Some(b.at_tile),
            _ => None,
        }
    }

    /// Seeded site hash for `rank`'s memory bit-flip — the injection site
    /// reduces it modulo its buffer length / element width to pick the
    /// element and bit. Nonzero, so `h % n | h >> k` style reductions never
    /// all collapse to zero.
    pub fn bitflip_site(&self, rank: usize) -> u64 {
        let at = self.bitflip_at(rank).unwrap_or(0) as u64;
        hash5(
            self.seed ^ 0xb1_7fu64.rotate_left(24),
            rank as u64,
            at,
            0,
            0,
        ) | 1
    }
}

/// Byte-level view of a payload element: enough to checksum it on the wire
/// and to flip one of its bits for fault injection. Implemented here for
/// the integer and float primitives; `cfft` implements it for `Complex64`
/// (the orphan rule puts that impl next to the type).
///
/// The contract ties detection to injection: flipping any in-range bit of
/// any element MUST change the value [`PayloadBits::fold_bits`] folds, so a
/// seeded injected flip is always visible to a fold-based checksum.
pub trait PayloadBits {
    /// Bits per element (the range `flip_bit` accepts).
    const BITS: u32;

    /// Folds this element's bit pattern into the running lane state `h` of
    /// a [`checksum`], one `fold_word` round per 64-bit word.
    fn fold_bits(&self, h: u64) -> u64;

    /// Flips bit `bit ∈ [0, Self::BITS)` of this element's representation.
    fn flip_bit(&mut self, bit: u32);
}

macro_rules! payload_bits_int {
    ($($t:ty),*) => {$(
        impl PayloadBits for $t {
            const BITS: u32 = <$t>::BITS;
            fn fold_bits(&self, h: u64) -> u64 {
                fold_word(h, *self as u64)
            }
            fn flip_bit(&mut self, bit: u32) {
                *self ^= (1 as $t).rotate_left(bit % <$t>::BITS);
            }
        }
    )*};
}

payload_bits_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl PayloadBits for f32 {
    const BITS: u32 = 32;
    fn fold_bits(&self, h: u64) -> u64 {
        fold_word(h, self.to_bits() as u64)
    }
    fn flip_bit(&mut self, bit: u32) {
        *self = f32::from_bits(self.to_bits() ^ 1u32.rotate_left(bit % 32));
    }
}

impl PayloadBits for f64 {
    const BITS: u32 = 64;
    fn fold_bits(&self, h: u64) -> u64 {
        fold_word(h, self.to_bits())
    }
    fn flip_bit(&mut self, bit: u32) {
        *self = f64::from_bits(self.to_bits() ^ 1u64.rotate_left(bit % 64));
    }
}

/// Multiplier of [`fold_word`] (odd, so multiplying by it is a bijection
/// of `u64`; the first constant of [`mix`]).
const FOLD_MUL: u64 = 0xbf58_476d_1ce4_e5b9;

/// One round folding word `w` into lane state `h`: xor, xor-shift, multiply.
/// Every [`PayloadBits`] word goes through this one function.
///
/// For a fixed `w` it is a bijection of `h`, and for a fixed `h` it is
/// injective in `w`: `h ^ w` is, `x ^ (x >> 29)` is invertible (the top 29
/// bits of `x` survive, and each lower group follows from the one above),
/// and so is multiplication by an odd constant. That is all the certainty
/// argument of [`checksum`] needs; a second multiply round (the full
/// [`mix`] finalizer this fold used to be) only improves avalanche, which
/// the per-lane chains and the closing [`mix`] fold already provide, at
/// three times the cost per word of a sum that every tile pays four times
/// (seal, post-time verify, wire send, wire receive).
#[inline]
fn fold_word(h: u64, w: u64) -> u64 {
    let x = h ^ w;
    (x ^ (x >> 29)).wrapping_mul(FOLD_MUL)
}

/// Independent fold chains of [`checksum`]. One chain runs at the
/// multiplier's *latency*; eight interleaved chains keep it busy, so the
/// sum streams at close to its throughput.
const LANES: usize = 8;

/// Checksum of a payload slice: element `i` folds into lane `i mod LANES`
/// ([`PayloadBits::fold_bits`]), the lanes start from distinct seeds, and
/// the length and the lanes are folded into the result by one [`mix`] chain.
///
/// Deterministic, and sensitive to length and order (within a lane by the
/// chain, across lanes by the seeds and the final fold). Every step
/// (`fold_word`) is a bijection of its lane's state and never maps two
/// values of one word to the same state, so a change confined to one word of
/// one element — any single flipped bit in particular — changes that lane
/// and therefore the sum *with certainty*, not merely with high probability.
pub fn checksum<T: PayloadBits>(data: &[T]) -> u64 {
    let mut lanes = [0u64; LANES];
    for (j, lane) in lanes.iter_mut().enumerate() {
        *lane = mix(0x5ca1_ab1e ^ ((j as u64 + 1) << 32));
    }
    let mut groups = data.chunks_exact(LANES);
    for group in &mut groups {
        for (lane, v) in lanes.iter_mut().zip(group) {
            *lane = v.fold_bits(*lane);
        }
    }
    for (lane, v) in lanes.iter_mut().zip(groups.remainder()) {
        *lane = v.fold_bits(*lane);
    }
    let mut h = mix(0x5ca1_ab1e ^ data.len() as u64);
    for lane in lanes {
        h = mix(h ^ lane);
    }
    h
}

/// Flips one seeded bit of `data` in place: `site` (see
/// [`FaultPlan::bitflip_site`] / [`FaultPlan::should_corrupt`]) picks the
/// element and the bit within it. No-op on an empty slice. Returns the
/// `(element, bit)` coordinates actually hit.
pub fn flip_seeded_bit<T: PayloadBits>(data: &mut [T], site: u64) -> Option<(usize, u32)> {
    if data.is_empty() {
        return None;
    }
    let idx = (site % data.len() as u64) as usize;
    let bit = ((site >> 32) % T::BITS as u64) as u32;
    data[idx].flip_bit(bit);
    Some((idx, bit))
}

/// SplitMix64 finalizer — the workspace's shared seeded-decision primitive.
///
/// Public so every deterministic subsystem (fault injection here, the
/// `mpisim` virtual scheduler and its schedule exploration) draws from
/// the *same* mixing function: a schedule descriptor plus a seed fully
/// determines every decision, with no hidden RNG state anywhere.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes five words into one, order-sensitively (see [`mix`] for why this
/// is public).
pub fn hash5(a: u64, b: u64, c: u64, d: u64, e: u64) -> u64 {
    let mut h = mix(a);
    for w in [b, c, d, e] {
        h = mix(h ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inactive_and_injects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.compute_factor(3), 1.0);
        assert_eq!(p.send_delay_for(3), Duration::ZERO);
        assert_eq!(p.link_factor(), 1.0);
        assert!(!p.is_blackholed(0, 99));
        assert!(!p.should_drop(0, 0, 1, 2, 0));
        assert_eq!(p.max_retransmits(), 0);
    }

    #[test]
    fn straggler_affects_only_its_rank() {
        let p = FaultPlan::seeded(7).with_straggler(2, 1.5);
        assert!(p.is_active());
        assert!((p.compute_factor(2) - 2.5).abs() < 1e-12);
        assert_eq!(p.compute_factor(0), 1.0);
        assert_eq!(p.send_delay_for(2), Duration::from_millis(3));
        assert_eq!(p.send_delay_for(0), Duration::ZERO);
    }

    #[test]
    fn drop_decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_drops(0.5, 3);
        let b = FaultPlan::seeded(2).with_drops(0.5, 3);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..64).map(|r| p.should_drop(9, 0, 1, r, 0)).collect()
        };
        assert_eq!(decisions(&a), decisions(&a), "same seed ⇒ same decisions");
        assert_ne!(decisions(&a), decisions(&b), "different seed ⇒ different");
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let p = FaultPlan::seeded(42).with_drops(0.3, 3);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&i| p.should_drop(i as u64, i % 8, (i + 1) % 8, i % 16, 0))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn attempts_draw_independently() {
        // A dropped attempt must not doom every retransmit: some coordinate
        // with attempt 0 dropped must pass on a later attempt.
        let p = FaultPlan::seeded(5).with_drops(0.5, 8);
        let healed = (0..200).any(|r| {
            p.should_drop(1, 0, 1, r, 0) && !(1..=8).all(|a| p.should_drop(1, 0, 1, r, a))
        });
        assert!(healed);
    }

    #[test]
    fn blackhole_swallows_only_late_rounds_of_its_rank() {
        let p = FaultPlan::none().with_blackhole(1, 2);
        assert!(!p.is_blackholed(1, 2));
        assert!(p.is_blackholed(1, 3));
        assert!(!p.is_blackholed(0, 3));
    }

    #[test]
    fn fatal_drops_flip_the_budget_policy() {
        let transient = FaultPlan::seeded(3).with_drops(0.1, 2);
        assert!(!transient.fail_after_budget());
        let fatal = FaultPlan::seeded(3).with_fatal_drops(0.1, 2);
        assert!(fatal.fail_after_budget());
        assert_eq!(fatal.max_retransmits(), 2);
    }

    #[test]
    fn rank_crash_targets_only_its_rank() {
        let p = FaultPlan::seeded(11).with_rank_crash(2, 3);
        assert!(p.is_active());
        assert_eq!(p.crash_at(2), Some(3));
        assert_eq!(p.crash_at(0), None);
        assert_eq!(FaultPlan::none().crash_at(2), None);
    }

    #[test]
    fn degraded_links_scale_round_time() {
        let p = FaultPlan::none().with_degraded_links(2.5);
        assert!(p.is_active());
        assert!((p.link_factor() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn corruption_decisions_are_deterministic_and_independent_of_drops() {
        let p = FaultPlan::seeded(9)
            .with_drops(0.5, 3)
            .with_payload_corruption(0.5, 3);
        assert!(p.is_active());
        let corrupts = |p: &FaultPlan| -> Vec<bool> {
            (0..128)
                .map(|r| p.should_corrupt(7, 0, 1, r, 0).is_some())
                .collect()
        };
        assert_eq!(corrupts(&p), corrupts(&p), "same seed ⇒ same decisions");
        // Independence: on some coordinate the drop and corruption draws
        // must disagree both ways (drop without corrupt, corrupt without
        // drop) — they share coordinates but not a domain.
        let disagree = (0..128)
            .any(|r| p.should_drop(7, 0, 1, r, 0) && p.should_corrupt(7, 0, 1, r, 0).is_none())
            && (0..128).any(|r| {
                !p.should_drop(7, 0, 1, r, 0) && p.should_corrupt(7, 0, 1, r, 0).is_some()
            });
        assert!(disagree, "drop and corruption draws must be independent");
    }

    #[test]
    fn corruption_rate_tracks_probability() {
        let p = FaultPlan::seeded(42).with_payload_corruption(0.3, 3);
        let n = 10_000;
        let hits = (0..n)
            .filter(|&i| {
                p.should_corrupt(i as u64, i % 8, (i + 1) % 8, i % 16, 0)
                    .is_some()
            })
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn corrupt_attempts_draw_independently() {
        // A corrupted attempt must not doom every retransmit.
        let p = FaultPlan::seeded(5).with_payload_corruption(0.5, 8);
        let healed = (0..200).any(|r| {
            p.should_corrupt(1, 0, 1, r, 0).is_some()
                && !(1..=8).all(|a| p.should_corrupt(1, 0, 1, r, a).is_some())
        });
        assert!(healed);
        assert_eq!(p.corrupt_retransmits(), 8);
        assert_eq!(FaultPlan::none().corrupt_retransmits(), 0);
    }

    #[test]
    fn memory_bitflip_targets_only_its_rank() {
        let p = FaultPlan::seeded(11).with_memory_bitflip(2, 3);
        assert!(p.is_active());
        assert_eq!(p.bitflip_at(2), Some(3));
        assert_eq!(p.bitflip_at(0), None);
        assert_eq!(FaultPlan::none().bitflip_at(2), None);
        assert_eq!(
            p.bitflip_site(2),
            p.bitflip_site(2),
            "site is deterministic"
        );
        assert_ne!(
            p.bitflip_site(2),
            FaultPlan::seeded(12)
                .with_memory_bitflip(2, 3)
                .bitflip_site(2),
            "site is seed-sensitive"
        );
    }

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let mut data: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let clean = checksum(&data);
        assert_eq!(clean, checksum(&data), "checksum is deterministic");
        for site in [1u64, 0x1234_5678_9abc_def1, u64::MAX] {
            let (idx, bit) = flip_seeded_bit(&mut data, site).expect("non-empty");
            assert_ne!(checksum(&data), clean, "flip at ({idx}, {bit}) missed");
            data[idx].flip_bit(bit); // restore
            assert_eq!(checksum(&data), clean);
        }
    }

    #[test]
    fn checksum_distinguishes_length_and_order() {
        let a = [1u32, 2, 3];
        let b = [1u32, 2];
        let c = [2u32, 1, 3];
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_eq!(checksum::<u64>(&[]), checksum::<u64>(&[]));
    }

    /// Distinct, nonzero words with every byte populated.
    fn lane_test_data(len: usize) -> Vec<u64> {
        (0..len as u64)
            .map(|i| mix(i.wrapping_mul(0x9e37_79b9)) | 1)
            .collect()
    }

    #[test]
    fn checksum_sees_every_single_bit_flip_at_every_length() {
        // The certainty contract, exhaustively: partial groups, whole
        // groups, and every lane position.
        for len in 0..=4 * LANES + 1 {
            let mut data = lane_test_data(len);
            let clean = checksum(&data);
            assert_eq!(clean, checksum(&data.clone()), "equal input, equal sum");
            for idx in 0..len {
                for bit in 0..u64::BITS {
                    data[idx].flip_bit(bit);
                    assert_ne!(
                        checksum(&data),
                        clean,
                        "len {len}: flip ({idx}, {bit}) missed"
                    );
                    data[idx].flip_bit(bit);
                }
            }
            assert_eq!(checksum(&data), clean, "len {len}: flips restored");
        }
    }

    #[test]
    fn checksum_is_order_sensitive_within_and_across_lanes() {
        let data = lane_test_data(4 * LANES + 1);
        let clean = checksum(&data);
        // Same lane: indices congruent mod LANES.
        let mut same_lane = data.clone();
        same_lane.swap(1, 1 + 2 * LANES);
        assert_ne!(checksum(&same_lane), clean);
        // Different lanes, adjacent and far apart.
        for (a, b) in [(0, 1), (2, LANES + 5), (LANES - 1, 4 * LANES)] {
            let mut swapped = data.clone();
            swapped.swap(a, b);
            assert_ne!(checksum(&swapped), clean, "swap ({a}, {b}) missed");
        }
    }

    #[test]
    fn checksum_sees_an_appended_zero_element() {
        for len in 0..=2 * LANES + 1 {
            let mut data = vec![0u64; len];
            let all_zero = checksum(&data);
            data.push(0);
            assert_ne!(checksum(&data), all_zero, "zeros: {len} vs {}", len + 1);
            let mut data = lane_test_data(len);
            let clean = checksum(&data);
            data.push(0);
            assert_ne!(checksum(&data), clean, "{len} vs {}", len + 1);
        }
    }

    /// Undoes one [`fold_word`] round: the `x = h ^ w` it started from.
    fn unfold(y: u64) -> u64 {
        // Newton's iteration for the inverse of an odd number mod 2^64: each
        // step doubles the correct low bits, and `k·k ≡ 1 (mod 8)` gives 3.
        let mut inv = FOLD_MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(FOLD_MUL.wrapping_mul(inv)));
        }
        assert_eq!(inv.wrapping_mul(FOLD_MUL), 1);
        let z = y.wrapping_mul(inv);
        z ^ (z >> 29) ^ (z >> 58)
    }

    #[test]
    fn fold_is_a_bijection_of_the_state_and_injective_in_the_word() {
        // The certainty contract of `checksum`, per round: a left inverse
        // recovers the state given the word and the word given the state, so
        // neither two states nor two words can collide — for every word type
        // through the one shared fold.
        let samples: Vec<u64> = (0..200u64)
            .map(mix)
            .chain([0, 1, u64::MAX, 1 << 63, (1 << 29) - 1, 1 << 29])
            .collect();
        for &h in &samples {
            for &bits in &samples {
                let as_f64 = f64::from_bits(bits);
                assert_eq!(unfold(as_f64.fold_bits(h)) ^ bits, h);
                assert_eq!(unfold(as_f64.fold_bits(h)) ^ h, bits);
                let as_f32 = f32::from_bits(bits as u32);
                assert_eq!(unfold(as_f32.fold_bits(h)) ^ h, u64::from(bits as u32));
                let as_i32 = bits as i32;
                assert_eq!(unfold(as_i32.fold_bits(h)) ^ h, as_i32 as u64);
                assert_eq!(unfold(bits.fold_bits(h)) ^ h, bits);
            }
        }
    }

    #[test]
    fn flip_bit_round_trips_on_every_primitive() {
        fn check<T: PayloadBits + Copy + PartialEq + std::fmt::Debug>(v: T) {
            for bit in 0..T::BITS {
                let mut w = v;
                w.flip_bit(bit);
                assert_ne!(w.fold_bits(0), v.fold_bits(0), "bit {bit} invisible");
                w.flip_bit(bit);
                assert_eq!(w, v);
            }
        }
        check(0xa5u8);
        check(-7i32);
        check(123_456_789_012u64);
        check(0.577_f32);
        check(-2.75_f64);
    }
}
