//! Typed errors for the transform entry points.
//!
//! The three entry points — [`crate::FftSession`], [`crate::PencilSession`]
//! and [`crate::sim_env::Simulation`] — surface misuse (infeasible tuning
//! parameters, a grid or communicator of the wrong size) and a stalled peer
//! as values of this [`Error`] type, never as a panic or an endless spin,
//! and the resilient pipeline driver ([`crate::pipeline::try_run_new`])
//! reports which tile the fault hit.

use crate::params::ParamError;

/// Why a distributed transform could not run (or complete).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The tuning parameters fail validation for the problem and rank
    /// count; carries the specific constraint violated.
    InfeasibleParams(ParamError),
    /// A pencil process grid does not cover the ranks it was asked to run
    /// over (`pr · pc ≠ p`): the grid disagrees with the communicator size
    /// or with `spec.p` — for the slab, the communicator (the `size × 1`
    /// grid) disagrees with `spec.p`. Both sessions return this instead of
    /// asserting, so a mis-sized grid is a recoverable caller error, not a
    /// panic inside a collective.
    GridMismatch {
        /// Grid rows.
        pr: usize,
        /// Grid columns.
        pc: usize,
        /// Ranks the grid must cover exactly.
        expected: usize,
    },
    /// A tile's all-to-all made no progress for the configured watchdog
    /// timeout, and the degradation ladder ran out of rungs.
    Stalled {
        /// Communication tile whose exchange stalled.
        tile: usize,
        /// First incomplete round of that exchange's schedule.
        round: usize,
        /// **World rank** whose block the round is missing — the same
        /// numbering [`Error::RankFailed`] uses, so the two stay comparable
        /// after a `shrink()` renumbers communicator ranks.
        peer: usize,
    },
    /// A tile's all-to-all lost a round send past the fault plan's
    /// retransmit budget.
    Dropped {
        /// Communication tile whose exchange lost data.
        tile: usize,
        /// The round whose send was lost.
        round: usize,
        /// Destination rank of the lost block.
        peer: usize,
    },
    /// A peer process died (ULFM `MPI_ERR_PROC_FAILED` analogue): one of
    /// the tile's operations targeted a rank the runtime knows to be dead.
    /// Recoverable via [`crate::recover::run_recoverable`].
    RankFailed {
        /// Communication tile whose exchange observed the death.
        tile: usize,
        /// World rank of the failed process.
        rank: usize,
    },
    /// The communicator was revoked by a peer (ULFM `MPI_ERR_REVOKED`
    /// analogue): another rank hit a failure first and poisoned in-flight
    /// operations so everyone reaches the recovery path together.
    Revoked {
        /// Communication tile whose exchange was poisoned.
        tile: usize,
    },
    /// Silent data corruption was detected by an integrity check: a wire
    /// checksum past its retransmit budget, a staging-buffer hash mismatch,
    /// or an ABFT linearity check on a compute stage. The data was **not**
    /// used; depending on the stage the pipeline may heal transparently
    /// (re-pack and retransmit) before this surfaces.
    IntegrityFailed {
        /// Communication tile whose data failed verification.
        tile: usize,
        /// Which integrity layer caught it.
        stage: IntegrityStage,
    },
    /// Recovery was attempted but cannot proceed — e.g. a failed rank's
    /// input slab has no surviving source; carries the reason. Agreed on by
    /// all survivors, so every living rank returns this same value.
    Unrecoverable(&'static str),
    /// The post-recovery self-verification (Parseval energy check) did not
    /// hold within tolerance: the recomputed result is not trusted.
    VerificationFailed,
    /// A batched entry point was handed zero work items (`narrays == 0`,
    /// an empty job train): there is nothing to transform.
    EmptyBatch,
    /// An invariant the pipeline relies on was violated (a bug, not an
    /// environmental fault); carries a static description.
    Internal(&'static str),
}

/// Which integrity layer detected silent data corruption (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityStage {
    /// The mpisim wire checksum: a round payload corrupted in transit,
    /// past the link-layer retransmit budget.
    Wire,
    /// The resident hash over the packed staging buffer: the data changed
    /// between pack and post (memory SDC at a tile boundary).
    Pack,
    /// The ABFT checksum line through the FFTy stage: the transformed
    /// batch no longer sums to the transformed sum (compute SDC).
    Ffty,
    /// The ABFT checksum line through the FFTx stage.
    Fftx,
}

impl std::fmt::Display for IntegrityStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IntegrityStage::Wire => "wire checksum",
            IntegrityStage::Pack => "staging-buffer hash",
            IntegrityStage::Ffty => "FFTy ABFT checksum line",
            IntegrityStage::Fftx => "FFTx ABFT checksum line",
        })
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Keep the "infeasible parameters" prefix: the panicking legacy
            // wrappers format this Display, and existing callers match on
            // that message.
            Error::InfeasibleParams(e) => write!(f, "infeasible parameters: {e}"),
            Error::GridMismatch { pr, pc, expected } => write!(
                f,
                "pencil grid {pr}x{pc} covers {} rank(s), expected {expected}",
                pr * pc
            ),
            Error::Stalled { tile, round, peer } => write!(
                f,
                "tile {tile} stalled in round {round} waiting on rank {peer}"
            ),
            Error::Dropped { tile, round, peer } => write!(
                f,
                "tile {tile} lost its round {round} send to rank {peer} past the retransmit budget"
            ),
            Error::RankFailed { tile, rank } => {
                write!(f, "tile {tile} observed the death of rank {rank}")
            }
            Error::Revoked { tile } => {
                write!(f, "tile {tile} interrupted: communicator revoked by a peer")
            }
            Error::IntegrityFailed { tile, stage } => write!(
                f,
                "tile {tile} failed its {stage} — silent corruption detected"
            ),
            Error::EmptyBatch => write!(f, "empty batch: zero arrays to transform"),
            Error::Unrecoverable(why) => write!(f, "unrecoverable failure: {why}"),
            Error::VerificationFailed => {
                write!(f, "post-recovery verification failed: energy mismatch")
            }
            Error::Internal(msg) => write!(f, "internal pipeline error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParamError> for Error {
    fn from(e: ParamError) -> Self {
        Error::InfeasibleParams(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_the_legacy_infeasible_prefix() {
        let e = Error::InfeasibleParams(ParamError::Window(9));
        assert!(e.to_string().starts_with("infeasible parameters: "));
    }

    #[test]
    fn grid_mismatch_names_grid_and_expectation() {
        let e = Error::GridMismatch {
            pr: 2,
            pc: 3,
            expected: 8,
        };
        let s = e.to_string();
        assert!(
            s.contains("2x3") && s.contains("6") && s.contains("8"),
            "{s}"
        );
    }

    #[test]
    fn fault_errors_name_their_coordinates() {
        let s = Error::Stalled {
            tile: 3,
            round: 2,
            peer: 5,
        }
        .to_string();
        assert!(s.contains("tile 3") && s.contains("round 2") && s.contains("rank 5"));
        let d = Error::Dropped {
            tile: 1,
            round: 4,
            peer: 0,
        }
        .to_string();
        assert!(d.contains("tile 1") && d.contains("round 4") && d.contains("rank 0"));
    }

    #[test]
    fn failure_errors_name_tile_and_rank() {
        let e = Error::RankFailed { tile: 2, rank: 3 };
        let s = e.to_string();
        assert!(s.contains("tile 2") && s.contains("rank 3"), "{s}");
        let r = Error::Revoked { tile: 5 }.to_string();
        assert!(r.contains("tile 5") && r.contains("revoked"), "{r}");
        assert!(Error::Unrecoverable("no input source")
            .to_string()
            .contains("no input source"));
        assert!(Error::VerificationFailed.to_string().contains("energy"));
    }

    #[test]
    fn empty_batch_names_the_cause() {
        let s = Error::EmptyBatch.to_string();
        assert!(
            s.contains("empty batch") && s.contains("zero arrays"),
            "{s}"
        );
    }

    #[test]
    fn integrity_errors_name_tile_and_stage() {
        for (stage, needle) in [
            (IntegrityStage::Wire, "wire"),
            (IntegrityStage::Pack, "staging"),
            (IntegrityStage::Ffty, "FFTy"),
            (IntegrityStage::Fftx, "FFTx"),
        ] {
            let s = Error::IntegrityFailed { tile: 4, stage }.to_string();
            assert!(s.contains("tile 4") && s.contains(needle), "{s}");
        }
    }
}
