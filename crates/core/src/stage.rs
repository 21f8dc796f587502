//! The stage cost table: what every tile of every simulated pipeline costs.
//!
//! A distributed transform is a sequence of *exchange stages* — local FFTs
//! and a pack, an all-to-all over a subgroup, an unpack and more local
//! FFTs — each tiled and windowed per Algorithm 1 (Dalcin, Mortensen &
//! Keyes describe N-D FFTs exactly this way). A slab transform is one
//! stage over all `p` ranks ([`slab`]); a pencil transform is two, over the
//! grid's rows and then its columns ([`pencil`]).
//!
//! [`StageCosts`] prices one stage on one [`MachineModel`]. Nothing else in
//! the crate calls the machine model's kernels: the simnet interpreter
//! ([`crate::sim_env`]) and the service's program emitter
//! ([`crate::service`]) both charge from this table, and both are driven by
//! [`crate::pipeline`], so a prediction and the simulation it gates cannot
//! disagree on what a tile costs or when it is posted. The table also owns
//! the §7 array-train rule — how many tiles a train of arrays has and which
//! tile opens an array ([`StageCosts::train_tiles`],
//! [`StageCosts::before_post`]) — so the two interpreters differ only in
//! what a phase, a post and a wait *do*.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::disallowed_types)
)]

use crate::decomp::Decomp;
use crate::params::{ProblemSpec, TuningParams};
use crate::pencil::PencilGrid;
use simnet::model::{MachineModel, TransposeCost, ELEM_BYTES};

/// The Figure-8 category a compute phase is booked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Fftz,
    Transpose,
    Ffty,
    Pack,
    Unpack,
    Fftx,
}

/// One kernel's share of a [`Phase`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Part {
    /// Seconds on one rank, already divided by the `Th` worker count
    /// (perfect scaling: the model's upper bound on what the `threads`
    /// knob can buy; the real backend reports what it actually bought).
    pub secs: f64,
    pub kind: Step,
}

/// One modeled stretch of compute, polled as a whole: `polls` evenly
/// spaced `MPI_Test` rounds over the in-flight window while `parts` run
/// back to back. The slab pipeline has a poll knob per kernel, so its
/// phases have one part each; the pencil backend has one poll budget per
/// side of an exchange, covering two kernels.
#[derive(Debug, Clone)]
pub(crate) struct Phase {
    pub polls: u32,
    pub parts: Vec<Part>,
}

impl Phase {
    /// Modeled duration of the whole stretch.
    pub(crate) fn secs(&self) -> f64 {
        self.parts.iter().map(|part| part.secs).sum()
    }
}

/// A phase of `parts` (unscaled seconds and category) on `th` workers.
fn phase(th: f64, polls: u32, parts: &[(f64, Step)]) -> Phase {
    let parts = parts.iter().map(|&(secs, kind)| Part {
        secs: secs / th,
        kind,
    });
    Phase {
        polls,
        parts: parts.collect(),
    }
}

/// What one communication tile costs.
#[derive(Debug, Clone)]
pub(crate) struct TileCosts {
    /// Compute before the tile's post (Algorithm 2's side of the window).
    pub pre: Vec<Phase>,
    /// Compute after the tile's wait (Algorithm 3's side).
    pub post: Vec<Phase>,
    /// All-to-all payload for each peer of the subgroup.
    pub bytes_per_peer: u64,
}

/// The cost table of one exchange stage on one rank.
#[derive(Debug, Clone)]
pub(crate) struct StageCosts {
    /// Ranks in the exchange's subgroup.
    pub group: usize,
    /// Communication tiles per array.
    pub tiles: usize,
    /// Window `W`, capped at the tile count (a wider window cannot fill).
    pub window: usize,
    /// Once-per-array phases ahead of the array's first tile (the slab's
    /// FFTz and Transpose). Array 0's run before the window opens; a later
    /// array's are the head of [`Self::before_post`], and only there do
    /// their polls matter — the previous array's tail is still in flight.
    pub fixed: Vec<Phase>,
    full: TileCosts,
    /// The last tile of an array, which may be short.
    last: TileCosts,
}

impl StageCosts {
    /// Costs of tile `i` of an array train (tile `i` belongs to array
    /// `i / tiles`).
    pub(crate) fn tile(&self, i: usize) -> &TileCosts {
        if (i + 1) % self.tiles == 0 {
            &self.last
        } else {
            &self.full
        }
    }

    /// Tiles in a train of `arrays` arrays streamed through this stage with
    /// the window kept open across array boundaries (§7).
    pub(crate) fn train_tiles(&self, arrays: usize) -> usize {
        arrays * self.tiles
    }

    /// The compute phases ahead of tile `i`'s post. Tile `i` with
    /// `i ≠ 0 ∧ i mod tiles = 0` opens an array, whose fixed phases run
    /// there — overlapping the previous array's in-flight tail — before the
    /// tile's own.
    pub(crate) fn before_post(&self, i: usize) -> impl Iterator<Item = &Phase> {
        let opens_array = i != 0 && i % self.tiles == 0;
        let fixed = if opens_array { &self.fixed[..] } else { &[] };
        fixed.iter().chain(&self.tile(i).pre)
    }
}

/// The slab pipeline as one stage over all `p` ranks, priced for `rank`
/// (rank 0 carries the big blocks of a ragged split, so it is the one a
/// conservative prediction prices).
pub(crate) fn slab(
    machine: &MachineModel,
    spec: &ProblemSpec,
    params: &TuningParams,
    rank: usize,
    transpose_cost: TransposeCost,
) -> StageCosts {
    let d = Decomp::new(spec.nx, spec.ny, spec.p);
    let (nxl, nyl) = (d.x.count(rank), d.y.count(rank));
    let (nx, ny, nz) = (spec.nx, spec.ny, spec.nz);
    let th = params.threads.max(1) as f64;
    let phase = |secs: f64, polls: u32, kind: Step| phase(th, polls, &[(secs, kind)]);
    // Uniform-block approximation of the v-variant: peers receive the
    // average y-share. Exact for the divisible cases the paper reports.
    let y_share = (ny / spec.p.max(1)) as u64;
    let tile = |tz: usize| {
        let pack_bytes = (tz * nxl * ny) as u64 * ELEM_BYTES;
        let pack_subtile =
            (params.px.min(nxl.max(1)) * ny * params.pz.min(tz.max(1))) as u64 * ELEM_BYTES;
        // Pack's innermost contiguous run is the per-destination y share;
        // Unpack's is the per-source x share (the read side).
        let pack_run = y_share.max(1) * ELEM_BYTES;
        let unpack_bytes = (tz * nyl * nx) as u64 * ELEM_BYTES;
        let unpack_subtile =
            (nx * params.uy.min(nyl.max(1)) * params.uz.min(tz.max(1))) as u64 * ELEM_BYTES;
        let unpack_run = (nx / spec.p.max(1)).max(1) as u64 * ELEM_BYTES;
        TileCosts {
            pre: vec![
                phase(
                    machine.fft_batch(ny, (nxl * tz) as u64),
                    params.fy,
                    Step::Ffty,
                ),
                phase(
                    machine.pack(pack_bytes, pack_subtile, pack_run),
                    params.fp,
                    Step::Pack,
                ),
            ],
            post: vec![
                phase(
                    machine.pack(unpack_bytes, unpack_subtile, unpack_run),
                    params.fu,
                    Step::Unpack,
                ),
                phase(
                    machine.fft_batch(nx, (nyl * tz) as u64),
                    params.fx,
                    Step::Fftx,
                ),
            ],
            bytes_per_peer: tz as u64 * nxl as u64 * y_share * ELEM_BYTES,
        }
    };
    let tiles = params.tiles(spec);
    let full_len = params.t.min(nz);
    let slab_bytes = (nxl * ny * nz) as u64 * ELEM_BYTES;
    // FFTz and Transpose have no knob of their own; at an array boundary
    // they poll as often as the busier per-tile FFT.
    let fixed_polls = params.fy.max(params.fx);
    StageCosts {
        group: spec.p,
        tiles,
        window: params.w.min(tiles.max(1)),
        fixed: vec![
            phase(
                machine.fft_batch(nz, (nxl * ny) as u64),
                fixed_polls,
                Step::Fftz,
            ),
            phase(
                machine.transpose(slab_bytes, transpose_cost),
                fixed_polls,
                Step::Transpose,
            ),
        ],
        full: tile(full_len),
        last: tile(nz - tiles.saturating_sub(1) * full_len),
    }
}

/// The overlapped pencil pipeline as two stages, honouring the tuning
/// vector the way [`crate::PencilSession`] does: `t`
/// planes per tile along the tiled axis, window `w`, `fp` polls before each
/// post, `fu` + `fy` (row stage) or `fu` + `fx` (column stage) after each
/// wait. Ranks are priced at the largest block of each split, and every
/// tile at the full tile size.
///
/// * Row stage — z ↔ y within a row (`pc` ranks), tiled along local x:
///   FFTz + Pack before the exchange, Unpack + FFTy after.
/// * Column stage — y ↔ x within a column (`pr` ranks), tiled along local
///   z: Pack before, Unpack + FFTx after.
pub(crate) fn pencil(
    machine: &MachineModel,
    spec: &ProblemSpec,
    grid: PencilGrid,
    params: &TuningParams,
) -> [StageCosts; 2] {
    let (pr, pc) = (grid.pr.max(1), grid.pc.max(1));
    let (nx, ny, nz) = (spec.nx, spec.ny, spec.nz);
    let nxl = nx.div_ceil(pr).max(1);
    let nyc = ny.div_ceil(pc).max(1);
    let nzl = nz.div_ceil(pc).max(1);
    let ny2l = ny.div_ceil(pr).max(1);
    let cache = machine.subtile_cache_bytes;
    let th = params.threads.max(1) as f64;
    let phase = |polls: u32, parts: &[(f64, Step)]| phase(th, polls, parts);
    let run = |elems: usize| elems.max(1) as u64 * ELEM_BYTES;
    let stage = |group: usize, extent: usize, tile: &dyn Fn(usize) -> TileCosts| {
        let t = params.t.clamp(1, extent);
        let tiles = extent.div_ceil(t);
        let full = tile(t);
        StageCosts {
            group,
            tiles,
            window: params.w.min(tiles),
            fixed: Vec::new(),
            last: full.clone(),
            full,
        }
    };
    let row = stage(pc, nxl, &|xt| {
        let bytes = (xt * nyc * nz) as u64 * ELEM_BYTES;
        TileCosts {
            pre: vec![phase(
                params.fp,
                &[
                    (machine.fft_batch(nz, (xt * nyc) as u64), Step::Fftz),
                    (machine.pack(bytes, cache, run(nzl)), Step::Pack),
                ],
            )],
            post: vec![phase(
                params.fu + params.fy,
                &[
                    (machine.pack(bytes, cache, run(ny / pc)), Step::Unpack),
                    (machine.fft_batch(ny, (xt * nzl) as u64), Step::Ffty),
                ],
            )],
            bytes_per_peer: bytes / pc as u64,
        }
    });
    let col = stage(pr, nzl, &|zt| {
        let bytes = (nxl * ny * zt) as u64 * ELEM_BYTES;
        TileCosts {
            pre: vec![phase(
                params.fp,
                &[(machine.pack(bytes, cache, run(ny / pr)), Step::Pack)],
            )],
            post: vec![phase(
                params.fu + params.fx,
                &[
                    (machine.pack(bytes, cache, run(nx / pr)), Step::Unpack),
                    (machine.fft_batch(nx, (ny2l * zt) as u64), Step::Fftx),
                ],
            )],
            bytes_per_peer: bytes / pr as u64,
        }
    });
    [row, col]
}
