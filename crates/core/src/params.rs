//! The tunable parameters (Table 1 of the paper, plus an intra-rank thread
//! count `Th`), their feasibility rules, and the one statement of what a
//! [`Variant`] requires of its input (`Variant::check` — the only
//! validation either backend runs before a slab transform) and of the
//! parameters it actually runs with (`Variant::resolve`).

use crate::real_env::Variant;
use simnet::model::TransposeCost;

/// Size and process count of one distributed 3-D FFT problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSpec {
    /// Elements along x.
    pub nx: usize,
    /// Elements along y.
    pub ny: usize,
    /// Elements along z.
    pub nz: usize,
    /// Number of parallel processes.
    pub p: usize,
}

impl ProblemSpec {
    /// A cubic problem (`N³` elements), the shape every experiment in the
    /// paper uses.
    pub fn cube(n: usize, p: usize) -> Self {
        ProblemSpec {
            nx: n,
            ny: n,
            nz: n,
            p,
        }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// `true` for degenerate zero-size problems.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the §3.5 fast-transpose path applies.
    pub fn square_xy(&self) -> bool {
        self.nx == self.ny
    }

    /// A zero-extent axis has no transform; planning a size-1 stand-in
    /// would silently "succeed" on an empty problem, so every entry point
    /// rejects it before touching plans — and zero ranks before anything
    /// divides by `p`.
    pub(crate) fn check_extents(&self) -> Result<(), ParamError> {
        if self.p == 0 {
            return Err(ParamError::ZeroRanks);
        }
        for (axis, n) in [("nx", self.nx), ("ny", self.ny), ("nz", self.nz)] {
            if n == 0 {
                return Err(ParamError::ZeroExtent(axis));
            }
        }
        Ok(())
    }
}

/// The tunable parameters of the overlapped 3-D FFT: the paper's ten
/// (Table 1) plus `Th`, the intra-rank worker-thread count for the batched
/// kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningParams {
    /// `T` — elements on z per communication tile.
    pub t: usize,
    /// `W` — max tiles in concurrent all-to-all flight.
    pub w: usize,
    /// `Px` — sub-tile width on x during Pack.
    pub px: usize,
    /// `Pz` — sub-tile depth on z during Pack.
    pub pz: usize,
    /// `Uy` — sub-tile height on y during Unpack.
    pub uy: usize,
    /// `Uz` — sub-tile depth on z during Unpack.
    pub uz: usize,
    /// `Fy` — `MPI_Test` calls during FFTy per tile.
    pub fy: u32,
    /// `Fp` — `MPI_Test` calls during Pack per tile.
    pub fp: u32,
    /// `Fu` — `MPI_Test` calls during Unpack per tile.
    pub fu: u32,
    /// `Fx` — `MPI_Test` calls during FFTx per tile.
    pub fx: u32,
    /// `Th` — worker threads for the intra-rank batched kernels (FFT
    /// batches, transposes, Pack/Unpack sub-tiles). `1` keeps every kernel
    /// on the rank's own thread.
    pub threads: usize,
}

/// Why a parameter configuration is infeasible for a given problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// `T` outside `1..=Nz`.
    TileSize(usize),
    /// `W` outside `1..=⌈Nz/T⌉` (a window wider than the tile count is
    /// wasted but harmless; wider than Nz tiles is rejected as nonsense).
    Window(usize),
    /// `Px` outside `1..=⌈Nx/p⌉` (the local slab width).
    PackX(usize),
    /// `Pz` outside `1..=T`.
    PackZ(usize),
    /// `Uy` outside `1..=⌈Ny/p⌉` (the local output slab height).
    UnpackY(usize),
    /// `Uz` outside `1..=T`.
    UnpackZ(usize),
    /// `Th` below 1 (a pipeline with no compute threads cannot progress).
    Threads(usize),
    /// A problem axis has zero extent; planning a transform for it is
    /// meaningless. Carries the axis name.
    ZeroExtent(&'static str),
    /// A process grid was requested over zero ranks (`p = 0`); there is no
    /// valid decomposition of anything over an empty communicator.
    ZeroRanks,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::TileSize(v) => write!(f, "T = {v} out of range"),
            ParamError::Window(v) => write!(f, "W = {v} out of range"),
            ParamError::PackX(v) => write!(f, "Px = {v} out of range"),
            ParamError::PackZ(v) => write!(f, "Pz = {v} exceeds T"),
            ParamError::UnpackY(v) => write!(f, "Uy = {v} out of range"),
            ParamError::UnpackZ(v) => write!(f, "Uz = {v} exceeds T"),
            ParamError::Threads(v) => write!(f, "Th = {v} out of range"),
            ParamError::ZeroExtent(axis) => write!(f, "axis {axis} has zero extent"),
            ParamError::ZeroRanks => write!(f, "cannot build a process grid over zero ranks"),
        }
    }
}

impl std::error::Error for ParamError {}

impl TuningParams {
    /// Validates the cross-parameter constraints of §4.4 ("the tile size T
    /// must be ≥ 1 and ≤ Nz, and the sub-tile size Pz must be ≥ 1 and
    /// ≤ T", etc.) against `spec`.
    pub fn validate(&self, spec: &ProblemSpec) -> Result<(), ParamError> {
        self.validate_without_window(spec)?;
        let tiles = spec.nz.div_ceil(self.t);
        if self.w < 1 || self.w > tiles {
            return Err(ParamError::Window(self.w));
        }
        Ok(())
    }

    /// [`Self::validate`] minus the window-range rule: the checks that must
    /// hold even for the non-overlapped NEW-0 encoding (`w = 0`), where a
    /// window constraint is meaningless but a zero `Px`/`Uy`/`T` would still
    /// divide by zero deeper in the pipeline.
    pub fn validate_without_window(&self, spec: &ProblemSpec) -> Result<(), ParamError> {
        let nxl = spec.nx.div_ceil(spec.p.max(1));
        let nyl = spec.ny.div_ceil(spec.p.max(1));
        if self.t < 1 || self.t > spec.nz {
            return Err(ParamError::TileSize(self.t));
        }
        if self.px < 1 || self.px > nxl {
            return Err(ParamError::PackX(self.px));
        }
        if self.pz < 1 || self.pz > self.t {
            return Err(ParamError::PackZ(self.pz));
        }
        if self.uy < 1 || self.uy > nyl {
            return Err(ParamError::UnpackY(self.uy));
        }
        if self.uz < 1 || self.uz > self.t {
            return Err(ParamError::UnpackZ(self.uz));
        }
        if self.threads < 1 {
            return Err(ParamError::Threads(self.threads));
        }
        Ok(())
    }

    /// `true` when [`Self::validate`] passes.
    pub fn is_feasible(&self, spec: &ProblemSpec) -> bool {
        self.validate(spec).is_ok()
    }

    /// Number of communication tiles `k = ⌈Nz / T⌉` (Algorithm 1 line 3).
    pub fn tiles(&self, spec: &ProblemSpec) -> usize {
        spec.nz.div_ceil(self.t)
    }

    /// The §4.4 default point the initial simplex is built around:
    /// `T = Nz/16`, `W = 2`, sub-tiles sized to fit 8 Ki elements in a
    /// 256 KiB cache, `F* = p/2`.
    pub fn seed(spec: &ProblemSpec) -> TuningParams {
        let nxl = spec.nx.div_ceil(spec.p.max(1));
        let nyl = spec.ny.div_ceil(spec.p.max(1));
        let t = (spec.nz / 16).max(1);
        let px = (8192 / spec.ny.max(1)).clamp(1, nxl);
        let pz = (8192 / spec.ny.max(1) / px.max(1)).clamp(1, t);
        let uy = (8192 / spec.nx.max(1)).clamp(1, nyl);
        let uz = (8192 / spec.nx.max(1) / uy.max(1)).clamp(1, t);
        let f = (spec.p / 2).max(1) as u32;
        let tiles = spec.nz.div_ceil(t);
        TuningParams {
            t,
            w: 2.min(tiles),
            px,
            pz,
            uy,
            uz,
            fy: f,
            fp: f,
            fu: f,
            fx: f,
            threads: 1,
        }
    }

    /// The non-overlapped variant of a configuration: the paper's NEW-0
    /// ("`W` and all the frequency parameters are set to be zero with all
    /// the other parameters equal"). Encoded here as `w = 0` plus zero poll
    /// counts; the pipeline driver then posts and waits per tile.
    pub fn without_overlap(mut self) -> TuningParams {
        self.w = 0;
        self.fy = 0;
        self.fp = 0;
        self.fu = 0;
        self.fx = 0;
        self
    }
}

impl Variant {
    /// What both backends require of `(spec, params)` before `self` runs:
    /// at least one rank, non-zero extents and, for NEW — which takes the
    /// parameters literally — their feasibility. The non-overlapped NEW-0
    /// encoding sets `w = 0`, which the window-range rule rejects, but every
    /// other constraint must still hold (a zero `Px`/`Uy`/`T` would divide
    /// by zero in the stage). TH and FFTW rewrite the parameters themselves
    /// ([`Variant::resolve`]), so only the tile size they share is checked.
    pub(crate) fn check(self, spec: &ProblemSpec, params: &TuningParams) -> Result<(), ParamError> {
        spec.check_extents()?;
        match self {
            Variant::New if params.w == 0 => params.validate_without_window(spec),
            Variant::New => params.validate(spec),
            Variant::Th | Variant::Fftw if params.t < 1 || params.t > spec.nz => {
                Err(ParamError::TileSize(params.t))
            }
            Variant::Th | Variant::Fftw => Ok(()),
        }
    }

    /// The parameters and the Transpose tier `self` runs with, given the
    /// caller's `params` — stated once for both backends: the real session
    /// executes exactly what the simulator prices (DESIGN.md §6).
    pub(crate) fn resolve(
        self,
        spec: &ProblemSpec,
        params: TuningParams,
    ) -> (TuningParams, TransposeCost) {
        // The §3.5 fast path needs `Nx = Ny`.
        let tier = if spec.square_xy() {
            TransposeCost::Fast
        } else {
            TransposeCost::Generic
        };
        let threads = params.threads.max(1);
        match self {
            Variant::New => (params, tier),
            // TH: tile, window and the FFTy/Pack polls honoured, but no loop
            // tiling, no polls during Unpack/FFTx, and a plain rearrangement.
            Variant::Th => {
                let p = TuningParams {
                    px: spec.nx.div_ceil(spec.p).max(1),
                    pz: params.t,
                    uy: spec.ny.div_ceil(spec.p).max(1),
                    uz: params.t,
                    fu: 0,
                    fx: 0,
                    threads,
                    ..params
                };
                (p, TransposeCost::Naive)
            }
            // FFTW: one tile spanning the whole slab, no window, no polls.
            // Its internal copy loops are cache-blocked (its planner picks
            // good buffer sizes), so it gets seed-quality sub-tiles, and its
            // rearrangement is as optimised as NEW's (Figure 8 shows NEW-0's
            // Transpose equal to NEW's, and the paper treats FFTW ≈ NEW-0):
            // what it lacks is overlap.
            Variant::Fftw => {
                let p = TuningParams {
                    t: spec.nz,
                    threads,
                    ..TuningParams::seed(spec).without_overlap()
                };
                (p, tier)
            }
        }
    }
}

/// The three parameters of the TH comparator (Hoefler et al.'s kernel,
/// auto-tuned the same way for fairness — §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThParams {
    /// Communication tile size.
    pub t: usize,
    /// Window size.
    pub w: usize,
    /// `MPI_Test` calls per tile (all during FFTy+Pack; TH does not overlap
    /// Unpack/FFTx).
    pub f: u32,
}

impl ThParams {
    /// Feasibility for `spec` (same T/W rules as NEW).
    pub fn is_feasible(&self, spec: &ProblemSpec) -> bool {
        self.t >= 1 && self.t <= spec.nz && self.w >= 1 && self.w <= spec.nz.div_ceil(self.t)
    }

    /// Number of communication tiles.
    pub fn tiles(&self, spec: &ProblemSpec) -> usize {
        spec.nz.div_ceil(self.t)
    }

    /// Default starting point for tuning.
    pub fn seed(spec: &ProblemSpec) -> ThParams {
        let t = (spec.nz / 16).max(1);
        ThParams {
            t,
            w: 2.min(spec.nz.div_ceil(t)),
            f: (spec.p as u32 / 2).max(1),
        }
    }

    /// Non-overlapped TH-0 variant.
    pub fn without_overlap(mut self) -> ThParams {
        self.w = 0;
        self.f = 0;
        self
    }

    /// The full tuning vector TH's three parameters stand for, the one
    /// [`Variant::Th`] is priced and run at, before the variant pins what
    /// TH does not tune: its single `F` is spent during the overlappable
    /// FFTy+Pack phases, split evenly as Hoefler's kernel interleaves tests
    /// with both.
    pub fn widen(self) -> TuningParams {
        TuningParams {
            t: self.t,
            w: self.w,
            px: 1,
            pz: 1,
            uy: 1,
            uz: 1,
            fy: self.f / 2,
            fp: self.f - self.f / 2,
            fu: 0,
            fx: 0,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProblemSpec {
        ProblemSpec::cube(256, 16)
    }

    #[test]
    fn seed_is_feasible_for_paper_settings() {
        for n in [256usize, 384, 512, 640, 1280, 1536, 1792, 2048] {
            for p in [16usize, 32, 128, 256] {
                let s = ProblemSpec::cube(n, p);
                let seed = TuningParams::seed(&s);
                assert!(
                    seed.is_feasible(&s),
                    "seed infeasible for N={n} p={p}: {seed:?}"
                );
            }
        }
    }

    #[test]
    fn seed_matches_section_4_4_formulas() {
        let s = spec();
        let seed = TuningParams::seed(&s);
        assert_eq!(seed.t, 16); // Nz/16
        assert_eq!(seed.w, 2);
        // Px = 8192/Ny = 32 clamps to the local slab width Nx/p = 16.
        assert_eq!(seed.px, 16);
        assert_eq!(seed.fy, 8); // p/2
    }

    #[test]
    fn constraint_violations_are_reported() {
        let s = spec();
        let mut p = TuningParams::seed(&s);
        p.pz = p.t + 1;
        assert_eq!(p.validate(&s), Err(ParamError::PackZ(p.pz)));
        let mut q = TuningParams::seed(&s);
        q.t = s.nz + 1;
        assert!(matches!(q.validate(&s), Err(ParamError::TileSize(_))));
        let mut r = TuningParams::seed(&s);
        r.px = 1000;
        assert!(matches!(r.validate(&s), Err(ParamError::PackX(_))));
    }

    #[test]
    fn without_window_still_rejects_degenerate_subtiles() {
        let s = spec();
        let mut p = TuningParams::seed(&s).without_overlap();
        assert_eq!(p.validate_without_window(&s), Ok(()));
        assert!(matches!(p.validate(&s), Err(ParamError::Window(0))));
        p.px = 0;
        assert_eq!(p.validate_without_window(&s), Err(ParamError::PackX(0)));
        p.px = 16;
        p.uy = 0;
        assert_eq!(p.validate_without_window(&s), Err(ParamError::UnpackY(0)));
        p.uy = 16;
        p.t = 0;
        assert!(matches!(
            p.validate_without_window(&s),
            Err(ParamError::TileSize(0))
        ));
    }

    #[test]
    fn zero_threads_is_rejected() {
        let s = spec();
        let mut p = TuningParams::seed(&s);
        assert_eq!(p.threads, 1);
        p.threads = 0;
        assert_eq!(p.validate(&s), Err(ParamError::Threads(0)));
        p.threads = 4;
        assert_eq!(p.validate(&s), Ok(()));
    }

    #[test]
    fn tile_count_rounds_up() {
        let s = ProblemSpec::cube(24, 4);
        let p = TuningParams {
            t: 7,
            ..TuningParams::seed(&s)
        };
        assert_eq!(p.tiles(&s), 4); // 24/7 → 4 tiles (7,7,7,3)
    }

    #[test]
    fn without_overlap_zeroes_the_right_fields() {
        let s = spec();
        let p = TuningParams::seed(&s).without_overlap();
        assert_eq!(p.w, 0);
        assert_eq!([p.fy, p.fp, p.fu, p.fx], [0; 4]);
        assert_eq!(p.t, TuningParams::seed(&s).t);
    }

    #[test]
    fn th_params_feasibility() {
        let s = spec();
        let th = ThParams::seed(&s);
        assert!(th.is_feasible(&s));
        assert!(!ThParams { t: 0, w: 1, f: 1 }.is_feasible(&s));
        assert!(!ThParams { t: 256, w: 2, f: 1 }.is_feasible(&s)); // only 1 tile
    }

    #[test]
    fn square_xy_detection() {
        assert!(ProblemSpec::cube(64, 4).square_xy());
        assert!(!ProblemSpec {
            nx: 64,
            ny: 32,
            nz: 64,
            p: 4
        }
        .square_xy());
    }
}
