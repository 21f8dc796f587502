//! The real stage executor's output, pinned to the bit.
//!
//! Unpack is FFTx's gather and the ABFT sums ride the block kernel
//! (DESIGN.md §13, §16), so which lines share a block — and which worker
//! transforms them — depends on the sub-tile extents, the destination
//! layout and `Th`. None of that may reach a result: every lane of a block
//! meets exactly the arithmetic it meets alone. The digests below were
//! recorded from the executor *before* Unpack was fused (separate Unpack
//! sweep, slab-wide ABFT sums), over
//!
//! * slab NEW / TH / FFTW and three pencil grids,
//! * divisible, ragged and more-ranks-than-planes geometries,
//! * both output layouts (`Zyx`; `Yzx` where `Nx = Ny`),
//! * sub-tiles that stop mid-τ (`Uz` not dividing `T`, a short last tile)
//!   and mid-block (`Uy` not a multiple of the block's 16 lines, `Uy` wider
//!   than one block),
//! * `Th ∈ {1, 2, 3}`,
//!
//! and a session's second and third execution must equal its first.
//! A digest is FNV-1a over the bit patterns of every rank's output in rank
//! order (not `faultplan::checksum`, whose fold this suite also guards).

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use fft3d::real_env::local_test_slab;
use fft3d::{
    pencil_seed, pencil_test_input, FftSession, OutLayout, PencilGrid, PencilSession, ProblemSpec,
    TuningParams, Variant,
};

fn fnv(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of every rank's output, in rank order.
fn digest(ranks: &[Vec<Complex64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for data in ranks {
        fnv(&mut h, data.len() as u64);
        for c in data {
            fnv(&mut h, c.re.to_bits());
            fnv(&mut h, c.im.to_bits());
        }
    }
    h
}

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// Three executions of one slab session per rank; returns the digest of the
/// first and the layout it came in.
fn slab(
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
) -> (u64, OutLayout) {
    let outs = mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let mut session = FftSession::new(&comm, spec, variant, params, dir, Rigor::Estimate);
        let first = session.execute(&input).expect("first execution");
        for nth in ["second", "third"] {
            let again = session.execute(&input).expect("repeat execution");
            assert!(
                bits(&again.data) == bits(&first.data),
                "{spec:?} {variant:?} {params:?}: {nth} execution differs on rank {}",
                comm.rank()
            );
        }
        (first.data, first.layout)
    });
    let layout = outs[0].1;
    let data: Vec<Vec<Complex64>> = outs.into_iter().map(|(data, _)| data).collect();
    (digest(&data), layout)
}

/// Three executions of one pencil session per rank; the first's digest.
fn pencil(spec: ProblemSpec, grid: PencilGrid, params: TuningParams, dir: Direction) -> u64 {
    let outs = mpisim::run(spec.p, move |comm| {
        let input = pencil_test_input(&spec, grid, comm.rank());
        let mut session = PencilSession::new(&comm, spec, grid, params, dir).expect("pins");
        let first = session.execute(&input).expect("first execution").output;
        for nth in ["second", "third"] {
            let again = session.execute(&input).expect("repeat execution").output;
            assert!(
                bits(&again.data) == bits(&first.data),
                "{spec:?} {grid:?} {params:?}: {nth} execution differs on rank {}",
                comm.rank()
            );
        }
        first.data
    });
    digest(&outs)
}

fn spec(nx: usize, ny: usize, nz: usize, p: usize) -> ProblemSpec {
    ProblemSpec { nx, ny, nz, p }
}

/// Every case as `(group, case, digest)`: a group is one geometry, direction
/// and output layout, whose spectrum no parameter may move.
fn computed() -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    let fwd = Direction::Forward;

    // (name, spec, NEW sub-tile sets `(px, pz, uy, uz)`). T = 4 everywhere,
    // so Nz = 6 / 7 leaves a short last tile and Uz = 3 stops mid-tile.
    let slabs = [
        // nyl = 20: one block of 16 and one of 4 per plane.
        ("div", spec(12, 40, 6, 2), [(2, 3, 7, 3), (6, 1, 20, 2)]),
        // Nx = Ny: the fast path, output (y_l, z, x). nyl = 18.
        ("div-sq", spec(36, 36, 6, 2), [(5, 3, 7, 3), (18, 2, 18, 4)]),
        // nyl = 17, 17, 16; nxl = 4, 3, 3.
        ("rag", spec(10, 50, 7, 3), [(3, 3, 5, 3), (4, 4, 17, 2)]),
        // nyl = 18, 17 on the fast path.
        ("rag-sq", spec(35, 35, 7, 2), [(4, 3, 7, 3), (18, 1, 18, 2)]),
        // Three of five ranks hold one plane on a side, two nothing.
        ("few", spec(3, 4, 5, 5), [(1, 3, 1, 3), (1, 1, 1, 2)]),
        ("few-sq", spec(3, 3, 5, 5), [(1, 3, 1, 3), (1, 1, 1, 2)]),
    ];
    for (name, spec, subs) in slabs {
        for threads in 1..=3 {
            let base = TuningParams {
                t: 4,
                w: 2,
                threads,
                ..TuningParams::seed(&spec)
            };
            for (i, (px, pz, uy, uz)) in subs.into_iter().enumerate() {
                let params = TuningParams {
                    px,
                    pz,
                    uy,
                    uz,
                    ..base
                };
                let (d, layout) = slab(spec, Variant::New, params, fwd);
                let case = format!("new{i} th{threads}");
                out.push((format!("slab {name} {layout:?}"), case, d));
            }
            for variant in [Variant::Th, Variant::Fftw] {
                let (d, layout) = slab(spec, variant, base, fwd);
                let case = format!("{variant:?} th{threads}");
                out.push((format!("slab {name} {layout:?}"), case, d));
            }
        }
        let inverse = TuningParams {
            t: 4,
            w: 1,
            threads: 2,
            ..TuningParams::seed(&spec)
        };
        let (d, layout) = slab(spec, Variant::New, inverse, Direction::Backward);
        let group = format!("slab {name} inverse {layout:?}");
        out.push((group, "new th2".into(), d));
    }

    // Both stages run whole-tile sub-tiles: with `t` planes a tile the row
    // stage's blocks are cut at every τ of a τ-major destination, the column
    // stage's at every τ of a w-major one.
    let pencils = [
        // 2×2: nzl = 20 (row stage), ny2l = 18 (column stage).
        ("div", spec(8, 36, 40, 4)),
        ("rag", spec(7, 35, 38, 4)),
        ("few", spec(3, 2, 3, 4)),
    ];
    let grids = [(2, 2), (4, 1), (1, 4)];
    for (name, spec) in pencils {
        for (pr, pc) in grids {
            let grid = PencilGrid { pr, pc };
            for threads in 1..=3 {
                for t in [1, 3] {
                    let params = TuningParams {
                        t,
                        threads,
                        ..pencil_seed(&spec, grid)
                    };
                    let d = pencil(spec, grid, params, fwd);
                    let case = format!("t{t} th{threads}");
                    out.push((format!("pencil {name} {pr}x{pc}"), case, d));
                }
            }
        }
    }
    out
}

#[test]
fn every_spectrum_is_bitwise_what_the_unfused_executor_produced() {
    let got = computed();
    let mut moved = Vec::new();
    for (group, case, d) in &got {
        if !RECORDED.contains(&(group.as_str(), *d)) {
            moved.push(format!("{group} [{case}] = {d:#018x}"));
        }
    }
    assert!(moved.is_empty(), "spectra moved:\n{}", moved.join("\n"));
    // Every recorded group — both layouts, both directions — was exercised.
    for (group, _) in RECORDED {
        assert!(got.iter().any(|(g, _, _)| g == group), "{group} never ran");
    }
}

/// One digest per group, recorded at the parent of the fusing change
/// (commit af1b81e), where all 132 cases of the matrix reproduced them.
const RECORDED: &[(&str, u64)] = &[
    ("slab div Zyx", 0x60486e65afc86809),
    ("slab div inverse Zyx", 0x4fa2b2e166ee76b1),
    ("slab div-sq Yzx", 0xb65e151403bdca0b),
    ("slab div-sq Zyx", 0x6212ee34802c4ddb),
    ("slab div-sq inverse Yzx", 0x239050f3b23e2498),
    ("slab rag Zyx", 0x94b6e857a3824ff9),
    ("slab rag inverse Zyx", 0x932bd92dab2e63ff),
    ("slab rag-sq Yzx", 0xc049cfc68534a162),
    ("slab rag-sq Zyx", 0x0d7b85ddeee9e67e),
    ("slab rag-sq inverse Yzx", 0xea705f6280240903),
    ("slab few Zyx", 0x3fffe41d4a57c739),
    ("slab few inverse Zyx", 0x1c23012a1f129b83),
    ("slab few-sq Yzx", 0x73a43b71bc4cfc0b),
    ("slab few-sq Zyx", 0x73a43b71bc4cfc0b),
    ("slab few-sq inverse Yzx", 0xad06fa3dbb616f3b),
    ("pencil div 2x2", 0xa03223fdb6d036fc),
    ("pencil div 4x1", 0x9365509f4d5228c8),
    ("pencil div 1x4", 0xcf394be4f1517144),
    ("pencil rag 2x2", 0x9637c5a4cd3549d4),
    ("pencil rag 4x1", 0xb64c842956281035),
    ("pencil rag 1x4", 0x49aab92dd7fe72e0),
    ("pencil few 2x2", 0x2b25f3285882b137),
    ("pencil few 4x1", 0x070f9f943cee3403),
    ("pencil few 1x4", 0xf3a485dad3c995a1),
];
