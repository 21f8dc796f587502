//! The real transform's memory contract, counted by the allocator.
//!
//! A stage whose destination lines are its source lines runs in place
//! (DESIGN.md §15), so a session over a cube keeps no slab-sized buffer:
//! constructing it allocates nothing that large, on both decompositions and
//! both slab transpose styles, and each steady-state execution allocates
//! exactly one such buffer per rank — the output it returns. A pencil with
//! `Ny ≠ Nz` cannot run its row stage in place and still keeps one buffer,
//! which is where the rule stops.
//!
//! This binary's allocator counts every allocation of at least one rank's
//! block of the problem, but only inside a counting window that all ranks
//! open and close together between barriers. The allocator is process-wide,
//! so every case runs in the one test below.

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use fft3d::real_env::local_test_slab;
use fft3d::{
    pencil_seed, pencil_test_input, FftSession, PencilGrid, PencilSession, ProblemSpec,
    TuningParams, Variant,
};
use mpisim::Comm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

/// Counts allocations of at least [`LARGE`] bytes while [`COUNTING`] is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(SeqCst) && size >= LARGE.load(SeqCst) {
        COUNT.fetch_add(1, SeqCst);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on every rank inside one counting window; returns its result and
/// the large allocations all ranks made in the window.
fn counted<R>(comm: &Comm, f: impl FnOnce() -> R) -> (R, usize) {
    comm.barrier();
    if comm.rank() == 0 {
        COUNT.store(0, SeqCst);
        COUNTING.store(true, SeqCst);
    }
    comm.barrier();
    let out = f();
    comm.barrier();
    if comm.rank() == 0 {
        COUNTING.store(false, SeqCst);
    }
    comm.barrier();
    (out, COUNT.load(SeqCst))
}

/// Large allocations all ranks made constructing a session, and then in
/// its steady-state execution (after one warm-up execution).
type Counts = (usize, usize);

fn slab(spec: ProblemSpec, variant: Variant) -> Counts {
    let counts = mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let params = TuningParams::seed(&spec);
        let (mut session, built) = counted(&comm, || {
            FftSession::new(
                &comm,
                spec,
                variant,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
        });
        session.execute(&input).expect("warm-up execution");
        let (out, steady) = counted(&comm, || session.execute(&input));
        out.expect("steady-state execution");
        (built, steady)
    });
    counts[0]
}

fn pencil(spec: ProblemSpec, grid: PencilGrid) -> Counts {
    let counts = mpisim::run(spec.p, move |comm| {
        let input = pencil_test_input(&spec, grid, comm.rank());
        let params = pencil_seed(&spec, grid);
        let (session, built) = counted(&comm, || {
            PencilSession::new(&comm, spec, grid, params, Direction::Forward)
        });
        let mut session = session.expect("pins");
        session.execute(&input).expect("warm-up execution");
        let (out, steady) = counted(&comm, || session.execute(&input));
        out.expect("steady-state execution");
        (built, steady)
    });
    counts[0]
}

#[test]
fn a_cube_session_keeps_no_slab_and_an_execution_allocates_only_its_output() {
    let p = 2;
    let cube = ProblemSpec::cube(16, p);
    // One rank's block: 8 · 16 · 16 elements on either decomposition.
    LARGE.store(cube.len() / p * size_of::<Complex64>(), SeqCst);
    // NEW at Nx = Ny takes the fast x-z-y transpose, TH the z-x-y one.
    for variant in [Variant::New, Variant::Th] {
        assert_eq!(slab(cube, variant), (0, p), "slab {variant:?}");
    }
    for (pr, pc) in [(2, 1), (1, 2)] {
        let grid = PencilGrid { pr, pc };
        assert_eq!(pencil(cube, grid), (0, p), "pencil {grid:?}");
    }
    // Ny ≠ Nz: the row stage keeps its source buffer (8 · 16 · 8 elements,
    // as is every rank's block of this geometry).
    let flat = ProblemSpec {
        nx: 16,
        ny: 16,
        nz: 8,
        p,
    };
    LARGE.store(flat.len() / p * size_of::<Complex64>(), SeqCst);
    for (pr, pc) in [(2, 1), (1, 2)] {
        let grid = PencilGrid { pr, pc };
        assert_eq!(pencil(flat, grid), (p, p), "pencil Ny ≠ Nz {grid:?}");
    }
}
