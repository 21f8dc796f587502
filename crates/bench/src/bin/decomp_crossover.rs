//! Slab (1-D) vs pencil (2-D) decomposition — the §2.2 trade-off and the
//! scalability argument for the paper's §7 pencil future work.
//!
//! Sweeps the process count for a fixed problem and reports where the
//! tuned 1-D overlapped slab transform loses to a blocking 2-D pencil
//! transform: slabs stop scaling at p = N (one plane per rank) and their
//! single alltoall congests, while pencils exchange within √p-sized groups.
//!
//! ```sh
//! cargo run -p fft-bench --release --bin decomp_crossover [-- N]
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use fft3d::{
    auto_select, pencil_blocking, pencil_seed, Decomposition, Error, PencilGrid, ProblemSpec,
    Simulation, TuningParams, Variant,
};
use simnet::model::hopper;

/// The modelled time of one execution of `sim` on Hopper.
fn time(sim: Result<Simulation, Error>) -> f64 {
    let runs = sim.and_then(|sim| sim.run(hopper()));
    runs.unwrap_or_else(|e| panic!("cannot price: {e}"))[0]
        .report
        .time
}

/// The slab NEW pipeline at its seed parameters.
fn slab_new(spec: ProblemSpec) -> f64 {
    time(Simulation::slab(
        spec,
        Variant::New,
        TuningParams::seed(&spec),
    ))
}

/// The blocking pencil transform: one tile per stage, nothing overlapped.
fn pencil_blocked(spec: ProblemSpec, grid: PencilGrid) -> f64 {
    time(Simulation::pencil(spec, grid, pencil_blocking(&spec, grid)))
}

/// The overlapped pencil pipeline at its seed parameters — what
/// `auto_select` prices.
fn pencil_overlapped(spec: ProblemSpec, grid: PencilGrid) -> f64 {
    time(Simulation::pencil(spec, grid, pencil_seed(&spec, grid)))
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    println!("slab vs pencil on the Hopper model, N = {n}³\n");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>14} | {:>10}",
        "p", "slab NEW (s)", "pencil (s)", "pencil+ovl (s)", "winner"
    );

    let mut crossover: Option<usize> = None;
    for exp in 3..=11 {
        let p = 1usize << exp;
        if p > n {
            // 1-D decomposition cannot use more ranks than planes.
            let grid = PencilGrid::near_square(p);
            let spec = ProblemSpec::cube(n, p);
            let pencil = pencil_blocked(spec, grid);
            let ovl = pencil_overlapped(spec, grid);
            println!(
                "{p:>6} | {:>12} | {pencil:>12.4} | {ovl:>14.4} | {:>10}",
                "n/a", "pencil"
            );
            continue;
        }
        let spec = ProblemSpec::cube(n, p);
        let slab = slab_new(spec);
        let grid = PencilGrid::near_square(p);
        let pencil = pencil_blocked(spec, grid);
        let ovl = pencil_overlapped(spec, grid);
        let best_pencil = pencil.min(ovl);
        let winner = if slab <= best_pencil {
            "slab"
        } else {
            "pencil"
        };
        if slab > best_pencil && crossover.is_none() {
            crossover = Some(p);
        }
        println!("{p:>6} | {slab:>12.4} | {pencil:>12.4} | {ovl:>14.4} | {winner:>10}");
    }
    match crossover {
        Some(p) => println!(
            "\npencils overtake slabs around p = {p} — the §2.2 scalability\n\
             trade-off: below that, the slab's single (overlapped) exchange wins."
        ),
        None => println!("\nslabs win across the swept range (overlap + single exchange)."),
    }

    // ---- auto_select validation: the model-driven chooser must land on
    // the measured winner on both sides of the crossover. Interior points
    // are reported (seed-parameter pricing can wobble near the flip), but
    // a wrong pick at either end is a bug, so it aborts the bench.
    println!("\nauto_select validation (hopper model, N = {n}³):");
    println!("{:>6} | {:>10} | {:>10}", "p", "measured", "selected");
    let mut endpoints: Vec<(usize, &str, &str)> = Vec::new();
    for (i, exp) in (3..=11).enumerate() {
        let p = 1usize << exp;
        let spec = ProblemSpec::cube(n, 1);
        let selected = match auto_select(hopper(), &spec, p) {
            Ok(Decomposition::Slab) => "slab",
            Ok(Decomposition::Pencil(_)) => "pencil",
            Err(e) => panic!("auto_select({n}, {p}) refused: {e}"),
        };
        let measured = if p > n {
            "pencil" // slabs cannot even be formed past p = N
        } else {
            let spec = ProblemSpec::cube(n, p);
            let slab = slab_new(spec);
            let grid = PencilGrid::near_square(p);
            let best_pencil = pencil_blocked(spec, grid).min(pencil_overlapped(spec, grid));
            if slab <= best_pencil {
                "slab"
            } else {
                "pencil"
            }
        };
        println!("{p:>6} | {measured:>10} | {selected:>10}");
        if i == 0 || p > n {
            endpoints.push((p, measured, selected));
        }
    }
    for (p, measured, selected) in endpoints {
        assert_eq!(
            measured, selected,
            "auto_select disagrees with the measured winner at p = {p}"
        );
    }
    println!("auto_select agrees on both sides of the crossover.");
}
