//! The conformance table's tier-1 slice: every row on one delivery schedule,
//! under mpisim's checked mode, held to its three oracles (spectrum,
//! recovery record, no MC finding/panic/hang). `cargo xtask conform` runs
//! the same rows over their full schedule plans.

use cfft::Direction;
use fft3d::decomp::Decomp;
use fft3d::{Decomposition, PencilGrid};
use fft3d_repro::conformance::{table, Fault, Row, Shape, Use, Variant, RANKS, VICTIM};
use mpisim::ExploreConfig;

/// Runs `rows` on one schedule each; panics naming every failing run.
fn conforms(rows: impl Iterator<Item = Row>) {
    let one = ExploreConfig::new(RANKS, 0..1, 0);
    let mut failed = Vec::new();
    for row in rows {
        for f in row.explore(&one).failures {
            failed.push(format!("{row} {}: {f:?}", f.schedule));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn every_slab_row_conforms_on_one_schedule() {
    conforms(
        table()
            .into_iter()
            .filter(|r| r.decomposition == Decomposition::Slab),
    );
}

#[test]
fn every_pencil_row_conforms_on_one_schedule() {
    conforms(
        table()
            .into_iter()
            .filter(|r| r.decomposition != Decomposition::Slab),
    );
}

#[test]
fn the_table_is_the_product_of_its_axes_less_the_named_gaps() {
    let rows = table();
    // Slab: 4 variants × 2 directions × 3 shapes × (3 faults × 3 uses +
    // one-shot crashes); pencil: 2 variants × 2 × 3 × (2 faults × 3 uses).
    assert_eq!(rows.len(), 4 * 2 * 3 * 10 + 2 * 2 * 3 * 6);
    for row in &rows {
        if let Decomposition::Pencil(grid) = row.decomposition {
            assert_eq!(grid, PencilGrid { pr: 2, pc: 2 }, "{row}");
            assert!(matches!(row.variant, Variant::New | Variant::Fftw), "{row}");
            assert!(matches!(row.fault, Fault::None | Fault::Payload), "{row}");
        }
        if row.fault == Fault::Crash {
            assert_eq!(row.usage, Use::OneShot, "{row}");
            // The crash must lose input the survivors have to re-fetch.
            let spec = row.spec();
            let owned = Decomp::new(spec.nx, spec.ny, spec.p).x.count(VICTIM);
            assert!(owned > 0, "{row}: the victim owns no x-plane");
        }
    }
    for shape in [Shape::Cube, Shape::Ragged, Shape::Sparse] {
        assert!(rows
            .iter()
            .any(|r| r.shape == shape && r.fault == Fault::Crash));
    }
}

/// The table's runs stand for every collective only because each one is
/// issued from the transport: clippy (DESIGN.md §17) refuses mpisim's
/// exchange and ULFM calls anywhere else, and `Planner::new` outside cfft.
#[test]
fn clippy_confines_the_collectives_to_the_transport() {
    let config = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/clippy.toml"))
        .expect("clippy.toml at the workspace root");
    let collectives = [
        "ialltoall",
        "ialltoallv",
        "alltoall_init",
        "alltoallv_init",
        "barrier",
        "agree",
        "shrink",
        "revoke",
    ];
    let confined = collectives
        .map(|name| format!("\"mpisim::Comm::{name}\""))
        .into_iter()
        .chain(["\"cfft::planner::Planner::new\"".to_owned()]);
    for path in confined {
        assert!(
            config.contains(&path),
            "clippy.toml does not disallow {path}"
        );
    }
}

#[test]
fn rows_the_per_family_sweeps_ran_keep_their_schedule_counts() {
    let gate = |decomposition, fault, usage| Row {
        decomposition,
        variant: Variant::New,
        dir: Direction::Forward,
        shape: Shape::Cube,
        fault,
        usage,
    };
    let slab = Decomposition::Slab;
    let pencil = Decomposition::Pencil(PencilGrid { pr: 2, pc: 2 });
    let counts = [
        (gate(slab, Fault::None, Use::OneShot), 200),
        (gate(pencil, Fault::None, Use::OneShot), 200),
        (gate(slab, Fault::None, Use::Session), 80),
        (gate(pencil, Fault::None, Use::Session), 80),
        (gate(slab, Fault::None, Use::Serve), 80),
        (gate(slab, Fault::Payload, Use::OneShot), 80),
        (gate(slab, Fault::Bitflip, Use::OneShot), 80),
        (gate(slab, Fault::Crash, Use::OneShot), 80),
    ];
    for (row, schedules) in counts {
        assert!(table().contains(&row), "{row}");
        assert_eq!(row.plan(0).schedules(), schedules, "{row}");
        // The seed base moves the random seeds, never the count.
        let moved = row.plan(1000);
        assert_eq!(moved.schedules(), schedules);
        assert_eq!(moved.random_seeds.start, 1000);
        // A seed base near the top clamps the random range, never wraps it
        // empty.
        let top = row.plan(u64::MAX - 3);
        assert_eq!(top.random_seeds, u64::MAX - 3..u64::MAX);
        assert_eq!(top.schedules(), 3 + (1 << top.systematic_bits));
    }
}
