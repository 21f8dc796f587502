//! Problem sizes and seeded inputs. `--seed` drives the field values and the
//! service trace; the crates only ever see the generated inputs.

use cfft::{Complex64, Direction};
use fft3d::decomp::AxisSplit;
use fft3d::{JobSpec, PencilGrid, ProblemSpec, Service};

/// Real transforms run on two rank threads: the sandbox has two cores, and
/// with more ranks than cores wall-clock time measures the scheduler.
pub const REAL_RANKS: usize = 2;

/// Every size a workload or a layer replay uses. `full` is what the
/// benchmark measures; `smoke` has the same shape at a size that finishes in
/// about a second, for `--smoke` and the tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Cube edge of `serial128` and `slab128_steady`.
    pub slab_n: usize,
    /// Cube edge of `slab64_tiles`.
    pub tiles_n: usize,
    /// Cube edge of `pencil96_steady` (mixed radix 2⁵·3 at full size).
    pub pencil_n: usize,
    /// `(N, p)` of the Table-2 cell `sim_tune` rebuilds, on `umd_cluster`.
    pub cell: (usize, usize),
    /// `(N, p)` of the large simulation the simnet replay times, on `hopper`.
    pub big_cell: (usize, usize),
    /// Objective requests each tuning run may make.
    pub tune_evals: usize,
    /// Jobs in the service trace, ranks of the service's cluster, and the
    /// three geometries the jobs are drawn from.
    pub jobs: usize,
    pub service_ranks: usize,
    pub geometries: [(usize, usize, usize); 3],
    /// Worker processes the untraced pass splits its seconds among.
    pub launches: usize,
    /// Untimed ops of a real transform between its first op and its first
    /// timed one. At full size the fourth op is the first at steady speed.
    pub warmups: usize,
    /// Repetitions of each layer-replay measurement (the median is kept).
    pub reps: usize,
}

impl Sizes {
    pub fn of(smoke: bool) -> Self {
        if smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    pub fn full() -> Self {
        Sizes {
            slab_n: 128,
            tiles_n: 64,
            pencil_n: 96,
            cell: (256, 16),
            big_cell: (640, 256),
            tune_evals: tuner::DEFAULT_MAX_EVALS,
            // The ISSUE sized the trace at 120 jobs (≈ 1.3 s a replay); 60
            // give twice the samples in the same run and still repeat each
            // geometry twenty times, which is what a per-geometry
            // memoisation would act on.
            jobs: 60,
            service_ranks: 16,
            geometries: [(128, 128, 128), (256, 256, 256), (256, 256, 128)],
            launches: 5,
            warmups: 4,
            reps: 5,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            slab_n: 16,
            tiles_n: 16,
            pencil_n: 12,
            cell: (32, 4),
            big_cell: (64, 16),
            tune_evals: 24,
            jobs: 8,
            service_ranks: 4,
            geometries: [(16, 16, 16), (32, 32, 32), (32, 32, 16)],
            launches: 1,
            warmups: 1,
            reps: 1,
        }
    }
}

/// SplitMix64: one multiply-xorshift chain per draw, so a value depends only
/// on the seed and its index and any part of a field can be made alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; the modulo bias is below 2⁻⁵⁰ for the small `n`
    /// used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A full `x-y-z` field of `len` values uniform in `[-1, 1)²`.
pub fn seeded_field(seed: u64, len: usize) -> Vec<Complex64> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| Complex64::new(2.0 * rng.unit() - 1.0, 2.0 * rng.unit() - 1.0))
        .collect()
}

/// `rank`'s `(X_r, Y_c, Z_all)` block of `field` for a pencil `grid`; a slab
/// decomposition is the `p × 1` grid.
pub fn pencil_block(
    field: &[Complex64],
    spec: &ProblemSpec,
    grid: PencilGrid,
    rank: usize,
) -> Vec<Complex64> {
    let (row, col) = grid.coords(rank);
    let xs = AxisSplit::new(spec.nx, grid.pr);
    let ys = AxisSplit::new(spec.ny, grid.pc);
    let mut block = Vec::with_capacity(xs.count(row) * ys.count(col) * spec.nz);
    for x in xs.offset(row)..xs.offset(row) + xs.count(row) {
        for y in ys.offset(col)..ys.offset(col) + ys.count(col) {
            let at = (x * spec.ny + y) * spec.nz;
            block.extend_from_slice(&field[at..at + spec.nz]);
        }
    }
    block
}

/// The seeded service trace: four tenants, the three geometries and
/// priorities 0–2 in rotation, a deadline of 1.5× the job's isolated time,
/// and arrivals at twice the rate the cluster serves one job at a time.
///
/// What a replay costs depends on how many jobs admission lets in, and that
/// on the order of big and small, urgent and idle jobs. A freely shuffled
/// trace admits 23 to 32 of its 60 jobs from seed to seed, one that only
/// moves the start of each rotation 20 to 30, and the replay time follows
/// (±7 %), which would drown a regression. So the seed picks which tenant
/// goes first and jitters every arrival gap by ±10 %: each seed is a
/// different trace, and all of them admit 29 or 30 jobs.
pub fn service_trace(seed: u64, sizes: &Sizes, service: &Service) -> Vec<JobSpec> {
    let job = |tenant, (nx, ny, nz): (usize, usize, usize)| {
        JobSpec::new(tenant, ProblemSpec { nx, ny, nz, p: 1 }, Direction::Forward)
    };
    let mut isolated = [0.0; 3];
    for (g, iso) in sizes.geometries.iter().zip(&mut isolated) {
        *iso = service
            .isolated_run(&job(0, *g))
            .expect("the trace's geometries fit the service's ranks")
            .time;
    }
    let gap = isolated.iter().sum::<f64>() / 3.0 / 2.0;

    let mut rng = Rng::new(seed);
    let first_tenant = rng.below(4);
    let mut at = 0.0;
    (0..sizes.jobs)
        .map(|i| {
            let g = i % 3;
            let spec = job((first_tenant + i) % 4, sizes.geometries[g])
                .with_priority((i / 3 % 3) as u8)
                .with_deadline(1.5 * isolated[g])
                .at(at);
            at += gap * (0.9 + 0.2 * rng.unit());
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft3d::ServiceConfig;
    use simnet::model::umd_cluster;

    #[test]
    fn same_seed_same_field_other_seed_other_field() {
        let a = seeded_field(7, 64);
        assert_eq!(a, seeded_field(7, 64));
        assert_ne!(a, seeded_field(8, 64));
        assert!(a.iter().all(|z| z.re.abs() <= 1.0 && z.im.abs() <= 1.0));
        let mean = a.iter().map(|z| z.re).sum::<f64>() / 64.0;
        assert!(mean.abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn pencil_blocks_partition_the_field() {
        let spec = ProblemSpec::cube(4, 2);
        let field = seeded_field(1, spec.len());
        // 2×1 is the slab split: rank r owns a contiguous half.
        let slab = PencilGrid { pr: 2, pc: 1 };
        assert_eq!(pencil_block(&field, &spec, slab, 0), field[..32]);
        assert_eq!(pencil_block(&field, &spec, slab, 1), field[32..]);
        // 1×2 splits y: rank 1 owns y ∈ {2, 3} of every x.
        let cols = PencilGrid { pr: 1, pc: 2 };
        let b = pencil_block(&field, &spec, cols, 1);
        assert_eq!(b.len(), 32);
        assert_eq!(b[..8], field[8..16]);
        assert_eq!(b[8..16], field[24..32]);
    }

    #[test]
    fn trace_is_seeded_balanced_and_ordered() {
        let sizes = Sizes::smoke();
        let svc = Service::new(ServiceConfig::new(umd_cluster(), sizes.service_ranks));
        let a = service_trace(3, &sizes, &svc);
        let b = service_trace(3, &sizes, &svc);
        assert_eq!(a.len(), sizes.jobs);
        let key = |j: &JobSpec| (j.tenant, j.arrival.to_bits());
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>()
        );
        let c = service_trace(4, &sizes, &svc);
        assert_ne!(
            a.iter().map(key).collect::<Vec<_>>(),
            c.iter().map(key).collect::<Vec<_>>()
        );
        assert!(a.windows(2).all(|w| w[0].arrival < w[1].arrival));
        for g in sizes.geometries {
            let n = a
                .iter()
                .filter(|j| (j.spec.nx, j.spec.ny, j.spec.nz) == g)
                .count();
            assert!(n == sizes.jobs / 3 || n == sizes.jobs / 3 + 1, "{g:?}: {n}");
        }
        assert!(a.iter().all(|j| j.tenant < 4 && j.priority < 3));
    }
}
