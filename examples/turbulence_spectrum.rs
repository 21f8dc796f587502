//! Energy-spectrum analysis of a synthetic turbulent velocity field — the
//! kind of pseudo-spectral diagnostic the paper's motivating simulations
//! (astrophysical N-body, blood flow) run after every 3-D FFT.
//!
//! Builds a random solenoidal-ish field with a k^(−5/3) Kolmogorov
//! amplitude envelope, forward-transforms it with the overlapped pipeline,
//! and bins `|û(k)|²` into shells — then checks the recovered slope.
//!
//! ```sh
//! cargo run --release --example turbulence_spectrum
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use fft3d::{FftSession, ProblemSpec, TuningParams, Variant};
use fft3d_repro::{gather_full, wavenumber};

/// Deterministic hash-noise in [−1, 1).
fn noise(x: usize, y: usize, z: usize, salt: u64) -> f64 {
    let mut h = (x as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((y as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((z as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    (h & 0xffff_ffff) as f64 / 2f64.powi(31) - 1.0
}

fn main() {
    let n = 64;
    let spec = ProblemSpec::cube(n, 4);
    let params = TuningParams::seed(&spec);
    println!("synthesising a {n}³ velocity field with a k^-5/3 envelope…");

    // Build the field in spectral space on rank 0's description: u(x) =
    // Σ_k A(k)·cos phases — cheaper to synthesise directly in real space
    // from a few hundred modes.
    let modes: Vec<(f64, f64, f64, f64, f64)> = {
        let mut m = Vec::new();
        for kx in 0..8usize {
            for ky in 0..8usize {
                for kz in 1..8usize {
                    let k = ((kx * kx + ky * ky + kz * kz) as f64).sqrt();
                    if !(1.0..=8.0).contains(&k) {
                        continue;
                    }
                    // E(k) ∝ k^-5/3 → per-mode amplitude ∝ k^(-5/3-1)/... use
                    // |A| ∝ k^-11/6 so shell-summed energy follows -5/3.
                    let amp = k.powf(-11.0 / 6.0);
                    let phase = std::f64::consts::PI * noise(kx, ky, kz, 7);
                    m.push((kx as f64, ky as f64, kz as f64, amp, phase));
                }
            }
        }
        m
    };
    println!("{} spectral modes", modes.len());

    let spectra = mpisim::run(spec.p, {
        let modes = modes.clone();
        move |comm| {
            let decomp = fft3d::decomp::Decomp::new(spec.nx, spec.ny, spec.p);
            let nxl = decomp.x.count(comm.rank());
            let xoff = decomp.x.offset(comm.rank());
            let h = 2.0 * std::f64::consts::PI / n as f64;
            let mut slab = Vec::with_capacity(nxl * n * n);
            for xl in 0..nxl {
                for y in 0..n {
                    for z in 0..n {
                        let (xf, yf, zf) = ((xoff + xl) as f64 * h, y as f64 * h, z as f64 * h);
                        let mut v = 0.0;
                        for &(kx, ky, kz, amp, ph) in &modes {
                            v += amp * (kx * xf + ky * yf + kz * zf + ph).cos();
                        }
                        slab.push(Complex64::new(v, 0.0));
                    }
                }
            }

            let out = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&slab)
            .expect("the seed vector is feasible");
            let full = gather_full(&comm, &spec, &out);

            // Shell-binned energy spectrum E(k).
            let kmax = n / 2;
            let mut energy = vec![0.0f64; kmax + 1];
            for kx in 0..n {
                for ky in 0..n {
                    for kz in 0..n {
                        let k = (wavenumber(kx, n).powi(2)
                            + wavenumber(ky, n).powi(2)
                            + wavenumber(kz, n).powi(2))
                        .sqrt();
                        let shell = k.round() as usize;
                        if shell <= kmax {
                            energy[shell] += full[(kx * n + ky) * n + kz].norm_sqr();
                        }
                    }
                }
            }
            energy
        }
    });

    let energy = &spectra[0];
    println!("\n  k    E(k)");
    for (k, e) in energy.iter().enumerate().take(9).skip(1) {
        println!("  {k:>2}  {e:.4e}");
    }

    // Fit the log-log slope over the populated shells 2..=7.
    let pts: Vec<(f64, f64)> = (2..=7)
        .filter(|&k| energy[k] > 0.0)
        .map(|k| ((k as f64).ln(), energy[k].ln()))
        .collect();
    let n_pts = pts.len() as f64;
    let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let slope = (n_pts * sxy - sx * sy) / (n_pts * sxx - sx * sx);
    println!("\nfitted spectral slope: {slope:.2} (target −5/3 ≈ −1.67)");
    assert!(
        (slope - (-5.0 / 3.0)).abs() < 0.6,
        "spectrum should follow the synthesised Kolmogorov envelope"
    );
    println!("spectrum recovered ✓");
}
