//! Markdown/console rendering of experiment results next to the paper's
//! published numbers.

use crate::cells::CellResult;
use crate::paper;
use fft3d::StepTimes;
use std::fmt::Write as _;

/// Finds the paper's Table 2 row for a cell.
pub fn paper_table2(platform: &str, p: usize, n: usize) -> Option<(f64, f64, f64)> {
    paper::TABLE2
        .iter()
        .find(|&&(pl, pp, nn, ..)| pl == platform && pp == p && nn == n)
        .map(|&(_, _, _, f, ne, t)| (f, ne, t))
}

/// Finds the paper's Table 4 row for a cell.
pub fn paper_table4(platform: &str, p: usize, n: usize) -> Option<(f64, f64, f64)> {
    paper::TABLE4
        .iter()
        .find(|&&(pl, pp, nn, ..)| pl == platform && pp == p && nn == n)
        .map(|&(_, _, _, f, ne, t)| (f, ne, t))
}

/// Renders Table 2 + Figure 7 (times and speedups, paper vs measured).
pub fn render_table2(cells: &[CellResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| plat | p | N | FFTW paper | FFTW sim | NEW paper | NEW sim | TH paper | TH sim | NEW× paper | NEW× sim | TH× paper | TH× sim |"
    )
    .expect("write to String cannot fail");
    writeln!(s, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
        .expect("write to String cannot fail");
    for c in cells {
        let (fp, np, tp) =
            paper_table2(c.platform, c.p, c.n).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        writeln!(
            s,
            "| {} | {} | {}³ | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} | {:.2} | {:.2} | {:.2} | {:.2} |",
            c.platform,
            c.p,
            c.n,
            fp,
            c.fftw,
            np,
            c.new,
            tp,
            c.th,
            fp / np,
            c.speedup_new(),
            fp / tp,
            c.speedup_th(),
        )
        .expect("write to String cannot fail");
    }
    s
}

/// Renders Table 3 (tuned parameter values, paper beside measured).
pub fn render_table3(cells: &[CellResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| plat | p | N | src | T | W | Px | Pz | Uy | Uz | Fy | Fp | Fu | Fx |"
    )
    .expect("write to String cannot fail");
    writeln!(
        s,
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
    )
    .expect("write to String cannot fail");
    for c in cells {
        if let Some(&(_, _, _, v)) = paper::TABLE3
            .iter()
            .find(|&&(pl, pp, nn, _)| pl == c.platform && pp == c.p && nn == c.n)
        {
            writeln!(
                s,
                "| {} | {} | {}³ | paper | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                c.platform, c.p, c.n, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], v[8], v[9]
            )
            .expect("write to String cannot fail");
        }
        let q = &c.new_tune.best;
        writeln!(
            s,
            "| {} | {} | {}³ | sim | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            c.platform, c.p, c.n, q.t, q.w, q.px, q.pz, q.uy, q.uz, q.fy, q.fp, q.fu, q.fx
        )
        .expect("write to String cannot fail");
    }
    s
}

/// Renders Table 4 (auto-tuning time).
pub fn render_table4(cells: &[CellResult]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "| plat | p | N | FFTW paper | FFTW sim | NEW paper | NEW sim | TH paper | TH sim | NEW evals | TH evals |"
    )
    .expect("write to String cannot fail");
    writeln!(s, "|---|---|---|---|---|---|---|---|---|---|---|")
        .expect("write to String cannot fail");
    for c in cells {
        let (fp, np, tp) =
            paper_table4(c.platform, c.p, c.n).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        writeln!(
            s,
            "| {} | {} | {}³ | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {} | {} |",
            c.platform,
            c.p,
            c.n,
            fp,
            c.fftw_tuning,
            np,
            c.new_tuning(),
            tp,
            c.th_tuning(),
            c.new_tune.executed,
            c.th_tune.executed
        )
        .expect("write to String cannot fail");
    }
    s
}

/// Renders one Figure 8 panel: per-step breakdown columns for NEW, NEW-0,
/// TH, TH-0.
pub fn render_fig8_panel(
    title: &str,
    new: &StepTimes,
    new0: &StepTimes,
    th: &StepTimes,
    th0: &StepTimes,
) -> String {
    let mut s = String::new();
    writeln!(s, "### {title}").expect("write to String cannot fail");
    writeln!(s, "| step | NEW | NEW-0 | TH | TH-0 |").expect("write to String cannot fail");
    writeln!(s, "|---|---|---|---|---|").expect("write to String cannot fail");
    let (en, e0, et, et0) = (new.entries(), new0.entries(), th.entries(), th0.entries());
    for i in 0..en.len() {
        writeln!(
            s,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
            en[i].0, en[i].1, e0[i].1, et[i].1, et0[i].1
        )
        .expect("write to String cannot fail");
    }
    writeln!(
        s,
        "| **total** | {:.3} | {:.3} | {:.3} | {:.3} |",
        new.total(),
        new0.total(),
        th.total(),
        th0.total()
    )
    .expect("write to String cannot fail");
    s
}

/// Renders one rank's overlap-efficiency summary (derived from a trace —
/// see `fft3d::trace`) as a small table.
pub fn render_overlap(rank: usize, s: &fft3d::OverlapSummary) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "| rank | in-flight (s) | covered (s) | coverage | wait stall (s) | tests | tests/tile |"
    )
    .expect("write to String cannot fail");
    writeln!(out, "|---|---|---|---|---|---|---|").expect("write to String cannot fail");
    writeln!(
        out,
        "| {} | {:.4} | {:.4} | {:.1} % | {:.4} | {} | {:.1} |",
        rank,
        s.inflight,
        s.covered,
        100.0 * s.coverage,
        s.wait_stall,
        s.tests,
        s.tests_per_tile
    )
    .expect("write to String cannot fail");
    out
}

/// ASCII cumulative-distribution rendering for Figure 5.
pub fn render_cdf(values: &[f64], bins: usize) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
    let mut s = String::new();
    writeln!(s, "| time (s) | cumulative fraction |").expect("write to String cannot fail");
    writeln!(s, "|---|---|").expect("write to String cannot fail");
    for b in 0..=bins {
        let x = lo + (hi - lo) * b as f64 / bins as f64;
        let frac = sorted.iter().filter(|&&v| v <= x).count() as f64 / sorted.len() as f64;
        writeln!(s, "| {x:.3} | {frac:.3} |").expect("write to String cannot fail");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lookups_work() {
        assert_eq!(paper_table2("umd", 16, 256), Some((0.369, 0.245, 0.319)));
        assert_eq!(
            paper_table4("hopper", 256, 2048),
            Some((465.411, 224.744, 75.616))
        );
        assert_eq!(paper_table2("umd", 16, 999), None);
    }

    #[test]
    fn overlap_rendering_includes_coverage_percent() {
        let s = fft3d::OverlapSummary {
            inflight: 2.0,
            covered: 1.0,
            coverage: 0.5,
            wait_stall: 0.25,
            tests: 12,
            tests_completed: 3,
            tiles: 4,
            tests_per_tile: 3.0,
        };
        let out = render_overlap(0, &s);
        assert!(out.contains("50.0 %"), "{out}");
        assert!(out.contains("| 12 |"), "{out}");
    }

    #[test]
    fn cdf_rendering_is_monotone() {
        let vals = vec![0.3, 0.1, 0.2, 0.25, 0.4];
        let table = render_cdf(&vals, 4);
        let fracs: Vec<f64> = table
            .lines()
            .skip(2)
            .map(|l| l.split('|').nth(2).unwrap().trim().parse().unwrap())
            .collect();
        assert!(fracs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*fracs.last().unwrap(), 1.0);
    }
}
