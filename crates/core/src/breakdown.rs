//! Per-step time accounting — the categories of Figure 8.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Time spent in each step of the pipeline, in seconds. The categories are
/// exactly those of the paper's Figure 8 breakdown: FFTz, Transpose, FFTy,
/// Pack, Unpack, FFTx, Ialltoall (post overhead), Wait, and Test.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTimes {
    /// 1-D FFTs along z.
    pub fftz: f64,
    /// Memory-layout rearrangement after FFTz.
    pub transpose: f64,
    /// 1-D FFTs along y (per tile).
    pub ffty: f64,
    /// Packing tiles into their per-peer send blocks.
    pub pack: f64,
    /// Unpacking receive buffers into the output layout.
    pub unpack: f64,
    /// 1-D FFTs along x (per tile).
    pub fftx: f64,
    /// Posting non-blocking (or executing the transfer phase of blocking)
    /// all-to-alls.
    pub ialltoall: f64,
    /// Blocking in `MPI_Wait`.
    pub wait: f64,
    /// `MPI_Test` call overhead.
    pub test: f64,
}

impl StepTimes {
    /// Sum of every category: the rank's total busy time.
    pub fn total(&self) -> f64 {
        self.fftz
            + self.transpose
            + self.ffty
            + self.pack
            + self.unpack
            + self.fftx
            + self.ialltoall
            + self.wait
            + self.test
    }

    /// The "overlappable computation" of §5.2.1: FFTy + Pack + Unpack +
    /// FFTx.
    pub fn overlappable(&self) -> f64 {
        self.ffty + self.pack + self.unpack + self.fftx
    }

    /// Element-wise maximum (used to report the slowest rank per category).
    pub fn max(&self, o: &StepTimes) -> StepTimes {
        StepTimes {
            fftz: self.fftz.max(o.fftz),
            transpose: self.transpose.max(o.transpose),
            ffty: self.ffty.max(o.ffty),
            pack: self.pack.max(o.pack),
            unpack: self.unpack.max(o.unpack),
            fftx: self.fftx.max(o.fftx),
            ialltoall: self.ialltoall.max(o.ialltoall),
            wait: self.wait.max(o.wait),
            test: self.test.max(o.test),
        }
    }

    /// Scales every category (e.g. for averaging across ranks).
    pub fn scale(&self, s: f64) -> StepTimes {
        StepTimes {
            fftz: self.fftz * s,
            transpose: self.transpose * s,
            ffty: self.ffty * s,
            pack: self.pack * s,
            unpack: self.unpack * s,
            fftx: self.fftx * s,
            ialltoall: self.ialltoall * s,
            wait: self.wait * s,
            test: self.test * s,
        }
    }

    /// `(label, seconds)` pairs in Figure 8's legend order.
    pub fn entries(&self) -> [(&'static str, f64); 9] {
        [
            ("FFTz", self.fftz),
            ("Transpose", self.transpose),
            ("FFTy", self.ffty),
            ("Pack", self.pack),
            ("Unpack", self.unpack),
            ("FFTx", self.fftx),
            ("Ialltoall", self.ialltoall),
            ("Wait", self.wait),
            ("Test", self.test),
        ]
    }
}

impl Add for StepTimes {
    type Output = StepTimes;
    fn add(self, o: StepTimes) -> StepTimes {
        StepTimes {
            fftz: self.fftz + o.fftz,
            transpose: self.transpose + o.transpose,
            ffty: self.ffty + o.ffty,
            pack: self.pack + o.pack,
            unpack: self.unpack + o.unpack,
            fftx: self.fftx + o.fftx,
            ialltoall: self.ialltoall + o.ialltoall,
            wait: self.wait + o.wait,
            test: self.test + o.test,
        }
    }
}

impl AddAssign for StepTimes {
    fn add_assign(&mut self, o: StepTimes) {
        *self = *self + o;
    }
}

impl fmt::Display for StepTimes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.entries() {
            writeln!(f, "{name:>10}: {v:>9.4}s")?;
        }
        write!(f, "{:>10}: {:>9.4}s", "total", self.total())
    }
}

/// Result of one distributed 3-D FFT execution on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Per-step breakdown.
    pub steps: StepTimes,
    /// Wall (or virtual) time from entry to completion, seconds. May be
    /// less than `steps.total()` only through rounding; overlap shows up as
    /// a *small `wait`*, not as elapsed < busy.
    pub elapsed: f64,
    /// Total `MPI_Test` calls made.
    pub tests: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_categories() {
        let t = StepTimes {
            fftz: 1.0,
            transpose: 2.0,
            ffty: 3.0,
            pack: 4.0,
            unpack: 5.0,
            fftx: 6.0,
            ialltoall: 7.0,
            wait: 8.0,
            test: 9.0,
        };
        assert_eq!(t.total(), 45.0);
        assert_eq!(t.overlappable(), 3.0 + 4.0 + 5.0 + 6.0);
    }

    #[test]
    fn add_and_scale() {
        let a = StepTimes {
            fftz: 1.0,
            wait: 2.0,
            ..Default::default()
        };
        let b = StepTimes {
            fftz: 0.5,
            test: 1.0,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.fftz, 1.5);
        assert_eq!(c.wait, 2.0);
        assert_eq!(c.test, 1.0);
        let half = c.scale(0.5);
        assert_eq!(half.fftz, 0.75);
    }

    #[test]
    fn max_is_elementwise() {
        let a = StepTimes {
            fftz: 1.0,
            wait: 5.0,
            ..Default::default()
        };
        let b = StepTimes {
            fftz: 2.0,
            wait: 1.0,
            ..Default::default()
        };
        let m = a.max(&b);
        assert_eq!(m.fftz, 2.0);
        assert_eq!(m.wait, 5.0);
    }

    #[test]
    fn entries_are_in_figure8_order() {
        let names: Vec<&str> = StepTimes::default().entries().iter().map(|e| e.0).collect();
        assert_eq!(
            names,
            vec![
                "FFTz",
                "Transpose",
                "FFTy",
                "Pack",
                "Unpack",
                "FFTx",
                "Ialltoall",
                "Wait",
                "Test"
            ]
        );
    }
}
