//! Deterministic schedule exploration.
//!
//! Replays a closure over the mpisim runtime under many delivery
//! interleavings. Two schedule families:
//!
//! * **Random**: [`SchedConfig::random`] seeds — each delivery defers with
//!   probability `defer_prob`, decided by a hash of
//!   `(seed, src, dst, tag, nth-on-edge)`. Broad, cheap coverage.
//! * **Systematic** (DPOR-lite): [`SchedConfig::systematic`] — delivery
//!   decisions hash into `bits` classes; sweeping the deferral mask over
//!   `0..2^bits` enumerates every bounded combination of per-class delays,
//!   including patterns random sampling is unlikely to hit (e.g. "defer
//!   every round-3 message but nothing else").
//!
//! Determinism claim, stated precisely: the *perturbation pattern* — which
//! deliveries are deferred, and for how many receiver yield points — is a
//! pure function of the schedule descriptor, independent of thread timing.
//! The OS still interleaves threads underneath, so a descriptor denotes a
//! family of closely-related executions rather than a single one; in
//! practice a race surfaced by a descriptor re-surfaces under it, which is
//! what exploration needs.
//!
//! [`explore()`] knows nothing of what it runs: the workloads — the
//! conformance table's rows — live with the product they check.

use crate::{
    run_with_config, Backoff, CheckConfig, Comm, FaultPlan, Finding, RunConfig, SchedConfig,
};
use std::ops::Range;
use std::panic::AssertUnwindSafe;

/// What to explore and how hard.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// World size for every schedule.
    pub ranks: usize,
    /// Random-mode seeds to run.
    pub random_seeds: Range<u64>,
    /// Systematic-mode decision classes; all `2^bits` masks are swept.
    /// 0 disables the systematic pass.
    pub systematic_bits: u32,
    /// Deferral probability of the random schedules.
    pub defer_prob: f64,
    /// Maximum hold (receiver yield-point visits) per deferred delivery.
    pub max_hold: u32,
}

impl ExploreConfig {
    /// `random_seeds` random schedules plus the `2^systematic_bits`-mask
    /// systematic sweep on `ranks` ranks, at the deferral probability (0.35)
    /// and hold (3) every gate uses.
    pub fn new(ranks: usize, random_seeds: Range<u64>, systematic_bits: u32) -> Self {
        ExploreConfig {
            ranks,
            random_seeds,
            systematic_bits,
            defer_prob: 0.35,
            max_hold: 3,
        }
    }

    /// Number of schedules this configuration runs.
    pub fn schedules(&self) -> u64 {
        let random = self
            .random_seeds
            .end
            .saturating_sub(self.random_seeds.start);
        let systematic = if self.systematic_bits == 0 {
            0
        } else {
            1u64 << self.systematic_bits
        };
        random + systematic
    }

    /// Every schedule of the plan, in run order (random seeds first).
    pub fn plan(&self) -> Vec<SchedConfig> {
        let mut out: Vec<SchedConfig> = self
            .random_seeds
            .clone()
            .map(|seed| {
                let mut s = SchedConfig::random(seed);
                s.defer_prob = self.defer_prob;
                s.max_hold = self.max_hold;
                s
            })
            .collect();
        if self.systematic_bits > 0 {
            for mask in 0..(1u64 << self.systematic_bits) {
                let mut s = SchedConfig::systematic(mask, self.systematic_bits);
                s.max_hold = self.max_hold;
                out.push(s);
            }
        }
        out
    }
}

/// One schedule that did not come back clean.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// Reproducible descriptor: the schedule (`random(seed=…)` /
    /// `systematic(mask=…)`), `+`, the fault plan's label.
    pub schedule: String,
    /// The run's findings.
    pub findings: Vec<Finding>,
    /// Panic message, when the run panicked rather than reporting.
    pub panic: Option<String>,
    /// Worst numerical deviation reported by the workload, if it measures
    /// one.
    pub max_err: Option<f64>,
}

/// Aggregate result of an exploration sweep.
#[derive(Debug)]
pub struct ExploreReport {
    /// Runs executed: schedules × fault plans.
    pub schedules_run: u64,
    /// Runs that panicked, hung, reported a finding, lost the wrong ranks,
    /// or exceeded the workload's numerical tolerance.
    pub failures: Vec<ScheduleFailure>,
}

impl ExploreReport {
    /// `true` when every schedule came back clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// Runs `workload` under mpisim's checked mode once per schedule in `cfg`'s
/// plan and labelled fault plan in `faults` (schedule-major), and collects
/// every run that did not come back clean. Each schedule re-seeds the fault
/// plans' probabilistic draws ([`FaultPlan::scoped`] by schedule index), so a
/// plan's structure meets every schedule with fresh corruption sites. The
/// workload returns an optional per-rank "numerical error", compared against
/// `tolerance` (pass `f64::INFINITY` for correctness-by-panic workloads). A
/// run fails on a finding, a panic, a hang, an error above
/// `tolerance`, or dead ranks other than the ones its plan crashes — so a
/// planned crash that never fires fails too.
pub fn explore<W>(
    cfg: &ExploreConfig,
    faults: &[(String, FaultPlan)],
    tolerance: f64,
    workload: W,
) -> ExploreReport
where
    W: Fn(Comm) -> Option<f64> + Send + Sync,
{
    let runs = cfg.plan().into_iter().enumerate().flat_map(|(i, sched)| {
        faults.iter().map(move |(label, plan)| {
            let descriptor = format!("{}+{label}", sched.describe());
            (sched, plan.clone().scoped(i as u64), descriptor)
        })
    });
    let mut failures = Vec::new();
    for (sched, faults, descriptor) in runs {
        let expect_crashes: Vec<usize> = (0..cfg.ranks)
            .filter_map(|r| faults.crash_at(r).map(|_| r))
            .collect();
        let run_cfg = RunConfig {
            faults,
            backoff: Backoff::checked(),
            check: Some(CheckConfig::with_sched(sched)),
        };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_with_config(cfg.ranks, run_cfg, &workload)
        }));
        match outcome {
            Ok(out) => {
                let findings = out.report.findings;
                let max_err = out.results.as_ref().and_then(|rs| {
                    rs.iter()
                        .flatten()
                        .cloned()
                        .fold(None, |a: Option<f64>, b| Some(a.map_or(b, |a| a.max(b))))
                });
                let numerically_bad = max_err.is_some_and(|e| e > tolerance);
                let hung = out.results.is_none();
                let wrong_deaths = (out.crashed != expect_crashes).then(|| {
                    format!(
                        "injected-crash mismatch: expected dead ranks {expect_crashes:?}, \
                         observed {:?}",
                        out.crashed
                    )
                });
                if !findings.is_empty() || numerically_bad || hung || wrong_deaths.is_some() {
                    failures.push(ScheduleFailure {
                        schedule: descriptor,
                        findings,
                        panic: wrong_deaths,
                        max_err,
                    });
                }
            }
            Err(e) => {
                failures.push(ScheduleFailure {
                    schedule: descriptor,
                    findings: Vec::new(),
                    panic: Some(panic_message(e)),
                    max_err: None,
                });
            }
        }
    }
    ExploreReport {
        schedules_run: cfg.schedules() * faults.len() as u64,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Vec<(String, FaultPlan)> {
        vec![("clean".to_owned(), FaultPlan::none())]
    }

    #[test]
    fn plan_counts_random_plus_systematic() {
        let cfg = ExploreConfig::new(4, 0..136, 6);
        assert_eq!(cfg.schedules(), 200);
        assert_eq!(cfg.plan().len(), 200);
        assert_eq!(ExploreConfig::new(4, 0..136, 0).schedules(), 136);
    }

    #[test]
    fn explore_smoke_allreduce_is_clean() {
        let cfg = ExploreConfig {
            defer_prob: 0.4,
            ..ExploreConfig::new(3, 0..6, 2)
        };
        let report = explore(&cfg, &clean(), 1e-12, |comm| {
            let sum = comm.allreduce_sum(&[comm.rank() as f64]);
            Some((sum[0] - 3.0).abs())
        });
        assert_eq!(report.schedules_run, 10);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn every_schedule_meets_every_fault_plan() {
        let cfg = ExploreConfig::new(2, 0..3, 1);
        let faults = [clean(), clean()].concat();
        let report = explore(&cfg, &faults, 0.0, |_| None);
        assert_eq!(report.schedules_run, 10);
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn a_planned_crash_that_never_fires_fails_its_schedule() {
        let cfg = ExploreConfig::new(2, 0..1, 0);
        let crash = FaultPlan::none().with_rank_crash(1, 0);
        let faults = [("crash".to_owned(), crash)];
        // The workload never reaches a crash point.
        let report = explore(&cfg, &faults, f64::INFINITY, |_| None);
        assert_eq!(report.failures.len(), 1);
        let why = report.failures[0].panic.as_deref().unwrap_or_default();
        assert!(why.contains("injected-crash mismatch"), "{why}");
        assert!(report.failures[0].schedule.ends_with("+crash"));
    }

    #[test]
    fn explore_catches_an_unmatched_post() {
        let cfg = ExploreConfig {
            defer_prob: 0.0,
            max_hold: 1,
            ..ExploreConfig::new(2, 0..1, 0)
        };
        let report = explore(&cfg, &clean(), f64::INFINITY, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u8], 1, 9); // deliberately never received
            }
            comm.barrier();
            None
        });
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert!(f.findings.iter().any(|f| f.id.code() == "MC001"), "{f:?}");
    }
}
