//! # mpicheck — verification harness for the mpisim runtime and the
//! overlapped 3-D FFT pipeline
//!
//! Three cooperating passes (DESIGN.md §12):
//!
//! 1. **Deterministic schedule exploration** ([`mod@explore`]): replays a world
//!    under many message-delivery interleavings — seeded random schedules
//!    plus a bounded systematic (DPOR-lite) mask sweep — using mpisim's
//!    virtual scheduler. A failing schedule is identified by a descriptor
//!    (`random(seed=…)` / `systematic(mask=…)`) that reproduces it exactly.
//! 2. **Happens-before verification**: runs inherit mpisim's checked mode —
//!    vector clocks, wait-for-graph deadlock detection naming the ranks
//!    (a cycle, or a chain to a rank that returned without joining a
//!    collective), and the runtime lint catalogue `MC001`–`MC007`.
//! 3. **Source lints** ([`srclint`]): token lints over the workspace's
//!    non-test code, fed by a real [`lexer`] so comments and strings never
//!    fire. Besides hygiene rules, `SL015` confines every mpisim exchange
//!    and ULFM collective call to the one transport, which is what lets the
//!    conformance table's runs stand for all of them; `#[must_use]` on
//!    mpisim's request and plan handles rejects a discarded post at compile
//!    time.
//!
//! The exploration pass also runs *faulty* worlds: [`explore()`] pairs every
//! schedule with each of the caller's fault plans, and a rank the plan
//! crashes must be the only one that dies. mpicheck does not depend on the
//! transform it checks: the workloads are the rows of the root package's
//! conformance table (`fft3d_repro::conformance`), which `cargo xtask
//! conform` and `check` run over schedule plans (see README) and CI over a
//! seed matrix.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod explore;
pub mod lexer;
pub mod srclint;

pub use explore::{explore, ExploreConfig, ExploreReport, ScheduleFailure};
pub use mpisim::{
    Backoff, CheckConfig, CheckOutcome, CheckReport, Finding, LintId, SchedConfig, SchedMode,
    Severity,
};
pub use srclint::{
    lint_sources, render_sarif, render_text, LintReport, LintSeverity, SrcFinding, SrcLintId,
    ALL_LINTS,
};
