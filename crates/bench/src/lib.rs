//! # fft-bench — experiment harness regenerating the paper's evaluation
//!
//! One binary per table/figure (see DESIGN.md §4 for the index):
//!
//! * `fig5` — random-configuration CDF + NM-vs-random (§5.3.1)
//! * `table2 -- --platform {umd|hopper|hopper-large|all}` — Tables 2–4 and
//!   Figure 7
//! * `fig8` — per-step breakdowns (NEW / NEW-0 / TH / TH-0)
//! * `fig9` — cross-platform test
//! * `calibrate` — model-vs-paper calibration probe
//! * `repro_all` — everything, rewriting EXPERIMENTS.md

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]
pub mod cells;
pub mod experiments;
pub mod paper;
pub mod report;
