//! # fft3d — auto-tunable parallel 3-D FFT with computation-communication
//! overlap
//!
//! The primary contribution of Song & Hollingsworth, *"Designing and
//! Auto-Tuning Parallel 3-D FFT for Computation-Communication Overlap"*
//! (PPoPP 2014), reimplemented in Rust:
//!
//! * 1-D (slab) decomposition with the seven-step procedure of §2.2;
//! * communication tiles and a window of concurrent non-blocking
//!   all-to-alls (`T`, `W`), with *all four* compute steps (FFTy, Pack,
//!   Unpack, FFTx) overlapping communication — Algorithm 1;
//! * fully asynchronous progression by periodic `MPI_Test` (`Fy, Fp, Fu,
//!   Fx`) — §3.3;
//! * loop tiling of Pack/Unpack for cache reuse (`Px, Pz, Uy, Uz`) — §3.4;
//! * the `Nx = Ny` fast-transpose path — §3.5;
//! * the comparators of §5: FFTW-style blocking, Hoefler et al.'s TH, and
//!   the non-overlapped NEW-0/TH-0.
//!
//! Two interchangeable backends run the same pipeline schedule
//! ([`pipeline::OverlapEnv`]):
//!
//! * the real stage executor runs on real data over the [`mpisim`] runtime
//!   (correctness; verified against [`serial::fft3_serial`]). A transform is
//!   a sequence of exchange stages, each one geometry-driven shape on the
//!   one executor: the slab transform is one stage — [`FftSession`] — and
//!   the pencil transform two — [`PencilSession`];
//! * [`sim_env::Simulation`] charges [`simnet`]'s calibrated cost models
//!   (performance studies at the paper's scales).
//!
//! Those three owners are the entry points: a session is set up once and
//! executed many times (a one-shot transform is a session executed once),
//! a simulation is built by `slab`/`pencil`, shaped by chained setters and
//! `run`. The five free functions still re-exported — [`try_fft3_dist`],
//! [`try_fft3_dist_traced`], [`fft3_simulated`], [`th_simulated`],
//! [`pencil_overlap_simulated_params`] — are one-line shims over them that
//! exist because `fftperf/` imports them, and go when it stops.
//!
//! ```
//! use fft3d::sim_env::Simulation;
//! use fft3d::{ProblemSpec, TuningParams, Variant};
//! use simnet::model::umd_cluster;
//!
//! let spec = ProblemSpec::cube(256, 16);
//! let params = TuningParams::seed(&spec);
//! let time = |variant| -> Result<f64, fft3d::Error> {
//!     let runs = Simulation::slab(spec, variant, params)?.run(umd_cluster())?;
//!     Ok(runs[0].report.time)
//! };
//! assert!(time(Variant::New)? < time(Variant::Fftw)?); // overlap wins on the slow network
//! # Ok::<(), fft3d::Error>(())
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]
#![expect(clippy::manual_is_multiple_of, reason = "is_multiple_of needs 1.87")]
pub mod breakdown;
pub mod decomp;
pub mod error;
mod executor;
pub mod params;
pub mod pencil;
pub mod pipeline;
pub mod real_env;
pub mod recover;
pub mod serial;
pub mod service;
pub mod sim_env;
mod stage;
pub mod trace;
mod transport;

pub use breakdown::{RunStats, StepTimes};
pub use decomp::{auto_select, Decomposition};
pub use error::Error;
pub use error::IntegrityStage;
pub use params::{ProblemSpec, ThParams, TuningParams};
pub use pencil::{
    compare_pencil_with_serial, pencil_blocking, pencil_feasible, pencil_seed, pencil_test_input,
    PencilGrid, PencilOutput, PencilRunOutput, PencilSession,
};
pub use pipeline::{Recovery, Resilience, POLL_BOOST};
pub use real_env::{
    try_fft3_dist, try_fft3_dist_traced, FftSession, OutLayout, RunOutput, Variant,
};
pub use recover::{
    run_recoverable, Checkpoint, ComputeSource, ParitySource, RecoverConfig, RecoverOutcome,
    ReplicaSource, SlabSource,
};
pub use service::{
    jain_index, Admission, CancelReason, FctStats, IsolatedRun, JobData, JobOutcome, JobRecord,
    JobSpec, RejectReason, Service, ServiceConfig, ServiceReport, TenantStats,
};
pub use sim_env::{
    fft3_simulated, pencil_overlap_simulated_params, th_simulated, Execution, SimReport, Simulation,
};
pub use trace::{
    derive_step_times, overlap_summary, trace_to_json, DegradeAction, EventKind, MemRecorder,
    NoopRecorder, OverlapSummary, Recorder, TraceEvent,
};
