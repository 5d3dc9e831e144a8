//! # opm-kernels
//!
//! The kernel registry and experiment drivers of the OPM reproduction:
//! paper Table 2 as code ([`registry`]), the Appendix A parameter sweeps
//! evaluated through the performance model ([`sweeps`]), the shared
//! sweep-execution engine they run on ([`engine`]), the
//! deterministic fault-injection harness that exercises its fault
//! tolerance ([`faultinject`]), and the Table 4/5 summary machinery
//! ([`summary`]).

#![warn(missing_docs)]

pub mod engine;
pub mod faultinject;
pub mod registry;
pub mod summary;
pub mod sweeps;
pub mod traces;

pub use engine::{lock_recover, CacheStats, Engine, EngineConfig, PointFailure, StageRecord};
pub use faultinject::{FaultKind, FaultPlan, FaultRule, InjectedFault};
pub use registry::{IntensityClass, KernelId};
pub use summary::{cross_kernel, summarize_pair, CrossKernelSummary, SummaryRow};
pub use sweeps::{
    cholesky_sweep, cholesky_sweep_on, fft_curve, fft_curve_on, gemm_sweep, gemm_sweep_on,
    paper_dense_sizes, paper_dense_tiles, paper_fft_sizes, paper_stencil_grids,
    paper_stream_footprints, sparse_sweep, sparse_sweep_on, stencil_curve, stencil_curve_on,
    stream_curve, stream_curve_on, CurvePoint, HeatPoint, SparseKernelId, SparsePoint,
};
