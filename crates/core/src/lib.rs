//! # opm-core
//!
//! Core modeling layer of the reproduction of *"Exploring and Analyzing the
//! Real Impact of Modern On-Package Memory on HPC Scientific Kernels"*
//! (SC'17): platform descriptions of the two evaluated machines (Broadwell
//! with eDRAM, Knights Landing with MCDRAM), the access-profile abstraction
//! that kernels use to describe their memory behaviour, the quantitative
//! Stepping-Model performance model, the Roofline model, the power/energy
//! model (Eq. 1), and supporting statistics and reporting utilities.
//!
//! See `DESIGN.md` at the repository root for the full system inventory and
//! the per-experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod guideline;
pub mod perf;
pub mod platform;
pub mod power;
pub mod profile;
pub mod report;
pub mod roofline;
pub mod sharing;
pub mod stats;
pub mod stepping;
pub mod telemetry;
pub mod units;

pub use config::{Config, ConfigError};
pub use guideline::{recommend_edram, recommend_mcdram, Workload};
pub use perf::{Estimate, ModelParams, PerfModel};
pub use platform::{EdramMode, Machine, McdramMode, MemLevel, OpmConfig, PlatformSpec};
pub use power::{energy_delay_product, Objective, PowerModel, PowerSample};
pub use profile::{AccessProfile, Phase, ProfileKey, Tier};
pub use roofline::Roofline;
pub use sharing::{evaluate_sharing, SharingOutcome, SharingPolicy};
pub use stepping::{stepping_curve, SteppingCurve, SweepKernel};
pub use telemetry::{
    Counter, CounterSnapshot, JsonlSink, Span, SpanRecord, Telemetry, TelemetryMode, TelemetrySink,
};
