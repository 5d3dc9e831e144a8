//! # opm-memsim
//!
//! Exact, trace-driven memory-hierarchy simulation for the OPM reproduction:
//! set-associative LRU caches, the Broadwell eDRAM **victim** L4, the KNL
//! direct-mapped MCDRAM cache, and flat/hybrid MCDRAM placement. Also
//! provides reuse-distance (stack distance) analysis, which links exact
//! simulation to the analytic tier model in `opm-core` (a fully-associative
//! LRU cache of `C` lines hits exactly the accesses with stack distance
//! `< C`).
//!
//! The simulator is used at reduced scale ("milli-machines" with preserved
//! capacity ratios) to validate the analytic performance model.

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod reuse;
pub mod synth;
pub mod timing;
pub mod trace;

pub use cache::{CacheStats, Lookup, SetAssocCache};
pub use hierarchy::{HierarchySim, LevelCounters, ServedBy, SimResult};
pub use reuse::{reuse_histogram, reuse_histogram_reference, ReuseHistogram};
pub use synth::{trace_from_phase, trace_from_tiers, trace_from_tiers_into};
pub use timing::{LevelPrice, SimTiming};
pub use trace::{Access, AccessKind, PackedAccesses, Trace, LINE_BYTES};
