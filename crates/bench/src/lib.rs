//! # opm-bench
//!
//! The figure/table regeneration harness behind the one `opm` binary:
//! the figure registry ([`manifest`], `opm figures`), the studies
//! ([`extensions::STUDIES`], `opm study`), the report renderer
//! ([`plot::write_report`], `opm report`), the query service
//! ([`serve`]), and the shared sweep plumbing the benchmark harness in
//! `perfbench/` uses too. Everything writes CSV series (and aligned text
//! tables) under `results/` (override with `OPM_RESULTS`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use opm_core::perf::PerfModel;
use opm_core::platform::{Machine, OpmConfig, PlatformSpec};
use opm_core::power::PowerModel;
use opm_core::profile::AccessProfile;
use opm_core::report::Series;
use opm_core::units::GIB;
use opm_kernels::registry::KernelId;
use opm_kernels::sweeps::{
    cholesky_sweep, fft_curve, gemm_sweep, paper_dense_sizes, paper_dense_tiles, paper_fft_sizes,
    paper_stencil_grids, paper_stream_footprints, sparse_sweep, stencil_curve, stream_curve,
    SparseKernelId,
};
use opm_sparse::gen::{corpus, MatrixSpec, PAPER_CORPUS_SIZE};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Output directory for results (`OPM_RESULTS` env override, default
/// `results/`).
pub fn out_dir() -> PathBuf {
    opm_core::config::Config::from_env_or_die().results_dir
}

/// Monotonic count of CSV rows written through [`emit`] by this process.
/// Figures that never run an engine stage (pure model evaluations like
/// `fig06_stepping_model`) are measured by the rows they produce:
/// [`manifest::run_figures`] snapshots this counter around each figure so
/// every campaign case reports a real item count.
static EMITTED_ROWS: AtomicU64 = AtomicU64::new(0);

/// Current [`emit`] row-count snapshot (monotonic within the process).
pub fn emitted_rows() -> u64 {
    EMITTED_ROWS.load(Ordering::Relaxed)
}

/// Write a series and report the path on stdout.
pub fn emit(series: &Series, name: &str) {
    EMITTED_ROWS.fetch_add(series.rows.len() as u64, Ordering::Relaxed);
    let path = series
        .write_csv(out_dir(), name)
        .unwrap_or_else(|e| panic!("writing {name}: {e}"));
    println!("wrote {}", path.display());
}

/// The paper's 968-matrix corpus, swept by every sparse figure.
pub fn harness_corpus() -> Vec<MatrixSpec> {
    corpus(PAPER_CORPUS_SIZE)
}

/// The representative mid-size workload profile for one kernel on one
/// machine — used by the power figures (26/27) and the Eq. 1 energy
/// analysis, where the paper reports one averaged bar per kernel.
pub fn representative_profile(kernel: KernelId, machine: Machine) -> AccessProfile {
    let threads = kernel.threads(machine);
    let cores = PlatformSpec::for_machine(machine).cores;
    let knl = machine == Machine::Knl;
    match kernel {
        KernelId::Gemm => {
            let (n, tile) = if knl { (16384, 1024) } else { (8192, 384) };
            opm_dense::gemm_profile(n, tile, threads, cores)
        }
        KernelId::Cholesky => {
            let (n, tile) = if knl { (16384, 1024) } else { (8192, 384) };
            opm_dense::cholesky_profile(n, tile, threads, cores)
        }
        KernelId::Spmv => opm_sparse::spmv_profile(1_000_000, 15_000_000, 400_000.0, threads),
        KernelId::Sptrans => opm_sparse::sptrans_profile(1_000_000, 15_000_000, threads),
        KernelId::Sptrsv => {
            opm_sparse::sptrsv_profile(1_000_000, 15_000_000, 400_000.0, 300.0, threads)
        }
        KernelId::Fft => opm_fft::fft3d_profile(if knl { 704 } else { 400 }, threads, cores),
        KernelId::Stencil => {
            let g = if knl {
                (1024, 1024, 512)
            } else {
                (512, 512, 256)
            };
            opm_stencil::stencil_profile(g.0, g.1, g.2, (64, 64, 96), threads, cores)
        }
        KernelId::Stream => {
            let n = (2.0 * GIB / 24.0) as usize;
            opm_stencil::stream_profile(n, 4, threads)
        }
    }
}

/// The full sweep of modeled throughputs for one kernel under one
/// configuration, aligned across configurations of the same machine (used
/// by Tables 4 and 5). Runs on the global
/// [`Engine`](opm_kernels::engine::Engine); each configuration
/// builds its own profiles (a fraction of a microsecond each) instead of
/// sharing a memo.
pub fn kernel_sweep_gflops(kernel: KernelId, config: OpmConfig) -> Vec<f64> {
    let machine = config.machine();
    match kernel {
        KernelId::Gemm => gemm_sweep(config, &paper_dense_sizes(machine), &paper_dense_tiles())
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Cholesky => {
            cholesky_sweep(config, &paper_dense_sizes(machine), &paper_dense_tiles())
                .into_iter()
                .map(|p| p.gflops)
                .collect()
        }
        KernelId::Spmv => sparse_sweep(config, SparseKernelId::Spmv, &harness_corpus())
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Sptrans => sparse_sweep(config, SparseKernelId::Sptrans, &harness_corpus())
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Sptrsv => sparse_sweep(config, SparseKernelId::Sptrsv, &harness_corpus())
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Fft => fft_curve(config, &paper_fft_sizes(machine))
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Stencil => stencil_curve(config, &paper_stencil_grids(machine))
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
        KernelId::Stream => stream_curve(config, &paper_stream_footprints(machine, 48))
            .into_iter()
            .map(|p| p.gflops)
            .collect(),
    }
}

/// Average package/DRAM power of a kernel's representative workload under a
/// configuration.
pub fn kernel_power(kernel: KernelId, config: OpmConfig) -> opm_core::power::PowerSample {
    let machine = config.machine();
    let prof = representative_profile(kernel, machine);
    let est = PerfModel::for_config(config).evaluate(&prof);
    PowerModel::for_machine(machine).sample(&est, config, prof.total_flops(), prof.total_bytes())
}

/// Log-binned 2D aggregation for the sparse structure heat maps
/// (Figs. 9–11 bottom and 20–22): mean throughput per (rows, nnz) cell.
pub fn structure_heatmap(
    points: &[(usize, usize, f64)], // (rows, nnz, gflops)
    bins: usize,
) -> Series {
    assert!(bins >= 2 && !points.is_empty());
    let lg = |v: usize| (v.max(1) as f64).log10();
    let (mut rmin, mut rmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut nmin, mut nmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(r, n, _) in points {
        rmin = rmin.min(lg(r));
        rmax = rmax.max(lg(r));
        nmin = nmin.min(lg(n));
        nmax = nmax.max(lg(n));
    }
    let rstep = ((rmax - rmin) / bins as f64).max(1e-9);
    let nstep = ((nmax - nmin) / bins as f64).max(1e-9);
    let mut sums = vec![0.0f64; bins * bins];
    let mut counts = vec![0usize; bins * bins];
    for &(r, n, g) in points {
        let i = (((lg(r) - rmin) / rstep) as usize).min(bins - 1);
        let j = (((lg(n) - nmin) / nstep) as usize).min(bins - 1);
        sums[i * bins + j] += g;
        counts[i * bins + j] += 1;
    }
    let mut s = Series::new(vec!["log10_rows", "log10_nnz", "mean_gflops", "count"]);
    for i in 0..bins {
        for j in 0..bins {
            let c = counts[i * bins + j];
            if c > 0 {
                s.push(vec![
                    rmin + (i as f64 + 0.5) * rstep,
                    nmin + (j as f64 + 0.5) * nstep,
                    sums[i * bins + j] / c as f64,
                    c as f64,
                ]);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::platform::{EdramMode, McdramMode};

    #[test]
    fn representative_profiles_validate() {
        for kernel in KernelId::ALL {
            for machine in [Machine::Broadwell, Machine::Knl] {
                representative_profile(kernel, machine)
                    .validate()
                    .unwrap_or_else(|e| panic!("{kernel:?}/{machine:?}: {e}"));
            }
        }
    }

    #[test]
    fn power_is_higher_with_edram_on_average() {
        let mut deltas = Vec::new();
        for kernel in KernelId::ALL {
            let on = kernel_power(kernel, OpmConfig::Broadwell(EdramMode::On));
            let off = kernel_power(kernel, OpmConfig::Broadwell(EdramMode::Off));
            deltas.push(on.package_w - off.package_w);
        }
        let avg = deltas.iter().sum::<f64>() / deltas.len() as f64;
        // Paper §5.2: average ~5.6 W increase on Broadwell.
        assert!(avg > 0.5 && avg < 15.0, "avg delta {avg}");
    }

    #[test]
    fn mcdram_flat_can_reduce_ddr_power() {
        let flat = kernel_power(KernelId::Stencil, OpmConfig::Knl(McdramMode::Flat));
        let ddr = kernel_power(KernelId::Stencil, OpmConfig::Knl(McdramMode::Off));
        assert!(flat.dram_w < ddr.dram_w);
    }

    #[test]
    fn structure_heatmap_bins_cover_points() {
        let pts = vec![
            (1000usize, 200_000usize, 5.0),
            (1000, 200_000, 7.0),
            (1_000_000, 20_000_000, 1.0),
        ];
        let s = structure_heatmap(&pts, 4);
        let total: f64 = s.rows.iter().map(|r| r[3]).sum();
        assert_eq!(total, 3.0);
        // Mean of the co-binned points.
        assert!(s.rows.iter().any(|r| (r[2] - 6.0).abs() < 1e-9));
    }
}

pub mod ablation;
pub mod cli;
pub mod corpus;
pub mod extensions;
pub mod figures;
pub mod loadgen;
pub mod manifest;
pub mod plot;
pub mod serve;
pub mod telemetry;

/// Serializes lib tests that mutate process environment (`OPM_RESULTS`).
#[cfg(test)]
pub(crate) static TEST_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
