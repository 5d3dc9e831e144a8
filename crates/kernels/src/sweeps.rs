//! Parameter-sweep drivers: the experiment grids of the paper's Appendix A
//! (matrix orders × tile sizes for the dense kernels, the 968-matrix corpus
//! for the sparse kernels, and footprint sweeps for Stream/Stencil/FFT),
//! evaluated through the performance model for any OPM configuration.
//!
//! Every sweep executes on the shared [`Engine`] (see [`crate::engine`]):
//! grid points run in order on the calling thread, each builds its access
//! profile and folds its plan in place ([`PlannedProfile::compute`]), and
//! each sweep is recorded as a timed stage. The `*_on` variants take an
//! explicit engine; the original names run on [`Engine::global`].
//!
//! Sweeps run with **panic isolation**
//! ([`Engine::par_map_isolated`]): a point that still fails after the
//! transient-retry budget is quarantined — its row keeps the grid
//! coordinates but carries NaN for the modeled values — and the failure
//! is recorded on the engine for the `run_errors.csv` manifest, instead
//! of aborting the whole sweep.

use crate::engine::{Engine, PlannedProfile};
use crate::registry::KernelId;
use opm_core::perf::PerfModel;
use opm_core::platform::{Machine, OpmConfig, PlatformSpec};
use opm_core::units::{GIB, MIB};
use opm_sparse::gen::MatrixSpec;

/// One point of a dense (size × tile) heat map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeatPoint {
    /// Matrix order.
    pub n: usize,
    /// Tile size.
    pub tile: usize,
    /// Modeled throughput, GFlop/s.
    pub gflops: f64,
}

/// One point of a footprint curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Allocation footprint in bytes.
    pub footprint: f64,
    /// Modeled throughput, GFlop/s.
    pub gflops: f64,
}

/// One corpus matrix result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsePoint {
    /// The matrix description.
    pub spec: MatrixSpec,
    /// Allocation footprint in bytes.
    pub footprint: f64,
    /// Modeled throughput, GFlop/s.
    pub gflops: f64,
}

/// Which sparse kernel a corpus sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseKernelId {
    /// SpMV.
    Spmv,
    /// SpTRANS.
    Sptrans,
    /// SpTRSV.
    Sptrsv,
}

impl SparseKernelId {
    /// Corresponding registry id.
    pub fn kernel(&self) -> KernelId {
        match self {
            SparseKernelId::Spmv => KernelId::Spmv,
            SparseKernelId::Sptrans => KernelId::Sptrans,
            SparseKernelId::Sptrsv => KernelId::Sptrsv,
        }
    }
}

fn cores(machine: Machine) -> usize {
    PlatformSpec::for_machine(machine).cores
}

/// Paper Appendix A.2.1 matrix orders: `{256 .. 16128 .. 512}` on Broadwell,
/// `{256 .. 32000 .. 1024}` on KNL.
pub fn paper_dense_sizes(machine: Machine) -> Vec<usize> {
    match machine {
        Machine::Broadwell => (256..=16128).step_by(512).collect(),
        Machine::Knl => (256..=32000).step_by(1024).collect(),
    }
}

/// Paper Appendix A.2.1 tile sizes: `{128 .. 4096 .. 128}` on both.
pub fn paper_dense_tiles() -> Vec<usize> {
    (128..=4096).step_by(128).collect()
}

fn dense_sweep_on(
    engine: &Engine,
    config: OpmConfig,
    kernel: KernelId,
    sizes: &[usize],
    tiles: &[usize],
) -> Vec<HeatPoint> {
    let model = PerfModel::for_config(config);
    let machine = config.machine();
    let threads = kernel.threads(machine);
    let c = cores(machine);
    let grid: Vec<(usize, usize)> = sizes
        .iter()
        .flat_map(|&n| tiles.iter().map(move |&tile| (n, tile)))
        .collect();
    let label = format!("{}_sweep/{}", kernel.name(), config.label());
    let plan = model.plan();
    engine.run_stage(&label, |eng| {
        let eval = |&(n, tile): &(usize, usize)| {
            let pp = PlannedProfile::compute(|| match kernel {
                KernelId::Gemm => opm_dense::gemm_profile(n, tile, threads, c),
                _ => opm_dense::cholesky_profile(n, tile, threads, c),
            });
            HeatPoint {
                n,
                tile,
                gflops: eng.observe_point(&plan, pp.plan(), None),
            }
        };
        // A quarantined point keeps its grid coordinates; only the
        // modeled throughput becomes NaN.
        let placeholder = |&(n, tile): &(usize, usize), _i: usize| HeatPoint {
            n,
            tile,
            gflops: f64::NAN,
        };
        let pts = eng.par_map_isolated(&label, &grid, eval, placeholder);
        let n = pts.len();
        (pts, n)
    })
}

/// GEMM heat map under one configuration, on an explicit engine.
pub fn gemm_sweep_on(
    engine: &Engine,
    config: OpmConfig,
    sizes: &[usize],
    tiles: &[usize],
) -> Vec<HeatPoint> {
    dense_sweep_on(engine, config, KernelId::Gemm, sizes, tiles)
}

/// GEMM heat map under one configuration.
pub fn gemm_sweep(config: OpmConfig, sizes: &[usize], tiles: &[usize]) -> Vec<HeatPoint> {
    gemm_sweep_on(Engine::global(), config, sizes, tiles)
}

/// Cholesky heat map under one configuration, on an explicit engine.
pub fn cholesky_sweep_on(
    engine: &Engine,
    config: OpmConfig,
    sizes: &[usize],
    tiles: &[usize],
) -> Vec<HeatPoint> {
    dense_sweep_on(engine, config, KernelId::Cholesky, sizes, tiles)
}

/// Cholesky heat map under one configuration.
pub fn cholesky_sweep(config: OpmConfig, sizes: &[usize], tiles: &[usize]) -> Vec<HeatPoint> {
    cholesky_sweep_on(Engine::global(), config, sizes, tiles)
}

/// Corpus sweep for one sparse kernel under one configuration, on an
/// explicit engine. Uses the generator's analytic structure estimates
/// (building all 968 matrices would take hours; estimates carry
/// rows/nnz/span/levels, which is what the profiles need).
pub fn sparse_sweep_on(
    engine: &Engine,
    config: OpmConfig,
    kernel: SparseKernelId,
    specs: &[MatrixSpec],
) -> Vec<SparsePoint> {
    let model = PerfModel::for_config(config);
    let machine = config.machine();
    let threads = kernel.kernel().threads(machine);
    let label = format!("{}_sweep/{}", kernel.kernel().name(), config.label());
    let plan = model.plan();
    engine.run_stage(&label, |eng| {
        let eval = |spec: &MatrixSpec| {
            let est = spec.estimate();
            let pp = PlannedProfile::compute(|| match kernel {
                SparseKernelId::Spmv => {
                    opm_sparse::spmv_profile(est.rows, est.nnz, est.avg_col_span, threads)
                }
                SparseKernelId::Sptrans => opm_sparse::sptrans_profile(est.rows, est.nnz, threads),
                SparseKernelId::Sptrsv => opm_sparse::sptrsv_profile(
                    est.rows,
                    est.nnz,
                    est.avg_col_span,
                    est.levels,
                    threads,
                ),
            });
            SparsePoint {
                spec: *spec,
                footprint: pp.footprint,
                gflops: eng.observe_point(&plan, pp.plan(), None),
            }
        };
        let placeholder = |spec: &MatrixSpec, _i: usize| SparsePoint {
            spec: *spec,
            footprint: f64::NAN,
            gflops: f64::NAN,
        };
        let pts = eng.par_map_isolated(&label, specs, eval, placeholder);
        let n = pts.len();
        (pts, n)
    })
}

/// Corpus sweep for one sparse kernel under one configuration.
pub fn sparse_sweep(
    config: OpmConfig,
    kernel: SparseKernelId,
    specs: &[MatrixSpec],
) -> Vec<SparsePoint> {
    sparse_sweep_on(Engine::global(), config, kernel, specs)
}

/// Stream TRIAD footprint curve (paper Figs. 12 / 23), on an explicit
/// engine.
pub fn stream_curve_on(engine: &Engine, config: OpmConfig, footprints: &[f64]) -> Vec<CurvePoint> {
    let model = PerfModel::for_config(config);
    let threads = KernelId::Stream.threads(config.machine());
    let label = format!("stream_curve/{}", config.label());
    let plan = model.plan();
    engine.run_stage(&label, |eng| {
        let eval = |&fp: &f64| {
            let n = (fp / 24.0).max(64.0) as usize;
            let pp = PlannedProfile::compute(|| opm_stencil::stream_profile(n, 4, threads));
            CurvePoint {
                footprint: pp.footprint,
                gflops: eng.observe_point(&plan, pp.plan(), Some(&format!("{:.0}", pp.footprint))),
            }
        };
        // The footprint is a pure function of the requested size (three
        // arrays of doubles), so a quarantined point keeps its x-axis
        // coordinate and only the throughput becomes NaN.
        let placeholder = |&fp: &f64, _i: usize| CurvePoint {
            footprint: 24.0 * ((fp / 24.0).max(64.0) as usize) as f64,
            gflops: f64::NAN,
        };
        let pts = eng.par_map_isolated(&label, footprints, eval, placeholder);
        let n = pts.len();
        (pts, n)
    })
}

/// Stream TRIAD footprint curve (paper Figs. 12 / 23).
pub fn stream_curve(config: OpmConfig, footprints: &[f64]) -> Vec<CurvePoint> {
    stream_curve_on(Engine::global(), config, footprints)
}

/// Stencil grid-size curve (paper Figs. 13 / 24), on an explicit engine.
/// The block is the paper's 64×64×96.
pub fn stencil_curve_on(
    engine: &Engine,
    config: OpmConfig,
    grids: &[(usize, usize, usize)],
) -> Vec<CurvePoint> {
    let model = PerfModel::for_config(config);
    let machine = config.machine();
    let threads = KernelId::Stencil.threads(machine);
    let c = cores(machine);
    let label = format!("stencil_curve/{}", config.label());
    let plan = model.plan();
    engine.run_stage(&label, |eng| {
        let eval = |&(nx, ny, nz): &(usize, usize, usize)| {
            let pp = PlannedProfile::compute(|| {
                opm_stencil::stencil_profile(nx, ny, nz, (64, 64, 96), threads, c)
            });
            CurvePoint {
                footprint: pp.footprint,
                gflops: eng.observe_point(&plan, pp.plan(), Some(&format!("{nx}x{ny}x{nz}"))),
            }
        };
        // Three grids of doubles: the footprint is derivable from the
        // grid alone, so only the throughput becomes NaN.
        let placeholder = |&(nx, ny, nz): &(usize, usize, usize), _i: usize| CurvePoint {
            footprint: 24.0 * (nx * ny * nz) as f64,
            gflops: f64::NAN,
        };
        let pts = eng.par_map_isolated(&label, grids, eval, placeholder);
        let n = pts.len();
        (pts, n)
    })
}

/// Stencil grid-size curve (paper Figs. 13 / 24). The block is the paper's
/// 64×64×96.
pub fn stencil_curve(config: OpmConfig, grids: &[(usize, usize, usize)]) -> Vec<CurvePoint> {
    stencil_curve_on(Engine::global(), config, grids)
}

/// 3D-FFT size curve (paper Figs. 14 / 25), on an explicit engine.
pub fn fft_curve_on(engine: &Engine, config: OpmConfig, sizes: &[usize]) -> Vec<CurvePoint> {
    let model = PerfModel::for_config(config);
    let machine = config.machine();
    let threads = KernelId::Fft.threads(machine);
    let c = cores(machine);
    let label = format!("fft_curve/{}", config.label());
    let plan = model.plan();
    engine.run_stage(&label, |eng| {
        let eval = |&n: &usize| {
            let pp = PlannedProfile::compute(|| opm_fft::fft3d_profile(n, threads, c));
            CurvePoint {
                footprint: pp.footprint,
                gflops: eng.observe_point(&plan, pp.plan(), Some(&n.to_string())),
            }
        };
        let placeholder = |_: &usize, _i: usize| CurvePoint {
            footprint: f64::NAN,
            gflops: f64::NAN,
        };
        let pts = eng.par_map_isolated(&label, sizes, eval, placeholder);
        let n = pts.len();
        (pts, n)
    })
}

/// 3D-FFT size curve (paper Figs. 14 / 25).
pub fn fft_curve(config: OpmConfig, sizes: &[usize]) -> Vec<CurvePoint> {
    fft_curve_on(Engine::global(), config, sizes)
}

/// Paper stream footprint range (log-spaced samples).
pub fn paper_stream_footprints(machine: Machine, samples: usize) -> Vec<f64> {
    let (lo, hi) = match machine {
        Machine::Broadwell => (64.0 * 1024.0, 8.0 * GIB),
        Machine::Knl => (1.0 * MIB, 64.0 * GIB),
    };
    opm_core::stats::logspace(lo, hi, samples)
}

/// Paper stencil grid sweep: doubling grids from 32×16×16 (BRD) /
/// 128×64×64 (KNL), capped below the DDR capacity.
pub fn paper_stencil_grids(machine: Machine) -> Vec<(usize, usize, usize)> {
    let (mut g, cap_bytes) = match machine {
        Machine::Broadwell => ((32usize, 16usize, 16usize), 12.0 * GIB),
        // The paper's KNL sweep effectively starts past the 32 MB L2
        // (§4.2.3: no L2 peak observable).
        Machine::Knl => ((256, 128, 128), 80.0 * GIB),
    };
    let mut out = Vec::new();
    let mut axis = 0;
    loop {
        let fp = 3.0 * (g.0 * g.1 * g.2) as f64 * 8.0;
        if fp > cap_bytes {
            break;
        }
        out.push(g);
        // Double one axis at a time (the paper's "2x size in each step").
        match axis % 3 {
            0 => g.2 *= 2,
            1 => g.1 *= 2,
            _ => g.0 *= 2,
        }
        axis += 1;
    }
    out
}

/// Paper FFT sizes: `{96 .. 592 .. 16}` on Broadwell, `{96 .. 1088 .. 32}`
/// on KNL.
pub fn paper_fft_sizes(machine: Machine) -> Vec<usize> {
    match machine {
        Machine::Broadwell => (96..=592).step_by(16).collect(),
        Machine::Knl => (96..=1088).step_by(32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::platform::{EdramMode, McdramMode};
    use opm_sparse::gen::corpus;

    #[test]
    fn gemm_sweep_peak_is_near_paper_value() {
        let pts = gemm_sweep(
            OpmConfig::Broadwell(EdramMode::Off),
            &paper_dense_sizes(Machine::Broadwell),
            &paper_dense_tiles(),
        );
        let peak = pts.iter().map(|p| p.gflops).fold(0.0, f64::max);
        // Paper Table 4: 204.5 GFlop/s without eDRAM (peak 236.8).
        assert!(peak > 150.0 && peak < 236.8, "peak {peak}");
    }

    #[test]
    fn gemm_edram_expands_near_peak_region() {
        // Paper tile grid (step 128) so well-chosen L3-resident tiles are
        // represented; a few representative sizes keep the test fast.
        let sizes: Vec<usize> = vec![2304, 8448, 14592];
        let tiles: Vec<usize> = paper_dense_tiles();
        let off = gemm_sweep(OpmConfig::Broadwell(EdramMode::Off), &sizes, &tiles);
        let on = gemm_sweep(OpmConfig::Broadwell(EdramMode::On), &sizes, &tiles);
        let peak_off = off.iter().map(|p| p.gflops).fold(0.0, f64::max);
        let peak_on = on.iter().map(|p| p.gflops).fold(0.0, f64::max);
        // (1) Peak barely moves.
        assert!((peak_on - peak_off).abs() / peak_off < 0.05);
        // (2) More configurations reach 70 % of peak with eDRAM.
        let near =
            |pts: &[HeatPoint], peak: f64| pts.iter().filter(|p| p.gflops > 0.7 * peak).count();
        assert!(
            near(&on, peak_off) > near(&off, peak_off),
            "near-peak region did not expand: {} vs {}",
            near(&on, peak_off),
            near(&off, peak_off)
        );
    }

    #[test]
    fn knl_dense_peaks_above_broadwell() {
        let sizes = vec![8192, 16384];
        let tiles = vec![512, 1024];
        let knl = gemm_sweep(OpmConfig::Knl(McdramMode::Cache), &sizes, &tiles);
        let peak = knl.iter().map(|p| p.gflops).fold(0.0, f64::max);
        // Paper Table 5: ~1483 GFlop/s in cache mode.
        assert!(peak > 700.0 && peak < 3072.0, "peak {peak}");
    }

    #[test]
    fn sparse_sweep_covers_corpus() {
        let specs = corpus(24);
        let pts = sparse_sweep(
            OpmConfig::Broadwell(EdramMode::On),
            SparseKernelId::Spmv,
            &specs,
        );
        assert_eq!(pts.len(), 24);
        for p in &pts {
            assert!(p.gflops > 0.0 && p.gflops < 50.0, "gflops {}", p.gflops);
        }
    }

    #[test]
    fn sptrsv_is_slower_than_spmv() {
        // Paper §3.1.2: SpTRSV "is often much slower than SpMV".
        let specs = corpus(12);
        let cfg = OpmConfig::Knl(McdramMode::Flat);
        let spmv = sparse_sweep(cfg, SparseKernelId::Spmv, &specs);
        let sptrsv = sparse_sweep(cfg, SparseKernelId::Sptrsv, &specs);
        let avg = |v: &[SparsePoint]| v.iter().map(|p| p.gflops).sum::<f64>() / v.len() as f64;
        assert!(avg(&sptrsv) < avg(&spmv));
    }

    #[test]
    fn stream_curve_shows_mcdram_advantage() {
        let fps = paper_stream_footprints(Machine::Knl, 24);
        let flat = stream_curve(OpmConfig::Knl(McdramMode::Flat), &fps);
        let ddr = stream_curve(OpmConfig::Knl(McdramMode::Off), &fps);
        // At ~2 GiB the flat mode should win by roughly the bandwidth ratio.
        let pick = |v: &[CurvePoint]| {
            v.iter()
                .min_by(|a, b| {
                    (a.footprint - 2.0 * GIB)
                        .abs()
                        .partial_cmp(&(b.footprint - 2.0 * GIB).abs())
                        .unwrap()
                })
                .unwrap()
                .gflops
        };
        let ratio = pick(&flat) / pick(&ddr);
        assert!(ratio > 2.5 && ratio < 6.5, "ratio {ratio}");
    }

    #[test]
    fn stencil_grids_stay_under_memory_cap() {
        for machine in [Machine::Broadwell, Machine::Knl] {
            let grids = paper_stencil_grids(machine);
            assert!(grids.len() > 8, "need a real sweep");
            for (nx, ny, nz) in grids {
                assert!(3.0 * (nx * ny * nz) as f64 * 8.0 <= 80.0 * GIB);
            }
        }
    }

    #[test]
    fn fft_sizes_match_appendix() {
        let brd = paper_fft_sizes(Machine::Broadwell);
        assert_eq!(brd.first(), Some(&96));
        assert_eq!(brd.last(), Some(&592));
        let knl = paper_fft_sizes(Machine::Knl);
        assert_eq!(knl.last(), Some(&1088));
    }

    #[test]
    fn fft_curve_mcdram_flat_drops_past_capacity() {
        // Paper Fig. 25: flat mode drops once 16·n³ exceeds 16 GiB
        // (n ≈ 1024 for complex doubles), cache/hybrid hold on.
        let sizes = vec![512, 896, 1088];
        let flat = fft_curve(OpmConfig::Knl(McdramMode::Flat), &sizes);
        let cache = fft_curve(OpmConfig::Knl(McdramMode::Cache), &sizes);
        assert!(flat[0].gflops > cache[0].gflops * 0.8);
        assert!(
            flat[2].gflops < cache[2].gflops,
            "flat {} should fall below cache {} past 16 GiB",
            flat[2].gflops,
            cache[2].gflops
        );
    }
}
