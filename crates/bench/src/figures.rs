//! Implementations of every figure/table regeneration (see DESIGN.md's
//! per-experiment index). Each function writes one or more CSV series under
//! [`crate::out_dir`] and prints a short console summary; the binaries in
//! `src/bin/` are thin wrappers.

use crate::{
    emit, harness_corpus, harness_dense_sizes, harness_dense_tiles, harness_fft_sizes,
    harness_stencil_grids, harness_stream_footprints, kernel_power, kernel_sweep_gflops, out_dir,
    structure_heatmap,
};
use opm_core::perf::PerfModel;
use opm_core::platform::{EdramMode, Machine, McdramMode, OpmConfig, PlatformSpec};
use opm_core::power::{breakeven_gain, opm_saves_energy};
use opm_core::report::{Series, TextTable};
use opm_core::roofline::Roofline;
use opm_core::stats::{gaussian_kde, linspace, silverman_bandwidth, summarize};
use opm_core::stepping::{
    schematic, schematic_hw_tuning, stepping_curve, SchematicLevel, SweepKernel,
};
use opm_core::units::{GIB, MIB};
use opm_kernels::engine::Engine;
use opm_kernels::registry::KernelId;
use opm_kernels::summary::{cross_kernel, summarize_pair, SummaryRow};
use opm_kernels::sweeps::{
    cholesky_sweep, fft_curve, gemm_sweep, sparse_sweep, stencil_curve, stream_curve, CurvePoint,
    SparseKernelId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fig. 1: probability density of achievable GEMM throughput over 1024
/// random (size, tile) samples, with and without eDRAM.
pub fn fig01_gemm_pdf() {
    let mut rng = StdRng::seed_from_u64(2017);
    let sizes = harness_dense_sizes(Machine::Broadwell);
    let tiles = harness_dense_tiles();
    let samples: Vec<(usize, usize)> = (0..1024)
        .map(|_| {
            (
                sizes[rng.random_range(0..sizes.len())],
                tiles[rng.random_range(0..tiles.len())],
            )
        })
        .collect();
    let eval = |config: OpmConfig| -> Vec<f64> {
        let model = PerfModel::for_config(config);
        let engine = Engine::global();
        let label = format!("gemm_pdf/{}", config.label());
        engine.run_stage(&label, |eng| {
            let gflops = eng.par_map_isolated(
                &label,
                &samples,
                |&(n, tile)| {
                    model
                        .evaluate(&opm_dense::gemm_profile(n, tile, 4, 4))
                        .gflops
                },
                |_, _| f64::NAN,
            );
            let points = gflops.len();
            (gflops, points)
        })
    };
    // Quarantined sample points come back as NaN; dropping them keeps the
    // density estimate over the surviving samples (and is a no-op in a
    // fault-free run).
    let finite = |v: Vec<f64>| -> Vec<f64> { v.into_iter().filter(|g| g.is_finite()).collect() };
    let off = finite(eval(OpmConfig::Broadwell(EdramMode::Off)));
    let on = finite(eval(OpmConfig::Broadwell(EdramMode::On)));
    let grid = linspace(0.0, 240.0, 481);
    let bw = silverman_bandwidth(&off).max(silverman_bandwidth(&on));
    let kde_off = gaussian_kde(&off, &grid, bw);
    let kde_on = gaussian_kde(&on, &grid, bw);
    let mut s = Series::new(vec!["gflops", "pdf_no_edram", "pdf_edram"]);
    for ((x, a), (_, b)) in kde_off.into_iter().zip(kde_on) {
        s.push(vec![x, a, b]);
    }
    emit(&s, "fig01_gemm_pdf");
    let so = summarize(&off);
    let sn = summarize(&on);
    let near = |v: &[f64], peak: f64| {
        v.iter().filter(|&&g| g > 0.9 * peak).count() as f64 / v.len() as f64
    };
    println!(
        "peak: {:.1} -> {:.1} GFlop/s; mean {:.1} -> {:.1}; >=90% peak: {:.1}% -> {:.1}%",
        so.max,
        sn.max,
        so.mean,
        sn.mean,
        100.0 * near(&off, so.max),
        100.0 * near(&on, so.max)
    );
}

/// Fig. 4: arithmetic-intensity spectrum of the eight kernels.
pub fn fig04_ai_spectrum() {
    let mut s = Series::new(vec!["kernel_index", "ai"]);
    let mut t = TextTable::new(vec!["Kernel", "Class", "AI (flops/byte)"]);
    for (i, k) in KernelId::ALL.iter().enumerate() {
        s.push(vec![i as f64, k.reference_ai()]);
        t.push(vec![
            k.name().to_string(),
            format!("{:?}", k.class()),
            format!("{:.4}", k.reference_ai()),
        ]);
    }
    emit(&s, "fig04_ai_spectrum");
    print!("{}", t.render());
}

/// Fig. 5: roofline charts for both machines, with and without the OPM
/// bandwidth ceiling.
pub fn fig05_roofline() {
    for machine in [Machine::Broadwell, Machine::Knl] {
        let p = PlatformSpec::for_machine(machine);
        let r = Roofline::for_platform(&p);
        let mut s = Series::new(vec!["ai", "roof_opm", "roof_dram"]);
        let opm = r.sample(p.opm.name, 0.01, 256.0, 96);
        let dram = r.sample(p.dram.name, 0.01, 256.0, 96);
        for ((ai, a), (_, b)) in opm.into_iter().zip(dram) {
            s.push(vec![ai, a, b]);
        }
        let name = match machine {
            Machine::Broadwell => "fig05_roofline_broadwell",
            Machine::Knl => "fig05_roofline_knl",
        };
        emit(&s, name);
        let mut pts = Series::new(vec!["ai", "attainable_opm", "attainable_dram"]);
        for k in KernelId::ALL {
            let ai = k.reference_ai();
            pts.push(vec![
                ai,
                r.attainable(ai, p.opm.name),
                r.attainable(ai, p.dram.name),
            ]);
        }
        emit(&pts, &format!("{name}_kernels"));
    }
}

/// Fig. 6: the Stepping Model schematic (single- and multi-level).
pub fn fig06_stepping_model() {
    let single = [
        SchematicLevel {
            capacity: 1e6,
            bandwidth: 400.0,
            valley: 0.55,
        },
        SchematicLevel {
            capacity: 1e9,
            bandwidth: 30.0,
            valley: 1.0,
        },
    ];
    let multi = [
        SchematicLevel {
            capacity: 256e3,
            bandwidth: 800.0,
            valley: 0.7,
        },
        SchematicLevel {
            capacity: 6e6,
            bandwidth: 210.0,
            valley: 0.6,
        },
        SchematicLevel {
            capacity: 128e6,
            bandwidth: 102.0,
            valley: 0.8,
        },
        SchematicLevel {
            capacity: 16e9,
            bandwidth: 34.0,
            valley: 1.0,
        },
    ];
    let mut s = Series::new(vec!["footprint", "perf_single_cache"]);
    for (x, y) in schematic(&single, 1.0, 48) {
        s.push(vec![x, y]);
    }
    emit(&s, "fig06a_stepping_single");
    let mut s = Series::new(vec!["footprint", "perf_multi_level"]);
    for (x, y) in schematic(&multi, 1.0, 32) {
        s.push(vec![x, y]);
    }
    emit(&s, "fig06b_stepping_multi");
}

/// Figs. 7/8 (Broadwell) and 15/16 (KNL): dense kernel heat maps across
/// every OPM configuration of the machine.
pub fn dense_heatmap(kernel: KernelId, machine: Machine, name: &str) {
    assert!(matches!(kernel, KernelId::Gemm | KernelId::Cholesky));
    let sizes = harness_dense_sizes(machine);
    let tiles = harness_dense_tiles();
    let configs: Vec<OpmConfig> = match machine {
        Machine::Broadwell => OpmConfig::broadwell_modes().to_vec(),
        Machine::Knl => OpmConfig::knl_modes().to_vec(),
    };
    let mut columns = vec!["n".to_string(), "tile".to_string()];
    columns.extend(configs.iter().map(|c| format!("gflops_{}", c.label())));
    let mut s = Series::new(columns);
    let sweeps: Vec<Vec<opm_kernels::HeatPoint>> = configs
        .iter()
        .map(|&c| match kernel {
            KernelId::Gemm => gemm_sweep(c, &sizes, &tiles),
            _ => cholesky_sweep(c, &sizes, &tiles),
        })
        .collect();
    for i in 0..sweeps[0].len() {
        let mut row = vec![sweeps[0][i].n as f64, sweeps[0][i].tile as f64];
        row.extend(sweeps.iter().map(|sw| sw[i].gflops));
        s.push(row);
    }
    emit(&s, name);
    for (c, sw) in configs.iter().zip(&sweeps) {
        let peak = sw.iter().map(|p| p.gflops).fold(0.0, f64::max);
        println!("{}: peak {:.1} GFlop/s", c.label(), peak);
    }
}

/// Figs. 9–11 (Broadwell) and 17–19 (KNL): sparse kernel corpus scatter +
/// speedups + structure heat map.
pub fn sparse_figure(kernel: SparseKernelId, machine: Machine, name: &str) {
    let specs = harness_corpus();
    let configs: Vec<OpmConfig> = match machine {
        Machine::Broadwell => OpmConfig::broadwell_modes().to_vec(),
        Machine::Knl => OpmConfig::knl_modes().to_vec(),
    };
    let sweeps: Vec<Vec<opm_kernels::SparsePoint>> = configs
        .iter()
        .map(|&c| sparse_sweep(c, kernel, &specs))
        .collect();
    let mut columns = vec![
        "footprint_mb".to_string(),
        "rows".to_string(),
        "nnz".to_string(),
    ];
    columns.extend(configs.iter().map(|c| format!("gflops_{}", c.label())));
    let baseline = 0usize; // first config is the no-OPM baseline
    columns.extend(
        configs
            .iter()
            .skip(1)
            .map(|c| format!("speedup_{}", c.label())),
    );
    let mut s = Series::new(columns);
    for i in 0..specs.len() {
        let mut row = vec![
            sweeps[0][i].footprint / MIB,
            specs[i].rows as f64,
            specs[i].nnz_target as f64,
        ];
        row.extend(sweeps.iter().map(|sw| sw[i].gflops));
        let base = sweeps[baseline][i].gflops;
        row.extend(sweeps.iter().skip(1).map(|sw| sw[i].gflops / base));
        s.push(row);
    }
    emit(&s, name);
    // Structure heat map for the OPM-enabled configuration (index 1).
    let pts: Vec<(usize, usize, f64)> = specs
        .iter()
        .zip(&sweeps[1])
        .map(|(spec, p)| (spec.rows, spec.nnz_target, p.gflops))
        .collect();
    emit(&structure_heatmap(&pts, 16), &format!("{name}_structure"));
    for (c, sw) in configs.iter().zip(&sweeps) {
        let best = sw.iter().map(|p| p.gflops).fold(0.0, f64::max);
        println!(
            "{}: best {:.2} GFlop/s over {} matrices",
            c.label(),
            best,
            specs.len()
        );
    }
}

/// Figs. 20–22: KNL structure heat maps for all three sparse kernels
/// (one map per kernel; the paper collapses the MCDRAM modes, which behave
/// alike within the corpus footprints — we use flat mode).
pub fn fig20_22_knl_structure() {
    let specs = harness_corpus();
    for (kernel, name) in [
        (SparseKernelId::Spmv, "fig20_spmv_knl_structure"),
        (SparseKernelId::Sptrans, "fig21_sptrans_knl_structure"),
        (SparseKernelId::Sptrsv, "fig22_sptrsv_knl_structure"),
    ] {
        let sw = sparse_sweep(OpmConfig::Knl(McdramMode::Flat), kernel, &specs);
        let pts: Vec<(usize, usize, f64)> = specs
            .iter()
            .zip(&sw)
            .map(|(spec, p)| (spec.rows, spec.nnz_target, p.gflops))
            .collect();
        emit(&structure_heatmap(&pts, 16), name);
    }
}

/// Figs. 12–14 / 23–25: footprint/size curves for Stream, Stencil and FFT.
pub fn curve_figure(kernel: KernelId, machine: Machine, name: &str) {
    let configs: Vec<OpmConfig> = match machine {
        Machine::Broadwell => OpmConfig::broadwell_modes().to_vec(),
        Machine::Knl => OpmConfig::knl_modes().to_vec(),
    };
    let curves: Vec<Vec<CurvePoint>> = configs
        .iter()
        .map(|&c| match kernel {
            KernelId::Stream => stream_curve(c, &harness_stream_footprints(machine, 64)),
            KernelId::Stencil => stencil_curve(c, &harness_stencil_grids(machine)),
            KernelId::Fft => fft_curve(c, &harness_fft_sizes(machine)),
            _ => panic!("curve_figure only handles Stream/Stencil/FFT"),
        })
        .collect();
    let mut columns = vec!["footprint_mb".to_string()];
    columns.extend(configs.iter().map(|c| format!("gflops_{}", c.label())));
    let mut s = Series::new(columns);
    for i in 0..curves[0].len() {
        let mut row = vec![curves[0][i].footprint / MIB];
        row.extend(curves.iter().map(|cv| cv[i].gflops));
        s.push(row);
    }
    emit(&s, name);
    for (c, cv) in configs.iter().zip(&curves) {
        let peak = cv.iter().map(|p| p.gflops).fold(0.0, f64::max);
        println!("{}: peak {:.1} GFlop/s", c.label(), peak);
    }
}

/// Figs. 26/27: per-kernel package and DRAM power with the OPM off/on
/// (Broadwell: eDRAM off vs on; KNL: DDR-only vs flat MCDRAM), plus the
/// geometric-mean column the paper plots.
pub fn power_figure(machine: Machine, name: &str) {
    let (base, opm) = match machine {
        Machine::Broadwell => (
            OpmConfig::Broadwell(EdramMode::Off),
            OpmConfig::Broadwell(EdramMode::On),
        ),
        Machine::Knl => (
            OpmConfig::Knl(McdramMode::Off),
            OpmConfig::Knl(McdramMode::Flat),
        ),
    };
    let mut s = Series::new(vec![
        "kernel_index",
        "package_w_base",
        "package_w_opm",
        "dram_w_base",
        "dram_w_opm",
    ]);
    let mut t = TextTable::new(vec![
        "Kernel",
        "Pkg base",
        "Pkg OPM",
        "DRAM base",
        "DRAM OPM",
    ]);
    let mut pkg_base = Vec::new();
    let mut pkg_opm = Vec::new();
    for (i, k) in KernelId::ALL.iter().enumerate() {
        let b = kernel_power(*k, base);
        let o = kernel_power(*k, opm);
        s.push(vec![i as f64, b.package_w, o.package_w, b.dram_w, o.dram_w]);
        t.push(vec![
            k.name().to_string(),
            format!("{:.1}", b.package_w),
            format!("{:.1}", o.package_w),
            format!("{:.1}", b.dram_w),
            format!("{:.1}", o.dram_w),
        ]);
        pkg_base.push(b.package_w);
        pkg_opm.push(o.package_w);
    }
    let gm_base = opm_core::stats::geomean(&pkg_base);
    let gm_opm = opm_core::stats::geomean(&pkg_opm);
    s.push(vec![KernelId::ALL.len() as f64, gm_base, gm_opm, 0.0, 0.0]);
    t.push(vec![
        "GM".to_string(),
        format!("{gm_base:.1}"),
        format!("{gm_opm:.1}"),
        String::new(),
        String::new(),
    ]);
    emit(&s, name);
    print!("{}", t.render());
    println!(
        "average package power increase: {:.1} W ({:.1}%)",
        gm_opm - gm_base,
        100.0 * (gm_opm / gm_base - 1.0)
    );
}

/// Figs. 28/29: optimization-guideline curves from the measured Stepping
/// Model (eDRAM on/off on Broadwell; all four MCDRAM modes on KNL), plus
/// the performance-effective region.
pub fn fig28_29_guidelines() {
    let kernel = SweepKernel::default();
    let mut s = Series::new(vec!["footprint_mb", "gflops_no_edram", "gflops_edram"]);
    let off = stepping_curve(
        OpmConfig::Broadwell(EdramMode::Off),
        kernel,
        256.0 * 1024.0,
        8.0 * GIB,
        96,
    );
    let on = stepping_curve(
        OpmConfig::Broadwell(EdramMode::On),
        kernel,
        256.0 * 1024.0,
        8.0 * GIB,
        96,
    );
    for ((x, a), (_, b)) in off.points.iter().zip(&on.points) {
        s.push(vec![x / MIB, *a, *b]);
    }
    emit(&s, "fig28_edram_guideline");
    if let Some((lo, hi)) = on.effective_region(&off, 0.10) {
        println!(
            "eDRAM performance-effective region: {:.1} MB .. {:.1} MB",
            lo / MIB,
            hi / MIB
        );
    }
    let mut knl_kernel = kernel;
    knl_kernel.threads = 256;
    let mut s = Series::new(vec![
        "footprint_mb",
        "gflops_ddr",
        "gflops_flat",
        "gflops_cache",
        "gflops_hybrid",
    ]);
    let curves: Vec<_> = OpmConfig::knl_modes()
        .iter()
        .map(|&c| stepping_curve(c, knl_kernel, 8.0 * MIB, 64.0 * GIB, 96))
        .collect();
    for i in 0..curves[0].points.len() {
        s.push(vec![
            curves[0].points[i].0 / MIB,
            curves[0].points[i].1,
            curves[1].points[i].1,
            curves[2].points[i].1,
            curves[3].points[i].1,
        ]);
    }
    emit(&s, "fig29_mcdram_guideline");
}

/// Fig. 30: hardware what-if — scaling the OPM capacity moves the cache
/// peak right; scaling its bandwidth moves it up.
pub fn fig30_hw_tuning() {
    let base = [
        SchematicLevel {
            capacity: 6e6,
            bandwidth: 210.0,
            valley: 0.7,
        },
        SchematicLevel {
            capacity: 128e6,
            bandwidth: 102.0,
            valley: 0.85,
        },
        SchematicLevel {
            capacity: 16e9,
            bandwidth: 34.0,
            valley: 1.0,
        },
    ];
    let ai = 0.25;
    let n = 32;
    let baseline = schematic(&base, ai, n);
    let cap2 = schematic_hw_tuning(&base, 1, 2.0, 1.0, ai, n);
    let cap4 = schematic_hw_tuning(&base, 1, 4.0, 1.0, ai, n);
    let bw2 = schematic_hw_tuning(&base, 1, 1.0, 2.0, ai, n);
    let bw4 = schematic_hw_tuning(&base, 1, 1.0, 4.0, ai, n);
    let mut s = Series::new(vec![
        "footprint",
        "base",
        "capacity_x2",
        "capacity_x4",
        "bandwidth_x2",
        "bandwidth_x4",
    ]);
    for i in 0..baseline
        .len()
        .min(cap2.len())
        .min(bw2.len())
        .min(cap4.len())
        .min(bw4.len())
    {
        s.push(vec![
            baseline[i].0,
            baseline[i].1,
            cap2[i].1,
            cap4[i].1,
            bw2[i].1,
            bw4[i].1,
        ]);
    }
    emit(&s, "fig30_hw_tuning");
}

/// Table 4: eDRAM summary statistics for all eight kernels + Eq. 1 energy
/// break-even assessment.
pub fn table4_edram_summary() {
    let rows = summary_rows(
        OpmConfig::Broadwell(EdramMode::Off),
        &[OpmConfig::Broadwell(EdramMode::On)],
    );
    let t = render_summary(&rows[0]);
    print!("{}", t.render());
    let cross = cross_kernel(&rows[0]);
    println!(
        "across kernels: avg gap {:.2} GFlop/s, max gap {:.2}, avg speedup {:.3}x, max speedup {:.3}x",
        cross.avg_gap, cross.max_gap, cross.avg_speedup, cross.max_speedup
    );
    // Eq. 1: at ~8.6 % power overhead, does the average gain save energy?
    let w = 0.086;
    let p = cross.avg_speedup - 1.0;
    println!(
        "Eq.1 @ {:.1}% power overhead: avg gain {:.1}% -> energy {} (break-even gain {:.1}%)",
        100.0 * w,
        100.0 * p,
        if opm_saves_energy(p, w) {
            "SAVED"
        } else {
            "NOT saved"
        },
        100.0 * breakeven_gain(w)
    );
    emit_summary_csv(&rows[0], "table4_edram_summary");
    let _ = render_summary(&rows[0]).write(out_dir(), "table4_edram_summary");
}

/// Table 5: MCDRAM summary statistics (flat/cache/hybrid vs DDR).
pub fn table5_mcdram_summary() {
    let rows = summary_rows(
        OpmConfig::Knl(McdramMode::Off),
        &[
            OpmConfig::Knl(McdramMode::Flat),
            OpmConfig::Knl(McdramMode::Cache),
            OpmConfig::Knl(McdramMode::Hybrid),
        ],
    );
    for (mode, rws) in ["flat", "cache", "hybrid"].iter().zip(&rows) {
        println!("== MCDRAM {mode} mode ==");
        print!("{}", render_summary(rws).render());
        let cross = cross_kernel(rws);
        println!(
            "across kernels: avg gap {:.2}, max gap {:.2}, avg speedup {:.3}x, max speedup {:.3}x\n",
            cross.avg_gap, cross.max_gap, cross.avg_speedup, cross.max_speedup
        );
        emit_summary_csv(rws, &format!("table5_mcdram_{mode}_summary"));
        let _ = render_summary(rws).write(out_dir(), &format!("table5_mcdram_{mode}_summary"));
    }
}

fn summary_rows(base: OpmConfig, opms: &[OpmConfig]) -> Vec<Vec<SummaryRow>> {
    let mut out = vec![Vec::new(); opms.len()];
    for kernel in KernelId::ALL {
        let base_sweep = kernel_sweep_gflops(kernel, base);
        for (i, &cfg) in opms.iter().enumerate() {
            let opm_sweep = kernel_sweep_gflops(kernel, cfg);
            out[i].push(summarize_pair(kernel.name(), &base_sweep, &opm_sweep));
        }
    }
    out
}

fn render_summary(rows: &[SummaryRow]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Kernel",
        "Base best",
        "OPM best",
        "Avg gap",
        "Max gap",
        "Avg speedup",
        "Max speedup",
    ]);
    for r in rows {
        t.push(vec![
            r.kernel.clone(),
            format!("{:.1}", r.base_best),
            format!("{:.1}", r.opm_best),
            format!("{:.2}", r.avg_gap),
            format!("{:.2}", r.max_gap),
            format!("{:.3}x", r.avg_speedup),
            format!("{:.3}x", r.max_speedup),
        ]);
    }
    t
}

fn emit_summary_csv(rows: &[SummaryRow], name: &str) {
    let mut s = Series::new(vec![
        "kernel_index",
        "base_best",
        "opm_best",
        "avg_gap",
        "max_gap",
        "avg_speedup",
        "max_speedup",
    ]);
    for (i, r) in rows.iter().enumerate() {
        s.push(vec![
            i as f64,
            r.base_best,
            r.opm_best,
            r.avg_gap,
            r.max_gap,
            r.avg_speedup,
            r.max_speedup,
        ]);
    }
    emit(&s, name);
}
