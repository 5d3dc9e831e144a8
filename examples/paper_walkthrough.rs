//! Paper walkthrough: recreate the narrative of the paper's §4 analysis as
//! a guided console tour — each section prints an observation, the model
//! evidence for it, and the section of the paper it reproduces.
//!
//! ```sh
//! cargo run --release --example paper_walkthrough
//! ```

use opm_repro::core::platform::{EdramMode, McdramMode, OpmConfig, PlatformSpec};
use opm_repro::core::stepping::{stepping_curve, SweepKernel};
use opm_repro::core::units::{GIB, MIB};
use opm_repro::core::PerfModel;
use opm_repro::dense::gemm_profile;
use opm_repro::kernels::sweeps::{sparse_sweep, stream_curve, SparseKernelId};
use opm_repro::sparse::corpus;

fn section(title: &str) {
    println!("\n==== {title} ====");
}

fn main() {
    let brd = PlatformSpec::broadwell();
    let knl = PlatformSpec::knl();
    println!(
        "Machines (paper Table 3):\n  {} — {:.1} GFlop/s DP, {} {:.0} GB/s, {} {:.1} GB/s\n  {} — {:.1} GFlop/s DP, {} {:.0} GB/s, {} {:.1} GB/s",
        brd.name, brd.dp_peak_gflops(), brd.opm.name, brd.opm.bandwidth, brd.dram.name, brd.dram.bandwidth,
        knl.name, knl.dp_peak_gflops(), knl.opm.name, knl.opm.bandwidth, knl.dram.name, knl.dram.bandwidth,
    );

    section("§4.1.1 — eDRAM and the dense kernels");
    let on = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On));
    let off = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::Off));
    let good = gemm_profile(8192, 384, 4, 4); // tile fits L3
    let bad = gemm_profile(8192, 1920, 4, 4); // tile overflows L3, fits eDRAM
    println!(
        "well-tiled GEMM   (tile 384):  {:.0} -> {:.0} GFlop/s with eDRAM (peak barely moves)",
        off.evaluate(&good).gflops,
        on.evaluate(&good).gflops
    );
    println!(
        "poorly-tiled GEMM (tile 1920): {:.0} -> {:.0} GFlop/s with eDRAM (the rescued region of Fig. 7)",
        off.evaluate(&bad).gflops,
        on.evaluate(&bad).gflops
    );

    section("§4.1.2 — the eDRAM effective region for sparse kernels");
    let specs = corpus(60);
    let s_on = sparse_sweep(
        OpmConfig::Broadwell(EdramMode::On),
        SparseKernelId::Spmv,
        &specs,
    );
    let s_off = sparse_sweep(
        OpmConfig::Broadwell(EdramMode::Off),
        SparseKernelId::Spmv,
        &specs,
    );
    let mut in_region = 0;
    for (a, b) in s_on.iter().zip(&s_off) {
        if a.gflops > 1.1 * b.gflops {
            in_region += 1;
        }
    }
    println!(
        "of {} corpus matrices, {} fall in the eDRAM performance-effective region (>10% gain)",
        specs.len(),
        in_region
    );

    section("§4.1.3 — the Stepping Model on Stream");
    let k = SweepKernel::default();
    let curve = stepping_curve(
        OpmConfig::Broadwell(EdramMode::On),
        k,
        512.0 * 1024.0,
        4.0 * GIB,
        48,
    );
    let (peak_fp, peak) = curve.peak();
    println!(
        "L3 cache peak at {:.1} MB ({:.0} GB/s); eDRAM plateau ~{:.0} GB/s; DDR plateau {:.0} GB/s",
        peak_fp / MIB,
        peak * 16.0,
        curve
            .points
            .iter()
            .find(|(fp, _)| *fp > 50.0 * MIB)
            .map(|(_, g)| g * 16.0)
            .unwrap_or(0.0),
        curve.tail() * 16.0
    );

    section("§4.2.1 — MCDRAM flat mode and the straddle cliff");
    for fp_gib in [4.0, 12.0, 20.0] {
        let fps = [fp_gib * GIB];
        let flat = stream_curve(OpmConfig::Knl(McdramMode::Flat), &fps)[0].gflops;
        let ddr = stream_curve(OpmConfig::Knl(McdramMode::Off), &fps)[0].gflops;
        let verdict = if flat > ddr {
            "flat wins"
        } else {
            "flat LOSES (straddle, §4.2.1-II)"
        };
        println!(
            "footprint {fp_gib:>4.0} GiB: flat {:.1} vs DDR {:.1} GFlop/s -> {verdict}",
            flat, ddr
        );
    }

    section("§4.2.2 — SpTRSV: when MCDRAM loses on latency");
    let t_flat = sparse_sweep(
        OpmConfig::Knl(McdramMode::Flat),
        SparseKernelId::Sptrsv,
        &specs,
    );
    let t_ddr = sparse_sweep(
        OpmConfig::Knl(McdramMode::Off),
        SparseKernelId::Sptrsv,
        &specs,
    );
    let losses = t_flat
        .iter()
        .zip(&t_ddr)
        .filter(|(f, d)| f.gflops < d.gflops * 0.999)
        .count();
    println!(
        "{losses} of {} matrices run SLOWER with MCDRAM than DDR — dependency chains \
         keep too few misses in flight to amortize MCDRAM's higher latency",
        specs.len()
    );

    section("§6 — the guidelines, executable");
    use opm_repro::core::guideline::{explain_mcdram, Workload};
    for (fp, hot) in [(8.0, 8.0), (40.0, 4.0), (40.0, 12.0)] {
        let w = Workload::bandwidth_bound(fp * GIB, hot * GIB);
        println!("- {}", explain_mcdram(&w));
    }

    println!(
        "\nFull regeneration: `cargo run --release -p opm-bench --bin opm -- figures`,\n\
         then `opm report` for the ASCII-chart REPORT.md."
    );
}
