//! End-to-end smoke test of the figure/table harness: run every
//! regeneration function against a reduced corpus into a temporary
//! directory and verify each expected CSV exists and parses.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

// The harness reads OPM_RESULTS/OPM_CORPUS from the environment; tests in
// this file must not interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

struct EnvGuard {
    dir: PathBuf,
}

impl EnvGuard {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("opm_smoke_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        std::env::set_var("OPM_RESULTS", &dir);
        std::env::set_var("OPM_CORPUS", "30");
        EnvGuard { dir }
    }

    fn csv(&self, name: &str) -> String {
        let path = self.dir.join(format!("{name}.csv"));
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(text.lines().count() > 1, "{name}.csv has no data rows");
        // Every row parses as numbers with a consistent width.
        let header_cols = text.lines().next().unwrap().split(',').count();
        for (i, line) in text.lines().skip(1).enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), header_cols, "{name}.csv row {i} ragged");
            for c in cells {
                c.parse::<f64>()
                    .unwrap_or_else(|_| panic!("{name}.csv row {i}: non-numeric {c}"));
            }
        }
        text
    }

    /// Assert that `name.csv` equals, byte for byte, the copy committed
    /// under `results/` (which a full run regenerates).
    fn same_as_committed(&self, name: &str) {
        let fresh = self.csv(name);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("{name}.csv"));
        let committed =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert!(
            fresh == committed,
            "{name}.csv differs from {}",
            path.display()
        );
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        std::env::remove_var("OPM_RESULTS");
        std::env::remove_var("OPM_CORPUS");
    }
}

#[test]
fn analytic_figures_regenerate() {
    let _lock = ENV_LOCK.lock().unwrap();
    let g = EnvGuard::new("analytic");
    opm_bench::figures::fig01_gemm_pdf();
    opm_bench::figures::fig04_ai_spectrum();
    opm_bench::figures::fig05_roofline();
    opm_bench::figures::fig06_stepping_model();
    opm_bench::figures::fig28_29_guidelines();
    opm_bench::figures::fig30_hw_tuning();
    g.csv("fig01_gemm_pdf");
    g.csv("fig04_ai_spectrum");
    g.csv("fig05_roofline_broadwell");
    g.csv("fig05_roofline_knl_kernels");
    g.csv("fig06a_stepping_single");
    g.csv("fig06b_stepping_multi");
    g.csv("fig28_edram_guideline");
    g.csv("fig29_mcdram_guideline");
    g.csv("fig30_hw_tuning");
}

#[test]
fn kernel_figures_regenerate() {
    let _lock = ENV_LOCK.lock().unwrap();
    let g = EnvGuard::new("kernels");
    use opm_core::Machine;
    use opm_kernels::{KernelId, SparseKernelId};
    opm_bench::figures::dense_heatmap(KernelId::Gemm, Machine::Broadwell, "fig07_gemm_broadwell");
    opm_bench::figures::dense_heatmap(KernelId::Cholesky, Machine::Knl, "fig16_cholesky_knl");
    opm_bench::figures::sparse_figure(
        SparseKernelId::Spmv,
        Machine::Broadwell,
        "fig09_spmv_broadwell",
    );
    opm_bench::figures::sparse_figure(SparseKernelId::Sptrsv, Machine::Knl, "fig19_sptrsv_knl");
    opm_bench::figures::curve_figure(KernelId::Stream, Machine::Knl, "fig23_stream_knl");
    opm_bench::figures::curve_figure(KernelId::Fft, Machine::Broadwell, "fig14_fft_broadwell");
    opm_bench::figures::fig20_22_knl_structure();
    let heat = g.csv("fig07_gemm_broadwell");
    assert!(heat.lines().next().unwrap().contains("gflops_brd-edram"));
    g.csv("fig16_cholesky_knl");
    let spmv = g.csv("fig09_spmv_broadwell");
    assert_eq!(spmv.lines().count() - 1, 30, "one row per corpus matrix");
    g.csv("fig09_spmv_broadwell_structure");
    g.csv("fig19_sptrsv_knl");
    g.csv("fig23_stream_knl");
    g.csv("fig14_fft_broadwell");
    g.csv("fig20_spmv_knl_structure");
    g.csv("fig21_sptrans_knl_structure");
    g.csv("fig22_sptrsv_knl_structure");
}

#[test]
fn tables_power_and_extensions_regenerate() {
    let _lock = ENV_LOCK.lock().unwrap();
    let g = EnvGuard::new("tables");
    use opm_core::Machine;
    opm_bench::figures::power_figure(Machine::Broadwell, "fig26_power_broadwell");
    opm_bench::figures::power_figure(Machine::Knl, "fig27_power_knl");
    opm_bench::figures::table4_edram_summary();
    opm_bench::figures::table5_mcdram_summary();
    // The power figures and every study CSV are independent of the
    // corpus size, so they must equal the committed full-run copies.
    g.same_as_committed("fig26_power_broadwell");
    g.same_as_committed("fig27_power_knl");
    let t4 = g.csv("table4_edram_summary");
    assert_eq!(t4.lines().count() - 1, 8, "eight kernels");
    g.csv("table5_mcdram_flat_summary");
    g.csv("table5_mcdram_cache_summary");
    g.csv("table5_mcdram_hybrid_summary");
    // The text renditions exist too.
    assert!(g.dir.join("table4_edram_summary.txt").exists());
    // Every `opm study` writes its CSV(s), named after the study.
    for (name, run) in opm_bench::extensions::STUDIES {
        run();
        let stems: Vec<String> = fs::read_dir(&g.dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix(".csv").map(str::to_string))
            .filter(|stem| stem == name || stem.starts_with(&format!("{name}_")))
            .collect();
        assert!(!stems.is_empty(), "study {name} wrote no CSV");
        for stem in stems {
            g.same_as_committed(&stem);
        }
    }
    assert!(g.dir.join("validate_model_broadwell.csv").exists());
    assert!(g.dir.join("validate_model_knl.csv").exists());
    // `opm report` renders what is there and notes what is missing.
    let report = opm_bench::plot::write_report(&g.dir).unwrap();
    assert_eq!(report, g.dir.join("REPORT.md"));
    let text = fs::read_to_string(&report).unwrap();
    assert!(text.starts_with("# Reproduction report"), "{text}");
    assert!(text.contains("## Table 4 — eDRAM summary\n\n```text\n"));
    assert!(text.contains("## Validation — sim vs model (KNL, GB/s)\n\n```text\n"));
    assert!(
        text.contains("## Fig. 12 — Stream on Broadwell (GFlop/s vs footprint MB)\n\n_missing:")
    );
}
