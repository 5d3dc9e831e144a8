//! End-to-end smoke test of the figure/table harness: run every
//! regeneration function against a reduced corpus into a temporary
//! directory and verify each expected CSV exists and parses, and run the
//! full campaign against the committed `results/`.

use opm_bench::manifest::FigureStatus;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

// The harness reads OPM_RESULTS/OPM_CORPUS from the environment; tests in
// this file must not interleave.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Take [`ENV_LOCK`]. Every test sets the variables it needs, so one
/// that failed while holding the lock leaves nothing for the next to
/// trip on: its poison is ignored, and only the failed test reports.
fn env_lock() -> MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The `.csv` and `.txt` file names directly under `dir`.
fn outputs(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.ends_with(".csv") || f.ends_with(".txt"))
        .collect()
}

/// `results/` is the full-grid golden: a full campaign must write every
/// figure and table file committed there, byte for byte, and no file
/// `results/` lacks. The fresh output stays under the test target
/// directory when this fails, so the drifted file can be inspected.
#[test]
fn full_campaign_reproduces_committed_results() {
    let _lock = env_lock();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results_golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    std::env::set_var("OPM_RESULTS", &dir);
    std::env::remove_var("OPM_CORPUS");
    let reports = opm_bench::manifest::run_figures(None);
    std::env::remove_var("OPM_RESULTS");
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let fresh = outputs(&dir);
    let mut problems: Vec<String> = reports
        .iter()
        .filter(|r| r.status != FigureStatus::Completed)
        .map(|r| format!("{} failed", r.name))
        .collect();
    for name in &fresh {
        match fs::read(committed.join(name)) {
            Ok(bytes) if bytes == fs::read(dir.join(name)).unwrap() => {}
            Ok(_) => problems.push(format!("{name} differs from results/{name}")),
            Err(_) => problems.push(format!("{name} is missing from results/")),
        }
    }
    // What `results/` holds beyond the campaign: the `opm study` CSVs
    // (compared in `tables_power_and_extensions_regenerate`) and the
    // console transcript of the run that first filled it.
    let study_output = |name: &str| {
        let stem = name.trim_end_matches(".csv");
        opm_bench::extensions::STUDIES
            .iter()
            .any(|(study, _)| stem == *study || stem.starts_with(&format!("{study}_")))
    };
    for name in outputs(&committed).difference(&fresh) {
        if !study_output(name) && name != "console_log.txt" {
            problems.push(format!("results/{name} is written by no campaign or study"));
        }
    }
    assert!(
        problems.is_empty(),
        "{problems:#?}\nfresh output kept in {}; if the change is intended, \
         refresh results/ as described in EXPERIMENTS.md",
        dir.display()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analytic_figures_regenerate() {
    let _lock = env_lock();
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
    let _lock = env_lock();
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
    let _lock = env_lock();
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
