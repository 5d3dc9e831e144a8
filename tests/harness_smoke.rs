//! End-to-end smoke test of the figure/table harness: run the full
//! campaign against the committed `results/`, checking that every CSV it
//! writes parses, and run the tables, power figures and studies into a
//! temporary directory.

use opm_bench::manifest::FigureStatus;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

// The harness reads OPM_RESULTS from the environment; tests in this file
// must not interleave.
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
        EnvGuard { dir }
    }

    fn csv(&self, name: &str) -> String {
        let path = self.dir.join(format!("{name}.csv"));
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        assert_numeric_table(name, &text);
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
    }
}

/// A CSV table has a header and at least one data row, every row as
/// wide as the header, and every data cell a number.
fn assert_numeric_table(name: &str, text: &str) {
    assert!(text.lines().count() > 1, "{name} has no data rows");
    let header_cols = text.lines().next().unwrap().split(',').count();
    for (i, line) in text.lines().skip(1).enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), header_cols, "{name} row {i} ragged");
        for c in cells {
            c.parse::<f64>()
                .unwrap_or_else(|_| panic!("{name} row {i}: non-numeric {c}"));
        }
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
/// `results/` lacks; every CSV it writes must be a numeric table. The
/// fresh output stays under the test target directory when this fails,
/// so the drifted file can be inspected.
#[test]
fn full_campaign_reproduces_committed_results() {
    let _lock = env_lock();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("results_golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    std::env::set_var("OPM_RESULTS", &dir);
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
        let bytes = fs::read(dir.join(name)).unwrap();
        if name.ends_with(".csv") {
            assert_numeric_table(name, std::str::from_utf8(&bytes).unwrap());
        }
        match fs::read(committed.join(name)) {
            Ok(committed_bytes) if committed_bytes == bytes => {}
            Ok(_) => problems.push(format!("{name} differs from results/{name}")),
            Err(_) => problems.push(format!("{name} is missing from results/")),
        }
    }
    // What `results/` holds beyond the campaign: the `opm study` CSVs
    // (compared in `tables_power_and_extensions_regenerate`).
    let study_output = |name: &str| {
        let stem = name.trim_end_matches(".csv");
        opm_bench::extensions::STUDIES
            .iter()
            .any(|(study, _)| stem == *study || stem.starts_with(&format!("{study}_")))
    };
    for name in outputs(&committed).difference(&fresh) {
        if !study_output(name) {
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
fn tables_power_and_extensions_regenerate() {
    let _lock = env_lock();
    let g = EnvGuard::new("tables");
    use opm_core::Machine;
    opm_bench::figures::power_figure(Machine::Broadwell, "fig26_power_broadwell");
    opm_bench::figures::power_figure(Machine::Knl, "fig27_power_knl");
    opm_bench::figures::table4_edram_summary();
    opm_bench::figures::table5_mcdram_summary();
    // The power figures, the tables and every study CSV must equal the
    // committed full-run copies.
    g.same_as_committed("fig26_power_broadwell");
    g.same_as_committed("fig27_power_knl");
    let t4 = g.csv("table4_edram_summary");
    assert_eq!(t4.lines().count() - 1, 8, "eight kernels");
    for table in [
        "table4_edram_summary",
        "table5_mcdram_flat_summary",
        "table5_mcdram_cache_summary",
        "table5_mcdram_hybrid_summary",
    ] {
        g.same_as_committed(table);
    }
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
