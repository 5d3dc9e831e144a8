//! Golden regression tests for the figure pipelines. Each test runs a
//! reduced-grid figure through the real binary entry point (the manifest
//! registry), then checks three things against `tests/golden/`:
//!
//! 1. byte-identical CSV output (the engine is deterministic, so any
//!    diff is a real behaviour change — refresh procedure in
//!    EXPERIMENTS.md if the change is intentional),
//! 2. schema and row counts,
//! 3. the qualitative shapes the paper reports: eDRAM never hurts,
//!    Stream bandwidth plateaus at each capacity tier, and flat-mode
//!    MCDRAM falls off a cliff once the footprint exceeds 16 GB.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

/// Figures write into a shared results directory and the engine reads
/// its configuration from the environment on first use, so environment
/// setup must happen exactly once, before any figure runs, and runs
/// must not interleave.
fn run_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("OPM_REDUCED", "1");
        std::env::remove_var("OPM_CORPUS");
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("figure_outputs");
        std::fs::create_dir_all(&dir).expect("create results dir");
        std::env::set_var("OPM_RESULTS", &dir);
    });
    &LOCK
}

/// Run a registered figure and return the bytes of one CSV it wrote.
fn run_figure(figure: &str, csv: &str) -> String {
    let guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let spec = opm_bench::manifest::find(figure)
        .unwrap_or_else(|| panic!("{figure} not in the figure registry"));
    (spec.run)();
    drop(guard);
    let path = PathBuf::from(std::env::var("OPM_RESULTS").unwrap()).join(csv);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn golden(csv: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(csv);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

struct Table {
    header: Vec<String>,
    rows: Vec<Vec<f64>>,
}

impl Table {
    fn parse(csv: &str) -> Table {
        let mut lines = csv.lines();
        let header = lines
            .next()
            .expect("csv has a header")
            .split(',')
            .map(str::to_string)
            .collect();
        let rows = lines
            .map(|l| {
                l.split(',')
                    .map(|v| {
                        v.parse::<f64>()
                            .unwrap_or_else(|e| panic!("parse {v:?}: {e}"))
                    })
                    .collect()
            })
            .collect();
        Table { header, rows }
    }

    fn column(&self, name: &str) -> Vec<f64> {
        let idx = self
            .header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.header));
        self.rows.iter().map(|r| r[idx]).collect()
    }
}

/// Longest run of consecutive values within 1% of each other.
fn longest_plateau(values: &[f64]) -> usize {
    let mut best = 1;
    let mut run = 1;
    for w in values.windows(2) {
        if (w[1] - w[0]).abs() <= 0.01 * w[0].abs().max(1e-12) {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best
}

fn assert_matches_golden(figure: &str, csv: &str) -> Table {
    let got = run_figure(figure, csv);
    assert_eq!(
        got,
        golden(csv),
        "{csv} drifted from tests/golden/{csv}; if the change is intended, \
         refresh the goldens as described in EXPERIMENTS.md"
    );
    Table::parse(&got)
}

#[test]
fn stepping_model_matches_golden() {
    let single = assert_matches_golden("fig06_stepping_model", "fig06a_stepping_single.csv");
    assert_eq!(single.header, ["footprint", "perf_single_cache"]);
    assert_eq!(single.rows.len(), 96);
    let multi_csv = run_figure("fig06_stepping_model", "fig06b_stepping_multi.csv");
    assert_eq!(multi_csv, golden("fig06b_stepping_multi.csv"));
    let multi = Table::parse(&multi_csv);
    assert_eq!(multi.header, ["footprint", "perf_multi_level"]);
    assert_eq!(multi.rows.len(), 128);
    // A single-level stepping model only ever steps down as the footprint
    // grows (the multi-level curve recovers between levels, so only the
    // golden bytes pin it down).
    let curve = single.column("perf_single_cache");
    for w in curve.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "stepping curve rose: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn gemm_broadwell_matches_golden_and_edram_never_hurts() {
    let t = assert_matches_golden("fig07_gemm_broadwell", "fig07_gemm_broadwell.csv");
    assert_eq!(
        t.header,
        ["n", "tile", "gflops_brd-no-edram", "gflops_brd-edram"]
    );
    assert_eq!(t.rows.len(), 81, "9 sizes x 9 tiles on the reduced grid");
    let off = t.column("gflops_brd-no-edram");
    let on = t.column("gflops_brd-edram");
    for (i, (off, on)) in off.iter().zip(&on).enumerate() {
        assert!(
            on >= off,
            "row {i}: enabling eDRAM lowered GEMM from {off} to {on}"
        );
    }
    // ... and it genuinely helps somewhere, or the column is vestigial.
    assert!(off.iter().zip(&on).any(|(off, on)| on > &(off * 1.05)));
}

#[test]
fn spmv_broadwell_matches_golden_and_edram_never_hurts() {
    let t = assert_matches_golden("fig09_spmv_broadwell", "fig09_spmv_broadwell.csv");
    assert_eq!(
        t.header,
        [
            "footprint_mb",
            "rows",
            "nnz",
            "gflops_brd-no-edram",
            "gflops_brd-edram",
            "speedup_brd-edram"
        ]
    );
    assert_eq!(t.rows.len(), 48, "reduced corpus has 48 matrices");
    for (i, s) in t.column("speedup_brd-edram").iter().enumerate() {
        assert!(*s >= 1.0 - 1e-12, "row {i}: eDRAM speedup {s} < 1");
    }
}

#[test]
fn stream_broadwell_matches_golden_and_plateaus() {
    let t = assert_matches_golden("fig12_stream_broadwell", "fig12_stream_broadwell.csv");
    assert_eq!(
        t.header,
        ["footprint_mb", "gflops_brd-no-edram", "gflops_brd-edram"]
    );
    assert_eq!(t.rows.len(), 21);
    let on = t.column("gflops_brd-edram");
    // Bandwidth holds a plateau while Stream fits in a capacity tier,
    // then steps down; it never recovers at the largest footprints.
    assert!(longest_plateau(&on) >= 4, "no bandwidth plateau: {on:?}");
    let peak = on.iter().cloned().fold(f64::MIN, f64::max);
    assert!(*on.last().unwrap() < 0.5 * peak);
}

#[test]
fn stream_knl_matches_golden_and_flat_mode_cliffs_past_16gb() {
    let t = assert_matches_golden("fig23_stream_knl", "fig23_stream_knl.csv");
    assert_eq!(
        t.header,
        [
            "footprint_mb",
            "gflops_knl-ddr",
            "gflops_knl-flat",
            "gflops_knl-cache",
            "gflops_knl-hybrid"
        ]
    );
    assert_eq!(t.rows.len(), 21);
    let fp = t.column("footprint_mb");
    let flat = t.column("gflops_knl-flat");
    let cache = t.column("gflops_knl-cache");
    assert!(longest_plateau(&flat) >= 4, "no MCDRAM plateau: {flat:?}");
    // In-capacity, flat mode is the fastest way to use MCDRAM...
    let small = fp.iter().position(|&f| f < 16.0 * 1024.0).unwrap();
    assert!(flat[small] >= cache[small]);
    // ...but past the 16 GB MCDRAM capacity every access pages through
    // DDR and flat mode collapses, while cache mode degrades gracefully.
    let mut saw_cliff = false;
    for i in 0..fp.len() {
        if fp[i] > 16.0 * 1024.0 {
            saw_cliff = true;
            assert!(
                flat[i] < 0.5 * cache[i],
                "footprint {} MB: flat {} not below cache {}",
                fp[i],
                flat[i],
                cache[i]
            );
        }
    }
    assert!(
        saw_cliff,
        "reduced grid must still cross the 16 GB boundary"
    );
}

#[test]
fn fft_knl_matches_golden_and_flat_mode_cliffs_past_16gb() {
    let t = assert_matches_golden("fig25_fft_knl", "fig25_fft_knl.csv");
    assert_eq!(t.rows.len(), 9);
    let fp = t.column("footprint_mb");
    let flat = t.column("gflops_knl-flat");
    let cache = t.column("gflops_knl-cache");
    let (last_fp, last_flat, last_cache) = (
        *fp.last().unwrap(),
        *flat.last().unwrap(),
        *cache.last().unwrap(),
    );
    assert!(last_fp > 16.0 * 1024.0);
    assert!(
        last_flat < 0.5 * last_cache,
        "past 16 GB, flat {last_flat} should collapse below cache {last_cache}"
    );
}
