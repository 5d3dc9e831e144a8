//! End-to-end fault injection through the figure pipelines: this test
//! binary boots its global engine with `OPM_FAULT_SPEC` set (each
//! integration-test file is its own process, so this cannot leak into
//! the fault-free suites), then asserts the robustness contract of a
//! faulted campaign:
//!
//! * every figure still completes — faults quarantine points, not runs,
//! * quarantined points appear as NaN placeholder rows that keep their
//!   grid coordinates,
//! * transient faults are retried and recovered without a trace in the
//!   output CSVs,
//! * a figure that fails outside point isolation is logged as a
//!   `figure/<name>` failure and the run goes on with the next figure.

use opm_bench::manifest::{run_figures, write_run_errors, FigureStatus};
use opm_kernels::Engine;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

/// Deterministic spec: a 15% persistent panic rate (those points exhaust
/// retries and quarantine) plus a one-shot io fault on point 3 of every
/// stage (recovered on first retry).
const SPEC: &str = "panic@rate:0.15:seed:7:persist,io@point:3";

fn run_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("OPM_FAULT_SPEC", SPEC);
    });
    &LOCK
}

fn results_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("fault_injection")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

fn names(ns: &[&str]) -> Vec<String> {
    ns.iter().map(|s| s.to_string()).collect()
}

fn read(dir: &Path, csv: &str) -> String {
    let path = dir.join(csv);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const FIGS: [&str; 2] = ["fig23_stream_knl", "fig12_stream_broadwell"];
const CSVS: [&str; 2] = ["fig23_stream_knl.csv", "fig12_stream_broadwell.csv"];

#[test]
fn faulted_campaign_completes_with_quarantined_points_and_nan_placeholders() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let dir = results_dir("campaign");
    std::env::set_var("OPM_RESULTS", &dir);

    let engine = Engine::global();
    assert!(
        engine.config().fault_plan.is_some(),
        "global engine must have picked up OPM_FAULT_SPEC"
    );
    let mark = engine.failure_count();
    let reports = run_figures(Some(&names(&FIGS)));
    assert!(
        reports.iter().all(|r| r.status == FigureStatus::Completed),
        "faults must quarantine points, not kill figures: {reports:?}"
    );
    let failures = engine.failures_since(mark);
    assert!(
        failures.iter().any(|f| !f.recovered),
        "a persistent 15% panic rate must quarantine some points"
    );
    assert!(
        failures.iter().any(|f| f.recovered && f.attempts == 2),
        "the one-shot io fault on point 3 must recover on first retry"
    );

    // run_errors.csv carries one row per failure with the outcome.
    let path = write_run_errors(&failures).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("stage,point,kind,attempts,transient,outcome,message"));
    assert!(text.contains(",quarantined,"), "{text}");
    assert!(text.contains(",recovered,"), "{text}");

    // The figure CSV keeps its full grid: quarantined points become NaN
    // placeholder rows, never dropped rows, and the grid coordinate
    // (footprint) stays finite on every row.
    let csv = read(&dir, CSVS[0]);
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), 64, "the Stream grid is 64 footprints");
    assert!(
        csv.contains("NaN"),
        "quarantined points must leave NaN cells"
    );
    for row in &rows {
        let footprint: f64 = row.split(',').next().unwrap().parse().unwrap();
        assert!(footprint.is_finite(), "grid coordinate lost in {row:?}");
    }
    std::env::remove_var("OPM_RESULTS");
}

#[test]
fn failed_figure_is_logged_and_the_run_goes_on() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let figs = names(&["fig06_stepping_model", "fig23_stream_knl"]);
    let engine = Engine::global();

    let clean = results_dir("figure_failure_clean");
    std::env::set_var("OPM_RESULTS", &clean);
    run_figures(Some(&figs));

    // A directory squatting on fig06's first CSV path makes the atomic
    // write's rename fail (EISDIR), so `emit` panics outside point
    // isolation and the whole figure fails.
    let dir = results_dir("figure_failure");
    std::fs::create_dir(dir.join("fig06a_stepping_single.csv")).unwrap();
    std::env::set_var("OPM_RESULTS", &dir);
    let mark = engine.failure_count();
    let reports = run_figures(Some(&figs));
    assert_eq!(reports[0].status, FigureStatus::Failed, "{reports:?}");
    assert_eq!(reports[1].status, FigureStatus::Completed, "{reports:?}");

    let path = write_run_errors(&engine.failures_since(mark)).unwrap();
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(
        log.lines()
            .any(|l| l.starts_with("figure/fig06_stepping_model,-,panic,")),
        "{log}"
    );
    assert_eq!(
        read(&dir, "fig23_stream_knl.csv"),
        read(&clean, "fig23_stream_knl.csv"),
        "the figure after the failed one must be unaffected"
    );
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "torn temp files: {leftovers:?}");
    std::env::remove_var("OPM_RESULTS");
}
