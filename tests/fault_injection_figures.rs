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
//! * the failure log is deterministic, so a killed faulted campaign
//!   resumes to byte-identical output.

use opm_bench::manifest::{run_figures_opt, write_run_errors, FigureStatus, RunOptions};
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
        std::env::set_var("OPM_REDUCED", "1");
        std::env::set_var("OPM_FAULT_SPEC", SPEC);
        std::env::remove_var("OPM_CORPUS");
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
    let reports = run_figures_opt(Some(&names(&FIGS)), &RunOptions::default());
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
    assert_eq!(rows.len(), 21, "reduced Stream grid is 21 footprints");
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
fn faulted_kill_and_resume_is_byte_identical() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());

    // Fault injection is deterministic (seeded on stage and point
    // index), so even a faulted campaign resumes byte-for-byte.
    let reference = results_dir("resume_reference");
    std::env::set_var("OPM_RESULTS", &reference);
    run_figures_opt(Some(&names(&FIGS)), &RunOptions::default());

    let interrupted = results_dir("resume_interrupted");
    std::env::set_var("OPM_RESULTS", &interrupted);
    run_figures_opt(Some(&names(&FIGS[..1])), &RunOptions::default());
    let reports = run_figures_opt(Some(&names(&FIGS)), &RunOptions { resume: true });
    assert_eq!(reports[0].status, FigureStatus::Resumed);
    assert_eq!(reports[1].status, FigureStatus::Completed);
    for csv in CSVS {
        assert_eq!(
            read(&interrupted, csv),
            read(&reference, csv),
            "{csv} differs between the resumed and the uninterrupted faulted run"
        );
    }
    std::env::remove_var("OPM_RESULTS");
}
