//! Checkpoint/resume behaviour of the figure runner: a campaign killed
//! between figures and resumed with `--resume` must produce CSVs
//! byte-identical to an uninterrupted run, resume must never trust a
//! checkpoint written under a different configuration, and a non-resume
//! run must clear stale journals.
//!
//! These tests drive the real `opm figures` code path
//! ([`opm_bench::manifest::run_figures_opt`]) in-process on the global
//! engine.

use opm_bench::checkpoint;
use opm_bench::manifest::{run_figures_opt, FigureStatus, RunOptions};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once};

/// The global engine reads its configuration from the environment on
/// first use, so setup must happen exactly once before any figure runs,
/// and runs must not interleave (they share `OPM_RESULTS`).
fn run_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("OPM_REDUCED", "1");
        std::env::remove_var("OPM_CORPUS");
        std::env::remove_var("OPM_FAULT_SPEC");
    });
    &LOCK
}

fn results_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("fault_tolerance")
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
fn kill_and_resume_reproduces_uninterrupted_run_byte_for_byte() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());

    // Uninterrupted reference run.
    let reference = results_dir("reference");
    std::env::set_var("OPM_RESULTS", &reference);
    let reports = run_figures_opt(Some(&names(&FIGS)), &RunOptions::default());
    assert!(reports.iter().all(|r| r.status == FigureStatus::Completed));

    // A campaign killed between figures: only the first one finished,
    // but its checkpoint journal carries the `done` marker.
    let interrupted = results_dir("interrupted");
    std::env::set_var("OPM_RESULTS", &interrupted);
    run_figures_opt(Some(&names(&FIGS[..1])), &RunOptions::default());
    assert!(
        checkpoint::ckpt_path(FIGS[0]).exists(),
        "completed figure must leave a journal"
    );

    // Resume with the full figure list: the finished figure is skipped
    // (its CSVs are already on disk), only the missing one runs, and
    // every output byte matches the uninterrupted run.
    let reports = run_figures_opt(Some(&names(&FIGS)), &RunOptions { resume: true });
    assert_eq!(reports[0].status, FigureStatus::Resumed);
    assert_eq!(reports[1].status, FigureStatus::Completed);
    for csv in CSVS {
        assert_eq!(
            read(&interrupted, csv),
            read(&reference, csv),
            "{csv} differs between the resumed and the uninterrupted run"
        );
    }
    std::env::remove_var("OPM_RESULTS");
}

#[test]
fn resume_does_not_trust_a_checkpoint_from_another_configuration() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let dir = results_dir("sig_change");
    std::env::set_var("OPM_RESULTS", &dir);

    run_figures_opt(Some(&names(&FIGS[1..])), &RunOptions::default());
    let reports = run_figures_opt(Some(&names(&FIGS[1..])), &RunOptions { resume: true });
    assert_eq!(reports[0].status, FigureStatus::Resumed);

    // A fault spec changes the output bytes, so it is part of the
    // checkpoint's configuration signature: the stale `done` marker must
    // not be honoured once the spec differs.
    std::env::set_var("OPM_FAULT_SPEC", "panic@point:0");
    let reports = run_figures_opt(Some(&names(&FIGS[1..])), &RunOptions { resume: true });
    std::env::remove_var("OPM_FAULT_SPEC");
    assert_eq!(
        reports[0].status,
        FigureStatus::Completed,
        "signature mismatch must force a re-run"
    );
    std::env::remove_var("OPM_RESULTS");
}

#[test]
fn non_resume_runs_clear_stale_journals() {
    let _guard = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let dir = results_dir("clear");
    std::env::set_var("OPM_RESULTS", &dir);

    run_figures_opt(Some(&names(&FIGS[1..])), &RunOptions::default());
    assert!(checkpoint::ckpt_path(FIGS[1]).exists());

    // Any fresh (non-resume) run wipes the journal directory first, so a
    // stale `done` marker can never mask missing output later.
    run_figures_opt(Some(&names(&[])), &RunOptions::default());
    assert!(!checkpoint::ckpt_dir().exists());
    std::env::remove_var("OPM_RESULTS");
}
