//! Quarantining loader for on-disk MatrixMarket corpora.
//!
//! The paper's sparse sweeps run over 968 UF collection matrices; one
//! corrupt download must not abort a multi-hour campaign. This loader
//! walks a directory of `.mtx` files and returns every matrix that
//! parses; files that fail land in a quarantine list with the typed
//! parse reason ([`opm_sparse::MtxError`]) and are written to
//! `results/quarantine_manifest.csv` — the sweep continues over the
//! survivors.
//!
//! I/O-classified failures (unreadable file, injected `io@matrix:NAME`
//! faults from the engine's fault plan) are treated as transient and
//! retried up to the engine's retry budget with the same deterministic
//! backoff as sweep points; parse errors are permanent and quarantine
//! immediately — a corrupt file does not fix itself on retry.

use crate::out_dir;
use opm_core::report::RecordTable;
use opm_kernels::engine::Engine;
use opm_kernels::faultinject::FaultKind;
use opm_sparse::{load_matrix_market, CsrMatrix, MtxError};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One quarantined corpus file.
#[derive(Debug, Clone)]
pub struct QuarantinedMatrix {
    /// Path of the file that failed.
    pub path: PathBuf,
    /// The typed load error, rendered.
    pub reason: String,
    /// Load attempts made (>1 only for transient/injected failures).
    pub attempts: usize,
}

/// Result of a quarantining corpus load.
#[derive(Debug, Default)]
pub struct CorpusLoad {
    /// Successfully parsed matrices, as (file stem, matrix), in sorted
    /// path order.
    pub loaded: Vec<(String, CsrMatrix)>,
    /// Files that failed to load, in sorted path order.
    pub quarantined: Vec<QuarantinedMatrix>,
}

impl CorpusLoad {
    /// Write `quarantine_manifest.csv` under the results dir (header-only
    /// when nothing was quarantined, so its presence is deterministic).
    pub fn write_manifest(&self) -> std::io::Result<PathBuf> {
        let mut t = RecordTable::new(vec!["path", "reason", "attempts"]);
        for q in &self.quarantined {
            t.push(vec![
                q.path.display().to_string(),
                q.reason.clone(),
                q.attempts.to_string(),
            ]);
        }
        t.write_csv(out_dir(), "quarantine_manifest")
    }
}

/// Load one `.mtx` file with transient-failure retry, consulting the
/// engine's fault plan under the file stem (so
/// `OPM_FAULT_SPEC=io@matrix:simple3` injects an I/O failure into
/// `simple3.mtx`).
fn load_one(engine: &Engine, path: &Path) -> Result<CsrMatrix, QuarantinedMatrix> {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let config = engine.config();
    let plan = config.fault_plan.as_deref();
    let mut attempt = 0usize;
    loop {
        let injected = plan.and_then(|p| p.matrix_fault(&stem, attempt));
        let outcome: Result<CsrMatrix, (String, bool)> = match injected {
            Some(kind) => Err((
                format!("injected {} fault loading {stem}", kind.label()),
                // Injected faults follow the same transience rule as
                // sweep points: io is retryable, panic-class is not.
                kind == FaultKind::Io,
            )),
            None => load_matrix_market(path).map_err(|e| {
                let transient = matches!(e, MtxError::Io { .. });
                (e.to_string(), transient)
            }),
        };
        match outcome {
            Ok(m) => return Ok(m),
            Err((reason, transient)) => {
                if transient && attempt < config.max_retries {
                    let us = config
                        .backoff_base_us
                        .checked_shl(attempt.min(16) as u32)
                        .unwrap_or(u64::MAX)
                        .min(10_000);
                    if us > 0 {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    attempt += 1;
                    continue;
                }
                return Err(QuarantinedMatrix {
                    path: path.to_path_buf(),
                    reason,
                    attempts: attempt + 1,
                });
            }
        }
    }
}

/// Load every `*.mtx` under `dir` (sorted by path for determinism),
/// quarantining failures instead of aborting. Only the directory read
/// itself is a hard error.
pub fn load_corpus_dir(engine: &Engine, dir: &Path) -> std::io::Result<CorpusLoad> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mtx"))
        .collect();
    paths.sort();
    let mut load = CorpusLoad::default();
    for path in paths {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        match load_one(engine, &path) {
            Ok(m) => load.loaded.push((stem, m)),
            Err(q) => load.quarantined.push(q),
        }
    }
    Ok(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_kernels::faultinject::FaultPlan;
    use opm_kernels::EngineConfig;
    use std::fs;

    fn corpus_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("opm_corpus_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    const GOOD: &str = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n";
    const BAD: &str = "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n";

    #[test]
    fn bad_files_are_quarantined_and_good_ones_survive() {
        let dir = corpus_dir("mixed");
        fs::write(dir.join("a_good.mtx"), GOOD).unwrap();
        fs::write(dir.join("b_bad.mtx"), BAD).unwrap();
        fs::write(dir.join("c_good.mtx"), GOOD).unwrap();
        fs::write(dir.join("ignored.txt"), "not a matrix").unwrap();
        let engine = Engine::new(EngineConfig::default());
        let load = load_corpus_dir(&engine, &dir).unwrap();
        assert_eq!(load.loaded.len(), 2);
        assert_eq!(load.loaded[0].0, "a_good");
        assert_eq!(load.loaded[1].0, "c_good");
        assert_eq!(load.quarantined.len(), 1);
        let q = &load.quarantined[0];
        assert!(q.path.ends_with("b_bad.mtx"));
        assert!(q.reason.contains("out of bounds"), "{}", q.reason);
        assert_eq!(q.attempts, 1, "parse errors are permanent, no retry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_fault_recovers_on_retry() {
        let dir = corpus_dir("inject");
        fs::write(dir.join("victim.mtx"), GOOD).unwrap();
        // io@matrix fires only on attempt 0 (non-persistent), so the
        // first retry reads the perfectly good file.
        let plan = FaultPlan::parse("io@matrix:victim").unwrap();
        let engine = Engine::new(EngineConfig::default().with_fault_plan(plan));
        let load = load_corpus_dir(&engine, &dir).unwrap();
        assert_eq!(load.loaded.len(), 1);
        assert!(load.quarantined.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_injected_fault_exhausts_retries_into_quarantine() {
        let dir = corpus_dir("persist");
        fs::write(dir.join("victim.mtx"), GOOD).unwrap();
        fs::write(dir.join("other.mtx"), GOOD).unwrap();
        let plan = FaultPlan::parse("io@matrix:victim:persist").unwrap();
        let mut config = EngineConfig::default().with_fault_plan(plan);
        config.max_retries = 2;
        config.backoff_base_us = 0;
        let engine = Engine::new(config);
        let load = load_corpus_dir(&engine, &dir).unwrap();
        assert_eq!(load.loaded.len(), 1);
        assert_eq!(load.loaded[0].0, "other");
        assert_eq!(load.quarantined.len(), 1);
        assert_eq!(load.quarantined[0].attempts, 3, "1 try + 2 retries");
        assert!(load.quarantined[0].reason.contains("injected io fault"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_has_one_row_per_quarantined_file() {
        let dir = corpus_dir("manifest");
        fs::write(dir.join("bad.mtx"), BAD).unwrap();
        let results = corpus_dir("manifest_results");
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::env::set_var("OPM_RESULTS", &results);
        let engine = Engine::new(EngineConfig::default());
        let load = load_corpus_dir(&engine, &dir).unwrap();
        let path = load.write_manifest().unwrap();
        std::env::remove_var("OPM_RESULTS");
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "path,reason,attempts");
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("bad.mtx"));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&results);
    }
}
