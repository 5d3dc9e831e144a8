//! Checkpoint/resume journal for figure pipelines.
//!
//! Each figure run writes a journal to
//! `results/.checkpoint/<figure>.ckpt`. The file opens with the figure
//! name and a **configuration signature** (reduced-grid flag, corpus
//! size, fault spec — everything that changes output bytes), then
//! accumulates `progress` lines as the engine flushes completed point
//! ranges (every [`opm_kernels::EngineConfig::checkpoint_every`] points)
//! and a `stage` line as each sweep stage completes; a final `done` line
//! marks the figure's CSVs as fully written.
//!
//! # Integrity
//!
//! A journal is only trustworthy if it can prove it was written whole.
//! Every record is **sealed**: the line carries a `|<length>|<crc32>`
//! trailer over its payload, the header is written with an atomic
//! write-tmp/fsync/rename (a crash mid-`begin` can never leave a file
//! that parses as a fresh valid run), and readers accept exactly the
//! longest prefix of sealed lines — the first truncated, torn, or
//! bit-flipped line invalidates itself and everything after it, and the
//! reader falls back to the last valid entry instead of panicking.
//!
//! `opm figures --resume` consults [`figure_is_done`]: a figure whose
//! journal ends in a *sealed* `done` *and* whose *sealed* signature
//! matches the current configuration is skipped — its CSVs are already
//! on disk, and engine determinism guarantees a re-run would reproduce
//! them byte for byte. A signature mismatch (different corpus size,
//! different fault plan) or any checksum failure on the signature/done
//! records invalidates the checkpoint and the figure re-runs. Journals
//! are cleared at the start of a non-resume run so stale `done` markers
//! can never mask missing output.
//!
//! The `corrupt-ckpt` and `partial-write` kinds of `OPM_FAULT_SPEC`
//! (see [`opm_kernels::faultinject`]) deliberately damage the journal as
//! the `done` marker lands, which is how the recovery path above is
//! exercised end to end in CI.

use crate::out_dir;
use opm_core::report::{atomic_write, crc32};
use opm_kernels::engine::{lock_recover, Engine, StageJournal, StageRecord};
use opm_kernels::faultinject::FaultKind;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// The checkpoint directory under the current results dir.
pub fn ckpt_dir() -> PathBuf {
    out_dir().join(".checkpoint")
}

/// Journal path for one figure.
pub fn ckpt_path(figure: &str) -> PathBuf {
    ckpt_dir().join(format!("{figure}.ckpt"))
}

/// Seal one journal record: `<payload>|<byte length>|<crc32 hex>`.
/// Readers verify both trailer fields, so any truncation or bit flip —
/// in the payload or the trailer itself — is detected.
pub fn seal(payload: &str) -> String {
    format!(
        "{payload}|{}|{:08x}",
        payload.len(),
        crc32(payload.as_bytes())
    )
}

/// Validate one sealed line, returning its payload. `None` for any line
/// whose trailer is missing, whose length disagrees, or whose CRC does
/// not match — including every line of the pre-trailer journal format,
/// which is deliberately not trusted.
pub fn check_line(line: &str) -> Option<&str> {
    let (rest, crc_hex) = line.rsplit_once('|')?;
    let (payload, len_str) = rest.rsplit_once('|')?;
    if len_str.parse::<usize>().ok()? != payload.len() {
        return None;
    }
    // Strict comparison against the canonical lowercase rendering (not
    // a parse): `from_str_radix` is case-insensitive, which would let a
    // bit flip of `d` → `D` inside the trailer go undetected.
    if crc_hex != format!("{:08x}", crc32(payload.as_bytes())) {
        return None;
    }
    Some(payload)
}

/// The longest valid prefix of a journal: every sealed payload up to
/// (excluding) the first invalid line. This is the fall-back contract —
/// a journal truncated or corrupted at any byte offset yields exactly
/// the records that were provably written whole before the damage.
pub fn valid_lines(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in text.lines() {
        match check_line(line) {
            Some(payload) => out.push(payload),
            None => break,
        }
    }
    out
}

/// The configuration signature recorded in (and checked against) every
/// journal: anything that changes the *bytes* of the figure CSVs.
/// Thread count and the profile cache are deliberately absent — the
/// engine is deterministic across both.
pub fn config_signature(engine: &Engine) -> String {
    let fault = std::env::var("OPM_FAULT_SPEC").unwrap_or_default();
    format!(
        "reduced={} corpus={} fault={}",
        engine.config().reduced,
        crate::corpus_size(),
        fault,
    )
}

/// Whether `figure`'s journal marks a completed run under the given
/// signature. Only sealed records count: a journal whose signature or
/// `done` line fails its checksum trailer is treated as incomplete, so
/// a corrupt journal can never silently skip a figure.
pub fn figure_is_done(figure: &str, signature: &str) -> bool {
    figure_done_points(figure, signature).is_some()
}

/// Like [`figure_is_done`], but returning the work-item count the
/// completed incarnation recorded in its `done` marker, so a resumed
/// figure reports the same points as the run it stands in for. A legacy
/// bare `done` (pre-points journals) counts as completed with 0 points.
pub fn figure_done_points(figure: &str, signature: &str) -> Option<usize> {
    let text = fs::read_to_string(ckpt_path(figure)).ok()?;
    let mut sig_ok = false;
    let mut done = None;
    for payload in valid_lines(&text) {
        if let Some(sig) = payload.strip_prefix("config ") {
            sig_ok = sig == signature;
        } else {
            let t = payload.trim();
            if t == "done" {
                done = Some(0);
            } else if let Some(n) = t.strip_prefix("done ") {
                done = Some(n.trim().parse().unwrap_or(0));
            }
        }
    }
    if sig_ok {
        done
    } else {
        None
    }
}

/// Delete every journal (start of a fresh, non-resume run).
pub fn clear_all() {
    let _ = fs::remove_dir_all(ckpt_dir());
}

/// An open journal for one figure, receiving the engine's progress
/// events. Writes are line-buffered behind a mutex (progress events
/// arrive from every worker thread) and flushed on each event, so the
/// journal survives a `kill -9` up to the last completed point range.
pub struct FigureCheckpoint {
    figure: String,
    file: Mutex<fs::File>,
}

impl FigureCheckpoint {
    /// Create the journal for `figure` and write its header (a sealed
    /// `begin` line plus the sealed configuration signature). The header
    /// lands via write-tmp/fsync/rename: a crash at any instant leaves
    /// either no journal or a complete header, never a torn file that
    /// could parse as a valid fresh run.
    pub fn begin(figure: &str, signature: &str) -> std::io::Result<Self> {
        let path = ckpt_path(figure);
        let header = format!(
            "{}\n{}\n",
            seal(&format!("begin {figure}")),
            seal(&format!("config {signature}"))
        );
        atomic_write(&path, header.as_bytes())?;
        let file = fs::OpenOptions::new().append(true).open(&path)?;
        Ok(FigureCheckpoint {
            figure: figure.to_string(),
            file: Mutex::new(file),
        })
    }

    /// Append one sealed record and flush it to the OS.
    fn append(&self, payload: &str) -> std::io::Result<()> {
        let mut f = lock_recover(&self.file);
        writeln!(f, "{}", seal(payload))?;
        f.flush()
    }

    /// Append the `done` marker: every CSV of the figure is on disk. The
    /// caller must treat an `Err` as "not checkpointed" — a done marker
    /// that failed to land must not be assumed durable. `points` is the
    /// figure's emitted work-item count, persisted so a resumed run can
    /// report the same number ([`figure_done_points`]).
    pub fn mark_done(&self, points: usize) -> std::io::Result<()> {
        self.append(&format!("done {points}"))?;
        // Deliberate damage under `corrupt-ckpt`/`partial-write`
        // injection: exactly the torn/rotten journal the resume path
        // must survive.
        let config = Engine::global().config();
        if let Some(kind) = config
            .fault_plan
            .as_deref()
            .and_then(|p| p.ckpt_fault(&self.figure))
        {
            self.damage(kind)?;
        }
        Ok(())
    }

    /// Apply an injected checkpoint fault to the journal on disk.
    fn damage(&self, kind: FaultKind) -> std::io::Result<()> {
        let path = ckpt_path(&self.figure);
        eprintln!(
            "fault injection: {} on journal {}",
            kind.label(),
            path.display()
        );
        match kind {
            FaultKind::PartialWrite => {
                let f = lock_recover(&self.file);
                let len = f.metadata()?.len();
                f.set_len(len.saturating_sub(7))
            }
            FaultKind::CorruptCkpt => {
                let mut bytes = fs::read(&path)?;
                if !bytes.is_empty() {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x01;
                }
                fs::write(&path, bytes)
            }
            _ => Ok(()),
        }
    }

    /// The figure this journal belongs to.
    pub fn figure(&self) -> &str {
        &self.figure
    }
}

impl StageJournal for FigureCheckpoint {
    fn progress(&self, stage: &str, completed: usize, total: usize) {
        if let Err(e) = self.append(&format!("progress {stage} {completed}/{total}")) {
            eprintln!("checkpoint {}: journal write failed: {e}", self.figure);
        }
    }

    fn stage_done(&self, record: &StageRecord) {
        if let Err(e) = self.append(&format!("stage {} {}", record.label, record.points)) {
            eprintln!("checkpoint {}: journal write failed: {e}", self.figure);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn with_tmp_results<R>(tag: &str, f: impl FnOnce() -> R) -> R {
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("opm_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        std::env::set_var("OPM_RESULTS", &dir);
        let out = f();
        std::env::remove_var("OPM_RESULTS");
        let _ = fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn journal_lifecycle_and_done_detection() {
        with_tmp_results("lifecycle", || {
            let sig = "reduced=true corpus=48 fault=";
            assert!(!figure_is_done("figx", sig));
            let ck = FigureCheckpoint::begin("figx", sig).unwrap();
            ck.progress("stage_a", 64, 128);
            ck.stage_done(&StageRecord {
                label: "stage_a".into(),
                points: 128,
                wall_ns: 1,
                cache_hits: 0,
                cache_misses: 0,
            });
            // In-progress journal is not "done".
            assert!(!figure_is_done("figx", sig));
            ck.mark_done(128).unwrap();
            assert!(figure_is_done("figx", sig));
            assert_eq!(figure_done_points("figx", sig), Some(128));
            // A different signature invalidates the checkpoint.
            assert!(!figure_is_done("figx", "reduced=false corpus=968 fault="));
            assert_eq!(
                figure_done_points("figx", "reduced=false corpus=968 fault="),
                None
            );
            let text = fs::read_to_string(ckpt_path("figx")).unwrap();
            let payloads = valid_lines(&text);
            assert!(payloads.contains(&"begin figx"));
            assert!(payloads.contains(&"progress stage_a 64/128"));
            assert!(payloads.contains(&"stage stage_a 128"));
            clear_all();
            assert!(!figure_is_done("figx", sig));
        });
    }

    #[test]
    fn sealed_lines_reject_any_damage() {
        let line = seal("progress stage_a 64/128");
        assert_eq!(check_line(&line), Some("progress stage_a 64/128"));
        // Truncation at every offset invalidates the line.
        for cut in 0..line.len() {
            assert_eq!(check_line(&line[..cut]), None, "cut at {cut}");
        }
        // A flip of any single bit invalidates the line.
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(s) = String::from_utf8(bytes) {
                assert_eq!(check_line(&s), None, "flip at {i}");
            }
        }
        // Payloads containing the separator still round-trip (the
        // trailer is anchored at the right).
        let tricky = seal("config reduced=true corpus=48 fault=io@stage:a|b");
        assert_eq!(
            check_line(&tricky),
            Some("config reduced=true corpus=48 fault=io@stage:a|b")
        );
    }

    #[test]
    fn valid_lines_stop_at_first_invalid_record() {
        let text = format!(
            "{}\n{}\ngarbage without a trailer\n{}\n",
            seal("begin figz"),
            seal("config sig"),
            seal("done")
        );
        // The sealed `done` after the garbage must NOT count: everything
        // past the first invalid line is untrusted.
        assert_eq!(valid_lines(&text), vec!["begin figz", "config sig"]);
    }

    #[test]
    fn legacy_untrailered_journals_are_not_trusted() {
        with_tmp_results("legacy", || {
            let sig = "reduced=true corpus=48 fault=";
            fs::create_dir_all(ckpt_dir()).unwrap();
            fs::write(
                ckpt_path("figl"),
                format!("begin figl\nconfig {sig}\ndone\n"),
            )
            .unwrap();
            // Pre-trailer format: parses as zero valid lines, so the
            // figure re-runs rather than being silently skipped.
            assert!(!figure_is_done("figl", sig));
        });
    }

    #[test]
    fn legacy_sealed_bare_done_still_counts_as_complete() {
        with_tmp_results("legacydone", || {
            let sig = "reduced=true corpus=48 fault=";
            fs::create_dir_all(ckpt_dir()).unwrap();
            // Journals written before the done marker carried a point
            // count end in a sealed bare `done`: still complete, with
            // an unknown (0) point count.
            fs::write(
                ckpt_path("figd"),
                format!(
                    "{}\n{}\n{}\n",
                    seal("begin figd"),
                    seal(&format!("config {sig}")),
                    seal("done")
                ),
            )
            .unwrap();
            assert!(figure_is_done("figd", sig));
            assert_eq!(figure_done_points("figd", sig), Some(0));
        });
    }

    #[test]
    fn corrupted_done_marker_is_rejected() {
        with_tmp_results("corrupt", || {
            let sig = "reduced=true corpus=48 fault=";
            let ck = FigureCheckpoint::begin("figc", sig).unwrap();
            ck.mark_done(0).unwrap();
            assert!(figure_is_done("figc", sig));
            // Tear the tail off the journal (what `partial-write`
            // injection does): done no longer counts, header still
            // parses.
            let path = ckpt_path("figc");
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
            assert!(!figure_is_done("figc", sig));
            let text = fs::read_to_string(&path).unwrap();
            assert_eq!(valid_lines(&text).len(), 2, "header survives");
        });
    }

    #[test]
    fn checkpoint_feeds_from_engine_journal_hook() {
        with_tmp_results("enginehook", || {
            let sig = "reduced=false corpus=48 fault=";
            let mut config = opm_kernels::EngineConfig::serial();
            config.checkpoint_every = 4;
            let engine = Engine::new(config);
            let ck = Arc::new(FigureCheckpoint::begin("figy", sig).unwrap());
            engine.set_journal(Some(ck.clone()));
            engine.run_stage("hooked_stage", |e| {
                let items: Vec<usize> = (0..10).collect();
                let v = e.par_map(&items, |&x| x);
                let n = v.len();
                (v, n)
            });
            ck.mark_done(10).unwrap();
            engine.set_journal(None);
            let text = fs::read_to_string(ckpt_path("figy")).unwrap();
            let payloads = valid_lines(&text);
            assert!(
                payloads.contains(&"progress hooked_stage 4/10"),
                "{payloads:?}"
            );
            assert!(
                payloads.contains(&"progress hooked_stage 8/10"),
                "{payloads:?}"
            );
            assert!(
                payloads.contains(&"progress hooked_stage 10/10"),
                "{payloads:?}"
            );
            assert!(payloads.contains(&"stage hooked_stage 10"), "{payloads:?}");
            assert!(figure_is_done("figy", sig));
        });
    }
}
