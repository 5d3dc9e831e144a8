//! Property-based corruption tests for the sealed checkpoint journals
//! (`opm_bench::checkpoint`): a journal truncated at *any* byte offset
//! or hit by *any* single-bit flip must never panic the reader, and
//! damage that touches the `config`/`done` records must make
//! `figure_is_done` report incomplete — so resume re-runs the figure
//! instead of trusting a lying journal. (That resume then reproduces
//! the uninterrupted bytes is covered by `fault_tolerance.rs` and
//! `shard_supervision.rs`.)

use opm_bench::checkpoint::{self, FigureCheckpoint};
use opm_repro::kernels::engine::{Engine, StageJournal};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Mutex, Once, OnceLock};

/// Serialize journal-directory access: property cases write damaged
/// journals under distinct figure names but share `OPM_RESULTS`.
static LOCK: Mutex<()> = Mutex::new(());

/// One-time environment pin (the global engine reads it on first use).
fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var(
            "OPM_RESULTS",
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("journal_corruption"),
        );
        std::env::set_var("OPM_REDUCED", "1");
        std::env::remove_var("OPM_FAULT_SPEC");
        std::env::remove_var("OPM_CORPUS");
    });
}

/// A realistic completed journal (header + progress records + `done`),
/// produced once through the real writer.
fn journal() -> &'static (String, String) {
    static CELL: OnceLock<(String, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        setup();
        let signature = checkpoint::config_signature(Engine::global());
        let j = FigureCheckpoint::begin("prop_source", &signature).expect("begin journal");
        for completed in [16usize, 32, 48] {
            j.progress("sweep", completed, 48);
        }
        j.mark_done(48).expect("mark done");
        let text =
            std::fs::read_to_string(checkpoint::ckpt_path("prop_source")).expect("read journal");
        assert!(
            checkpoint::figure_is_done("prop_source", &signature),
            "control: the undamaged journal must read back as done"
        );
        (text, signature)
    })
}

/// Write `bytes` as the journal of a scratch figure and read doneness
/// through the real reader. Must never panic, whatever the bytes.
fn is_done_with(bytes: &[u8], signature: &str) -> bool {
    let path = checkpoint::ckpt_path("prop_damaged");
    std::fs::create_dir_all(path.parent().unwrap()).expect("ckpt dir");
    std::fs::write(&path, bytes).expect("write damaged journal");
    checkpoint::figure_is_done("prop_damaged", signature)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncation anywhere short of the final newline (a torn write —
    /// exactly what a SIGKILL mid-append produces) must read as
    /// not-done, and the surviving valid lines must be a prefix of the
    /// original's.
    #[test]
    fn truncated_journal_is_never_done_and_never_panics(frac in 0.0f64..1.0) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (text, signature) = journal();
        // `done` is the last record: any cut below len-1 damages it
        // (len-1 removes only the trailing newline, which is legal).
        let cut = ((text.len() - 1) as f64 * frac) as usize;
        let truncated = &text.as_bytes()[..cut];
        prop_assert!(!is_done_with(truncated, signature));
        let original: Vec<&str> = checkpoint::valid_lines(text);
        let damaged_text = String::from_utf8_lossy(truncated).into_owned();
        let surviving = checkpoint::valid_lines(&damaged_text);
        prop_assert!(surviving.len() <= original.len());
        prop_assert!(surviving.iter().zip(&original).all(|(a, b)| a == b));
    }

    /// A single flipped bit anywhere in the journal must never panic
    /// the reader, and a flip landing in the `config` or `done` record
    /// must invalidate its checksum trailer and read as not-done.
    #[test]
    fn bit_flipped_journal_never_panics_and_seals_hold(frac in 0.0f64..1.0, bit in 0u32..8) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (text, signature) = journal();
        let mut bytes = text.as_bytes().to_vec();
        let index = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[index] ^= 1 << bit;
        let done = is_done_with(&bytes, signature);
        // Which sealed record did the flip land in?
        let line_start = text[..index].rfind('\n').map_or(0, |p| p + 1);
        let line = text[line_start..].lines().next().unwrap_or("");
        let critical = line.contains("config ") || line.contains("done|");
        if critical {
            prop_assert!(!done, "flip of bit {bit} at byte {index} in {line:?} still read as done");
        }
        // Non-critical damage (a progress record) may legally leave the
        // journal done — completion evidence is untouched. Either way
        // the reader must have returned without panicking to get here.
    }
}

#[test]
fn flipping_every_bit_of_the_done_record_is_rejected() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (text, signature) = journal();
    // Exhaustive sweep over the final record (the `done` seal) — the
    // record whose corruption would be worst: a figure silently skipped
    // on resume with its CSVs missing.
    let start = text.trim_end().rfind('\n').map_or(0, |p| p + 1);
    for index in start..text.trim_end().len() {
        for bit in 0..8 {
            let mut bytes = text.as_bytes().to_vec();
            bytes[index] ^= 1 << bit;
            assert!(
                !is_done_with(&bytes, signature),
                "flip of bit {bit} at byte {index} accepted"
            );
        }
    }
}
