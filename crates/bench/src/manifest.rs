//! The figure registry and the run manifest.
//!
//! Every figure/table pipeline is registered here by name, so `opm
//! figures` — the whole campaign or an `--only` selection — runs through
//! one path, in one process: execute the pipeline on the global
//! [`Engine`], attribute its sweep stages and wall time, print a progress
//! line to stderr, and write the accumulated observability data to
//! `results/run_manifest.csv`.
//!
//! Runs are fault-tolerant end to end: each pipeline executes under
//! `catch_unwind` (one crashing figure does not kill the campaign), and
//! every point/figure failure the engine recorded is written —
//! deterministically sorted — to `results/run_errors.csv`. A run that
//! dies outright is simply run again: the full campaign takes well under
//! a second.

use crate::{figures, out_dir};
use opm_core::platform::Machine;
use opm_core::report::{atomic_write, RecordTable};
use opm_kernels::engine::{Engine, PointFailure};
use opm_kernels::faultinject::FaultKind;
use opm_kernels::registry::KernelId;
use opm_kernels::sweeps::SparseKernelId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// One registered figure/table pipeline.
pub struct FigureSpec {
    /// Registry name; also the stem of the primary CSV the pipeline
    /// writes.
    pub name: &'static str,
    /// The pipeline entry point.
    pub run: fn(),
}

fn fig07() {
    figures::dense_heatmap(KernelId::Gemm, Machine::Broadwell, "fig07_gemm_broadwell");
}
fn fig08() {
    figures::dense_heatmap(
        KernelId::Cholesky,
        Machine::Broadwell,
        "fig08_cholesky_broadwell",
    );
}
fn fig09() {
    figures::sparse_figure(
        SparseKernelId::Spmv,
        Machine::Broadwell,
        "fig09_spmv_broadwell",
    );
}
fn fig10() {
    figures::sparse_figure(
        SparseKernelId::Sptrans,
        Machine::Broadwell,
        "fig10_sptrans_broadwell",
    );
}
fn fig11() {
    figures::sparse_figure(
        SparseKernelId::Sptrsv,
        Machine::Broadwell,
        "fig11_sptrsv_broadwell",
    );
}
fn fig12() {
    figures::curve_figure(
        KernelId::Stream,
        Machine::Broadwell,
        "fig12_stream_broadwell",
    );
}
fn fig13() {
    figures::curve_figure(
        KernelId::Stencil,
        Machine::Broadwell,
        "fig13_stencil_broadwell",
    );
}
fn fig14() {
    figures::curve_figure(KernelId::Fft, Machine::Broadwell, "fig14_fft_broadwell");
}
fn fig15() {
    figures::dense_heatmap(KernelId::Gemm, Machine::Knl, "fig15_gemm_knl");
}
fn fig16() {
    figures::dense_heatmap(KernelId::Cholesky, Machine::Knl, "fig16_cholesky_knl");
}
fn fig17() {
    figures::sparse_figure(SparseKernelId::Spmv, Machine::Knl, "fig17_spmv_knl");
}
fn fig18() {
    figures::sparse_figure(SparseKernelId::Sptrans, Machine::Knl, "fig18_sptrans_knl");
}
fn fig19() {
    figures::sparse_figure(SparseKernelId::Sptrsv, Machine::Knl, "fig19_sptrsv_knl");
}
fn fig23() {
    figures::curve_figure(KernelId::Stream, Machine::Knl, "fig23_stream_knl");
}
fn fig24() {
    figures::curve_figure(KernelId::Stencil, Machine::Knl, "fig24_stencil_knl");
}
fn fig25() {
    figures::curve_figure(KernelId::Fft, Machine::Knl, "fig25_fft_knl");
}
fn fig26() {
    figures::power_figure(Machine::Broadwell, "fig26_power_broadwell");
}
fn fig27() {
    figures::power_figure(Machine::Knl, "fig27_power_knl");
}

/// Every figure/table pipeline, in paper order (the order `opm figures`
/// runs them).
pub const ALL_FIGURES: &[FigureSpec] = &[
    FigureSpec {
        name: "fig01_gemm_pdf",
        run: figures::fig01_gemm_pdf,
    },
    FigureSpec {
        name: "fig04_ai_spectrum",
        run: figures::fig04_ai_spectrum,
    },
    FigureSpec {
        name: "fig05_roofline",
        run: figures::fig05_roofline,
    },
    FigureSpec {
        name: "fig06_stepping_model",
        run: figures::fig06_stepping_model,
    },
    FigureSpec {
        name: "fig07_gemm_broadwell",
        run: fig07,
    },
    FigureSpec {
        name: "fig08_cholesky_broadwell",
        run: fig08,
    },
    FigureSpec {
        name: "fig09_spmv_broadwell",
        run: fig09,
    },
    FigureSpec {
        name: "fig10_sptrans_broadwell",
        run: fig10,
    },
    FigureSpec {
        name: "fig11_sptrsv_broadwell",
        run: fig11,
    },
    FigureSpec {
        name: "fig12_stream_broadwell",
        run: fig12,
    },
    FigureSpec {
        name: "fig13_stencil_broadwell",
        run: fig13,
    },
    FigureSpec {
        name: "fig14_fft_broadwell",
        run: fig14,
    },
    FigureSpec {
        name: "fig15_gemm_knl",
        run: fig15,
    },
    FigureSpec {
        name: "fig16_cholesky_knl",
        run: fig16,
    },
    FigureSpec {
        name: "fig17_spmv_knl",
        run: fig17,
    },
    FigureSpec {
        name: "fig18_sptrans_knl",
        run: fig18,
    },
    FigureSpec {
        name: "fig19_sptrsv_knl",
        run: fig19,
    },
    FigureSpec {
        name: "fig20_22_knl_structure",
        run: figures::fig20_22_knl_structure,
    },
    FigureSpec {
        name: "fig23_stream_knl",
        run: fig23,
    },
    FigureSpec {
        name: "fig24_stencil_knl",
        run: fig24,
    },
    FigureSpec {
        name: "fig25_fft_knl",
        run: fig25,
    },
    FigureSpec {
        name: "fig26_power_broadwell",
        run: fig26,
    },
    FigureSpec {
        name: "fig27_power_knl",
        run: fig27,
    },
    FigureSpec {
        name: "fig28_29_guidelines",
        run: figures::fig28_29_guidelines,
    },
    FigureSpec {
        name: "fig30_hw_tuning",
        run: figures::fig30_hw_tuning,
    },
    FigureSpec {
        name: "table4_edram_summary",
        run: figures::table4_edram_summary,
    },
    FigureSpec {
        name: "table5_mcdram_summary",
        run: figures::table5_mcdram_summary,
    },
];

/// Look up one registered pipeline.
pub fn find(name: &str) -> Option<&'static FigureSpec> {
    ALL_FIGURES.iter().find(|f| f.name == name)
}

/// How one figure pipeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureStatus {
    /// Ran to completion (possibly with quarantined points).
    Completed,
    /// The pipeline itself panicked outside point isolation; its CSVs
    /// may be missing (every CSV write is atomic, so none is torn).
    Failed,
}

impl FigureStatus {
    /// Manifest label.
    pub fn label(&self) -> &'static str {
        match self {
            FigureStatus::Completed => "ok",
            FigureStatus::Failed => "failed",
        }
    }
}

/// Observability record of one executed figure pipeline.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Registry name.
    pub name: &'static str,
    /// How the pipeline ended.
    pub status: FigureStatus,
    /// Wall-clock time of the whole pipeline.
    pub wall_ns: u128,
    /// Work items attributed to the figure: sweep points evaluated
    /// (summed over the pipeline's engine stages), or — for stage-less
    /// model-evaluation figures — the CSV rows produced.
    pub points: usize,
    /// Point/figure failures recorded during the pipeline (recovered
    /// retries included).
    pub failures: usize,
}

impl FigureReport {
    /// Wall time in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Evaluated sweep points per second.
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.points as f64 / self.wall_secs()
        }
    }
}

/// Run the named pipelines (or every registered one for `None`) on the
/// global engine, printing one progress line per figure to stderr.
/// Unknown names panic, listing the registry.
///
/// Each pipeline runs under `catch_unwind`; a figure that panics is
/// recorded as a failure (figure-level, in the engine's failure log) and
/// the run continues with the next figure.
pub fn run_figures(names: Option<&[String]>) -> Vec<FigureReport> {
    let selected: Vec<&FigureSpec> = match names {
        None => ALL_FIGURES.iter().collect(),
        Some(ns) => ns
            .iter()
            .map(|n| {
                find(n).unwrap_or_else(|| {
                    let known: Vec<&str> = ALL_FIGURES.iter().map(|f| f.name).collect();
                    panic!("unknown figure {n:?}; known: {}", known.join(", "))
                })
            })
            .collect(),
    };
    let engine = Engine::global();
    let total = selected.len();
    let mut reports = Vec::with_capacity(total);
    for (i, spec) in selected.iter().enumerate() {
        let stage_mark = engine.stage_count();
        let rows_mark = crate::emitted_rows();
        let failure_mark = engine.failure_count();
        // The figure's root span: engine stage spans opened by the
        // pipeline (same thread) nest under it.
        let mut span = engine.telemetry().span("figure", spec.name);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(spec.run));
        let wall_ns = start.elapsed().as_nanos();
        let stage_points: usize = engine
            .stages_since(stage_mark)
            .iter()
            .map(|s| s.points)
            .sum();
        // Stage-less figures (pure model evaluations such as
        // fig06_stepping_model) do real work too: count the CSV rows
        // they produced so their throughput is never reported as 0.
        let points = if stage_points != 0 {
            stage_points
        } else {
            (crate::emitted_rows() - rows_mark) as usize
        };
        let status = match outcome {
            Ok(()) => FigureStatus::Completed,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                engine.record_failure(PointFailure {
                    stage: format!("figure/{}", spec.name),
                    index: usize::MAX,
                    kind: FaultKind::Panic,
                    attempts: 1,
                    transient: false,
                    recovered: false,
                    message,
                });
                FigureStatus::Failed
            }
        };
        let report = FigureReport {
            name: spec.name,
            status,
            wall_ns,
            points,
            failures: engine.failure_count() - failure_mark,
        };
        span.arg("status", report.status.label());
        span.arg("points", report.points);
        span.arg("failures", report.failures);
        drop(span);
        // Counter snapshot after every figure: a trace tail (`opm top`)
        // sees totals advance figure by figure.
        engine.telemetry().publish_counters();
        eprintln!(
            "[{}/{}] {} [{}]: {:.2}s, {} points ({:.0} pts/s){}",
            i + 1,
            total,
            report.name,
            report.status.label(),
            report.wall_secs(),
            report.points,
            report.points_per_sec(),
            if report.failures > 0 {
                format!(", {} failure(s)", report.failures)
            } else {
                String::new()
            },
        );
        reports.push(report);
    }
    reports
}

/// Write `run_errors.csv` under [`out_dir`]: one row per recorded
/// point/figure failure, sorted by (stage, point, message) so the file is
/// byte-identical from run to run. Always written — a header-only
/// file is the positive signal that a run completed failure-free.
///
/// Columns: `stage` (sweep-stage label, or `figure/<name>` for a pipeline
/// that failed outside point isolation), `point` (index in the stage's
/// grid; `-` when not attributable to one point), `kind` (`panic`/`io`),
/// `attempts` (evaluations including retries), `transient`
/// (`true` if classified retryable), `outcome`
/// (`recovered`/`quarantined`), `message` (the panic payload or error).
pub fn write_run_errors(failures: &[PointFailure]) -> std::io::Result<PathBuf> {
    let mut sorted: Vec<&PointFailure> = failures.iter().collect();
    sorted.sort_by(|a, b| (&a.stage, a.index, &a.message).cmp(&(&b.stage, b.index, &b.message)));
    let mut t = RecordTable::new(vec![
        "stage",
        "point",
        "kind",
        "attempts",
        "transient",
        "outcome",
        "message",
    ]);
    for f in sorted {
        t.push(vec![
            f.stage.clone(),
            if f.index == usize::MAX {
                "-".to_string()
            } else {
                f.index.to_string()
            },
            f.kind.label().to_string(),
            f.attempts.to_string(),
            f.transient.to_string(),
            f.outcome().to_string(),
            f.message.clone(),
        ]);
    }
    t.write_csv(out_dir(), "run_errors")
}

/// Write `run_manifest.csv` under [`out_dir`] (atomically, like every
/// CSV): one row per executed figure plus a `TOTAL` row, with wall time,
/// evaluated points, throughput, and failures.
pub fn write_manifest(reports: &[FigureReport]) -> std::io::Result<PathBuf> {
    let path = out_dir().join("run_manifest.csv");
    let mut out = String::from("figure,status,wall_s,points,points_per_s,failures\n");
    let mut push_row =
        |name: &str, status: &str, wall_s: f64, points: usize, pps: f64, failures: usize| {
            out.push_str(&format!(
                "{name},{status},{wall_s:.6},{points},{pps:.1},{failures}\n"
            ));
        };
    for r in reports {
        push_row(
            r.name,
            r.status.label(),
            r.wall_secs(),
            r.points,
            r.points_per_sec(),
            r.failures,
        );
    }
    let wall_ns: u128 = reports.iter().map(|r| r.wall_ns).sum();
    let points: usize = reports.iter().map(|r| r.points).sum();
    let failures: usize = reports.iter().map(|r| r.failures).sum();
    let wall_s = wall_ns as f64 / 1e9;
    push_row(
        "TOTAL",
        "-",
        wall_s,
        points,
        if wall_ns == 0 {
            0.0
        } else {
            points as f64 / wall_s
        },
        failures,
    );
    atomic_write(&path, out.as_bytes())?;
    Ok(path)
}

/// Run the named pipelines (or all of them) and write the run manifest
/// and `run_errors.csv`, printing a failure/quarantine summary — the
/// body of `opm figures`.
pub fn run_and_write(names: Option<&[String]>) {
    let engine = Engine::global();
    let cfg = engine.config();
    eprintln!(
        "engine: {} grids{}, telemetry {}",
        if cfg.reduced { "reduced" } else { "full" },
        if cfg.fault_plan.is_some() {
            ", fault injection ON"
        } else {
            ""
        },
        engine.telemetry().mode().label(),
    );
    let telemetry_run = crate::telemetry::init(engine.telemetry());
    let reports = run_figures(names);
    match write_manifest(&reports) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: write failed: {e}"),
    }
    let failures = engine.failures();
    match write_run_errors(&failures) {
        Ok(path) => eprintln!("errors: {} ({} recorded)", path.display(), failures.len()),
        Err(e) => eprintln!("errors: write failed: {e}"),
    }
    let quarantined = failures.iter().filter(|f| !f.recovered).count();
    let recovered = failures.len() - quarantined;
    if !failures.is_empty() {
        eprintln!("failures: {quarantined} quarantined, {recovered} recovered by retry");
    }
    if let Some(run) = telemetry_run {
        run.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (i, f) in ALL_FIGURES.iter().enumerate() {
            assert!(
                !ALL_FIGURES[..i].iter().any(|g| g.name == f.name),
                "duplicate {}",
                f.name
            );
            assert!(find(f.name).is_some());
        }
        assert!(find("nope").is_none());
        assert_eq!(ALL_FIGURES.len(), 27);
    }

    #[test]
    fn manifest_rows_format() {
        let reports = [FigureReport {
            name: "fig01_gemm_pdf",
            status: FigureStatus::Completed,
            wall_ns: 2_000_000_000,
            points: 100,
            failures: 0,
        }];
        let r = &reports[0];
        assert!((r.wall_secs() - 2.0).abs() < 1e-12);
        assert!((r.points_per_sec() - 50.0).abs() < 1e-9);
        assert_eq!(r.status.label(), "ok");
        assert_eq!(FigureStatus::Failed.label(), "failed");
    }

    #[test]
    fn run_errors_csv_is_sorted_and_quoted() {
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("opm_run_errors_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("OPM_RESULTS", &dir);
        let failures = vec![
            PointFailure {
                stage: "z_sweep/knl-flat".into(),
                index: 3,
                kind: FaultKind::Panic,
                attempts: 1,
                transient: false,
                recovered: false,
                message: "boom, with comma".into(),
            },
            PointFailure {
                stage: "a_sweep/brd-edram".into(),
                index: usize::MAX,
                kind: FaultKind::Io,
                attempts: 3,
                transient: true,
                recovered: true,
                message: "flaky".into(),
            },
        ];
        let path = write_run_errors(&failures).unwrap();
        std::env::remove_var("OPM_RESULTS");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "stage,point,kind,attempts,transient,outcome,message"
        );
        // Sorted by stage: a_sweep row first despite insertion order.
        assert!(lines[1].starts_with("a_sweep/brd-edram,-,io,3,true,recovered"));
        assert!(lines[2].contains("\"boom, with comma\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
