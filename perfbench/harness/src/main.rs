//! Benchmark harness for opm-repro.
//!
//! One process runs one workload (`campaign`, `serve-small`,
//! `serve-batch`, `memsim`) for a fixed wall-clock window and prints
//! one JSON line on stdout. Every layer is timed from outside, by
//! wrapping calls into the crates' public functions; nothing inside the
//! crates is instrumented.
//!
//! ```text
//! opm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               --digests <dir> --work <dir> [--record]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends the
//! first part of the window untraced (the base for the tracing
//! overhead), then records spans around each layer call and reports
//! the per-layer metrics. Spans are kept in memory and written to
//! `<work>/spans-<workload>.jsonl` at exit. `--record` rewrites the
//! pinned output digests instead of checking them.

mod calib;
mod campaign;
mod memsim;
mod serve;
mod stats;

use opm_core::platform::OpmConfig;
use stats::{Metrics, Outcome};
use std::path::PathBuf;
use std::time::Duration;

/// Share of a traced run spent untraced, as the overhead base.
const UNTRACED_SHARE: f64 = 0.4;

/// The six OPM configurations, Broadwell then KNL.
pub fn all_configs() -> Vec<OpmConfig> {
    OpmConfig::broadwell_modes()
        .into_iter()
        .chain(OpmConfig::knl_modes())
        .collect()
}

/// The end-to-end metrics of an untraced run (peak RSS is added by
/// `main`); times are scaled CPU times (see `calib`).
pub fn set_end_to_end(m: &mut Metrics, ops: &stats::Summary, setup_s: f64) {
    m.set("op_ms", ops.op_ms, "ms");
    m.set("ops_per_s", ops.ops_per_s, "1/s");
    m.set("items_per_s", ops.items_per_s, "1/s");
    m.set("setup_s", setup_s, "s");
}

/// Tracing overhead of a traced run: its traced op wall-time median
/// against the untraced one measured earlier in the same process (the
/// base), with the host speed factor of the base window. Per-layer
/// times are wall times as measured, so the factor says how fast the
/// host ran while they were taken.
pub fn set_overhead(m: &mut Metrics, base: &stats::Summary, traced_op_ms: f64) {
    m.set("trace.base_op_ms", base.wall_ms, "ms");
    m.set("trace.traced_op_ms", traced_op_ms, "ms");
    m.set("trace.overhead_ratio", traced_op_ms / base.wall_ms, "ratio");
    m.set("host.speed_factor", base.factor, "ratio");
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub digests: PathBuf,
    pub work: PathBuf,
    pub record: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            digests: PathBuf::new(),
            work: PathBuf::new(),
            record: false,
        };
        while let Some(flag) = it.next() {
            if flag == "--record" {
                a.record = true;
                continue;
            }
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {v:?}");
            match flag.as_str() {
                "--workload" => a.workload = v.clone(),
                "--seed" => a.seed = v.parse().map_err(|_| bad())?,
                "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
                "--trace" => {
                    a.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                    }
                }
                "--digests" => a.digests = PathBuf::from(&v),
                "--work" => a.work = PathBuf::from(&v),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(a.seconds > 0.0 && a.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        if a.digests.as_os_str().is_empty() || a.work.as_os_str().is_empty() {
            return Err("--digests and --work are required".into());
        }
        Ok(a)
    }
}

/// The timed window of one run: the untraced part and, for a traced
/// run, the traced part that follows it.
pub struct Window {
    pub untraced: Duration,
    pub traced: Duration,
}

impl Window {
    fn new(a: &Args) -> Window {
        let total = Duration::from_secs_f64(a.seconds);
        if a.trace {
            let untraced = total.mul_f64(UNTRACED_SHARE);
            Window {
                untraced,
                traced: total - untraced,
            }
        } else {
            Window {
                untraced: total,
                traced: Duration::ZERO,
            }
        }
    }
}

/// Everything a workload hands back to `main`.
pub struct Report {
    pub outcome: Outcome,
    pub metrics: Metrics,
    /// Counts that must repeat exactly for one seed.
    pub exact: Vec<(String, u64)>,
    /// Digest of the generated inputs (changes with the seed when the
    /// workload's inputs depend on it).
    pub inputs_digest: u64,
    /// Engine worker threads in effect.
    pub engine_threads: usize,
    /// Accounting of the untraced window (`Summary::json`).
    pub window: String,
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("opm-perfbench: creating {}: {e}", args.work.display());
        std::process::exit(2);
    }
    let window = Window::new(&args);
    let report = match args.workload.as_str() {
        "campaign" => campaign::run(&args, &window),
        "serve-small" => serve::run(&args, &window, serve::Mix::Small),
        "serve-batch" => serve::run(&args, &window, serve::Mix::Batch),
        "memsim" => memsim::run(&args, &window),
        other => {
            eprintln!("opm-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opm-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let o = &report.outcome;
        report.metrics.set(
            "failed_ratio",
            o.failed as f64 / o.attempted.max(1) as f64,
            "ratio",
        );
    } else {
        report
            .metrics
            .set("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    }
    let spans = args.work.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = stats::write_spans(&spans) {
        eprintln!("opm-perfbench: writing {}: {e}", spans.display());
        std::process::exit(1);
    }
    println!("{}", report.render(&args));
}

impl Report {
    fn render(&self, a: &Args) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let errors: Vec<String> = self
            .outcome
            .errors
            .iter()
            .map(|e| format!("\"{}\"", stats::json_escape(e)))
            .collect();
        let _ = write!(
            s,
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\
             \"errors\":[{}],\"engine_threads\":{},\"inputs_digest\":\"{:016x}\",\
             \"window\":{},\"exact\":{{{}}},\"metrics\":{}}}",
            a.workload,
            a.seed,
            u8::from(a.trace),
            self.outcome.attempted,
            self.outcome.failed,
            errors.join(","),
            self.engine_threads,
            self.inputs_digest,
            self.window,
            exact.join(","),
            self.metrics.render(),
        );
        s
    }
}
