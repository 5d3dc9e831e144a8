//! The `opm` command-line driver and the repository's one entry
//! surface. Subcommands: `figures` (regenerate the paper's figures and
//! tables), `study` (the validation, ablation and extension studies),
//! `report` (render `REPORT.md`), `model` (evaluate one kernel
//! configuration), `recommend` (§6 guidelines), `stepping` (print a
//! stepping curve), `corpus` (inspect the UF-substitute corpus),
//! `serve`/`advise`/`loadgen` (the `opm-api/v1` query service and its
//! clients) and `top` (inspect a run's telemetry trace). Argument parsing
//! is hand-rolled (`--key value` or `--key=value` pairs) to stay inside the
//! approved dependency set.
//!
//! ## Globals and exit codes
//!
//! Every subcommand accepts the shared globals
//! `--telemetry <off|summary|full>`, `--reduced`, `--fault-spec <spec>`,
//! `--max-retries <n>` and `--out <path>`; they are applied (via the
//! corresponding `OPM_*` variables, which remain the configuration
//! source) before the subcommand runs, and the merged configuration —
//! fault spec included — is validated once up front. The process exits
//! with:
//!
//! * `0` — success;
//! * `1` — runtime failure (evaluation, I/O);
//! * `2` — usage or configuration error (unknown subcommand, figure or
//!   study, malformed flag value or `OPM_*` value).

use crate::manifest;
use opm_core::api::Request;
use opm_core::guideline::{explain_mcdram, recommend_mcdram, Workload};
use opm_core::perf::PerfModel;
use opm_core::platform::{Machine, OpmConfig, PlatformSpec};
use opm_core::power::PowerModel;
use opm_core::stepping::{stepping_curve, SweepKernel};
use opm_core::units::{GIB, MIB};
use opm_kernels::registry::KernelId;
use std::collections::HashMap;
use std::str::FromStr;

/// Parsed `--key value` arguments plus positional words.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// Positional arguments (subcommand first).
    pub positional: Vec<String>,
    /// `--key value` options (`--flag` alone stores "true").
    pub options: HashMap<String, String>,
}

/// Parse a raw argument list.
pub fn parse_args(raw: &[String]) -> Args {
    let mut args = Args::default();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if let Some(key) = a.strip_prefix("--") {
            if let Some((key, value)) = key.split_once('=') {
                args.options.insert(key.to_string(), value.to_string());
                i += 1;
                continue;
            }
            let next_is_value = raw
                .get(i + 1)
                .map(|v| !v.starts_with("--"))
                .unwrap_or(false);
            if next_is_value {
                args.options.insert(key.to_string(), raw[i + 1].clone());
                i += 2;
            } else {
                args.options.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            args.positional.push(a.clone());
            i += 1;
        }
    }
    args
}

impl Args {
    /// `--key` parsed as `T` (`None` when absent); a malformed value is
    /// a usage error that names the `expected` form.
    fn get_parsed<T: FromStr>(&self, key: &str, expected: &str) -> Result<Option<T>, CliFailure> {
        self.options
            .get(key)
            .map(|v| {
                v.parse().map_err(|_| {
                    CliFailure::usage(format!("--{key} expects {expected}, got {v:?}"))
                })
            })
            .transpose()
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, CliFailure> {
        Ok(self.get_parsed(key, "a number")?.unwrap_or(default))
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, CliFailure> {
        Ok(self
            .get_parsed(key, "a non-negative integer")?
            .unwrap_or(default))
    }

    fn get_flag(&self, key: &str) -> bool {
        self.options.get(key).map(|v| v == "true").unwrap_or(false)
    }

    /// Fail with a usage error on any option outside `allowed` and the
    /// shared globals.
    fn reject_unknown(&self, cmd: &str, allowed: &[&str]) -> Result<(), CliFailure> {
        match self.options.keys().find(|k| {
            !allowed.contains(&k.as_str())
                && !ENV_FLAGS.iter().any(|(flag, _, _)| flag == k)
                && k.as_str() != "out"
        }) {
            Some(key) => Err(CliFailure::usage(format!(
                "{cmd}: unknown option --{key}\n{HELP}"
            ))),
            None => Ok(()),
        }
    }

    /// The `--only a,b,...` figure selection, every name checked against
    /// the registry (`None` = the whole registry).
    fn only_figures(&self) -> Result<Option<Vec<String>>, CliFailure> {
        let Some(list) = self.options.get("only") else {
            return Ok(None);
        };
        let names: Vec<String> = list.split(',').map(str::to_string).collect();
        match names.iter().find(|n| manifest::find(n).is_none()) {
            Some(name) => Err(CliFailure::usage(format!(
                "unknown figure {name:?}; `opm figures --list` prints the registry"
            ))),
            None => Ok(Some(names)),
        }
    }
}

/// Parse a configuration label (as printed by `OpmConfig::label`).
pub fn parse_config(label: &str) -> Option<OpmConfig> {
    OpmConfig::broadwell_modes()
        .into_iter()
        .chain(OpmConfig::knl_modes())
        .find(|c| c.label() == label)
}

/// Parse a kernel name (case-insensitive).
pub fn parse_kernel(name: &str) -> Option<KernelId> {
    KernelId::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

/// Default TCP port of `opm serve`.
pub const DEFAULT_SERVE_PORT: u16 = 7979;

/// A CLI failure carrying its process exit code: `2` for usage or
/// configuration errors, `1` for runtime failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliFailure {
    /// Process exit code (1 or 2).
    pub code: i32,
    /// Message for stderr.
    pub message: String,
}

impl CliFailure {
    fn usage(message: impl Into<String>) -> CliFailure {
        CliFailure {
            code: 2,
            message: message.into(),
        }
    }
}

/// Plain-string errors from the evaluation and I/O layers are runtime
/// failures (exit 1).
impl From<String> for CliFailure {
    fn from(message: String) -> CliFailure {
        CliFailure { code: 1, message }
    }
}

impl From<&str> for CliFailure {
    fn from(message: &str) -> CliFailure {
        CliFailure::from(message.to_string())
    }
}

/// Engine flags shared by every subcommand and the `OPM_*` variable each
/// one sets: `(flag, variable, value of the bare flag)`. Value-less
/// switches carry the value they set; the rest take the flag's value.
const ENV_FLAGS: &[(&str, &str, Option<&str>)] = &[
    ("telemetry", "OPM_TELEMETRY", None),
    ("reduced", "OPM_REDUCED", Some("1")),
    ("fault-spec", "OPM_FAULT_SPEC", None),
    ("max-retries", "OPM_MAX_RETRIES", None),
];

/// Apply the shared globals ([`ENV_FLAGS`] and `--out`) to the process
/// environment — env stays the configuration source. The merged
/// configuration (flags over `OPM_*`), fault spec included, is validated
/// once before anything is set, so a bad value exits 2 before any work
/// starts. `loadgen` reads `--out` as its output file; for everything
/// else `--out` selects the results directory.
fn apply_globals(args: &Args, cmd: &str) -> Result<(), CliFailure> {
    let mut overrides: Vec<(&str, String)> = Vec::new();
    for &(flag, var, switch) in ENV_FLAGS {
        match (args.options.get(flag), switch) {
            (Some(v), Some(on)) if v == "true" => overrides.push((var, on.to_string())),
            (Some(v), None) => overrides.push((var, v.clone())),
            _ => {}
        }
    }
    if let Some(out) = args.options.get("out") {
        // loadgen treats --out as an output *file*.
        if cmd != "loadgen" && out != "true" {
            overrides.push(("OPM_RESULTS", out.clone()));
        }
    }
    let cfg = opm_core::config::Config::from_lookup(|name| {
        match overrides.iter().find(|(var, _)| *var == name) {
            Some((_, v)) => Some(v.clone()),
            None => std::env::var(name).ok(),
        }
    })
    .map_err(|e| CliFailure::usage(e.to_string()))?;
    if let Some(spec) = &cfg.fault_spec {
        opm_kernels::FaultPlan::parse(spec)
            .map_err(|e| CliFailure::usage(format!("fault spec {spec:?}: {e}")))?;
    }
    for (var, value) in overrides {
        std::env::set_var(var, value);
    }
    Ok(())
}

/// Run the CLI; returns the text to print, or a failure with its exit
/// code. This is the `opm` binary's entry point.
pub fn dispatch(raw: &[String]) -> Result<String, CliFailure> {
    let args = parse_args(raw);
    let cmd = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    apply_globals(&args, cmd)?;
    match cmd {
        "figures" => cmd_figures(&args),
        "study" => cmd_study(&args),
        "report" => cmd_report(),
        "model" => cmd_model(&args),
        "recommend" => cmd_recommend(&args),
        "stepping" => cmd_stepping(&args),
        "corpus" => cmd_corpus(&args),
        "top" => cmd_top(&args),
        "serve" => cmd_serve(&args),
        "advise" => cmd_advise(&args),
        "loadgen" => cmd_loadgen(&args),
        "help" | "--help" => Ok(HELP.to_string()),
        other => Err(CliFailure::usage(format!(
            "unknown subcommand '{other}'\n{HELP}"
        ))),
    }
}

/// [`dispatch`] with the exit code flattened away (kept for tests and
/// embedders that only care about success/failure).
pub fn run(raw: &[String]) -> Result<String, String> {
    dispatch(raw).map_err(|f| f.message)
}

const HELP: &str = "\
opm — query the OPM reproduction models

GLOBAL OPTIONS (accepted by every subcommand; --key=value works too):
  --telemetry <mode>   off | summary | full (applies OPM_TELEMETRY)
  --reduced            reduced harness grids (applies OPM_REDUCED=1)
  --fault-spec <spec>  fault injection, e.g. panic@rate:0.1:seed:7
                       (applies OPM_FAULT_SPEC)
  --max-retries <n>    transient-failure retry budget (applies OPM_MAX_RETRIES)
  --out <path>         results directory (applies OPM_RESULTS); an output
                       *file* for loadgen

EXIT CODES:
  0  success
  1  runtime failure (evaluation, I/O)
  2  usage/configuration error (unknown subcommand, figure or study,
     malformed flag value or OPM_* environment value)

USAGE:
  opm figures [--only <a,b,...>] [--list]
      regenerate the paper's figures and tables in this process (--list
      prints the 27 names) plus run_manifest.csv and run_errors.csv. A
      failing figure is logged and the run goes on; the full campaign
      takes well under a second, so a crashed run is simply run again.
  opm study [<name>]
      run one validation, ablation or extension study, writing
      <name>*.csv; with no name, list the studies.
  opm report
      render the results directory's CSVs into REPORT.md (ASCII charts,
      heat maps and the summary tables). Run `opm figures` first.
  opm model --kernel <name> --config <label> [kernel options]
      kernels: GEMM Cholesky SpMV SpTRANS SpTRSV FFT Stencil Stream
      configs: brd-no-edram brd-edram knl-ddr knl-flat knl-cache knl-hybrid
      options: --n --tile --rows --nnz --span --levels --grid --footprint-mb --threads
  opm serve [--addr <host:port>] [--max-inflight <n>]
      run the mode advisor as an opm-api/v1 daemon (length-prefixed JSON
      frames over TCP; default 127.0.0.1:7979). Prints \"opm serve
      listening on <addr>\" once ready; answers batched what-if queries,
      building each query's profile in place; requests beyond
      --max-inflight are load-shed with a typed `overloaded` response. A
      request with \"shutdown\": true drains the daemon.
  opm advise (--kernel <name> --config <label> [kernel options]
             [--hot-mb <f>] [--latency-bound <bool>] [--id <n>]
             | --request <json>) [--addr <host:port>]
      one-shot advisor query; prints the canonical opm-api/v1 response
      document — byte-identical to the daemon's answer for the same
      request. --request sends a raw request document; --addr forwards
      to a live daemon instead of answering in-process.
  opm loadgen [--addr <host:port>] [--requests <n>] [--concurrency <n>]
             [--batch <n>] [--rate <req/s>] [--shutdown] [--out <path>]
      drive a daemon with closed-loop (default) or open-loop (--rate)
      load over a deterministic kernel×config query mix and write
      BENCH_serve.json (schema opm-bench-serve/v1: throughput and
      p50/p95/p99 latency). --shutdown tears the daemon down after.
  opm recommend --footprint-gib <f> [--hot-gib <f>] [--latency-bound]
  opm stepping --config <label> [--ai <f>] [--samples <n>]
  opm corpus [--count <n>] [--index <i>]
  opm corpus --dir <path>
      load every .mtx under <path>; unparseable files are quarantined to
      results/quarantine_manifest.csv (with the parse reason) instead of
      aborting the sweep. OPM_FAULT_SPEC=io@matrix:<stem> injects load
      faults for testing.
  opm top [--dir <path>] [--run <id>] [--follow] [--interval-ms <n>]
      inspect a figure run from its telemetry trace (newest .jsonl
      under results/telemetry by default; run `opm figures
      --telemetry full` to produce one). --follow re-renders every
      --interval-ms (default 500) until the run_end marker appears.
";

/// Build one `opm-api/v1` query from `--kernel`/`--config` plus the
/// kernel parameter flags (shared by `opm advise` and `opm model`).
/// Sizes parse as non-negative integers and the rest as numbers; a
/// malformed value is a usage error. Zero sizes and non-positive numbers
/// are left for the query's own validation to reject.
pub fn query_from_args(args: &Args, cmd: &str) -> Result<opm_core::api::Query, CliFailure> {
    let kernel = args
        .options
        .get("kernel")
        .ok_or(format!("{cmd} requires --kernel"))?
        .clone();
    let config = args
        .options
        .get("config")
        .ok_or(format!("{cmd} requires --config"))?
        .clone();
    let u = |key: &str| args.get_parsed::<u64>(key, "a non-negative integer");
    let f = |key: &str| args.get_parsed::<f64>(key, "a number");
    Ok(opm_core::api::Query {
        kernel,
        config,
        n: u("n")?,
        tile: u("tile")?,
        rows: u("rows")?,
        nnz: u("nnz")?,
        grid: u("grid")?,
        threads: u("query-threads")?.or(u("threads")?),
        span: f("span")?,
        levels: f("levels")?,
        footprint_mb: f("footprint-mb")?,
        hot_mb: f("hot-mb")?,
        latency_bound: if args.options.contains_key("latency-bound") {
            Some(args.get_flag("latency-bound"))
        } else {
            None
        },
    })
}

/// `opm advise`: the one-shot advisor. Prints the canonical
/// `opm-api/v1` response document — byte-identical to what a daemon
/// returns for the same request, because both run [`crate::serve::respond`].
/// With `--addr`, forwards the request to a live daemon instead and
/// prints its bytes (a byte-identity probe).
fn cmd_advise(args: &Args) -> Result<String, CliFailure> {
    let req = match args.options.get("request") {
        Some(raw) => {
            Request::parse(raw).map_err(|e| format!("advise: bad --request document: {e}"))?
        }
        None => Request {
            id: args.get_usize("id", 0)? as u64,
            queries: vec![query_from_args(args, "advise")?],
            shutdown: false,
        },
    };
    match args.options.get("addr") {
        Some(addr) => Ok(crate::serve::Client::connect(addr)
            .map_err(|e| format!("advise: connecting {addr}: {e}"))?
            .roundtrip_raw(&req.render())?),
        None => Ok(crate::serve::respond(opm_kernels::Engine::global(), &req).render()),
    }
}

/// `opm serve`: bind the advisor daemon and serve until a shutdown
/// request drains (see [`crate::serve`]).
fn cmd_serve(args: &Args) -> Result<String, CliFailure> {
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| format!("127.0.0.1:{DEFAULT_SERVE_PORT}"));
    let max_inflight = args.get_usize("max-inflight", crate::serve::DEFAULT_MAX_INFLIGHT)?;
    let cfg = opm_core::config::Config::from_env().map_err(|e| e.to_string())?;
    let tele = opm_core::telemetry::Telemetry::new(cfg.telemetry);
    let run = crate::telemetry::init(&tele);
    let engine_cfg =
        opm_kernels::engine::EngineConfig::from_config(&cfg).with_telemetry(tele.clone());
    let engine = std::sync::Arc::new(opm_kernels::Engine::new(engine_cfg));
    let server = crate::serve::Server::bind(&addr, engine, max_inflight)
        .map_err(|e| format!("serve: binding {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("serve: local_addr: {e}"))?;
    // The readiness line clients and the CI smoke job wait for.
    println!("opm serve listening on {bound} (max-inflight {max_inflight})");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    if let Some(run) = run {
        run.finish();
    }
    Ok(format!(
        "served {} requests ({} queries) over {} connections; {} shed, {} malformed",
        stats.requests, stats.queries, stats.connections, stats.shed, stats.malformed
    ))
}

/// `opm loadgen`: drive a daemon and write `BENCH_serve.json` (see
/// [`crate::loadgen`]).
fn cmd_loadgen(args: &Args) -> Result<String, CliFailure> {
    args.reject_unknown(
        "loadgen",
        &[
            "addr",
            "requests",
            "concurrency",
            "batch",
            "rate",
            "shutdown",
        ],
    )?;
    let defaults = crate::loadgen::LoadgenOptions::default();
    let out = match args.options.get("out") {
        Some(v) if v == "true" => return Err("loadgen: --out needs a path".into()),
        Some(v) => Some(std::path::PathBuf::from(v)),
        None => defaults.out.clone(),
    };
    let opts = crate::loadgen::LoadgenOptions {
        addr: args
            .options
            .get("addr")
            .cloned()
            .unwrap_or(defaults.addr.clone()),
        requests: args.get_usize("requests", defaults.requests)?,
        concurrency: args.get_usize("concurrency", defaults.concurrency)?,
        batch: args.get_usize("batch", defaults.batch)?,
        rate: args.get_parsed("rate", "a number")?,
        shutdown: args.get_flag("shutdown"),
        out,
    };
    let report = crate::loadgen::run_loadgen(&opts)?;
    let mut text = report.summary();
    if let Some(out) = &opts.out {
        text.push_str(&format!("\nwrote {}", out.display()));
    }
    Ok(text)
}

/// `opm figures`: regenerate the selected figures (the whole registry
/// by default) in this process (see [`manifest::run_and_write`]).
fn cmd_figures(args: &Args) -> Result<String, CliFailure> {
    args.reject_unknown("figures", &["only", "list"])?;
    if args.get_flag("list") {
        let names: Vec<&str> = manifest::ALL_FIGURES.iter().map(|f| f.name).collect();
        return Ok(names.join("\n"));
    }
    manifest::run_and_write(args.only_figures()?.as_deref());
    Ok(String::new())
}

/// `opm study <name>`: run one study of [`crate::extensions::STUDIES`];
/// with no name, list them.
fn cmd_study(args: &Args) -> Result<String, CliFailure> {
    let names: Vec<&str> = crate::extensions::STUDIES.iter().map(|s| s.0).collect();
    let Some(name) = args.positional.get(1) else {
        return Ok(names.join("\n"));
    };
    let (_, run) = crate::extensions::STUDIES
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| {
            CliFailure::usage(format!(
                "unknown study {name:?}; studies: {}",
                names.join(", ")
            ))
        })?;
    run();
    Ok(String::new())
}

/// `opm report`: render the results directory into `REPORT.md` (see
/// [`crate::plot::write_report`]).
fn cmd_report() -> Result<String, CliFailure> {
    let path = crate::plot::write_report(&crate::out_dir())?;
    Ok(format!("wrote {}", path.display()))
}

/// `opm model`: evaluate one kernel configuration. The query resolves
/// through the advisor's path ([`crate::serve::query_profile`]), so the
/// defaults and the checks on every size are the daemon's.
fn cmd_model(args: &Args) -> Result<String, CliFailure> {
    let query = query_from_args(args, "model")?;
    let (kernel, config, prof) = crate::serve::query_profile(&query)
        .map_err(|e| CliFailure::usage(format!("model: {e}")))?;
    let machine = config.machine();
    let est = PerfModel::for_config(config).evaluate(&prof);
    let power = PowerModel::for_machine(machine).sample(
        &est,
        config,
        prof.total_flops(),
        prof.total_bytes(),
    );
    Ok(format!(
        "{} on {} ({})\n\
         footprint        {:.1} MB\n\
         modeled time     {:.3} ms\n\
         throughput       {:.1} GFlop/s ({:.1} GB/s effective)\n\
         compute/memory   {:.2} ms / {:.2} ms\n\
         DRAM traffic     {:.1} MB   OPM traffic {:.1} MB\n\
         package power    {:.1} W    DRAM power  {:.1} W",
        kernel.name(),
        PlatformSpec::for_machine(machine).name,
        config.label(),
        prof.footprint / MIB,
        est.time_ns / 1e6,
        est.gflops,
        est.bandwidth_gbs,
        est.compute_ns / 1e6,
        est.memory_ns / 1e6,
        est.dram_bytes / MIB,
        est.opm_bytes / MIB,
        power.package_w,
        power.dram_w,
    ))
}

fn cmd_recommend(args: &Args) -> Result<String, CliFailure> {
    let fp = args
        .get_parsed("footprint-gib", "a number")?
        .ok_or("recommend requires --footprint-gib")?;
    let hot = args.get_f64("hot-gib", fp)?;
    let w = Workload {
        footprint: fp * GIB,
        hot_set: hot * GIB,
        latency_bound: args.get_flag("latency-bound"),
    };
    Ok(format!(
        "recommended MCDRAM mode: {:?}\n{}",
        recommend_mcdram(&w),
        explain_mcdram(&w)
    ))
}

fn cmd_stepping(args: &Args) -> Result<String, CliFailure> {
    let config = parse_config(
        args.options
            .get("config")
            .ok_or("stepping requires --config")?,
    )
    .ok_or("unknown config label")?;
    let mut kernel = SweepKernel::default();
    kernel.ai = args.get_f64("ai", kernel.ai)?;
    if config.machine() == Machine::Knl {
        kernel.threads = 256;
    }
    let samples = args.get_usize("samples", 32)?;
    let (lo, hi) = match config.machine() {
        Machine::Broadwell => (256.0 * 1024.0, 8.0 * GIB),
        Machine::Knl => (1.0 * MIB, 64.0 * GIB),
    };
    let curve = stepping_curve(config, kernel, lo, hi, samples);
    let mut out = String::from("footprint_mb,gflops\n");
    for (fp, g) in &curve.points {
        out.push_str(&format!("{:.3},{:.3}\n", fp / MIB, g));
    }
    Ok(out)
}

fn cmd_corpus(args: &Args) -> Result<String, CliFailure> {
    if let Some(dir) = args.options.get("dir") {
        return Ok(cmd_corpus_dir(std::path::Path::new(dir))?);
    }
    let count = args.get_usize("count", 10)?;
    let specs = opm_sparse::corpus(count);
    match args.get_parsed::<usize>("index", "a non-negative integer")? {
        Some(i) => {
            let spec = specs.get(i).ok_or("index out of range")?;
            let est = spec.estimate();
            Ok(format!(
                "corpus[{i}]: {} rows={} nnz~{} span~{:.0} levels~{:.0}",
                spec.kind.label(),
                est.rows,
                est.nnz,
                est.avg_col_span,
                est.levels
            ))
        }
        None => {
            let mut out = String::from("index,kind,rows,nnz,span,levels\n");
            for (i, spec) in specs.iter().enumerate() {
                let est = spec.estimate();
                out.push_str(&format!(
                    "{i},{},{},{},{:.0},{:.0}\n",
                    spec.kind.label(),
                    est.rows,
                    est.nnz,
                    est.avg_col_span,
                    est.levels
                ));
            }
            Ok(out)
        }
    }
}

/// `opm top`: render the run dashboard from a telemetry JSONL trace
/// (see [`crate::top`]). `--follow` polls until the run finishes.
fn cmd_top(args: &Args) -> Result<String, CliFailure> {
    args.reject_unknown("top", &["dir", "run", "follow", "interval-ms"])?;
    let follow = args.get_flag("follow");
    let interval = args.get_usize("interval-ms", 500)?.max(50) as u64;
    let dir = args
        .options
        .get("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(crate::telemetry::telemetry_dir);
    let path = match args.options.get("run") {
        Some(id) => dir.join(format!("{id}.jsonl")),
        None => crate::top::latest_trace(&dir)
            .ok_or_else(|| format!("no .jsonl traces under {}", dir.display()))?,
    };
    loop {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let snap = crate::top::parse_trace(&text);
        if !follow || snap.finished {
            return Ok(format!(
                "trace {}\n{}",
                path.display(),
                crate::top::render(&snap)
            ));
        }
        // Live mode: repaint in place, then poll again.
        print!("\x1b[2J\x1b[H{}", crate::top::render(&snap));
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_millis(interval));
    }
}

/// `opm corpus --dir <path>`: quarantining directory load (see
/// [`crate::corpus`]).
fn cmd_corpus_dir(dir: &std::path::Path) -> Result<String, String> {
    let engine = opm_kernels::Engine::global();
    let load = crate::corpus::load_corpus_dir(engine, dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let manifest = load
        .write_manifest()
        .map_err(|e| format!("writing quarantine manifest: {e}"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "loaded {} matrices, quarantined {} (manifest: {})\n",
        load.loaded.len(),
        load.quarantined.len(),
        manifest.display(),
    ));
    for (stem, m) in &load.loaded {
        out.push_str(&format!(
            "  ok   {stem}: {}x{} nnz={}\n",
            m.rows,
            m.cols,
            m.nnz()
        ));
    }
    for q in &load.quarantined {
        out.push_str(&format!(
            "  QUAR {} ({} attempt(s)): {}\n",
            q.path.display(),
            q.attempts,
            q.reason
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> Result<String, String> {
        run(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// The process exit code `opm <cmd>` would end with.
    fn exit_code(cmd: &str) -> i32 {
        match dispatch(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>()) {
            Ok(_) => 0,
            Err(f) => f.code,
        }
    }

    #[test]
    fn parse_args_handles_flags_and_values() {
        let a = parse_args(&[
            "model".into(),
            "--kernel".into(),
            "gemm".into(),
            "--latency-bound".into(),
            "--telemetry=full".into(),
        ]);
        assert_eq!(a.positional, vec!["model"]);
        assert_eq!(a.options.get("kernel").unwrap(), "gemm");
        assert!(a.get_flag("latency-bound"));
        assert_eq!(a.options.get("telemetry").unwrap(), "full");
    }

    #[test]
    fn model_command_reports_throughput() {
        let out = run_str("model --kernel gemm --config brd-edram --n 8192 --tile 384").unwrap();
        assert!(out.contains("GFlop/s"), "{out}");
        assert!(out.contains("Broadwell"));
    }

    #[test]
    fn model_requires_kernel_and_config() {
        assert!(run_str("model --config brd-edram").is_err());
        assert!(run_str("model --kernel gemm").is_err());
        assert!(run_str("model --kernel gemm --config nope").is_err());
        // Malformed, negative, fractional and zero sizes are usage
        // errors (exit 2), never a panic in a profile builder.
        for bad in [
            "--n abc",
            "--n -5",
            "--n 1.5",
            "--n 0",
            "--tile 0",
            "--span -1",
            "--nnz 0",
        ] {
            let cmd = format!("model --kernel GEMM --config knl-flat {bad}");
            assert_eq!(exit_code(&cmd), 2, "{cmd}");
        }
        assert_eq!(
            exit_code("model --kernel Stream --config knl-flat --footprint-mb x"),
            2
        );
        assert_eq!(
            exit_code("model --kernel GEMM --config knl-flat --n 1024"),
            0
        );
    }

    #[test]
    fn bad_fault_spec_stops_a_run_before_any_figure_starts() {
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("opm_cli_fault_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let before = std::env::var_os("OPM_FAULT_SPEC");
        for spec in ["bogus@@", "kill@point:1"] {
            let cmd = format!(
                "figures --fault-spec {spec} --only fig06_stepping_model --out {}",
                dir.display()
            );
            assert_eq!(exit_code(&cmd), 2, "{cmd}");
            assert!(!dir.exists(), "{cmd}: no figure may run");
            // The rejected flag never reached the environment.
            assert_eq!(std::env::var_os("OPM_FAULT_SPEC"), before);
        }
    }

    #[test]
    fn retired_campaign_commands_and_flags_are_usage_errors() {
        for cmd in [
            "campaign --shards 2",
            "merge-shards",
            "figures --resume",
            "figures --shard 0/1",
            "top --campaign x",
        ] {
            assert_eq!(exit_code(cmd), 2, "{cmd}");
        }
    }

    #[test]
    fn recommend_command() {
        let out = run_str("recommend --footprint-gib 40 --hot-gib 4").unwrap();
        assert!(out.contains("Hybrid"), "{out}");
        let out = run_str("recommend --footprint-gib 8 --latency-bound").unwrap();
        assert!(out.contains("Off"), "{out}");
    }

    #[test]
    fn stepping_command_emits_csv() {
        let out = run_str("stepping --config knl-flat --samples 8").unwrap();
        assert_eq!(out.lines().count(), 9);
        assert!(out.starts_with("footprint_mb,gflops"));
    }

    #[test]
    fn corpus_command_lists_and_indexes() {
        let out = run_str("corpus --count 5").unwrap();
        assert_eq!(out.lines().count(), 6);
        let one = run_str("corpus --count 5 --index 2").unwrap();
        assert!(one.contains("corpus[2]"));
        assert!(run_str("corpus --count 5 --index 9").is_err());
    }

    #[test]
    fn corpus_dir_quarantines_and_reports() {
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("opm_cli_corpus_{}", std::process::id()));
        let results = dir.join("results");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("good.mtx"),
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n",
        )
        .unwrap();
        std::fs::write(dir.join("bad.mtx"), "not a matrix at all\n").unwrap();
        std::env::set_var("OPM_RESULTS", &results);
        let out = run_str(&format!("corpus --dir {}", dir.display())).unwrap();
        std::env::remove_var("OPM_RESULTS");
        assert!(out.contains("loaded 1 matrices, quarantined 1"), "{out}");
        assert!(out.contains("ok   good"), "{out}");
        assert!(out.contains("QUAR"), "{out}");
        assert!(results.join("quarantine_manifest.csv").exists());
        assert!(run_str("corpus --dir /nonexistent/dir").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn top_command_renders_a_trace() {
        let dir = std::env::temp_dir().join(format!("opm_cli_top_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(run_str(&format!("top --dir {}", dir.display())).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("ci.jsonl"),
            concat!(
                "{\"name\":\"run_start\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{\"run\":\"ci\",\"mode\":\"full\"}}\n",
                "{\"name\":\"fig12_stream_broadwell\",\"cat\":\"figure\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1,\"args\":{\"path\":\"fig12_stream_broadwell\"}}\n",
                "{\"name\":\"fig12_stream_broadwell\",\"cat\":\"figure\",\"ph\":\"E\",\"ts\":90,\"pid\":1,\"tid\":1,\"args\":{\"path\":\"fig12_stream_broadwell\",\"status\":\"ok\",\"points\":\"42\",\"failures\":\"0\"}}\n",
                "{\"name\":\"run_end\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":100,\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{}}\n",
            ),
        )
        .unwrap();
        let out = run_str(&format!("top --dir {}", dir.display())).unwrap();
        assert!(out.contains("run ci (telemetry full) — finished"), "{out}");
        assert!(out.contains("figures: 1 done / 1 seen, 0 failed"), "{out}");
        // --follow terminates immediately on a finished trace.
        let followed = run_str(&format!("top --dir {} --run ci --follow", dir.display())).unwrap();
        assert!(followed.contains("finished"), "{followed}");
        assert!(run_str(&format!("top --dir {} --run missing", dir.display())).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_str("help").unwrap().contains("USAGE"));
        assert_eq!(exit_code("frobnicate"), 2);
        assert_eq!(exit_code("figures --only bogus"), 2);
        assert_eq!(exit_code("figures --bogus"), 2);
        assert_eq!(exit_code("study bogus"), 2);
        let listed = run_str("figures --list").unwrap();
        assert_eq!(listed.lines().count(), 27);
        assert_eq!(listed.lines().next(), Some("fig01_gemm_pdf"));
        let studies = run_str("study").unwrap();
        assert_eq!(
            studies.lines().count(),
            crate::extensions::STUDIES.len(),
            "{studies}"
        );
    }

    #[test]
    fn retired_engine_flags_are_unknown_and_stray_variables_ignored() {
        // The engine has no pool and no profile memo: the old switches
        // are unknown flags now.
        assert_eq!(exit_code("figures --threads 2 --list"), 2);
        assert_eq!(exit_code("figures --no-cache --list"), 2);
        // `--threads` stays a query field of the advisor.
        let by_flag = run_str("advise --kernel GEMM --config knl-flat --threads 8").unwrap();
        let by_field = run_str("advise --kernel GEMM --config knl-flat --query-threads 8").unwrap();
        assert_eq!(by_flag, by_field);
        let default = run_str("advise --kernel GEMM --config knl-flat").unwrap();
        assert_ne!(by_flag, default, "the thread count reaches the query");
        // Leftover variables from old scripts, even malformed ones,
        // change nothing.
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let retired = [
            "OPM_THREADS",
            "OPM_PROFILE_CACHE",
            "OPM_CACHE_SHARDS",
            "OPM_CACHE_CAP",
        ];
        for var in retired {
            std::env::set_var(var, "bogus");
        }
        let listed = exit_code("figures --list");
        let advised = run_str("advise --kernel GEMM --config knl-flat");
        for var in retired {
            std::env::remove_var(var);
        }
        assert_eq!(listed, 0);
        assert_eq!(advised.unwrap(), default);
    }

    #[test]
    fn every_kernel_and_config_parses() {
        for k in KernelId::ALL {
            assert_eq!(parse_kernel(k.name()), Some(k));
        }
        for c in OpmConfig::broadwell_modes()
            .into_iter()
            .chain(OpmConfig::knl_modes())
        {
            assert_eq!(parse_config(c.label()), Some(c));
        }
        assert_eq!(parse_kernel("nope"), None);
    }

    #[test]
    fn model_runs_for_every_kernel_on_both_machines() {
        for k in KernelId::ALL {
            for cfg in ["brd-edram", "knl-flat"] {
                let cmd = format!("model --kernel {} --config {cfg}", k.name());
                let out = run_str(&cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
                assert!(out.contains("GFlop/s"));
            }
        }
    }
}
