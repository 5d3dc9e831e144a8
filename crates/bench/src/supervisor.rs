//! The campaign supervisor: spawns one `opm figures --shard i/N` process per
//! shard, watches their heartbeat files, and restarts crashed or hung
//! workers from their checkpoints with bounded exponential backoff.
//!
//! The supervision contract is deliberately narrow so its behaviour is
//! testable under injected faults:
//!
//! - A worker that **exits nonzero** (including being SIGKILLed, or an
//!   injected `kill@…` fault calling `exit(137)`) is restarted with
//!   `--resume` and `OPM_SHARD_ATTEMPT` incremented.
//! - A worker whose **heartbeat file goes stale** for longer than the
//!   watchdog timeout is presumed hung (an injected `hang@…` fault
//!   wedges an evaluation thread while the heartbeat thread goes
//!   silent), killed, and restarted the same way.
//! - After `max_restarts` restarts a shard is **quarantined**: the
//!   supervisor stops restarting it, records a structured row in the
//!   `run_errors.csv` schema (stage `shard/<label>`), and the campaign
//!   as a whole reports failure.
//!
//! Restart counts and quarantines are exported as
//! `opm_shard_restarts_total` / `opm_shard_quarantined_total` in
//! `shards/supervisor.prom`, which `opm merge-shards` folds into the
//! campaign's `metrics.prom`. Because shard workers checkpoint through
//! the sealed journals in [`crate::checkpoint`] and resume skips only
//! figures whose journal proves completion, a campaign that loses
//! workers mid-run still converges to output byte-identical to a
//! fault-free single-process run.

use crate::shard::{self, ShardSpec};
use opm_core::report::{atomic_write, RecordTable};
use opm_core::telemetry::{render_prom, CounterSnapshot, PromDump};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Options for [`run_campaign`] (the `opm campaign` subcommand).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of shard worker processes.
    pub shards: usize,
    /// Figure selection (`None` = the full registry).
    pub figures: Option<Vec<String>>,
    /// Pass `--resume` to the first spawn of every worker (restarts
    /// always resume regardless).
    pub resume: bool,
    /// Campaign output directory; shard state lives in `<dir>/shards/`.
    pub dir: PathBuf,
    /// Heartbeat staleness threshold before a worker is presumed hung.
    pub watchdog: Duration,
    /// Heartbeat interval handed to workers via `OPM_HEARTBEAT_MS`.
    pub heartbeat_ms: u64,
    /// Restarts allowed per shard before quarantine.
    pub max_restarts: usize,
    /// Base of the exponential restart backoff (doubles per restart).
    pub backoff_base: Duration,
    /// Merge shard outputs into `dir` after the run (`opm merge-shards`).
    pub merge: bool,
    /// Worker executable; defaults to `OPM_WORKER_EXE` or the current
    /// executable (the `opm` binary re-invoked as `figures --shard i/N`).
    pub worker_exe: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            shards: 2,
            figures: None,
            resume: false,
            dir: crate::out_dir(),
            watchdog: Duration::from_millis(5_000),
            heartbeat_ms: shard::DEFAULT_HEARTBEAT_MS,
            max_restarts: 3,
            backoff_base: Duration::from_millis(250),
            merge: true,
            worker_exe: None,
        }
    }
}

/// Why a worker incarnation was declared failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureKind {
    /// Process exited nonzero or died to a signal.
    Kill,
    /// Heartbeat stale beyond the watchdog; worker killed by us.
    Hang,
}

impl FailureKind {
    fn label(self) -> &'static str {
        match self {
            FailureKind::Kill => "kill",
            FailureKind::Hang => "hang",
        }
    }
}

enum WorkerState {
    Running { child: Child },
    Backoff { until: Instant },
    Done,
    Quarantined,
}

impl WorkerState {
    fn label(&self) -> &'static str {
        match self {
            WorkerState::Running { .. } => "running",
            WorkerState::Backoff { .. } => "backoff",
            WorkerState::Done => "done",
            WorkerState::Quarantined => "quarantined",
        }
    }
}

struct Worker {
    spec: ShardSpec,
    state: WorkerState,
    /// Restart generation, exported as `OPM_SHARD_ATTEMPT` (0 = first run).
    attempt: usize,
    restarts: usize,
    hb_seen: String,
    hb_changed: Instant,
    /// Structured quarantine row in the `run_errors.csv` schema.
    error: Option<[String; 7]>,
}

/// Resolve the worker executable: explicit option, then
/// `OPM_WORKER_EXE`, then the running binary itself.
fn worker_exe(opts: &CampaignOptions) -> Result<PathBuf, String> {
    if let Some(exe) = &opts.worker_exe {
        return Ok(exe.clone());
    }
    if let Ok(exe) = std::env::var("OPM_WORKER_EXE") {
        return Ok(PathBuf::from(exe));
    }
    std::env::current_exe().map_err(|e| format!("cannot locate worker executable: {e}"))
}

/// Spawn (or respawn) one shard worker process, wiring its results
/// dir, heartbeat, and restart generation through the environment and
/// appending its stdout/stderr to the shard log.
fn spawn_worker(opts: &CampaignOptions, exe: &PathBuf, w: &mut Worker) -> Result<(), String> {
    let spec = w.spec;
    let results = shard::shard_results_dir(&opts.dir, spec);
    let hb = shard::heartbeat_path(&opts.dir, spec);
    std::fs::create_dir_all(&results)
        .map_err(|e| format!("creating {}: {e}", results.display()))?;
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(shard::worker_log_path(&opts.dir, spec))
        .map_err(|e| format!("opening shard {spec} log: {e}"))?;
    let log_err = log
        .try_clone()
        .map_err(|e| format!("shard {spec} log: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("figures")
        .arg("--shard")
        .arg(spec.to_string())
        .env("OPM_RESULTS", &results)
        .env("OPM_HEARTBEAT", &hb)
        .env("OPM_HEARTBEAT_MS", opts.heartbeat_ms.to_string())
        .env("OPM_SHARD", spec.index.to_string())
        .env("OPM_SHARD_ATTEMPT", w.attempt.to_string())
        .env("OPM_RUN_ID", format!("shard-{}", spec.label()))
        .stdin(Stdio::null())
        .stdout(Stdio::from(log))
        .stderr(Stdio::from(log_err));
    // Campaigns observe by default: workers run with full telemetry
    // unless the caller pinned a mode, so every campaign leaves traces,
    // flight recorders, and mergeable histograms behind.
    if std::env::var_os("OPM_TELEMETRY").is_none() {
        cmd.env("OPM_TELEMETRY", "full");
    }
    if let Some(figures) = &opts.figures {
        cmd.arg("--only").arg(figures.join(","));
    }
    if opts.resume || w.attempt > 0 {
        cmd.arg("--resume");
    }
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawning shard {spec} worker: {e}"))?;
    eprintln!(
        "supervisor: shard {spec} attempt {} running as pid {}",
        w.attempt,
        child.id()
    );
    w.state = WorkerState::Running { child };
    w.hb_changed = Instant::now();
    Ok(())
}

/// Declare the current incarnation of `w` failed: restart with backoff
/// if the budget allows, quarantine otherwise.
fn fail_worker(opts: &CampaignOptions, w: &mut Worker, kind: FailureKind, message: String) {
    if w.restarts < opts.max_restarts {
        w.restarts += 1;
        w.attempt = w.restarts;
        let backoff = opts.backoff_base * 2u32.saturating_pow(w.restarts as u32 - 1);
        eprintln!(
            "supervisor: shard {} {} ({message}); restart {}/{} in {backoff:?}",
            w.spec,
            kind.label(),
            w.restarts,
            opts.max_restarts
        );
        w.state = WorkerState::Backoff {
            until: Instant::now() + backoff,
        };
    } else {
        eprintln!(
            "supervisor: shard {} {} ({message}); restart budget exhausted — quarantined",
            w.spec,
            kind.label()
        );
        w.error = Some([
            format!("shard/{}", w.spec.label()),
            "-".to_string(),
            kind.label().to_string(),
            (w.restarts + 1).to_string(),
            "true".to_string(),
            "quarantined".to_string(),
            message,
        ]);
        w.state = WorkerState::Quarantined;
    }
}

/// Write `shards/supervisor.status`: one campaign line plus one line
/// per shard, consumed by `opm top --campaign`.
fn write_status(opts: &CampaignOptions, workers: &[Worker], finished: bool) {
    let mut out = format!(
        "campaign shards={} state={}\n",
        opts.shards,
        if finished { "finished" } else { "running" }
    );
    for w in workers {
        out.push_str(&format!(
            "shard {} state={} attempt={} restarts={}\n",
            w.spec.label(),
            w.state.label(),
            w.attempt,
            w.restarts
        ));
    }
    let path = shard::status_path(&opts.dir);
    if let Err(e) = atomic_write(&path, out.as_bytes()) {
        eprintln!("supervisor: writing {}: {e}", path.display());
    }
}

/// Write `shards/supervisor.prom` with per-shard restart/quarantine
/// counters (both series always present so assertions can read zeros).
fn write_prom(opts: &CampaignOptions, workers: &[Worker]) {
    let mut counters = Vec::new();
    for w in workers {
        counters.push(CounterSnapshot {
            metric: "opm_shard_restarts_total".to_string(),
            labels: format!("shard=\"{}\"", w.spec.label()),
            value: w.restarts as u64,
        });
    }
    for w in workers {
        counters.push(CounterSnapshot {
            metric: "opm_shard_quarantined_total".to_string(),
            labels: format!("shard=\"{}\"", w.spec.label()),
            value: matches!(w.state, WorkerState::Quarantined) as u64,
        });
    }
    let path = shard::supervisor_prom_path(&opts.dir);
    if let Err(e) = atomic_write(&path, render_prom(&counters).as_bytes()) {
        eprintln!("supervisor: writing {}: {e}", path.display());
    }
}

/// Write `shards/live.prom`: the live union of every worker's telemetry
/// snapshot (counters summed, gauges maxed, histogram buckets summed) —
/// a single scrape target for campaign-wide progress while workers are
/// still running. Best-effort: absent or torn snapshots are skipped.
fn write_live(opts: &CampaignOptions, workers: &[Worker]) {
    let mut live = PromDump::default();
    let mut merged_any = false;
    for w in workers {
        let snap = shard::snapshot_path(&opts.dir, w.spec);
        let Ok(text) = std::fs::read_to_string(&snap) else {
            continue;
        };
        match PromDump::parse(&text) {
            Ok(dump) => {
                live.merge(&dump);
                merged_any = true;
            }
            Err(e) => eprintln!("supervisor: parsing {}: {e}", snap.display()),
        }
    }
    if !merged_any {
        return;
    }
    let path = shard::shards_dir(&opts.dir).join("live.prom");
    if let Err(e) = atomic_write(&path, live.render().as_bytes()) {
        eprintln!("supervisor: writing {}: {e}", path.display());
    }
}

/// Write `shards/supervisor_errors.csv` (run_errors schema) with one
/// row per quarantined shard; header-only when none.
fn write_errors(opts: &CampaignOptions, workers: &[Worker]) {
    let mut t = RecordTable::new(vec![
        "stage",
        "point",
        "kind",
        "attempts",
        "transient",
        "outcome",
        "message",
    ]);
    for w in workers {
        if let Some(row) = &w.error {
            t.push(row.to_vec());
        }
    }
    if let Err(e) = t.write_csv(shard::shards_dir(&opts.dir), "supervisor_errors") {
        eprintln!("supervisor: writing supervisor_errors.csv: {e}");
    }
}

/// Run a sharded campaign to completion. Returns a human summary, or
/// `Err` when any shard was quarantined (so `opm` exits nonzero) or the
/// post-run merge failed.
pub fn run_campaign(opts: &CampaignOptions) -> Result<String, String> {
    if opts.shards == 0 {
        return Err("campaign: --shards must be >= 1".into());
    }
    if let Some(figures) = &opts.figures {
        for name in figures {
            if crate::manifest::find(name).is_none() {
                return Err(format!("unknown figure {name:?}"));
            }
        }
    }
    let exe = worker_exe(opts)?;
    std::fs::create_dir_all(shard::shards_dir(&opts.dir))
        .map_err(|e| format!("creating {}: {e}", shard::shards_dir(&opts.dir).display()))?;
    eprintln!(
        "supervisor: {} shard(s), watchdog {:?}, heartbeat {}ms, max {} restart(s), worker {}",
        opts.shards,
        opts.watchdog,
        opts.heartbeat_ms,
        opts.max_restarts,
        exe.display()
    );
    let mut workers: Vec<Worker> = (0..opts.shards)
        .map(|index| Worker {
            spec: ShardSpec {
                index,
                count: opts.shards,
            },
            state: WorkerState::Backoff {
                until: Instant::now(),
            },
            attempt: 0,
            restarts: 0,
            hb_seen: String::new(),
            hb_changed: Instant::now(),
            error: None,
        })
        .collect();

    let poll = Duration::from_millis((opts.heartbeat_ms / 2).clamp(20, 200));
    let mut last_status = String::new();
    let mut last_live = Instant::now();
    loop {
        for w in &mut workers {
            match &mut w.state {
                WorkerState::Backoff { until } => {
                    if Instant::now() >= *until {
                        if let Err(e) = spawn_worker(opts, &exe, w) {
                            fail_worker(opts, w, FailureKind::Kill, e);
                        }
                    }
                }
                WorkerState::Running { child } => {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            eprintln!("supervisor: shard {} completed", w.spec);
                            w.state = WorkerState::Done;
                        }
                        Ok(Some(status)) => {
                            let message = format!(
                                "worker exited abnormally ({status}) on attempt {}",
                                w.attempt
                            );
                            fail_worker(opts, w, FailureKind::Kill, message);
                        }
                        Ok(None) => {
                            // Still running: watch the heartbeat. The spawn
                            // (or last beat) timestamp anchors staleness, so
                            // a worker that never beats at all still trips
                            // the watchdog.
                            let hb = shard::heartbeat_path(&opts.dir, w.spec);
                            if let Ok(beat) = std::fs::read_to_string(&hb) {
                                if beat != w.hb_seen {
                                    w.hb_seen = beat;
                                    w.hb_changed = Instant::now();
                                }
                            }
                            if w.hb_changed.elapsed() > opts.watchdog {
                                let stale = w.hb_changed.elapsed();
                                let _ = child.kill();
                                let _ = child.wait();
                                let message = format!(
                                    "heartbeat stale for {stale:?} (watchdog {:?}) on attempt {}",
                                    opts.watchdog, w.attempt
                                );
                                fail_worker(opts, w, FailureKind::Hang, message);
                            }
                        }
                        Err(e) => {
                            let message = format!("wait on worker failed: {e}");
                            fail_worker(opts, w, FailureKind::Kill, message);
                        }
                    }
                }
                WorkerState::Done | WorkerState::Quarantined => {}
            }
        }
        let finished = workers
            .iter()
            .all(|w| matches!(w.state, WorkerState::Done | WorkerState::Quarantined));
        let status = workers
            .iter()
            .map(|w| format!("{}:{}:{}", w.spec.label(), w.state.label(), w.restarts))
            .collect::<Vec<_>>()
            .join(" ");
        if status != last_status {
            write_status(opts, &workers, finished);
            write_prom(opts, &workers);
            last_status = status;
        }
        if last_live.elapsed() >= Duration::from_secs(1) {
            write_live(opts, &workers);
            last_live = Instant::now();
        }
        if finished {
            break;
        }
        std::thread::sleep(poll);
    }
    write_status(opts, &workers, true);
    write_prom(opts, &workers);
    write_live(opts, &workers);
    write_errors(opts, &workers);

    let restarts: usize = workers.iter().map(|w| w.restarts).sum();
    let quarantined: Vec<String> = workers
        .iter()
        .filter(|w| matches!(w.state, WorkerState::Quarantined))
        .map(|w| w.spec.label())
        .collect();
    let mut summary = format!(
        "campaign: {} shard(s), {restarts} restart(s), {} quarantined",
        opts.shards,
        quarantined.len()
    );
    if opts.merge {
        match crate::merge::merge_shards(&opts.dir) {
            Ok(m) => summary.push_str(&format!("\n{m}")),
            Err(e) => return Err(format!("{summary}\nmerge failed: {e}")),
        }
    }
    if quarantined.is_empty() {
        Ok(summary)
    } else {
        Err(format!(
            "{summary}\nquarantined shard(s): {} — see {}",
            quarantined.join(", "),
            shard::supervisor_errors_path(&opts.dir).display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_rejects_bad_configs() {
        let opts = CampaignOptions {
            shards: 0,
            ..CampaignOptions::default()
        };
        assert!(run_campaign(&opts).unwrap_err().contains("--shards"));
        let opts = CampaignOptions {
            figures: Some(vec!["not_a_figure".into()]),
            ..CampaignOptions::default()
        };
        assert!(run_campaign(&opts).unwrap_err().contains("unknown figure"));
    }

    #[test]
    fn quarantine_after_budget_exhaustion_records_error_row() {
        let opts = CampaignOptions {
            max_restarts: 1,
            backoff_base: Duration::from_millis(1),
            ..CampaignOptions::default()
        };
        let mut w = Worker {
            spec: ShardSpec { index: 0, count: 2 },
            state: WorkerState::Done,
            attempt: 0,
            restarts: 0,
            hb_seen: String::new(),
            hb_changed: Instant::now(),
            error: None,
        };
        fail_worker(&opts, &mut w, FailureKind::Kill, "exit 137".into());
        assert!(matches!(w.state, WorkerState::Backoff { .. }));
        assert_eq!((w.restarts, w.attempt), (1, 1));
        assert!(w.error.is_none());
        fail_worker(&opts, &mut w, FailureKind::Hang, "stale".into());
        assert!(matches!(w.state, WorkerState::Quarantined));
        let row = w.error.expect("quarantine row");
        assert_eq!(row[0], "shard/0of2");
        assert_eq!(row[2], "hang");
        assert_eq!(row[3], "2");
        assert_eq!(row[5], "quarantined");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let opts = CampaignOptions {
            max_restarts: 3,
            backoff_base: Duration::from_millis(100),
            ..CampaignOptions::default()
        };
        let mut w = Worker {
            spec: ShardSpec { index: 1, count: 2 },
            state: WorkerState::Done,
            attempt: 0,
            restarts: 0,
            hb_seen: String::new(),
            hb_changed: Instant::now(),
            error: None,
        };
        let mut waits = Vec::new();
        for _ in 0..3 {
            let before = Instant::now();
            fail_worker(&opts, &mut w, FailureKind::Kill, "x".into());
            match w.state {
                WorkerState::Backoff { until } => waits.push(until - before),
                _ => panic!("expected backoff"),
            }
        }
        assert!(waits[1] > waits[0] && waits[2] > waits[1], "{waits:?}");
        assert!(waits[2] >= Duration::from_millis(390), "{waits:?}");
    }
}
