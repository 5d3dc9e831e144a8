//! Deterministic campaign sharding and the worker side of the
//! supervision protocol (`opm figures --shard i/N`).
//!
//! A campaign over the figure registry splits into `--shard i/N` slices
//! by round-robin over the *selected* figure list: shard `i` of `N` owns
//! every selected figure whose position in the list satisfies
//! `index % N == i`. The assignment is a pure function of the figure
//! list and the shard spec — no scheduler state, no timing — so any
//! shard can be re-run (or restarted by the supervisor) in isolation and
//! produce byte-identical output, and the union of all shards is exactly
//! the single-process campaign. Each figure's CSVs are written wholly by
//! exactly one shard, which is what makes `opm merge-shards` a pure
//! file-level reconciliation.
//!
//! A shard worker runs in its own process with `OPM_RESULTS` pointed at
//! its private results directory (`<campaign>/shards/shard-<i>of<N>/`)
//! and beats a heartbeat file (`<campaign>/shards/hb-<i>of<N>`) from a
//! background thread. The heartbeat deliberately stops when an injected
//! `hang` fault wedges an evaluation thread
//! ([`opm_kernels::faultinject::is_hung`]), so the supervisor's
//! stale-heartbeat watchdog observes a livelocked worker exactly as it
//! would a real one.

use crate::manifest::{self, RunOptions};
use opm_core::report::atomic_write;
use opm_core::telemetry::{CounterSnapshot, Telemetry};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default heartbeat interval for shard workers (override with
/// `OPM_HEARTBEAT_MS`).
pub const DEFAULT_HEARTBEAT_MS: u64 = 200;

/// One shard slice of a campaign: this process owns every selected
/// figure whose list index is congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total number of shards in the campaign.
    pub count: usize,
}

impl ShardSpec {
    /// Parse an `i/N` spec (`0/4` … `3/4`). `index` must be below
    /// `count` and `count` at least 1.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let (i, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("shard spec {spec:?}: expected <index>/<count>"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("shard spec {spec:?}: bad index"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("shard spec {spec:?}: bad count"))?;
        if count == 0 {
            return Err(format!("shard spec {spec:?}: count must be >= 1"));
        }
        if index >= count {
            return Err(format!("shard spec {spec:?}: index must be < count"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Canonical label used in directory and file names: `0of4`.
    pub fn label(&self) -> String {
        format!("{}of{}", self.index, self.count)
    }

    /// Whether this shard owns the figure at `list_index` of the
    /// selected figure list.
    pub fn selects(&self, list_index: usize) -> bool {
        list_index % self.count == self.index
    }

    /// The slice of the selected figure list (`None` = the full
    /// registry) this shard owns, in registry order.
    pub fn assigned_figures(&self, names: Option<&[String]>) -> Vec<String> {
        let all: Vec<String> = match names {
            Some(ns) => ns.to_vec(),
            None => manifest::ALL_FIGURES
                .iter()
                .map(|f| f.name.to_string())
                .collect(),
        };
        all.into_iter()
            .enumerate()
            .filter(|(i, _)| self.selects(*i))
            .map(|(_, n)| n)
            .collect()
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The shard bookkeeping directory of a campaign
/// (`<campaign>/shards/`): worker results dirs, heartbeats, logs, and
/// the supervisor's status/metrics files all live here, *outside* every
/// worker's results dir, so the merge step can treat a shard's results
/// dir as pure campaign output.
pub fn shards_dir(campaign: &Path) -> PathBuf {
    campaign.join("shards")
}

/// A shard worker's private results directory.
pub fn shard_results_dir(campaign: &Path, spec: ShardSpec) -> PathBuf {
    shards_dir(campaign).join(format!("shard-{}", spec.label()))
}

/// A shard's heartbeat file.
pub fn heartbeat_path(campaign: &Path, spec: ShardSpec) -> PathBuf {
    shards_dir(campaign).join(format!("hb-{}", spec.label()))
}

/// A shard's live telemetry snapshot (counters + gauges + latency
/// histograms in v2 exposition format), written next to its heartbeat
/// and read by `opm top --campaign` for per-shard rates and quantiles.
pub fn snapshot_path(campaign: &Path, spec: ShardSpec) -> PathBuf {
    shards_dir(campaign).join(format!("snap-{}.prom", spec.label()))
}

/// Derive the snapshot path from a worker's heartbeat path
/// (`hb-<label>` → sibling `snap-<label>.prom`), so workers need no
/// extra environment beyond `OPM_HEARTBEAT`.
pub fn snapshot_path_for_heartbeat(hb: &Path) -> Option<PathBuf> {
    let label = hb.file_name()?.to_str()?.strip_prefix("hb-")?;
    Some(hb.with_file_name(format!("snap-{label}.prom")))
}

/// A shard worker's combined stdout+stderr log.
pub fn worker_log_path(campaign: &Path, spec: ShardSpec) -> PathBuf {
    shards_dir(campaign).join(format!("shard-{}.log", spec.label()))
}

/// The supervisor's live status file (read by `opm top`).
pub fn status_path(campaign: &Path) -> PathBuf {
    shards_dir(campaign).join("supervisor.status")
}

/// The supervisor's own counters (`opm_shard_restarts_total`,
/// `opm_shard_quarantined_total`), merged into the campaign's
/// `metrics.prom` by `opm merge-shards`.
pub fn supervisor_prom_path(campaign: &Path) -> PathBuf {
    shards_dir(campaign).join("supervisor.prom")
}

/// Structured shard-level failure rows (same schema as
/// `run_errors.csv`), merged into the campaign's `run_errors.csv`.
pub fn supervisor_errors_path(campaign: &Path) -> PathBuf {
    shards_dir(campaign).join("supervisor_errors.csv")
}

/// Discover the shard results directories of a campaign, sorted by
/// shard index, validating that they form a complete, consistent
/// `0..N of N` set.
pub fn discover_shards(campaign: &Path) -> Result<Vec<(ShardSpec, PathBuf)>, String> {
    let dir = shards_dir(campaign);
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("no shards under {}: {e}", dir.display()))?;
    let mut found: Vec<(ShardSpec, PathBuf)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(label) = name.strip_prefix("shard-") else {
            continue;
        };
        if !entry.path().is_dir() {
            continue;
        }
        let Some((i, n)) = label.split_once("of") else {
            continue;
        };
        let (Ok(index), Ok(count)) = (i.parse::<usize>(), n.parse::<usize>()) else {
            continue;
        };
        found.push((ShardSpec { index, count }, entry.path()));
    }
    if found.is_empty() {
        return Err(format!("no shard-<i>of<N> dirs under {}", dir.display()));
    }
    found.sort_by_key(|(s, _)| s.index);
    let count = found[0].0.count;
    if found.len() != count || found.iter().enumerate().any(|(i, (s, _))| s.index != i) {
        let labels: Vec<String> = found.iter().map(|(s, _)| s.label()).collect();
        return Err(format!(
            "incomplete shard set under {}: found [{}], expected 0..{count} of {count}",
            dir.display(),
            labels.join(", ")
        ));
    }
    if found.iter().any(|(s, _)| s.count != count) {
        return Err(format!("mixed shard counts under {}", dir.display()));
    }
    Ok(found)
}

/// Start the detached heartbeat thread: every `interval` it atomically
/// rewrites `path` with a monotonically increasing sequence number —
/// unless an injected `hang` fault has wedged this process, in which
/// case it goes silent so the supervisor's watchdog fires. The thread
/// dies with the process; a crashed worker stops beating by definition.
pub fn start_heartbeat(path: PathBuf, interval: Duration) {
    let spawned = std::thread::Builder::new()
        .name("opm-heartbeat".into())
        .spawn(move || {
            let pid = std::process::id();
            let mut seq = 0u64;
            loop {
                if !opm_kernels::faultinject::is_hung() {
                    let beat = format!("seq {seq} pid {pid}\n");
                    if let Err(e) = atomic_write(&path, beat.as_bytes()) {
                        eprintln!("heartbeat: writing {}: {e}", path.display());
                    }
                    seq += 1;
                }
                std::thread::sleep(interval);
            }
        });
    if let Err(e) = spawned {
        eprintln!("heartbeat: thread spawn failed: {e}");
    }
}

/// Atomically write one live telemetry snapshot of the global registry
/// to `path`: the worker's full v2 Prometheus dump plus a wall-clock
/// `opm_snapshot_uptime_ms` gauge (what `opm top` divides point counts
/// by for pts/s). The uptime gauge is nondeterministic, which is why it
/// exists *only* in snapshots — `opm merge-shards` reads each shard's
/// final `telemetry/metrics.prom` and never these files, keeping merged
/// output byte-identical across shard counts.
pub fn write_snapshot(path: &Path, uptime: Duration) {
    let tele = Telemetry::global();
    if !tele.enabled() {
        return;
    }
    let mut dump = tele.prom_dump();
    dump.gauges.push(CounterSnapshot {
        metric: "opm_snapshot_uptime_ms".to_string(),
        labels: String::new(),
        value: uptime.as_millis() as u64,
    });
    dump.sort();
    if let Err(e) = atomic_write(path, dump.render().as_bytes()) {
        eprintln!("snapshot: writing {}: {e}", path.display());
    }
}

/// Start the detached snapshot thread: every `interval` it rewrites
/// `path` with [`write_snapshot`]. Like the heartbeat, the thread dies
/// with the process; unlike the heartbeat it keeps writing through an
/// injected hang (the wedged evaluation thread is not this one), so a
/// livelocked worker's last snapshot shows where progress stopped.
pub fn start_snapshots(path: PathBuf, interval: Duration) {
    let spawned = std::thread::Builder::new()
        .name("opm-snapshot".into())
        .spawn(move || {
            let start = Instant::now();
            loop {
                write_snapshot(&path, start.elapsed());
                std::thread::sleep(interval);
            }
        });
    if let Err(e) = spawned {
        eprintln!("snapshot: thread spawn failed: {e}");
    }
}

/// Body of `opm figures`: run this shard's slice of the selected
/// figures (`None` = the whole registry) in-process and write the run
/// manifest. The campaign supervisor points `OPM_RESULTS` at the shard's
/// private results dir and `OPM_HEARTBEAT` at its heartbeat file; run
/// standalone (no heartbeat env) it is simply a deterministic slice
/// runner — shard `0/1` is the whole single-process campaign.
pub fn run_worker(spec: ShardSpec, names: Option<&[String]>, resume: bool) -> String {
    let started = Instant::now();
    let mut snap: Option<PathBuf> = None;
    if let Ok(hb) = std::env::var("OPM_HEARTBEAT") {
        let interval = std::env::var("OPM_HEARTBEAT_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_HEARTBEAT_MS)
            .max(10);
        let hb = PathBuf::from(hb);
        snap = snapshot_path_for_heartbeat(&hb);
        if let Some(path) = &snap {
            start_snapshots(path.clone(), Duration::from_millis(interval.max(100)));
        }
        start_heartbeat(hb, Duration::from_millis(interval));
    }
    let mine = spec.assigned_figures(names);
    eprintln!(
        "shard {spec}: {} of {} selected figure(s){}",
        mine.len(),
        names
            .map(|n| n.len())
            .unwrap_or(manifest::ALL_FIGURES.len()),
        if resume { ", resuming" } else { "" },
    );
    manifest::run_and_write_opt(Some(&mine), &RunOptions { resume });
    // Final snapshot so `opm top` sees the completed totals rather than
    // the last periodic write.
    if let Some(path) = &snap {
        write_snapshot(path, started.elapsed());
    }
    format!("shard {spec} completed {} figure(s)", mine.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_validates_specs() {
        assert_eq!(
            ShardSpec::parse("0/1").unwrap(),
            ShardSpec { index: 0, count: 1 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().label(), "3of4");
        assert!(ShardSpec::parse("4/4").is_err());
        assert!(ShardSpec::parse("0/0").is_err());
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn assignment_is_a_partition_of_the_selection() {
        let names: Vec<String> = (0..7).map(|i| format!("f{i}")).collect();
        for count in [1usize, 2, 3, 4, 7, 9] {
            let mut union: Vec<String> = Vec::new();
            for index in 0..count {
                let spec = ShardSpec { index, count };
                let mine = spec.assigned_figures(Some(&names));
                // Round-robin: shard i owns indices i, i+N, i+2N, ...
                for name in &mine {
                    let pos = names.iter().position(|n| n == name).unwrap();
                    assert!(spec.selects(pos));
                }
                union.extend(mine);
            }
            union.sort();
            let mut expect = names.clone();
            expect.sort();
            assert_eq!(union, expect, "count={count}");
        }
    }

    #[test]
    fn full_registry_is_the_default_selection() {
        let spec = ShardSpec { index: 0, count: 1 };
        assert_eq!(
            spec.assigned_figures(None).len(),
            manifest::ALL_FIGURES.len()
        );
    }

    #[test]
    fn discover_requires_complete_shard_set() {
        let dir = std::env::temp_dir().join(format!("opm_shard_disc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(shards_dir(&dir)).unwrap();
        assert!(discover_shards(&dir).is_err(), "empty set");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        std::fs::create_dir_all(shard_results_dir(&dir, s0)).unwrap();
        assert!(discover_shards(&dir).is_err(), "missing shard 1");
        std::fs::create_dir_all(shard_results_dir(&dir, s1)).unwrap();
        let found = discover_shards(&dir).unwrap();
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].0, s0);
        assert_eq!(found[1].0, s1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_path_derives_from_heartbeat_path() {
        let campaign = Path::new("/tmp/camp");
        let spec = ShardSpec { index: 1, count: 4 };
        let hb = heartbeat_path(campaign, spec);
        assert_eq!(
            snapshot_path_for_heartbeat(&hb),
            Some(snapshot_path(campaign, spec))
        );
        assert_eq!(snapshot_path_for_heartbeat(Path::new("/tmp/other")), None);
    }

    #[test]
    fn write_snapshot_appends_the_uptime_gauge() {
        let dir = std::env::temp_dir().join(format!("opm_shard_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-0of1.prom");
        // The global registry may be Off in a bare test process; exercise
        // the dump shape directly through a local Telemetry instead.
        let tele = opm_core::telemetry::Telemetry::new(opm_core::telemetry::TelemetryMode::Summary);
        tele.counter("opm_points_total").add(3);
        let mut dump = tele.prom_dump();
        dump.gauges.push(CounterSnapshot {
            metric: "opm_snapshot_uptime_ms".to_string(),
            labels: String::new(),
            value: 1234,
        });
        dump.sort();
        atomic_write(&path, dump.render().as_bytes()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# opm-telemetry v2"), "{text}");
        assert!(text.contains("opm_points_total 3"), "{text}");
        assert!(text.contains("opm_snapshot_uptime_ms 1234"), "{text}");
        // The uptime gauge round-trips through the typed parser like any
        // other series (opm top reads snapshots with PromDump::parse).
        let parsed = opm_core::telemetry::PromDump::parse(&text).unwrap();
        assert!(parsed
            .gauges
            .iter()
            .any(|g| g.metric == "opm_snapshot_uptime_ms" && g.value == 1234));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_writes_and_advances() {
        let dir = std::env::temp_dir().join(format!("opm_shard_hb_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb");
        start_heartbeat(path.clone(), Duration::from_millis(10));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut first = None;
        let mut advanced = false;
        while std::time::Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&path) {
                assert!(text.starts_with("seq "), "{text:?}");
                match &first {
                    None => first = Some(text),
                    Some(f) if *f != text => {
                        advanced = true;
                        break;
                    }
                    _ => {}
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(advanced, "heartbeat never advanced");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
