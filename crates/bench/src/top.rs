//! `opm top` — a live run inspector that reconstructs campaign state by
//! tailing the chrome-trace JSONL journal written by
//! [`crate::telemetry`]. It needs no side channel: figure begin/end
//! spans, `progress` instants, and counter (`C`) events carry everything
//! the dashboard shows — per-figure status, the active stage's
//! completed/total points, aggregate points/sec, and failure counts.
//!
//! The parser is deliberately tolerant: it extracts the handful of
//! fields it needs with scanning (no full JSON parser in the approved
//! dependency set) and skips lines it cannot read, so a trace truncated
//! mid-line by a live writer still renders.

use opm_core::telemetry::{HistogramSnapshot, PromDump};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One figure's state as reconstructed from its begin/end span events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureRow {
    /// Figure name (`fig12_stream_broadwell`, ...).
    pub name: String,
    /// `running` until the end event arrives, then the end event's
    /// `status` arg (`ok`, `failed`, `resumed`).
    pub status: String,
    /// Points evaluated (from the end event; 0 while running).
    pub points: u64,
    /// Point failures recorded (from the end event).
    pub failures: u64,
    /// Wall time in microseconds (end ts − begin ts; 0 while running).
    pub wall_us: u64,
}

/// The most recent `progress` instant: where the active sweep is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProgress {
    /// Stage label.
    pub stage: String,
    /// Points completed so far.
    pub completed: u64,
    /// Points in the stage.
    pub total: u64,
}

/// Everything `opm top` knows about a run after reading its trace.
#[derive(Debug, Clone, Default)]
pub struct TopSnapshot {
    /// Run id from the `run_start` instant.
    pub run: Option<String>,
    /// Telemetry mode label from `run_start`.
    pub mode: Option<String>,
    /// True once the `run_end` instant has been written.
    pub finished: bool,
    /// Figures in order of first appearance.
    pub figures: Vec<FigureRow>,
    /// Latest `progress` instant, if any.
    pub progress: Option<StageProgress>,
    /// Latest value of every counter series seen in `C` events.
    pub counters: BTreeMap<String, u64>,
    /// Earliest timestamp in the trace (µs since the telemetry epoch).
    pub first_ts: Option<u64>,
    /// Latest timestamp in the trace.
    pub last_ts: u64,
}

impl TopSnapshot {
    /// Figures that have ended (any terminal status).
    pub fn done(&self) -> usize {
        self.figures
            .iter()
            .filter(|f| f.status != "running")
            .count()
    }

    /// Figures that ended with status `failed`.
    pub fn failed(&self) -> usize {
        self.figures.iter().filter(|f| f.status == "failed").count()
    }

    /// The figure currently running, if any (last one still open).
    pub fn running(&self) -> Option<&FigureRow> {
        self.figures.iter().rev().find(|f| f.status == "running")
    }

    /// Trace time span in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        let first = match self.first_ts {
            Some(t) => t,
            None => return 0.0,
        };
        self.last_ts.saturating_sub(first) as f64 / 1e6
    }

    /// Latest value of a counter series (0 when absent).
    pub fn counter(&self, series: &str) -> u64 {
        self.counters.get(series).copied().unwrap_or(0)
    }

    /// Aggregate evaluation rate: `opm_points_total` over the trace's
    /// time span. 0.0 when the span is empty (no division by zero).
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.counter("opm_points_total") as f64 / secs
    }
}

/// Extract a string field (`"key":"value"`) from one JSONL line,
/// unescaping the JSON escapes our writer produces.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            _ => out.push(c),
        }
    }
    None
}

/// Extract an unsigned integer field (`"key":123`) from one JSONL line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Fields instants/span-ends store as strings (`"points":"84"`).
fn u64_str_field(line: &str, key: &str) -> Option<u64> {
    str_field(line, key)?.parse().ok()
}

/// Parse a JSONL trace into a [`TopSnapshot`]. Unreadable lines are
/// skipped, so a trace still being written renders its readable prefix.
pub fn parse_trace(text: &str) -> TopSnapshot {
    let mut snap = TopSnapshot::default();
    let mut begin_ts: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        let ph = match str_field(line, "ph") {
            Some(p) => p,
            None => continue,
        };
        let name = match str_field(line, "name") {
            Some(n) => n,
            None => continue,
        };
        let cat = str_field(line, "cat").unwrap_or_default();
        if let Some(ts) = u64_field(line, "ts") {
            snap.first_ts = Some(snap.first_ts.map_or(ts, |f| f.min(ts)));
            snap.last_ts = snap.last_ts.max(ts);
        }
        match (cat.as_str(), ph.as_str()) {
            ("figure", "B") => {
                if let Some(ts) = u64_field(line, "ts") {
                    begin_ts.insert(name.clone(), ts);
                }
                snap.figures.push(FigureRow {
                    name,
                    status: "running".to_string(),
                    points: 0,
                    failures: 0,
                    wall_us: 0,
                });
            }
            ("figure", "E") => {
                let end = u64_field(line, "ts").unwrap_or(0);
                let status = str_field(line, "status").unwrap_or_else(|| "ok".to_string());
                let points = u64_str_field(line, "points").unwrap_or(0);
                let failures = u64_str_field(line, "failures").unwrap_or(0);
                if let Some(row) = snap
                    .figures
                    .iter_mut()
                    .rev()
                    .find(|f| f.name == name && f.status == "running")
                {
                    row.status = status;
                    row.points = points;
                    row.failures = failures;
                    row.wall_us =
                        end.saturating_sub(begin_ts.get(&row.name).copied().unwrap_or(end));
                }
            }
            ("event", "i") => match name.as_str() {
                "run_start" => {
                    snap.run = str_field(line, "run");
                    snap.mode = str_field(line, "mode");
                }
                "run_end" => snap.finished = true,
                "progress" => {
                    snap.progress = Some(StageProgress {
                        stage: str_field(line, "stage").unwrap_or_default(),
                        completed: u64_str_field(line, "completed").unwrap_or(0),
                        total: u64_str_field(line, "total").unwrap_or(0),
                    });
                }
                _ => {}
            },
            ("counter", "C") => {
                if let Some(v) = u64_field(line, "value") {
                    snap.counters.insert(name, v);
                }
            }
            _ => {}
        }
    }
    snap
}

/// Render a snapshot as the `opm top` dashboard text.
pub fn render(snap: &TopSnapshot) -> String {
    let mut out = String::new();
    let state = if snap.finished { "finished" } else { "running" };
    out.push_str(&format!(
        "run {} (telemetry {}) — {state}, {:.1}s\n",
        snap.run.as_deref().unwrap_or("?"),
        snap.mode.as_deref().unwrap_or("?"),
        snap.elapsed_secs(),
    ));
    out.push_str(&format!(
        "figures: {} done / {} seen, {} failed\n",
        snap.done(),
        snap.figures.len(),
        snap.failed(),
    ));
    let width = snap.figures.iter().map(|f| f.name.len()).max().unwrap_or(6);
    for f in &snap.figures {
        if f.status == "running" {
            let prog = snap
                .progress
                .as_ref()
                .map(|p| format!("  {} {}/{}", p.stage, p.completed, p.total))
                .unwrap_or_default();
            out.push_str(&format!("  run      {:width$}{prog}\n", f.name));
        } else {
            let fails = if f.failures > 0 {
                format!("  {} failures", f.failures)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:8} {:width$}  {:>6} pts  {:.2}s{fails}\n",
                f.status,
                f.name,
                f.points,
                f.wall_us as f64 / 1e6,
            ));
        }
    }
    out.push_str(&format!(
        "points: {} ({:.0} pts/s) | retries: {} | recovered: {} | quarantined: {}\n",
        snap.counter("opm_points_total"),
        snap.points_per_sec(),
        snap.counter("opm_point_retries_total"),
        snap.counter("opm_points_recovered_total"),
        snap.counter("opm_points_quarantined_total"),
    ));
    out
}

/// Telemetry-derived progress numbers for one shard (or the campaign
/// total), extracted from a v2 Prometheus dump: the shard's snapshot
/// file while it runs, or the merged `metrics.prom` afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// `opm_points_total`.
    pub points: u64,
    /// `opm_snapshot_uptime_ms` (0 in merged dumps, which carry no
    /// wall-clock series).
    pub uptime_ms: u64,
    /// Model-time latency quantiles (ns) over every
    /// `opm_point_latency_ns` series in the dump, merged bucket-wise.
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

impl ShardStats {
    /// Extract stats from a parsed dump. The quantiles come from
    /// [`HistogramSnapshot::quantile`] on the bucket-wise union of every
    /// point-latency series — the same arithmetic a reader of the merged
    /// `metrics.prom` would use, so the dashboard and a recomputation
    /// agree exactly.
    pub fn from_dump(dump: &PromDump) -> ShardStats {
        let sum_counters = |v: &[opm_core::telemetry::CounterSnapshot], metric: &str| {
            v.iter()
                .filter(|c| c.metric == metric)
                .map(|c| c.value)
                .sum::<u64>()
        };
        let mut latency = HistogramSnapshot::empty("opm_point_latency_ns", "");
        for h in &dump.histograms {
            if h.metric == "opm_point_latency_ns" {
                latency.merge_from(h);
            }
        }
        ShardStats {
            points: sum_counters(&dump.counters, "opm_points_total"),
            uptime_ms: sum_counters(&dump.gauges, "opm_snapshot_uptime_ms"),
            p50_ns: latency.quantile(0.50),
            p95_ns: latency.quantile(0.95),
            p99_ns: latency.quantile(0.99),
        }
    }

    /// Evaluation rate from the snapshot's own uptime gauge; 0.0 when
    /// the dump has no uptime (merged files) or no points yet.
    pub fn points_per_sec(&self) -> f64 {
        if self.uptime_ms == 0 {
            return 0.0;
        }
        self.points as f64 / (self.uptime_ms as f64 / 1e3)
    }
}

/// Read and parse a v2 Prometheus dump into [`ShardStats`]; `None` when
/// the file is absent or unreadable (snapshot not yet written, torn
/// write mid-rename — both routine while a campaign spins up).
pub fn read_stats(path: &Path) -> Option<ShardStats> {
    let text = std::fs::read_to_string(path).ok()?;
    let dump = PromDump::parse(&text).ok()?;
    Some(ShardStats::from_dump(&dump))
}

/// One shard's liveness as reconstructed from the supervisor status
/// file and its heartbeat file's modification time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Shard label (`0of2`).
    pub label: String,
    /// Supervisor state: `running`, `backoff`, `done`, `quarantined`.
    pub state: String,
    /// Current restart generation (`OPM_SHARD_ATTEMPT`).
    pub attempt: u64,
    /// Restarts consumed so far.
    pub restarts: u64,
    /// Milliseconds since the heartbeat file last changed, when it
    /// exists (stale ages well beyond the watchdog mean a dead shard).
    pub heartbeat_age_ms: Option<u64>,
    /// Live telemetry stats from the shard's `snap-<label>.prom`.
    pub stats: Option<ShardStats>,
}

/// Campaign-level shard view for `opm top --campaign`.
#[derive(Debug, Clone, Default)]
pub struct CampaignView {
    /// Shard count from the `campaign` line.
    pub shards: u64,
    /// `running` or `finished`.
    pub state: String,
    /// Per-shard rows in index order.
    pub rows: Vec<ShardRow>,
    /// Campaign totals: the merged `telemetry/metrics.prom` once the
    /// merge has run, else the union of the live shard snapshots.
    pub total: Option<ShardStats>,
}

impl CampaignView {
    /// True once the supervisor has written its final status.
    pub fn finished(&self) -> bool {
        self.state == "finished"
    }
}

/// Parse `shards/supervisor.status` text (see [`crate::supervisor`]).
/// Unknown lines are skipped so the format can grow.
pub fn parse_supervisor_status(text: &str) -> CampaignView {
    let mut view = CampaignView::default();
    let kv = |word: &str, key: &str| -> Option<String> {
        word.strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .map(str::to_string)
    };
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.first().copied() {
            Some("campaign") => {
                for w in &words[1..] {
                    if let Some(v) = kv(w, "shards") {
                        view.shards = v.parse().unwrap_or(0);
                    } else if let Some(v) = kv(w, "state") {
                        view.state = v;
                    }
                }
            }
            Some("shard") if words.len() >= 2 => {
                let mut row = ShardRow {
                    label: words[1].to_string(),
                    state: String::new(),
                    attempt: 0,
                    restarts: 0,
                    heartbeat_age_ms: None,
                    stats: None,
                };
                for w in &words[2..] {
                    if let Some(v) = kv(w, "state") {
                        row.state = v;
                    } else if let Some(v) = kv(w, "attempt") {
                        row.attempt = v.parse().unwrap_or(0);
                    } else if let Some(v) = kv(w, "restarts") {
                        row.restarts = v.parse().unwrap_or(0);
                    }
                }
                view.rows.push(row);
            }
            _ => {}
        }
    }
    view
}

/// Build the campaign shard view for `campaign_dir`: supervisor status
/// plus heartbeat ages from the `hb-*` file modification times.
pub fn campaign_view(campaign_dir: &Path) -> Result<CampaignView, String> {
    let status = crate::shard::status_path(campaign_dir);
    let text = std::fs::read_to_string(&status)
        .map_err(|e| format!("no supervisor status at {}: {e}", status.display()))?;
    let mut view = parse_supervisor_status(&text);
    let shards = crate::shard::shards_dir(campaign_dir);
    let mut live = PromDump::default();
    let mut live_any = false;
    for row in &mut view.rows {
        let hb = shards.join(format!("hb-{}", row.label));
        if let Ok(modified) = std::fs::metadata(&hb).and_then(|m| m.modified()) {
            if let Ok(age) = modified.elapsed() {
                row.heartbeat_age_ms = Some(age.as_millis() as u64);
            }
        }
        let snap = shards.join(format!("snap-{}.prom", row.label));
        if let Ok(text) = std::fs::read_to_string(&snap) {
            if let Ok(dump) = PromDump::parse(&text) {
                row.stats = Some(ShardStats::from_dump(&dump));
                live.merge(&dump);
                live_any = true;
            }
        }
    }
    // Prefer the merged exposition (exact, written by merge-shards); a
    // still-running campaign falls back to the union of live snapshots,
    // whose maxed uptime gauge gives a campaign-wide pts/s.
    view.total = read_stats(&campaign_dir.join("telemetry").join("metrics.prom"))
        .or_else(|| live_any.then(|| ShardStats::from_dump(&live)));
    Ok(view)
}

/// Format a ns latency compactly (`850ns`, `12.4µs`, `3.1ms`); the
/// `+Inf` sentinel renders as `inf`.
fn fmt_ns(ns: u64) -> String {
    match ns {
        u64::MAX => "inf".to_string(),
        n if n < 10_000 => format!("{n}ns"),
        n if n < 10_000_000 => format!("{:.1}µs", n as f64 / 1e3),
        n => format!("{:.1}ms", n as f64 / 1e6),
    }
}

/// The `pts … p50/p95/p99` suffix shared by shard rows and the TOTAL
/// line.
fn fmt_stats(s: &ShardStats) -> String {
    let rate = match s.points_per_sec() {
        r if r > 0.0 => format!(" ({r:.0}/s)"),
        _ => String::new(),
    };
    format!(
        "  {} pts{rate}  p50/p95/p99 {}/{}/{}",
        s.points,
        fmt_ns(s.p50_ns),
        fmt_ns(s.p95_ns),
        fmt_ns(s.p99_ns),
    )
}

/// Render the campaign shard table.
pub fn render_campaign(view: &CampaignView) -> String {
    let mut out = format!("campaign: {} shard(s) — {}\n", view.shards, view.state);
    for row in &view.rows {
        let hb = match row.heartbeat_age_ms {
            Some(ms) if row.state == "running" => {
                format!("  heartbeat {:.1}s ago", ms as f64 / 1e3)
            }
            _ => String::new(),
        };
        let stats = row.stats.as_ref().map(fmt_stats).unwrap_or_default();
        out.push_str(&format!(
            "  shard {}  {:11} attempt {}  restarts {}{stats}{hb}\n",
            row.label, row.state, row.attempt, row.restarts
        ));
    }
    if let Some(total) = &view.total {
        out.push_str(&format!("  TOTAL{}\n", fmt_stats(total)));
    }
    out
}

/// The most recently modified `.jsonl` trace under `dir`, if any.
pub fn latest_trace(dir: &Path) -> Option<PathBuf> {
    let mut best: Option<(std::time::SystemTime, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let entry = entry.ok()?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let mtime = entry
            .metadata()
            .and_then(|m| m.modified())
            .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        if best.as_ref().map(|(t, _)| mtime >= *t).unwrap_or(true) {
            best = Some((mtime, path));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = r#"{"name":"run_start","cat":"event","ph":"i","ts":0,"pid":1,"tid":1,"s":"g","args":{"run":"ci-42","mode":"full"}}
{"name":"fig12_stream_broadwell","cat":"figure","ph":"B","ts":10,"pid":1,"tid":1,"args":{"path":"fig12_stream_broadwell"}}
{"name":"stream_sweep","cat":"stage","ph":"B","ts":12,"pid":1,"tid":1,"args":{"path":"fig12_stream_broadwell>stream_sweep"}}
{"name":"progress","cat":"event","ph":"i","ts":40,"pid":1,"tid":1,"s":"g","args":{"stage":"stream_sweep","completed":"21","total":"42"}}
{"name":"stream_sweep","cat":"stage","ph":"E","ts":90,"pid":1,"tid":1,"args":{"path":"fig12_stream_broadwell>stream_sweep","points":"42"}}
{"name":"fig12_stream_broadwell","cat":"figure","ph":"E","ts":100,"pid":1,"tid":1,"args":{"path":"fig12_stream_broadwell","status":"ok","points":"42","failures":"0"}}
{"name":"opm_points_total","cat":"counter","ph":"C","ts":100,"pid":1,"args":{"value":42}}
{"name":"fig23_stream_knl","cat":"figure","ph":"B","ts":120,"pid":1,"tid":1,"args":{"path":"fig23_stream_knl"}}
{"name":"progress","cat":"event","ph":"i","ts":150,"pid":1,"tid":1,"s":"g","args":{"stage":"knl_sweep","completed":"7","total":"84"}}
"#;

    #[test]
    fn parses_figures_progress_and_counters() {
        let snap = parse_trace(TRACE);
        assert_eq!(snap.run.as_deref(), Some("ci-42"));
        assert_eq!(snap.mode.as_deref(), Some("full"));
        assert!(!snap.finished);
        assert_eq!(snap.figures.len(), 2);
        assert_eq!(
            snap.figures[0],
            FigureRow {
                name: "fig12_stream_broadwell".into(),
                status: "ok".into(),
                points: 42,
                failures: 0,
                wall_us: 90,
            }
        );
        assert_eq!(snap.running().unwrap().name, "fig23_stream_knl");
        assert_eq!(snap.done(), 1);
        assert_eq!(snap.failed(), 0);
        assert_eq!(snap.counter("opm_points_total"), 42);
        let prog = snap.progress.unwrap();
        assert_eq!(
            (prog.stage.as_str(), prog.completed, prog.total),
            ("knl_sweep", 7, 84)
        );
        assert_eq!(snap.first_ts, Some(0));
        assert_eq!(snap.last_ts, 150);
    }

    #[test]
    fn run_end_marks_finished_and_rates_guard_zero_span() {
        let snap = parse_trace(
            "{\"name\":\"run_end\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{}}\n",
        );
        assert!(snap.finished);
        // Single-timestamp trace: elapsed 0 — rate must be 0.0, not NaN.
        assert_eq!(snap.points_per_sec(), 0.0);
        let empty = parse_trace("");
        assert_eq!(empty.elapsed_secs(), 0.0);
        assert_eq!(empty.points_per_sec(), 0.0);
    }

    #[test]
    fn tolerates_garbage_and_truncated_lines() {
        let mut text = String::from("not json at all\n{\"name\":\"trunc");
        text.push('\n');
        text.push_str(TRACE);
        let snap = parse_trace(&text);
        assert_eq!(snap.figures.len(), 2);
    }

    #[test]
    fn failed_figures_counted_and_rendered() {
        let text = r#"{"name":"fig05_roofline","cat":"figure","ph":"B","ts":0,"pid":1,"tid":1,"args":{"path":"fig05_roofline"}}
{"name":"fig05_roofline","cat":"figure","ph":"E","ts":9000000,"pid":1,"tid":1,"args":{"path":"fig05_roofline","status":"failed","points":"12","failures":"3"}}
"#;
        let snap = parse_trace(text);
        assert_eq!(snap.failed(), 1);
        let view = render(&snap);
        assert!(view.contains("failed"), "{view}");
        assert!(view.contains("3 failures"), "{view}");
        assert!(view.contains("12 pts"), "{view}");
    }

    #[test]
    fn render_shows_run_state_and_counters() {
        let view = render(&parse_trace(TRACE));
        assert!(
            view.contains("run ci-42 (telemetry full) — running"),
            "{view}"
        );
        assert!(
            view.contains("figures: 1 done / 2 seen, 0 failed"),
            "{view}"
        );
        assert!(view.contains("knl_sweep 7/84"), "{view}");
        assert!(view.contains("points: 42 ("), "{view}");
    }

    #[test]
    fn str_field_unescapes() {
        assert_eq!(
            str_field(r#"{"name":"a\"b\\c\nd"}"#, "name").as_deref(),
            Some("a\"b\\c\nd")
        );
        assert_eq!(str_field(r#"{"name":"x"}"#, "missing"), None);
        assert_eq!(str_field("{\"name\":\"trunc", "name"), None);
    }

    #[test]
    fn supervisor_status_parses_and_renders() {
        let text = "campaign shards=2 state=running\n\
                    shard 0of2 state=running attempt=1 restarts=1\n\
                    shard 1of2 state=quarantined attempt=3 restarts=3\n\
                    future-line we=ignore\n";
        let view = parse_supervisor_status(text);
        assert_eq!(view.shards, 2);
        assert!(!view.finished());
        assert_eq!(view.rows.len(), 2);
        assert_eq!(
            view.rows[0],
            ShardRow {
                label: "0of2".into(),
                state: "running".into(),
                attempt: 1,
                restarts: 1,
                heartbeat_age_ms: None,
                stats: None,
            }
        );
        assert_eq!(view.rows[1].state, "quarantined");
        let rendered = render_campaign(&view);
        assert!(
            rendered.contains("campaign: 2 shard(s) — running"),
            "{rendered}"
        );
        assert!(rendered.contains("shard 1of2  quarantined"), "{rendered}");
        assert!(parse_supervisor_status("campaign shards=4 state=finished\n").finished());
    }

    #[test]
    fn campaign_view_reads_status_and_heartbeat_age() {
        let dir = std::env::temp_dir().join(format!("opm_top_camp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(campaign_view(&dir).is_err());
        let shards = crate::shard::shards_dir(&dir);
        std::fs::create_dir_all(&shards).unwrap();
        std::fs::write(
            crate::shard::status_path(&dir),
            "campaign shards=1 state=running\nshard 0of1 state=running attempt=0 restarts=0\n",
        )
        .unwrap();
        std::fs::write(shards.join("hb-0of1"), "seq 3 pid 42\n").unwrap();
        let view = campaign_view(&dir).unwrap();
        assert_eq!(view.rows.len(), 1);
        let age = view.rows[0].heartbeat_age_ms.expect("heartbeat age");
        assert!(age < 60_000, "{age}");
        assert!(
            render_campaign(&view).contains("heartbeat"),
            "{}",
            render_campaign(&view)
        );
        assert!(view.rows[0].stats.is_none(), "no snapshot written yet");
        assert!(view.total.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A v2 dump with `n` point observations of 1000ns each plus the
    /// uptime gauge, as a shard snapshot would render it.
    fn snap_text(points: u64, uptime_ms: u64) -> String {
        use opm_core::telemetry::{CounterSnapshot, Telemetry, TelemetryMode};
        let tele = Telemetry::new(TelemetryMode::Summary);
        tele.counter("opm_points_total").add(points);
        for _ in 0..points {
            tele.observe("opm_point_latency_ns", "stage=\"figA>sweep\"", 1000);
        }
        let mut dump = tele.prom_dump();
        dump.gauges.push(CounterSnapshot {
            metric: "opm_snapshot_uptime_ms".into(),
            labels: String::new(),
            value: uptime_ms,
        });
        dump.sort();
        dump.render()
    }

    #[test]
    fn shard_stats_extract_points_rate_and_quantiles() {
        let dump = PromDump::parse(&snap_text(8, 2000)).unwrap();
        let stats = ShardStats::from_dump(&dump);
        assert_eq!(stats.points, 8);
        assert_eq!(stats.uptime_ms, 2000);
        assert_eq!(stats.points_per_sec(), 4.0);
        // 1000ns lands in the (512, 1024] bucket: every quantile reports
        // its upper edge — exactly what a reader recomputing from the
        // rendered file via HistogramSnapshot::quantile gets.
        assert_eq!(
            (stats.p50_ns, stats.p95_ns, stats.p99_ns),
            (1024, 1024, 1024)
        );
        assert_eq!(ShardStats::default().points_per_sec(), 0.0);
    }

    #[test]
    fn campaign_view_merges_snapshots_and_prefers_merged_metrics() {
        let dir = std::env::temp_dir().join(format!("opm_top_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shards = crate::shard::shards_dir(&dir);
        std::fs::create_dir_all(&shards).unwrap();
        std::fs::write(
            crate::shard::status_path(&dir),
            "campaign shards=2 state=running\n\
             shard 0of2 state=running attempt=0 restarts=0\n\
             shard 1of2 state=running attempt=0 restarts=0\n",
        )
        .unwrap();
        std::fs::write(shards.join("snap-0of2.prom"), snap_text(5, 1000)).unwrap();
        std::fs::write(shards.join("snap-1of2.prom"), snap_text(7, 2000)).unwrap();
        let view = campaign_view(&dir).unwrap();
        assert_eq!(view.rows[0].stats.as_ref().unwrap().points, 5);
        assert_eq!(view.rows[1].stats.as_ref().unwrap().points, 7);
        // Live total: counters summed, uptime maxed across snapshots.
        let total = view.total.as_ref().unwrap();
        assert_eq!((total.points, total.uptime_ms), (12, 2000));
        assert_eq!(total.p50_ns, 1024);
        let rendered = render_campaign(&view);
        assert!(rendered.contains("5 pts (5/s)"), "{rendered}");
        assert!(
            rendered.contains("p50/p95/p99 1024ns/1024ns/1024ns"),
            "{rendered}"
        );
        assert!(rendered.contains("TOTAL  12 pts (6/s)"), "{rendered}");
        // Once merge-shards has written the campaign exposition it wins
        // over the snapshot union (and carries no uptime series).
        let tdir = dir.join("telemetry");
        std::fs::create_dir_all(&tdir).unwrap();
        use opm_core::telemetry::{Telemetry, TelemetryMode};
        let merged = Telemetry::new(TelemetryMode::Summary);
        merged.counter("opm_points_total").add(12);
        merged.observe("opm_point_latency_ns", "stage=\"figA>sweep\"", 30_000_000);
        std::fs::write(tdir.join("metrics.prom"), merged.render_prom()).unwrap();
        let view = campaign_view(&dir).unwrap();
        let total = view.total.as_ref().unwrap();
        assert_eq!((total.points, total.uptime_ms), (12, 0));
        assert_eq!(total.p50_ns, 1 << 25);
        let rendered = render_campaign(&view);
        assert!(rendered.contains("33.6ms"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_trace_picks_newest_jsonl() {
        let dir = std::env::temp_dir().join(format!("opm_top_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(latest_trace(&dir), None);
        std::fs::write(dir.join("old.jsonl"), "{}").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(dir.join("new.jsonl"), "{}").unwrap();
        std::fs::write(dir.join("ignore.prom"), "").unwrap();
        assert_eq!(latest_trace(&dir), Some(dir.join("new.jsonl")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
