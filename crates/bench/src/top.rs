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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One figure's state as reconstructed from its begin/end span events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureRow {
    /// Figure name (`fig12_stream_broadwell`, ...).
    pub name: String,
    /// `running` until the end event arrives, then the end event's
    /// `status` arg (`ok` or `failed`).
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
