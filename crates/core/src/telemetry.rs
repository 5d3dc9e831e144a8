//! The unified telemetry layer: structured spans, instant events, and
//! monotonic counters, with pluggable sinks.
//!
//! Every layer of the reproduction reports through this one data model:
//!
//! * **Spans** — timed, named, nested regions (`figure` → `stage` →
//!   `point`). Nesting is tracked per thread through a thread-local
//!   stack, so a span opened while another is active becomes its child
//!   (the engine's point spans nest under the stage span open on the
//!   same thread). A span's *path* (`parent>child`)
//!   identifies its position in the tree independently of timestamps,
//!   which is what the determinism tests compare.
//! * **Counters** — process-lifetime monotonic `u64`s (memsim accesses
//!   and per-level hits/misses/evictions/bytes-moved, sweep points and
//!   stages, retries, recoveries, quarantines, served requests). Counters
//!   are plain relaxed atomics, so a daemon's connection threads add to
//!   them without a lock; increments commute, so the totals do not
//!   depend on the order they land in.
//! * **Events** — timestamped instants: run lifecycle markers
//!   (`run_start`, `run_end`) and per-point roofline detail.
//!
//! Two outputs ship with the module: [`JsonlSink`] writes a
//! chrome://tracing-compatible JSONL journal (one Trace Event per line,
//! flushed per line, so it is also the post-mortem of a process that
//! dies), and [`Telemetry::render_prom`] (through [`PromDump::render`])
//! produces a Prometheus text exposition of every counter, gauge and
//! histogram. Any other [`TelemetrySink`] can be attached with
//! [`Telemetry::add_sink`]. The hot path is
//! lock-cheap: with no sinks attached and mode [`TelemetryMode::Off`],
//! spans are inert no-ops and counter increments are single relaxed
//! atomic adds.

use crate::api::JsonStr;
use crate::stats::{log2_bucket_index, log2_bucket_le, LOG2_BUCKETS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Separator between path segments of nested spans.
pub const PATH_SEP: char = '>';

/// Version tag of the telemetry stream. The JSONL trace leads with a
/// `{"schema":"opm-telemetry/v2",...}` record and the Prometheus dump
/// with a [`PROM_HEADER`] comment, which [`PromDump::parse`] requires.
pub const TELEMETRY_SCHEMA: &str = "opm-telemetry/v2";

/// Leading comment of a v2 Prometheus exposition.
pub const PROM_HEADER: &str = "# opm-telemetry v2";

/// Acquire a mutex, recovering from poisoning (telemetry data is plain
/// accumulation; a panic elsewhere must not wedge the trace).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How much the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Spans and events are inert (counters still accumulate — they are
    /// single atomic adds and several subsystems read them back).
    #[default]
    Off,
    /// Figure/stage spans, progress events, and counters.
    Summary,
    /// Everything in `Summary` plus one span per evaluated sweep point.
    Full,
}

impl TelemetryMode {
    /// Parse a `--telemetry` / `OPM_TELEMETRY` value.
    pub fn parse(s: &str) -> Option<TelemetryMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TelemetryMode::Off),
            "summary" | "1" | "on" => Some(TelemetryMode::Summary),
            "full" | "2" => Some(TelemetryMode::Full),
            _ => None,
        }
    }

    /// Read `OPM_TELEMETRY` through the typed [`crate::config::Config`]
    /// (default [`TelemetryMode::Off`]; a malformed value is a typed
    /// configuration error, not a silent fallback).
    pub fn from_env() -> TelemetryMode {
        crate::config::Config::from_env_or_die().telemetry
    }

    /// Canonical label (`off`/`summary`/`full`).
    pub fn label(&self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Full => "full",
        }
    }
}

/// A completed span, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (last path segment).
    pub name: String,
    /// Span category (`figure`, `stage`, `point`, ...).
    pub cat: &'static str,
    /// Full tree path, `parent>child` (see [`PATH_SEP`]).
    pub path: String,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small per-process thread id.
    pub tid: u64,
    /// Key/value annotations attached while the span was open.
    pub args: Vec<(String, String)>,
}

/// One counter with its current value, as delivered to sinks and the
/// Prometheus renderer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (`opm_points_total`, ...).
    pub metric: String,
    /// Prometheus-style label set without braces (`level="L2"`), empty
    /// for unlabeled counters.
    pub labels: String,
    /// Current value.
    pub value: u64,
}

impl CounterSnapshot {
    /// `metric{labels}` (or bare metric when unlabeled) — the series key
    /// used in the Prometheus dump and the JSONL counter events.
    pub fn series(&self) -> String {
        if self.labels.is_empty() {
            self.metric.clone()
        } else {
            format!("{}{{{}}}", self.metric, self.labels)
        }
    }
}

/// A live log2-bucketed latency histogram. Observations are relaxed
/// atomic adds into the fixed [`LOG2_BUCKETS`] edge set plus an exact
/// integer `sum` and `count` — increments commute, so the snapshot is
/// exactly equal for every thread interleaving.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: (0..LOG2_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[log2_bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self, metric: &str, labels: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            metric: metric.to_string(),
            labels: labels.to_string(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// One histogram series with its per-bucket counts (non-cumulative; the
/// Prometheus renderer cumulates at output time), as delivered to
/// sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name (`opm_point_latency_ns`, ...).
    pub metric: String,
    /// Label set without braces and without the `le` bucket label.
    pub labels: String,
    /// Per-bucket observation counts under the fixed log2 edges
    /// (length [`LOG2_BUCKETS`]), **not** cumulative.
    pub buckets: Vec<u64>,
    /// Exact integer sum of every observation.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// `metric{labels}` (or bare metric when unlabeled).
    pub fn series(&self) -> String {
        if self.labels.is_empty() {
            self.metric.clone()
        } else {
            format!("{}{{{}}}", self.metric, self.labels)
        }
    }

    /// `q`-quantile (0..=1) under the upper-bucket-edge rule: the upper
    /// edge of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Deterministic given the bucket counts, so a
    /// recomputation from a rendered metrics.prom agrees exactly.
    /// Returns 0 on an empty series and `u64::MAX` when the rank lands
    /// in the `+Inf` bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return log2_bucket_le(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// Receiver of telemetry output. All methods have no-op defaults so a
/// sink implements only what it consumes.
pub trait TelemetrySink: Send + Sync {
    /// A span opened (B phase; emitted for every category — sinks that
    /// render B/E pairs skip `point`, which arrives as a complete span
    /// via [`TelemetrySink::span_end`]).
    fn span_begin(&self, _name: &str, _cat: &'static str, _path: &str, _ts_us: u64, _tid: u64) {}
    /// A span closed.
    fn span_end(&self, _record: &SpanRecord) {}
    /// An instant event.
    fn instant(&self, _name: &str, _args: &[(String, String)], _ts_us: u64, _tid: u64) {}
    /// A counter snapshot was published.
    fn counters(&self, _snapshot: &[CounterSnapshot], _ts_us: u64) {}
    /// A histogram snapshot was published.
    fn histograms(&self, _snapshot: &[HistogramSnapshot], _ts_us: u64) {}
}

/// Handle to one monotonic counter; increments are relaxed atomic adds.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `v` to the counter.
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// Per-thread span stack: (telemetry instance id, span path). Spans of
    /// different [`Telemetry`] instances interleaved on one thread nest
    /// only within their own instance.
    static SPAN_STACK: RefCell<Vec<(usize, String)>> = const { RefCell::new(Vec::new()) };
    /// Small per-process thread id (stable within a thread's lifetime).
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// The telemetry registry: mode, sinks, counters, and the span API.
pub struct Telemetry {
    id: usize,
    mode: TelemetryMode,
    epoch: Instant,
    sinks: RwLock<Vec<Arc<dyn TelemetrySink>>>,
    counters: Mutex<BTreeMap<(String, String), Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<(String, String), Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<(String, String), Arc<Histogram>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("mode", &self.mode)
            .field("counters", &lock(&self.counters).len())
            .finish()
    }
}

impl Telemetry {
    /// A fresh instance with the given mode and no sinks.
    pub fn new(mode: TelemetryMode) -> Arc<Telemetry> {
        static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
        Arc::new(Telemetry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            mode,
            epoch: Instant::now(),
            sinks: RwLock::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        })
    }

    /// A fresh inert instance (mode [`TelemetryMode::Off`], no sinks).
    pub fn off() -> Arc<Telemetry> {
        Telemetry::new(TelemetryMode::Off)
    }

    /// The process-wide instance, created from `OPM_TELEMETRY` on first
    /// use.
    pub fn global() -> &'static Arc<Telemetry> {
        static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();
        GLOBAL.get_or_init(|| Telemetry::new(TelemetryMode::from_env()))
    }

    /// The recording mode.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Whether spans/events are recorded at all.
    pub fn enabled(&self) -> bool {
        self.mode != TelemetryMode::Off
    }

    /// Attach a sink.
    pub fn add_sink(&self, sink: Arc<dyn TelemetrySink>) {
        self.sinks
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .push(sink);
    }

    /// Detach every sink (a harness re-initializing a run).
    pub fn clear_sinks(&self) {
        self.sinks
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn sinks(&self) -> Vec<Arc<dyn TelemetrySink>> {
        self.sinks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span nested under this thread's innermost open span (of
    /// this instance). Inert when the mode is `Off`.
    pub fn span(&self, cat: &'static str, name: &str) -> Span<'_> {
        if !self.enabled() {
            return Span {
                tele: None,
                cat,
                name: String::new(),
                path: String::new(),
                start: Instant::now(),
                start_us: 0,
                args: Vec::new(),
            };
        }
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = match stack.iter().rev().find(|(id, _)| *id == self.id) {
                Some((_, p)) => format!("{p}{PATH_SEP}{name}"),
                None => name.to_string(),
            };
            stack.push((self.id, path.clone()));
            path
        });
        let start_us = self.now_us();
        for sink in self.sinks() {
            sink.span_begin(name, cat, &path, start_us, thread_id());
        }
        Span {
            tele: Some(self),
            cat,
            name: name.to_string(),
            path,
            start: Instant::now(),
            start_us,
            args: Vec::new(),
        }
    }

    /// Emit an instant event to every sink (no-op when the mode is `Off`).
    pub fn instant(&self, name: &str, args: &[(String, String)]) {
        if !self.enabled() {
            return;
        }
        let ts = self.now_us();
        for sink in self.sinks() {
            sink.instant(name, args, ts, thread_id());
        }
    }

    /// Handle to the unlabeled counter `metric`.
    pub fn counter(&self, metric: &str) -> Counter {
        self.counter_with(metric, "")
    }

    /// Handle to `metric{labels}` (labels without braces, e.g.
    /// `level="L2"`).
    pub fn counter_with(&self, metric: &str, labels: &str) -> Counter {
        let cell = lock(&self.counters)
            .entry((metric.to_string(), labels.to_string()))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter(cell)
    }

    /// Add `v` to `metric{labels}` (registers the counter on first use).
    pub fn add(&self, metric: &str, labels: &str, v: u64) {
        self.counter_with(metric, labels).add(v);
    }

    /// Snapshot of every registered counter, sorted by (metric, labels).
    pub fn snapshot_counters(&self) -> Vec<CounterSnapshot> {
        lock(&self.counters)
            .iter()
            .map(|((metric, labels), v)| CounterSnapshot {
                metric: metric.clone(),
                labels: labels.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Push the current counter snapshot to every sink.
    pub fn publish_counters(&self) {
        if !self.enabled() {
            return;
        }
        let snap = self.snapshot_counters();
        let ts = self.now_us();
        for sink in self.sinks() {
            sink.counters(&snap, ts);
        }
    }

    /// Set the gauge `metric{labels}` to `v` (registers it on first
    /// use). Gauges carry derived *instantaneous* values — roofline
    /// attribution, byte shares — that are deterministic functions of
    /// the run configuration.
    pub fn set_gauge(&self, metric: &str, labels: &str, v: u64) {
        lock(&self.gauges)
            .entry((metric.to_string(), labels.to_string()))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .store(v, Ordering::Relaxed);
    }

    /// Snapshot of every registered gauge, sorted by (metric, labels).
    pub fn snapshot_gauges(&self) -> Vec<CounterSnapshot> {
        lock(&self.gauges)
            .iter()
            .map(|((metric, labels), v)| CounterSnapshot {
                metric: metric.clone(),
                labels: labels.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Handle to the histogram `metric{labels}` (registered on first
    /// use).
    pub fn histogram_with(&self, metric: &str, labels: &str) -> Arc<Histogram> {
        lock(&self.histograms)
            .entry((metric.to_string(), labels.to_string()))
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Record `v` into the histogram `metric{labels}`.
    pub fn observe(&self, metric: &str, labels: &str, v: u64) {
        self.histogram_with(metric, labels).observe(v);
    }

    /// Snapshot of every registered histogram, sorted by
    /// (metric, labels).
    pub fn snapshot_histograms(&self) -> Vec<HistogramSnapshot> {
        lock(&self.histograms)
            .iter()
            .map(|((metric, labels), h)| h.snapshot(metric, labels))
            .collect()
    }

    /// Push the current histogram snapshot to every sink.
    pub fn publish_histograms(&self) {
        if !self.enabled() {
            return;
        }
        let snap = self.snapshot_histograms();
        if snap.is_empty() {
            return;
        }
        let ts = self.now_us();
        for sink in self.sinks() {
            sink.histograms(&snap, ts);
        }
    }

    /// Typed snapshot of every counter, gauge, and histogram — the unit
    /// the Prometheus renderer operates on.
    pub fn prom_dump(&self) -> PromDump {
        PromDump {
            counters: self.snapshot_counters(),
            gauges: self.snapshot_gauges(),
            histograms: self.snapshot_histograms(),
        }
    }

    /// Render every counter, gauge, and histogram as a v2 Prometheus
    /// text exposition.
    pub fn render_prom(&self) -> String {
        self.prom_dump().render()
    }

    /// Write the Prometheus exposition to `path` atomically, creating
    /// parent directories. A scraper polling the file can never observe
    /// a torn write.
    pub fn write_prom(&self, path: &Path) -> std::io::Result<()> {
        crate::report::atomic_write(path, self.render_prom().as_bytes())
    }
}

/// An open span; closing (dropping) it delivers a [`SpanRecord`] to every
/// sink and pops the thread-local span stack.
pub struct Span<'a> {
    tele: Option<&'a Telemetry>,
    cat: &'static str,
    name: String,
    path: String,
    start: Instant,
    start_us: u64,
    args: Vec<(String, String)>,
}

impl Span<'_> {
    /// The span's tree path (empty for an inert span).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Attach a key/value annotation, delivered with the end record.
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        if self.tele.is_some() {
            self.args.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(tele) = self.tele else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|(id, p)| *id == tele.id && *p == self.path)
            {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            path: std::mem::take(&mut self.path),
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_micros() as u64,
            tid: thread_id(),
            args: std::mem::take(&mut self.args),
        };
        for sink in tele.sinks() {
            sink.span_end(&record);
        }
    }
}

/// Parse a Prometheus text exposition back into `(metric, labels, value)`
/// triples, rejecting malformed lines — the CI smoke assertion and the
/// reconciliation tests go through this.
pub fn parse_prom(text: &str) -> Result<Vec<(String, String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", i + 1))?;
        let value: u64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
        let (metric, labels) = match series.split_once('{') {
            Some((m, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unclosed labels in {series:?}", i + 1))?;
                (m.to_string(), labels.to_string())
            }
            None => (series.to_string(), String::new()),
        };
        if metric.is_empty()
            || !metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || metric.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {}: bad metric name {metric:?}", i + 1));
        }
        out.push((metric, labels, value));
    }
    Ok(out)
}

/// A typed Prometheus exposition: counters, gauges, and histogram
/// series, histograms held non-cumulatively. This is the round-trip unit
/// of the v2 dump — [`PromDump::render`] and [`PromDump::parse`] are
/// inverse up to canonical ordering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PromDump {
    /// Monotone counters.
    pub counters: Vec<CounterSnapshot>,
    /// Derived instantaneous gauges.
    pub gauges: Vec<CounterSnapshot>,
    /// Log2-bucketed histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl PromDump {
    /// Canonical ordering: each section sorted by (metric, labels).
    pub fn sort(&mut self) {
        self.counters
            .sort_by(|a, b| (&a.metric, &a.labels).cmp(&(&b.metric, &b.labels)));
        self.gauges
            .sort_by(|a, b| (&a.metric, &a.labels).cmp(&(&b.metric, &b.labels)));
        self.histograms
            .sort_by(|a, b| (&a.metric, &a.labels).cmp(&(&b.metric, &b.labels)));
    }

    /// Render the v2 text exposition: the [`PROM_HEADER`] comment, then
    /// counters, gauges, and histograms, each section in canonical
    /// order with one `# TYPE` line per metric. Histogram bucket counts
    /// are cumulated here (and only here); every bucket edge is always
    /// emitted, so every series of a metric has the same rows.
    pub fn render(&self) -> String {
        let mut dump = self.clone();
        dump.sort();
        let mut out = String::new();
        let _ = writeln!(out, "{PROM_HEADER}");
        for (snaps, ty) in [(&dump.counters, "counter"), (&dump.gauges, "gauge")] {
            let mut last_metric = "";
            for c in snaps.iter() {
                if c.metric != last_metric {
                    let _ = writeln!(out, "# TYPE {} {ty}", c.metric);
                    last_metric = &c.metric;
                }
                let _ = writeln!(out, "{} {}", c.series(), c.value);
            }
        }
        let mut last_metric = "";
        for h in dump.histograms.iter() {
            if h.metric != last_metric {
                let _ = writeln!(out, "# TYPE {} histogram", h.metric);
                last_metric = &h.metric;
            }
            let sep = if h.labels.is_empty() { "" } else { "," };
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = match log2_bucket_le(i) {
                    Some(edge) => edge.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{}_bucket{{{}{}le=\"{}\"}} {}",
                    h.metric, h.labels, sep, le, cum
                );
            }
            let _ = writeln!(out, "{}_sum{{{}}} {}", h.metric, h.labels, h.sum);
            let _ = writeln!(out, "{}_count{{{}}} {}", h.metric, h.labels, h.count);
        }
        out
    }

    /// Parse a v2 text exposition back into a typed dump. The text must
    /// lead with the [`PROM_HEADER`] comment, and `# TYPE` lines classify
    /// every series. Histogram `_bucket` series are de-cumulated back to
    /// per-bucket counts; a missing header, an untyped series,
    /// non-monotone cumulative counts or unknown bucket edges are errors.
    pub fn parse(text: &str) -> Result<PromDump, String> {
        if text.lines().next().map(str::trim) != Some(PROM_HEADER) {
            return Err(format!("missing {PROM_HEADER:?} header"));
        }
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.trim().strip_prefix("# TYPE ") {
                let mut it = rest.split_whitespace();
                if let (Some(name), Some(ty)) = (it.next(), it.next()) {
                    types.insert(name.to_string(), ty.to_string());
                }
            }
        }
        let is_hist = |base: &str| types.get(base).map(String::as_str) == Some("histogram");
        // (metric, labels) -> (cumulative bucket counts, sum, count)
        type HistParts = (Vec<Option<u64>>, Option<u64>, Option<u64>);
        let mut hist: BTreeMap<(String, String), HistParts> = BTreeMap::new();
        let mut dump = PromDump::default();
        for (metric, labels, value) in parse_prom(text)? {
            if let Some(base) = metric.strip_suffix("_bucket").filter(|b| is_hist(b)) {
                let (rest, le) = split_le_label(&labels)
                    .ok_or_else(|| format!("{metric}: missing le label in {labels:?}"))?;
                let idx = bucket_index_of_le(&le)
                    .ok_or_else(|| format!("{metric}: unknown bucket edge {le:?}"))?;
                let entry = hist
                    .entry((base.to_string(), rest))
                    .or_insert_with(|| (vec![None; LOG2_BUCKETS], None, None));
                entry.0[idx] = Some(value);
            } else if let Some(base) = metric.strip_suffix("_sum").filter(|b| is_hist(b)) {
                hist.entry((base.to_string(), labels))
                    .or_insert_with(|| (vec![None; LOG2_BUCKETS], None, None))
                    .1 = Some(value);
            } else if let Some(base) = metric.strip_suffix("_count").filter(|b| is_hist(b)) {
                hist.entry((base.to_string(), labels))
                    .or_insert_with(|| (vec![None; LOG2_BUCKETS], None, None))
                    .2 = Some(value);
            } else {
                let section = match types.get(&metric).map(String::as_str) {
                    Some("gauge") => &mut dump.gauges,
                    Some("counter") => &mut dump.counters,
                    _ => return Err(format!("{metric}: series without a # TYPE line")),
                };
                section.push(CounterSnapshot {
                    metric,
                    labels,
                    value,
                });
            }
        }
        for ((metric, labels), (cum, sum, count)) in hist {
            let mut buckets = Vec::with_capacity(LOG2_BUCKETS);
            let mut prev = 0u64;
            for (i, c) in cum.into_iter().enumerate() {
                // A bucket edge absent from the file adds nothing.
                let c = c.unwrap_or(prev);
                if c < prev {
                    return Err(format!(
                        "{metric}{{{labels}}}: non-monotone cumulative count at bucket {i}"
                    ));
                }
                buckets.push(c - prev);
                prev = c;
            }
            dump.histograms.push(HistogramSnapshot {
                metric,
                labels,
                count: count.unwrap_or(prev),
                sum: sum.unwrap_or(0),
                buckets,
            });
        }
        dump.sort();
        Ok(dump)
    }
}

/// Split the trailing `le="..."` bucket label off a label set, returning
/// (remaining labels, le value).
fn split_le_label(labels: &str) -> Option<(String, String)> {
    let idx = labels.rfind("le=\"")?;
    if idx > 0 && labels.as_bytes()[idx - 1] != b',' {
        return None;
    }
    let le = labels[idx + 4..].strip_suffix('"')?;
    let rest = if idx == 0 { "" } else { &labels[..idx - 1] };
    Some((rest.to_string(), le.to_string()))
}

/// Bucket index of an `le` label value under the fixed log2 edges.
fn bucket_index_of_le(le: &str) -> Option<usize> {
    if le == "+Inf" {
        return Some(LOG2_BUCKETS - 1);
    }
    let v: u64 = le.parse().ok()?;
    let idx = v.checked_ilog2()? as usize;
    (log2_bucket_le(idx.min(LOG2_BUCKETS - 1)) == Some(v)).then_some(idx)
}

fn render_args(args: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", JsonStr(k), JsonStr(v));
    }
    out.push('}');
    out
}

/// The leading v2 trace record: a metadata instant whose first key is
/// the schema tag. v1 readers that skip unknown event names pass over
/// it; v2 readers can dispatch on the first line.
fn render_schema_line() -> String {
    format!(
        "{{\"schema\":\"{TELEMETRY_SCHEMA}\",\"name\":\"telemetry_schema\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":0,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{{\"schema\":\"{TELEMETRY_SCHEMA}\"}}}}"
    )
}

fn render_span_begin_line(name: &str, cat: &str, path: &str, ts_us: u64, tid: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"B\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid},\"args\":{{\"path\":{}}}}}",
        JsonStr(name),
        JsonStr(cat),
        JsonStr(path),
    )
}

fn render_span_end_line(r: &SpanRecord) -> String {
    let mut args = vec![("path".to_string(), r.path.clone())];
    args.extend(r.args.iter().cloned());
    let ph = if r.cat == "point" { "X" } else { "E" };
    let ts = if r.cat == "point" {
        r.start_us
    } else {
        r.start_us + r.dur_us
    };
    let dur = if r.cat == "point" {
        format!(",\"dur\":{}", r.dur_us)
    } else {
        String::new()
    };
    format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"{ph}\",\"ts\":{ts}{dur},\"pid\":1,\"tid\":{},\"args\":{}}}",
        JsonStr(&r.name),
        JsonStr(r.cat),
        r.tid,
        render_args(&args),
    )
}

fn render_instant_line(name: &str, args: &[(String, String)], ts_us: u64, tid: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"ts\":{ts_us},\"pid\":1,\"tid\":{tid},\"s\":\"g\",\"args\":{}}}",
        JsonStr(name),
        render_args(args),
    )
}

fn render_counter_line(series: &str, value: u64, ts_us: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"counter\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"args\":{{\"value\":{value}}}}}",
        JsonStr(series),
    )
}

fn render_histogram_line(h: &HistogramSnapshot, ts_us: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"histogram\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"args\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}}}",
        JsonStr(&h.series()),
        h.count,
        h.sum,
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99),
    )
}

/// Chrome-trace JSONL writer: one Trace Event JSON object per line,
/// flushed per line so a process that dies mid-run (a panic, a kill)
/// leaves every event it emitted up to that point on disk.
///
/// Span begin/end become `B`/`E` pairs (same tid by construction); point
/// spans become single `X` complete events; instants become `i`; counter
/// snapshots become one `C` event per series. Wrap the lines in a JSON
/// array (e.g. `jq -s .`) to load the file in chrome://tracing or
/// Perfetto.
pub struct JsonlSink {
    file: Mutex<BufWriter<fs::File>>,
}

impl JsonlSink {
    /// Create (truncating) the JSONL journal at `path`, creating parent
    /// directories, and write the leading v2 schema record.
    pub fn create(path: &Path) -> std::io::Result<Arc<JsonlSink>> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let sink = Arc::new(JsonlSink {
            file: Mutex::new(BufWriter::new(fs::File::create(path)?)),
        });
        sink.line(&render_schema_line());
        Ok(sink)
    }

    fn line(&self, s: &str) {
        let mut f = lock(&self.file);
        let _ = writeln!(f, "{s}");
        let _ = f.flush();
    }
}

impl TelemetrySink for JsonlSink {
    fn span_begin(&self, name: &str, cat: &'static str, path: &str, ts_us: u64, tid: u64) {
        // Point spans render as single X complete events on close.
        if cat == "point" {
            return;
        }
        self.line(&render_span_begin_line(name, cat, path, ts_us, tid));
    }

    fn span_end(&self, r: &SpanRecord) {
        self.line(&render_span_end_line(r));
    }

    fn instant(&self, name: &str, args: &[(String, String)], ts_us: u64, tid: u64) {
        self.line(&render_instant_line(name, args, ts_us, tid));
    }

    fn counters(&self, snapshot: &[CounterSnapshot], ts_us: u64) {
        for c in snapshot {
            self.line(&render_counter_line(&c.series(), c.value, ts_us));
        }
    }

    fn histograms(&self, snapshot: &[HistogramSnapshot], ts_us: u64) {
        for h in snapshot {
            self.line(&render_histogram_line(h, ts_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collects completed spans.
    #[derive(Default)]
    struct Spans(Mutex<Vec<SpanRecord>>);

    impl Spans {
        fn paths(&self) -> Vec<String> {
            let mut paths: Vec<String> = lock(&self.0).iter().map(|s| s.path.clone()).collect();
            paths.sort();
            paths
        }
    }

    impl TelemetrySink for Spans {
        fn span_end(&self, record: &SpanRecord) {
            lock(&self.0).push(record.clone());
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(TelemetryMode::parse("off"), Some(TelemetryMode::Off));
        assert_eq!(
            TelemetryMode::parse("Summary"),
            Some(TelemetryMode::Summary)
        );
        assert_eq!(TelemetryMode::parse("FULL"), Some(TelemetryMode::Full));
        assert_eq!(TelemetryMode::parse("bogus"), None);
        assert_eq!(TelemetryMode::Full.label(), "full");
    }

    #[test]
    fn spans_nest_through_the_thread_local_stack() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        let spans = Arc::new(Spans::default());
        tele.add_sink(spans.clone());
        {
            let _outer = tele.span("figure", "figA");
            let _inner = tele.span("stage", "s1");
        }
        {
            let _root = tele.span("figure", "figB");
        }
        assert_eq!(
            spans.paths(),
            vec![
                "figA".to_string(),
                "figA>s1".to_string(),
                "figB".to_string()
            ]
        );
    }

    #[test]
    fn off_mode_spans_are_inert() {
        let tele = Telemetry::off();
        let spans = Arc::new(Spans::default());
        tele.add_sink(spans.clone());
        {
            let mut s = tele.span("stage", "nothing");
            s.arg("k", "v");
            assert_eq!(s.path(), "");
        }
        tele.instant("nope", &[]);
        assert!(spans.paths().is_empty());
        // Counters still work in Off mode (they are read back in-process).
        tele.add("m_total", "", 3);
        assert_eq!(tele.counter("m_total").get(), 3);
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        let c = tele.counter_with("opm_memsim_level_hits_total", "level=\"L2\"");
        c.add(5);
        c.inc();
        tele.add("opm_a_total", "", 2);
        let snap = tele.snapshot_counters();
        assert_eq!(snap[0].metric, "opm_a_total");
        assert_eq!(snap[1].value, 6);
        assert_eq!(
            snap[1].series(),
            "opm_memsim_level_hits_total{level=\"L2\"}"
        );
    }

    #[test]
    fn prom_roundtrip() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        tele.add("opm_points_total", "", 42);
        tele.add("opm_level_hits_total", "level=\"L2\"", 7);
        tele.add("opm_level_hits_total", "level=\"L3\"", 9);
        let text = tele.render_prom();
        assert!(text.contains("# TYPE opm_points_total counter"));
        let parsed = parse_prom(&text).unwrap();
        assert!(parsed.contains(&("opm_points_total".to_string(), String::new(), 42)));
        assert!(parsed.contains(&(
            "opm_level_hits_total".to_string(),
            "level=\"L2\"".to_string(),
            7
        )));
        // TYPE header appears once per metric, not per series.
        assert_eq!(text.matches("# TYPE opm_level_hits_total").count(), 1);
        assert!(parse_prom("bad line with no value at all ?!\n").is_err());
        assert!(parse_prom("1bad_metric 3\n").is_err());
    }

    #[test]
    fn jsonl_sink_writes_chrome_trace_events() {
        let dir = std::env::temp_dir().join(format!("opm_tele_{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let tele = Telemetry::new(TelemetryMode::Full);
        let sink = JsonlSink::create(&path).unwrap();
        tele.add_sink(sink);
        {
            let mut fig = tele.span("figure", "figX");
            fig.arg("status", "ok");
            let _stage = tele.span("stage", "sweepY");
            drop(tele.span("point", "point:0"));
            // Every line is flushed as it is written, so a process killed
            // here leaves the open stage's B line and the ended point's X
            // line: the point that was running is the next index.
            let partial = fs::read_to_string(&path).unwrap();
            let partial: Vec<&str> = partial.lines().collect();
            assert_eq!(partial.len(), 4, "{partial:?}");
            assert!(
                partial[2].contains("\"ph\":\"B\"")
                    && partial[2].contains("\"path\":\"figX>sweepY\"")
            );
            assert!(
                partial[3].contains("\"ph\":\"X\"") && partial[3].contains("figX>sweepY>point:0")
            );
        }
        tele.instant(
            "run_start",
            &[("run".into(), "x".into()), ("mode".into(), "full".into())],
        );
        tele.add("opm_points_total", "", 8);
        tele.publish_counters();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // schema, B figure, B stage, X point, E stage, E figure,
        // i run_start, C counter.
        assert_eq!(lines.len(), 8, "{text}");
        assert!(lines[0].starts_with("{\"schema\":\"opm-telemetry/v2\""));
        assert!(lines[1].contains("\"ph\":\"B\"") && lines[1].contains("\"figX\""));
        assert!(lines[3].contains("\"ph\":\"X\"") && lines[3].contains("\"dur\":"));
        assert!(lines[3].contains("figX>sweepY>point:0"));
        assert!(lines[5].contains("\"ph\":\"E\"") && lines[5].contains("\"status\":\"ok\""));
        assert!(lines[6].contains("\"ph\":\"i\"") && lines[6].contains("\"mode\":\"full\""));
        assert!(lines[7].contains("\"ph\":\"C\"") && lines[7].contains("\"value\":8"));
        // Every line is one strict JSON object.
        for l in lines {
            let doc = crate::api::Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}"));
            assert!(doc.root().get("ph").is_some(), "{l}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            tele.observe("lat_ns", "stage=\"s\"", v);
        }
        let snaps = tele.snapshot_histograms();
        assert_eq!(snaps.len(), 1);
        let h = &snaps[0];
        assert_eq!(h.count, 7);
        assert_eq!(
            h.sum,
            0u64.wrapping_add(1 + 2 + 3 + 4 + 1000)
                .wrapping_add(u64::MAX)
        );
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2); // 3, 4
        assert_eq!(h.buckets[10], 1); // 1000 <= 1024
        assert_eq!(h.buckets[LOG2_BUCKETS - 1], 1); // u64::MAX -> +Inf
                                                    // Upper-edge quantiles: rank ceil(0.5*7)=4 lands in bucket 2.
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn prom_dump_renders_and_parses_v2_exactly() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        tele.add("opm_points_total", "", 42);
        tele.set_gauge("opm_roofline_ai_milli", "stage=\"s\"", 1500);
        tele.observe("opm_point_latency_ns", "stage=\"s\"", 900);
        tele.observe("opm_point_latency_ns", "stage=\"s\"", 90_000);
        let text = tele.render_prom();
        assert!(text.starts_with(PROM_HEADER));
        assert!(text.contains("# TYPE opm_points_total counter"));
        assert!(text.contains("# TYPE opm_roofline_ai_milli gauge"));
        assert!(text.contains("# TYPE opm_point_latency_ns histogram"));
        assert!(text.contains("opm_point_latency_ns_bucket{stage=\"s\",le=\"1024\"} 1"));
        assert!(text.contains("opm_point_latency_ns_bucket{stage=\"s\",le=\"+Inf\"} 2"));
        assert!(text.contains("opm_point_latency_ns_sum{stage=\"s\"} 90900"));
        assert!(text.contains("opm_point_latency_ns_count{stage=\"s\"} 2"));
        // The flat u64 parser (v1 tooling) still accepts the v2 text.
        assert!(parse_prom(&text).is_ok());
        // The typed round-trip is exact: parse -> render is the identity.
        let dump = PromDump::parse(&text).unwrap();
        assert_eq!(dump, tele.prom_dump());
        assert_eq!(dump.render(), text);
        // Headerless v1 text and untyped series are rejected.
        assert!(PromDump::parse("opm_points_total 3\n").is_err());
        let untyped = format!("{PROM_HEADER}\nopm_points_total 3\n");
        assert!(PromDump::parse(&untyped).is_err());
    }
}
