//! Metrics, medians, digests and the in-memory span recorder.

use crate::calib;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set (or replace) one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    /// `{"name":{"value":v,"unit":"u"},...}`. A non-finite value is
    /// rendered as `null` so the caller's finiteness check fails loudly.
    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Attempted and failed ops, with the first few failure messages.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one op; `Err` marks it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Count a failure that is not an op of its own (a set-up check).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(e);
        }
    }
}

/// Ops kept by [`Samples`]. The storage is allocated and touched up
/// front, so the op count of a run does not move its peak RSS; ops
/// past it are counted but not kept.
const SAMPLE_CAP: usize = 1 << 19;

/// A window is cut into slices of consecutive ops at least this long;
/// the host's speed is measured at every slice boundary.
const SLICE: Duration = Duration::from_secs(1);

/// Wall and CPU time of one op.
#[derive(Clone, Copy)]
pub struct OpTime {
    pub wall: Duration,
    pub cpu: Duration,
}

/// Run one op, timing it in wall time (recorded as the span `op` when
/// tracing) and in the CPU time of the whole process, so that work the
/// op hands to other threads is counted.
pub fn time_op<R>(f: impl FnOnce() -> R) -> (R, OpTime) {
    let cpu0 = calib::process_cpu();
    let (out, wall) = timed("op", f);
    let cpu = calib::process_cpu() - cpu0;
    (out, OpTime { wall, cpu })
}

/// Consecutive ops spanning at least [`SLICE`], with the reference
/// kernel's part times measured after them.
struct Slice {
    /// The slice's ops in `Samples::wall` / `Samples::cpu`.
    end: usize,
    items: u64,
    parts: [f64; 4],
}

/// The ops of one window. Each op's CPU time is divided by the host
/// speed factor in effect around it: the mean of the factors measured
/// at the start and the end of its slice (see [`calib`]).
pub struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    slices: Vec<Slice>,
    open_items: u64,
    slice_start: Instant,
    weights: calib::Weights,
    /// Reference part times measured when the window opened.
    parts0: [f64; 4],
    /// Process CPU time when the window opened.
    setup: Duration,
    ops: u64,
    start: Instant,
    cpu0: Duration,
    steal0: f64,
}

/// What a window of ops measured.
pub struct Summary {
    /// Median op CPU time over the host speed factor, in milliseconds.
    pub op_ms: f64,
    /// Kept ops and their items over their summed scaled CPU time.
    pub ops_per_s: f64,
    pub items_per_s: f64,
    /// Median op wall time and CPU time, in milliseconds, as measured.
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// Nearest-rank 99th percentile op wall time, in milliseconds, and
    /// the number of kept ops it was taken from.
    pub p99_ms: f64,
    pub p99_samples: u64,
    /// Median host speed factor over the window's slice boundaries,
    /// and the median time of each reference part, in milliseconds.
    pub factor: f64,
    pub parts_ms: [f64; 4],
    /// Ops in the whole window.
    pub ops: u64,
    /// Steal over the window, as a share of the host's CPU time.
    pub steal_share: f64,
    /// Window wall time and this process's CPU time over it, in seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Summary {
    /// The window's accounting, as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"ops\":{},\"wall_s\":{:.3},\"cpu_s\":{:.3},\"steal_share\":{:.4},\
             \"op_wall_ms\":{:.6},\"op_cpu_ms\":{:.6},\"speed_factor\":{:.4},\"reference_ms\":{{{}}}}}",
            self.ops,
            self.wall_s,
            self.cpu_s,
            self.steal_share,
            self.wall_ms,
            self.cpu_ms,
            self.factor,
            calib::PARTS
                .iter()
                .zip(self.parts_ms)
                .map(|(n, v)| format!("\"{n}\":{v:.4}"))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn vcpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

impl Samples {
    /// Open a window whose ops are scaled by the host speed factor
    /// under `weights`.
    pub fn new(weights: calib::Weights) -> Samples {
        let setup = calib::process_cpu();
        let mut wall = vec![1.0; SAMPLE_CAP];
        wall.clear();
        let mut cpu = vec![1.0; SAMPLE_CAP];
        cpu.clear();
        let parts0 = calib::measure();
        Samples {
            wall,
            cpu,
            slices: Vec::new(),
            open_items: 0,
            slice_start: Instant::now(),
            weights,
            parts0,
            setup,
            ops: 0,
            start: Instant::now(),
            cpu0: calib::process_cpu(),
            steal0: steal_s(),
        }
    }

    /// Set-up time: the process's CPU time from its start to the
    /// window's, over the host speed factor measured then, in seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup.as_secs_f64() / self.weights.factor(self.parts0)
    }

    /// Record one op that completed `items` items.
    pub fn push(&mut self, t: OpTime, items: u64) {
        self.ops += 1;
        if self.wall.len() < SAMPLE_CAP {
            self.wall.push(t.wall.as_secs_f64() * 1e3);
            self.cpu.push(t.cpu.as_secs_f64() * 1e3);
            self.open_items += items;
        }
        if self.slice_start.elapsed() >= SLICE {
            self.close();
        }
    }

    fn close(&mut self) {
        self.slices.push(Slice {
            end: self.wall.len(),
            items: std::mem::take(&mut self.open_items),
            parts: calib::measure(),
        });
        self.slice_start = Instant::now();
    }

    /// Ops recorded.
    pub fn count(&self) -> u64 {
        self.ops
    }

    /// Close the window and summarise it.
    pub fn summary(&mut self) -> Summary {
        let (wall_s, cpu_s) = (
            self.start.elapsed().as_secs_f64(),
            (calib::process_cpu() - self.cpu0).as_secs_f64(),
        );
        let steal = steal_s() - self.steal0;
        if self.slices.last().map_or(0, |s| s.end) < self.wall.len() {
            self.close();
        }
        let cpu_ms = quantile(&self.cpu, 0.5);
        let mut parts = vec![self.parts0];
        parts.extend(self.slices.iter().map(|s| s.parts));
        let factors: Vec<f64> = parts.iter().map(|&p| self.weights.factor(p)).collect();
        let mut first = 0;
        let mut items = 0;
        for (i, s) in self.slices.iter().enumerate() {
            let f = (factors[i] + factors[i + 1]) / 2.0;
            for ms in &mut self.cpu[first..s.end] {
                *ms /= f;
            }
            items += s.items;
            first = s.end;
        }
        let scaled_s: f64 = self.cpu.iter().sum::<f64>() / 1e3;
        self.cpu.sort_by(f64::total_cmp);
        self.wall.sort_by(f64::total_cmp);
        Summary {
            op_ms: sorted_quantile(&self.cpu, 0.5),
            ops_per_s: self.cpu.len() as f64 / scaled_s,
            items_per_s: items as f64 / scaled_s,
            wall_ms: sorted_quantile(&self.wall, 0.5),
            cpu_ms,
            p99_ms: sorted_nearest(&self.wall, 99.0),
            p99_samples: self.wall.len() as u64,
            factor: median(&factors),
            parts_ms: std::array::from_fn(|i| {
                median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>())
            }),
            ops: self.ops,
            steal_share: steal / (wall_s * vcpus()),
            wall_s,
            cpu_s,
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_quantile(&v, q)
}

/// [`quantile`] of an already sorted sample.
fn sorted_quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` in (0, 100] of a sorted sample.
fn sorted_nearest(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// 64-bit FNV-1a, for pinned output digests.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// FNV-1a digest of a byte string.
pub fn fnv(b: &[u8]) -> u64 {
    Fnv::default().bytes(b).0
}

/// SplitMix64: the seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Time stolen by the hypervisor from all vCPUs so far, in seconds
/// (`/proc/stat`, 10 ms resolution).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Escape a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded span: a call into a layer, made while timing op `op`.
struct Span {
    name: &'static str,
    op: u32,
    start_ns: u64,
    dur_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span recording on or off (off by default).
pub fn set_tracing(on: bool) {
    epoch();
    REC.with(|r| r.borrow_mut().on = on);
}

/// Number the op that following spans belong to.
pub fn set_op(op: u32) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Run `f`, returning its result and duration; with tracing on, also
/// record a span named `name` (nested under any open span).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let op = r.op;
        r.spans.push(Span {
            name,
            op,
            start_ns: 0,
            dur_ns: 0,
            parent,
        });
        r.open.push(idx);
        Some(idx)
    });
    let t0 = Instant::now();
    let out = f();
    let d = t0.elapsed();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.open.pop();
            let s = &mut r.spans[idx as usize];
            s.start_ns = (t0 - epoch()).as_nanos() as u64;
            s.dur_ns = d.as_nanos() as u64;
        });
    }
    (out, d)
}

/// Per-op totals of the spans named `name`, in milliseconds, over the
/// ops that recorded at least one.
pub fn per_op_ms(name: &str) -> Vec<f64> {
    REC.with(|r| {
        let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
        for s in r.borrow().spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ns;
        }
        by_op.values().map(|&ns| ns as f64 / 1e6).collect()
    })
}

/// Median per-op total of the spans named `name`, in milliseconds.
pub fn median_ms(name: &str) -> f64 {
    median(&per_op_ms(name))
}

/// Write every recorded span as JSON lines.
pub fn write_spans(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        for (i, s) in r.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.op,
                s.start_ns,
                s.start_ns + s.dur_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}
