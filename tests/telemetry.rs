//! Telemetry determinism and end-to-end acceptance tests.
//!
//! Determinism: the span *tree* (the sorted set of span paths) and every
//! counter total must be identical however many threads share the engine
//! and whichever thread runs which stage — span paths encode structure,
//! not scheduling, and counter increments commute.
//!
//! Acceptance: a reduced `--telemetry=full` campaign over two figures
//! must produce a JSONL trace whose every line parses as a strict JSON
//! trace event, one root span per figure, and a Prometheus dump whose memsim
//! counters reconcile (first-level hits + misses == total accesses).

use opm_core::api::Json;
use opm_core::platform::{EdramMode, McdramMode, OpmConfig};
use opm_core::telemetry::{
    parse_prom, CounterSnapshot, PromDump, SpanRecord, Telemetry, TelemetryMode, TelemetrySink,
};
use opm_kernels::sweeps::{gemm_sweep_on, stream_curve_on};
use opm_kernels::{Engine, EngineConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Collects the paths of completed spans.
#[derive(Default)]
struct SpanPaths(Mutex<Vec<String>>);

impl TelemetrySink for SpanPaths {
    fn span_end(&self, record: &SpanRecord) {
        self.0.lock().unwrap().push(record.path.clone());
    }
}

/// A fixed two-stage workload on a private engine wired to a fresh
/// telemetry instance, its stages pulled from a shared queue by
/// `threads` caller threads; returns the sorted span paths, the counter
/// snapshot, and the rendered v2 Prometheus exposition (counters,
/// roofline gauges, and latency histograms).
fn run_workload(threads: usize) -> (Vec<String>, Vec<CounterSnapshot>, String) {
    let tele = Telemetry::new(TelemetryMode::Full);
    let paths = Arc::new(SpanPaths::default());
    tele.add_sink(paths.clone());
    let engine = Engine::new(EngineConfig::default().with_telemetry(tele.clone()));
    let footprints: Vec<f64> = (1..=8).map(|i| i as f64 * 64.0 * 1024.0 * 1024.0).collect();
    let gemm = |e: &Engine| {
        let _ = gemm_sweep_on(
            e,
            OpmConfig::Broadwell(EdramMode::On),
            &[256, 4352],
            &[128, 1152],
        );
    };
    let stream = |e: &Engine| {
        let _ = stream_curve_on(e, OpmConfig::Knl(McdramMode::Flat), &footprints);
    };
    let stages: [&(dyn Fn(&Engine) + Sync); 2] = [&gemm, &stream];
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                while let Some(stage) = stages.get(next.fetch_add(1, Ordering::Relaxed)) {
                    stage(&engine);
                }
            });
        }
    });
    let mut paths = paths.0.lock().unwrap().clone();
    paths.sort();
    (paths, tele.snapshot_counters(), tele.render_prom())
}

#[test]
fn span_tree_is_identical_across_thread_counts() {
    let (baseline, _, _) = run_workload(1);
    // The tree is non-trivial: 2 stage roots + one point span per point.
    assert_eq!(baseline.len(), 2 + 4 + 8, "{baseline:?}");
    assert!(baseline
        .iter()
        .any(|p| p.contains('>') && p.contains("point:")));
    for threads in [2, 4] {
        let (paths, _, _) = run_workload(threads);
        assert_eq!(paths, baseline, "threads={threads}");
    }
}

#[test]
fn counters_are_exactly_equal_across_thread_counts() {
    let (_, baseline, _) = run_workload(1);
    let get = |snap: &[CounterSnapshot], metric: &str| {
        snap.iter()
            .find(|c| c.metric == metric)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    assert_eq!(get(&baseline, "opm_points_total"), 12);
    assert_eq!(get(&baseline, "opm_stages_total"), 2);
    for threads in [2, 4] {
        let (_, counters, _) = run_workload(threads);
        assert_eq!(counters, baseline, "threads={threads}");
    }
}

#[test]
fn prom_exposition_is_byte_identical_across_thread_counts() {
    // The whole v2 exposition — latency-histogram buckets (from the
    // deterministic modeled time), roofline gauges, and counters — must
    // render byte-for-byte identically however the stages are spread
    // over threads: observations commute and carry no wall-clock input.
    let (_, _, baseline) = run_workload(1);
    assert!(baseline.starts_with("# opm-telemetry v2"), "{baseline}");
    assert!(
        baseline.contains("# TYPE opm_point_latency_ns histogram"),
        "{baseline}"
    );
    assert!(baseline.contains("le=\"+Inf\""), "{baseline}");
    // Per-point roofline gauges exist for the stream curve (a point-
    // labeled family) and reconcile structurally: every ai gauge has a
    // matching ceiling fraction and per-level bandwidth series.
    let dump = PromDump::parse(&baseline).expect("v2 exposition parses");
    let ai: Vec<_> = dump
        .gauges
        .iter()
        .filter(|g| g.metric == "opm_roofline_ai_milli")
        .collect();
    assert_eq!(ai.len(), 8, "one ai gauge per stream point");
    for g in &ai {
        assert!(dump
            .gauges
            .iter()
            .any(|o| o.metric == "opm_roofline_ceiling_frac_milli" && o.labels == g.labels));
        assert!(dump
            .gauges
            .iter()
            .any(|o| o.metric == "opm_roofline_level_gbs_milli"
                && o.labels.starts_with(g.labels.as_str())));
    }
    // The histogram counts every point exactly once.
    let observed: u64 = dump
        .histograms
        .iter()
        .filter(|h| h.metric == "opm_point_latency_ns")
        .map(|h| h.count)
        .sum();
    assert_eq!(observed, 12);
    for threads in [2, 4] {
        let (_, _, prom) = run_workload(threads);
        assert_eq!(prom, baseline, "threads={threads}");
    }
}

/// Environment for the acceptance campaign — set once, before the
/// global engine starts.
fn acceptance_env() -> PathBuf {
    static INIT: Once = Once::new();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("telemetry_accept");
    INIT.call_once(|| {
        std::env::set_var("OPM_REDUCED", "1");
        std::env::set_var("OPM_TELEMETRY", "full");
        std::env::set_var("OPM_RUN_ID", "itest");
        std::env::remove_var("OPM_CORPUS");
        std::fs::create_dir_all(&dir).expect("create results dir");
        std::env::set_var("OPM_RESULTS", &dir);
    });
    dir
}

#[test]
fn full_telemetry_campaign_writes_reconciling_trace_and_prom() {
    let dir = acceptance_env();
    let names = vec![
        "fig12_stream_broadwell".to_string(),
        "fig23_stream_knl".to_string(),
    ];
    opm_bench::manifest::run_and_write(Some(&names));

    // --- the JSONL trace ---
    let trace_path = dir.join("telemetry").join("itest.jsonl");
    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", trace_path.display()));
    // Every line is one strict JSON trace event.
    let events: Vec<Json> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let ev = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line:?}", i + 1));
            assert!(ev.root().get("ph").is_some(), "line {}: no ph", i + 1);
            ev
        })
        .collect();
    let field = |ev: &Json, key: &str| -> String {
        ev.root()
            .get(key)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let arg = |ev: &Json, key: &str| -> String {
        let args = ev.root().get("args");
        args.and_then(|a| a.get(key))
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let run_start = events
        .iter()
        .find(|ev| field(ev, "name") == "run_start")
        .expect("run_start marker missing");
    assert_eq!(arg(run_start, "run"), "itest");
    assert!(
        events
            .iter()
            .any(|ev| field(ev, "name") == "run_end" && field(ev, "ph") == "i"),
        "run_end marker missing"
    );
    // One root span per figure, ended with status + point counts.
    for (fig, points) in [("fig12_stream_broadwell", "42"), ("fig23_stream_knl", "84")] {
        let end = events
            .iter()
            .find(|ev| {
                field(ev, "name") == fig && field(ev, "cat") == "figure" && field(ev, "ph") == "E"
            })
            .unwrap_or_else(|| panic!("no root span end for {fig}"));
        assert_eq!(
            (arg(end, "status"), arg(end, "points")),
            ("ok".into(), points.into())
        );
    }
    // Full mode: the trace carries per-point spans under each stage.
    assert!(
        events.iter().any(|ev| field(ev, "cat") == "point"),
        "no point spans in a full-mode trace"
    );
    // The last counter sample carries the run's total.
    let points_total = events
        .iter()
        .rev()
        .find(|ev| field(ev, "name") == "opm_points_total" && field(ev, "ph") == "C")
        .and_then(|ev| ev.root().get("args")?.get("value")?.as_u64());
    assert_eq!(points_total, Some(126));

    // --- the Prometheus dump ---
    let prom_path = dir.join("telemetry").join("metrics.prom");
    let prom = std::fs::read_to_string(&prom_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", prom_path.display()));
    let parsed = parse_prom(&prom).expect("metrics.prom must parse");
    let value = |metric: &str, labels: &str| {
        parsed
            .iter()
            .find(|(m, l, _)| m == metric && l == labels)
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("missing {metric}{{{labels}}}"))
    };
    assert_eq!(value("opm_points_total", ""), 126);
    // The memsim reconciliation identity on the aggregated counters:
    // every access enters the first chain level (L2 on both machines),
    // so its hits + misses must equal the total access count.
    let accesses = value("opm_memsim_accesses_total", "");
    assert!(accesses > 0);
    assert_eq!(
        value("opm_memsim_level_hits_total", "level=\"L2\"")
            + value("opm_memsim_level_misses_total", "level=\"L2\""),
        accesses
    );
    // Every exported level was actually exercised by the probe.
    for (m, l, v) in parsed
        .iter()
        .filter(|(m, _, _)| m == "opm_memsim_level_hits_total")
    {
        let misses = value("opm_memsim_level_misses_total", l);
        assert!(v + misses > 0, "{m}{{{l}}}: untouched level");
    }

    // --- the v2 exposition: schema line, histograms, roofline ---
    assert!(
        text.starts_with("{\"schema\":\"opm-telemetry/v2\""),
        "trace must lead with the schema record"
    );
    assert!(prom.starts_with("# opm-telemetry v2"), "{prom}");
    assert!(
        prom.contains("# TYPE opm_point_latency_ns histogram"),
        "{prom}"
    );
    let dump = PromDump::parse(&prom).expect("metrics.prom must parse typed");
    let hists: Vec<_> = dump
        .histograms
        .iter()
        .filter(|h| h.metric == "opm_point_latency_ns")
        .collect();
    // Every evaluated point was observed exactly once, under a
    // figure>stage path label, covering both figure families.
    assert_eq!(hists.iter().map(|h| h.count).sum::<u64>(), 126);
    for fig in ["fig12_stream_broadwell", "fig23_stream_knl"] {
        assert!(
            hists.iter().any(|h| h.labels.contains(fig)),
            "no latency series for {fig}"
        );
    }
    // Quantiles recomputed from the file are well-formed bucket edges.
    for h in &hists {
        let (p50, p99) = (h.quantile(0.50), h.quantile(0.99));
        assert!(p50 > 0 && p50 <= p99, "{}: p50 {p50} p99 {p99}", h.labels);
    }
    // Roofline attribution gauges exist for every stream point of both
    // figure families, each with its per-level bandwidth breakdown and a
    // positive ceiling fraction (cache reuse can push it past 1000 milli,
    // so only positivity is asserted here; the bound lives in roofline.rs).
    let ai: Vec<_> = dump
        .gauges
        .iter()
        .filter(|g| g.metric == "opm_roofline_ai_milli")
        .collect();
    assert!(!ai.is_empty(), "no roofline gauges in {prom}");
    for fig in ["fig12_stream_broadwell", "fig23_stream_knl"] {
        assert!(
            ai.iter().any(|g| g.labels.contains(fig)),
            "no roofline gauges for {fig}"
        );
    }
    for g in &ai {
        let frac = dump
            .gauges
            .iter()
            .find(|o| o.metric == "opm_roofline_ceiling_frac_milli" && o.labels == g.labels)
            .unwrap_or_else(|| panic!("no ceiling_frac for {}", g.labels));
        assert!(frac.value > 0, "{}: {}", g.labels, frac.value);
        let level_sum: u64 = dump
            .gauges
            .iter()
            .filter(|o| {
                o.metric == "opm_roofline_level_gbs_milli"
                    && o.labels.starts_with(g.labels.as_str())
            })
            .map(|o| o.value)
            .sum();
        assert!(level_sum > 0, "{}: no per-level bandwidth", g.labels);
    }
}
