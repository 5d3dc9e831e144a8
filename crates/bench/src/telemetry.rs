//! Run-level telemetry wiring for the figure harness.
//!
//! [`init`] attaches a chrome-trace JSONL journal
//! (`results/telemetry/<run>.jsonl`) to the telemetry instance the
//! engine reports into; [`TelemetryRun::finish`] closes the run — it
//! executes the deterministic [`memsim_probe`], publishes every counter,
//! and writes the Prometheus exposition to
//! `results/telemetry/metrics.prom`. The JSONL journal is a post-hoc
//! record of the run; `run_manifest.csv` and `metrics.prom` carry its
//! per-figure and per-counter totals.

use crate::out_dir;
use opm_core::platform::{Machine, OpmConfig};
use opm_core::telemetry::{flight_dump, install_flight_recorder, JsonlSink, Telemetry};
use opm_memsim::{HierarchySim, Trace};
use std::path::PathBuf;
use std::sync::{Arc, Once};
use std::time::Duration;

/// Directory holding the JSONL traces and the Prometheus dump
/// (`<out_dir>/telemetry`).
pub fn telemetry_dir() -> PathBuf {
    out_dir().join("telemetry")
}

/// Identifier naming this run's trace file: `OPM_RUN_ID` if set (CI pins
/// it for stable artifact names), else `run-<pid>`.
pub fn run_id() -> String {
    opm_core::config::Config::from_env_or_die()
        .run_id
        .map(|v| {
            v.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| format!("run-{}", std::process::id()))
}

/// Handle to an initialized telemetry run; [`finish`](Self::finish) it
/// after the figures complete.
pub struct TelemetryRun {
    /// The JSONL trace being written.
    pub trace_path: PathBuf,
    /// Where [`finish`](Self::finish) writes the Prometheus exposition.
    pub prom_path: PathBuf,
    tele: Arc<Telemetry>,
}

/// Attach the JSONL trace sink for this run and emit the `run_start`
/// marker. Returns `None` (and stays silent on the hot path) when the
/// mode is `off`, or when the trace file cannot be created.
pub fn init(tele: &Arc<Telemetry>) -> Option<TelemetryRun> {
    if !tele.enabled() {
        return None;
    }
    let dir = telemetry_dir();
    let id = run_id();
    let trace_path = dir.join(format!("{id}.jsonl"));
    match JsonlSink::create(&trace_path) {
        Ok(sink) => tele.add_sink(sink),
        Err(e) => {
            eprintln!("telemetry: cannot create {}: {e}", trace_path.display());
            return None;
        }
    }
    // The flight recorder sees every span (including per-point begins)
    // and instant; its dumps are the crash post-mortem of this process.
    let recorder = install_flight_recorder(&dir.join(format!("flight-{id}.jsonl")));
    tele.add_sink(recorder);
    install_flight_hooks();
    tele.instant(
        "run_start",
        &[
            ("run".to_string(), id),
            ("mode".to_string(), tele.mode().label().to_string()),
        ],
    );
    Some(TelemetryRun {
        trace_path,
        prom_path: dir.join("metrics.prom"),
        tele: tele.clone(),
    })
}

/// One-time process hooks backing the flight recorder: a chained panic
/// hook dumping on any panic (injected faults included), and a detached
/// periodic dump thread so even an external SIGKILL (an operator's
/// `kill -9`, an OOM kill) leaves a post-mortem no older than the dump
/// interval. A periodic dump with no new event writes nothing, so an
/// idle process (a quiet `opm serve`) does no file I/O.
fn install_flight_hooks() {
    static HOOKS: Once = Once::new();
    HOOKS.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight_dump("panic");
            prev(info);
        }));
        std::thread::Builder::new()
            .name("opm-flight-dump".into())
            .spawn(|| loop {
                std::thread::sleep(Duration::from_millis(250));
                flight_dump("periodic");
            })
            .ok();
    });
}

impl TelemetryRun {
    /// Close the run: run the memsim probe, publish every counter into
    /// the trace, emit `run_end`, write `metrics.prom`, and detach the
    /// sinks (so a later run in the same process re-initializes
    /// cleanly).
    pub fn finish(self) {
        memsim_probe(&self.tele);
        self.tele.publish_counters();
        self.tele.publish_histograms();
        self.tele.instant("run_end", &[]);
        match self.tele.write_prom(&self.prom_path) {
            Ok(()) => eprintln!(
                "telemetry: {} + {}",
                self.trace_path.display(),
                self.prom_path.display()
            ),
            Err(e) => eprintln!("telemetry: writing {}: {e}", self.prom_path.display()),
        }
        self.tele.clear_sinks();
    }
}

/// Line-granularity cyclic sweep used by the probe (one touch per
/// 64-byte line).
fn line_sweep(bytes: u64, passes: usize) -> Trace {
    let mut t = Trace::new();
    for _ in 0..passes {
        let mut a = 0;
        while a < bytes {
            t.read(a, 8);
            a += 64;
        }
    }
    t
}

/// Deterministic exact-simulation probe: run a fixed streaming sweep
/// through every OPM configuration on the milli-machine hierarchy,
/// verify each result's flow invariants, and publish the per-level
/// hit/miss/eviction/bytes-moved counters. This is what puts real
/// memsim traffic into every `--telemetry` run — the figure pipelines
/// themselves evaluate the analytic model, which touches no simulated
/// hierarchy.
pub fn memsim_probe(tele: &Telemetry) {
    const SCALE: u64 = 1024;
    let mut span = tele.span("probe", "memsim_probe");
    let mut total = 0u64;
    for config in OpmConfig::ALL {
        // Footprints chosen to exercise the whole hierarchy at milli
        // scale: past L3 but inside the eDRAM victim cache on Broadwell
        // (96 KiB of its 128 KiB — a cyclic sweep larger than an LRU
        // level never re-hits it), and past the flat/cache partitions on
        // KNL (24 MiB vs. MCDRAM's 16 MiB).
        let bytes = match config.machine() {
            Machine::Broadwell => 96 * 1024,
            Machine::Knl => 24 * 1024 * 1024,
        };
        let mut sim = HierarchySim::for_config(config, SCALE);
        sim.run(&line_sweep(bytes, 2));
        let r = sim.result();
        if let Err(e) = r.reconcile() {
            // An inconsistent simulator is a bug worth failing loudly on
            // in tests, but a telemetry probe must not kill a campaign.
            eprintln!("telemetry: memsim probe {config:?} failed reconciliation: {e}");
            continue;
        }
        r.publish(tele);
        // Derived per-level byte-share gauges (milli), computed from the
        // same SimResult counters published above so the two views
        // reconcile exactly.
        for (level, share) in r.level_byte_shares() {
            tele.set_gauge(
                "opm_memsim_level_bytes_share_milli",
                &format!("config=\"{}\",level=\"{level}\"", config.label()),
                share,
            );
        }
        total += r.accesses;
    }
    span.arg("accesses", total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::telemetry::{parse_prom, TelemetryMode};

    #[test]
    fn run_id_sanitizes_and_falls_back() {
        let _lock = crate::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::env::set_var("OPM_RUN_ID", "ci run/42");
        assert_eq!(run_id(), "ci_run_42");
        std::env::set_var("OPM_RUN_ID", "");
        assert!(run_id().starts_with("run-"));
        std::env::remove_var("OPM_RUN_ID");
        assert!(run_id().starts_with("run-"));
    }

    #[test]
    fn init_is_none_when_telemetry_is_off() {
        let tele = Telemetry::off();
        assert!(init(&tele).is_none());
    }

    #[test]
    fn probe_counters_reconcile_per_level() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        memsim_probe(&tele);
        let parsed = parse_prom(&tele.render_prom()).unwrap();
        let value = |metric: &str, labels: &str| {
            parsed
                .iter()
                .find(|(m, l, _)| m == metric && l == labels)
                .map(|(_, _, v)| *v)
                .unwrap_or_else(|| panic!("missing {metric}{{{labels}}}"))
        };
        // The acceptance identity on the aggregated counters: per level,
        // the accesses that reached it are exactly hits + misses — both
        // published from the same reconciled SimResult.
        let levels: Vec<String> = parsed
            .iter()
            .filter(|(m, _, _)| m == "opm_memsim_level_hits_total")
            .map(|(_, l, _)| l.clone())
            .collect();
        assert!(levels.iter().any(|l| l.contains("L2")));
        assert!(levels.iter().any(|l| l.contains("MCDRAM")));
        for l in &levels {
            let hits = value("opm_memsim_level_hits_total", l);
            let misses = value("opm_memsim_level_misses_total", l);
            assert!(hits + misses > 0, "{l}: untouched level");
            let bytes = value("opm_memsim_level_bytes_moved_total", l);
            assert!(bytes >= misses * 64, "{l}");
        }
        assert!(value("opm_memsim_accesses_total", "") > 0);
        assert!(value("opm_memsim_victim_hits_total", "") > 0);
        assert!(value("opm_memsim_flat_served_total", "") > 0);
        assert!(value("opm_memsim_dram_served_total", "") > 0);
    }

    #[test]
    fn probe_is_deterministic() {
        let a = Telemetry::new(TelemetryMode::Summary);
        let b = Telemetry::new(TelemetryMode::Summary);
        memsim_probe(&a);
        memsim_probe(&b);
        assert_eq!(a.snapshot_counters(), b.snapshot_counters());
        assert_eq!(a.snapshot_gauges(), b.snapshot_gauges());
    }

    #[test]
    fn probe_byte_share_gauges_reconcile_per_config() {
        let tele = Telemetry::new(TelemetryMode::Summary);
        memsim_probe(&tele);
        let gauges: Vec<_> = tele
            .snapshot_gauges()
            .into_iter()
            .filter(|g| g.metric == "opm_memsim_level_bytes_share_milli")
            .collect();
        assert!(!gauges.is_empty());
        // Every probed configuration reports shares, each bounded by
        // 1000 milli and summing to ~1000 within per-level rounding.
        let mut configs: Vec<String> = gauges
            .iter()
            .filter_map(|g| {
                g.labels
                    .split(',')
                    .find(|p| p.starts_with("config="))
                    .map(str::to_string)
            })
            .collect();
        configs.sort();
        configs.dedup();
        assert_eq!(configs.len(), 6, "{configs:?}");
        for cfg in &configs {
            let shares: Vec<u64> = gauges
                .iter()
                .filter(|g| g.labels.contains(cfg.as_str()))
                .map(|g| g.value)
                .collect();
            assert!(shares.iter().all(|&s| s <= 1000), "{cfg}: {shares:?}");
            let sum: u64 = shares.iter().sum();
            let n = shares.len() as u64;
            assert!(sum >= 1000 - n && sum <= 1000 + n, "{cfg}: sum {sum}");
        }
    }
}
