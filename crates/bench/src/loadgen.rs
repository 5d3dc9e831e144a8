//! `opm loadgen`: drive an `opm serve` daemon with open- or closed-loop
//! load and report throughput and latency percentiles as a
//! stable-schema `BENCH_serve.json`.
//!
//! Closed loop (`--concurrency C`): C workers, each on its own
//! connection, send their next request as soon as the previous response
//! arrives — throughput is limited by the daemon. Open loop
//! (`--rate R`): each worker sends on a fixed schedule regardless of
//! response progress, and a request's latency is measured from its
//! *scheduled* send time, so server-side queueing delay is charged to
//! the server (no coordinated omission).
//!
//! The query mix cycles deterministically through every kernel ×
//! configuration pair, so every run sends the same requests.

use crate::serve::Client;
use opm_core::api::{ApiError, Query, QueryResult, Request};
use opm_core::platform::OpmConfig;
use opm_kernels::registry::KernelId;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier written to (and asserted on) every report.
pub const SCHEMA: &str = "opm-bench-serve/v1";

/// Default output file (not committed: one run's numbers carry no
/// spread; the report's key sets are pinned by a unit test).
pub const DEFAULT_OUT: &str = "BENCH_serve.json";

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Daemon address, e.g. `127.0.0.1:7979`.
    pub addr: String,
    /// Total requests to send (closed loop) or the sending budget (open
    /// loop).
    pub requests: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Queries per request frame.
    pub batch: usize,
    /// Open-loop target rate in requests/s across all workers (`None` =
    /// closed loop).
    pub rate: Option<f64>,
    /// Send a shutdown request when done (the CI smoke job uses this to
    /// tear the daemon down deterministically).
    pub shutdown: bool,
    /// Where to write the JSON report (`None` = don't write).
    pub out: Option<PathBuf>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: format!("127.0.0.1:{}", crate::cli::DEFAULT_SERVE_PORT),
            requests: 256,
            concurrency: 4,
            batch: 1,
            rate: None,
            shutdown: false,
            out: Some(PathBuf::from(DEFAULT_OUT)),
        }
    }
}

/// One finished run's measurements.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// `open` or `closed`.
    pub mode: &'static str,
    /// Requests completed.
    pub requests: u64,
    /// Queries completed (requests × batch).
    pub queries: u64,
    /// Queries answered with `ok`.
    pub ok: u64,
    /// Queries shed with `overloaded`.
    pub overloaded: u64,
    /// Queries answered with any other typed error.
    pub errors: u64,
    /// Transport-level failures (connect/frame).
    pub transport_errors: u64,
    /// Wall-clock duration of the measurement, seconds.
    pub duration_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Completed queries per second.
    pub throughput_qps: f64,
    /// Request latencies, milliseconds (sorted).
    pub latencies_ms: Vec<f64>,
    /// Worker connections used.
    pub concurrency: usize,
    /// Queries per request.
    pub batch: usize,
    /// Open-loop target rate (0 = closed loop).
    pub rate_rps: f64,
}

impl LoadReport {
    /// Latency percentile in milliseconds (nearest-rank on the sorted
    /// sample; 0 when nothing completed).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.latencies_ms.len() as f64).ceil() as usize;
        self.latencies_ms[rank.clamp(1, self.latencies_ms.len()) - 1]
    }

    fn mean_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len() as f64
    }

    /// The stable `opm-bench-serve/v1` JSON document.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"ok\": {},\n", self.ok));
        s.push_str(&format!("  \"overloaded\": {},\n", self.overloaded));
        s.push_str(&format!("  \"errors\": {},\n", self.errors));
        s.push_str(&format!(
            "  \"transport_errors\": {},\n",
            self.transport_errors
        ));
        s.push_str(&format!("  \"concurrency\": {},\n", self.concurrency));
        s.push_str(&format!("  \"batch\": {},\n", self.batch));
        s.push_str(&format!("  \"rate_rps\": {},\n", json_f64(self.rate_rps)));
        s.push_str(&format!(
            "  \"duration_s\": {},\n",
            json_f64(self.duration_s)
        ));
        s.push_str(&format!(
            "  \"throughput_rps\": {},\n",
            json_f64(self.throughput_rps)
        ));
        s.push_str(&format!(
            "  \"throughput_qps\": {},\n",
            json_f64(self.throughput_qps)
        ));
        s.push_str("  \"latency_ms\": {\n");
        s.push_str(&format!(
            "    \"p50\": {},\n",
            json_f64(self.percentile_ms(50.0))
        ));
        s.push_str(&format!(
            "    \"p95\": {},\n",
            json_f64(self.percentile_ms(95.0))
        ));
        s.push_str(&format!(
            "    \"p99\": {},\n",
            json_f64(self.percentile_ms(99.0))
        ));
        s.push_str(&format!("    \"mean\": {},\n", json_f64(self.mean_ms())));
        s.push_str(&format!(
            "    \"max\": {}\n",
            json_f64(self.latencies_ms.last().copied().unwrap_or(0.0))
        ));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} loop: {} requests ({} queries) in {:.2}s = {:.0} req/s; \
             latency p50 {:.2} ms p95 {:.2} ms p99 {:.2} ms; \
             {} ok, {} overloaded, {} errors, {} transport",
            self.mode,
            self.requests,
            self.queries,
            self.duration_s,
            self.throughput_rps,
            self.percentile_ms(50.0),
            self.percentile_ms(95.0),
            self.percentile_ms(99.0),
            self.ok,
            self.overloaded,
            self.errors,
            self.transport_errors,
        )
    }
}

/// Non-finite values degrade to 0 (invalid JSON otherwise; the schema
/// check would reject them as values, keeping the degradation visible).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The deterministic query mix: query `k = i * batch + j` of request
/// `i` asks about kernel `KernelId::ALL[k % 8]` under configuration
/// `OpmConfig::ALL[k % 6]` with default parameters.
pub fn mix_request(i: usize, batch: usize) -> Request {
    let queries = (0..batch)
        .map(|j| {
            let k = i * batch + j;
            Query {
                kernel: KernelId::ALL[k % KernelId::ALL.len()].name().to_string(),
                config: OpmConfig::ALL[k % OpmConfig::ALL.len()].label().to_string(),
                ..Query::default()
            }
        })
        .collect();
    Request {
        id: i as u64,
        queries,
        shutdown: false,
    }
}

/// Run the load program against a live daemon.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadReport, String> {
    if opts.requests == 0 || opts.concurrency == 0 || opts.batch == 0 {
        return Err("loadgen: requests, concurrency, and batch must be positive".to_string());
    }
    let next = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let transport = Arc::new(AtomicU64::new(0));
    let interval = opts
        .rate
        .map(|r| Duration::from_secs_f64(opts.concurrency as f64 / r.max(1e-9)));

    let start = Instant::now();
    let mut workers = Vec::new();
    for worker in 0..opts.concurrency {
        let addr = opts.addr.clone();
        let next = Arc::clone(&next);
        let ok = Arc::clone(&ok);
        let overloaded = Arc::clone(&overloaded);
        let errors = Arc::clone(&errors);
        let transport = Arc::clone(&transport);
        let total = opts.requests;
        let batch = opts.batch;
        let conc = opts.concurrency;
        workers.push(std::thread::spawn(move || -> Vec<f64> {
            let mut latencies = Vec::new();
            let mut client = match Client::connect(&addr) {
                Ok(c) => c,
                Err(_) => {
                    transport.fetch_add(1, Ordering::Relaxed);
                    return latencies;
                }
            };
            // Open loop: each worker sends every `interval` (so the
            // fleet hits the target rate), staggered by its index so
            // sends spread evenly instead of arriving in volleys.
            let epoch = Instant::now()
                + interval
                    .map(|iv| iv.mul_f64(worker as f64 / conc as f64))
                    .unwrap_or(Duration::ZERO);
            let mut sent: u32 = 0;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return latencies;
                }
                let sent_at = match interval {
                    Some(iv) => {
                        let t = epoch + iv * sent;
                        let now = Instant::now();
                        if t > now {
                            std::thread::sleep(t - now);
                        }
                        t // latency from the *scheduled* time
                    }
                    None => Instant::now(),
                };
                sent += 1;
                let req = mix_request(i, batch);
                match client.roundtrip(&req) {
                    Ok(resp) => {
                        latencies.push(sent_at.elapsed().as_secs_f64() * 1e3);
                        for r in &resp.results {
                            match r {
                                QueryResult::Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                                QueryResult::Err(ApiError::Overloaded) => {
                                    overloaded.fetch_add(1, Ordering::Relaxed)
                                }
                                QueryResult::Err(_) => errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                    }
                    Err(_) => {
                        transport.fetch_add(1, Ordering::Relaxed);
                        // Reconnect once; a dead daemon drains the budget
                        // quickly rather than spinning.
                        match Client::connect(&addr) {
                            Ok(c) => client = c,
                            Err(_) => return latencies,
                        }
                    }
                }
            }
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for w in workers {
        latencies.extend(w.join().map_err(|_| "loadgen worker panicked")?);
    }
    let duration_s = start.elapsed().as_secs_f64().max(1e-9);

    if opts.shutdown {
        let mut client =
            Client::connect(&opts.addr).map_err(|e| format!("loadgen: shutdown connect: {e}"))?;
        // Ids ride a JSON double: stay at or below 2^53 - 1 or the
        // daemon rejects the document (and ignores the flag).
        let _ = client.roundtrip(&Request {
            id: 0,
            queries: Vec::new(),
            shutdown: true,
        })?;
    }

    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len() as u64;
    let report = LoadReport {
        mode: if opts.rate.is_some() {
            "open"
        } else {
            "closed"
        },
        requests,
        queries: requests * opts.batch as u64,
        ok: ok.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        transport_errors: transport.load(Ordering::Relaxed),
        duration_s,
        throughput_rps: requests as f64 / duration_s,
        throughput_qps: (requests * opts.batch as u64) as f64 / duration_s,
        latencies_ms: latencies,
        concurrency: opts.concurrency,
        batch: opts.batch,
        rate_rps: opts.rate.unwrap_or(0.0),
    };
    if let Some(out) = &opts.out {
        std::fs::write(out, report.render_json())
            .map_err(|e| format!("loadgen: writing {}: {e}", out.display()))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_cycles_kernels_and_configs() {
        let a = mix_request(0, 1);
        let b = mix_request(8, 1);
        assert_eq!(a.queries[0].kernel, b.queries[0].kernel);
        assert_ne!(a.queries[0].config, b.queries[0].config);
        let batch = mix_request(0, 3);
        assert_eq!(batch.queries.len(), 3);
        assert_ne!(batch.queries[0].kernel, batch.queries[1].kernel);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = LoadReport {
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            ..LoadReport::default()
        };
        assert_eq!(r.percentile_ms(50.0), 2.0);
        assert_eq!(r.percentile_ms(99.0), 4.0);
        assert_eq!(LoadReport::default().percentile_ms(50.0), 0.0);
    }

    #[test]
    fn report_json_is_schema_stable() {
        let r = LoadReport {
            mode: "closed",
            requests: 4,
            queries: 4,
            ok: 4,
            duration_s: 2.0,
            throughput_rps: 2.0,
            throughput_qps: 2.0,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            concurrency: 2,
            batch: 1,
            ..LoadReport::default()
        };
        let text = r.render_json();
        let doc = opm_core::api::Json::parse(&text).unwrap();
        assert_eq!(
            doc.root().get("schema").and_then(|v| v.as_str()),
            Some(SCHEMA)
        );
        // The exact key sets, top level and `latency_ms`, read off the
        // indented rendering: adding, dropping or renaming a field is a
        // schema change and must bump SCHEMA.
        let keys = |indent: &str| -> Vec<&str> {
            text.lines()
                .filter_map(|l| l.strip_prefix(indent)?.strip_prefix('"'))
                .filter_map(|l| Some(l.split_once("\":")?.0))
                .collect()
        };
        assert_eq!(
            keys("  "),
            [
                "schema",
                "mode",
                "requests",
                "queries",
                "ok",
                "overloaded",
                "errors",
                "transport_errors",
                "concurrency",
                "batch",
                "rate_rps",
                "duration_s",
                "throughput_rps",
                "throughput_qps",
                "latency_ms",
            ]
        );
        assert_eq!(keys("    "), ["p50", "p95", "p99", "mean", "max"]);
        let lat = doc.root().get("latency_ms").unwrap();
        assert_eq!(lat.get("p99").and_then(|v| v.as_f64()), Some(4.0));
    }

    #[test]
    fn json_f64_degrades_non_finite() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(0.25), "0.25");
    }
}
