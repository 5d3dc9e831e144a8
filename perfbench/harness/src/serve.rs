//! `serve-small` and `serve-batch`: an in-process `opm serve` daemon on
//! `127.0.0.1:0`, its engine configured as `opm serve` configures it,
//! driven by one closed-loop client connection.
//!
//! * `serve-small` sends the 48-key one-query mix of
//!   `loadgen::mix_request(i, 1)`; every lookup is a cache hit after
//!   warm-up, so framing and transport dominate.
//! * `serve-batch` sends 32 seeded queries per request over a key space
//!   several times the daemon's LRU bound, so every request inserts and
//!   evicts and the JSON codec carries ~23 KB replies.
//!
//! Every reply is checked, outside the timed span, to be byte-equal to
//! `serve::respond(..).render()` on a second engine with the same
//! configuration.

use crate::calib;
use crate::stats::{self, Fnv, Metrics, Outcome, Rng};
use crate::{Args, Report, Window};
use opm_bench::loadgen::mix_request;
use opm_bench::serve::{
    respond, Client, ServeStats, Server, DEFAULT_MAX_INFLIGHT, DEFAULT_SERVE_CACHE_CAP,
};
use opm_core::api::{Query, QueryResult, Request, Response};
use opm_core::config::Config;
use opm_core::telemetry::Telemetry;
use opm_kernels::engine::{Engine, EngineConfig};
use opm_kernels::registry::KernelId;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    Small,
    Batch,
}

/// Queries per `serve-batch` request.
const BATCH: usize = 32;
/// Distinct sizes per kernel and machine in `serve-batch`: 8 kernels x
/// 2 machines x 1024 sizes = 16 Ki keys, 4x the daemon's LRU bound.
const SIZES: u64 = 1024;
/// Generated `serve-batch` requests (cycled).
const BATCH_REQUESTS: usize = 1024;
/// Warm-up requests per set-up.
const WARMUP_SMALL: usize = 480;
const WARMUP_BATCH: usize = 16;
/// Ops after warm-up over which exact counts are taken.
const EXACT_OPS: usize = 32;

/// An engine configured the way `opm serve` configures its own.
fn serve_engine() -> Result<Arc<Engine>, String> {
    let cfg = Config::from_env().map_err(|e| e.to_string())?;
    let mut ec = EngineConfig::from_config(&cfg).with_telemetry(Telemetry::new(cfg.telemetry));
    ec.cache_capacity = ec.cache_capacity.or(Some(DEFAULT_SERVE_CACHE_CAP));
    Ok(Arc::new(Engine::new(ec)))
}

/// The seeded `serve-batch` request stream.
fn batch_requests(seed: u64) -> Vec<Request> {
    let configs = crate::all_configs();
    let mut rng = Rng::new(seed);
    (0..BATCH_REQUESTS)
        .map(|i| {
            let queries = (0..BATCH)
                .map(|_| {
                    let kernel = KernelId::ALL[rng.below(KernelId::ALL.len() as u64) as usize];
                    let config = configs[rng.below(configs.len() as u64) as usize];
                    let s = rng.below(SIZES);
                    let mut q = Query {
                        kernel: kernel.name().to_string(),
                        config: config.label().to_string(),
                        ..Query::default()
                    };
                    match kernel {
                        KernelId::Gemm | KernelId::Cholesky => q.n = Some(1024 + 16 * s),
                        KernelId::Fft => q.n = Some(96 + 2 * s),
                        KernelId::Spmv | KernelId::Sptrans | KernelId::Sptrsv => {
                            q.rows = Some(100_000 + 1000 * s);
                            q.nnz = Some(15 * (100_000 + 1000 * s));
                        }
                        KernelId::Stencil => q.grid = Some(128 + 2 * s),
                        KernelId::Stream => q.footprint_mb = Some(64.0 + 16.0 * s as f64),
                    }
                    q
                })
                .collect();
            Request {
                id: i as u64,
                queries,
                shutdown: false,
            }
        })
        .collect()
}

fn inputs(mix: Mix, seed: u64) -> Vec<Request> {
    match mix {
        Mix::Small => (0..48).map(|i| mix_request(i, 1)).collect(),
        Mix::Batch => batch_requests(seed),
    }
}

/// A running daemon with its connected client.
struct Daemon {
    engine: Arc<Engine>,
    client: Client,
    thread: JoinHandle<std::io::Result<ServeStats>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let engine = serve_engine()?;
        let server = Server::bind("127.0.0.1:0", engine.clone(), DEFAULT_MAX_INFLIGHT)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"))?;
        Ok(Daemon {
            engine,
            client,
            thread,
        })
    }

    fn stop(mut self) -> Result<ServeStats, String> {
        let bye = Request {
            id: u64::from(u32::MAX),
            queries: Vec::new(),
            shutdown: true,
        };
        self.client.roundtrip(&bye)?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One round trip: render, frame I/O, decode. Returns the raw reply too.
fn roundtrip(client: &mut Client, req: &Request) -> Result<(String, Response), String> {
    let text = req.render();
    let raw = client.roundtrip_raw(&text)?;
    let resp = Response::parse(&raw)?;
    Ok((raw, resp))
}

/// Compare a reply with the in-process answer; every query must succeed.
fn check(reference: &Engine, req: &Request, raw: &str, resp: &Response) -> Result<(), String> {
    let (want, _) = stats::timed("serve.respond", || respond(reference, req));
    let (want_text, _) = stats::timed("api.response_render", || want.render());
    if raw != want_text {
        return Err(format!(
            "request {}: reply differs from serve::respond",
            req.id
        ));
    }
    for r in &resp.results {
        if let QueryResult::Err(e) = r {
            return Err(format!("request {}: {} {}", req.id, e.kind(), e.detail()));
        }
    }
    Ok(())
}

pub fn run(a: &Args, w: &Window, mix: Mix) -> Result<Report, String> {
    let mut outcome = Outcome::default();
    let (warmup, weights) = match mix {
        Mix::Small => (WARMUP_SMALL, calib::STANDARD),
        Mix::Batch => (WARMUP_BATCH, calib::L1_HEAVY),
    };

    // Set-up: daemon start, input generation and warm-up.
    let mut d = Daemon::start()?;
    let requests = inputs(mix, a.seed);
    for req in requests.iter().cycle().take(warmup) {
        if let Err(e) = roundtrip(&mut d.client, req) {
            outcome.fail(format!("warm-up: {e}"));
        }
    }
    let reference = serve_engine()?;
    for req in requests.iter().cycle().take(warmup) {
        respond(&reference, req);
    }
    let engine_threads = d.engine.config().threads;
    let mut stream = requests.iter().cycle().skip(warmup % requests.len());

    let mut ms = stats::Samples::new(weights);
    let setup_s = ms.setup_s();
    let mut exact = ExactCounts::default();
    let cache0 = d.engine.cache_stats();
    let t0 = Instant::now();
    while t0.elapsed() < w.untraced || ms.count() < EXACT_OPS as u64 {
        let req = stream.next().expect("cycled");
        let (out, t) = stats::time_op(|| roundtrip(&mut d.client, req));
        let result = out.and_then(|(raw, resp)| {
            if ms.count() < EXACT_OPS as u64 {
                exact.request_bytes += req.render().len() as u64;
                exact.response_bytes += raw.len() as u64;
            }
            check(&reference, req, &raw, &resp)
        });
        outcome.record(result);
        ms.push(t, req.queries.len() as u64);
        if ms.count() == EXACT_OPS as u64 {
            let c = d.engine.cache_stats().since(cache0);
            exact.misses = c.misses;
            exact.hits = c.hits;
        }
    }
    let window = ms.summary();
    let mut m = Metrics::default();
    if !a.trace {
        crate::set_end_to_end(&mut m, &window, setup_s);
    } else {
        stats::set_tracing(true);
        let mut traced = stats::Samples::new(weights);
        let t1 = Instant::now();
        while t1.elapsed() < w.traced || traced.count() == 0 {
            let req = stream.next().expect("cycled");
            stats::set_op(traced.count() as u32);
            let (out, t) = stats::time_op(|| roundtrip(&mut d.client, req));
            let result = out.and_then(|(raw, resp)| {
                let (text, _) = stats::timed("api.request_render", || req.render());
                let (parsed, _) = stats::timed("api.request_parse", || Request::parse(&text));
                let (decoded, _) = stats::timed("api.response_parse", || Response::parse(&raw));
                if parsed.as_ref() != Ok(req) || decoded.as_ref() != Ok(&resp) {
                    return Err(format!("request {}: codec replay disagrees", req.id));
                }
                check(&reference, req, &raw, &resp)
            });
            outcome.record(result);
            traced.push(t, req.queries.len() as u64);
        }
        stats::set_tracing(false);
        let traced = traced.summary();
        let us = |name| stats::median_ms(name) * 1e3;
        let codec = [
            "api.request_render",
            "api.request_parse",
            "serve.respond",
            "api.response_render",
            "api.response_parse",
        ];
        for name in codec {
            m.set(format!("{name}_us"), us(name), "us");
        }
        let op_us = traced.wall_ms * 1e3;
        let unattributed = op_us - codec.iter().map(|n| us(n)).sum::<f64>();
        m.set("serve.unattributed_us", unattributed, "us");
        m.set("unattributed_ms", unattributed / 1e3, "ms");
        m.set("serve.op_p99_ms", traced.p99_ms, "ms");
        m.set("serve.op_samples", traced.p99_samples as f64, "count");
        m.set("api.request_bytes", exact.request_bytes as f64, "bytes");
        m.set("api.response_bytes", exact.response_bytes as f64, "bytes");
        m.set("engine.cache_misses", exact.misses as f64, "count");
        m.set(
            "engine.cache_lookups",
            (exact.hits + exact.misses) as f64,
            "count",
        );
        m.set(
            "engine.cache_hit_ratio",
            exact.hits as f64 / (exact.hits + exact.misses).max(1) as f64,
            "ratio",
        );
        crate::set_overhead(&mut m, &window, traced.wall_ms);
    }
    let served = d.stop()?;
    if served.shed + served.malformed > 0 {
        outcome.fail(format!(
            "daemon shed {} and rejected {} requests",
            served.shed, served.malformed
        ));
    }
    if a.trace {
        m.set("serve.shed", served.shed as f64, "count");
        m.set("serve.malformed", served.malformed as f64, "count");
    }
    let mut digest = Fnv::default();
    for r in &requests {
        digest.bytes(r.render().as_bytes());
    }
    Ok(Report {
        outcome,
        metrics: m,
        exact: vec![
            ("engine.cache_misses".into(), exact.misses),
            ("engine.cache_hits".into(), exact.hits),
            ("api.request_bytes".into(), exact.request_bytes),
            ("api.response_bytes".into(), exact.response_bytes),
        ],
        inputs_digest: digest.0,
        engine_threads,
        window: window.json(),
    })
}

/// Counts over the first `EXACT_OPS` ops after warm-up.
#[derive(Default)]
struct ExactCounts {
    request_bytes: u64,
    response_bytes: u64,
    misses: u64,
    hits: u64,
}
