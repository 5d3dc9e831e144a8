//! `opm serve`: the §6 mode advisor as a long-running what-if query
//! daemon, plus the one evaluation path it shares with `opm advise`.
//!
//! The daemon speaks `opm-api/v1` (see [`opm_core::api`]): length-prefixed
//! JSON frames over TCP, one [`Request`] batch per frame, answered in
//! order. Both the daemon and the one-shot `opm advise` path funnel every
//! query through [`respond`], so the two produce *byte-identical*
//! responses for the same request by construction — there is no second
//! evaluation code path to drift.
//!
//! Every query builds its profile in place ([`PlannedProfile::compute`],
//! about a microsecond): no memo is kept across queries or requests,
//! because a lookup, insert and eviction cost more than the build, and a
//! daemon without one holds no state that grows with its clients.
//!
//! Backpressure is load-shedding, not stalling: requests beyond the
//! `--max-inflight` bound receive an immediate typed `overloaded`
//! response per query (clients retry with backoff), so a burst cannot
//! queue unboundedly behind slow evaluations.

use crate::cli::parse_kernel;
use opm_core::api::{
    read_frame, write_frame, Advice, ApiError, FrameError, LevelTraffic, Query, QueryResult,
    Request, Response, MAX_FRAME_LEN,
};
use opm_core::guideline::{explain_mcdram, recommend_mcdram, Workload};
use opm_core::perf::PerfModel;
use opm_core::platform::{Machine, McdramMode, OpmConfig, PlatformSpec};
use opm_core::power::PowerModel;
use opm_core::profile::AccessProfile;
use opm_core::units::MIB;
use opm_kernels::engine::{catch_quietly, Engine, PlannedProfile};
use opm_kernels::registry::KernelId;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default bound on requests evaluated concurrently before the daemon
/// load-sheds with `overloaded`.
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// Unused: the daemon memoizes no profiles. Kept only because the
/// benchmark harness sets it as [`EngineConfig::cache_capacity`]
/// (itself ignored).
///
/// [`EngineConfig::cache_capacity`]: opm_kernels::engine::EngineConfig::cache_capacity
pub const DEFAULT_SERVE_CACHE_CAP: usize = 4096;

// ---------------------------------------------------------------------
// The shared evaluation path
// ---------------------------------------------------------------------

/// Query parameters resolved against the documented defaults (the same
/// defaults as `opm model`, so a bare `{kernel, config}` query answers
/// the paper's reference point).
struct Resolved {
    n: usize,
    tile: usize,
    rows: usize,
    nnz: usize,
    grid: usize,
    threads: usize,
    span: f64,
    levels: f64,
    footprint_mb: f64,
}

fn positive_usize(v: Option<u64>, default: usize, name: &str) -> Result<usize, ApiError> {
    match v {
        None => Ok(default),
        Some(0) => Err(ApiError::BadParam(format!("{name:?} must be positive"))),
        Some(v) => Ok(v as usize),
    }
}

fn positive_f64(v: Option<f64>, default: f64, name: &str) -> Result<f64, ApiError> {
    match v {
        None => Ok(default),
        Some(v) if v > 0.0 && v.is_finite() => Ok(v),
        Some(_) => Err(ApiError::BadParam(format!(
            "{name:?} must be a positive finite number"
        ))),
    }
}

impl Resolved {
    fn new(kernel: KernelId, machine: Machine, q: &Query) -> Result<Resolved, ApiError> {
        let dense_n = if matches!(kernel, KernelId::Fft) {
            400
        } else {
            8192
        };
        let p = Resolved {
            n: positive_usize(q.n, dense_n, "n")?,
            tile: positive_usize(q.tile, 384, "tile")?,
            rows: positive_usize(q.rows, 1_000_000, "rows")?,
            nnz: positive_usize(q.nnz, 15_000_000, "nnz")?,
            grid: positive_usize(q.grid, 512, "grid")?,
            threads: positive_usize(q.threads, kernel.threads(machine), "threads")?,
            span: positive_f64(q.span, 400_000.0, "span")?,
            levels: positive_f64(q.levels, 300.0, "levels")?,
            footprint_mb: positive_f64(q.footprint_mb, 2048.0, "footprint_mb")?,
        };
        p.check(kernel)?;
        Ok(p)
    }

    /// The preconditions of `kernel`'s profile builder beyond positive
    /// values: a query outside them is a `bad-param` naming the field,
    /// not a panic inside the model.
    fn check(&self, kernel: KernelId) -> Result<(), ApiError> {
        let bad = |detail: String| Err(ApiError::BadParam(detail));
        match kernel {
            KernelId::Gemm | KernelId::Cholesky => {
                // The panel tier carries 8/b - 6/n of the traffic (b is
                // the tile clipped to n), so it must not exceed 1.
                let b = self.tile.min(self.n) as f64;
                if 8.0 / b - 6.0 / self.n as f64 > 1.0 {
                    return if self.tile >= self.n {
                        bad("\"n\" must be at least 2".to_string())
                    } else {
                        bad(format!(
                            "\"tile\" {} is too small for \"n\" {}: 8/tile - 6/n must not \
                             exceed 1 (any tile of at least 8 works)",
                            self.tile, self.n
                        ))
                    };
                }
            }
            KernelId::Fft if self.n < 2 => return bad("\"n\" must be at least 2".to_string()),
            KernelId::Fft if self.n.checked_mul(self.n).is_none() => {
                return bad("\"n\" is too large: n² must fit in 64 bits".to_string())
            }
            KernelId::Spmv | KernelId::Sptrsv if self.rows < 8 => {
                // The gather tier spans between one cache line and the
                // whole 8-byte-per-row vector.
                return bad("\"rows\" must be at least 8".to_string());
            }
            KernelId::Sptrsv if self.levels < 1.0 => {
                return bad("\"levels\" must be at least 1".to_string())
            }
            KernelId::Stencil if self.grid.checked_pow(3).is_none() => {
                return bad("\"grid\" is too large: grid³ cells must fit in 64 bits".to_string())
            }
            KernelId::Stream if self.stream_len() == 0 => {
                return bad(
                    "\"footprint_mb\" must hold at least one 24-byte TRIAD element".to_string(),
                )
            }
            _ => {}
        }
        Ok(())
    }

    /// Elements per Stream array: three arrays of doubles fill the
    /// footprint.
    fn stream_len(&self) -> usize {
        ((self.footprint_mb * MIB) / 24.0) as usize
    }
}

/// Construct the access profile for a resolved query.
fn build_profile(kernel: KernelId, p: &Resolved, cores: usize) -> AccessProfile {
    match kernel {
        KernelId::Gemm => opm_dense::gemm_profile(p.n, p.tile, p.threads, cores),
        KernelId::Cholesky => opm_dense::cholesky_profile(p.n, p.tile, p.threads, cores),
        KernelId::Spmv => opm_sparse::spmv_profile(p.rows, p.nnz, p.span, p.threads),
        KernelId::Sptrans => opm_sparse::sptrans_profile(p.rows, p.nnz, p.threads),
        KernelId::Sptrsv => opm_sparse::sptrsv_profile(p.rows, p.nnz, p.span, p.levels, p.threads),
        KernelId::Fft => opm_fft::fft3d_profile(p.n, p.threads, cores),
        KernelId::Stencil => {
            opm_stencil::stencil_profile(p.grid, p.grid, p.grid, (64, 64, 96), p.threads, cores)
        }
        KernelId::Stream => opm_stencil::stream_profile(p.stream_len(), 4, p.threads),
    }
}

/// Resolve a query's kernel, configuration and parameters against the
/// documented defaults, rejecting unknown names and unusable values.
fn resolve(q: &Query) -> Result<(KernelId, OpmConfig, Resolved), ApiError> {
    let kernel =
        parse_kernel(&q.kernel).ok_or_else(|| ApiError::UnknownKernel(q.kernel.clone()))?;
    let config = OpmConfig::from_label(&q.config)
        .ok_or_else(|| ApiError::UnknownConfig(q.config.clone()))?;
    let p = Resolved::new(kernel, config.machine(), q)?;
    Ok((kernel, config, p))
}

/// Build a query's access profile (the `opm model` path): the same
/// resolution and checks as [`answer_query`].
pub fn query_profile(q: &Query) -> Result<(KernelId, OpmConfig, AccessProfile), ApiError> {
    let (kernel, config, p) = resolve(q)?;
    let cores = PlatformSpec::for_machine(config.machine()).cores;
    Ok((kernel, config, build_profile(kernel, &p, cores)))
}

/// Answer one query: resolve, profile, evaluate, price, and recommend.
/// Every failure is a typed [`ApiError`].
pub fn answer_query(q: &Query) -> Result<Advice, ApiError> {
    let (kernel, config, p) = resolve(q)?;
    let machine = config.machine();
    let cores = PlatformSpec::for_machine(machine).cores;
    if let Some(hot) = q.hot_mb {
        if !(hot > 0.0 && hot.is_finite()) {
            return Err(ApiError::BadParam(
                "\"hot_mb\" must be a positive finite number".to_string(),
            ));
        }
    }

    let planned = PlannedProfile::compute(|| build_profile(kernel, &p, cores));
    let model = PerfModel::for_config(config);
    let est = model.plan().evaluate_planned(planned.plan());
    let power_model = PowerModel::for_machine(machine);
    let flops = planned.profile().total_flops();
    let bytes = planned.profile().total_bytes();
    let power = power_model.sample(&est, config, flops, bytes);
    let energy_j = power_model.energy_j(&est, config, flops, bytes);

    let footprint = planned.profile().footprint;
    let workload = Workload {
        footprint,
        hot_set: q.hot_mb.map(|mb| mb * MIB).unwrap_or(footprint),
        latency_bound: q
            .latency_bound
            .unwrap_or(matches!(kernel, KernelId::Sptrsv)),
    };
    let (recommended_mode, guideline, explanation) = recommend(machine, &workload);

    Ok(Advice {
        kernel: kernel.name().to_string(),
        config: config.label().to_string(),
        footprint_mb: footprint / MIB,
        time_ms: est.time_ns / 1e6,
        gflops: est.gflops,
        bandwidth_gbs: est.bandwidth_gbs,
        dram_mb: est.dram_bytes / MIB,
        opm_mb: est.opm_bytes / MIB,
        level_traffic: est
            .level_traffic()
            .into_iter()
            .map(|(level, bytes, time_ns)| LevelTraffic {
                level: level.to_string(),
                bytes,
                time_ns,
            })
            .collect(),
        package_w: power.package_w,
        dram_w: power.dram_w,
        energy_j,
        recommended_mode,
        guideline,
        explanation,
    })
}

/// The §6 recommendation with its citation, per machine.
fn recommend(machine: Machine, w: &Workload) -> (String, String, String) {
    match machine {
        Machine::Knl => {
            let mode = recommend_mcdram(w);
            let (mode_str, citation) = match mode {
                McdramMode::Off => ("ddr", "paper §4.2.2 (latency-bound: prefer DDR)"),
                McdramMode::Flat => ("flat", "paper §6 guideline II"),
                McdramMode::Hybrid => ("hybrid", "paper §6 guideline III"),
                McdramMode::Cache => ("cache", "paper §6 guideline IV"),
            };
            (
                mode_str.to_string(),
                citation.to_string(),
                explain_mcdram(w),
            )
        }
        Machine::Broadwell => (
            "edram-on".to_string(),
            "paper §5.1 (eDRAM never observed to hurt performance)".to_string(),
            "keep eDRAM enabled: across every Broadwell experiment the paper never \
             observed the 128 MiB eDRAM victim cache hurting performance; disable it \
             only when the Eq. 1 energy break-even says the static power is not \
             repaid (paper §5.2)"
                .to_string(),
        ),
    }
}

/// Answer one request batch. This is the *whole* evaluation surface:
/// `opm advise`, the daemon, and the tests all call it, which is what
/// makes served and one-shot responses byte-identical.
///
/// A panic while answering one query (a modeling bug) is caught and
/// reported as a typed `internal` error for that query — it never takes
/// the daemon down or poisons the rest of the batch, and prints nothing:
/// the answer carries the panic message.
///
/// The engine is not consulted (answers keep no memo); the parameter
/// stays for the callers that pass one, the benchmark harness among
/// them.
pub fn respond(_engine: &Engine, req: &Request) -> Response {
    let results = req
        .queries
        .iter()
        .map(|q| isolated(q, answer_query))
        .collect();
    Response {
        id: req.id,
        results,
    }
}

/// Answer `q` with `answer`, turning a panic into a typed `internal`
/// error without printing it.
fn isolated(q: &Query, answer: fn(&Query) -> Result<Advice, ApiError>) -> QueryResult {
    match catch_quietly(|| answer(q)) {
        Ok(Ok(a)) => QueryResult::Ok(Box::new(a)),
        Ok(Err(e)) => QueryResult::Err(e),
        Err(panic) => QueryResult::Err(ApiError::Internal(panic_message(&panic))),
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Shed an entire request: one typed `overloaded` result per query (and
/// at least one for a query-less request, so the client always sees the
/// condition).
fn shed(req: &Request) -> Response {
    let n = req.queries.len().max(1);
    Response {
        id: req.id,
        results: (0..n)
            .map(|_| QueryResult::Err(ApiError::Overloaded))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------

/// Counters a finished daemon reports (also exported as telemetry
/// counters `serve_*` while running).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (including shed ones).
    pub requests: u64,
    /// Queries answered.
    pub queries: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Frames that failed to decode (framing or document errors).
    pub malformed: u64,
    /// Connections served.
    pub connections: u64,
}

struct ServerShared {
    engine: Arc<Engine>,
    inflight: AtomicUsize,
    max_inflight: usize,
    shutdown: AtomicBool,
    requests: AtomicU64,
    queries: AtomicU64,
    shed: AtomicU64,
    malformed: AtomicU64,
    connections: AtomicU64,
}

/// A bound `opm serve` daemon. [`run`](Server::run) blocks until a
/// request with `"shutdown": true` drains.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port). The
    /// daemon reports into the engine's telemetry.
    pub fn bind(addr: &str, engine: Arc<Engine>, max_inflight: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(ServerShared {
                engine,
                inflight: AtomicUsize::new(0),
                max_inflight,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                malformed: AtomicU64::new(0),
                connections: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (reports the kernel-chosen port after binding
    /// port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept-and-serve until shutdown. Thread-per-connection: the
    /// global in-flight bound (not the connection count) is what limits
    /// concurrent evaluation work.
    pub fn run(&self) -> io::Result<ServeStats> {
        let addr = self.local_addr()?;
        let mut workers = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _) = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::SeqCst) {
                // The wake-up connection itself.
                break;
            }
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || {
                serve_connection(stream, &shared, addr);
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(ServeStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            connections: self.shared.connections.load(Ordering::Relaxed),
        })
    }
}

/// Serve one connection: a sequence of request frames, each answered
/// with exactly one response frame. Framing errors answer with a typed
/// `malformed` response and close (the stream offset can no longer be
/// trusted); document errors answer and keep the connection.
fn serve_connection(mut stream: TcpStream, shared: &ServerShared, addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    shared.connections.fetch_add(1, Ordering::Relaxed);
    let tele = Arc::clone(shared.engine.telemetry());
    loop {
        let text = match read_frame(&mut stream) {
            Ok(Some(text)) => text,
            Ok(None) => return,
            Err(e) => {
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                tele.counter("serve_malformed_total").inc();
                if !matches!(e, FrameError::Io(_)) {
                    let resp = Response {
                        id: 0,
                        results: vec![QueryResult::Err(ApiError::Malformed(e.to_string()))],
                    };
                    let _ = write_frame(&mut stream, &resp.render());
                }
                return;
            }
        };
        let span = tele.span("serve", "request");
        let (resp, stop) = match Request::parse(&text) {
            Err(e) => {
                shared.malformed.fetch_add(1, Ordering::Relaxed);
                tele.counter("serve_malformed_total").inc();
                (
                    Response {
                        id: 0,
                        results: vec![QueryResult::Err(ApiError::Malformed(e))],
                    },
                    false,
                )
            }
            Ok(req) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared
                    .queries
                    .fetch_add(req.queries.len() as u64, Ordering::Relaxed);
                tele.counter("serve_requests_total").inc();
                tele.counter("serve_queries_total")
                    .add(req.queries.len() as u64);
                let resp = match admit(shared) {
                    Some(_permit) => respond(&shared.engine, &req),
                    None => {
                        shared.shed.fetch_add(1, Ordering::Relaxed);
                        tele.counter("serve_overloaded_total").inc();
                        shed(&req)
                    }
                };
                (resp, req.shutdown)
            }
        };
        let ok = write_response(&mut stream, &resp).is_ok();
        drop(span);
        if stop {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Unblock the acceptor with a throwaway connection.
            let _ = TcpStream::connect(addr);
            return;
        }
        if !ok {
            return;
        }
    }
}

/// Write `resp` as one frame. A reply too large for a frame (a huge
/// batch, or an error echoing a huge name) is answered instead with one
/// typed `bad-param` result naming its size and the cap, so the client
/// gets an answer and the connection stays usable.
fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let text = resp.render();
    if text.len() <= MAX_FRAME_LEN as usize {
        return write_frame(stream, &text);
    }
    let too_large = Response {
        id: resp.id,
        results: vec![QueryResult::Err(ApiError::BadParam(format!(
            "reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; split the batch",
            text.len()
        )))],
    };
    write_frame(stream, &too_large.render())
}

/// RAII in-flight permit; admission fails (→ load-shed) once
/// `max_inflight` requests are being evaluated.
struct Permit<'a>(&'a AtomicUsize);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn admit(shared: &ServerShared) -> Option<Permit<'_>> {
    let mut cur = shared.inflight.load(Ordering::SeqCst);
    loop {
        if cur >= shared.max_inflight {
            return None;
        }
        match shared
            .inflight
            .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => return Some(Permit(&shared.inflight)),
            Err(now) => cur = now,
        }
    }
}

// ---------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------

/// A blocking `opm-api/v1` client over one TCP connection (used by
/// `opm loadgen`, the `mode_advisor` example, and the integration
/// tests).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Frames are small request/response pairs: Nagle only adds
        // delayed-ACK latency here.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one request frame and read the matching response frame.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, String> {
        self.roundtrip_text(&req.render())
    }

    /// Send pre-rendered request bytes (the byte-identity tests use this
    /// to control the exact frame on the wire).
    pub fn roundtrip_text(&mut self, request_text: &str) -> Result<Response, String> {
        let text = self.roundtrip_raw(request_text)?;
        Response::parse(&text)
    }

    /// As [`roundtrip_text`](Self::roundtrip_text) but returns the raw
    /// response payload without decoding it.
    pub fn roundtrip_raw(&mut self, request_text: &str) -> Result<String, String> {
        write_frame(&mut self.stream, request_text).map_err(|e| format!("send: {e}"))?;
        read_frame(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::api::MAX_EXACT_INT;
    use opm_kernels::engine::{panics_silenced, EngineConfig};

    fn test_engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig::default()))
    }

    fn gemm_query() -> Query {
        Query {
            kernel: "gemm".into(),
            config: "knl-flat".into(),
            n: Some(2048),
            tile: Some(256),
            ..Query::default()
        }
    }

    #[test]
    fn answer_matches_direct_model_evaluation() {
        let a = answer_query(&gemm_query()).unwrap();
        assert_eq!(a.kernel, "GEMM");
        assert_eq!(a.config, "knl-flat");
        assert!(a.gflops > 0.0);
        assert!(a.time_ms > 0.0);
        assert!(a.energy_j > 0.0);
        assert!(!a.level_traffic.is_empty());
        // Fits the 16 GiB MCDRAM → flat, guideline II.
        assert_eq!(a.recommended_mode, "flat");
        assert!(a.guideline.contains("guideline II"), "{}", a.guideline);
    }

    #[test]
    fn internal_answer_is_silent_and_restores_the_outer_hook_state() {
        fn model_bug(_: &Query) -> Result<Advice, ApiError> {
            panic!("model bug")
        }
        let is_internal = |r: &QueryResult| matches!(r, QueryResult::Err(ApiError::Internal(m)) if m == "model bug");
        assert!(!panics_silenced());
        assert!(is_internal(&isolated(&gemm_query(), model_bug)));
        assert!(!panics_silenced(), "the hook speaks again after the answer");
        // Inside an outer quiet scope, the answer leaves it quiet.
        let (r, quiet) =
            catch_quietly(|| (isolated(&gemm_query(), model_bug), panics_silenced())).unwrap();
        assert!(is_internal(&r));
        assert!(quiet, "the outer scope stays silenced");
        assert!(!panics_silenced());
        assert!(matches!(
            isolated(&gemm_query(), answer_query),
            QueryResult::Ok(_)
        ));
    }

    #[test]
    fn typed_errors_for_unknowns_and_bad_params() {
        let mut q = gemm_query();
        q.kernel = "dgemv".into();
        assert!(matches!(answer_query(&q), Err(ApiError::UnknownKernel(_))));
        let mut q = gemm_query();
        q.config = "knl-warp".into();
        assert!(matches!(answer_query(&q), Err(ApiError::UnknownConfig(_))));
        let mut q = gemm_query();
        q.hot_mb = Some(-3.0);
        assert!(matches!(answer_query(&q), Err(ApiError::BadParam(_))));
        // Degenerate values each profile builder cannot take come back
        // as `bad-param` naming the field, not as `internal` panics.
        let query = |kernel: &str, edit: fn(&mut Query)| {
            let mut q = Query {
                kernel: kernel.into(),
                config: "knl-flat".into(),
                ..Query::default()
            };
            edit(&mut q);
            q
        };
        for (q, field) in [
            (query("GEMM", |q| q.n = Some(0)), "\"n\""),
            (query("GEMM", |q| q.n = Some(1)), "\"n\""),
            (
                query("GEMM", |q| {
                    q.n = Some(1);
                    q.tile = Some(MAX_EXACT_INT);
                }),
                "\"n\"",
            ),
            (query("GEMM", |q| q.tile = Some(4)), "\"tile\""),
            (query("Cholesky", |q| q.n = Some(1)), "\"n\""),
            (query("FFT", |q| q.n = Some(1)), "\"n\""),
            (query("FFT", |q| q.n = Some(MAX_EXACT_INT)), "\"n\""),
            (query("SpTRSV", |q| q.levels = Some(1e-300)), "\"levels\""),
            (query("SpTRSV", |q| q.rows = Some(7)), "\"rows\""),
            (
                query("Stream", |q| q.footprint_mb = Some(1e-300)),
                "\"footprint_mb\"",
            ),
            (
                query("SpMV", |q| {
                    q.rows = Some(1);
                    q.nnz = Some(MAX_EXACT_INT);
                }),
                "\"rows\"",
            ),
            (
                query("Stencil", |q| q.grid = Some(MAX_EXACT_INT)),
                "\"grid\"",
            ),
        ] {
            match answer_query(&q) {
                Err(ApiError::BadParam(detail)) => {
                    assert!(detail.contains(field), "{q:?}: {detail}")
                }
                other => panic!("{q:?}: {other:?}"),
            }
        }
        // The smallest values inside the preconditions still answer.
        for q in [
            query("GEMM", |q| q.n = Some(2)),
            query("GEMM", |q| q.tile = Some(8)),
            query("FFT", |q| q.n = Some(2)),
            query("SpMV", |q| q.rows = Some(8)),
            query("SpTRSV", |q| q.levels = Some(1.0)),
            query("Stream", |q| q.footprint_mb = Some(24.0 / MIB)),
        ] {
            assert!(answer_query(&q).is_ok(), "{q:?}");
        }
    }

    #[test]
    fn degenerate_queries_never_answer_internal() {
        // Every field at the edges of its range, in every combination a
        // seeded draw reaches: the answer is an advice or a typed
        // rejection, never a panic caught as `internal`.
        const INTS: [u64; 8] = [1, 2, 7, 8, 9, 64, 1 << 32, MAX_EXACT_INT];
        const FLOATS: [f64; 6] = [1e-300, 1e-6, 0.5, 1.0, 3e5, 1e300];
        let mut state = 0x2017_u64;
        let mut draw = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let engine = test_engine();
        for i in 0..4000 {
            let mut int = || (draw(2) == 0).then(|| INTS[draw(INTS.len())]);
            let (n, tile, rows, nnz, grid, threads) = (int(), int(), int(), int(), int(), int());
            let mut float = || (draw(2) == 0).then(|| FLOATS[draw(FLOATS.len())]);
            let (span, levels, footprint_mb, hot_mb) = (float(), float(), float(), float());
            let q = Query {
                kernel: KernelId::ALL[i % KernelId::ALL.len()].name().into(),
                config: ["brd-edram", "knl-hybrid"][i / KernelId::ALL.len() % 2].into(),
                n,
                tile,
                rows,
                nnz,
                grid,
                threads,
                span,
                levels,
                footprint_mb,
                hot_mb,
                latency_bound: None,
            };
            let resp = respond(
                &engine,
                &Request {
                    id: 1,
                    queries: vec![q.clone()],
                    shutdown: false,
                },
            );
            assert!(
                !matches!(resp.results[0], QueryResult::Err(ApiError::Internal(_))),
                "{q:?}: {:?}",
                resp.results[0]
            );
        }
    }

    #[test]
    fn latency_bound_defaults_follow_the_kernel() {
        let q = Query {
            kernel: "sptrsv".into(),
            config: "knl-flat".into(),
            ..Query::default()
        };
        let a = answer_query(&q).unwrap();
        // SpTRSV is latency bound by default → DDR preferred (§4.2.2).
        assert_eq!(a.recommended_mode, "ddr");
        // An explicit override flips it back to the capacity rules.
        let q = Query {
            latency_bound: Some(false),
            ..q
        };
        let a = answer_query(&q).unwrap();
        assert_ne!(a.recommended_mode, "ddr");
    }

    #[test]
    fn broadwell_recommends_edram_on() {
        let q = Query {
            kernel: "stream".into(),
            config: "brd-edram".into(),
            footprint_mb: Some(64.0),
            ..Query::default()
        };
        let a = answer_query(&q).unwrap();
        assert_eq!(a.recommended_mode, "edram-on");
        assert!(a.guideline.contains("§5.1"));
    }

    #[test]
    fn responses_echo_id_and_preserve_order() {
        let engine = test_engine();
        let req = Request {
            id: 99,
            queries: vec![
                gemm_query(),
                Query {
                    kernel: "nope".into(),
                    config: "knl-flat".into(),
                    ..Query::default()
                },
            ],
            shutdown: false,
        };
        let resp = respond(&engine, &req);
        assert_eq!(resp.id, 99);
        assert!(matches!(resp.results[0], QueryResult::Ok(_)));
        assert!(matches!(
            resp.results[1],
            QueryResult::Err(ApiError::UnknownKernel(_))
        ));
    }

    #[test]
    fn shed_covers_every_query() {
        let req = Request {
            id: 5,
            queries: vec![gemm_query(), gemm_query()],
            shutdown: false,
        };
        let resp = shed(&req);
        assert_eq!(resp.results.len(), 2);
        assert!(resp
            .results
            .iter()
            .all(|r| matches!(r, QueryResult::Err(ApiError::Overloaded))));
        // A query-less request still reports the condition once.
        let resp = shed(&Request::default());
        assert_eq!(resp.results.len(), 1);
    }
}
