//! The shared sweep-execution engine.
//!
//! Every figure/table pipeline in this repository reduces to the same
//! shape: evaluate the performance model over a grid of sweep points,
//! where each point first derives an [`AccessProfile`] (pure function of
//! kernel + problem parameters) and then evaluates it under one OPM
//! configuration. This module factors that shape out once:
//!
//! * **Sequential point runner** — [`Engine::par_map`] evaluates the
//!   points of a stage in order on the calling thread. A campaign's model
//!   work is microseconds per point, so a worker pool cost more in
//!   spawning and shared-counter traffic than it could save; output order
//!   is input order by construction. The engine is `Sync`: concurrent
//!   callers (test threads, daemon connections) each run their own stages,
//!   and the current stage lives in a thread-local, so they never see each
//!   other's labels.
//! * **Panic isolation** — every point evaluation runs inside
//!   `catch_unwind`. [`Engine::par_map_isolated`] substitutes a
//!   caller-supplied placeholder (NaN rows, in the figure sweeps) for a
//!   failed point and records a [`PointFailure`]; [`Engine::par_map`]
//!   keeps the strict contract but propagates a *structured* panic after
//!   every point has run, with every failure recorded. Failures
//!   classified as transient (injected faults, I/O errors) are retried
//!   with bounded deterministic backoff before they are quarantined.
//! * **No profile memo** — sweep points and daemon queries alike build
//!   their profile in place ([`PlannedProfile::compute`], about a
//!   microsecond), which costs less than a memo's lookup, insert and
//!   eviction. Lock poisoning is always recovered ([`lock_recover`]): the
//!   locks guard plain data whose invariants hold between operations, so
//!   a panic elsewhere must not wedge every later stage.
//! * **Observability** — [`Engine::run_stage`] wraps each sweep with wall
//!   time and point count, accumulated as [`StageRecord`]s for the
//!   run-manifest emitted by `opm-bench`; with telemetry `full`, each
//!   point gets a `point:{i}` span nested under the stage span.
//!
//! The process-wide instance ([`Engine::global`]) is configured from the
//! environment: `OPM_FAULT_SPEC` (deterministic fault injection; see
//! [`crate::faultinject`]) and `OPM_TELEMETRY`. Transient failures are
//! retried up to [`EngineConfig::max_retries`] times (2 by default).

use crate::faultinject::{FaultKind, FaultPlan, InjectedFault};
use opm_core::perf::{EvalPlan, ProfilePlan};
use opm_core::profile::AccessProfile;
use opm_core::roofline::Attribution;
use opm_core::telemetry::{Counter, Telemetry, TelemetryMode};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Acquire a mutex, recovering the guard if a previous holder panicked.
///
/// Every lock in the engine protects plain data (an append-only log)
/// whose invariants hold between operations, so the
/// conservative default of propagating poison would only convert one
/// already-recorded failure into a cascade that wedges every later
/// stage.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stage running on one thread: its label (fault-plan and failure-log
/// key) and its telemetry span path (label of the latency histogram;
/// empty when telemetry is off).
struct StageCtx {
    label: String,
    path: String,
}

thread_local! {
    /// Set while this thread is inside isolated point evaluation, where
    /// panics are caught and recorded rather than reported by the hook.
    static SUPPRESS_PANIC_HOOK: Cell<bool> = const { Cell::new(false) };
    /// The stage [`Engine::run_stage`] is running on this thread.
    static STAGE: RefCell<Option<StageCtx>> = const { RefCell::new(None) };
}

/// Chain a panic hook (once per process) that stays silent for panics
/// caught by [`Engine::eval_point`] and delegates everything else to the
/// previously installed hook, so panics outside the engine still print
/// normally.
fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_HOOK.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// RAII scope for hook suppression; restores the outer state on drop so
/// nested isolation (or a panic escaping through user code that itself
/// calls the engine) behaves.
struct QuietPanicGuard {
    prev: bool,
}

impl QuietPanicGuard {
    fn new() -> Self {
        install_quiet_panic_hook();
        let prev = SUPPRESS_PANIC_HOOK.with(|s| s.replace(true));
        QuietPanicGuard { prev }
    }
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        SUPPRESS_PANIC_HOOK.with(|s| s.set(prev));
    }
}

/// Run `f` under `catch_unwind` with the panic hook silent for panics on
/// this thread: the caller turns a caught panic into a structured error,
/// so the hook's message and backtrace would only flood stderr. The outer
/// state is restored on return, so nested calls compose, and panics
/// outside any such call still print normally.
pub fn catch_quietly<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let _quiet = QuietPanicGuard::new();
    catch_unwind(AssertUnwindSafe(f))
}

/// Whether panics on this thread are silenced, i.e. whether the call is
/// inside [`catch_quietly`].
pub fn panics_silenced() -> bool {
    SUPPRESS_PANIC_HOOK.with(Cell::get)
}

/// Engine tuning knobs, normally read from the environment once per
/// process.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Threads a stage's points run on: always 1, the calling thread.
    /// Reported by the benchmark harness; the engine has no pool.
    pub threads: usize,
    /// Retry budget for transient point failures (0 = no retries).
    pub max_retries: usize,
    /// Base of the deterministic exponential retry backoff, in
    /// microseconds (attempt `k` sleeps `base << k`, capped at 10 ms;
    /// 0 disables sleeping entirely).
    pub backoff_base_us: u64,
    /// Ignored: the engine memoizes no profiles. Kept only because the
    /// benchmark harness sets it.
    pub cache_capacity: Option<usize>,
    /// Deterministic fault-injection plan (tests, CI smoke runs).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Telemetry instance the engine reports into (`None` = the
    /// process-wide [`Telemetry::global`], configured by
    /// `OPM_TELEMETRY`). Tests attach a private instance to observe one
    /// engine in isolation.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl EngineConfig {
    /// Read `OPM_FAULT_SPEC` through the typed
    /// [`opm_core::config::Config`]; a malformed value stops the process
    /// with the variable named instead of silently selecting a default.
    pub fn from_env() -> Self {
        Self::from_config(&opm_core::config::Config::from_env_or_die())
    }

    /// Engine settings from a parsed process configuration (the `opm`
    /// CLI parses once at startup and passes the struct down).
    pub fn from_config(cfg: &opm_core::config::Config) -> Self {
        EngineConfig {
            fault_plan: FaultPlan::from_config(cfg).map(Arc::new),
            ..EngineConfig::default()
        }
    }

    /// This config with a fault-injection plan attached (tests).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// This config reporting into an explicit telemetry instance
    /// instead of the process-wide one.
    pub fn with_telemetry(mut self, tele: Arc<Telemetry>) -> Self {
        self.telemetry = Some(tele);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 1,
            max_retries: 2,
            backoff_base_us: 50,
            cache_capacity: None,
            fault_plan: None,
            telemetry: None,
        }
    }
}

/// Profile-memo counters. The engine memoizes nothing, so both are
/// always 0; kept only because the benchmark harness reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Profile lookups served from a memo.
    pub hits: u64,
    /// Profile lookups that computed a fresh profile.
    pub misses: u64,
}

impl CacheStats {
    /// Counter delta between two snapshots of the same engine (`self`
    /// taken after `earlier`).
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Timing/counter record of one completed sweep stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage label, e.g. `gemm_sweep/knl-flat` (shared by every record
    /// of the same stage).
    pub label: Arc<str>,
    /// Sweep points evaluated by the stage.
    pub points: usize,
    /// Wall-clock time of the stage.
    pub wall_ns: u128,
}

impl StageRecord {
    /// Wall time in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Evaluated points per second (0 for an instantaneous stage).
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.points as f64 / self.wall_secs()
        }
    }
}

/// The engine's append-only stage log. Each distinct label is stored
/// once: a process that runs the campaign many times (the benchmark
/// harness) repeats the same ~100 labels every pass, and a fresh
/// long-lived string per record, allocated between a pass's transient
/// buffers, fragmented the heap by megabytes per pass.
#[derive(Default)]
struct StageLog {
    labels: HashSet<Arc<str>>,
    records: Vec<StageRecord>,
}

impl StageLog {
    fn push(&mut self, label: &str, points: usize, wall_ns: u128) {
        let label = match self.labels.get(label) {
            Some(l) => l.clone(),
            None => {
                let l: Arc<str> = label.into();
                self.labels.insert(l.clone());
                l
            }
        };
        self.records.push(StageRecord {
            label,
            points,
            wall_ns,
        });
    }
}

/// Record of one failed (or retried-and-recovered) sweep-point
/// evaluation; accumulated on the engine and written to
/// `results/run_errors.csv` by `opm-bench`.
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// Stage label the point belonged to.
    pub stage: String,
    /// Point index within the stage (`usize::MAX` for failures not
    /// attributable to a single point, e.g. a figure that panicked
    /// outside point isolation).
    pub index: usize,
    /// Failure classification.
    pub kind: FaultKind,
    /// Total evaluation attempts made (1 = no retries).
    pub attempts: usize,
    /// Whether the failure was classified transient (and therefore
    /// retried).
    pub transient: bool,
    /// Whether a retry eventually produced a real result. When false the
    /// point's output is a placeholder and the point counts as
    /// quarantined.
    pub recovered: bool,
    /// Human-readable payload/cause.
    pub message: String,
}

impl PointFailure {
    /// Manifest outcome label: `recovered` or `quarantined`.
    pub fn outcome(&self) -> &'static str {
        if self.recovered {
            "recovered"
        } else {
            "quarantined"
        }
    }
}

/// Classify a caught panic payload: injected faults are transient
/// (retryable), organic panics are not — deterministic code that panicked
/// once will panic again.
fn classify_payload(payload: &(dyn Any + Send)) -> (FaultKind, bool, String) {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        (f.kind, true, f.to_string())
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (FaultKind::Panic, false, (*s).to_string())
    } else if let Some(s) = payload.downcast_ref::<String>() {
        (FaultKind::Panic, false, s.clone())
    } else {
        (
            FaultKind::Panic,
            false,
            "non-string panic payload".to_string(),
        )
    }
}

/// Telemetry counter handles the engine bumps on its hot paths,
/// resolved once at construction so per-point work stays a relaxed
/// atomic add.
struct EngineCounters {
    points: Counter,
    retries: Counter,
    recovered: Counter,
    quarantined: Counter,
    stages: Counter,
}

impl EngineCounters {
    fn resolve(tele: &Telemetry) -> Self {
        EngineCounters {
            points: tele.counter("opm_points_total"),
            retries: tele.counter("opm_point_retries_total"),
            recovered: tele.counter("opm_points_recovered_total"),
            quarantined: tele.counter("opm_points_quarantined_total"),
            stages: tele.counter("opm_stages_total"),
        }
    }
}

/// An access profile together with its folded evaluation plan.
///
/// The plan ([`ProfilePlan`]) is configuration-independent; sweeps pair
/// it with a per-configuration [`opm_core::perf::EvalPlan`] to evaluate
/// points without re-walking the tier vectors. Dereferences to the
/// profile, so `AccessProfile` call sites read fields and pass `&pp`
/// unchanged.
pub struct PlannedProfile {
    profile: AccessProfile,
    plan: ProfilePlan,
}

impl PlannedProfile {
    /// Build a profile with `compute` and fold its plan. Panics, naming
    /// the kernel, if the profile is invalid — inside a sweep the panic
    /// quarantines that one point.
    pub fn compute(compute: impl FnOnce() -> AccessProfile) -> Self {
        let profile = compute();
        let plan = ProfilePlan::new(&profile)
            .unwrap_or_else(|e| panic!("invalid profile for {}: {e}", profile.kernel));
        PlannedProfile { profile, plan }
    }

    /// The computed access profile.
    pub fn profile(&self) -> &AccessProfile {
        &self.profile
    }

    /// Its folded evaluation plan.
    pub fn plan(&self) -> &ProfilePlan {
        &self.plan
    }
}

impl std::ops::Deref for PlannedProfile {
    type Target = AccessProfile;

    fn deref(&self) -> &AccessProfile {
        &self.profile
    }
}

/// The sweep-execution engine: the sequential point runner plus the
/// stage log and the point-failure log. See the module docs for the
/// design.
pub struct Engine {
    config: EngineConfig,
    stages: Mutex<StageLog>,
    failures: Mutex<Vec<PointFailure>>,
    tele: Arc<Telemetry>,
    counters: EngineCounters,
}

impl Engine {
    /// Engine with an explicit configuration (tests, determinism checks).
    pub fn new(config: EngineConfig) -> Self {
        let tele = config
            .telemetry
            .clone()
            .unwrap_or_else(|| Telemetry::global().clone());
        let counters = EngineCounters::resolve(&tele);
        Engine {
            config,
            stages: Mutex::new(StageLog::default()),
            failures: Mutex::new(Vec::new()),
            tele,
            counters,
        }
    }

    /// Engine configured from the environment.
    pub fn from_env() -> Self {
        Engine::new(EngineConfig::from_env())
    }

    /// The process-wide engine, created from the environment on first use.
    /// Set `OPM_FAULT_SPEC` before the first sweep to take effect.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::from_env)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The telemetry instance this engine reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tele
    }

    /// Profile-memo counters: always zero, since the engine memoizes
    /// nothing. Kept only because the benchmark harness reads them.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// A no-op: the engine memoizes nothing. Kept only because the
    /// benchmark harness calls it.
    pub fn clear_cache(&self) {}

    /// Record a point failure (also used by `opm-bench` for
    /// figure-level failures). Retry/recovery telemetry counters are
    /// bumped here so every failure path — engine points and
    /// figure-level catches alike — feeds the same metrics.
    pub fn record_failure(&self, failure: PointFailure) {
        self.counters
            .retries
            .add(failure.attempts.saturating_sub(1) as u64);
        if failure.recovered {
            self.counters.recovered.inc();
        } else {
            self.counters.quarantined.inc();
        }
        lock_recover(&self.failures).push(failure);
    }

    /// Number of failures recorded so far (use with
    /// [`Engine::failures_since`] to attribute failures to a window).
    pub fn failure_count(&self) -> usize {
        lock_recover(&self.failures).len()
    }

    /// Copies of the failure records from index `from` onward.
    pub fn failures_since(&self, from: usize) -> Vec<PointFailure> {
        let failures = lock_recover(&self.failures);
        failures[from.min(failures.len())..].to_vec()
    }

    /// Copies of every recorded point failure.
    pub fn failures(&self) -> Vec<PointFailure> {
        self.failures_since(0)
    }

    /// Deterministic bounded backoff before retry `attempt + 1`:
    /// `backoff_base_us << attempt` microseconds, capped at 10 ms.
    fn backoff(&self, attempt: usize) {
        let base = self.config.backoff_base_us;
        if base == 0 {
            return;
        }
        let us = base
            .checked_shl(attempt.min(16) as u32)
            .unwrap_or(u64::MAX)
            .min(10_000);
        std::thread::sleep(Duration::from_micros(us));
    }

    /// Evaluate one point with panic isolation, fault injection, and
    /// bounded retry. Recovered retries are recorded in the failure log;
    /// exhausted/permanent failures are recorded and returned as `Err`.
    ///
    /// The default panic hook is suppressed while the point runs: a
    /// caught panic becomes a structured [`PointFailure`] row, so the
    /// hook's backtrace would only flood stderr (a 10% injected fault
    /// rate over a full sweep is thousands of panics).
    fn eval_point<T, R>(
        &self,
        stage: &str,
        index: usize,
        item: &T,
        f: &impl Fn(&T) -> R,
    ) -> Result<R, PointFailure> {
        // One span per point (mode `full` only), covering every retry and
        // nested under the stage span `run_stage` holds open on this
        // thread; dropped on both the Ok and Err paths below.
        let mut span = (self.tele.mode() == TelemetryMode::Full)
            .then(|| self.tele.span("point", &format!("point:{index}")));
        let plan = self.config.fault_plan.as_deref();
        let mut attempt = 0usize;
        let mut last: Option<(FaultKind, String)> = None;
        loop {
            let outcome = catch_quietly(|| {
                if let Some(p) = plan {
                    p.fire_point(stage, index, attempt);
                }
                f(item)
            });
            match outcome {
                Ok(v) => {
                    if let Some((kind, message)) = last {
                        if let Some(s) = span.as_mut() {
                            s.arg("attempts", attempt + 1);
                            s.arg("outcome", "recovered");
                        }
                        self.record_failure(PointFailure {
                            stage: stage.to_string(),
                            index,
                            kind,
                            attempts: attempt + 1,
                            transient: true,
                            recovered: true,
                            message,
                        });
                    }
                    return Ok(v);
                }
                Err(payload) => {
                    let (kind, transient, message) = classify_payload(payload.as_ref());
                    if transient && attempt < self.config.max_retries {
                        last = Some((kind, message));
                        self.backoff(attempt);
                        attempt += 1;
                        continue;
                    }
                    if let Some(s) = span.as_mut() {
                        s.arg("attempts", attempt + 1);
                        s.arg("outcome", "quarantined");
                    }
                    let failure = PointFailure {
                        stage: stage.to_string(),
                        index,
                        kind,
                        attempts: attempt + 1,
                        transient,
                        recovered: false,
                        message,
                    };
                    self.record_failure(failure.clone());
                    return Err(failure);
                }
            }
        }
    }

    /// Core runner: map every item through [`Engine::eval_point`] in
    /// order on the calling thread. One point's failure never stops the
    /// others.
    fn par_run<T, R>(
        &self,
        stage: &str,
        items: &[T],
        f: impl Fn(&T) -> R,
    ) -> Vec<Result<R, PointFailure>> {
        items
            .iter()
            .enumerate()
            .map(|(i, item)| self.eval_point(stage, i, item, &f))
            .collect()
    }

    /// Map `f` over `items` in order on the calling thread.
    ///
    /// This is the *strict* variant: a point that still fails after the
    /// transient-retry budget propagates a structured panic naming the
    /// stage, point, and cause — but only after every point has run, and
    /// with every failure recorded in the failure log. Sweeps that prefer
    /// NaN placeholder rows over a panic use [`Engine::par_map_isolated`].
    pub fn par_map<T, R>(&self, items: &[T], f: impl Fn(&T) -> R) -> Vec<R> {
        let stage = STAGE
            .with(|s| s.borrow().as_ref().map(|c| c.label.clone()))
            .unwrap_or_else(|| "adhoc".to_string());
        let mut out = Vec::with_capacity(items.len());
        let mut first_err: Option<PointFailure> = None;
        for r in self.par_run(&stage, items, f) {
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            panic!(
                "sweep stage {:?}: point {} failed after {} attempt(s): {}",
                e.stage, e.index, e.attempts, e.message
            );
        }
        out
    }

    /// Map `f` over `items` with full panic isolation: a point that still
    /// fails after the retry budget yields `placeholder(item, index)`
    /// instead of panicking, and the failure is recorded for the
    /// `run_errors.csv` manifest. Output order and length always match
    /// `items`.
    pub fn par_map_isolated<T, R>(
        &self,
        stage: &str,
        items: &[T],
        f: impl Fn(&T) -> R,
        placeholder: impl Fn(&T, usize) -> R,
    ) -> Vec<R> {
        self.par_run(stage, items, f)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|_| placeholder(&items[i], i)))
            .collect()
    }

    /// Run `f` as a named stage on this thread, recording wall time and
    /// its reported point count. Concurrent callers each run their own
    /// stage: the stage context is per thread.
    pub fn run_stage<R>(&self, label: &str, f: impl FnOnce(&Engine) -> (R, usize)) -> R {
        /// Restores the enclosing stage context, even when `f` unwinds.
        struct StageGuard(Option<StageCtx>);
        impl Drop for StageGuard {
            fn drop(&mut self) {
                let outer = self.0.take();
                STAGE.with(|s| *s.borrow_mut() = outer);
            }
        }
        // The span outlives the guard (declared first, dropped last), so
        // its end event carries the final stage args even when `f`
        // unwinds.
        let mut span = self.tele.span("stage", label);
        let ctx = StageCtx {
            label: label.to_string(),
            path: span.path().to_string(),
        };
        let _guard = StageGuard(STAGE.with(|s| s.borrow_mut().replace(ctx)));
        let start = Instant::now();
        let (out, points) = f(self);
        let wall_ns = start.elapsed().as_nanos();
        self.counters.points.add(points as u64);
        self.counters.stages.inc();
        span.arg("points", points);
        lock_recover(&self.stages).push(label, points, wall_ns);
        out
    }

    /// Evaluate one sweep point under `plan`, recording the
    /// second-generation observability when telemetry is enabled:
    ///
    /// * the modeled point latency (`est.time_ns` — a deterministic
    ///   model output, never wall clock, so histograms are byte-identical
    ///   across runs) into the per-stage
    ///   `opm_point_latency_ns` histogram, and
    /// * the point's roofline [`Attribution`] — per-level achieved GB/s,
    ///   arithmetic intensity, ceiling fraction, Eq. 1 break-even
    ///   margin. Labeled milli gauges are emitted only when the caller
    ///   passes a `point` label (the small curve families); dense grids
    ///   report the full signed detail as a `roofline` instant in full
    ///   mode, keeping the metrics.prom cardinality bounded.
    ///
    /// Returns the modeled GFlop/s — bit-identical to
    /// `plan.gflops_planned(pp)` (the accumulation order is shared; see
    /// [`EvalPlan::gflops_planned`]), so golden figure CSVs do not
    /// depend on the telemetry mode.
    pub fn observe_point(&self, plan: &EvalPlan<'_>, pp: &ProfilePlan, point: Option<&str>) -> f64 {
        if !self.tele.enabled() {
            return plan.gflops_planned(pp);
        }
        let est = plan.evaluate_planned(pp);
        let stage = STAGE
            .with(|s| {
                s.borrow().as_ref().map(|c| {
                    if c.path.is_empty() {
                        c.label.clone()
                    } else {
                        c.path.clone()
                    }
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        self.tele.observe(
            "opm_point_latency_ns",
            &format!("stage=\"{stage}\""),
            est.time_ns as u64,
        );
        let attr = Attribution::from_planned(plan, pp, &est);
        // Signed/fractional quantities ride in milli units offset so the
        // u64 exposition stays lossless for merge tooling: the gain and
        // break-even gauges carry `round((1 + x) * 1000)`; their
        // difference is the margin.
        let milli = |x: f64| (x * 1000.0).round().max(0.0) as u64;
        if let Some(point) = point {
            let labels = format!("stage=\"{stage}\",point=\"{point}\"");
            self.tele
                .set_gauge("opm_roofline_ai_milli", &labels, milli(attr.ai));
            self.tele.set_gauge(
                "opm_roofline_ceiling_frac_milli",
                &labels,
                milli(attr.ceiling_frac),
            );
            self.tele
                .set_gauge("opm_roofline_gain_milli", &labels, milli(1.0 + attr.gain));
            self.tele.set_gauge(
                "opm_roofline_breakeven_milli",
                &labels,
                milli(1.0 + attr.breakeven),
            );
            for (level, gbs) in &attr.levels {
                self.tele.set_gauge(
                    "opm_roofline_level_gbs_milli",
                    &format!("{labels},level=\"{level}\""),
                    milli(*gbs),
                );
            }
        }
        if self.tele.mode() == TelemetryMode::Full {
            let mut args = vec![
                ("stage".to_string(), stage),
                ("ai".to_string(), format!("{:.6}", attr.ai)),
                ("gflops".to_string(), format!("{:.6}", attr.gflops)),
                (
                    "ceiling_frac".to_string(),
                    format!("{:.6}", attr.ceiling_frac),
                ),
                ("gain".to_string(), format!("{:.6}", attr.gain)),
                ("margin".to_string(), format!("{:.6}", attr.margin)),
            ];
            if let Some(point) = point {
                args.push(("point".to_string(), point.to_string()));
            }
            for (level, gbs) in &attr.levels {
                args.push((format!("gbs_{level}"), format!("{gbs:.6}")));
            }
            self.tele.instant("roofline", &args);
        }
        est.gflops
    }

    /// Number of stages recorded so far (use with [`Engine::stages_since`]
    /// to attribute stages to a window, e.g. one figure).
    pub fn stage_count(&self) -> usize {
        lock_recover(&self.stages).records.len()
    }

    /// Copies of the stage records from index `from` onward.
    pub fn stages_since(&self, from: usize) -> Vec<StageRecord> {
        let records = &lock_recover(&self.stages).records;
        records[from.min(records.len())..].to_vec()
    }

    /// Copies of every stage record.
    pub fn stages(&self) -> Vec<StageRecord> {
        self.stages_since(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::telemetry::{SpanRecord, TelemetrySink};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Collects completed spans.
    #[derive(Default)]
    struct Spans(Mutex<Vec<SpanRecord>>);

    impl TelemetrySink for Spans {
        fn span_end(&self, record: &SpanRecord) {
            self.0.lock().unwrap().push(record.clone());
        }
    }

    #[test]
    fn par_map_is_order_preserving() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        let eng = Engine::new(EngineConfig::default());
        assert_eq!(eng.par_map(&items, |&x| x * x), expect);
        assert_eq!(eng.config().threads, 1);
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let eng = Engine::new(EngineConfig::default());
        assert_eq!(eng.par_map(&[] as &[usize], |&x| x), Vec::<usize>::new());
        assert_eq!(eng.par_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn run_stage_records_points() {
        let eng = Engine::new(EngineConfig::default());
        let out = eng.run_stage("probe", |e| {
            let v = e.par_map(&[1usize, 2, 3, 4, 5], |&i| i * 2);
            let n = v.len();
            (v, n)
        });
        assert_eq!(out, vec![2, 4, 6, 8, 10]);
        let stages = eng.stages();
        assert_eq!(stages.len(), 1);
        assert_eq!(&*stages[0].label, "probe");
        assert_eq!(stages[0].points, 5);
        // A repeated label is stored once, not once per record.
        eng.run_stage("probe", |_| ((), 0));
        let stages = eng.stages();
        assert!(Arc::ptr_eq(&stages[0].label, &stages[1].label));
    }

    #[test]
    fn concurrent_callers_keep_their_own_stage_labels() {
        // Two threads are inside their stages on one engine at once
        // (the barrier holds each until both have entered); each failure
        // must be filed under its own thread's stage.
        let eng = Engine::new(EngineConfig::default());
        let both_inside = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for label in ["left", "right"] {
                let (eng, both_inside) = (&eng, &both_inside);
                s.spawn(move || {
                    eng.run_stage(label, |e| {
                        both_inside.wait();
                        let items: Vec<usize> = (0..50).collect();
                        let v = catch_unwind(AssertUnwindSafe(|| {
                            e.par_map(&items, |&x| {
                                if x == 7 {
                                    panic!("{label} point");
                                }
                                x
                            })
                        }));
                        assert!(v.is_err());
                        ((), items.len())
                    })
                });
            }
        });
        let mut failures: Vec<(String, String)> = eng
            .failures()
            .into_iter()
            .map(|f| (f.stage, f.message))
            .collect();
        failures.sort();
        assert_eq!(
            failures,
            vec![
                ("left".to_string(), "left point".to_string()),
                ("right".to_string(), "right point".to_string()),
            ]
        );
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        let m = Mutex::new(7usize);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn par_map_propagates_a_structured_panic_and_engine_survives() {
        let eng = Engine::new(EngineConfig::default());
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            eng.par_map(&items, |&x| {
                if x == 13 {
                    panic!("organic failure at {x}");
                }
                x
            })
        }));
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().expect("structured message");
        assert!(msg.contains("point 13"), "{msg}");
        assert!(msg.contains("organic failure at 13"), "{msg}");
        // Failure recorded; engine (and its locks) still fully usable.
        let failures = eng.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 13);
        assert!(!failures[0].transient);
        assert_eq!(failures[0].attempts, 1, "organic panics are not retried");
        let ok = eng.par_map(&items, |&x| x + 1);
        assert_eq!(ok.len(), 64);
    }

    #[test]
    fn par_map_isolated_substitutes_placeholders_and_records() {
        let eng = Engine::new(EngineConfig::default());
        let items: Vec<usize> = (0..40).collect();
        let got = eng.par_map_isolated(
            "probe_stage",
            &items,
            |&x| {
                if x % 10 == 3 {
                    panic!("bad point {x}");
                }
                x as i64
            },
            |_, i| -(i as i64),
        );
        let expect: Vec<i64> = (0..40)
            .map(|x| if x % 10 == 3 { -(x as i64) } else { x as i64 })
            .collect();
        assert_eq!(got, expect);
        let failures = eng.failures();
        let failed: Vec<usize> = failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![3, 13, 23, 33], "recorded in point order");
        assert!(failures.iter().all(|f| f.stage == "probe_stage"));
        assert!(failures.iter().all(|f| !f.recovered));
    }

    #[test]
    fn transient_injected_faults_are_retried_and_recovered() {
        let plan = FaultPlan::parse("panic@point:5").unwrap();
        let eng = Engine::new(EngineConfig::default().with_fault_plan(plan));
        let items: Vec<usize> = (0..10).collect();
        let calls = AtomicU64::new(0);
        let got = eng.par_map_isolated(
            "retry_stage",
            &items,
            |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * 2
            },
            |_, _| usize::MAX,
        );
        // The injected fault fired before f ran, was retried, and the
        // retry produced the real value — no placeholder anywhere.
        assert_eq!(got, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        let failures = eng.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].recovered);
        assert!(failures[0].transient);
        assert_eq!(failures[0].index, 5);
        assert_eq!(failures[0].attempts, 2);
    }

    #[test]
    fn persistent_injected_faults_exhaust_retries_and_quarantine() {
        let plan = FaultPlan::parse("io@point:2:persist").unwrap();
        let mut config = EngineConfig::default().with_fault_plan(plan);
        config.max_retries = 3;
        config.backoff_base_us = 0;
        let eng = Engine::new(config);
        let items: Vec<usize> = (0..4).collect();
        let got = eng.par_map_isolated("q_stage", &items, |&x| x, |_, _| usize::MAX);
        assert_eq!(got, vec![0, 1, usize::MAX, 3]);
        let failures = eng.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 4, "1 try + 3 retries");
        assert_eq!(failures[0].kind, FaultKind::Io);
        assert!(!failures[0].recovered);
        assert_eq!(failures[0].outcome(), "quarantined");
    }

    #[test]
    fn points_per_sec_is_zero_for_instantaneous_stage() {
        // A tiny stage can complete in 0 ns of measured wall time; the
        // rate must degrade to 0.0, never inf/NaN.
        let r = StageRecord {
            label: "instant".into(),
            points: 128,
            wall_ns: 0,
        };
        assert_eq!(r.wall_secs(), 0.0);
        assert_eq!(r.points_per_sec(), 0.0);
        assert!(r.points_per_sec().is_finite());
        // And stays a plain rate when wall time is real.
        let r2 = StageRecord {
            wall_ns: 2_000_000_000,
            ..r
        };
        assert!((r2.points_per_sec() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn run_stage_emits_a_stage_span_with_its_points() {
        use opm_core::telemetry::{Telemetry, TelemetryMode};
        let tele = Telemetry::new(TelemetryMode::Summary);
        let sink = Arc::new(Spans::default());
        tele.add_sink(sink.clone());
        let eng = Engine::new(EngineConfig::default().with_telemetry(tele.clone()));
        eng.run_stage("span_stage", |_| ((), 2));
        let spans = sink.0.lock().unwrap().clone();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].path, "span_stage");
        assert_eq!(spans[0].cat, "stage");
        let args = &spans[0].args;
        assert!(
            args.contains(&("points".to_string(), "2".to_string())),
            "{args:?}"
        );
        assert_eq!(tele.counter("opm_points_total").get(), 2);
        assert_eq!(tele.counter("opm_stages_total").get(), 1);
    }

    #[test]
    fn full_mode_emits_one_point_span_per_point_under_the_stage() {
        use opm_core::telemetry::{Telemetry, TelemetryMode};
        let tele = Telemetry::new(TelemetryMode::Full);
        let sink = Arc::new(Spans::default());
        tele.add_sink(sink.clone());
        let eng = Engine::new(EngineConfig::default().with_telemetry(tele));
        let items: Vec<usize> = (0..9).collect();
        eng.run_stage("pts", |e| {
            let v = e.par_map(&items, |&x| x);
            let n = v.len();
            (v, n)
        });
        let mut expect: Vec<String> = (0..9).map(|i| format!("pts>point:{i}")).collect();
        expect.push("pts".to_string());
        expect.sort();
        let spans = sink.0.lock().unwrap();
        let mut paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        paths.sort_unstable();
        assert_eq!(paths, expect);
    }

    #[test]
    fn failure_telemetry_counts_retries_recoveries_and_quarantines() {
        use opm_core::telemetry::{Telemetry, TelemetryMode};
        let tele = Telemetry::new(TelemetryMode::Summary);
        let plan = FaultPlan::parse("panic@point:1,io@point:3:persist").unwrap();
        let mut config = EngineConfig::default()
            .with_fault_plan(plan)
            .with_telemetry(tele.clone());
        config.max_retries = 2;
        config.backoff_base_us = 0;
        let eng = Engine::new(config);
        let items: Vec<usize> = (0..5).collect();
        let _ = eng.par_map_isolated("faulty", &items, |&x| x, |_, _| usize::MAX);
        // Point 1: one retry, recovered. Point 3: persistent, 2 retries,
        // quarantined.
        assert_eq!(tele.counter("opm_points_recovered_total").get(), 1);
        assert_eq!(tele.counter("opm_points_quarantined_total").get(), 1);
        assert_eq!(tele.counter("opm_point_retries_total").get(), 3);
    }
}
