//! Deterministic fault injection for the sweep engine and the corpus
//! loaders.
//!
//! Long mode-sweep campaigns must tolerate per-point failures (a single
//! bad run on real OPM hardware costs hours), and the only way to *prove*
//! the fault-tolerance machinery works is to exercise it on demand. This
//! module turns the `OPM_FAULT_SPEC` environment variable into a
//! [`FaultPlan`]: a set of rules that decide — as a pure function of the
//! stage label, point index, matrix name, and attempt number — whether a
//! fault fires at a given site. Because the decision never involves wall
//! clock, thread identity, or global mutable state, an injected run is
//! reproducible: the same points fault, the same points recover, and the
//! output CSVs are byte-identical from run to run.
//!
//! # Spec grammar
//!
//! ```text
//! spec  := rule ("," rule)*
//! rule  := kind "@" seg (":" seg)*
//! kind  := "panic" | "io"                      in-process point faults
//!        | "kill" | "hang"                     process-level faults
//!        | "corrupt-ckpt" | "partial-write"    checkpoint-journal faults
//! seg   := "point" ":" <usize>     exact sweep-point index
//!        | "stage" ":" <substr>    only stages whose label contains <substr>
//!        | "matrix" ":" <name>     exact corpus matrix/file stem
//!        | "rate" ":" <f64>        seeded random rate over points
//!        | "seed" ":" <u64>        seed for the rate hash (default 0xA11CE)
//!        | "shard" ":" <usize>     only the worker whose OPM_SHARD matches
//!        | "persist"               fire on every attempt, not just the first
//! ```
//!
//! Examples:
//!
//! * `panic@point:17` — point 17 of every stage panics on its first
//!   attempt (a retry recovers it).
//! * `io@matrix:simple3` — loading the corpus matrix `simple3` fails with
//!   an injected I/O error on the first attempt.
//! * `panic@stage:stream_curve:rate:0.05:seed:7:persist` — 5 % of the
//!   points of every `stream_curve` stage panic on *every* attempt, so
//!   retries are exhausted and the points are quarantined.
//! * `kill@point:2:shard:1` — shard worker 1 exits with SIGKILL's status
//!   (137) when it reaches point 2 of its first stage, but only on the
//!   process's first life (`OPM_SHARD_ATTEMPT=0`); the supervisor's
//!   restart completes normally.
//! * `hang@point:1` — the evaluating thread wedges forever and the
//!   heartbeat thread stops beating, so the supervisor's watchdog fires.
//! * `partial-write@stage:fig23` — the `done` marker of any figure whose
//!   name contains `fig23` is torn mid-write (journal truncated), which
//!   resume must detect and recover from.
//!
//! Injected panics carry an [`InjectedFault`] payload, which the engine
//! downcasts to classify the failure as transient (retryable). A rule
//! without `persist` fires only on attempt 0, so the bounded-backoff
//! retry path recovers it; with `persist` it fires on every attempt and
//! the point ends in the error manifest with a placeholder result.
//!
//! # Process-level faults
//!
//! `kill`, `hang`, `corrupt-ckpt` and `partial-write` test the *process*
//! fault domain (shard supervision, watchdog, atomic checkpoints), so
//! their attempt counter is the process's restart generation — the
//! `OPM_SHARD_ATTEMPT` environment variable the supervisor increments on
//! every respawn — not the per-point retry attempt. A non-`persist`
//! process rule therefore fires once per shard lifetime: the restarted
//! worker runs clean, and the merged campaign output is byte-identical
//! to a fault-free run. The `shard:<i>` selector additionally restricts
//! any rule to the worker whose `OPM_SHARD` matches.

use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering};

/// Default seed for `rate` rules without an explicit `seed` segment.
pub const DEFAULT_RATE_SEED: u64 = 0xA11CE;

/// What kind of failure a rule injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A panic in the middle of a sweep-point evaluation.
    Panic,
    /// An I/O error (corpus file read); in compute stages it is simulated
    /// by a panic whose payload is classified as an I/O fault.
    Io,
    /// The whole process exits with status 137 (what a `kill -9` leaves
    /// behind) mid-evaluation — the supervisor must respawn the shard.
    Kill,
    /// The evaluating thread wedges forever and the heartbeat stops —
    /// the supervisor's stale-heartbeat watchdog must kill and respawn
    /// the shard.
    Hang,
    /// A checkpoint journal write lands but a byte of the file is
    /// corrupted (bit rot / torn sector) — resume must reject the
    /// journal instead of trusting it.
    CorruptCkpt,
    /// A checkpoint journal write is torn: the file is truncated a few
    /// bytes short of the last record — resume must fall back to the
    /// last intact entry.
    PartialWrite,
}

impl FaultKind {
    /// Short label for manifests.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
            FaultKind::Kill => "kill",
            FaultKind::Hang => "hang",
            FaultKind::CorruptCkpt => "corrupt-ckpt",
            FaultKind::PartialWrite => "partial-write",
        }
    }

    /// Whether this kind takes down (or wedges) the whole process rather
    /// than one point evaluation.
    pub fn is_process(&self) -> bool {
        matches!(self, FaultKind::Kill | FaultKind::Hang)
    }

    /// Whether this kind damages checkpoint-journal writes.
    pub fn is_ckpt(&self) -> bool {
        matches!(self, FaultKind::CorruptCkpt | FaultKind::PartialWrite)
    }
}

/// Set once an injected `hang` fault has wedged a thread in this process;
/// the heartbeat thread polls it and stops beating, so the supervisor's
/// watchdog observes exactly what a real livelock looks like.
static HUNG: AtomicBool = AtomicBool::new(false);

/// Whether an injected `hang` fault has fired in this process.
pub fn is_hung() -> bool {
    HUNG.load(Ordering::Relaxed)
}

/// This process's shard index, when running as a shard worker
/// (`OPM_SHARD`, set by the supervisor).
pub fn shard_index() -> Option<usize> {
    std::env::var("OPM_SHARD").ok()?.trim().parse().ok()
}

/// This process's restart generation (`OPM_SHARD_ATTEMPT`, incremented by
/// the supervisor on every respawn; 0 for a first life or a standalone
/// run). Process-level rules use this as their attempt counter.
pub fn shard_attempt() -> usize {
    std::env::var("OPM_SHARD_ATTEMPT")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// One parsed injection rule. All selectors present must match for the
/// rule to fire (conjunction).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Failure kind to inject.
    pub kind: FaultKind,
    /// Exact sweep-point index selector.
    pub point: Option<usize>,
    /// Stage-label substring selector.
    pub stage: Option<String>,
    /// Exact matrix/file-stem selector.
    pub matrix: Option<String>,
    /// Seeded random rate over points (0.0–1.0).
    pub rate: Option<f64>,
    /// Seed for the rate hash.
    pub seed: u64,
    /// Only the shard worker whose `OPM_SHARD` matches.
    pub shard: Option<usize>,
    /// Fire on every attempt (exhausting retries) instead of only the
    /// first.
    pub persistent: bool,
}

impl FaultRule {
    /// The `shard:<i>` selector, evaluated against this process's
    /// `OPM_SHARD`. A rule with no shard selector matches every process.
    fn shard_matches(&self) -> bool {
        match self.shard {
            Some(s) => shard_index() == Some(s),
            None => true,
        }
    }

    fn fires_on_point(&self, stage: &str, index: usize, attempt: usize) -> bool {
        if self.matrix.is_some() {
            return false; // matrix rules only fire on corpus loads
        }
        if !self.persistent && attempt > 0 {
            return false;
        }
        if !self.shard_matches() {
            return false;
        }
        if let Some(s) = &self.stage {
            if !stage.contains(s.as_str()) {
                return false;
            }
        }
        if let Some(p) = self.point {
            if p != index {
                return false;
            }
        }
        if let Some(rate) = self.rate {
            if !rate_hit(self.seed, stage, index, rate) {
                return false;
            }
        }
        // Every present selector matched. A bare rule with no selector at
        // all matches everything — the intentional "chaos monkey" spec.
        true
    }

    fn fires_on_matrix(&self, name: &str, attempt: usize) -> bool {
        if !self.persistent && attempt > 0 {
            return false;
        }
        if !self.shard_matches() {
            return false;
        }
        match &self.matrix {
            Some(m) => m == name,
            None => false,
        }
    }

    /// Whether a checkpoint-fault rule fires for `figure`'s journal. The
    /// `stage` selector matches against the figure name; `point`/`rate`
    /// selectors do not apply to journal writes and disable the rule.
    fn fires_on_ckpt(&self, figure: &str, attempt: usize) -> bool {
        if self.matrix.is_some() || self.point.is_some() || self.rate.is_some() {
            return false;
        }
        if !self.persistent && attempt > 0 {
            return false;
        }
        if !self.shard_matches() {
            return false;
        }
        match &self.stage {
            Some(s) => figure.contains(s.as_str()),
            None => true,
        }
    }
}

/// Deterministic per-(seed, stage, point) coin flip: FNV-1a over the seed,
/// stage label, and point index, compared against `rate`. The calling thread
/// and evaluation order never enter the hash, so the same points fault in
/// every configuration.
fn rate_hit(seed: u64, stage: &str, index: usize, rate: f64) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in stage.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    for b in (index as u64).to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Map to [0, 1) using the top 53 bits (exact in an f64).
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

/// A parsed `OPM_FAULT_SPEC`: every rule is consulted at every site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The rules, in spec order (first match wins).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind, rest) = raw
                .split_once('@')
                .ok_or_else(|| format!("rule {raw:?}: expected <kind>@<selectors>"))?;
            let kind = match kind.trim() {
                "panic" => FaultKind::Panic,
                "io" => FaultKind::Io,
                "kill" => FaultKind::Kill,
                "hang" => FaultKind::Hang,
                "corrupt-ckpt" => FaultKind::CorruptCkpt,
                "partial-write" => FaultKind::PartialWrite,
                other => return Err(format!("rule {raw:?}: unknown fault kind {other:?}")),
            };
            let mut rule = FaultRule {
                kind,
                point: None,
                stage: None,
                matrix: None,
                rate: None,
                seed: DEFAULT_RATE_SEED,
                shard: None,
                persistent: false,
            };
            let mut toks = rest.split(':');
            while let Some(tok) = toks.next() {
                let tok = tok.trim();
                let mut arg = |name: &str| {
                    toks.next()
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .ok_or_else(|| format!("rule {raw:?}: {name} needs a value"))
                };
                match tok {
                    "point" => {
                        rule.point = Some(
                            arg("point")?
                                .parse()
                                .map_err(|_| format!("rule {raw:?}: bad point index"))?,
                        )
                    }
                    "stage" => rule.stage = Some(arg("stage")?.to_string()),
                    "matrix" => rule.matrix = Some(arg("matrix")?.to_string()),
                    "rate" => {
                        let r: f64 = arg("rate")?
                            .parse()
                            .map_err(|_| format!("rule {raw:?}: bad rate"))?;
                        if !(0.0..=1.0).contains(&r) {
                            return Err(format!("rule {raw:?}: rate must be in [0, 1]"));
                        }
                        rule.rate = Some(r);
                    }
                    "seed" => {
                        rule.seed = arg("seed")?
                            .parse()
                            .map_err(|_| format!("rule {raw:?}: bad seed"))?
                    }
                    "shard" => {
                        rule.shard = Some(
                            arg("shard")?
                                .parse()
                                .map_err(|_| format!("rule {raw:?}: bad shard index"))?,
                        )
                    }
                    "persist" => rule.persistent = true,
                    "" => {}
                    other => return Err(format!("rule {raw:?}: unknown selector {other:?}")),
                }
            }
            rules.push(rule);
        }
        if rules.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(FaultPlan { rules })
    }

    /// Read and parse `OPM_FAULT_SPEC` (through the typed
    /// [`opm_core::config::Config`]); `None` when unset/empty. An
    /// invalid spec is a hard error — silently ignoring it would make a
    /// fault-injection CI job pass without injecting anything.
    pub fn from_env() -> Option<FaultPlan> {
        FaultPlan::from_config(&opm_core::config::Config::from_env_or_die())
    }

    /// The fault plan named by a parsed configuration; `None` when no
    /// spec is set. Grammar errors panic with the offending spec, as in
    /// [`FaultPlan::from_env`].
    pub fn from_config(cfg: &opm_core::config::Config) -> Option<FaultPlan> {
        let spec = cfg.fault_spec.as_deref()?;
        match FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(e) => panic!("invalid OPM_FAULT_SPEC {spec:?}: {e}"),
        }
    }

    /// The in-process fault (if any) injected at sweep point `index` of
    /// `stage` on attempt `attempt` (0 = first try). Pure function of its
    /// arguments; process-level and checkpoint kinds never fire here.
    pub fn point_fault(&self, stage: &str, index: usize, attempt: usize) -> Option<FaultKind> {
        self.rules
            .iter()
            .filter(|r| !r.kind.is_process() && !r.kind.is_ckpt())
            .find(|r| r.fires_on_point(stage, index, attempt))
            .map(|r| r.kind)
    }

    /// The fault (if any) injected when loading corpus matrix `name` on
    /// attempt `attempt`. Only in-process kinds (`panic`/`io`) apply.
    pub fn matrix_fault(&self, name: &str, attempt: usize) -> Option<FaultKind> {
        self.rules
            .iter()
            .filter(|r| !r.kind.is_process() && !r.kind.is_ckpt())
            .find(|r| r.fires_on_matrix(name, attempt))
            .map(|r| r.kind)
    }

    /// The process-level fault (`kill`/`hang`) a rule injects at this
    /// sweep point, with the *process restart generation*
    /// ([`shard_attempt`]) as the attempt counter — a non-`persist` rule
    /// fires once per shard lifetime, so the supervisor's respawn runs
    /// clean.
    pub fn process_fault(&self, stage: &str, index: usize) -> Option<FaultKind> {
        if !self.rules.iter().any(|r| r.kind.is_process()) {
            return None;
        }
        let attempt = shard_attempt();
        self.rules
            .iter()
            .filter(|r| r.kind.is_process())
            .find(|r| r.fires_on_point(stage, index, attempt))
            .map(|r| r.kind)
    }

    /// The checkpoint-journal fault (`corrupt-ckpt`/`partial-write`) a
    /// rule injects on `figure`'s journal, keyed by the process restart
    /// generation like [`process_fault`].
    pub fn ckpt_fault(&self, figure: &str) -> Option<FaultKind> {
        if !self.rules.iter().any(|r| r.kind.is_ckpt()) {
            return None;
        }
        let attempt = shard_attempt();
        self.rules
            .iter()
            .filter(|r| r.kind.is_ckpt())
            .find(|r| r.fires_on_ckpt(figure, attempt))
            .map(|r| r.kind)
    }

    /// Fire whatever rule matches this sweep point. Process-level faults
    /// act first: `kill` exits the process with status 137 (SIGKILL's
    /// wait status), `hang` wedges the calling thread forever and raises
    /// the [`is_hung`] flag so the heartbeat stops. In-process faults
    /// panic with an [`InjectedFault`] payload; the engine's per-point
    /// `catch_unwind` routes them through the same recovery path as
    /// organic panics.
    pub fn fire_point(&self, stage: &str, index: usize, attempt: usize) {
        match self.process_fault(stage, index) {
            Some(FaultKind::Kill) => {
                eprintln!("fault injection: kill at {stage}@point:{index} (exit 137)");
                // The flight recorder's ring already holds this point's
                // span begin; dump the post-mortem before dying.
                opm_core::telemetry::flight_dump("kill");
                std::process::exit(137);
            }
            Some(FaultKind::Hang) => {
                eprintln!("fault injection: hang at {stage}@point:{index}");
                opm_core::telemetry::flight_dump("hang");
                HUNG.store(true, Ordering::SeqCst);
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            _ => {}
        }
        if let Some(kind) = self.point_fault(stage, index, attempt) {
            panic_any(InjectedFault {
                kind,
                site: format!("{stage}@point:{index}"),
            });
        }
    }
}

/// Panic payload of an injected fault; the engine downcasts panic payloads
/// to this type to classify a failure as transient (injected faults and
/// I/O faults are retried, organic panics are not — deterministic code
/// that panicked once will panic again).
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// What the rule injected.
    pub kind: FaultKind,
    /// Where it fired, e.g. `gemm_sweep/brd-edram@point:17`.
    pub site: String,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected {} fault at {}", self.kind.label(), self.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_issue_examples() {
        let plan = FaultPlan::parse("panic@point:17,io@matrix:simple3").unwrap();
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].kind, FaultKind::Panic);
        assert_eq!(plan.rules[0].point, Some(17));
        assert_eq!(plan.rules[1].kind, FaultKind::Io);
        assert_eq!(plan.rules[1].matrix.as_deref(), Some("simple3"));
        assert_eq!(plan.point_fault("any_stage", 17, 0), Some(FaultKind::Panic));
        assert_eq!(plan.point_fault("any_stage", 16, 0), None);
        assert_eq!(plan.matrix_fault("simple3", 0), Some(FaultKind::Io));
        assert_eq!(plan.matrix_fault("simple4", 0), None);
    }

    #[test]
    fn transient_rules_fire_only_on_first_attempt() {
        let plan = FaultPlan::parse("panic@point:3").unwrap();
        assert!(plan.point_fault("s", 3, 0).is_some());
        assert!(plan.point_fault("s", 3, 1).is_none());
        let plan = FaultPlan::parse("panic@point:3:persist").unwrap();
        assert!(plan.point_fault("s", 3, 0).is_some());
        assert!(plan.point_fault("s", 3, 5).is_some());
    }

    #[test]
    fn stage_selector_filters_by_substring() {
        let plan = FaultPlan::parse("panic@stage:stream_curve:point:2").unwrap();
        assert!(plan.point_fault("stream_curve/knl-flat", 2, 0).is_some());
        assert!(plan.point_fault("gemm_sweep/knl-flat", 2, 0).is_none());
        assert!(plan.point_fault("stream_curve/knl-flat", 3, 0).is_none());
    }

    #[test]
    fn rate_rule_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::parse("panic@rate:0.25:seed:42").unwrap();
        let hits: Vec<usize> = (0..1000)
            .filter(|&i| plan.point_fault("stage", i, 0).is_some())
            .collect();
        // Deterministic: a second evaluation sees the identical set.
        let again: Vec<usize> = (0..1000)
            .filter(|&i| plan.point_fault("stage", i, 0).is_some())
            .collect();
        assert_eq!(hits, again);
        // Calibrated within loose bounds.
        assert!(
            hits.len() > 150 && hits.len() < 350,
            "0.25 rate hit {} of 1000",
            hits.len()
        );
        // Different seeds pick different points.
        let other = FaultPlan::parse("panic@rate:0.25:seed:43").unwrap();
        let other_hits: Vec<usize> = (0..1000)
            .filter(|&i| other.point_fault("stage", i, 0).is_some())
            .collect();
        assert_ne!(hits, other_hits);
    }

    #[test]
    fn matrix_rules_do_not_fire_on_points() {
        let plan = FaultPlan::parse("io@matrix:bad").unwrap();
        for i in 0..64 {
            assert!(plan.point_fault("stage", i, 0).is_none());
        }
        assert_eq!(plan.matrix_fault("bad", 0), Some(FaultKind::Io));
        assert_eq!(plan.matrix_fault("bad", 1), None, "transient by default");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("frob@point:1").is_err());
        assert!(FaultPlan::parse("panic@point").is_err());
        assert!(FaultPlan::parse("panic@point:x").is_err());
        assert!(FaultPlan::parse("panic@rate:1.5").is_err());
        assert!(FaultPlan::parse("panic@wibble:3").is_err());
    }

    #[test]
    fn process_kinds_parse_and_stay_out_of_point_faults() {
        let plan =
            FaultPlan::parse("kill@point:2:shard:1,hang@point:1,corrupt-ckpt@stage:fig23").unwrap();
        assert_eq!(plan.rules[0].kind, FaultKind::Kill);
        assert_eq!(plan.rules[0].shard, Some(1));
        assert_eq!(plan.rules[1].kind, FaultKind::Hang);
        assert_eq!(plan.rules[2].kind, FaultKind::CorruptCkpt);
        // Process/ckpt kinds never leak into the engine's per-point path
        // (they would be misclassified as retryable panics).
        for i in 0..8 {
            assert_eq!(plan.point_fault("any", i, 0), None);
        }
        assert!(FaultKind::Kill.is_process());
        assert!(FaultKind::Hang.is_process());
        assert!(FaultKind::PartialWrite.is_ckpt());
        assert!(!FaultKind::Panic.is_process());
        assert!(FaultPlan::parse("kill@shard:x").is_err());
    }

    /// Serializes the tests that mutate `OPM_SHARD*`.
    static SHARD_ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn process_fault_uses_shard_attempt_and_shard_selector() {
        let _lock = SHARD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let plan = FaultPlan::parse("kill@point:2,hang@point:1:shard:3:persist").unwrap();
        std::env::remove_var("OPM_SHARD");
        std::env::remove_var("OPM_SHARD_ATTEMPT");
        // No shard env: unselected shard rule is silent, bare rule fires.
        assert_eq!(plan.process_fault("s", 2), Some(FaultKind::Kill));
        assert_eq!(plan.process_fault("s", 1), None);
        // Restart generation 1: non-persist kill is spent.
        std::env::set_var("OPM_SHARD_ATTEMPT", "1");
        assert_eq!(plan.process_fault("s", 2), None);
        // Matching shard: persistent hang still fires on any attempt.
        std::env::set_var("OPM_SHARD", "3");
        assert_eq!(plan.process_fault("s", 1), Some(FaultKind::Hang));
        std::env::set_var("OPM_SHARD", "0");
        assert_eq!(plan.process_fault("s", 1), None);
        std::env::remove_var("OPM_SHARD");
        std::env::remove_var("OPM_SHARD_ATTEMPT");
    }

    #[test]
    fn ckpt_fault_selects_by_figure_name() {
        let _lock = SHARD_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("OPM_SHARD");
        std::env::remove_var("OPM_SHARD_ATTEMPT");
        let plan = FaultPlan::parse("partial-write@stage:fig23,corrupt-ckpt@stage:fig12").unwrap();
        assert_eq!(
            plan.ckpt_fault("fig23_stream_knl"),
            Some(FaultKind::PartialWrite)
        );
        assert_eq!(
            plan.ckpt_fault("fig12_stream_broadwell"),
            Some(FaultKind::CorruptCkpt)
        );
        assert_eq!(plan.ckpt_fault("fig06_stepping_model"), None);
        // Point faults stay silent for ckpt kinds and vice versa.
        assert_eq!(plan.point_fault("fig23_stream_knl", 0, 0), None);
        let point_plan = FaultPlan::parse("panic@point:1").unwrap();
        assert_eq!(point_plan.ckpt_fault("fig23_stream_knl"), None);
    }

    #[test]
    fn fire_point_panics_with_typed_payload() {
        let plan = FaultPlan::parse("io@point:5").unwrap();
        let err = std::panic::catch_unwind(|| plan.fire_point("s", 5, 0)).unwrap_err();
        let fault = err.downcast_ref::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.kind, FaultKind::Io);
        assert!(fault.site.contains("point:5"));
        assert!(std::panic::catch_unwind(|| plan.fire_point("s", 4, 0)).is_ok());
    }
}
