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
//! kind  := "panic" | "io"
//! seg   := "point" ":" <usize>     exact sweep-point index
//!        | "stage" ":" <substr>    only stages whose label contains <substr>
//!        | "matrix" ":" <name>     exact corpus matrix/file stem
//!        | "rate" ":" <f64>        seeded random rate over points
//!        | "seed" ":" <u64>        seed for the rate hash (default 0xA11CE)
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
//!
//! Injected panics carry an [`InjectedFault`] payload, which the engine
//! downcasts to classify the failure as transient (retryable). A rule
//! without `persist` fires only on attempt 0, so the bounded-backoff
//! retry path recovers it; with `persist` it fires on every attempt and
//! the point ends in the error manifest with a placeholder result.

use std::panic::panic_any;

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
}

impl FaultKind {
    /// Short label for manifests.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Io => "io",
        }
    }
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
    /// Fire on every attempt (exhausting retries) instead of only the
    /// first.
    pub persistent: bool,
}

impl FaultRule {
    fn fires_on_point(&self, stage: &str, index: usize, attempt: usize) -> bool {
        if self.matrix.is_some() {
            return false; // matrix rules only fire on corpus loads
        }
        if !self.persistent && attempt > 0 {
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
        match &self.matrix {
            Some(m) => m == name,
            None => false,
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
                other => return Err(format!("rule {raw:?}: unknown fault kind {other:?}")),
            };
            let mut rule = FaultRule {
                kind,
                point: None,
                stage: None,
                matrix: None,
                rate: None,
                seed: DEFAULT_RATE_SEED,
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

    /// The fault (if any) injected at sweep point `index` of
    /// `stage` on attempt `attempt` (0 = first try). Pure function of its
    /// arguments.
    pub fn point_fault(&self, stage: &str, index: usize, attempt: usize) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.fires_on_point(stage, index, attempt))
            .map(|r| r.kind)
    }

    /// The fault (if any) injected when loading corpus matrix `name` on
    /// attempt `attempt`.
    pub fn matrix_fault(&self, name: &str, attempt: usize) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.fires_on_matrix(name, attempt))
            .map(|r| r.kind)
    }

    /// Fire whatever rule matches this sweep point: the fault panics
    /// with an [`InjectedFault`] payload, and the engine's per-point
    /// `catch_unwind` routes it through the same recovery path as an
    /// organic panic.
    pub fn fire_point(&self, stage: &str, index: usize, attempt: usize) {
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
        // The process and checkpoint-journal kinds and the shard selector
        // left with the multi-process campaign.
        for retired in [
            "kill@point:1",
            "hang@point:1",
            "corrupt-ckpt@stage:fig23",
            "partial-write@stage:fig23",
            "panic@point:1:shard:0",
        ] {
            assert!(FaultPlan::parse(retired).is_err(), "{retired}");
        }
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
