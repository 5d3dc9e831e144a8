//! Typed process configuration: every `OPM_*` environment knob parsed
//! once into one struct, with *typed errors* on malformed values.
//!
//! Before this module each consumer read its own variable with an
//! `.ok().and_then(parse).unwrap_or(default)` chain, so a typo'd value
//! (`OPM_TELEMETRY=ful`) silently fell back to the default and the
//! misconfiguration surfaced — if ever — as a puzzling observability
//! gap. [`Config::from_env`] instead rejects a malformed value with a
//! [`ConfigError`] naming the variable, the offending value, and what was
//! expected. The knobs are `OPM_TELEMETRY`, `OPM_RUN_ID`,
//! `OPM_FAULT_SPEC` and `OPM_RESULTS`; any other `OPM_*` variable, such
//! as one a retired knob left in an old script, is ignored. Environment
//! variables remain the configuration *source* (the `opm` CLI applies its
//! global flags by setting them); this module is the single parsing
//! point every consumer reads.
//!
//! Unset variables and empty strings both select the documented default
//! (several call sites historically treated `OPM_RUN_ID=""` and
//! `OPM_FAULT_SPEC=""` as unset; the rule is uniform here).
//!
//! `OPM_FAULT_SPEC` is carried as the raw specification string: its
//! grammar (`kind@selector:...`) belongs to `opm-kernels::faultinject`,
//! which parses — and reports its own typed errors for — the value
//! stored here.

use crate::telemetry::TelemetryMode;
use std::fmt;
use std::path::PathBuf;

/// One malformed configuration value: which variable, what it held, and
/// what a valid value looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The environment variable name, e.g. `OPM_TELEMETRY`.
    pub var: &'static str,
    /// The malformed value as found in the environment.
    pub value: String,
    /// Human-readable description of the accepted grammar.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}={:?}: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// The process configuration: every `OPM_*` knob, typed.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// `OPM_TELEMETRY` — recording mode (default off).
    pub telemetry: TelemetryMode,
    /// `OPM_RUN_ID` — name of this run's telemetry artifacts (`None` =
    /// derive from the process id).
    pub run_id: Option<String>,
    /// `OPM_FAULT_SPEC` — raw fault-injection specification (`None` =
    /// no injection; grammar parsed by `opm-kernels::faultinject`).
    pub fault_spec: Option<String>,
    /// `OPM_RESULTS` — output directory for results (default
    /// `results`).
    pub results_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            telemetry: TelemetryMode::Off,
            run_id: None,
            fault_spec: None,
            results_dir: PathBuf::from("results"),
        }
    }
}

impl Config {
    /// Parse the configuration from the process environment. Returns
    /// the first malformed value as a typed error instead of silently
    /// substituting a default.
    pub fn from_env() -> Result<Config, ConfigError> {
        Config::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parse from an arbitrary variable source (tests inject maps here
    /// so malformed-value coverage never races the real environment).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Config, ConfigError> {
        // Empty string == unset, uniformly.
        let get = |name: &str| lookup(name).filter(|v| !v.trim().is_empty());
        let d = Config::default();
        Ok(Config {
            telemetry: match get("OPM_TELEMETRY") {
                None => d.telemetry,
                Some(v) => TelemetryMode::parse(&v).ok_or(ConfigError {
                    var: "OPM_TELEMETRY",
                    value: v,
                    expected: "one of off/summary/full",
                })?,
            },
            run_id: get("OPM_RUN_ID"),
            fault_spec: get("OPM_FAULT_SPEC"),
            results_dir: get("OPM_RESULTS")
                .map(PathBuf::from)
                .unwrap_or(d.results_dir),
        })
    }

    /// [`Config::from_env`], panicking with the typed error message on a
    /// malformed value. Library entry points (the engine, telemetry,
    /// fault injection) use this: a misconfigured knob should stop the
    /// process with the variable named, not be silently ignored. The
    /// `opm` CLI validates earlier and turns the same error into exit
    /// code 2.
    pub fn from_env_or_die() -> Config {
        Config::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn cfg(pairs: &[(&str, &str)]) -> Result<Config, ConfigError> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Config::from_lookup(|name| map.get(name).cloned())
    }

    #[test]
    fn empty_environment_yields_defaults() {
        assert_eq!(cfg(&[]).unwrap(), Config::default());
    }

    #[test]
    fn empty_values_count_as_unset() {
        let c = cfg(&[
            ("OPM_TELEMETRY", ""),
            ("OPM_RUN_ID", " "),
            ("OPM_FAULT_SPEC", ""),
        ])
        .unwrap();
        assert_eq!(c, Config::default());
    }

    #[test]
    fn well_formed_values_parse() {
        let c = cfg(&[
            ("OPM_TELEMETRY", "full"),
            ("OPM_RUN_ID", "ci"),
            ("OPM_FAULT_SPEC", "panic@point:3"),
            ("OPM_RESULTS", "out"),
        ])
        .unwrap();
        assert_eq!(c.telemetry, TelemetryMode::Full);
        assert_eq!(c.run_id.as_deref(), Some("ci"));
        assert_eq!(c.fault_spec.as_deref(), Some("panic@point:3"));
        assert_eq!(c.results_dir, PathBuf::from("out"));
    }

    #[test]
    fn malformed_values_yield_typed_errors_not_defaults() {
        let err = cfg(&[("OPM_TELEMETRY", "ful")]).unwrap_err();
        assert_eq!(err.var, "OPM_TELEMETRY");
        assert_eq!(err.value, "ful");
        assert!(err.to_string().contains("OPM_TELEMETRY"));
        assert!(err.to_string().contains("off/summary/full"));
    }

    #[test]
    fn retired_engine_knobs_are_ignored() {
        // The engine has no thread pool, memoizes no profiles and
        // writes no checkpoint journal, so these former knobs are not
        // configuration any more: stray values, malformed ones included,
        // change nothing.
        let c = cfg(&[
            ("OPM_THREADS", "lots"),
            ("OPM_PROFILE_CACHE", "maybe"),
            ("OPM_CACHE_SHARDS", "0"),
            ("OPM_CACHE_CAP", "-3"),
            ("OPM_CKPT_EVERY", "x"),
        ])
        .unwrap();
        assert_eq!(c, Config::default());
    }
}
