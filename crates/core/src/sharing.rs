//! Multi-application OPM sharing — the paper's §8 future work ("under a
//! multi-user/multi-application scenario, how would the OS distribute the
//! OPM resources among applications based on fairness, efficiency and
//! consistency?"), made executable as an extension of the performance
//! model.
//!
//! Co-scheduled workloads divide the OPM capacity and bandwidth according
//! to a [`SharingPolicy`]; each workload is then evaluated on a platform
//! whose OPM (and DRAM bandwidth) is scaled to its share. Reported metrics
//! are per-app slowdown against running alone, system throughput (mean
//! normalized progress) and Jain's fairness index.

use crate::perf::PerfModel;
use crate::platform::{OpmConfig, PlatformSpec};
use crate::profile::AccessProfile;

/// How the OPM is divided among co-scheduled applications.
#[derive(Debug, Clone, PartialEq)]
pub enum SharingPolicy {
    /// Equal static partitions of capacity and bandwidth.
    EqualPartition,
    /// Static partitions proportional to the given weights.
    WeightedPartition(Vec<f64>),
    /// Fully shared: capacity splits in proportion to footprint (an
    /// LRU-like occupancy approximation) and bandwidth in proportion to
    /// demand.
    Shared,
    /// One application (by index) gets the whole OPM; the rest run from
    /// DRAM with the leftover DRAM bandwidth share.
    Priority(usize),
}

/// Per-application outcome of a co-scheduled evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// Throughput when co-scheduled, GFlop/s.
    pub shared_gflops: f64,
    /// Throughput running alone on the full machine, GFlop/s.
    pub alone_gflops: f64,
    /// `shared / alone` (1.0 = no interference).
    pub progress: f64,
}

/// System-level outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingOutcome {
    /// Per-application results, in input order.
    pub apps: Vec<AppOutcome>,
    /// Mean normalized progress (system efficiency).
    pub system_throughput: f64,
    /// Jain's fairness index over progress: `(Σx)² / (n·Σx²)` ∈ (0, 1].
    pub fairness: f64,
}

/// Evaluate co-scheduled workloads under a sharing policy on the given
/// machine configuration.
pub fn evaluate_sharing(
    config: OpmConfig,
    profiles: &[AccessProfile],
    policy: &SharingPolicy,
) -> SharingOutcome {
    assert!(!profiles.is_empty(), "need at least one application");
    let n = profiles.len();
    let base = PlatformSpec::for_machine(config.machine());
    // Capacity/bandwidth shares per app.
    let cap_shares: Vec<f64> = match policy {
        SharingPolicy::EqualPartition => vec![1.0 / n as f64; n],
        SharingPolicy::WeightedPartition(w) => {
            assert_eq!(w.len(), n, "one weight per application");
            let total: f64 = w.iter().sum();
            assert!(total > 0.0, "weights must be positive");
            w.iter().map(|x| x / total).collect()
        }
        SharingPolicy::Shared => {
            let total: f64 = profiles.iter().map(|p| p.footprint).sum();
            profiles.iter().map(|p| p.footprint / total).collect()
        }
        SharingPolicy::Priority(idx) => {
            assert!(*idx < n, "priority index out of range");
            (0..n).map(|i| if i == *idx { 1.0 } else { 0.0 }).collect()
        }
    };
    let bw_shares: Vec<f64> = match policy {
        SharingPolicy::Shared => {
            let total: f64 = profiles.iter().map(|p| p.total_bytes()).sum();
            profiles.iter().map(|p| p.total_bytes() / total).collect()
        }
        _ => cap_shares.clone(),
    };

    let apps: Vec<AppOutcome> = profiles
        .iter()
        .enumerate()
        .map(|(i, prof)| {
            let alone = PerfModel::new(base.clone(), config).evaluate(prof).gflops;
            let shared = if cap_shares[i] <= 0.0 {
                // No OPM share: fall back to the machine's DDR-only
                // configuration with a DRAM bandwidth share.
                let mut spec = base.clone();
                spec.dram.bandwidth *= 1.0 / n as f64;
                PerfModel::new(spec, config.baseline())
                    .evaluate(prof)
                    .gflops
            } else {
                let mut spec = base.clone();
                spec.opm.capacity *= cap_shares[i];
                spec.opm.bandwidth *= bw_shares[i].max(1e-6);
                spec.dram.bandwidth *= bw_shares[i].max(1e-6);
                // Compute resources divide equally among co-runners.
                let per_app_cores = (spec.cores / n).max(1);
                spec.cores = per_app_cores;
                PerfModel::new(spec, config).evaluate(prof).gflops
            };
            AppOutcome {
                shared_gflops: shared,
                alone_gflops: alone,
                progress: shared / alone,
            }
        })
        .collect();
    let progresses: Vec<f64> = apps.iter().map(|a| a.progress).collect();
    let sum: f64 = progresses.iter().sum();
    let sumsq: f64 = progresses.iter().map(|x| x * x).sum();
    SharingOutcome {
        system_throughput: sum / n as f64,
        fairness: (sum * sum) / (n as f64 * sumsq),
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::McdramMode;
    use crate::profile::{Phase, Tier};
    use crate::units::GIB;

    fn stream_app(fp: f64) -> AccessProfile {
        let bytes = fp * 4.0;
        let mut ph = Phase::new("triad", bytes / 16.0, bytes);
        ph.tiers = vec![Tier::new(fp, 1.0)];
        ph.threads = 128;
        AccessProfile::single("stream", ph, fp)
    }

    #[test]
    fn identical_apps_share_fairly() {
        let apps = vec![stream_app(4.0 * GIB), stream_app(4.0 * GIB)];
        let out = evaluate_sharing(
            OpmConfig::Knl(McdramMode::Flat),
            &apps,
            &SharingPolicy::EqualPartition,
        );
        assert!((out.fairness - 1.0).abs() < 1e-9);
        assert!(out.apps[0].progress < 1.0); // interference exists
        assert!(out.apps[0].progress > 0.2);
    }

    #[test]
    fn priority_starves_the_other_app() {
        let apps = vec![stream_app(4.0 * GIB), stream_app(4.0 * GIB)];
        let out = evaluate_sharing(
            OpmConfig::Knl(McdramMode::Flat),
            &apps,
            &SharingPolicy::Priority(0),
        );
        assert!(out.apps[0].progress > out.apps[1].progress * 1.5);
        assert!(out.fairness < 0.95);
    }

    #[test]
    fn weighted_partition_follows_weights() {
        let apps = vec![stream_app(6.0 * GIB), stream_app(6.0 * GIB)];
        let out = evaluate_sharing(
            OpmConfig::Knl(McdramMode::Flat),
            &apps,
            &SharingPolicy::WeightedPartition(vec![3.0, 1.0]),
        );
        assert!(out.apps[0].shared_gflops > out.apps[1].shared_gflops);
    }

    #[test]
    fn shared_policy_splits_by_demand() {
        let apps = vec![stream_app(12.0 * GIB), stream_app(2.0 * GIB)];
        let out = evaluate_sharing(
            OpmConfig::Knl(McdramMode::Flat),
            &apps,
            &SharingPolicy::Shared,
        );
        // The big app gets most of the capacity; both make progress.
        assert!(out.apps.iter().all(|a| a.progress > 0.1));
        assert!(out.system_throughput > 0.2);
    }

    #[test]
    fn fairness_index_is_bounded() {
        for policy in [
            SharingPolicy::EqualPartition,
            SharingPolicy::Shared,
            SharingPolicy::Priority(1),
        ] {
            let apps = vec![
                stream_app(1.0 * GIB),
                stream_app(8.0 * GIB),
                stream_app(3.0 * GIB),
            ];
            let out = evaluate_sharing(OpmConfig::Knl(McdramMode::Cache), &apps, &policy);
            assert!(
                out.fairness > 0.0 && out.fairness <= 1.0 + 1e-12,
                "{policy:?}"
            );
            assert_eq!(out.apps.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "one weight per application")]
    fn weight_count_mismatch_panics() {
        evaluate_sharing(
            OpmConfig::Knl(McdramMode::Flat),
            &[stream_app(GIB)],
            &SharingPolicy::WeightedPartition(vec![1.0, 2.0]),
        );
    }
}
