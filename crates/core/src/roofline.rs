//! The Roofline model (Williams et al.), used by paper Fig. 5 to show how
//! each OPM raises the bandwidth ceiling of its machine, and the
//! per-point roofline [`Attribution`] the telemetry layer derives from a
//! model estimate (achieved GB/s per memory level, arithmetic
//! intensity, ceiling fraction, Eq. 1 break-even margin).

use crate::perf::{Estimate, EvalPlan, PerfModel, ProfilePlan};
use crate::platform::{Machine, PlatformSpec};

/// One bandwidth ceiling (a slanted roof segment).
#[derive(Debug, Clone, PartialEq)]
pub struct Ceiling {
    /// Memory level providing the bandwidth ("DDR3", "eDRAM", "MCDRAM"...).
    pub name: &'static str,
    /// Bandwidth in GB/s.
    pub bandwidth: f64,
}

/// A roofline chart description for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// Machine the chart belongs to.
    pub machine: Machine,
    /// Double-precision compute ceiling, GFlop/s.
    pub dp_peak: f64,
    /// Single-precision compute ceiling, GFlop/s.
    pub sp_peak: f64,
    /// Bandwidth ceilings, fastest first (OPM then DRAM).
    pub ceilings: Vec<Ceiling>,
}

impl Roofline {
    /// Build the roofline for a platform, with and without its OPM ceiling.
    ///
    /// ```
    /// use opm_core::platform::PlatformSpec;
    /// use opm_core::roofline::Roofline;
    ///
    /// let r = Roofline::for_platform(&PlatformSpec::knl());
    /// // Stream (AI = 1/16) is bandwidth bound: MCDRAM raises its roof ~4.8x.
    /// let lift = r.attainable(0.0625, "MCDRAM") / r.attainable(0.0625, "DDR4-2133");
    /// assert!(lift > 4.0 && lift < 5.5);
    /// // GEMM at n = 1024 (AI = 64) is compute bound: no lift at all.
    /// assert_eq!(r.attainable(64.0, "MCDRAM"), r.attainable(64.0, "DDR4-2133"));
    /// ```
    pub fn for_platform(p: &PlatformSpec) -> Self {
        Roofline {
            machine: p.machine,
            dp_peak: p.dp_peak_gflops(),
            sp_peak: p.sp_peak_gflops(),
            ceilings: vec![
                Ceiling {
                    name: p.opm.name,
                    bandwidth: p.opm.bandwidth,
                },
                Ceiling {
                    name: p.dram.name,
                    bandwidth: p.dram.bandwidth,
                },
            ],
        }
    }

    /// Attainable DP performance at arithmetic intensity `ai` under the
    /// ceiling named `ceiling`.
    pub fn attainable(&self, ai: f64, ceiling: &str) -> f64 {
        let bw = self
            .ceilings
            .iter()
            .find(|c| c.name == ceiling)
            .unwrap_or_else(|| panic!("unknown ceiling {ceiling}"))
            .bandwidth;
        (ai * bw).min(self.dp_peak)
    }

    /// Arithmetic intensity where a ceiling meets the DP compute roof (the
    /// machine-balance point).
    pub fn ridge_point(&self, ceiling: &str) -> f64 {
        let bw = self
            .ceilings
            .iter()
            .find(|c| c.name == ceiling)
            .unwrap_or_else(|| panic!("unknown ceiling {ceiling}"))
            .bandwidth;
        self.dp_peak / bw
    }

    /// Sample the roof (min of compute and the given bandwidth ceiling) over
    /// log-spaced arithmetic intensities, for plotting.
    pub fn sample(&self, ceiling: &str, ai_lo: f64, ai_hi: f64, n: usize) -> Vec<(f64, f64)> {
        crate::stats::logspace(ai_lo, ai_hi, n)
            .into_iter()
            .map(|ai| (ai, self.attainable(ai, ceiling)))
            .collect()
    }
}

/// A kernel's position on the roofline chart (Fig. 5 markers).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Kernel name.
    pub name: String,
    /// Arithmetic intensity in flops/byte.
    pub ai: f64,
}

/// Roofline attribution of one evaluated sweep point: where the point
/// lands relative to the machine's OPM ceiling, how its traffic splits
/// across memory levels, and how far its mode gain sits from the Eq. 1
/// break-even overhead. Every field is a deterministic function of the
/// profile plan and configuration — identical across threads and
/// reruns — so the telemetry gauges built from it are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Arithmetic intensity, flops/byte.
    pub ai: f64,
    /// Modeled throughput, GFlop/s.
    pub gflops: f64,
    /// Fraction of the attainable performance under the machine's OPM
    /// ceiling at this intensity (`gflops / attainable`).
    pub ceiling_frac: f64,
    /// Fractional performance gain over the same platform with its OPM
    /// off (0 when this configuration *is* the OPM-off baseline).
    pub gain: f64,
    /// The machine's Eq. 1 power overhead `W`
    /// ([`crate::power::opm_power_overhead`]).
    pub breakeven: f64,
    /// Distance of the gain to break-even: `gain - breakeven`. Positive
    /// means enabling the OPM saves energy for this point (Eq. 1).
    pub margin: f64,
    /// Achieved GB/s per memory level over the point's runtime
    /// (level bytes / total time; bytes/ns == GB/s), in component
    /// order.
    pub levels: Vec<(&'static str, f64)>,
}

impl Attribution {
    /// Derive the attribution of one point evaluated as `est` under
    /// `plan`. Builds the OPM-off baseline ([`OpmConfig::baseline`](crate::platform::OpmConfig::baseline)) of
    /// the plan's own platform and model parameters to compute the mode
    /// gain — telemetry-only cost, off the golden CSV path.
    pub fn from_planned(plan: &EvalPlan<'_>, pp: &ProfilePlan, est: &Estimate) -> Attribution {
        let model = plan.model();
        let platform = model.platform();
        let ai = if pp.total_bytes() > 0.0 {
            pp.total_flops() / pp.total_bytes()
        } else {
            0.0
        };
        let roof = Roofline::for_platform(platform);
        let attainable = roof.attainable(ai, platform.opm.name);
        let ceiling_frac = if attainable > 0.0 {
            est.gflops / attainable
        } else {
            0.0
        };
        let base_cfg = model.config().baseline();
        let gain = if model.config() == base_cfg || est.time_ns <= 0.0 {
            0.0
        } else {
            let base = PerfModel::with_params(platform.clone(), base_cfg, *model.params());
            let base_est = base.plan().evaluate_planned(pp);
            base_est.time_ns / est.time_ns - 1.0
        };
        let breakeven = crate::power::opm_power_overhead(platform.machine);
        let levels = est
            .level_traffic()
            .into_iter()
            .map(|(name, bytes, _)| {
                let gbs = if est.time_ns > 0.0 {
                    bytes / est.time_ns
                } else {
                    0.0
                };
                (name, gbs)
            })
            .collect();
        Attribution {
            ai,
            gflops: est.gflops,
            ceiling_frac,
            gain,
            breakeven,
            margin: gain - breakeven,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{EdramMode, OpmConfig};

    #[test]
    fn broadwell_ridge_points() {
        let r = Roofline::for_platform(&PlatformSpec::broadwell());
        // 236.8 / 34.1 ~ 6.94 flops/byte to saturate DDR3.
        assert!((r.ridge_point("DDR3-2133") - 6.94).abs() < 0.05);
        // eDRAM moves the ridge to ~2.31 flops/byte.
        assert!((r.ridge_point("eDRAM") - 2.31).abs() < 0.05);
    }

    #[test]
    fn attainable_is_min_of_roofs() {
        let r = Roofline::for_platform(&PlatformSpec::knl());
        // Stream AI = 0.0625: bandwidth bound under both ceilings.
        assert!((r.attainable(0.0625, "MCDRAM") - 0.0625 * 490.0).abs() < 1e-9);
        assert!((r.attainable(0.0625, "DDR4-2133") - 0.0625 * 102.0).abs() < 1e-9);
        // Huge AI: compute bound.
        assert_eq!(r.attainable(1e6, "MCDRAM"), r.dp_peak);
    }

    #[test]
    fn opm_raises_bandwidth_bound_kernels_only() {
        let r = Roofline::for_platform(&PlatformSpec::broadwell());
        let gemm_ai = 1024.0 / 16.0; // Table 2, n = 1024
                                     // GEMM is compute bound under both ceilings: eDRAM cannot raise the
                                     // raw peak (paper Fig. 1 observation).
        assert_eq!(
            r.attainable(gemm_ai, "eDRAM"),
            r.attainable(gemm_ai, "DDR3-2133")
        );
        // SpMV-like AI benefits fully.
        let spmv_ai = 0.08;
        assert!(r.attainable(spmv_ai, "eDRAM") > 2.5 * r.attainable(spmv_ai, "DDR3-2133"));
    }

    #[test]
    fn sample_is_monotone_nondecreasing() {
        let r = Roofline::for_platform(&PlatformSpec::knl());
        let s = r.sample("MCDRAM", 0.01, 100.0, 64);
        assert_eq!(s.len(), 64);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "unknown ceiling")]
    fn unknown_ceiling_panics() {
        let r = Roofline::for_platform(&PlatformSpec::knl());
        r.attainable(1.0, "HBM3");
    }

    #[test]
    fn attribution_reconciles_with_the_estimate() {
        use crate::profile::{AccessProfile, Phase, Tier};
        // STREAM-like profile (AI = 1/16) in the eDRAM-effective region.
        let fp = 64.0 * 1024.0 * 1024.0;
        let mut phase = Phase::new("triad", fp / 4.0, fp * 4.0);
        phase.tiers = vec![Tier::new(fp, 1.0)];
        phase.threads = 8;
        let profile = AccessProfile::single("stream", phase, fp);
        let pp = ProfilePlan::new(&profile).unwrap();
        let model = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On));
        let plan = model.plan();
        let est = plan.evaluate_planned(&pp);
        let attr = Attribution::from_planned(&plan, &pp, &est);
        assert!((attr.ai - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(attr.gflops, est.gflops);
        // The per-level achieved GB/s partitions the total bandwidth.
        let sum: f64 = attr.levels.iter().map(|(_, g)| g).sum();
        assert!(
            (sum - est.bandwidth_gbs).abs() < 1e-6 * est.bandwidth_gbs.max(1.0),
            "levels {sum} vs total {}",
            est.bandwidth_gbs
        );
        // A bandwidth-bound kernel in the eDRAM region gains well past
        // the ~8.6 % Broadwell break-even overhead.
        assert!(attr.gain > 0.5, "gain {}", attr.gain);
        assert!((attr.breakeven - 0.086).abs() < 1e-12);
        assert!((attr.margin - (attr.gain - attr.breakeven)).abs() < 1e-12);
        assert!(
            attr.ceiling_frac > 0.0 && attr.ceiling_frac <= 1.0 + 1e-9,
            "frac {}",
            attr.ceiling_frac
        );
        // The OPM-off baseline attributes zero gain (negative margin).
        let off = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::Off));
        let off_plan = off.plan();
        let off_est = off_plan.evaluate_planned(&pp);
        let off_attr = Attribution::from_planned(&off_plan, &pp, &off_est);
        assert_eq!(off_attr.gain, 0.0);
        assert!(off_attr.margin < 0.0);
    }
}
