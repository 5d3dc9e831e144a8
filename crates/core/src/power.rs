//! Power and energy model (paper §5.2, Figs. 26–27 and Eq. 1).
//!
//! The paper measures power with RAPL/PAPI; we model it as idle power plus
//! activity-proportional terms (nJ per flop, nJ per byte moved at each
//! memory). Constants are calibrated so the *relative* deltas match the
//! paper's findings: enabling eDRAM adds ~5.6 W (~8.6 %) on Broadwell and
//! using MCDRAM (flat) adds ~9.8 W (~6.9 %) on KNL, and MCDRAM use can
//! *reduce* DDR power by absorbing DDR traffic.
//!
//! Eq. 1 of the paper:
//! `E_w/OPM / E_w/oOPM = (1/(1+P)) · (1+W) < 1` — OPM saves energy iff the
//! performance gain `P` exceeds the power overhead `W`.

use crate::perf::Estimate;
use crate::platform::{Machine, OpmConfig};

/// Per-machine energy coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Machine these coefficients describe.
    pub machine: Machine,
    /// Package idle power, W.
    pub pkg_idle_w: f64,
    /// Core energy per flop, nJ.
    pub nj_per_flop: f64,
    /// Energy per byte served by on-die caches, nJ.
    pub nj_per_cache_byte: f64,
    /// Energy per byte served by the OPM, nJ (counted in the package,
    /// as both eDRAM and MCDRAM are on-package).
    pub nj_per_opm_byte: f64,
    /// OPM static power when present/enabled, W.
    pub opm_static_w: f64,
    /// DRAM idle power, W.
    pub dram_idle_w: f64,
    /// Energy per byte served by off-package DRAM, nJ.
    pub nj_per_dram_byte: f64,
}

/// A power reading, mirroring the paper's package/DRAM breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Whole-package average power, W (includes OPM).
    pub package_w: f64,
    /// Off-package DRAM average power, W.
    pub dram_w: f64,
}

impl PowerSample {
    /// Total average power.
    pub fn total_w(&self) -> f64 {
        self.package_w + self.dram_w
    }
}

impl PowerModel {
    /// Coefficients for the Broadwell i7-5775c (65 W TDP class).
    pub fn broadwell() -> Self {
        PowerModel {
            machine: Machine::Broadwell,
            pkg_idle_w: 12.0,
            nj_per_flop: 0.18,
            nj_per_cache_byte: 0.02,
            nj_per_opm_byte: 0.055,
            opm_static_w: 1.0, // OPIO claimed "104 GB/s at one watt"
            dram_idle_w: 1.5,
            nj_per_dram_byte: 0.10,
        }
    }

    /// Coefficients for the KNL 7210 (215 W TDP class).
    pub fn knl() -> Self {
        PowerModel {
            machine: Machine::Knl,
            pkg_idle_w: 85.0,
            nj_per_flop: 0.035,
            nj_per_cache_byte: 0.004,
            nj_per_opm_byte: 0.022,
            opm_static_w: 8.0, // MCDRAM cannot be disabled (paper §5.2)
            dram_idle_w: 4.0,
            nj_per_dram_byte: 0.08,
        }
    }

    /// Lookup by machine.
    pub fn for_machine(machine: Machine) -> Self {
        match machine {
            Machine::Broadwell => Self::broadwell(),
            Machine::Knl => Self::knl(),
        }
    }

    /// Average power while executing the estimated run under `config`.
    pub fn sample(
        &self,
        est: &Estimate,
        config: OpmConfig,
        total_flops: f64,
        total_bytes: f64,
    ) -> PowerSample {
        assert_eq!(self.machine, config.machine(), "config/model mismatch");
        assert!(est.time_ns > 0.0, "estimate has zero time");
        let t = est.time_ns; // ns
        let gflops = total_flops / t; // flops/ns == Gflop/s
        let cache_bytes = (total_bytes - est.dram_bytes - est.opm_bytes).max(0.0);
        // nJ/ns == W.
        let opm_static = if config.opm_use().static_power {
            self.opm_static_w
        } else {
            0.0
        };
        let package_w = self.pkg_idle_w
            + opm_static
            + self.nj_per_flop * gflops
            + self.nj_per_cache_byte * (cache_bytes / t)
            + self.nj_per_opm_byte * (est.opm_bytes / t);
        let dram_w = self.dram_idle_w + self.nj_per_dram_byte * (est.dram_bytes / t);
        PowerSample { package_w, dram_w }
    }

    /// Total energy in joules for the run.
    pub fn energy_j(
        &self,
        est: &Estimate,
        config: OpmConfig,
        total_flops: f64,
        total_bytes: f64,
    ) -> f64 {
        let p = self.sample(est, config, total_flops, total_bytes);
        // W * ns = nJ; convert to J.
        p.total_w() * est.time_ns * 1e-9
    }
}

/// Paper Eq. 1: the with-OPM to without-OPM energy ratio given fractional
/// performance gain `p` and fractional power overhead `w`.
pub fn energy_ratio(p: f64, w: f64) -> f64 {
    (1.0 + w) / (1.0 + p)
}

/// True iff the OPM saves energy under Eq. 1.
pub fn opm_saves_energy(p: f64, w: f64) -> bool {
    energy_ratio(p, w) < 1.0
}

/// Minimum fractional performance gain needed to break even at power
/// overhead `w` (Eq. 1 solved for `p`).
pub fn breakeven_gain(w: f64) -> f64 {
    w
}

/// The paper's measured fractional power overhead `W` of enabling the
/// OPM on each machine (§5.2): ~8.6 % for eDRAM on Broadwell, ~6.9 %
/// for MCDRAM on KNL. The roofline-attribution telemetry reports each
/// point's distance to this Eq. 1 break-even gain.
pub fn opm_power_overhead(machine: Machine) -> f64 {
    match machine {
        Machine::Broadwell => 0.086,
        Machine::Knl => 0.069,
    }
}

/// Energy–Delay product `E·T^weight` (paper §5.2 points to EDP-style
/// metrics \[18\] for users whose objective sits between pure performance
/// and pure energy): `weight = 0` optimizes energy, `1` classic EDP,
/// `2` ED²P (performance-leaning).
pub fn energy_delay_product(energy_j: f64, time_s: f64, weight: f64) -> f64 {
    assert!(energy_j >= 0.0 && time_s >= 0.0 && weight >= 0.0);
    energy_j * time_s.powf(weight)
}

/// With-OPM to without-OPM EDP ratio from fractional performance gain `p`
/// and power overhead `w` (generalizes Eq. 1: `weight = 0` recovers it).
pub fn edp_ratio(p: f64, w: f64, weight: f64) -> f64 {
    // E ∝ P·T; T_opm = T/(1+p); P_opm = P·(1+w).
    energy_ratio(p, w) / (1.0 + p).powf(weight)
}

/// The optimization objective a user dials between energy and delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Pure energy (Eq. 1).
    Energy,
    /// Energy·Delay.
    Edp,
    /// Energy·Delay².
    Ed2p,
}

impl Objective {
    /// Delay exponent of the objective.
    pub fn weight(&self) -> f64 {
        match self {
            Objective::Energy => 0.0,
            Objective::Edp => 1.0,
            Objective::Ed2p => 2.0,
        }
    }

    /// Does enabling the OPM improve this objective at gain `p`, overhead
    /// `w`?
    pub fn opm_improves(&self, p: f64, w: f64) -> bool {
        edp_ratio(p, w, self.weight()) < 1.0
    }

    /// Break-even gain for this objective: the `p` where the ratio is 1,
    /// i.e. `(1+p)^(1+weight) = 1+w`.
    pub fn breakeven_gain(&self, w: f64) -> f64 {
        (1.0 + w).powf(1.0 / (1.0 + self.weight())) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::platform::{EdramMode, McdramMode};
    use crate::profile::{AccessProfile, Phase, Tier};
    use crate::units::MIB;

    fn run(config: OpmConfig, footprint: f64, threads: usize) -> (Estimate, f64, f64) {
        let bytes = footprint * 8.0;
        let mut ph = Phase::new("sweep", bytes / 4.0, bytes);
        ph.tiers = vec![Tier::new(footprint, 1.0)];
        ph.threads = threads;
        let prof = AccessProfile::single("k", ph, footprint);
        let est = PerfModel::for_config(config).evaluate(&prof);
        (est, prof.total_flops(), prof.total_bytes())
    }

    #[test]
    fn edram_adds_modest_package_power() {
        let pm = PowerModel::broadwell();
        let on_cfg = OpmConfig::Broadwell(EdramMode::On);
        let off_cfg = OpmConfig::Broadwell(EdramMode::Off);
        let (on, f, b) = run(on_cfg, 64.0 * MIB, 8);
        let (off, f2, b2) = run(off_cfg, 64.0 * MIB, 8);
        let p_on = pm.sample(&on, on_cfg, f, b);
        let p_off = pm.sample(&off, off_cfg, f2, b2);
        let delta = p_on.package_w - p_off.package_w;
        // Paper: ~5.6 W / 8.6 % average increase. Accept a broad band, the
        // point is the sign and order of magnitude.
        assert!(delta > 0.5 && delta < 20.0, "delta {delta}");
        // At this eDRAM-resident footprint the no-eDRAM baseline idles on
        // DDR, so the relative delta is larger than the paper's sweep-wide
        // 8.6 % average; the harness averages across footprints.
        let pct = delta / p_off.package_w;
        assert!(pct > 0.01 && pct < 1.0, "pct {pct}");
    }

    #[test]
    fn mcdram_reduces_ddr_power_by_absorbing_traffic() {
        let pm = PowerModel::knl();
        let flat = OpmConfig::Knl(McdramMode::Flat);
        let off = OpmConfig::Knl(McdramMode::Off);
        let (e_flat, f, b) = run(flat, 2.0 * 1024.0 * MIB, 256);
        let (e_off, f2, b2) = run(off, 2.0 * 1024.0 * MIB, 256);
        let p_flat = pm.sample(&e_flat, flat, f, b);
        let p_off = pm.sample(&e_off, off, f2, b2);
        // Flat mode serves from MCDRAM: DDR power falls to ~idle.
        assert!(
            p_flat.dram_w < p_off.dram_w,
            "{} vs {}",
            p_flat.dram_w,
            p_off.dram_w
        );
    }

    #[test]
    fn eq1_break_even() {
        // Paper: performance benefit must exceed 8.6 % (eDRAM) to save energy.
        assert!(!opm_saves_energy(0.05, 0.086));
        assert!(opm_saves_energy(0.10, 0.086));
        assert!((breakeven_gain(0.069) - 0.069).abs() < 1e-12);
        assert!((energy_ratio(0.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edp_generalizes_eq1() {
        // weight 0 recovers Eq. 1 exactly.
        assert!((edp_ratio(0.1, 0.086, 0.0) - energy_ratio(0.1, 0.086)).abs() < 1e-12);
        // Performance-leaning objectives accept smaller gains.
        let w = 0.086;
        let be_energy = Objective::Energy.breakeven_gain(w);
        let be_edp = Objective::Edp.breakeven_gain(w);
        let be_ed2p = Objective::Ed2p.breakeven_gain(w);
        assert!(be_energy > be_edp && be_edp > be_ed2p);
        assert!((be_energy - w).abs() < 1e-12);
        // A 5% gain fails Eq. 1 at 8.6% overhead but passes EDP.
        assert!(!Objective::Energy.opm_improves(0.05, w));
        assert!(Objective::Edp.opm_improves(0.05, w));
    }

    #[test]
    fn edp_function_is_consistent() {
        let e = energy_delay_product(10.0, 2.0, 1.0);
        assert_eq!(e, 20.0);
        assert_eq!(energy_delay_product(10.0, 2.0, 0.0), 10.0);
        assert_eq!(energy_delay_product(10.0, 2.0, 2.0), 40.0);
    }

    #[test]
    fn energy_combines_power_and_time() {
        let pm = PowerModel::broadwell();
        let cfg = OpmConfig::Broadwell(EdramMode::On);
        let (est, f, b) = run(cfg, 16.0 * MIB, 8);
        let e = pm.energy_j(&est, cfg, f, b);
        let p = pm.sample(&est, cfg, f, b);
        assert!((e - p.total_w() * est.time_ns * 1e-9).abs() < 1e-12);
        assert!(e > 0.0);
    }

    #[test]
    #[should_panic(expected = "config/model mismatch")]
    fn mismatched_machine_panics() {
        let pm = PowerModel::broadwell();
        let (est, f, b) = run(OpmConfig::Knl(McdramMode::Off), 16.0 * MIB, 64);
        pm.sample(&est, OpmConfig::Knl(McdramMode::Off), f, b);
    }
}
