//! Timing estimation over exact simulation results — an independent second
//! performance estimate used to cross-validate the analytic model: the
//! hierarchy simulator counts where every line was served
//! ([`SimResult`]); this module prices those
//! service counts with the platform's bandwidths and latencies.

use crate::hierarchy::SimResult;
use crate::trace::LINE_BYTES;
use opm_core::perf::{TAG_BW_EFF, TAG_LATENCY_NS};
use opm_core::platform::{OpmConfig, PlatformSpec};

/// Service pricing for one level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPrice {
    /// Bandwidth in GB/s (== bytes/ns).
    pub bandwidth: f64,
    /// Loaded latency in ns.
    pub latency_ns: f64,
}

/// Pricing for a whole configuration, level for level the hierarchy that
/// [`HierarchySim::for_config`](crate::hierarchy::HierarchySim::for_config)
/// builds for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTiming {
    /// Cache-chain levels, upper first.
    pub chain: Vec<LevelPrice>,
    /// Victim (eDRAM) price, if present.
    pub victim: Option<LevelPrice>,
    /// Flat OPM price, if present.
    pub flat: Option<LevelPrice>,
    /// Backing DRAM price.
    pub dram: LevelPrice,
}

impl SimTiming {
    /// Prices for one OPM configuration at full-machine specs (the
    /// simulator may run at reduced capacity; bandwidth/latency ratios are
    /// scale-free). The levels follow
    /// [`OpmConfig::opm_use`] as the simulator does: a victim or flat OPM
    /// is priced at the OPM's own specs, and a memory-side cache partition
    /// pays the analytic model's tag check ([`TAG_BW_EFF`],
    /// [`TAG_LATENCY_NS`]).
    pub fn for_config(config: OpmConfig) -> Self {
        let p = PlatformSpec::for_machine(config.machine());
        let price = |bw: f64, lat: f64| LevelPrice {
            bandwidth: bw,
            latency_ns: lat,
        };
        let mut chain: Vec<LevelPrice> = p
            .caches
            .iter()
            .map(|c| price(c.bandwidth, c.latency_ns))
            .collect();
        let opm = price(p.opm.bandwidth, p.opm.latency_ns);
        let opm_use = config.opm_use();
        if opm_use.cache > 0.0 {
            chain.push(price(
                opm.bandwidth * TAG_BW_EFF,
                opm.latency_ns + TAG_LATENCY_NS,
            ));
        }
        SimTiming {
            chain,
            victim: opm_use.victim.then_some(opm),
            flat: (opm_use.flat > 0.0).then_some(opm),
            dram: price(p.dram.bandwidth, p.dram.latency_ns),
        }
    }

    /// Estimated execution time in ns for the simulated service counts,
    /// with `concurrency` outstanding line requests hiding latency.
    ///
    /// Each service component costs
    /// `lines · max(line / BW, latency / concurrency)` — bandwidth-bound
    /// when requests pipeline, latency-bound when they do not.
    pub fn estimate_ns(&self, r: &SimResult, concurrency: f64) -> f64 {
        assert!(concurrency >= 1.0);
        let line = LINE_BYTES as f64;
        let cost = |lines: u64, p: &LevelPrice| {
            lines as f64 * (line / p.bandwidth).max(p.latency_ns / concurrency)
        };
        let mut t = 0.0;
        for (i, &hits) in r.level_hits.iter().enumerate() {
            // Levels beyond the configured chain (defensive) price as DRAM.
            let p = self.chain.get(i).unwrap_or(&self.dram);
            t += cost(hits, p);
        }
        if let Some(v) = &self.victim {
            t += cost(r.victim_hits, v);
        }
        if let Some(f) = &self.flat {
            t += cost(r.opm_flat, f);
        }
        t += cost(r.dram, &self.dram);
        t
    }

    /// Effective bandwidth (GB/s) of the simulated run.
    pub fn effective_bandwidth(&self, r: &SimResult, concurrency: f64) -> f64 {
        let bytes = r.accesses as f64 * LINE_BYTES as f64;
        bytes / self.estimate_ns(r, concurrency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchySim;
    use crate::trace::Trace;
    use opm_core::platform::{EdramMode, McdramMode};
    use opm_core::units::GIB;

    fn line_sweep(bytes: u64, passes: usize) -> Trace {
        let mut t = Trace::new();
        for _ in 0..passes {
            let mut a = 0;
            while a < bytes {
                t.read(a, 8);
                a += 64;
            }
        }
        t
    }

    fn timed_conc(config: OpmConfig, bytes: u64, conc: f64) -> f64 {
        let mut sim = HierarchySim::for_config(config, 1024);
        sim.run(&line_sweep(bytes, 1)); // warm
        let before = sim.result().clone();
        sim.run(&line_sweep(bytes, 3));
        let delta = sim.result().delta_since(&before);
        SimTiming::for_config(config).estimate_ns(&delta, conc)
    }

    /// Broadwell-scale concurrency (8 threads x ~8 outstanding lines).
    fn timed(config: OpmConfig, bytes: u64) -> f64 {
        timed_conc(config, bytes, 64.0)
    }

    #[test]
    fn edram_speeds_up_the_edram_window() {
        // 48 KiB on the milli-machine = 48 MiB real: past L3, inside eDRAM.
        let on = timed(OpmConfig::Broadwell(EdramMode::On), 48 * 1024);
        let off = timed(OpmConfig::Broadwell(EdramMode::Off), 48 * 1024);
        let speedup = off / on;
        assert!(
            speedup > 1.5 && speedup < 4.0,
            "sim-timed speedup {speedup}"
        );
    }

    #[test]
    fn simulated_speedup_tracks_analytic_model() {
        use opm_core::perf::PerfModel;
        use opm_core::profile::{AccessProfile, Phase, Tier};
        let on_t = timed(OpmConfig::Broadwell(EdramMode::On), 48 * 1024);
        let off_t = timed(OpmConfig::Broadwell(EdramMode::Off), 48 * 1024);
        let sim_speedup = off_t / on_t;
        // Analytic model at the full-scale equivalent footprint (48 MiB).
        let fp = 48.0 * 1024.0 * 1024.0;
        let mk = |cfg| {
            let mut ph = Phase::new("sweep", fp, fp * 4.0);
            ph.tiers = vec![Tier::new(fp, 1.0)];
            ph.threads = 8;
            PerfModel::for_config(cfg)
                .evaluate(&AccessProfile::single("s", ph, fp))
                .gflops
        };
        let model_speedup =
            mk(OpmConfig::Broadwell(EdramMode::On)) / mk(OpmConfig::Broadwell(EdramMode::Off));
        assert!(
            (sim_speedup / model_speedup - 1.0).abs() < 0.5,
            "sim {sim_speedup} vs model {model_speedup}"
        );
    }

    #[test]
    fn knl_flat_beats_ddr_in_sim_timing() {
        // MCDRAM's bandwidth-delay product (490 GB/s x 150 ns ≈ 1150 lines)
        // needs KNL-scale concurrency: 256 threads x 8 outstanding.
        let flat = timed_conc(OpmConfig::Knl(McdramMode::Flat), 1024 * 1024, 2048.0);
        let ddr = timed_conc(OpmConfig::Knl(McdramMode::Off), 1024 * 1024, 2048.0);
        let ratio = ddr / flat;
        assert!(ratio > 2.0 && ratio < 7.0, "ratio {ratio}");
    }

    #[test]
    fn knl_flat_loses_to_ddr_at_low_concurrency() {
        // The SpTRSV effect (§4.2.2), visible in exact simulation: at low
        // memory-level parallelism MCDRAM's higher latency dominates.
        let flat = timed_conc(OpmConfig::Knl(McdramMode::Flat), 1024 * 1024, 8.0);
        let ddr = timed_conc(OpmConfig::Knl(McdramMode::Off), 1024 * 1024, 8.0);
        assert!(flat > ddr, "flat {flat} should be slower than ddr {ddr}");
    }

    #[test]
    fn latency_bound_when_concurrency_is_low() {
        let mut sim = HierarchySim::for_config(OpmConfig::Knl(McdramMode::Flat), 1024);
        sim.run(&line_sweep(1024 * 1024, 2));
        let timing = SimTiming::for_config(OpmConfig::Knl(McdramMode::Flat));
        let fast = timing.estimate_ns(sim.result(), 256.0);
        let slow = timing.estimate_ns(sim.result(), 1.0);
        assert!(slow > 5.0 * fast);
    }

    #[test]
    fn cache_partition_is_priced_as_the_model_prices_it() {
        use opm_core::perf::EffHierarchy;
        for mode in [McdramMode::Cache, McdramMode::Hybrid] {
            let config = OpmConfig::Knl(mode);
            let model = EffHierarchy::build(&PlatformSpec::knl(), config, GIB);
            let level = model.caches.last().unwrap();
            assert_eq!(level.name, "MCDRAM(cache)");
            let price = *SimTiming::for_config(config).chain.last().unwrap();
            assert_eq!(
                price,
                LevelPrice {
                    bandwidth: level.bandwidth,
                    latency_ns: level.latency_ns,
                },
                "{}",
                config.label()
            );
        }
    }

    #[test]
    fn prices_line_up_with_the_simulated_levels() {
        for config in OpmConfig::ALL {
            let sim = HierarchySim::for_config(config, 1024);
            let timing = SimTiming::for_config(config);
            let r = sim.result();
            assert_eq!(timing.chain.len(), r.level_hits.len(), "{}", config.label());
            let u = config.opm_use();
            assert_eq!(timing.victim.is_some(), u.victim);
            assert_eq!(timing.flat.is_some(), u.flat > 0.0);
        }
    }

    #[test]
    fn effective_bandwidth_is_bounded_by_fastest_level() {
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), 1024);
        sim.run(&line_sweep(2 * 1024, 8)); // L2-resident
        let timing = SimTiming::for_config(OpmConfig::Broadwell(EdramMode::On));
        let bw = timing.effective_bandwidth(sim.result(), 64.0);
        assert!(bw <= 420.0 + 1e-9);
        assert!(bw > 100.0);
    }
}
