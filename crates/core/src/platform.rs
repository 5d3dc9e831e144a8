//! Platform descriptions for the two evaluated machines (paper Table 3) and
//! their on-package-memory tuning options (paper Table 1).
//!
//! * **Broadwell i7-5775c** — 4 cores @ 3.7 GHz, 6 MB L3, optional 128 MB
//!   eDRAM L4 (102.4 GB/s, latency *below* DDR), DDR3-2133 @ 34.1 GB/s.
//! * **Knights Landing 7210** — 64 cores @ 1.5 GHz, 32 MB L2, 16 GB MCDRAM
//!   (490 GB/s, latency *above* DDR) configurable off/cache/flat/hybrid,
//!   DDR4-2133 @ 102 GB/s.
//!
//! All numbers are the spec-sheet values from Table 3 plus the latency
//! relationships stated in §2 of the paper (eDRAM latency < DDR; MCDRAM
//! latency ≥ DDR when bandwidth demand is low).

use crate::units::{GIB, KIB, MIB};

/// Which physical machine is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// Intel Core i7-5775c (Broadwell) with optional eDRAM L4.
    Broadwell,
    /// Intel Xeon Phi 7210 (Knights Landing) with MCDRAM.
    Knl,
}

/// eDRAM tuning options on Broadwell (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdramMode {
    /// eDRAM disabled in BIOS: no L4 level, no eDRAM static power.
    Off,
    /// 128 MB high-throughput, low-latency L4 victim cache.
    #[default]
    On,
}

/// MCDRAM tuning options on KNL (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum McdramMode {
    /// MCDRAM not used (allocations prefer DDR). Static power still drawn —
    /// MCDRAM cannot be physically disabled (paper §5.2).
    Off,
    /// 16 GB direct-mapped memory-side cache in front of DDR.
    #[default]
    Cache,
    /// Entire 16 GB addressable; `numactl -p` prefers the MCDRAM node and
    /// spills to DDR (with the straddle penalty of §4.2.1-II) beyond 16 GB.
    Flat,
    /// 8 GB last-level cache + 8 GB flat-addressable memory.
    Hybrid,
}

/// A single OPM configuration across both machines, used as the sweep axis
/// by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpmConfig {
    /// Broadwell with the given eDRAM mode.
    Broadwell(EdramMode),
    /// KNL with the given MCDRAM mode.
    Knl(McdramMode),
}

/// What the on-package memory does under one [`OpmConfig`] (paper Table 1).
///
/// The one statement of the mode semantics: the analytic model, the exact
/// simulator and its pricing, the power model and the OPM-off baselines
/// all read it instead of matching on [`EdramMode`] or [`McdramMode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpmUse {
    /// The whole OPM is a CPU-side victim cache behind the last on-die
    /// cache, filled by its evictions (Broadwell's eDRAM L4, §2.1).
    pub victim: bool,
    /// Share of the OPM capacity run as a direct-mapped memory-side cache
    /// in front of DRAM (§2.2).
    pub cache: f64,
    /// Share of the OPM capacity that is flat-addressable memory; see
    /// [`OpmUse::flat_placement`].
    pub flat: f64,
    /// The OPM draws static power: eDRAM disabled in the BIOS does not,
    /// MCDRAM cannot be switched off and always does (§5.2).
    pub static_power: bool,
}

/// How data lands on a flat-addressable OPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatPlacement {
    /// The whole OPM is the NUMA node `numactl -p` prefers: the whole
    /// allocation goes there and spills to DRAM past its capacity, where
    /// it straddles the two and pays the penalty of §4.2.1-II (flat mode).
    Preferred,
    /// A flat partition beside a cache partition holds `min(partition /
    /// footprint, 1)` of the data and serves that share of the traffic
    /// that reaches memory (hybrid mode).
    Partition,
}

impl OpmUse {
    /// Which flat mechanism applies: preferred placement when the whole
    /// OPM is flat, a partition when only part of it is.
    pub fn flat_placement(&self) -> Option<FlatPlacement> {
        if self.flat >= 1.0 {
            Some(FlatPlacement::Preferred)
        } else if self.flat > 0.0 {
            Some(FlatPlacement::Partition)
        } else {
            None
        }
    }
}

impl OpmConfig {
    /// All six configurations: [`broadwell_modes`](Self::broadwell_modes)
    /// then [`knl_modes`](Self::knl_modes).
    pub const ALL: [OpmConfig; 6] = [
        OpmConfig::Broadwell(EdramMode::Off),
        OpmConfig::Broadwell(EdramMode::On),
        OpmConfig::Knl(McdramMode::Off),
        OpmConfig::Knl(McdramMode::Flat),
        OpmConfig::Knl(McdramMode::Cache),
        OpmConfig::Knl(McdramMode::Hybrid),
    ];

    /// The table of modes, one row per configuration: its label and what
    /// its OPM does.
    fn row(&self) -> (&'static str, OpmUse) {
        use EdramMode as E;
        use McdramMode as M;
        let row = |label, victim, cache, flat, static_power| {
            let opm_use = OpmUse {
                victim,
                cache,
                flat,
                static_power,
            };
            (label, opm_use)
        };
        match self {
            // label, victim, cache share, flat share, static power
            OpmConfig::Broadwell(E::Off) => row("brd-no-edram", false, 0.0, 0.0, false),
            OpmConfig::Broadwell(E::On) => row("brd-edram", true, 0.0, 0.0, true),
            OpmConfig::Knl(M::Off) => row("knl-ddr", false, 0.0, 0.0, true),
            OpmConfig::Knl(M::Cache) => row("knl-cache", false, 1.0, 0.0, true),
            OpmConfig::Knl(M::Flat) => row("knl-flat", false, 0.0, 1.0, true),
            OpmConfig::Knl(M::Hybrid) => row("knl-hybrid", false, 0.5, 0.5, true),
        }
    }

    /// Short label used in CSV headers and plots.
    pub fn label(&self) -> &'static str {
        self.row().0
    }

    /// The configuration a [`label`](Self::label) names.
    pub fn from_label(label: &str) -> Option<OpmConfig> {
        Self::ALL.into_iter().find(|c| c.label() == label)
    }

    /// What the OPM does under this configuration.
    pub fn opm_use(&self) -> OpmUse {
        self.row().1
    }

    /// The machine this configuration applies to.
    pub fn machine(&self) -> Machine {
        match self {
            OpmConfig::Broadwell(_) => Machine::Broadwell,
            OpmConfig::Knl(_) => Machine::Knl,
        }
    }

    /// The same machine with its OPM off, the baseline of a mode's gain.
    pub fn baseline(&self) -> OpmConfig {
        match self {
            OpmConfig::Broadwell(_) => OpmConfig::Broadwell(EdramMode::Off),
            OpmConfig::Knl(_) => OpmConfig::Knl(McdramMode::Off),
        }
    }

    /// The configurations of one machine, in [`ALL`](Self::ALL) order.
    pub fn modes_of(machine: Machine) -> Vec<OpmConfig> {
        let mut modes = Self::ALL.to_vec();
        modes.retain(|c| c.machine() == machine);
        modes
    }

    /// All four KNL modes in the order the paper plots them.
    pub fn knl_modes() -> [OpmConfig; 4] {
        let [_, _, knl @ ..] = Self::ALL;
        knl
    }

    /// Both Broadwell modes.
    pub fn broadwell_modes() -> [OpmConfig; 2] {
        let [off, on, ..] = Self::ALL;
        [off, on]
    }
}

/// Static description of one level of the memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct MemLevel {
    /// Human-readable name ("L3", "eDRAM", "MCDRAM", "DDR3"...).
    pub name: &'static str,
    /// Capacity in bytes. For the backing DRAM this is the module capacity.
    pub capacity: f64,
    /// Peak sustainable bandwidth in GB/s (== bytes/ns).
    pub bandwidth: f64,
    /// Loaded access latency in nanoseconds.
    pub latency_ns: f64,
}

/// Compute-side description of a machine (paper Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Which machine.
    pub machine: Machine,
    /// Marketing name used in reports.
    pub name: &'static str,
    /// Physical core count.
    pub cores: usize,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// Double-precision flops per cycle per core (FMA-counted).
    pub dp_flops_per_cycle: f64,
    /// Maximum hardware threads (SMT) available.
    pub max_threads: usize,
    /// On-die cache levels, upper (closer to core) first. The access-profile
    /// reuse model starts at the first of these levels; register/L1 blocking
    /// is folded into the per-kernel traffic formulas.
    pub caches: Vec<MemLevel>,
    /// Off-package DRAM level.
    pub dram: MemLevel,
    /// On-package memory level (eDRAM or MCDRAM) at its full capacity.
    pub opm: MemLevel,
}

impl PlatformSpec {
    /// Theoretical double-precision peak in GFlop/s.
    pub fn dp_peak_gflops(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.dp_flops_per_cycle
    }

    /// Theoretical single-precision peak in GFlop/s (2x DP on both machines).
    pub fn sp_peak_gflops(&self) -> f64 {
        2.0 * self.dp_peak_gflops()
    }

    /// The Broadwell i7-5775c description (Table 3 row 1).
    pub fn broadwell() -> Self {
        PlatformSpec {
            machine: Machine::Broadwell,
            name: "Intel Core i7-5775c (Broadwell)",
            cores: 4,
            freq_ghz: 3.7,
            dp_flops_per_cycle: 16.0, // 2x 4-wide FMA
            max_threads: 8,
            caches: vec![
                MemLevel {
                    name: "L2",
                    capacity: 4.0 * 256.0 * KIB,
                    bandwidth: 420.0,
                    latency_ns: 3.5,
                },
                MemLevel {
                    name: "L3",
                    capacity: 6.0 * MIB,
                    bandwidth: 210.0,
                    latency_ns: 12.0,
                },
            ],
            dram: MemLevel {
                name: "DDR3-2133",
                capacity: 16.0 * GIB,
                bandwidth: 34.1,
                latency_ns: 60.0,
            },
            opm: MemLevel {
                name: "eDRAM",
                capacity: 128.0 * MIB,
                bandwidth: 102.4,
                latency_ns: 42.0, // shorter than DDR (paper §2.3 (b))
            },
        }
    }

    /// The Knights Landing 7210 description (Table 3 row 2).
    pub fn knl() -> Self {
        PlatformSpec {
            machine: Machine::Knl,
            name: "Intel Xeon Phi 7210 (Knights Landing)",
            cores: 64,
            freq_ghz: 1.5,
            dp_flops_per_cycle: 32.0, // 2x 8-wide FMA (AVX-512)
            max_threads: 256,
            caches: vec![MemLevel {
                name: "L2",
                capacity: 32.0 * MIB,
                bandwidth: 1500.0,
                latency_ns: 15.0,
            }],
            dram: MemLevel {
                name: "DDR4-2133",
                capacity: 96.0 * GIB,
                bandwidth: 102.0,
                latency_ns: 125.0,
            },
            opm: MemLevel {
                name: "MCDRAM",
                capacity: 16.0 * GIB,
                bandwidth: 490.0,
                latency_ns: 150.0, // *higher* than DDR (paper §2.2)
            },
        }
    }

    /// Lookup by machine id.
    pub fn for_machine(machine: Machine) -> Self {
        match machine {
            Machine::Broadwell => Self::broadwell(),
            Machine::Knl => Self::knl(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_peaks_match_table3() {
        let p = PlatformSpec::broadwell();
        assert!((p.dp_peak_gflops() - 236.8).abs() < 0.1);
        assert!((p.sp_peak_gflops() - 473.6).abs() < 0.1);
    }

    #[test]
    fn knl_peaks_match_table3() {
        let p = PlatformSpec::knl();
        // Table 3 lists 3072/6144 with SP/DP columns swapped; DP peak for
        // KNL 7210 is 64 * 1.5 GHz * 32 = 3072 GFlop/s.
        assert!((p.dp_peak_gflops() - 3072.0).abs() < 0.1);
        assert!((p.sp_peak_gflops() - 6144.0).abs() < 0.1);
    }

    #[test]
    fn opm_relationships_from_section2() {
        let brd = PlatformSpec::broadwell();
        let knl = PlatformSpec::knl();
        // (b) eDRAM has a shorter access latency than DDR, MCDRAM does not.
        assert!(brd.opm.latency_ns < brd.dram.latency_ns);
        assert!(knl.opm.latency_ns >= knl.dram.latency_ns);
        // (c) eDRAM is much smaller than MCDRAM (128 MB vs 16 GB).
        assert!(brd.opm.capacity < knl.opm.capacity / 100.0);
        // OPM bandwidth is significantly larger than off-package DRAM.
        assert!(brd.opm.bandwidth > 2.0 * brd.dram.bandwidth);
        assert!(knl.opm.bandwidth > 4.0 * knl.dram.bandwidth);
        // MCDRAM offers ~5x the DDR4 bandwidth on the same board (§2.2).
        assert!((knl.opm.bandwidth / knl.dram.bandwidth - 4.8).abs() < 0.3);
    }

    #[test]
    fn labels_are_unique_and_parse_back() {
        let mut labels: Vec<&str> = OpmConfig::ALL.iter().map(|c| c.label()).collect();
        for c in OpmConfig::ALL {
            assert_eq!(OpmConfig::from_label(c.label()), Some(c));
        }
        assert_eq!(OpmConfig::from_label("knl"), None);
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn all_is_broadwell_then_knl_modes() {
        let listed: Vec<OpmConfig> = OpmConfig::broadwell_modes()
            .into_iter()
            .chain(OpmConfig::knl_modes())
            .collect();
        assert_eq!(listed, OpmConfig::ALL);
        assert_eq!(OpmConfig::knl_modes()[1], OpmConfig::Knl(McdramMode::Flat));
        for m in [Machine::Broadwell, Machine::Knl] {
            let modes = OpmConfig::modes_of(m);
            assert!(modes.iter().all(|c| c.machine() == m));
            assert_eq!(modes[0], modes[0].baseline());
        }
    }

    #[test]
    fn mode_rows_state_table1() {
        for c in OpmConfig::ALL {
            let u = c.opm_use();
            let base = c.baseline().opm_use();
            // The baseline holds no data in its OPM.
            assert!(!base.victim && base.cache == 0.0 && base.flat == 0.0);
            assert_eq!(c.baseline().machine(), c.machine());
            // Caching and flat shares never exceed the capacity.
            assert!(u.cache + u.flat <= 1.0, "{}", c.label());
            assert!(!(u.victim && u.cache > 0.0), "{}", c.label());
            // Only eDRAM can be switched off in the BIOS.
            assert_eq!(u.static_power, c != OpmConfig::Broadwell(EdramMode::Off));
        }
        let flat = |m| OpmConfig::Knl(m).opm_use().flat_placement();
        assert_eq!(flat(McdramMode::Flat), Some(FlatPlacement::Preferred));
        assert_eq!(flat(McdramMode::Hybrid), Some(FlatPlacement::Partition));
        assert_eq!(flat(McdramMode::Cache), None);
        assert!(OpmConfig::Broadwell(EdramMode::On).opm_use().victim);
    }

    #[test]
    fn hierarchy_is_ordered_fast_to_slow() {
        for p in [PlatformSpec::broadwell(), PlatformSpec::knl()] {
            let mut prev_cap = 0.0;
            for c in &p.caches {
                assert!(c.capacity > prev_cap, "{} capacity ordering", c.name);
                prev_cap = c.capacity;
            }
            assert!(p.opm.capacity > prev_cap);
            assert!(p.dram.capacity > p.opm.capacity);
        }
    }
}
