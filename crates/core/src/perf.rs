//! The execution-time model: a quantitative version of the paper's
//! **Stepping Model** (§4, Fig. 6), in the ECM/Roofline family.
//!
//! For each phase, compute time is `flops / (peak · eff · thread-scale)` and
//! memory time is the sum over *service components*. A component is a chunk
//! of traffic served by one level of the effective hierarchy; its cost per
//! byte blends a bandwidth term with a latency term,
//!
//! ```text
//! cost = p_eff / BW  +  (1 - p_eff) · latency / (concurrency · line)
//! ```
//!
//! where the prefetch efficiency `p_eff` and the concurrency both *ramp up*
//! as a working set grows past the capacity of the level above. This ramp is
//! exactly the paper's explanation of the **cache valley**: just past a
//! capacity edge the memory-level parallelism is "insufficient to saturate
//! the bandwidth of the lower memory hierarchy" (Fig. 6 caption), so isolated
//! misses pay latency; far past the edge long streams prefetch at full
//! bandwidth, forming the plateau.
//!
//! The effective hierarchy encodes all six OPM configurations of Table 1,
//! including the MCDRAM-specific behaviours observed in §4.2: direct-mapped
//! conflict losses and tag-check overhead in cache mode, the flat-mode
//! straddle cliff past 16 GB, and the hybrid 8 GB + 8 GB split.

use crate::platform::{FlatPlacement, MemLevel, OpmConfig, PlatformSpec};
use crate::profile::AccessProfile;
use crate::units::CACHE_LINE;

/// Fraction of capacity below which a larger working set gets no hits
/// (LRU-thrash shoulder: hits fall linearly from `C == W` to `C == THRASH·W`).
pub const THRASH: f64 = 0.85;
/// Working sets this many times larger than the upper level's capacity reach
/// full concurrency/prefetch.
pub const RAMP_GROW: f64 = 4.0;
/// Concurrency/prefetch floor just past a capacity edge.
pub const RAMP_FLOOR: f64 = 0.3;
/// Effective-capacity factor for the direct-mapped MCDRAM cache (conflict
/// misses; §4.2.1-(b)).
pub const DIRECT_MAPPED_EFF: f64 = 0.7;
/// Effective-capacity factor for the eDRAM victim L4.
pub const VICTIM_EFF: f64 = 0.95;
/// Bandwidth retained by MCDRAM in cache mode (tag checking overhead,
/// §4.2.1-III).
pub const TAG_BW_EFF: f64 = 0.85;
/// Extra latency of MCDRAM cache-mode accesses (local tag check), ns.
pub const TAG_LATENCY_NS: f64 = 10.0;
/// Bandwidth penalty factor when a flat-mode allocation straddles MCDRAM and
/// DDR (NoC bus conflicts + L2 set conflicts, §4.2.1-II).
pub const STRADDLE_PENALTY: f64 = 0.06;

/// Tunable parameters of the performance model, defaulting to the
/// calibrated constants. The ablation study
/// (`opm study ablation_model`) sweeps these to show which modeled
/// findings depend on which design choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// LRU-thrash shoulder of on-die caches ([`THRASH`]).
    pub thrash: f64,
    /// Concurrency/prefetch ramp span ([`RAMP_GROW`]).
    pub ramp_grow: f64,
    /// Concurrency/prefetch floor ([`RAMP_FLOOR`]).
    pub ramp_floor: f64,
    /// Direct-mapped MCDRAM effective capacity ([`DIRECT_MAPPED_EFF`]).
    pub direct_mapped_eff: f64,
    /// eDRAM victim effective capacity ([`VICTIM_EFF`]).
    pub victim_eff: f64,
    /// MCDRAM cache-mode bandwidth retention ([`TAG_BW_EFF`]).
    pub tag_bw_eff: f64,
    /// MCDRAM cache-mode extra latency ([`TAG_LATENCY_NS`]).
    pub tag_latency_ns: f64,
    /// Flat-mode straddle penalty ([`STRADDLE_PENALTY`]).
    pub straddle_penalty: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            thrash: THRASH,
            ramp_grow: RAMP_GROW,
            ramp_floor: RAMP_FLOOR,
            direct_mapped_eff: DIRECT_MAPPED_EFF,
            victim_eff: VICTIM_EFF,
            tag_bw_eff: TAG_BW_EFF,
            tag_latency_ns: TAG_LATENCY_NS,
            straddle_penalty: STRADDLE_PENALTY,
        }
    }
}

/// The role a serving level plays in the effective hierarchy. It fixes
/// how the level's hit fraction degrades once a working set outgrows it
/// and whether the bytes it serves count as on-package or DRAM traffic,
/// so the model never reads a level's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelKind {
    /// On-die SRAM LRU cache (L2, L3): cyclic reuse thrashes, hits
    /// collapse just past capacity (sharp shoulder at [`THRASH`]).
    Cache,
    /// On-package memory acting as a memory-side cache (eDRAM victim L4,
    /// direct-mapped MCDRAM): hit fraction degrades proportionally as
    /// `C / W`. This is why the paper never observes eDRAM hurting
    /// performance (§5.1) and why MCDRAM cache mode degrades gracefully
    /// past its capacity (Figs. 23–25).
    OpmCache,
    /// Flat-addressable on-package memory serving as backing store
    /// (MCDRAM flat node, hybrid flat partition).
    OpmFlat,
    /// A flat-mode allocation straddling the on-package memory and DRAM;
    /// its bytes count as on-package traffic, and 30% of them again as
    /// DRAM traffic.
    Straddle,
    /// Off-package DRAM backing store.
    Dram,
}

/// A serving point in the effective hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct EffLevel {
    /// Name for reporting.
    pub name: &'static str,
    /// Effective caching capacity in bytes (`None` for the backing store).
    pub capacity: Option<f64>,
    /// Bandwidth in GB/s.
    pub bandwidth: f64,
    /// Loaded latency in ns.
    pub latency_ns: f64,
    /// Role of the level.
    pub kind: LevelKind,
}

impl EffLevel {
    /// Fraction of a working set of `w` bytes this level serves.
    pub fn absorb_fraction(&self, w: f64) -> f64 {
        self.absorb_fraction_with(w, THRASH)
    }

    /// [`EffLevel::absorb_fraction`] with an explicit thrash shoulder.
    pub fn absorb_fraction_with(&self, w: f64, thrash: f64) -> f64 {
        match self.capacity {
            None => 1.0,
            Some(c) if self.kind == LevelKind::Cache => absorb_with(c, w, thrash),
            Some(c) => absorb_proportional(c, w),
        }
    }
}

/// The hierarchy actually in effect for a (platform, OPM config, footprint)
/// triple.
#[derive(Debug, Clone, PartialEq)]
pub struct EffHierarchy {
    /// Cache levels, upper first (each has `capacity: Some(..)`).
    pub caches: Vec<EffLevel>,
    /// Backing store (DDR, MCDRAM-flat, or the penalized straddle mix).
    pub backing: EffLevel,
    /// Fraction of backing traffic served by a flat OPM partition at
    /// `flat_spec` instead of `backing` (hybrid mode).
    pub flat_share: f64,
    /// Service spec for the flat partition, if any.
    pub flat_spec: Option<EffLevel>,
}

impl EffHierarchy {
    /// Build the effective hierarchy for one OPM configuration.
    ///
    /// `footprint` is the total allocation, which determines flat-mode
    /// placement (preferred-node allocation spills to DDR past the MCDRAM
    /// capacity, triggering the straddle penalty).
    pub fn build(platform: &PlatformSpec, config: OpmConfig, footprint: f64) -> Self {
        Self::build_with(platform, config, footprint, &ModelParams::default())
    }

    /// [`EffHierarchy::build`] with explicit model parameters.
    pub fn build_with(
        platform: &PlatformSpec,
        config: OpmConfig,
        footprint: f64,
        params: &ModelParams,
    ) -> Self {
        assert_eq!(
            platform.machine,
            config.machine(),
            "config/platform mismatch"
        );
        let mut caches: Vec<EffLevel> = platform
            .caches
            .iter()
            .map(|c| EffLevel {
                name: c.name,
                capacity: Some(c.capacity),
                bandwidth: c.bandwidth,
                latency_ns: c.latency_ns,
                kind: LevelKind::Cache,
            })
            .collect();
        let dram = EffLevel {
            name: platform.dram.name,
            capacity: None,
            bandwidth: platform.dram.bandwidth,
            latency_ns: platform.dram.latency_ns,
            kind: LevelKind::Dram,
        };
        let opm = &platform.opm;
        let opm_use = config.opm_use();
        if opm_use.victim {
            caches.push(EffLevel {
                name: opm.name,
                capacity: Some(opm.capacity * params.victim_eff),
                bandwidth: opm.bandwidth,
                latency_ns: opm.latency_ns,
                kind: LevelKind::OpmCache,
            });
        }
        if opm_use.cache > 0.0 {
            // Direct-mapped conflicts shrink the capacity; the tag check
            // costs bandwidth and latency (§4.2.1-III).
            caches.push(EffLevel {
                name: "MCDRAM(cache)",
                capacity: Some(opm.capacity * opm_use.cache * params.direct_mapped_eff),
                bandwidth: opm.bandwidth * params.tag_bw_eff,
                latency_ns: opm.latency_ns + params.tag_latency_ns,
                kind: LevelKind::OpmCache,
            });
        }
        let flat_cap = opm.capacity * opm_use.flat;
        let (backing, flat_share, flat_spec) = match opm_use.flat_placement() {
            None => (dram, 0.0, None),
            // Whole allocation lands on the MCDRAM NUMA node.
            Some(FlatPlacement::Preferred) if footprint <= flat_cap => {
                (opm_flat_level(opm, "MCDRAM(flat)"), 0.0, None)
            }
            Some(FlatPlacement::Preferred) => {
                // Allocation straddles MCDRAM and DDR: harmonic-mean
                // bandwidth of the two portions, scaled by the conflict
                // penalty the paper measured (§4.2.1-II: "extremely
                // poor", below pure DDR).
                let f_mc = flat_cap / footprint;
                let f_dd = 1.0 - f_mc;
                let harmonic = 1.0 / (f_mc / opm.bandwidth + f_dd / dram.bandwidth);
                let straddle = EffLevel {
                    name: "MCDRAM+DDR(straddle)",
                    capacity: None,
                    bandwidth: harmonic * params.straddle_penalty,
                    latency_ns: opm.latency_ns.max(dram.latency_ns) * 1.5,
                    kind: LevelKind::Straddle,
                };
                (straddle, 0.0, None)
            }
            // The flat partition holds `min(flat_cap/footprint, 1)` of the
            // data; that share of backing traffic is served at pure MCDRAM
            // specs (no tag overhead).
            Some(FlatPlacement::Partition) => (
                dram,
                (flat_cap / footprint).min(1.0),
                Some(opm_flat_level(opm, "MCDRAM(flat-half)")),
            ),
        };
        EffHierarchy {
            caches,
            backing,
            flat_share,
            flat_spec,
        }
    }
}

/// The flat-addressable OPM as a serving level, at its own specs.
fn opm_flat_level(opm: &MemLevel, name: &'static str) -> EffLevel {
    EffLevel {
        name,
        capacity: None,
        bandwidth: opm.bandwidth,
        latency_ns: opm.latency_ns,
        kind: LevelKind::OpmFlat,
    }
}

/// Fraction of a working set of `w` bytes served by a cache of `c` bytes.
///
/// 1.0 when it fits, falling linearly to 0 once the set exceeds `c / THRASH`
/// (LRU cyclic reuse thrashes).
pub fn absorb(c: f64, w: f64) -> f64 {
    absorb_with(c, w, THRASH)
}

/// [`absorb`] with an explicit thrash shoulder.
pub fn absorb_with(c: f64, w: f64, thrash: f64) -> f64 {
    if w <= 0.0 {
        return 1.0;
    }
    let r = c / w;
    ((r - thrash) / (1.0 - thrash)).clamp(0.0, 1.0)
}

/// Proportional absorption for memory-side OPM caches: hit fraction `C/W`
/// once the set outgrows the capacity.
pub fn absorb_proportional(c: f64, w: f64) -> f64 {
    if w <= 0.0 {
        return 1.0;
    }
    (c / w).min(1.0)
}

/// Concurrency/prefetch ramp for a working set `w` served below a level of
/// capacity `upper_c`: low just past the edge, 1.0 once `w >= RAMP_GROW ·
/// upper_c`.
pub fn ramp(w: f64, upper_c: f64) -> f64 {
    ramp_with(w, upper_c, RAMP_GROW, RAMP_FLOOR)
}

/// [`ramp`] with explicit span/floor.
pub fn ramp_with(w: f64, upper_c: f64, grow: f64, floor: f64) -> f64 {
    if upper_c <= 0.0 {
        return 1.0;
    }
    (((w / upper_c) - 1.0) / (grow - 1.0)).clamp(floor, 1.0)
}

/// Traffic served by one level on behalf of one tier, with its service cost
/// parameters resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Serving level name.
    pub level: &'static str,
    /// Bytes served.
    pub bytes: f64,
    /// Time spent, ns.
    pub time_ns: f64,
}

/// Result of evaluating a profile on a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Total modeled execution time in nanoseconds.
    pub time_ns: f64,
    /// Delivered throughput in GFlop/s (`flops / time_ns`).
    pub gflops: f64,
    /// Effective data bandwidth in GB/s (`bytes / time_ns`).
    pub bandwidth_gbs: f64,
    /// Compute-side time, ns.
    pub compute_ns: f64,
    /// Memory-side time, ns.
    pub memory_ns: f64,
    /// Bytes served by off-package DRAM (for the power model).
    pub dram_bytes: f64,
    /// Bytes served by the on-package memory in any role.
    pub opm_bytes: f64,
    /// Per-component service breakdown.
    pub components: Vec<Component>,
}

impl Estimate {
    /// The component breakdown aggregated by serving level, preserving
    /// first-appearance order: `(level, bytes, time_ns)`. One level can
    /// appear in many components (per tier, per phase); this is the
    /// per-level traffic view the roofline-attribution telemetry
    /// reports.
    pub fn level_traffic(&self) -> Vec<(&'static str, f64, f64)> {
        let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
        for c in &self.components {
            match out.iter_mut().find(|(name, _, _)| *name == c.level) {
                Some((_, bytes, time_ns)) => {
                    *bytes += c.bytes;
                    *time_ns += c.time_ns;
                }
                None => out.push((c.level, c.bytes, c.time_ns)),
            }
        }
        out
    }
}

/// Folded per-profile evaluation state: per-tier prefetch/MLP resolution
/// against the phase defaults, per-tier byte counts, the streaming
/// remainder, and the profile aggregates are all computed once, so a sweep
/// can evaluate the same profile under many configurations (or many points
/// of an axis against one [`EvalPlan`]) without re-walking `Vec<Tier>` per
/// point.
///
/// Tier order is preserved exactly as authored: the evaluator accumulates
/// `memory_ns` in tier order and float addition is order-sensitive, so
/// reordering here would drift results at the ULP level (the golden figure
/// CSVs pin the current bits).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilePlan {
    phases: Vec<PhasePlan>,
    footprint: f64,
    total_flops: f64,
    total_bytes: f64,
}

/// One tier with its service parameters resolved and its byte count folded.
#[derive(Debug, Clone, PartialEq)]
struct PlannedTier {
    working_set: f64,
    bytes: f64,
    p_max: f64,
    mlp: f64,
}

/// One phase with every profile-only constant folded.
#[derive(Debug, Clone, PartialEq)]
struct PhasePlan {
    flops: f64,
    threads: usize,
    compute_eff: f64,
    tiers: Vec<PlannedTier>,
    stream_bytes: f64,
    stream_prefetch: f64,
    stream_mlp: f64,
}

impl ProfilePlan {
    /// Validate `profile` and fold its evaluation constants.
    pub fn new(profile: &AccessProfile) -> Result<Self, String> {
        profile.validate()?;
        let phases = profile
            .phases
            .iter()
            .map(|phase| {
                let tiers = phase
                    .tiers
                    .iter()
                    .filter_map(|tier| {
                        let bytes = phase.bytes * tier.fraction;
                        (bytes > 0.0).then_some(PlannedTier {
                            working_set: tier.working_set,
                            bytes,
                            p_max: tier.prefetch.unwrap_or(phase.prefetch),
                            mlp: tier.mlp.unwrap_or(phase.mlp),
                        })
                    })
                    .collect();
                PhasePlan {
                    flops: phase.flops,
                    threads: phase.threads,
                    compute_eff: phase.compute_eff,
                    tiers,
                    stream_bytes: phase.bytes * phase.streaming_fraction(),
                    stream_prefetch: phase.stream_prefetch,
                    stream_mlp: phase.mlp,
                }
            })
            .collect();
        Ok(ProfilePlan {
            phases,
            footprint: profile.footprint,
            total_flops: profile.total_flops(),
            total_bytes: profile.total_bytes(),
        })
    }

    /// The profile's allocation footprint (bytes).
    pub fn footprint(&self) -> f64 {
        self.footprint
    }

    /// Total flops across phases (folded).
    pub fn total_flops(&self) -> f64 {
        self.total_flops
    }

    /// Total hierarchy traffic across phases (folded).
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }
}

/// The performance model.
///
/// ```
/// use opm_core::perf::PerfModel;
/// use opm_core::platform::{EdramMode, OpmConfig};
/// use opm_core::profile::{AccessProfile, Phase, Tier};
///
/// // A STREAM-like workload: 64 MiB footprint, AI = 1/16.
/// let fp = 64.0 * 1024.0 * 1024.0;
/// let mut phase = Phase::new("triad", fp / 4.0, fp * 4.0);
/// phase.tiers = vec![Tier::new(fp, 1.0)];
/// phase.threads = 8;
/// let profile = AccessProfile::single("stream", phase, fp);
///
/// let with = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On)).evaluate(&profile);
/// let without = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::Off)).evaluate(&profile);
/// // 64 MiB sits in the eDRAM-effective region: a clear speedup.
/// assert!(with.gflops > 1.5 * without.gflops);
/// ```
#[derive(Debug, Clone)]
pub struct PerfModel {
    platform: PlatformSpec,
    config: OpmConfig,
    params: ModelParams,
}

impl PerfModel {
    /// Create a model for one machine configuration.
    pub fn new(platform: PlatformSpec, config: OpmConfig) -> Self {
        Self::with_params(platform, config, ModelParams::default())
    }

    /// Create a model with explicit (ablation) parameters.
    pub fn with_params(platform: PlatformSpec, config: OpmConfig, params: ModelParams) -> Self {
        assert_eq!(
            platform.machine,
            config.machine(),
            "config/platform mismatch"
        );
        PerfModel {
            platform,
            config,
            params,
        }
    }

    /// The active model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// A model of the stock platform of the config's machine
    /// ([`PlatformSpec::for_machine`]) under `config`. Models of a modified
    /// platform (a cluster mode, another eDRAM placement) use
    /// [`PerfModel::new`].
    pub fn for_config(config: OpmConfig) -> Self {
        Self::new(PlatformSpec::for_machine(config.machine()), config)
    }

    /// The platform being modeled.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// The OPM configuration being modeled.
    pub fn config(&self) -> OpmConfig {
        self.config
    }

    /// Evaluate a full profile: phases run back to back.
    ///
    /// Equivalent to `self.plan().evaluate(profile)`; sweeps evaluating
    /// many points under one configuration should build the [`EvalPlan`]
    /// once and reuse it.
    pub fn evaluate(&self, profile: &AccessProfile) -> Estimate {
        self.plan().evaluate(profile)
    }

    /// Build a reusable evaluation plan for this model: the effective
    /// hierarchy is constructed once and shared across every point of a
    /// sweep axis; only the footprint-dependent flat placement (see
    /// [`FlatPlacement`]) is resolved per point.
    pub fn plan(&self) -> EvalPlan<'_> {
        let opm_use = self.config.opm_use();
        let flat_cap = self.platform.opm.capacity * opm_use.flat;
        EvalPlan {
            model: self,
            proto: EffHierarchy::build_with(&self.platform, self.config, 0.0, &self.params),
            flat: opm_use
                .flat_placement()
                .map(|placement| (placement, flat_cap)),
        }
    }
}

/// A reusable evaluation plan for one [`PerfModel`] (see
/// [`PerfModel::plan`]). Holds the prebuilt effective hierarchy so a sweep
/// axis is evaluated in a batched loop without rebuilding per point.
#[derive(Debug, Clone)]
pub struct EvalPlan<'m> {
    model: &'m PerfModel,
    /// The hierarchy at footprint 0, valid for every footprint but where
    /// `flat` says otherwise.
    proto: EffHierarchy,
    /// The flat placement and the flat OPM capacity in bytes, if any.
    flat: Option<(FlatPlacement, f64)>,
}

impl EvalPlan<'_> {
    /// The model this plan was built from.
    pub fn model(&self) -> &PerfModel {
        self.model
    }

    /// Plan-and-evaluate in one call (validates like
    /// [`PerfModel::evaluate`]).
    pub fn evaluate(&self, profile: &AccessProfile) -> Estimate {
        let plan = ProfilePlan::new(profile)
            .unwrap_or_else(|e| panic!("invalid profile for {}: {e}", profile.kernel));
        self.evaluate_planned(&plan)
    }

    /// Evaluate a pre-folded profile, producing the full per-component
    /// breakdown.
    pub fn evaluate_planned(&self, plan: &ProfilePlan) -> Estimate {
        let mut components = Vec::new();
        let sums = self.accumulate(plan, Some(&mut components));
        self.finish(plan, sums, components)
    }

    /// Lean path for sweeps: the modeled GFlop/s only, with no component
    /// allocation. Bit-identical to `evaluate_planned(plan).gflops` (the
    /// accumulation order is shared).
    pub fn gflops_planned(&self, plan: &ProfilePlan) -> f64 {
        let (time_ns, ..) = self.accumulate(plan, None);
        if time_ns > 0.0 {
            plan.total_flops / time_ns
        } else {
            0.0
        }
    }

    /// Evaluate a whole sweep axis of pre-folded profiles against this one
    /// plan in a batched loop, returning the modeled GFlop/s per point.
    pub fn gflops_axis<'a>(&self, plans: impl IntoIterator<Item = &'a ProfilePlan>) -> Vec<f64> {
        plans.into_iter().map(|p| self.gflops_planned(p)).collect()
    }

    fn finish(
        &self,
        plan: &ProfilePlan,
        sums: (f64, f64, f64, f64, f64),
        components: Vec<Component>,
    ) -> Estimate {
        let (time_ns, compute_ns, memory_ns, dram_bytes, opm_bytes) = sums;
        Estimate {
            time_ns,
            gflops: if time_ns > 0.0 {
                plan.total_flops / time_ns
            } else {
                0.0
            },
            bandwidth_gbs: if time_ns > 0.0 {
                plan.total_bytes / time_ns
            } else {
                0.0
            },
            compute_ns,
            memory_ns,
            dram_bytes,
            opm_bytes,
            components,
        }
    }

    /// Accumulate (time, compute, memory, dram_bytes, opm_bytes) over the
    /// phases, resolving the footprint-dependent hierarchy parts once per
    /// profile.
    fn accumulate(
        &self,
        plan: &ProfilePlan,
        mut components: Option<&mut Vec<Component>>,
    ) -> (f64, f64, f64, f64, f64) {
        let straddle;
        let (hier, flat_share) = match self.flat {
            // Past the preferred node's capacity the allocation straddles
            // it and DRAM: the backing depends on the footprint.
            Some((FlatPlacement::Preferred, capacity)) if plan.footprint > capacity => {
                straddle = EffHierarchy::build_with(
                    &self.model.platform,
                    self.model.config,
                    plan.footprint,
                    &self.model.params,
                );
                (&straddle, straddle.flat_share)
            }
            // A flat partition's share of the data depends on the footprint.
            Some((FlatPlacement::Partition, capacity)) => {
                (&self.proto, (capacity / plan.footprint).min(1.0))
            }
            _ => (&self.proto, self.proto.flat_share),
        };
        let mut time_ns = 0.0;
        let mut compute_ns = 0.0;
        let mut memory_ns = 0.0;
        let mut dram_bytes = 0.0;
        let mut opm_bytes = 0.0;
        for phase in &plan.phases {
            let r = eval_phase_core(
                &self.model.platform,
                &self.model.params,
                phase,
                hier,
                flat_share,
                &mut components,
            );
            time_ns += r.0;
            compute_ns += r.1;
            memory_ns += r.2;
            dram_bytes += r.3;
            opm_bytes += r.4;
        }
        (time_ns, compute_ns, memory_ns, dram_bytes, opm_bytes)
    }
}

/// `(bytes, working set, prefetch, mlp, upper sharp-cache capacity)` of one
/// chunk of backing traffic.
type BackingTier = (f64, f64, f64, f64, f64);

/// Inline capacity for per-phase backing traffic: real profiles carry at
/// most a handful of tiers plus the streaming remainder, so the hot path
/// never heap-allocates.
const BACKING_INLINE: usize = 8;

/// Stack-first buffer of backing-traffic entries, preserving push order.
struct BackingBuf {
    inline: [BackingTier; BACKING_INLINE],
    len: usize,
    spill: Vec<BackingTier>,
}

impl BackingBuf {
    fn new() -> Self {
        BackingBuf {
            inline: [(0.0, 0.0, 0.0, 0.0, 0.0); BACKING_INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, t: BackingTier) {
        if self.len < BACKING_INLINE {
            self.inline[self.len] = t;
            self.len += 1;
        } else {
            self.spill.push(t);
        }
    }

    fn iter(&self) -> impl Iterator<Item = &BackingTier> {
        self.inline[..self.len].iter().chain(self.spill.iter())
    }
}

/// Evaluate one folded phase against a resolved hierarchy, returning
/// `(time, compute, memory, dram_bytes, opm_bytes)` and optionally pushing
/// the per-component breakdown.
fn eval_phase_core(
    p: &PlatformSpec,
    params: &ModelParams,
    phase: &PhasePlan,
    hier: &EffHierarchy,
    flat_share: f64,
    components: &mut Option<&mut Vec<Component>>,
) -> (f64, f64, f64, f64, f64) {
    // Compute side: threads beyond the core count (SMT) add no FLOP
    // throughput, only memory-level parallelism.
    let core_scale = (phase.threads.min(p.cores) as f64) / p.cores as f64;
    let peak = p.dp_peak_gflops() * phase.compute_eff * core_scale;
    let compute_ns = if phase.flops > 0.0 {
        phase.flops / peak
    } else {
        0.0
    };

    let threads_mem = phase.threads.min(p.max_threads) as f64;
    let mut memory_ns = 0.0;
    let mut dram_bytes = 0.0;
    let mut opm_bytes = 0.0;
    let mut backing_traffic = BackingBuf::new();

    // Distribute each tier across the cache chain.
    for tier in &phase.tiers {
        let mut served_below = 1.0; // fraction not yet absorbed
        let mut absorbed_cum = 0.0;
        // The concurrency/prefetch ramp (cache-valley effect) is driven
        // by the last *on-die* cache the working set outgrew: memory-side
        // OPM caches are transparent to the core-side prefetchers, so
        // missing them does not re-expose latency (this is also why
        // eDRAM never makes things worse, §5.1).
        let mut upper_sharp_cap = 0.0;
        for lvl in &hier.caches {
            let cap = lvl.capacity.expect("cache level has capacity");
            let a = lvl.absorb_fraction_with(tier.working_set, params.thrash);
            let here = (a - absorbed_cum).max(0.0).min(served_below);
            if here > 0.0 {
                let b = tier.bytes * here;
                let t = service_time(
                    b,
                    lvl,
                    tier.working_set,
                    upper_sharp_cap,
                    threads_mem,
                    tier.mlp,
                    tier.p_max,
                    params,
                );
                memory_ns += t;
                if lvl.kind == LevelKind::OpmCache {
                    opm_bytes += b;
                }
                if let Some(c) = components.as_deref_mut() {
                    c.push(Component {
                        level: lvl.name,
                        bytes: b,
                        time_ns: t,
                    });
                }
                served_below -= here;
                absorbed_cum += here;
            }
            if lvl.kind == LevelKind::Cache {
                upper_sharp_cap = cap;
            }
        }
        if served_below > 1e-12 {
            backing_traffic.push((
                tier.bytes * served_below,
                tier.working_set,
                tier.p_max,
                tier.mlp,
                upper_sharp_cap,
            ));
        }
    }
    // Streaming remainder: compulsory traffic with a working set far
    // larger than any cache (use the footprint-equivalent: infinite).
    if phase.stream_bytes > 0.0 {
        backing_traffic.push((
            phase.stream_bytes,
            f64::INFINITY,
            phase.stream_prefetch,
            phase.stream_mlp,
            0.0,
        ));
    }

    for &(bytes, w, p_max, mlp, sharp_cap) in backing_traffic.iter() {
        // Hybrid mode: a share of backing traffic is served by the flat
        // OPM partition.
        let (flat_b, back_b) = match &hier.flat_spec {
            Some(_) => (bytes * flat_share, bytes * (1.0 - flat_share)),
            None => (0.0, bytes),
        };
        if flat_b > 0.0 {
            let spec = hier.flat_spec.as_ref().unwrap();
            let t = service_time(flat_b, spec, w, sharp_cap, threads_mem, mlp, p_max, params);
            memory_ns += t;
            opm_bytes += flat_b;
            if let Some(c) = components.as_deref_mut() {
                c.push(Component {
                    level: spec.name,
                    bytes: flat_b,
                    time_ns: t,
                });
            }
        }
        if back_b > 0.0 {
            let t = service_time(
                back_b,
                &hier.backing,
                w,
                sharp_cap,
                threads_mem,
                mlp,
                p_max,
                params,
            );
            memory_ns += t;
            match hier.backing.kind {
                // Flat mode: backing *is* the OPM (plus straddle DDR).
                LevelKind::OpmFlat => opm_bytes += back_b,
                LevelKind::Straddle => {
                    opm_bytes += back_b;
                    dram_bytes += back_b * 0.3;
                }
                _ => dram_bytes += back_b,
            }
            if let Some(c) = components.as_deref_mut() {
                c.push(Component {
                    level: hier.backing.name,
                    bytes: back_b,
                    time_ns: t,
                });
            }
        }
    }

    (
        compute_ns.max(memory_ns),
        compute_ns,
        memory_ns,
        dram_bytes,
        opm_bytes,
    )
}

/// Time (ns) for `bytes` served by `lvl`, given the working set `w` and the
/// capacity of the level above (`upper_cap`) for the valley ramp.
#[allow(clippy::too_many_arguments)]
fn service_time(
    bytes: f64,
    lvl: &EffLevel,
    w: f64,
    upper_cap: f64,
    threads: f64,
    mlp: f64,
    p_max: f64,
    params: &ModelParams,
) -> f64 {
    let r = if w.is_finite() {
        ramp_with(w, upper_cap, params.ramp_grow, params.ramp_floor)
    } else {
        1.0
    };
    let p_eff = (p_max * r).clamp(0.0, 1.0);
    // Kernel MLP models *miss*-level parallelism to memory; short on-die
    // latencies are covered by the out-of-order window regardless, so
    // low-MLP kernels (SpTRSV) are not latency-bound on cache hits.
    let eff_mlp = if lvl.latency_ns <= 20.0 {
        mlp.max(8.0)
    } else {
        mlp
    };
    let conc = (threads * eff_mlp * r).max(1.0);
    let lat_bw = conc * CACHE_LINE / lvl.latency_ns; // GB/s equivalent
    let bw_term = p_eff / lvl.bandwidth;
    let lat_term = (1.0 - p_eff) / lat_bw.min(lvl.bandwidth);
    bytes * (bw_term + lat_term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{EdramMode, McdramMode};
    use crate::profile::{Phase, Tier};
    use crate::units::{GIB, MIB};

    fn stream_profile(footprint: f64) -> AccessProfile {
        // STREAM TRIAD-like phase: AI = 1/16, whole footprint reused across
        // repetitions.
        let bytes = footprint * 4.0; // several sweeps
        let mut ph = Phase::new("triad", bytes / 16.0, bytes);
        ph.tiers = vec![Tier::new(footprint, 1.0)];
        ph.prefetch = 0.95;
        ph.mlp = 10.0;
        ph.compute_eff = 0.5;
        ph.threads = 8;
        AccessProfile::single("stream", ph, footprint)
    }

    fn gflops(config: OpmConfig, footprint: f64) -> f64 {
        let model = PerfModel::for_config(config);
        model.evaluate(&stream_profile(footprint)).gflops
    }

    #[test]
    fn absorb_behaviour() {
        assert_eq!(absorb(100.0, 50.0), 1.0);
        assert_eq!(absorb(100.0, 100.0), 1.0);
        assert_eq!(absorb(84.0, 100.0), 0.0); // below thrash shoulder
        let mid = absorb(95.0, 100.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn ramp_behaviour() {
        assert_eq!(ramp(100.0, 0.0), 1.0);
        assert_eq!(ramp(101.0, 100.0), RAMP_FLOOR);
        assert_eq!(ramp(400.0, 100.0), 1.0);
        let mid = ramp(250.0, 100.0);
        assert!(mid > RAMP_FLOOR && mid < 1.0);
    }

    #[test]
    fn stream_shows_cache_peaks_and_plateau() {
        let cfg = OpmConfig::Broadwell(EdramMode::Off);
        let in_l3 = gflops(cfg, 4.0 * MIB);
        let plateau = gflops(cfg, 512.0 * MIB);
        // L3-resident runs far faster than the DDR plateau.
        assert!(
            in_l3 > 3.0 * plateau,
            "L3 peak {in_l3} vs plateau {plateau}"
        );
        // Plateau throughput tracks DDR bandwidth: AI/16 of 34.1 GB/s ~ 2.1.
        assert!((plateau * 16.0 - 34.1).abs() < 8.0);
    }

    #[test]
    fn stream_has_l3_valley_without_edram() {
        let cfg = OpmConfig::Broadwell(EdramMode::Off);
        let valley = gflops(cfg, 8.0 * MIB);
        let plateau = gflops(cfg, 512.0 * MIB);
        assert!(
            valley < plateau,
            "expected valley ({valley}) below plateau ({plateau})"
        );
    }

    #[test]
    fn edram_fills_the_valley_and_forms_a_peak() {
        let off = OpmConfig::Broadwell(EdramMode::Off);
        let on = OpmConfig::Broadwell(EdramMode::On);
        // eDRAM cache peak at ~64 MB footprint.
        assert!(gflops(on, 64.0 * MIB) > 2.0 * gflops(off, 64.0 * MIB));
        // Valley region is lifted.
        assert!(gflops(on, 8.0 * MIB) > gflops(off, 8.0 * MIB));
        // Far beyond eDRAM, both converge to the DDR plateau.
        let a = gflops(on, 4.0 * GIB);
        let b = gflops(off, 4.0 * GIB);
        assert!((a - b).abs() / b < 0.05, "{a} vs {b}");
    }

    #[test]
    fn edram_never_hurts() {
        // Paper §5.1: "we have not observed worse performance using eDRAM
        // than without eDRAM".
        for mb in [1.0, 4.0, 6.0, 8.0, 16.0, 64.0, 120.0, 200.0, 1024.0, 8192.0] {
            let on = gflops(OpmConfig::Broadwell(EdramMode::On), mb * MIB);
            let off = gflops(OpmConfig::Broadwell(EdramMode::Off), mb * MIB);
            assert!(on >= off * 0.999, "eDRAM hurt at {mb} MB: {on} < {off}");
        }
    }

    fn knl_stream(config: OpmConfig, footprint: f64) -> f64 {
        let bytes = footprint * 4.0;
        let mut ph = Phase::new("triad", bytes / 16.0, bytes);
        ph.tiers = vec![Tier::new(footprint, 1.0)];
        ph.mlp = 8.0;
        ph.compute_eff = 0.5;
        ph.threads = 256;
        let prof = AccessProfile::single("stream", ph, footprint);
        PerfModel::for_config(config).evaluate(&prof).gflops
    }

    #[test]
    fn knl_flat_mode_beats_ddr_within_capacity() {
        let flat = knl_stream(OpmConfig::Knl(McdramMode::Flat), 2.0 * GIB);
        let ddr = knl_stream(OpmConfig::Knl(McdramMode::Off), 2.0 * GIB);
        let ratio = flat / ddr;
        // MCDRAM offers ~4.8x DDR bandwidth.
        assert!(ratio > 3.0 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn knl_flat_mode_cliff_past_capacity() {
        let inside = knl_stream(OpmConfig::Knl(McdramMode::Flat), 12.0 * GIB);
        let straddle = knl_stream(OpmConfig::Knl(McdramMode::Flat), 20.0 * GIB);
        let ddr = knl_stream(OpmConfig::Knl(McdramMode::Off), 20.0 * GIB);
        assert!(straddle < inside / 3.0, "no cliff: {inside} -> {straddle}");
        // §4.2.1-II: worse than not using MCDRAM at all.
        assert!(straddle < ddr, "straddle {straddle} vs ddr {ddr}");
    }

    #[test]
    fn knl_cache_mode_survives_past_capacity_better_than_flat() {
        let cache = knl_stream(OpmConfig::Knl(McdramMode::Cache), 20.0 * GIB);
        let flat = knl_stream(OpmConfig::Knl(McdramMode::Flat), 20.0 * GIB);
        assert!(cache > flat);
    }

    #[test]
    fn knl_hybrid_tracks_flat_until_half_capacity() {
        let hybrid = knl_stream(OpmConfig::Knl(McdramMode::Hybrid), 4.0 * GIB);
        let flat = knl_stream(OpmConfig::Knl(McdramMode::Flat), 4.0 * GIB);
        assert!(
            (hybrid - flat).abs() / flat < 0.25,
            "hybrid {hybrid} vs flat {flat}"
        );
    }

    #[test]
    fn low_mlp_kernel_prefers_ddr_over_mcdram() {
        // SpTRSV-like: low MLP and low prefetchability -> latency bound;
        // MCDRAM's higher latency makes it *slower* than DDR (§4.2.2).
        // Dependencies cap the usable parallelism far below the machine's
        // 256 hardware threads, so the profile carries the level-schedule
        // limited thread count.
        let mk = |config: OpmConfig| {
            let footprint = 2.0 * GIB;
            let bytes = footprint;
            let mut ph = Phase::new("sptrsv", bytes / 8.0, bytes);
            ph.tiers = vec![Tier::irregular(footprint, 1.0, 0.05, 1.2)];
            ph.prefetch = 0.05;
            ph.mlp = 1.2;
            ph.compute_eff = 0.3;
            ph.threads = 16;
            let prof = AccessProfile::single("sptrsv", ph, footprint);
            PerfModel::for_config(config).evaluate(&prof).gflops
        };
        let ddr = mk(OpmConfig::Knl(McdramMode::Off));
        let flat = mk(OpmConfig::Knl(McdramMode::Flat));
        assert!(
            flat < ddr,
            "flat {flat} should lose to ddr {ddr} at low MLP"
        );
    }

    #[test]
    fn estimate_accounting_is_consistent() {
        let model = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On));
        let prof = stream_profile(64.0 * MIB);
        let est = model.evaluate(&prof);
        let served: f64 = est.components.iter().map(|c| c.bytes).sum();
        assert!((served - prof.total_bytes()).abs() / prof.total_bytes() < 1e-9);
        assert!(est.time_ns >= est.compute_ns && est.time_ns >= est.memory_ns - 1e-9);
        assert!(est.gflops > 0.0 && est.bandwidth_gbs > 0.0);
    }

    #[test]
    fn params_change_model_behaviour() {
        // Removing the straddle penalty removes the flat-mode cliff.
        let params = ModelParams {
            straddle_penalty: 1.0,
            ..ModelParams::default()
        };
        let lenient = PerfModel::with_params(
            PlatformSpec::knl(),
            OpmConfig::Knl(McdramMode::Flat),
            params,
        );
        let strict = PerfModel::for_config(OpmConfig::Knl(McdramMode::Flat));
        let fp = 20.0 * GIB;
        let bytes = fp * 4.0;
        let mut ph = Phase::new("triad", bytes / 16.0, bytes);
        ph.tiers = vec![Tier::new(fp, 1.0)];
        ph.threads = 256;
        let prof = AccessProfile::single("stream", ph, fp);
        let g_lenient = lenient.evaluate(&prof).gflops;
        let g_strict = strict.evaluate(&prof).gflops;
        assert!(g_lenient > 3.0 * g_strict, "{g_lenient} vs {g_strict}");
        assert_eq!(strict.params(), &ModelParams::default());
    }

    #[test]
    fn byte_split_reads_level_roles_not_names() {
        // Renaming the on-package level must not move its bytes between
        // the on-package and DRAM totals (the power model reads both).
        for config in OpmConfig::ALL {
            let stock = PerfModel::for_config(config);
            let mut platform = PlatformSpec::for_machine(config.machine());
            platform.opm.name = "L4";
            let renamed = PerfModel::new(platform, config);
            for mb in [8.0, 64.0, 512.0, 20480.0] {
                let prof = stream_profile(mb * MIB);
                let (a, b) = (stock.evaluate(&prof), renamed.evaluate(&prof));
                assert_eq!(a.dram_bytes, b.dram_bytes, "{config:?} at {mb} MiB");
                assert_eq!(a.opm_bytes, b.opm_bytes, "{config:?} at {mb} MiB");
            }
        }
        // The victim eDRAM serves a 64 MiB stream from on-package.
        let edram = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On));
        assert!(edram.evaluate(&stream_profile(64.0 * MIB)).opm_bytes > 0.0);
    }

    #[test]
    fn default_params_match_constants() {
        let p = ModelParams::default();
        assert_eq!(p.thrash, THRASH);
        assert_eq!(p.straddle_penalty, STRADDLE_PENALTY);
        assert_eq!(absorb_with(90.0, 100.0, THRASH), absorb(90.0, 100.0));
        assert_eq!(
            ramp_with(200.0, 100.0, RAMP_GROW, RAMP_FLOOR),
            ramp(200.0, 100.0)
        );
    }

    #[test]
    #[should_panic(expected = "config/platform mismatch")]
    fn mismatched_platform_panics() {
        PerfModel::new(PlatformSpec::broadwell(), OpmConfig::Knl(McdramMode::Cache));
    }

    #[test]
    fn planned_evaluation_is_bit_identical_to_direct() {
        // The plan path must reproduce PerfModel::evaluate to the last
        // bit for every configuration, including KNL flat past capacity
        // (straddle rebuild) and hybrid (per-footprint flat share): the
        // golden figure CSVs pin these exact values.
        for config in OpmConfig::ALL {
            let model = PerfModel::for_config(config);
            let plan = model.plan();
            for mb in [1.0, 6.0, 64.0, 512.0, 4096.0, 20480.0] {
                let prof = stream_profile(mb * MIB);
                let direct = model.evaluate(&prof);
                let pp = ProfilePlan::new(&prof).unwrap();
                let planned = plan.evaluate_planned(&pp);
                assert_eq!(
                    direct.time_ns.to_bits(),
                    planned.time_ns.to_bits(),
                    "{config:?} at {mb} MiB"
                );
                assert_eq!(direct.gflops.to_bits(), planned.gflops.to_bits());
                assert_eq!(direct.dram_bytes.to_bits(), planned.dram_bytes.to_bits());
                assert_eq!(direct.opm_bytes.to_bits(), planned.opm_bytes.to_bits());
                assert_eq!(direct.components, planned.components);
                assert_eq!(
                    planned.gflops.to_bits(),
                    plan.gflops_planned(&pp).to_bits(),
                    "lean path must share the accumulation order"
                );
            }
        }
    }

    #[test]
    fn gflops_axis_matches_pointwise_evaluation() {
        let model = PerfModel::for_config(OpmConfig::Knl(McdramMode::Hybrid));
        let plan = model.plan();
        let profs: Vec<AccessProfile> = [2.0, 64.0, 2048.0, 32768.0]
            .iter()
            .map(|mb| stream_profile(mb * MIB))
            .collect();
        let plans: Vec<ProfilePlan> = profs.iter().map(|p| ProfilePlan::new(p).unwrap()).collect();
        let axis = plan.gflops_axis(plans.iter());
        for (i, p) in profs.iter().enumerate() {
            assert_eq!(axis[i].to_bits(), model.evaluate(p).gflops.to_bits());
        }
    }

    #[test]
    fn profile_plan_folds_aggregates_and_rejects_invalid() {
        let prof = stream_profile(64.0 * MIB);
        let plan = ProfilePlan::new(&prof).unwrap();
        assert_eq!(plan.footprint(), prof.footprint);
        assert_eq!(plan.total_flops(), prof.total_flops());
        assert_eq!(plan.total_bytes(), prof.total_bytes());
        let mut bad = prof.clone();
        bad.footprint = -1.0;
        assert!(ProfilePlan::new(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid profile for")]
    fn evaluate_still_panics_on_invalid_profile() {
        let mut prof = stream_profile(64.0 * MIB);
        prof.phases[0].bytes = 0.0;
        PerfModel::for_config(OpmConfig::Broadwell(EdramMode::Off)).evaluate(&prof);
    }
}
