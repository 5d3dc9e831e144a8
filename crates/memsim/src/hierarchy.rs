//! Multi-level hierarchy simulation with OPM configurations: inclusive-ish
//! L2/L3 chain, an optional eDRAM **victim** L4 (filled by L3 evictions,
//! checked on L3 misses — the Broadwell arrangement, §2.1), an optional
//! direct-mapped MCDRAM cache level (§2.2), and flat/hybrid placement.
//!
//! The simulator is exact but slow, so the experiment harness uses it on
//! scaled-down hierarchies to validate the analytic model in `opm-core`;
//! the scaling preserves capacity *ratios*.
//!
//! ## Level-at-a-time simulation
//!
//! [`HierarchySim::run`] does not walk each line touch down the whole
//! chain. It expands the trace into blocks of touches, and each chain
//! level takes a whole block before the next level starts
//! ([`SetAssocCache::access_each`], one tight loop per level and block);
//! only a level's misses go on to the next. The last level's misses,
//! each with the line it evicted, then go in order through one backing
//! stage: the eDRAM victim fill, the victim take, and the flat-or-DRAM
//! split. This is exact because the chain only feeds forward: no level
//! reads or writes another level's state (there is no back-invalidation,
//! and a non-last level's eviction goes nowhere), so each level sees the
//! same touches in the same order as in a per-touch walk, and the victim
//! still sees each miss's fill before its take. [`HierarchySim::touch`]
//! is that per-touch walk, kept for callers that need where a single
//! touch was served; both share the backing stage.

use crate::cache::{Lookup, SetAssocCache};
use crate::trace::{Trace, LINE_BYTES};
use opm_core::platform::{OpmConfig, PlatformSpec};
use opm_core::telemetry::Telemetry;

/// Where an access was finally served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the cache chain at the given level index.
    Cache(usize),
    /// Hit in the victim OPM cache.
    Victim,
    /// Served by flat OPM memory.
    OpmFlat,
    /// Served by off-package DRAM.
    Dram,
}

/// Full hit/miss/eviction accounting for one cache-chain level, surfaced
/// through [`SimResult`] so consumers never reach into the simulator's
/// internals to recompute them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Level name (`L2`, `L3`, `MCDRAM`, ...).
    pub name: String,
    /// Lookups that hit at this level.
    pub hits: u64,
    /// Lookups that missed (and filled) at this level.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines written back from this level.
    pub writebacks: u64,
}

impl LevelCounters {
    /// Total lookups that reached this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; 0 for an untouched level.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Bytes moved through this level: fills (one line per miss) plus
    /// write-backs.
    pub fn bytes_moved(&self) -> u64 {
        (self.misses + self.writebacks) * LINE_BYTES
    }
}

/// Per-run traffic accounting (bytes at line granularity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Total line-touches simulated.
    pub accesses: u64,
    /// Hits per cache-chain level (same order as configured).
    pub level_hits: Vec<u64>,
    /// Victim-cache (eDRAM) hits.
    pub victim_hits: u64,
    /// Lines served by flat OPM.
    pub opm_flat: u64,
    /// Lines served by DRAM.
    pub dram: u64,
    /// Dirty lines written back to the backing store (evicted from the
    /// last cache level, not absorbed by a victim cache).
    pub dram_writebacks: u64,
    /// Full per-level counters for the cache chain (synced from the
    /// caches by [`HierarchySim::run`]/[`HierarchySim::sync_levels`];
    /// empty until the first sync). The victim cache is not a lookup
    /// level — its hits are `victim_hits`.
    pub levels: Vec<LevelCounters>,
}

impl SimResult {
    /// Bytes served by DRAM (demand fetches).
    pub fn dram_bytes(&self) -> u64 {
        self.dram * LINE_BYTES
    }

    /// Bytes written back to the backing store (dirty evictions).
    pub fn writeback_bytes(&self) -> u64 {
        self.dram_writebacks * LINE_BYTES
    }

    /// Fraction of accesses served at or above the victim cache.
    pub fn on_package_ratio(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        1.0 - (self.dram as f64 / self.accesses as f64)
    }

    /// Hit ratio of cache-chain level `i`.
    pub fn level_hit_ratio(&self, i: usize) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.level_hits[i] as f64 / self.accesses as f64
        }
    }

    /// Counter deltas between two snapshots of the same simulator
    /// (`self` taken after `earlier`). Levels are matched by position —
    /// the configuration must not change between snapshots.
    pub fn delta_since(&self, earlier: &SimResult) -> SimResult {
        SimResult {
            accesses: self.accesses - earlier.accesses,
            level_hits: self
                .level_hits
                .iter()
                .zip(&earlier.level_hits)
                .map(|(a, b)| a - b)
                .collect(),
            victim_hits: self.victim_hits - earlier.victim_hits,
            opm_flat: self.opm_flat - earlier.opm_flat,
            dram: self.dram - earlier.dram,
            dram_writebacks: self.dram_writebacks - earlier.dram_writebacks,
            levels: self
                .levels
                .iter()
                .zip(&earlier.levels)
                .map(|(a, b)| LevelCounters {
                    name: a.name.clone(),
                    hits: a.hits - b.hits,
                    misses: a.misses - b.misses,
                    evictions: a.evictions - b.evictions,
                    writebacks: a.writebacks - b.writebacks,
                })
                .collect(),
        }
    }

    /// Check the internal flow invariants of a freshly-simulated result
    /// (no stat resets between construction and sync): every access
    /// enters the top level, each level's misses feed the next, and the
    /// last level's misses are served by victim/flat/DRAM. Returns a
    /// description of the first violated invariant.
    pub fn reconcile(&self) -> Result<(), String> {
        let served: u64 =
            self.level_hits.iter().sum::<u64>() + self.victim_hits + self.opm_flat + self.dram;
        if served != self.accesses {
            return Err(format!(
                "served {served} != accesses {}: every touch must be attributed exactly once",
                self.accesses
            ));
        }
        for (i, l) in self.levels.iter().enumerate() {
            if l.hits != self.level_hits[i] {
                return Err(format!(
                    "level {}: counter hits {} != level_hits {}",
                    l.name, l.hits, self.level_hits[i]
                ));
            }
            match self.levels.get(i + 1) {
                Some(next) => {
                    if l.misses != next.accesses() {
                        return Err(format!(
                            "level {} misses {} != level {} accesses {}",
                            l.name,
                            l.misses,
                            next.name,
                            next.accesses()
                        ));
                    }
                }
                None => {
                    let backing = self.victim_hits + self.opm_flat + self.dram;
                    if l.misses != backing {
                        return Err(format!(
                            "last level {} misses {} != victim+flat+dram {backing}",
                            l.name, l.misses
                        ));
                    }
                }
            }
        }
        if let Some(first) = self.levels.first() {
            if first.accesses() != self.accesses {
                return Err(format!(
                    "top level {} accesses {} != total accesses {}",
                    first.name,
                    first.accesses(),
                    self.accesses
                ));
            }
        }
        Ok(())
    }

    /// Publish the result into telemetry counters
    /// (`opm_memsim_level_{hits,misses,evictions,bytes_moved}_total`
    /// labeled per level, plus access/victim/flat/DRAM totals). Counters
    /// are monotonic — call once per simulated result; repeated calls
    /// accumulate again.
    pub fn publish(&self, tele: &Telemetry) {
        tele.add("opm_memsim_accesses_total", "", self.accesses);
        for l in &self.levels {
            let label = format!("level=\"{}\"", l.name);
            tele.add("opm_memsim_level_hits_total", &label, l.hits);
            tele.add("opm_memsim_level_misses_total", &label, l.misses);
            tele.add("opm_memsim_level_evictions_total", &label, l.evictions);
            tele.add(
                "opm_memsim_level_bytes_moved_total",
                &label,
                l.bytes_moved(),
            );
        }
        tele.add("opm_memsim_victim_hits_total", "", self.victim_hits);
        tele.add("opm_memsim_flat_served_total", "", self.opm_flat);
        tele.add("opm_memsim_dram_served_total", "", self.dram);
        tele.add("opm_memsim_dram_writebacks_total", "", self.dram_writebacks);
    }

    /// Each cache-chain level's share of the total bytes it moved, in
    /// milli units (`round(1000 * level_bytes / total_bytes)`, summed
    /// over [`LevelCounters::bytes_moved`]). Derived from the same
    /// counters [`publish`](Self::publish) reports, so the telemetry
    /// gauges built from this reconcile exactly with the published
    /// per-level totals. Empty when no level moved any bytes.
    pub fn level_byte_shares(&self) -> Vec<(String, u64)> {
        let total: u64 = self.levels.iter().map(|l| l.bytes_moved()).sum();
        if total == 0 {
            return Vec::new();
        }
        self.levels
            .iter()
            .map(|l| {
                let share = (1000 * l.bytes_moved() + total / 2) / total;
                (l.name.clone(), share)
            })
            .collect()
    }
}

/// A simulated memory hierarchy under one OPM configuration.
#[derive(Debug, Clone)]
pub struct HierarchySim {
    chain: Vec<SetAssocCache>,
    /// eDRAM modeled as a victim cache behind the last chain level.
    victim: Option<SetAssocCache>,
    /// MCDRAM flat partition: line addresses below this byte boundary are
    /// OPM-resident (preferred allocation packs the low addresses first).
    flat_boundary: Option<u64>,
    result: SimResult,
}

/// Line touches per block of [`HierarchySim::run`]: each chain level takes
/// a whole block before the next level starts. 4 Ki words (32 KiB) keep a
/// block's buffers beside the upper levels' metadata in the CPU's L2.
const BLOCK_TOUCHES: usize = 4096;

impl HierarchySim {
    /// Build from explicit parts.
    pub fn new(
        chain: Vec<SetAssocCache>,
        victim: Option<SetAssocCache>,
        flat_boundary: Option<u64>,
    ) -> Self {
        assert!(!chain.is_empty() || victim.is_some(), "empty hierarchy");
        let levels = chain.len();
        HierarchySim {
            chain,
            victim,
            flat_boundary,
            result: SimResult {
                level_hits: vec![0; levels],
                ..Default::default()
            },
        }
    }

    /// Build a scaled-down replica of the stock platform of a
    /// configuration's machine, with the OPM used as
    /// [`OpmConfig::opm_use`] states: a 16-way victim cache behind the
    /// last chain level, a direct-mapped memory-side cache partition at
    /// the end of the chain (named after the OPM, `/2` for a half), and a
    /// flat partition whose lines below the boundary are served by the
    /// OPM. The simulator places lines by address, so whole-OPM flat
    /// placement and a hybrid flat partition differ only in the boundary.
    ///
    /// `scale` divides every capacity (1 = full size; 1024 = milli-machine
    /// for fast exact simulation). Associativities: L2/L3 are 8/16-way,
    /// eDRAM 16-way victim, MCDRAM direct-mapped.
    ///
    /// [`SetAssocCache::new`] keeps a power-of-two number of sets, rounded
    /// down, so a capacity that is not a power of two times the ways
    /// loses the rest. The levels built, as sets × ways = usable bytes
    /// (pinned by the `geometry_of_every_config_at_both_scales` test):
    ///
    /// | level | scale 1 | scale 1024 |
    /// |---|---|---|
    /// | Broadwell L2 (4 × 256 KiB) | 2048 × 8 = 1 MiB | 2 × 8 = 1 KiB |
    /// | Broadwell L3 (6 MiB) | 4096 × 16 = **4 MiB** | 4 × 16 = **4 KiB** |
    /// | eDRAM victim (128 MiB) | 131072 × 16 = 128 MiB | 128 × 16 = 128 KiB |
    /// | KNL L2 (32 MiB) | 65536 × 8 = 32 MiB | 64 × 8 = 32 KiB |
    /// | MCDRAM cache (16 GiB) | 2^28 × 1 = 16 GiB | 262144 × 1 = 16 MiB |
    /// | MCDRAM/2 hybrid cache | 2^27 × 1 = 8 GiB | 131072 × 1 = 8 MiB |
    ///
    /// The flat MCDRAM boundary is 16 GiB (hybrid: 8 GiB) divided by
    /// `scale`. The Broadwell L3 thus holds 4 of its 6 MiB at every scale;
    /// the real part is 12-way, which would keep all 6 MiB in 8192 sets.
    pub fn for_config(config: OpmConfig, scale: u64) -> Self {
        assert!(scale >= 1, "scale must be >= 1");
        let p = PlatformSpec::for_machine(config.machine());
        let mut chain = Vec::new();
        for (i, c) in p.caches.iter().enumerate() {
            let ways = if i == 0 { 8 } else { 16 };
            let cap = ((c.capacity as u64) / scale).max(64 * ways as u64);
            chain.push(SetAssocCache::new(c.name, cap, ways));
        }
        let opm_cap = ((p.opm.capacity as u64) / scale).max(64 * 16);
        // A share of the OPM in bytes; exact, so half is `opm_cap / 2`.
        let part = |share: f64| (opm_cap as f64 * share) as u64;
        let opm_use = config.opm_use();
        let victim = opm_use
            .victim
            .then(|| SetAssocCache::new(p.opm.name, opm_cap, 16));
        if opm_use.cache == 1.0 {
            chain.push(SetAssocCache::direct_mapped(p.opm.name, opm_cap));
        } else if opm_use.cache > 0.0 {
            let name = format!("{}/{}", p.opm.name, 1.0 / opm_use.cache);
            chain.push(SetAssocCache::direct_mapped(name, part(opm_use.cache)));
        }
        let flat_boundary = (opm_use.flat > 0.0).then(|| part(opm_use.flat));
        Self::new(chain, victim, flat_boundary)
    }

    /// Run a trace through the hierarchy, level by level (see the module
    /// docs).
    ///
    /// The accesses expand into blocks of 4 Ki line touches, each packed
    /// as a word `line << 1 | write`; an access longer than a block
    /// spreads over several, so the buffers stay bounded. Each chain
    /// level takes the whole block through
    /// [`SetAssocCache::access_each`], and only its misses go on to the
    /// next level. The last level's misses, each with the line it
    /// evicted, then pass in order through the backing stage of
    /// [`touch`](Self::touch): victim fill, victim take, flat or DRAM.
    /// Every counter is exactly what a [`touch`](Self::touch) per line
    /// yields.
    pub fn run(&mut self, trace: &Trace) -> &SimResult {
        let mut words = Vec::with_capacity(BLOCK_TOUCHES);
        let mut spare = Vec::with_capacity(BLOCK_TOUCHES);
        let mut misses = Vec::with_capacity(BLOCK_TOUCHES);
        for acc in &trace.accesses {
            let write = (acc.kind == crate::trace::AccessKind::Write) as u64;
            // Expand lines inline (most accesses touch exactly one line;
            // the explicit bounds keep the per-access cost at two shifts).
            let (first, last) = acc.line_span();
            let mut line = first;
            loop {
                words.push(line << 1 | write);
                if words.len() == BLOCK_TOUCHES {
                    self.run_block(&mut words, &mut spare, &mut misses);
                }
                if line == last {
                    break;
                }
                line += 1;
            }
        }
        self.run_block(&mut words, &mut spare, &mut misses);
        self.sync_levels();
        &self.result
    }

    /// Simulate one block of packed touches, leaving `words` empty.
    /// `spare` and `misses` are the stage buffers, reused across blocks.
    fn run_block(
        &mut self,
        words: &mut Vec<u64>,
        spare: &mut Vec<u64>,
        misses: &mut Vec<(u64, Option<(u64, bool)>)>,
    ) {
        self.result.accesses += words.len() as u64;
        misses.clear();
        match self.chain.split_last_mut() {
            Some((last, upper)) => {
                for (cache, hits) in upper.iter_mut().zip(&mut self.result.level_hits) {
                    spare.clear();
                    cache.access_each(words, |w, _| spare.push(w));
                    *hits += (words.len() - spare.len()) as u64;
                    std::mem::swap(words, spare);
                }
                last.access_each(words, |w, evicted| misses.push((w, evicted)));
                self.result.level_hits[upper.len()] += (words.len() - misses.len()) as u64;
            }
            // A victim-only hierarchy: every touch reaches the backing stage.
            None => misses.extend(words.iter().map(|&w| (w, None))),
        }
        for &(word, evicted) in misses.iter() {
            self.serve_below(word >> 1, evicted);
        }
        words.clear();
    }

    /// Simulate one line touch: walk the chain until a level hits, then
    /// serve a miss of every level from below.
    pub fn touch(&mut self, line: u64, write: bool) -> ServedBy {
        self.result.accesses += 1;
        let mut evicted = None;
        for (i, cache) in self.chain.iter_mut().enumerate() {
            match cache.access(line, write) {
                Lookup::Hit => {
                    self.result.level_hits[i] += 1;
                    return ServedBy::Cache(i);
                }
                Lookup::Miss { evicted: e, dirty } => evicted = e.map(|tag| (tag, dirty)),
            }
        }
        self.serve_below(line, evicted)
    }

    /// Serve a touch of `line` that missed the whole chain, whose last
    /// level evicted `evicted` (`(line, dirty)`) to make room for it.
    #[inline(always)]
    fn serve_below(&mut self, line: u64, evicted: Option<(u64, bool)>) -> ServedBy {
        // The victim cache is filled by evictions from the *last* chain
        // level only (the L3 on Broadwell); without one, dirty evictions
        // write back to the backing store.
        if let Some((tag, dirty)) = evicted {
            let written_back = match self.victim.as_mut() {
                Some(v) => matches!(v.fill(tag, dirty), Some((_, true))),
                None => dirty,
            };
            self.result.dram_writebacks += written_back as u64;
        }
        // Then check the victim cache. `take` removes the line on a hit
        // (victim semantics: it moves back to the L3 side).
        if let Some(v) = self.victim.as_mut() {
            if v.take(line) {
                self.result.victim_hits += 1;
                return ServedBy::Victim;
            }
        }
        // Backing store.
        match self.flat_boundary {
            Some(b) if line * LINE_BYTES < b => {
                self.result.opm_flat += 1;
                ServedBy::OpmFlat
            }
            _ => {
                self.result.dram += 1;
                ServedBy::Dram
            }
        }
    }

    /// Result so far. [`SimResult::levels`] reflects the last
    /// [`run`](Self::run)/[`sync_levels`](Self::sync_levels); call
    /// `sync_levels` after driving the hierarchy through
    /// [`touch`](Self::touch) directly.
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Refresh [`SimResult::levels`] from the chain caches' lifetime
    /// counters.
    pub fn sync_levels(&mut self) {
        self.result.levels = self
            .chain
            .iter()
            .map(|c| {
                let s = c.stats();
                LevelCounters {
                    name: c.name().to_string(),
                    hits: s.hits,
                    misses: s.misses,
                    evictions: s.evictions,
                    writebacks: s.writebacks,
                }
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_core::platform::{EdramMode, McdramMode, OpmConfig};

    const SCALE: u64 = 1024; // milli-machine: L2 1 KiB, L3 4 KiB, eDRAM 128 KiB

    fn stream_result(config: OpmConfig, bytes: u64) -> SimResult {
        let mut sim = HierarchySim::for_config(config, SCALE);
        // Warm-up pass, then measured passes.
        sim.run(&Trace::line_sweep(bytes, 1));
        let mut sim2 = sim.clone();
        sim2.result = SimResult {
            level_hits: vec![0; sim.chain.len()],
            ..Default::default()
        };
        sim2.run(&Trace::line_sweep(bytes, 3));
        sim2.result().clone()
    }

    #[test]
    fn fits_in_l3_hits_l3() {
        // 4 KiB working set on the milli-Broadwell (L3 = 4 KiB, 4 sets of
        // 16 ways).
        let r = stream_result(OpmConfig::Broadwell(EdramMode::Off), 4 * 1024);
        assert!(r.on_package_ratio() > 0.95, "{r:?}");
    }

    #[test]
    fn exceeds_l3_without_edram_goes_to_dram() {
        // 32 KiB working set: beyond milli-L3 (4 KiB), cyclic LRU thrash.
        let r = stream_result(OpmConfig::Broadwell(EdramMode::Off), 32 * 1024);
        assert!(
            r.dram as f64 / r.accesses as f64 > 0.8,
            "dram ratio {}",
            r.dram as f64 / r.accesses as f64
        );
    }

    #[test]
    fn edram_victim_absorbs_l3_overflow() {
        // Same 32 KiB working set fits the milli-eDRAM (128 KiB).
        let r = stream_result(OpmConfig::Broadwell(EdramMode::On), 32 * 1024);
        assert!(r.victim_hits > 0);
        assert!(r.on_package_ratio() > 0.9, "{r:?}");
    }

    #[test]
    fn level_byte_shares_reconcile_with_counters() {
        let r = stream_result(OpmConfig::Broadwell(EdramMode::On), 32 * 1024);
        let shares = r.level_byte_shares();
        assert_eq!(shares.len(), r.levels.len());
        let total: u64 = r.levels.iter().map(|l| l.bytes_moved()).sum();
        assert!(total > 0);
        for ((name, share), l) in shares.iter().zip(&r.levels) {
            assert_eq!(name, &l.name);
            let expect = (1000 * l.bytes_moved() + total / 2) / total;
            assert_eq!(*share, expect, "{name}");
            assert!(*share <= 1000, "{name}: {share}");
        }
        // Milli shares sum to ~1000 (rounding slack of one per level).
        let sum: u64 = shares.iter().map(|(_, s)| s).sum();
        assert!(sum >= 1000 - shares.len() as u64 && sum <= 1000 + shares.len() as u64);
    }

    #[test]
    fn edram_overflow_returns_to_dram() {
        let r = stream_result(OpmConfig::Broadwell(EdramMode::On), 512 * 1024);
        assert!(
            r.dram as f64 / r.accesses as f64 > 0.5,
            "dram ratio {}",
            r.dram as f64 / r.accesses as f64
        );
    }

    #[test]
    fn mcdram_cache_mode_caches_everything_within_capacity() {
        // milli-KNL: L2 32 KiB, MCDRAM 16 MiB.
        let r = stream_result(OpmConfig::Knl(McdramMode::Cache), 1024 * 1024);
        assert!(r.on_package_ratio() > 0.95, "{r:?}");
    }

    #[test]
    fn milli_mcdram_caches_are_the_prefetched_levels() {
        // Direct-mapped MCDRAM keeps only its tag array (2 MiB at milli
        // scale, 1 MiB for the hybrid half), still past the threshold;
        // the L2, L3 and eDRAM tag arrays stay below it.
        for (config, want) in [
            (
                OpmConfig::Knl(McdramMode::Cache),
                vec![("L2", false), ("MCDRAM", true)],
            ),
            (
                OpmConfig::Knl(McdramMode::Hybrid),
                vec![("L2", false), ("MCDRAM/2", true)],
            ),
            (OpmConfig::Knl(McdramMode::Flat), vec![("L2", false)]),
            (
                OpmConfig::Broadwell(EdramMode::On),
                vec![("L2", false), ("L3", false)],
            ),
        ] {
            let sim = HierarchySim::for_config(config, SCALE);
            let got: Vec<_> = sim
                .chain
                .iter()
                .map(|c| (c.name(), c.prefetches_ahead()))
                .collect();
            assert_eq!(got, want, "{config:?}");
            if let Some(v) = &sim.victim {
                assert_eq!(v.name(), "eDRAM");
                assert!(!v.prefetches_ahead());
            }
        }
    }

    #[test]
    fn mcdram_flat_serves_low_addresses() {
        let mut sim = HierarchySim::for_config(OpmConfig::Knl(McdramMode::Flat), SCALE);
        //

        // Beyond milli-MCDRAM boundary (16 MiB): DRAM. Use strided accesses
        // that miss L2.
        let t = Trace::strided(0, 8 * 1024 * 1024, 4096);
        sim.run(&t);
        assert!(sim.result().opm_flat > 0);
        assert_eq!(sim.result().dram, 0);
        let t2 = Trace::strided(32 * 1024 * 1024, 8 * 1024 * 1024, 4096);
        sim.run(&t2);
        assert!(sim.result().dram > 0);
    }

    #[test]
    fn hybrid_has_both_cache_and_flat_partitions() {
        let mut sim = HierarchySim::for_config(OpmConfig::Knl(McdramMode::Hybrid), SCALE);
        // Low addresses: flat partition (8 MiB milli).
        let t = Trace::strided(0, 4 * 1024 * 1024, 4096);
        sim.run(&t);
        assert!(sim.result().opm_flat > 0);
        // High addresses: should be absorbed by the cache partition after a
        // warm-up (working set 1 MiB << 8 MiB cache partition).
        let hi = 64 * 1024 * 1024;
        let warm = Trace::sequential(hi, 1024 * 1024, 1);
        sim.run(&warm);
        let before = sim.result().dram;
        let t2 = Trace::sequential(hi, 1024 * 1024, 2);
        sim.run(&t2);
        let after = sim.result().dram;
        let new_dram = after - before;
        assert!(
            (new_dram as f64) < 0.1 * (2.0 * 1024.0 * 1024.0 / 64.0),
            "cache partition should absorb re-reads, got {new_dram} misses"
        );
    }

    #[test]
    fn victim_promotion_moves_line_out_of_victim() {
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), SCALE);
        let t = Trace::sequential(0, 32 * 1024, 2);
        sim.run(&t);
        let v1 = sim.result().victim_hits;
        assert!(v1 > 0);
        // A victim hit must not be double-counted as a DRAM access.
        assert_eq!(
            sim.result().accesses,
            sim.result().level_hits.iter().sum::<u64>()
                + sim.result().victim_hits
                + sim.result().dram
                + sim.result().opm_flat
        );
    }

    #[test]
    fn dirty_evictions_count_as_writebacks() {
        // Write-sweep twice the milli-L3 with no eDRAM: evictions of dirty
        // lines must reach DRAM as write-backs.
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::Off), SCALE);
        let bytes = 32 * 1024u64;
        let mut t = Trace::new();
        for pass in 0..3 {
            let mut a = 0;
            while a < bytes {
                t.write(a, 8);
                a += 64;
            }
            let _ = pass;
        }
        sim.run(&t);
        let wb = sim.result().dram_writebacks;
        let lines = bytes / 64;
        assert!(wb > lines, "expected >= one writeback sweep, got {wb}");
        assert!(sim.result().writeback_bytes() == wb * 64);
        // With the eDRAM victim absorbing evictions, write-backs shrink.
        let mut sim2 = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), SCALE);
        sim2.run(&t);
        assert!(sim2.result().dram_writebacks < wb / 2);
    }

    #[test]
    fn served_by_classification() {
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::Off), SCALE);
        assert_eq!(sim.touch(0, false), ServedBy::Dram);
        assert_eq!(sim.touch(0, false), ServedBy::Cache(0));
    }

    #[test]
    fn geometry_of_every_config_at_both_scales() {
        // (name, sets, ways, usable bytes) of every chain level, then the
        // victim cache, and the flat boundary; the table in the
        // `for_config` docs states the same numbers. The Broadwell L3
        // rounds down to 4 MiB, so at the benchmark's scale 1024 it holds
        // 4 KiB (64 lines) and the L2 1 KiB (16 lines).
        const MIB: u64 = 1 << 20;
        const GIB: u64 = 1 << 30;
        let brd = |scale: u64| {
            vec![
                ("L2", 2048 / scale as usize, 8, MIB / scale),
                ("L3", 4096 / scale as usize, 16, 4 * MIB / scale),
            ]
        };
        let knl_l2 = |scale: u64| ("L2", 65536 / scale as usize, 8, 32 * MIB / scale);
        for scale in [1, 1024] {
            let edram = ("eDRAM", 131072 / scale as usize, 16, 128 * MIB / scale);
            let mcdram = ("MCDRAM", (1 << 28) / scale as usize, 1, 16 * GIB / scale);
            let half = ("MCDRAM/2", (1 << 27) / scale as usize, 1, 8 * GIB / scale);
            let expected = [
                (brd(scale), None),
                ([brd(scale), vec![edram]].concat(), None),
                (vec![knl_l2(scale)], None),
                (vec![knl_l2(scale)], Some(16 * GIB / scale)),
                (vec![knl_l2(scale), mcdram], None),
                (vec![knl_l2(scale), half], Some(8 * GIB / scale)),
            ];
            for (config, (levels, flat)) in OpmConfig::ALL.into_iter().zip(expected) {
                let sim = HierarchySim::for_config(config, scale);
                let built: Vec<_> = (sim.chain.iter().chain(&sim.victim))
                    .map(|c| (c.name(), c.sets(), c.ways(), c.capacity()))
                    .collect();
                assert_eq!(built, levels, "{} at scale {scale}", config.label());
                assert_eq!(
                    sim.flat_boundary,
                    flat,
                    "{} at scale {scale}",
                    config.label()
                );
            }
        }
    }

    #[test]
    fn levels_reconcile_on_every_config() {
        for config in OpmConfig::ALL {
            let mut sim = HierarchySim::for_config(config, SCALE);
            sim.run(&Trace::line_sweep(64 * 1024, 2));
            let r = sim.result();
            assert!(!r.levels.is_empty());
            r.reconcile().unwrap_or_else(|e| panic!("{config:?}: {e}"));
            // The acceptance identity: at every level, the accesses that
            // reached it split exactly into hits and misses.
            assert_eq!(r.levels[0].accesses(), r.accesses, "{config:?}");
            for w in r.levels.windows(2) {
                assert_eq!(w[0].misses, w[1].accesses(), "{config:?}");
            }
        }
    }

    #[test]
    fn touch_then_sync_levels_matches_run() {
        let mut a = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), SCALE);
        let mut b = a.clone();
        let t = Trace::line_sweep(16 * 1024, 2);
        a.run(&t);
        for acc in &t.accesses {
            for line in acc.lines() {
                b.touch(line, false);
            }
        }
        assert!(b.result().levels.is_empty(), "touch alone must stay cheap");
        b.sync_levels();
        assert_eq!(a.result(), b.result());
    }

    #[test]
    fn delta_since_subtracts_every_counter() {
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), SCALE);
        sim.run(&Trace::line_sweep(32 * 1024, 1));
        let before = sim.result().clone();
        sim.run(&Trace::line_sweep(32 * 1024, 3));
        let delta = sim.result().delta_since(&before);
        assert_eq!(delta.accesses, sim.result().accesses - before.accesses);
        assert_eq!(delta.levels.len(), before.levels.len());
        for (i, l) in delta.levels.iter().enumerate() {
            assert_eq!(l.hits, sim.result().levels[i].hits - before.levels[i].hits);
            assert_eq!(l.name, before.levels[i].name);
        }
        // A delta of a result against itself is all-zero.
        let zero = sim.result().delta_since(sim.result());
        assert_eq!(zero.accesses, 0);
        assert!(zero.levels.iter().all(|l| l.accesses() == 0));
    }

    #[test]
    fn reconcile_rejects_inconsistent_results() {
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::Off), SCALE);
        sim.run(&Trace::line_sweep(8 * 1024, 2));
        let mut broken = sim.result().clone();
        broken.dram += 1;
        assert!(broken.reconcile().is_err());
        let mut broken = sim.result().clone();
        broken.levels[0].hits += 1;
        assert!(broken.reconcile().is_err());
    }

    #[test]
    fn publish_exports_labeled_level_counters() {
        use opm_core::telemetry::Telemetry;
        let tele = Telemetry::off();
        let mut sim = HierarchySim::for_config(OpmConfig::Knl(McdramMode::Cache), SCALE);
        sim.run(&Trace::line_sweep(64 * 1024, 2));
        let r = sim.result();
        r.publish(&tele);
        assert_eq!(tele.counter("opm_memsim_accesses_total").get(), r.accesses);
        let mcdram = tele
            .counter_with("opm_memsim_level_hits_total", "level=\"MCDRAM\"")
            .get();
        let last = r.levels.last().unwrap();
        assert_eq!(mcdram, last.hits);
        assert_eq!(
            tele.counter_with("opm_memsim_level_bytes_moved_total", "level=\"MCDRAM\"")
                .get(),
            last.bytes_moved()
        );
    }

    #[test]
    fn level_counters_helpers() {
        let l = LevelCounters {
            name: "L2".into(),
            hits: 6,
            misses: 2,
            evictions: 1,
            writebacks: 1,
        };
        assert_eq!(l.accesses(), 8);
        assert!((l.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(l.bytes_moved(), 3 * crate::trace::LINE_BYTES);
        assert_eq!(LevelCounters::default().hit_ratio(), 0.0);
    }
}
