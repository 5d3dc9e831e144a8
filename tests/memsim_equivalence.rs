//! Differential tests proving the bit-packed memsim hot path is
//! observation-equivalent to the straightforward implementations it
//! replaced (see the optimization notes in `crates/memsim/src/cache.rs`).
//!
//! Two references are kept here, deliberately boring:
//!
//! * [`RefCache`] — the original struct-per-way LRU cache with per-way
//!   stamps and a `min_by_key` victim scan. The production
//!   `SetAssocCache` packs tags into flat words, replaces stamps with a
//!   4-bit recency permutation, filters wide sets through SWAR
//!   fingerprints, and probes the MRU way first; every one of those
//!   tricks must be invisible in the observable behaviour (lookup
//!   results, victim identities, counters).
//! * [`opm_repro::memsim::reuse_histogram_reference`] — the naive
//!   O(N·D) LRU-stack reuse-distance computation, against which the
//!   recency-stack + Fenwick-tree fast path must be bin-for-bin
//!   identical.
//!
//! The hierarchy test replays every touch through both cache
//! implementations under all six platform configurations and demands the
//! same `ServedBy` at every step plus identical per-level counters; the
//! staged `HierarchySim::run` path (a block of touches through one level
//! at a time) must land on the same counters, also across block
//! boundaries, over repeated runs and for a victim-only hierarchy.

use opm_repro::core::platform::{EdramMode, McdramMode, OpmConfig, PlatformSpec};
use opm_repro::kernels::traces::{
    gemm_blocked_trace, spmv_trace, stencil_trace, stream_triad_trace,
};
use opm_repro::memsim::{
    reuse_histogram, reuse_histogram_reference, CacheStats, HierarchySim, Lookup, ServedBy,
    SetAssocCache, SimResult, Trace, LINE_BYTES,
};
use opm_repro::sparse::gen::{MatrixKind, MatrixSpec};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Reference cache: one struct per way, LRU stamps, min_by_key victim.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The retained reference implementation of a set-associative LRU cache.
/// Replacement victim: the first way minimizing `valid ? lru : 0` —
/// invalid ways (key 0) beat any valid stamp (stamps start at 1), ties
/// break on the lowest way index via `min_by_key`'s first-wins rule.
#[derive(Debug, Clone)]
struct RefCache {
    sets: usize,
    ways: usize,
    data: Vec<Way>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    /// Identical geometry rule to `SetAssocCache::new`.
    fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways >= 1);
        let lines = capacity_bytes / LINE_BYTES;
        assert!(lines >= ways as u64);
        let sets = (lines / ways as u64).next_power_of_two() >> 1;
        let sets = if sets == 0 {
            1
        } else if sets * 2 * ways as u64 <= lines {
            (sets * 2) as usize
        } else {
            sets as usize
        };
        RefCache {
            sets,
            ways,
            data: vec![Way::default(); sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&mut self, line: u64) -> &mut [Way] {
        let s = (line % self.sets as u64) as usize;
        &mut self.data[s * self.ways..(s + 1) * self.ways]
    }

    fn access(&mut self, line: u64, write: bool) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            w.dirty |= write;
            w.lru = clock;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        let (v, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
            .expect("at least one way");
        let victim = set[v];
        set[v] = Way {
            tag: line,
            valid: true,
            dirty: write,
            lru: clock,
        };
        self.stats.misses += 1;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Lookup::Miss {
                evicted: Some(victim.tag),
                dirty: victim.dirty,
            }
        } else {
            Lookup::Miss {
                evicted: None,
                dirty: false,
            }
        }
    }

    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            w.dirty |= dirty;
            w.lru = clock;
            return None;
        }
        let (v, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
            .expect("at least one way");
        let victim = set[v];
        set[v] = Way {
            tag: line,
            valid: true,
            dirty,
            lru: clock,
        };
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            Some((victim.tag, victim.dirty))
        } else {
            None
        }
    }

    fn take(&mut self, line: u64) -> bool {
        if let Some(w) = self
            .set_of(line)
            .iter_mut()
            .find(|w| w.valid && w.tag == line)
        {
            w.valid = false;
            true
        } else {
            false
        }
    }

    fn contains(&mut self, line: u64) -> bool {
        self.set_of(line).iter().any(|w| w.valid && w.tag == line)
    }
}

// ---------------------------------------------------------------------------
// Cache-level differential: every operation, every associativity class.
// ---------------------------------------------------------------------------

/// Associativities covering every production code path: direct-mapped,
/// narrow plain scans (2/4/8), the dynamic fingerprint path (13), the
/// specialized 16-way fingerprint path, and the stamp fallback (32).
const WAYS_UNDER_TEST: [usize; 7] = [1, 2, 4, 8, 13, 16, 32];

/// One cache operation drawn by proptest: selector, line, flag.
type Op = (u32, u64, bool);

fn apply(fast: &mut SetAssocCache, refc: &mut RefCache, ops: &[Op]) {
    for (i, &(sel, line, flag)) in ops.iter().enumerate() {
        match sel % 5 {
            0 | 1 => {
                // Access is twice as likely as the maintenance ops, and
                // repeated lines exercise the MRU-first probe.
                let a = fast.access(line, flag);
                let b = refc.access(line, flag);
                assert_eq!(a, b, "op {i}: access({line}, {flag})");
            }
            2 => {
                let a = fast.fill(line, flag);
                let b = refc.fill(line, flag);
                assert_eq!(a, b, "op {i}: fill({line}, {flag})");
            }
            3 => {
                assert_eq!(fast.take(line), refc.take(line), "op {i}: take({line})");
            }
            _ => {
                assert_eq!(
                    fast.contains(line),
                    refc.contains(line),
                    "op {i}: contains({line})"
                );
                assert_eq!(
                    fast.invalidate(line),
                    refc.take(line),
                    "op {i}: invalidate({line})"
                );
            }
        }
    }
    assert_eq!(fast.stats(), refc.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_matches_reference_on_random_op_streams(
        ways_idx in 0usize..WAYS_UNDER_TEST.len(),
        sets_pow in 0u32..4,
        ops in proptest::collection::vec((0u32..5, 0u64..96, (0u32..2).prop_map(|b| b == 1)), 64..512),
    ) {
        let ways = WAYS_UNDER_TEST[ways_idx];
        // Small caches + a 96-line universe force constant conflicts.
        let capacity = (ways as u64) * (1 << sets_pow) * LINE_BYTES;
        let mut fast = SetAssocCache::new("dut", capacity, ways);
        let mut refc = RefCache::new(capacity, ways);
        prop_assert_eq!(fast.sets(), refc.sets, "geometry must match");
        apply(&mut fast, &mut refc, &ops);
    }

    #[test]
    fn cache_matches_reference_on_line_sweeps(
        ways_idx in 0usize..WAYS_UNDER_TEST.len(),
        span in 8u64..200,
        passes in 1usize..4,
    ) {
        // Cyclic sweeps are LRU's pathological case: every access on an
        // overflowing set evicts, so victim selection is exercised on
        // every step (the random stream above leaves sets half-warm).
        let ways = WAYS_UNDER_TEST[ways_idx];
        let capacity = (ways as u64) * 2 * LINE_BYTES;
        let mut fast = SetAssocCache::new("dut", capacity, ways);
        let mut refc = RefCache::new(capacity, ways);
        for _ in 0..passes {
            for line in 0..span {
                prop_assert_eq!(
                    fast.access(line, line % 3 == 0),
                    refc.access(line, line % 3 == 0),
                    "sweep line {}", line
                );
            }
        }
        prop_assert_eq!(fast.stats(), refc.stats);
    }
}

/// Associativities of the MRU-locality streams: direct-mapped, the
/// narrow recency-order scans and both fingerprinted widths.
const LOCAL_WAYS: [usize; 5] = [1, 2, 4, 8, 16];

/// Turn drawn `(op, pick, fresh, flag)` tuples into an op stream with
/// temporal locality, in `apply`'s op codes: most ops target the line of
/// the previous op (the MRU way of its set) or one of the few distinct
/// lines before it (at or near MRU), the rest a fresh line. Uniform
/// streams rarely hit the MRU way, so they leave the fast path and its
/// promote-free hit untested.
fn local_ops(draws: &[(u32, u32, u64, bool)]) -> Vec<Op> {
    let mut recent = [0u64; 4]; // distinct lines, most recent first
    draws
        .iter()
        .map(|&(op, pick, fresh, flag)| {
            let line = match pick % 16 {
                0..=7 => recent[0],
                8..=11 => recent[1 + (pick as usize / 16) % 3],
                _ => fresh,
            };
            if let Some(p) = recent.iter().position(|&l| l == line) {
                recent[..=p].rotate_right(1);
            } else {
                recent.rotate_right(1);
            }
            recent[0] = line;
            // 75% access, 15% fill, 5% take, 5% contains + invalidate.
            let sel = match op % 20 {
                0..=14 => 0,
                15..=17 => 2,
                18 => 3,
                _ => 4,
            };
            (sel, line, flag)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_matches_reference_on_mru_heavy_op_streams(
        ways_idx in 0usize..LOCAL_WAYS.len(),
        sets_pow in 0u32..4,
        draws in proptest::collection::vec(
            (0u32..20, 0u32..64, 0u64..96, (0u32..2).prop_map(|b| b == 1)),
            256..1024,
        ),
    ) {
        let ways = LOCAL_WAYS[ways_idx];
        let capacity = (ways as u64) * (1 << sets_pow) * LINE_BYTES;
        let mut fast = SetAssocCache::new("dut", capacity, ways);
        let mut refc = RefCache::new(capacity, ways);
        apply(&mut fast, &mut refc, &local_ops(&draws));
        // The stream must really be hit-heavy, or it tests nothing new
        // (the floor holds with margin over 2,000 seeded cases).
        let s = fast.stats();
        prop_assert!(s.hits * 3 > s.accesses(), "{} hits of {}", s.hits, s.accesses());
    }
}

// ---------------------------------------------------------------------------
// Hierarchy-level differential: all six configurations, per-touch.
// ---------------------------------------------------------------------------

/// Reference hierarchy: the `HierarchySim::touch` control flow verbatim,
/// driving [`RefCache`]s. Geometry replicates `HierarchySim::for_config`.
struct RefHierarchy {
    chain: Vec<RefCache>,
    victim: Option<RefCache>,
    flat_boundary: Option<u64>,
    level_hits: Vec<u64>,
    victim_hits: u64,
    opm_flat: u64,
    dram: u64,
    dram_writebacks: u64,
    accesses: u64,
}

impl RefHierarchy {
    fn new(chain: Vec<RefCache>, victim: Option<RefCache>, flat_boundary: Option<u64>) -> Self {
        let levels = chain.len();
        RefHierarchy {
            chain,
            victim,
            flat_boundary,
            level_hits: vec![0; levels],
            victim_hits: 0,
            opm_flat: 0,
            dram: 0,
            dram_writebacks: 0,
            accesses: 0,
        }
    }

    fn for_config(config: OpmConfig, scale: u64) -> Self {
        let p = PlatformSpec::for_machine(config.machine());
        let mut chain = Vec::new();
        for (i, c) in p.caches.iter().enumerate() {
            let ways = if i == 0 { 8 } else { 16 };
            let cap = ((c.capacity as u64) / scale).max(64 * ways as u64);
            chain.push(RefCache::new(cap, ways));
        }
        let opm_cap = ((p.opm.capacity as u64) / scale).max(64 * 16);
        let (victim, flat_boundary) = match config {
            OpmConfig::Broadwell(EdramMode::On) => (Some(RefCache::new(opm_cap, 16)), None),
            OpmConfig::Broadwell(EdramMode::Off) | OpmConfig::Knl(McdramMode::Off) => (None, None),
            OpmConfig::Knl(McdramMode::Cache) => {
                chain.push(RefCache::new(opm_cap, 1));
                (None, None)
            }
            OpmConfig::Knl(McdramMode::Flat) => (None, Some(opm_cap)),
            OpmConfig::Knl(McdramMode::Hybrid) => {
                chain.push(RefCache::new(opm_cap / 2, 1));
                (None, Some(opm_cap / 2))
            }
        };
        Self::new(chain, victim, flat_boundary)
    }

    fn touch(&mut self, line: u64, write: bool) -> ServedBy {
        self.accesses += 1;
        for i in 0..self.chain.len() {
            match self.chain[i].access(line, write) {
                Lookup::Hit => {
                    self.level_hits[i] += 1;
                    return ServedBy::Cache(i);
                }
                Lookup::Miss { evicted, dirty } => {
                    if i == self.chain.len() - 1 {
                        match (self.victim.as_mut(), evicted) {
                            (Some(v), Some(tag)) => {
                                if let Some((_, victim_dirty)) = v.fill(tag, dirty) {
                                    if victim_dirty {
                                        self.dram_writebacks += 1;
                                    }
                                }
                            }
                            (None, Some(_)) if dirty => self.dram_writebacks += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
        if let Some(v) = self.victim.as_mut() {
            if v.take(line) {
                self.victim_hits += 1;
                return ServedBy::Victim;
            }
        }
        match self.flat_boundary {
            Some(b) if line * LINE_BYTES < b => {
                self.opm_flat += 1;
                ServedBy::OpmFlat
            }
            _ => {
                self.dram += 1;
                ServedBy::Dram
            }
        }
    }
}

const ALL_CONFIGS: [OpmConfig; 6] = [
    OpmConfig::Broadwell(EdramMode::Off),
    OpmConfig::Broadwell(EdramMode::On),
    OpmConfig::Knl(McdramMode::Off),
    OpmConfig::Knl(McdramMode::Cache),
    OpmConfig::Knl(McdramMode::Flat),
    OpmConfig::Knl(McdramMode::Hybrid),
];

/// Drive both hierarchies through `trace` and demand the same serving
/// level at every touch, then identical per-level counters. The same
/// trace also goes through a fresh hierarchy's staged
/// [`HierarchySim::run`], whose counters must match the reference too.
fn assert_hierarchy_equivalent(config: OpmConfig, scale: u64, trace: &Trace) {
    assert_equivalent(
        &format!("{config:?}"),
        HierarchySim::for_config(config, scale),
        RefHierarchy::for_config(config, scale),
        trace,
    );
}

/// [`assert_hierarchy_equivalent`] on explicitly built hierarchies: `sim`
/// and `reference` must start out alike.
fn assert_equivalent(
    label: &str,
    mut sim: HierarchySim,
    mut reference: RefHierarchy,
    trace: &Trace,
) {
    let mut staged = sim.clone();
    let mut step = 0u64;
    for acc in &trace.accesses {
        let write = !matches!(acc.kind, opm_repro::memsim::AccessKind::Read);
        for line in acc.lines() {
            let got = sim.touch(line, write);
            let want = reference.touch(line, write);
            assert_eq!(got, want, "{label}: touch #{step} of line {line}");
            step += 1;
        }
    }
    sim.sync_levels();
    for (path, r) in [("touch", sim.result()), ("run", staged.run(trace))] {
        assert_matches_reference(&format!("{label} {path}"), r, &reference);
    }
}

/// Demand every counter of `r` equal the reference's.
fn assert_matches_reference(label: &str, r: &SimResult, reference: &RefHierarchy) {
    assert_eq!(r.accesses, reference.accesses, "{label}");
    assert_eq!(r.level_hits, reference.level_hits, "{label}");
    assert_eq!(r.victim_hits, reference.victim_hits, "{label}");
    assert_eq!(r.opm_flat, reference.opm_flat, "{label}");
    assert_eq!(r.dram, reference.dram, "{label}");
    assert_eq!(r.dram_writebacks, reference.dram_writebacks, "{label}");
    assert_eq!(r.levels.len(), reference.chain.len(), "{label}");
    for (l, c) in r.levels.iter().zip(&reference.chain) {
        assert_eq!(
            (l.hits, l.misses, l.evictions, l.writebacks),
            (
                c.stats.hits,
                c.stats.misses,
                c.stats.evictions,
                c.stats.writebacks
            ),
            "{label}: level {} counters",
            l.name
        );
    }
    r.reconcile().unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn hierarchy_matches_reference_on_structured_traces() {
    // Floor-scale hierarchies (single-set levels) plus milli-machines,
    // against the access patterns the bench suite uses.
    for scale in [1 << 20, 4096] {
        for config in ALL_CONFIGS {
            assert_hierarchy_equivalent(config, scale, &Trace::random(0, 4 << 20, 20_000, 2017));
            assert_hierarchy_equivalent(config, scale, &Trace::sequential(0, 96 * 1024, 3));
            assert_hierarchy_equivalent(config, scale, &Trace::strided(0, 1 << 20, 4096));
        }
    }
}

#[test]
fn hierarchy_matches_reference_on_kernel_twins() {
    // The kernel trace twins at the benchmark's canary sizes, on the
    // milli-machine the benchmark simulates.
    let a = MatrixSpec::new(MatrixKind::RandomUniform, 4096, 40_000, 7).build();
    let twins = [
        gemm_blocked_trace(32, 8),
        spmv_trace(&a, 1),
        stencil_trace(20),
        stream_triad_trace(20_000, 1),
    ];
    for config in ALL_CONFIGS {
        for trace in &twins {
            assert_hierarchy_equivalent(config, 1024, trace);
        }
    }
}

/// Line touches per block of the staged `HierarchySim::run` (4 Ki).
const BLOCK: u64 = 4096;

/// A trace of `n` single-line touches: a cyclic sweep over 12 KiB, one
/// write in three. It overflows the milli-Broadwell L2 and L3 (dirty
/// evictions included) and fits the eDRAM, so the victim fills and hits.
fn pad(n: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..n {
        let addr = (i % 192) * LINE_BYTES;
        if i % 3 == 0 {
            t.write(addr, 8);
        } else {
            t.read(addr, 8);
        }
    }
    t
}

#[test]
fn staged_run_matches_reference_across_block_boundaries() {
    // A 3-line access starting at every touch position near the end of
    // the first block, so it straddles the boundary in each way.
    for before in BLOCK - 3..=BLOCK {
        let mut t = pad(before);
        t.write(5 * LINE_BYTES + 40, 2 * LINE_BYTES as u32);
        t.accesses.extend(pad(50).accesses);
        for config in ALL_CONFIGS {
            assert_hierarchy_equivalent(config, 1024, &t);
        }
    }
    // One access spanning more lines than two blocks: expansion must
    // flush inside the access.
    let mut t = pad(100);
    t.read(LINE_BYTES / 2, (2 * BLOCK + 300) as u32 * LINE_BYTES as u32);
    t.accesses.extend(pad(100).accesses);
    for config in ALL_CONFIGS {
        assert_hierarchy_equivalent(config, 1024, &t);
    }
}

#[test]
fn staged_runs_continue_where_the_last_one_stopped() {
    // Two runs on one simulator equal one run of the concatenated trace:
    // every level's contents carry over, and the first run's partial
    // last block is complete before the second begins.
    let first = Trace::random(0, 1 << 20, BLOCK as usize + 777, 5);
    let second = Trace::sequential(1 << 19, 96 * 1024, 2);
    let mut both = first.clone();
    both.accesses.extend(second.accesses.iter().cloned());
    for config in ALL_CONFIGS {
        let mut split = HierarchySim::for_config(config, 1024);
        split.run(&first);
        split.run(&second);
        let mut whole = HierarchySim::for_config(config, 1024);
        assert_eq!(split.result(), whole.run(&both), "{config:?}");
        let mut reference = RefHierarchy::for_config(config, 1024);
        for acc in &both.accesses {
            let write = !matches!(acc.kind, opm_repro::memsim::AccessKind::Read);
            for line in acc.lines() {
                reference.touch(line, write);
            }
        }
        assert_matches_reference(&format!("{config:?} split"), split.result(), &reference);
    }
}

#[test]
fn staged_run_of_an_empty_trace_changes_nothing() {
    for config in ALL_CONFIGS {
        let mut sim = HierarchySim::for_config(config, 1024);
        let r = sim.run(&Trace::new()).clone();
        assert_eq!(r.accesses, 0, "{config:?}");
        assert_matches_reference(
            &format!("{config:?} empty"),
            &r,
            &RefHierarchy::for_config(config, 1024),
        );
    }
}

#[test]
fn victim_only_hierarchy_matches_reference() {
    // No chain: every touch goes straight to the victim stage, which
    // never fills (nothing is evicted into it) and so never hits.
    let sim = HierarchySim::new(
        vec![],
        Some(SetAssocCache::new("eDRAM", 16 * 1024, 16)),
        None,
    );
    let reference = RefHierarchy::new(vec![], Some(RefCache::new(16 * 1024, 16)), None);
    let mut t = pad(BLOCK + 10);
    t.write(0, 3 * BLOCK as u32 * LINE_BYTES as u32);
    assert_equivalent("victim-only", sim, reference, &t);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hierarchy_matches_reference_on_random_traces(
        cfg_idx in 0usize..ALL_CONFIGS.len(),
        seed in 0u64..1 << 20,
        footprint_kib in 64u64..8192,
    ) {
        let trace = Trace::random(0, footprint_kib * 1024, 15_000, seed);
        assert_hierarchy_equivalent(ALL_CONFIGS[cfg_idx], 1 << 14, &trace);
    }
}

// ---------------------------------------------------------------------------
// Reuse-distance differential: Fenwick fast path vs LRU-stack reference.
// ---------------------------------------------------------------------------

fn assert_reuse_equivalent(trace: &Trace) {
    let fast = reuse_histogram(trace);
    let slow = reuse_histogram_reference(trace);
    assert_eq!(fast.finite, slow.finite, "finite bins must be identical");
    assert_eq!(fast.cold, slow.cold, "cold misses");
    assert_eq!(fast.total, slow.total, "total lines");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reuse_histogram_matches_naive_reference(
        accs in proptest::collection::vec(
            (0u64..1 << 18, 1u32..300, (0u32..2).prop_map(|b| b == 1)),
            1..2048,
        ),
    ) {
        // Multi-byte accesses expand to several lines, including repeats
        // of the same line back-to-back (the run-collapsing fast path).
        let mut t = Trace::new();
        for (addr, len, write) in accs {
            if write {
                t.write(addr, len);
            } else {
                t.read(addr, len);
            }
        }
        assert_reuse_equivalent(&t);
    }

    #[test]
    fn reuse_histogram_matches_reference_on_dense_universes(
        lines in proptest::collection::vec(0u64..48, 1..1024),
    ) {
        // A tiny line universe maximizes finite reuse distances, which is
        // where the Fenwick prefix arithmetic can go wrong.
        let mut t = Trace::new();
        for l in lines {
            t.read(l * LINE_BYTES, 8);
        }
        assert_reuse_equivalent(&t);
    }
}

#[test]
fn reuse_histogram_matches_reference_on_structured_traces() {
    assert_reuse_equivalent(&Trace::sequential(0, 256 * 1024, 2));
    assert_reuse_equivalent(&Trace::strided(64, 1 << 20, 4096));
    assert_reuse_equivalent(&Trace::random(0, 1 << 20, 4000, 99));
    assert_reuse_equivalent(&Trace::new());
}

/// `passes` cyclic sweeps over `lines` distinct lines, one touch each.
fn cyclic(lines: u64, passes: usize) -> Trace {
    let mut t = Trace::new();
    for _ in 0..passes {
        for l in 0..lines {
            t.read(l * LINE_BYTES + 8, 8);
        }
    }
    t
}

#[test]
fn reuse_histogram_matches_reference_around_the_stack_depth() {
    // Working sets just below, at and just above the 8-line recency
    // stack (and twice it): a cyclic sweep of W lines has distance W - 1
    // on every reuse, so these put reuses on each side of the stack/tree
    // boundary.
    for w in [1u64, 7, 8, 9, 16, 17] {
        assert_reuse_equivalent(&cyclic(w, 4));
        assert_reuse_equivalent(&Trace::sequential(0, w * LINE_BYTES, 3));
    }
    // A three-stream triad interleave, two passes: the element touches
    // rotate inside the stack, the second pass reuses from the tree.
    let mut triad = Trace::new();
    for _ in 0..2 {
        for i in 0..1500u64 {
            triad.read(0x10_0000 + i * 8, 8);
            triad.read(0x20_0000 + i * 8, 8);
            triad.write(i * 8, 8);
        }
    }
    assert_reuse_equivalent(&triad);
    // Accesses straddling line boundaries expand to several lines each.
    let mut straddle = Trace::new();
    for k in 0..3000u64 {
        straddle.read((k * 37) % 4096 + 60, 8 + (k % 130) as u32);
    }
    assert_reuse_equivalent(&straddle);
}

#[test]
fn reuse_histogram_matches_reference_on_kernel_twins() {
    // The kernel trace twins at the benchmark's canary sizes.
    let a = MatrixSpec::new(MatrixKind::RandomUniform, 4096, 40_000, 7).build();
    assert_reuse_equivalent(&gemm_blocked_trace(32, 8));
    assert_reuse_equivalent(&spmv_trace(&a, 1));
    assert_reuse_equivalent(&stencil_trace(20));
    assert_reuse_equivalent(&stream_triad_trace(20_000, 1));
}
