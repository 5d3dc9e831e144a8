//! A set-associative cache with true-LRU replacement, the building block of
//! the hierarchy simulator. Direct-mapped caches are the 1-way special case
//! (MCDRAM in cache mode is direct-mapped, §2.2 of the paper).
//!
//! ## Hot-path layout
//!
//! This is the innermost loop of every trace-driven simulation, so the
//! per-way state is bit-packed into flat arrays instead of a
//! struct-per-way:
//!
//! * `tags`: one `u64` per way holding `tag << 2 | dirty << 1 | valid`,
//!   contiguous per set — a 16-way set is two cache lines, and the probe
//!   loop is a single masked compare per way with no pointer chasing.
//! * `perm`: one `u64` per set packing the LRU **recency permutation** as
//!   sixteen 4-bit way indices, least-recently-used in the low nibble.
//!   Promoting a way to MRU is a dozen register ops (SWAR nibble search +
//!   shift-merge), and the replacement victim is O(1): the low nibble,
//!   or the first invalid way found by the probe scan. This replaces the
//!   classic per-way LRU stamp array — half the metadata traffic and no
//!   O(ways) victim scan. Associativities above 16 (only used by tests as
//!   a stand-in for fully-associative caches) fall back to stamps.
//! * `fp`: one 8-bit **fingerprint** per way of every 2..=16-way set
//!   (the 7 line bits just above the set index + a valid marker), packed
//!   eight ways to a `u64`; the set-index bits below them are equal for
//!   every line of a set and would tell no two ways apart. A SWAR compare against the
//!   broadcast fingerprint of the probed line answers "definitely
//!   absent" and "first invalid way" in a handful of register ops, so a
//!   miss — the common case on every level below the first — usually
//!   touches no tag words at all. Fingerprint matches are *candidates*
//!   and are always verified against the full tag, so false positives
//!   (1/128 per valid way) cost a compare, never correctness.
//! * the set index is `line & set_mask` — set counts are always powers of
//!   two, and a mask avoids the hardware divide a `%` set index costs on
//!   every access.
//! * **MRU-first probing**: the top nibble of `perm` names the set's
//!   most-recently-used way, and every permutation-LRU probe compares
//!   that way's tag first. Kernel traces touch each 64-byte line many
//!   times in a row (a sequential 8-byte sweep touches it 8×) and keep
//!   returning to the lines they just used, so most hits land there —
//!   and an MRU hit changes only the dirty bit and the hit counter,
//!   because promoting the MRU way is the identity. Direct-mapped
//!   caches need no recency state at all and keep no `perm` array.
//!
//! The observable behaviour (hit/miss/eviction/writeback counts and the
//! exact victim sequence) is bit-for-bit identical to the unpacked
//! struct-per-way stamp implementation: the reference victim is the first
//! way minimizing `(valid ? stamp : 0)`, i.e. the first invalid way if one
//! exists (key 0 beats any stamp, ties break by way index) and otherwise
//! the unique least-recently-used way — exactly what the permutation
//! yields. `tests/memsim_equivalence.rs` keeps a copy of the reference
//! implementation and proves the equivalence on random and MRU-heavy op
//! streams.

use crate::trace::LINE_BYTES;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent; carries the evicted victim line (if a valid line was
    /// displaced by the fill).
    Miss {
        /// Victim line address evicted by the fill, if any.
        evicted: Option<u64>,
        /// Whether the victim was dirty (needs write-back).
        dirty: bool,
    },
}

/// `tags` bit 0: the way holds a valid line.
const VALID: u64 = 1;
/// `tags` bit 1: the line is dirty (needs write-back on eviction).
const DIRTY: u64 = 2;
/// `tags` bits 2..: the line address (tag).
const TAG_SHIFT: u32 = 2;
/// Largest associativity the packed recency permutation covers (16 ways ×
/// 4 bits); wider caches fall back to LRU stamps.
const PERM_MAX_WAYS: usize = 16;

/// Simulator-metadata size above which a direct-mapped level prefetches
/// ahead in [`SetAssocCache::access_each`] (tag arrays below this fit
/// comfortably in the CPU's own L2).
const PREFETCH_METADATA_BYTES: usize = 256 * 1024;
/// How many touches ahead [`SetAssocCache::access_each`] prefetches.
const PREFETCH_AHEAD: usize = 8;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in [0, 1]; 0 for an untouched cache.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// The identity permutation `15,14,...,1,0` packed low-nibble-first: way 0
/// is LRU, way 15 is MRU. Truncated to `ways` nibbles at construction.
const PERM_IDENTITY: u64 = 0xFEDC_BA98_7654_3210;

/// SWAR marker mask: high bit set in every byte lane of `word` that equals
/// byte `b` (exact — the `!x` term kills borrow-propagation artifacts).
#[inline(always)]
fn swar_eq_bytes(word: u64, b: u64) -> u64 {
    let x = word ^ b.wrapping_mul(0x0101_0101_0101_0101);
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
}

/// SWAR marker mask of zero (empty) byte lanes in `word`.
#[inline(always)]
fn swar_zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(0x0101_0101_0101_0101) & !word & 0x8080_8080_8080_8080
}

/// Marker mask covering the byte lanes of fingerprint word `j` that hold
/// real ways (for associativities that don't fill the word).
#[inline(always)]
fn fp_lane_mask(ways: usize, j: usize) -> u64 {
    let lanes = (ways - j * 8).min(8);
    if lanes == 8 {
        0x8080_8080_8080_8080
    } else {
        0x8080_8080_8080_8080 & ((1u64 << (8 * lanes)) - 1)
    }
}

/// Promote way `w` to MRU inside the packed permutation of `ways` nibbles.
#[inline(always)]
fn perm_promote(perm: u64, w: u64, ways: usize) -> u64 {
    // SWAR search for the nibble equal to `w`: XOR makes it zero, then the
    // classic zero-nibble detector pinpoints it.
    let x = perm ^ (w.wrapping_mul(0x1111_1111_1111_1111));
    let zero = x.wrapping_sub(0x1111_1111_1111_1111) & !x & 0x8888_8888_8888_8888;
    let pos = (zero.trailing_zeros() >> 2) as usize;
    // Splice the nibble out (higher nibbles slide down) and re-insert it
    // at the MRU (top) position.
    let low_mask = (1u64 << (4 * pos)) - 1;
    let removed = (perm & low_mask) | ((perm >> 4) & !low_mask);
    let top = 4 * (ways - 1);
    (removed & ((1u64 << top) - 1)) | (w << top)
}

/// Set-associative write-back cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    name: String,
    sets: usize,
    ways: usize,
    /// `sets - 1`; set counts are powers of two, so indexing is a mask.
    set_mask: u64,
    /// `log2(sets)`: the line bits above it are what tells a set's lines
    /// apart, so fingerprints are taken from there.
    set_bits: u32,
    /// Bit-packed per-way line state, contiguous per set (see module docs).
    tags: Vec<u64>,
    /// Packed per-set LRU recency permutation (2..=16 ways), else empty.
    perm: Vec<u64>,
    /// Packed per-way fingerprint bytes, `fpw` words per set (see module
    /// docs); empty for direct-mapped and stamp-LRU caches.
    fp: Vec<u64>,
    /// Fingerprint words per set (`ceil(ways / 8)`, or 0 when unused).
    fpw: usize,
    /// Per-way LRU stamps for ways > 16 (parallel to `tags`), else empty.
    stamp: Vec<u64>,
    /// Stamp clock (ways > 16 only).
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity.
    /// Capacity must be a multiple of `ways * 64`; the set count is rounded
    /// down to a power of two (hardware-realistic indexing).
    pub fn new(name: impl Into<String>, capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways >= 1, "need at least one way");
        let lines = capacity_bytes / LINE_BYTES;
        assert!(lines >= ways as u64, "capacity below one set");
        let sets = (lines / ways as u64).next_power_of_two() >> 1;
        let sets = if sets == 0 {
            1
        } else if sets * 2 * ways as u64 <= lines {
            (sets * 2) as usize
        } else {
            sets as usize
        };
        // A direct-mapped set has no recency order to keep.
        let (perm, stamp) = match ways {
            1 => (Vec::new(), Vec::new()),
            PERM_MAX_WAYS => (vec![PERM_IDENTITY; sets], Vec::new()),
            2..PERM_MAX_WAYS => (
                vec![PERM_IDENTITY & ((1u64 << (4 * ways)) - 1); sets],
                Vec::new(),
            ),
            _ => (Vec::new(), vec![0; sets * ways]),
        };
        // Every permutation-LRU set is fingerprinted, the 8-way L2 too: on
        // the kernel twins one fingerprint word beats an 8-tag scan (the
        // Broadwell L2 stage ran ~20% faster). Direct-mapped and the stamp
        // fallback keep plain tags.
        let fpw = if (2..=PERM_MAX_WAYS).contains(&ways) {
            ways.div_ceil(8)
        } else {
            0
        };
        SetAssocCache {
            name: name.into(),
            sets,
            ways,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![0; sets * ways],
            perm,
            stamp,
            fp: vec![0; sets * fpw],
            fpw,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Direct-mapped constructor (1 way).
    pub fn direct_mapped(name: impl Into<String>, capacity_bytes: u64) -> Self {
        Self::new(name, capacity_bytes, 1)
    }

    /// Cache name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.sets * self.ways) as u64 * LINE_BYTES
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (keeps contents, e.g. after a warm-up pass).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Bytes of simulator metadata backing this cache — the footprint the
    /// *simulation* walks, as opposed to the simulated
    /// [`capacity`](Self::capacity). Levels whose metadata dwarfs the
    /// CPU's own caches are worth prefetching (see
    /// [`prefetch_set`](Self::prefetch_set)).
    pub fn metadata_bytes(&self) -> usize {
        (self.tags.len() + self.perm.len() + self.stamp.len() + self.fp.len())
            * std::mem::size_of::<u64>()
    }

    /// Fingerprint byte of a line: the 7 line bits just above the set
    /// index (the bits below are the same for every line of a set) plus
    /// the 0x80 valid marker (so a valid fingerprint is never 0, and 0
    /// always means "empty way").
    #[inline(always)]
    fn fp_byte(&self, line: u64) -> u64 {
        ((line >> self.set_bits) & 0x7F) | 0x80
    }

    /// Index of the first `tags` word of `line`'s set.
    #[inline(always)]
    fn set_base(&self, line: u64) -> usize {
        ((line & self.set_mask) as usize) * self.ways
    }

    /// Look up `line`, filling on miss. `write` marks the line dirty.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> Lookup {
        let r = self.probe(line, write);
        if r == Lookup::Hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        r
    }

    /// Insert `line` without counting a lookup (victim-cache fills from
    /// upstream evictions). A resident line is refreshed in place.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        match self.probe(line, dirty) {
            Lookup::Miss {
                evicted: Some(v),
                dirty: d,
            } => Some((v, d)),
            _ => None,
        }
    }

    /// Look up every touch of `words` in order, as [`access`](Self::access)
    /// would, calling `on_miss(word, evicted)` for each miss with the
    /// line it displaced (`(line, dirty)`), if any. A word is a line touch
    /// packed as `line << 1 | write`.
    ///
    /// The associativity is resolved once per call, so the loop over the
    /// words is monomorphic. Large direct-mapped levels (the MCDRAM cache)
    /// also prefetch the set of the touch 8 words ahead, overlapping their
    /// tag-array misses with the probes in between.
    pub fn access_each(
        &mut self,
        words: &[u64],
        mut on_miss: impl FnMut(u64, Option<(u64, bool)>),
    ) {
        let on_miss = &mut on_miss;
        match self.ways {
            1 if self.prefetches_ahead() => {
                self.each_with::<true>(words, on_miss, Self::probe_direct)
            }
            1 => self.each_with::<false>(words, on_miss, Self::probe_direct),
            8 => self.each_with::<false>(words, on_miss, Self::probe_fp::<8>),
            16 => self.each_with::<false>(words, on_miss, Self::probe_fp::<16>),
            _ => self.each_with::<false>(words, on_miss, Self::probe_set),
        }
    }

    /// The [`access_each`](Self::access_each) loop over one probe routine,
    /// prefetching ahead if `PREFETCH`. The lookup counters are summed
    /// locally and stored once.
    #[inline(always)]
    fn each_with<const PREFETCH: bool>(
        &mut self,
        words: &[u64],
        on_miss: &mut impl FnMut(u64, Option<(u64, bool)>),
        probe: impl Fn(&mut Self, usize, u64, u64) -> Lookup,
    ) {
        let mut misses = 0;
        for (i, &word) in words.iter().enumerate() {
            if PREFETCH {
                if let Some(&ahead) = words.get(i + PREFETCH_AHEAD) {
                    self.prefetch_set(ahead >> 1);
                }
            }
            let line = word >> 1;
            debug_assert!(line < 1 << (64 - TAG_SHIFT), "line address overflows tag");
            let set = (line & self.set_mask) as usize;
            let want = (line << TAG_SHIFT) | VALID;
            if let Lookup::Miss { evicted, dirty } = probe(self, set, want, (word & 1) << 1) {
                misses += 1;
                on_miss(word, evicted.map(|e| (e, dirty)));
            }
        }
        self.stats.hits += words.len() as u64 - misses;
        self.stats.misses += misses;
    }

    /// Whether [`access_each`](Self::access_each) prefetches ahead on this
    /// cache: a direct-mapped level whose metadata outgrows the CPU's own
    /// L2 ([`PREFETCH_METADATA_BYTES`]). A probe of such a tag array is a
    /// dependent CPU-cache miss; smaller arrays stay resident, where an
    /// extra prefetch is pure overhead.
    pub(crate) fn prefetches_ahead(&self) -> bool {
        self.ways == 1 && self.metadata_bytes() > PREFETCH_METADATA_BYTES
    }

    /// The lookup shared by [`access`](Self::access) and
    /// [`fill`](Self::fill): find `line` and make it MRU, or fill it over
    /// the reference victim. Counts evictions and writebacks, not the
    /// lookup itself.
    #[inline(always)]
    fn probe(&mut self, line: u64, write: bool) -> Lookup {
        debug_assert!(line < 1 << (64 - TAG_SHIFT), "line address overflows tag");
        let set = (line & self.set_mask) as usize;
        self.probe_set(set, (line << TAG_SHIFT) | VALID, (write as u64) << 1)
    }

    /// [`probe`](Self::probe) on a resolved set index, packed tag word
    /// `want` and dirty bit `dirty`, dispatching on the associativity.
    #[inline(always)]
    fn probe_set(&mut self, set: usize, want: u64, dirty: u64) -> Lookup {
        match self.ways {
            1 => self.probe_direct(set, want, dirty),
            8 => self.probe_fp::<8>(set, want, dirty),
            16 => self.probe_fp::<16>(set, want, dirty),
            w if w > PERM_MAX_WAYS => self.probe_stamp(set * w, want, dirty),
            _ => self.probe_fp::<0>(set, want, dirty),
        }
    }

    /// Direct-mapped probe: one slot decides hit, victim and fill.
    #[inline(always)]
    fn probe_direct(&mut self, set: usize, want: u64, dirty: u64) -> Lookup {
        if self.tags[set] & !DIRTY == want {
            self.tags[set] |= dirty;
            return Lookup::Hit;
        }
        self.replace_slot(set, want, dirty)
    }

    /// Find the way holding `want` in a fingerprinted set, via SWAR
    /// candidate filtering: compare every candidate's full tag, marking
    /// the dirty bit with `extra` on the match. `usize::MAX` if absent.
    #[inline(always)]
    fn fp_find(&mut self, base: usize, fbase: usize, fpw: usize, want: u64, extra: u64) -> usize {
        let b = self.fp_byte(want >> TAG_SHIFT);
        for j in 0..fpw {
            let mut m = swar_eq_bytes(self.fp[fbase + j], b);
            while m != 0 {
                let way = j * 8 + (m.trailing_zeros() as usize >> 3);
                let t = self.tags[base + way];
                if t & !DIRTY == want {
                    self.tags[base + way] = t | extra;
                    return way;
                }
                m &= m - 1; // false positive: next candidate
            }
        }
        usize::MAX
    }

    /// Replacement victim of a fingerprinted set: the first empty way
    /// (the reference keys invalid ways at 0, ties broken by index), or
    /// the permutation's LRU nibble when the set is full — bit-identical
    /// to the reference `min_by_key` over stamps.
    #[inline(always)]
    fn fp_victim(&self, perm: u64, fbase: usize, ways: usize, fpw: usize) -> usize {
        for j in 0..fpw {
            let holes = swar_zero_bytes(self.fp[fbase + j]) & fp_lane_mask(ways, j);
            if holes != 0 {
                return j * 8 + (holes.trailing_zeros() as usize >> 3);
            }
        }
        (perm & 0xF) as usize
    }

    /// Probe path for permutation-LRU sets. The MRU way is compared
    /// first; past it, the fingerprint filter resolves the common
    /// definite-miss without reading any tag words, and candidate
    /// matches are verified against the full tag. `W` is the
    /// compile-time associativity (0 = dynamic), which constant-folds the
    /// fingerprint loops.
    #[inline(always)]
    fn probe_fp<const W: usize>(&mut self, set: usize, want: u64, dirty: u64) -> Lookup {
        let ways = if W == 0 { self.ways } else { W };
        let fpw = if W == 0 { self.fpw } else { W.div_ceil(8) };
        let base = set * ways;
        let perm = self.perm[set];
        let mru = base + (perm >> (4 * (ways - 1))) as usize;
        let t = self.tags[mru];
        if t & !DIRTY == want {
            self.tags[mru] = t | dirty;
            return Lookup::Hit;
        }
        let fbase = set * fpw;
        let way = self.fp_find(base, fbase, fpw, want, dirty);
        if way != usize::MAX {
            self.perm[set] = perm_promote(perm, way as u64, ways);
            return Lookup::Hit;
        }
        let victim = self.fp_victim(perm, fbase, ways, fpw);
        self.perm[set] = perm_promote(perm, victim as u64, ways);
        self.fp_set(fbase, victim, want >> TAG_SHIFT);
        self.replace_slot(base + victim, want, dirty)
    }

    /// Write way `way`'s fingerprint byte for `line`.
    #[inline(always)]
    fn fp_set(&mut self, fbase: usize, way: usize, line: u64) {
        let sh = (way & 7) * 8;
        let b = self.fp_byte(line);
        let w = &mut self.fp[fbase + (way >> 3)];
        *w = (*w & !(0xFFu64 << sh)) | (b << sh);
    }

    /// Probe loop for stamp-LRU sets (ways > 16): one pass decides both
    /// the hit way and the victim (first way minimizing
    /// `valid ? stamp : 0`).
    fn probe_stamp(&mut self, base: usize, want: u64, dirty: u64) -> Lookup {
        self.clock += 1;
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let m = self.tags[base + w];
            if m & !DIRTY == want {
                self.tags[base + w] = m | dirty;
                self.stamp[base + w] = self.clock;
                return Lookup::Hit;
            }
            let key = if m & VALID != 0 {
                self.stamp[base + w]
            } else {
                0
            };
            if key < best {
                best = key;
                victim = w;
            }
        }
        self.stamp[base + victim] = self.clock;
        self.replace_slot(base + victim, want, dirty)
    }

    /// Hint the CPU to pull `line`'s set metadata into cache.
    /// [`access_each`](Self::access_each) issues this a few touches ahead
    /// of its probes on large direct-mapped levels (the MCDRAM cache),
    /// whose tag arrays are far bigger than the CPU's own caches, so the
    /// loop overlaps their fetches instead of stalling on a dependent miss
    /// per touch. No architectural effect; a no-op off x86-64.
    #[inline]
    pub fn prefetch_set(&self, line: u64) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both indices are always in bounds of their vectors, and
        // prefetch has no architectural effect on the pointed-to memory.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let base = self.set_base(line);
            _mm_prefetch(self.tags.as_ptr().add(base) as *const i8, _MM_HINT_T0);
            if self.fpw != 0 {
                // The fingerprint word is what the probe reads first.
                let fbase = (base / self.ways) * self.fpw;
                _mm_prefetch(self.fp.as_ptr().add(fbase) as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = line;
    }

    /// Remove `line` if present, reporting whether it was — the
    /// combination of [`contains`](Self::contains) and
    /// [`invalidate`](Self::invalidate) in a single set scan, used on the
    /// victim-cache promotion path where the two always travel together.
    #[inline]
    pub fn take(&mut self, line: u64) -> bool {
        let base = self.set_base(line);
        let want = (line << TAG_SHIFT) | VALID;
        if self.fpw != 0 {
            let fbase = (base / self.ways) * self.fpw;
            let b = self.fp_byte(line);
            for j in 0..self.fpw {
                let mut m = swar_eq_bytes(self.fp[fbase + j], b);
                while m != 0 {
                    let tz = m.trailing_zeros() as usize;
                    let way = j * 8 + (tz >> 3);
                    if self.tags[base + way] & !DIRTY == want {
                        self.tags[base + way] &= !VALID;
                        self.fp[fbase + j] &= !(0xFFu64 << (tz & !7));
                        return true;
                    }
                    m &= m - 1;
                }
            }
            return false;
        }
        let set = &mut self.tags[base..base + self.ways];
        for t in set.iter_mut() {
            if *t & !DIRTY == want {
                *t &= !VALID;
                return true;
            }
        }
        false
    }

    /// Remove `line` if present (victim caches invalidate on re-promotion).
    pub fn invalidate(&mut self, line: u64) -> bool {
        self.take(line)
    }

    /// True if `line` currently resides in the cache (no LRU update).
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let base = self.set_base(line);
        let want = (line << TAG_SHIFT) | VALID;
        self.tags[base..base + self.ways]
            .iter()
            .any(|&m| m & !DIRTY == want)
    }

    /// Overwrite `slot` with the new line, accounting for any eviction.
    /// The caller has already chosen `slot` as the reference victim and
    /// updated the recency state.
    #[inline]
    fn replace_slot(&mut self, slot: usize, want: u64, dirty: u64) -> Lookup {
        let m = self.tags[slot];
        self.tags[slot] = want | dirty;
        if m & VALID != 0 {
            self.stats.evictions += 1;
            let victim_dirty = m & DIRTY != 0;
            if victim_dirty {
                self.stats.writebacks += 1;
            }
            Lookup::Miss {
                evicted: Some(m >> TAG_SHIFT),
                dirty: victim_dirty,
            }
        } else {
            Lookup::Miss {
                evicted: None,
                dirty: false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_promote_moves_way_to_mru() {
        // 4 ways, identity: LRU order 0,1,2,3 (0 = LRU nibble).
        let p = PERM_IDENTITY & 0xFFFF;
        assert_eq!(p, 0x3210);
        assert_eq!(perm_promote(p, 0, 4), 0x0321); // 0 -> MRU
        assert_eq!(perm_promote(p, 3, 4), 0x3210); // already MRU
        assert_eq!(perm_promote(p, 1, 4), 0x1320);
        // 16 ways: promoting the LRU nibble rotates the whole word.
        let full = PERM_IDENTITY;
        let rotated = perm_promote(full, 0, 16);
        assert_eq!(rotated & 0xF, 1, "next LRU is way 1");
        assert_eq!(rotated >> 60, 0, "way 0 is MRU");
    }

    #[test]
    fn geometry() {
        let c = SetAssocCache::new("L1", 32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.capacity(), 32 * 1024);
        let d = SetAssocCache::direct_mapped("dm", 4096);
        assert_eq!(d.ways(), 1);
        assert_eq!(d.sets(), 64);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new("c", 4096, 4);
        assert!(matches!(c.access(42, false), Lookup::Miss { .. }));
        assert_eq!(c.access(42, false), Lookup::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, map all lines to the same set by stepping by `sets`.
        let mut c = SetAssocCache::new("c", 4 * 64, 2); // 2 sets x 2 ways
        let sets = c.sets() as u64;
        c.access(0, false);
        c.access(sets, false);
        c.access(0, false); // refresh 0
                            // Fill a third line in the set: victim must be `sets` (LRU).
        match c.access(2 * sets, false) {
            Lookup::Miss { evicted, .. } => assert_eq!(evicted, Some(sets)),
            _ => panic!("expected miss"),
        }
        assert!(c.contains(0));
        assert!(!c.contains(sets));
    }

    #[test]
    fn dirty_writeback_tracked() {
        let mut c = SetAssocCache::new("c", 2 * 64, 1); // direct-mapped, 2 sets
        let sets = c.sets() as u64;
        c.access(0, true);
        match c.access(sets, false) {
            Lookup::Miss { evicted, dirty } => {
                assert_eq!(evicted, Some(0));
                assert!(dirty);
            }
            _ => panic!("expected conflict miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn direct_mapped_conflicts_where_assoc_hits() {
        let cap = 64 * 64; // 64 lines
        let mut dm = SetAssocCache::direct_mapped("dm", cap);
        let mut sa = SetAssocCache::new("sa", cap, 8);
        // Two lines that alias in the direct-mapped cache.
        let a = 0u64;
        let b = dm.sets() as u64;
        for _ in 0..100 {
            dm.access(a, false);
            dm.access(b, false);
            sa.access(a, false);
            sa.access(b, false);
        }
        assert!(dm.stats().hit_ratio() < 0.01);
        assert!(sa.stats().hit_ratio() > 0.97);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new("c", 4096, 4);
        c.access(7, false);
        assert!(c.contains(7));
        assert!(c.invalidate(7));
        assert!(!c.contains(7));
        assert!(!c.invalidate(7));
    }

    #[test]
    fn invalid_way_is_refilled_before_valid_lines_evict() {
        // Fill a 4-way set, invalidate way 1's line, then add a new line:
        // it must land in the hole (no eviction), as the reference keys
        // invalid ways at 0.
        let mut c = SetAssocCache::new("c", 4 * 64, 4); // 1 set x 4 ways
        for l in 0..4u64 {
            c.access(l, false);
        }
        assert!(c.invalidate(1));
        match c.access(9, false) {
            Lookup::Miss { evicted, .. } => assert_eq!(evicted, None),
            _ => panic!("expected miss into the invalidated hole"),
        }
        assert_eq!(c.stats().evictions, 0);
        // All four original survivors plus the newcomer minus the hole.
        for l in [0u64, 2, 3, 9] {
            assert!(c.contains(l), "line {l}");
        }
    }

    #[test]
    fn fill_does_not_count_lookup() {
        let mut c = SetAssocCache::new("c", 4096, 4);
        c.fill(9, false);
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains(9));
    }

    #[test]
    fn fill_refreshes_existing_line_without_eviction() {
        let mut c = SetAssocCache::new("c", 4 * 64, 2);
        c.access(0, false);
        assert_eq!(c.fill(0, true), None);
        assert_eq!(c.stats().evictions, 0);
        // The refreshed line is now dirty: evicting it writes back.
        let sets = c.sets() as u64;
        c.access(sets, false);
        match c.access(2 * sets, false) {
            Lookup::Miss { evicted, dirty } => {
                assert_eq!(evicted, Some(0));
                assert!(dirty, "fill-refresh must set the dirty bit");
            }
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = SetAssocCache::new("c", 64 * 1024, 8);
        let lines = c.capacity() / 64 / 2; // half capacity
        for l in 0..lines {
            c.access(l, false);
        }
        c.reset_stats();
        for _ in 0..3 {
            for l in 0..lines {
                c.access(l, false);
            }
        }
        assert!(c.stats().hit_ratio() > 0.999);
    }

    #[test]
    fn cyclic_overflow_thrashes_lru() {
        let mut c = SetAssocCache::new("c", 64 * 64, 4);
        let lines = 2 * c.capacity() / 64; // 2x capacity, cyclic
        for _ in 0..4 {
            for l in 0..lines {
                c.access(l, false);
            }
        }
        // Classic LRU pathological case: near-zero hits.
        assert!(c.stats().hit_ratio() < 0.05, "{}", c.stats().hit_ratio());
    }

    #[test]
    fn stamp_fallback_matches_lru_semantics_above_16_ways() {
        // 32-way set (stamp path) behaves as LRU: refresh protects a line.
        let mut c = SetAssocCache::new("c", 32 * 64, 32); // 1 set x 32 ways
        for l in 0..32u64 {
            c.access(l, false);
        }
        c.access(0, false); // refresh way 0 -> LRU is now line 1
        match c.access(100, false) {
            Lookup::Miss { evicted, .. } => assert_eq!(evicted, Some(1)),
            _ => panic!("expected miss"),
        }
        assert!(c.contains(0));
    }

    #[test]
    fn mru_fast_path_counts_hits_and_dirty() {
        let mut c = SetAssocCache::new("c", 4096, 4);
        c.access(5, false); // miss + fill: line 5 is its set's MRU way
        for _ in 0..7 {
            assert_eq!(c.access(5, false), Lookup::Hit);
        }
        assert_eq!(c.stats().hits, 7);
        assert_eq!(c.stats().misses, 1);
        // A repeat write hitting the MRU way must still mark it dirty.
        c.access(5, true);
        let sets = c.sets() as u64;
        let mut evicted_dirty = false;
        for k in 1..=4u64 {
            if let Lookup::Miss {
                evicted: Some(tag),
                dirty,
            } = c.access(5 + k * sets, false)
            {
                if tag == 5 {
                    evicted_dirty = dirty;
                }
            }
        }
        assert!(evicted_dirty, "dirty bit set via the fast path must stick");
    }

    #[test]
    fn invalidated_mru_way_is_not_a_hit() {
        // Invalidation leaves the recency order alone, so the MRU nibble
        // names an empty way: the MRU-first compare must miss, and the
        // refill lands in the hole without evicting.
        for ways in [4usize, 8, 16] {
            let mut c = SetAssocCache::new("c", ways as u64 * 2 * 64, ways);
            let sets = c.sets() as u64;
            for k in 0..ways as u64 {
                c.access(1 + k * sets, false);
            }
            assert_eq!(c.access(1, false), Lookup::Hit, "{ways} ways");
            assert!(c.invalidate(1));
            assert_eq!(
                c.access(1, false),
                Lookup::Miss {
                    evicted: None,
                    dirty: false
                },
                "{ways} ways"
            );
            assert_eq!(c.stats().evictions, 0, "{ways} ways");
        }
    }

    #[test]
    fn direct_mapped_keeps_no_recency_state() {
        let dm = SetAssocCache::direct_mapped("dm", 64 * 64);
        assert_eq!(dm.metadata_bytes(), dm.sets() * 8, "tags only");
        // 8 tag words, one permutation word and one fingerprint word a set.
        let sa = SetAssocCache::new("sa", 64 * 64, 8);
        assert_eq!(sa.metadata_bytes(), (sa.sets() * 8 + 2 * sa.sets()) * 8);
    }

    #[test]
    fn direct_mapped_fast_path_matches_semantics() {
        let mut c = SetAssocCache::direct_mapped("dm", 4 * 64); // 4 sets
        let sets = c.sets() as u64;
        c.access(0, true);
        assert_eq!(c.access(0, false), Lookup::Hit); // repeat hit
        assert_eq!(
            c.access(1, false),
            Lookup::Miss {
                evicted: None,
                dirty: false
            }
        );
        // Conflict: line `sets` aliases line 0, evicting the dirty line.
        assert_eq!(
            c.access(sets, false),
            Lookup::Miss {
                evicted: Some(0),
                dirty: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }
}
