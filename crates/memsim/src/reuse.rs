//! Reuse-distance (LRU stack distance) analysis.
//!
//! The reuse distance of an access is the number of *distinct* cache lines
//! touched since the previous access to the same line (infinite for first
//! touches). A fully-associative LRU cache of `C` lines hits exactly the
//! accesses with reuse distance `< C` — this classical result is what lets
//! the analytic tier model in `opm-core` stand in for exact simulation, and
//! this module provides the cross-check.
//!
//! Two implementations live here:
//!
//! * [`reuse_histogram`] — the production one-pass Bennett–Kruskal
//!   analyzer, in three parts:
//!   - An 8-deep **recency stack** holds the 8 most recent distinct
//!     lines, most recent first. A touch found at depth `p` has distance
//!     `p` and only rotates the stack. Consecutive touches of one line
//!     (7/8 of a sequential 8-byte sweep) are the `p = 0` case, and a few
//!     interleaved streams (a triad's three arrays) stay inside it.
//!   - A line pushed off the bottom takes the next **timestamp**. It is
//!     older than every stack line and newer than every earlier
//!     timestamp, so timestamps stay in recency order. Each line below
//!     the stack owns one *mark*, at its latest timestamp, and a reuse
//!     from below the stack has distance 8 plus the marks after that
//!     timestamp. The marks live in a **counted bitmap**: one bit per
//!     timestamp, a byte count per 64-bit word, and `u32` counts per 64
//!     entries of the level below, up to a level of at most 64 entries.
//!     A query sums the entries after its own in its group of 64 on
//!     every level, so it costs at most 63 reads per level, whatever the
//!     distance; a mark update touches one entry per level.
//!   - The last timestamp of each line sits in a **paged line map**:
//!     open addressing (Fibonacci hash, linear probing, at most half
//!     full) over pages of 16 consecutive lines, each page 16 `u32`
//!     timestamps in one cache line. A streaming array's touches land in
//!     one page.
//!
//!   Memory, for `N` line touches: `N/8` bytes of bitmap plus
//!   `N/64 + N/1024 + …` of counts, and 9 to 18 bytes per distinct line
//!   on dense traces (a 72-byte slot per 16 lines, the map a quarter to
//!   half full), 144 to 288 when every line sits on a page of its own;
//!   all of it is allocated per call. Time is O(N) map and bitmap work
//!   plus at most 63 reads on each of the log₆₄ N count levels per reuse
//!   from below the stack.
//! * [`reuse_histogram_reference`] — the executable specification: a naive
//!   LRU stack, O(N·D). `tests/memsim_equivalence.rs` proves the two agree
//!   bin-for-bin on random traces; keep this one obviously correct.

use std::collections::HashMap;

use crate::trace::{Trace, LINE_BYTES};

/// Histogram of reuse distances, in lines.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseHistogram {
    /// `(distance_in_lines, count)` pairs, distance ascending.
    pub finite: Vec<(u64, u64)>,
    /// First-touch (infinite-distance) accesses.
    pub cold: u64,
    /// Total accesses analyzed.
    pub total: u64,
}

impl ReuseHistogram {
    /// Fraction of accesses with reuse distance strictly below `lines` —
    /// the hit ratio of a fully-associative LRU cache with `lines` lines.
    pub fn hit_ratio(&self, lines: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .finite
            .iter()
            .filter(|(d, _)| *d < lines)
            .map(|(_, c)| *c)
            .sum();
        hits as f64 / self.total as f64
    }

    /// Hit ratio for a cache of `bytes` capacity.
    pub fn hit_ratio_bytes(&self, bytes: u64) -> f64 {
        self.hit_ratio(bytes / LINE_BYTES)
    }

    /// Convert to perf-model tiers: a working-set tier per histogram bucket,
    /// merged into at most `max_tiers` tiers by log-spaced distance bands.
    pub fn to_tiers(&self, max_tiers: usize) -> Vec<opm_core::profile::Tier> {
        assert!(max_tiers >= 1);
        if self.total == 0 || self.finite.is_empty() {
            return Vec::new();
        }
        let max_d = self.finite.last().map(|(d, _)| *d).unwrap_or(1).max(1);
        let mut tiers: Vec<(f64, f64)> = Vec::new(); // (ws_bytes, count)
        for &(d, c) in &self.finite {
            let band = if max_tiers == 1 {
                0
            } else {
                // log-spaced band index in [0, max_tiers)
                let x = ((d.max(1)) as f64).ln() / (max_d as f64).max(2.0).ln();
                ((x * max_tiers as f64) as usize).min(max_tiers - 1)
            };
            let ws = ((d + 1) * LINE_BYTES) as f64;
            if tiers.len() <= band {
                tiers.resize(band + 1, (0.0, 0.0));
            }
            let e = &mut tiers[band];
            e.0 = e.0.max(ws);
            e.1 += c as f64;
        }
        tiers
            .into_iter()
            .filter(|(_, c)| *c > 0.0)
            .map(|(ws, c)| opm_core::profile::Tier::new(ws, c / self.total as f64))
            .collect()
    }
}

/// Fibonacci-hashing multiplier (the 64-bit golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lines per page of the [`PageMap`].
const PAGE_LINES: usize = 16;

/// Timestamp of a line that has none yet: it never left the stack.
/// Real timestamps are below the trace's line-touch count, which
/// [`reuse_histogram`] keeps under `u32::MAX`.
const NONE: u32 = u32::MAX;

/// Key of a free [`PageMap`] slot. Real keys are `line / PAGE_LINES`,
/// far below it.
const FREE: u64 = u64::MAX;

/// The last timestamps of one page of consecutive lines, one cache line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Page([u32; PAGE_LINES]);

/// Line → last-timestamp map over pages of [`PAGE_LINES`] consecutive
/// lines: open addressing on the page key, linear probing, at most half
/// full.
struct PageMap {
    keys: Vec<u64>,
    pages: Vec<Page>,
    len: usize,
}

impl PageMap {
    fn new() -> Self {
        PageMap {
            keys: vec![FREE; 16],
            pages: vec![Page([NONE; PAGE_LINES]); 16],
            len: 0,
        }
    }

    /// The slot holding page `key`, or the free slot where it belongs.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(HASH_MUL) >> 32) as usize & mask;
        while self.keys[i] != key && self.keys[i] != FREE {
            i = (i + 1) & mask;
        }
        i
    }

    /// The timestamp last recorded for `line`, or [`NONE`].
    #[inline]
    fn get(&self, line: u64) -> u32 {
        let i = self.slot(line / PAGE_LINES as u64);
        self.pages[i].0[line as usize % PAGE_LINES]
    }

    /// Record timestamp `t` for `line`, replacing any earlier one.
    #[inline]
    fn put(&mut self, line: u64, t: u32) {
        let key = line / PAGE_LINES as u64;
        let mut i = self.slot(key);
        if self.keys[i] == FREE {
            if (self.len + 1) * 2 > self.keys.len() {
                self.grow();
                i = self.slot(key);
            }
            self.keys[i] = key;
            self.len += 1;
        }
        self.pages[i].0[line as usize % PAGE_LINES] = t;
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let keys = std::mem::replace(&mut self.keys, vec![FREE; cap]);
        let pages = std::mem::replace(&mut self.pages, vec![Page([NONE; PAGE_LINES]); cap]);
        for (key, page) in keys.into_iter().zip(pages) {
            if key != FREE {
                let i = self.slot(key);
                self.keys[i] = key;
                self.pages[i] = page;
            }
        }
    }
}

/// The marks of the lines below the stack, one per line at its latest
/// timestamp, as a counted bitmap: `bits` has one bit per timestamp,
/// `words` the marks of each 64-bit word, `levels[0]` the marks of each
/// 64 words and every further level the sum of 64 entries of the one
/// below, up to a top level of at most 64 entries.
struct Marks {
    bits: Vec<u64>,
    words: Vec<u8>,
    levels: Vec<Vec<u32>>,
}

impl Marks {
    /// Room for timestamps `0..stamps`, all unmarked.
    fn new(stamps: usize) -> Self {
        let words = stamps.div_ceil(64).max(1);
        let mut levels = Vec::new();
        let mut len = words;
        while len > 64 {
            len = len.div_ceil(64);
            levels.push(vec![0; len]);
        }
        Marks {
            bits: vec![0; words],
            words: vec![0; words],
            levels,
        }
    }

    #[inline]
    fn set(&mut self, t: usize) {
        self.bits[t / 64] |= 1 << (t % 64);
        self.words[t / 64] += 1;
        let mut i = t / 4096;
        for level in &mut self.levels {
            level[i] += 1;
            i /= 64;
        }
    }

    #[inline]
    fn clear(&mut self, t: usize) {
        self.bits[t / 64] &= !(1 << (t % 64));
        self.words[t / 64] -= 1;
        let mut i = t / 4096;
        for level in &mut self.levels {
            level[i] -= 1;
            i /= 64;
        }
    }

    /// Marks at timestamps after `t`: the later bits of its word, then
    /// on every level the later entries of its group of 64. The top
    /// level is one group, so that covers every later timestamp.
    #[inline]
    fn after(&self, t: usize) -> u32 {
        let w = t / 64;
        let mut n = (self.bits[w] & (!1 << (t % 64))).count_ones();
        n += after_in_group(&self.words, w);
        let mut i = w / 64;
        for level in &self.levels {
            n += after_in_group(level, i);
            i /= 64;
        }
        n
    }
}

/// The sum of the entries after `v[i]` in its group of 64.
#[inline]
fn after_in_group<T: Copy + Into<u32>>(v: &[T], i: usize) -> u32 {
    let end = v.len().min((i | 63) + 1);
    v[i + 1..end].iter().map(|&c| c.into()).sum()
}

/// Depth of the recency stack in front of the counted bitmap: the most
/// recent distinct lines, whose reuses are counted without map or bitmap
/// work.
const STACK: usize = 8;

/// Compute the reuse-distance histogram of a trace (line granularity).
///
/// Identical output to [`reuse_histogram_reference`] — the fast path is
/// differential-tested against it bin for bin.
///
/// # Panics
///
/// If the trace has 2^32 line touches or more (at least 32 GiB of
/// packed records, or fewer accesses spanning many lines each):
/// timestamps are `u32`.
pub fn reuse_histogram(trace: &Trace) -> ReuseHistogram {
    // Total line touches (bounds the timestamps, and is `total`), kept by
    // the store as accesses were recorded.
    let n = trace.accesses.line_touches();
    if n == 0 {
        return ReuseHistogram {
            finite: Vec::new(),
            cold: 0,
            total: 0,
        };
    }
    assert!(
        n < u64::from(NONE),
        "reuse_histogram: {n} line touches, timestamps hold fewer than 2^32"
    );
    let mut marks = Marks::new(n as usize);
    let mut map = PageMap::new();
    // Every stack distance has a bin.
    let mut hist = vec![0u64; STACK];
    // The most recent distinct lines, most recent first; `FREE` (no real
    // line) pads it until STACK lines have been seen.
    let mut stack = [FREE; STACK];
    let mut cold = 0u64;
    let mut t = 0u32; // next timestamp
    for acc in &trace.accesses {
        for line in acc.lines() {
            if let Some(p) = stack.iter().position(|&l| l == line) {
                // Exactly the `p` lines above it were touched since.
                hist[p] += 1;
                for i in (1..=p).rev() {
                    stack[i] = stack[i - 1];
                }
                stack[0] = line;
                continue;
            }
            // Below the stack: every stack line, plus each line marked
            // after this line's timestamp, was touched since.
            match map.get(line) {
                NONE => cold += 1,
                prev => {
                    let d = STACK + marks.after(prev as usize) as usize;
                    if d >= hist.len() {
                        hist.resize(d + 1, 0);
                    }
                    hist[d] += 1;
                    marks.clear(prev as usize);
                }
            }
            // The line pushed off the bottom is older than every stack
            // line and newer than every marked one: it takes the next
            // timestamp, which keeps the marks in recency order.
            let out = stack[STACK - 1];
            stack.copy_within(..STACK - 1, 1);
            stack[0] = line;
            if out != FREE {
                map.put(out, t);
                marks.set(t as usize);
                t += 1;
            }
        }
    }
    let finite: Vec<(u64, u64)> = hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c != 0)
        .map(|(d, &c)| (d as u64, c))
        .collect();
    ReuseHistogram {
        finite,
        cold,
        total: n,
    }
}

/// Reference implementation: an explicit LRU stack, O(N·D).
///
/// This is the executable definition of reuse distance — "the number of
/// distinct lines touched since the last access to the same line" — kept
/// deliberately naive so its correctness is obvious by inspection. The
/// production [`reuse_histogram`] must match it exactly
/// (`tests/memsim_equivalence.rs`).
pub fn reuse_histogram_reference(trace: &Trace) -> ReuseHistogram {
    let mut stack: Vec<u64> = Vec::new(); // most recent at the end
    let mut hist: HashMap<u64, u64> = HashMap::new();
    let mut cold = 0u64;
    let mut total = 0u64;
    for acc in &trace.accesses {
        for line in acc.lines() {
            total += 1;
            match stack.iter().rposition(|&l| l == line) {
                Some(pos) => {
                    // Lines above `pos` are exactly the distinct lines
                    // touched since the previous access to `line`.
                    let d = (stack.len() - 1 - pos) as u64;
                    *hist.entry(d).or_insert(0) += 1;
                    stack.remove(pos);
                }
                None => cold += 1,
            }
            stack.push(line);
        }
    }
    let mut finite: Vec<(u64, u64)> = hist.into_iter().collect();
    finite.sort_unstable();
    ReuseHistogram {
        finite,
        cold,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;

    #[test]
    fn simple_sequence_distances() {
        // Lines: A B A  -> A's second access has distance 1 (B).
        let mut t = Trace::new();
        t.read(0, 8); // line 0
        t.read(64, 8); // line 1
        t.read(0, 8); // line 0 again
        let h = reuse_histogram(&t);
        assert_eq!(h.cold, 2);
        assert_eq!(h.finite, vec![(1, 1)]);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut t = Trace::new();
        t.read(0, 8);
        t.read(8, 8); // same line 0
        let h = reuse_histogram(&t);
        assert_eq!(h.finite, vec![(0, 1)]);
    }

    #[test]
    fn self_interleave_distance_one() {
        // A B A B A B: after the cold touches, every access skips exactly
        // one distinct line.
        let mut t = Trace::new();
        for _ in 0..3 {
            t.read(0, 8);
            t.read(64, 8);
        }
        let h = reuse_histogram(&t);
        assert_eq!(h.cold, 2);
        assert_eq!(h.finite, vec![(1, 4)]);
    }

    #[test]
    fn cold_misses_are_counted_separately_not_binned() {
        // Every line touched once: all cold, no finite distances — the
        // "infinite distance" sentinel is the `cold` counter, never a bin.
        let t = Trace::sequential(0, 64 * 64, 1);
        let h = reuse_histogram(&t);
        assert_eq!(h.cold, 64);
        let finite_mass: u64 = h.finite.iter().map(|(_, c)| c).sum();
        assert_eq!(finite_mass + h.cold, h.total);
        // 8-byte touches within each line are distance-0 reuses.
        assert_eq!(h.finite, vec![(0, h.total - 64)]);
    }

    #[test]
    fn cyclic_sweep_distance_equals_working_set() {
        // Sweep W lines twice: second pass distances all = W - 1.
        let w = 32u64;
        let t = Trace::sequential(0, w * 64, 2);
        // 8 touches per line per pass; within-line touches have distance 0.
        let h = reuse_histogram(&t);
        let max_d = h.finite.last().unwrap().0;
        assert_eq!(max_d, w - 1);
        assert_eq!(h.cold, w);
    }

    #[test]
    fn hit_ratio_matches_fully_assoc_lru_sim() {
        // The fundamental stack-distance theorem, verified against the
        // simulator with very high associativity (= fully associative).
        let t = Trace::random(0, 64 * 1024, 5000, 42);
        let h = reuse_histogram(&t);
        for cap_lines in [16u64, 64, 256] {
            let mut c = SetAssocCache::new("fa", cap_lines * 64, cap_lines as usize);
            for a in &t.accesses {
                for l in a.lines() {
                    c.access(l, false);
                }
            }
            let sim = c.stats().hit_ratio();
            let pred = h.hit_ratio(cap_lines);
            assert!(
                (sim - pred).abs() < 0.01,
                "cap {cap_lines}: sim {sim} vs stack-distance {pred}"
            );
        }
    }

    #[test]
    fn hit_ratio_monotone_in_capacity() {
        let t = Trace::random(0, 1 << 16, 2000, 1);
        let h = reuse_histogram(&t);
        let mut prev = -1.0;
        for c in [1u64, 2, 8, 32, 128, 512, 2048] {
            let r = h.hit_ratio(c);
            assert!(r >= prev);
            prev = r;
        }
        assert!(h.hit_ratio(1 << 20) <= 1.0);
    }

    #[test]
    fn fast_path_matches_reference_on_random_trace() {
        for seed in [3u64, 17, 99] {
            let t = Trace::random(0, 1 << 14, 1500, seed);
            assert_eq!(reuse_histogram(&t), reuse_histogram_reference(&t));
        }
        let t = Trace::sequential(0, 48 * 64, 3);
        assert_eq!(reuse_histogram(&t), reuse_histogram_reference(&t));
    }

    #[test]
    fn tiers_capture_mass_and_working_sets() {
        let w = 64u64;
        let t = Trace::sequential(0, w * 64, 4);
        let h = reuse_histogram(&t);
        let tiers = h.to_tiers(4);
        assert!(!tiers.is_empty());
        let mass: f64 = tiers.iter().map(|t| t.fraction).sum();
        // All finite reuse mass is represented; cold misses are the
        // streaming remainder.
        let finite_mass = 1.0 - h.cold as f64 / h.total as f64;
        assert!((mass - finite_mass).abs() < 1e-9);
        // The largest tier's working set covers the sweep size.
        let max_ws = tiers.iter().map(|t| t.working_set).fold(0.0, f64::max);
        assert!(max_ws >= (w * 64) as f64 * 0.9);
    }

    #[test]
    fn empty_trace() {
        let h = reuse_histogram(&Trace::new());
        assert_eq!(h.total, 0);
        assert_eq!(h.hit_ratio(100), 0.0);
        assert!(h.to_tiers(4).is_empty());
        assert_eq!(h, reuse_histogram_reference(&Trace::new()));
    }
}
