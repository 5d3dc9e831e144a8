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
//! * [`reuse_histogram`] — the production Bennett–Kruskal pass: a Fenwick
//!   tree over timestamps counting "most recent access positions",
//!   O(N log N). An 8-deep **recency stack** sits in front of it: it holds
//!   the 8 most recent distinct lines, most recent first, and a touch
//!   found at depth `p` has distance `p` — counted and rotated to the
//!   front with no map or tree work. Consecutive touches of one line
//!   (7/8 of a sequential 8-byte sweep) are the `p = 0` case, and a few
//!   interleaved streams (a triad's three arrays) stay inside the stack.
//!   A line that falls off the bottom takes the next tree timestamp: it
//!   is older than every stack line and newer than every tree line, so
//!   the tree stays in recency order, and a reuse from below the stack
//!   has distance 8 plus the tree marks after its timestamp (one prefix
//!   query, against a running mark count). The rest of the constant
//!   factor is an open-addressing last-timestamp map (Fibonacci hash,
//!   linear probing) instead of SipHash `HashMap`, and a thread-local
//!   scratch arena so sweeping thousands of profile points reuses the
//!   tree/map/histogram buffers instead of reallocating per call.
//! * [`reuse_histogram_reference`] — the executable specification: a naive
//!   LRU stack, O(N·D). `tests/memsim_equivalence.rs` proves the two agree
//!   bin-for-bin on random traces; keep this one obviously correct.

use std::cell::RefCell;
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

/// Sentinel timestamp marking an empty [`LineMap`] slot. Real timestamps
/// are trace positions, far below `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hashing multiplier (the 64-bit golden ratio).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn line_hash(line: u64) -> usize {
    (line.wrapping_mul(HASH_MUL) >> 32) as usize
}

/// Open-addressing line → last-timestamp map with linear probing. The
/// slot array lives in the scratch arena and is reused across calls.
struct LineMap<'a> {
    slots: &'a mut Vec<(u64, u64)>,
    mask: usize,
    len: usize,
}

impl<'a> LineMap<'a> {
    /// Reset `slots` to hold at least `hint` lines at < 50% load.
    fn reset(slots: &'a mut Vec<(u64, u64)>, hint: usize) -> Self {
        let cap = (hint.max(8) * 2).next_power_of_two();
        slots.clear();
        slots.resize(cap, (0, EMPTY));
        LineMap {
            mask: cap - 1,
            len: 0,
            slots,
        }
    }

    /// The timestamp last recorded for `line`, if any.
    #[inline]
    fn get(&self, line: u64) -> Option<u64> {
        let mut i = line_hash(line) & self.mask;
        loop {
            let slot = self.slots[i];
            if slot.1 == EMPTY {
                return None;
            }
            if slot.0 == line {
                return Some(slot.1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Record timestamp `t` for `line`, replacing any earlier one.
    #[inline]
    fn put(&mut self, line: u64, t: u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mut i = line_hash(line) & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.1 == EMPTY {
                *slot = (line, t);
                self.len += 1;
                return;
            }
            if slot.0 == line {
                slot.1 = t;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(self.slots);
        self.slots.resize(old.len() * 2, (0, EMPTY));
        self.mask = self.slots.len() - 1;
        for (line, t) in old {
            if t == EMPTY {
                continue;
            }
            let mut i = line_hash(line) & self.mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = (line, t);
        }
    }
}

/// Fenwick prefix add over a 1-based tree slice.
#[inline]
fn fen_add(tree: &mut [u64], mut i: usize, delta: i64) {
    i += 1;
    while i < tree.len() {
        tree[i] = (tree[i] as i64 + delta) as u64;
        i += i & i.wrapping_neg();
    }
}

/// Fenwick prefix sum of values at indices `[0, i]`.
#[inline]
fn fen_prefix(tree: &[u64], i: usize) -> u64 {
    let mut i = i + 1;
    let mut s = 0;
    while i > 0 {
        s += tree[i];
        i -= i & i.wrapping_neg();
    }
    s
}

/// Per-thread scratch buffers reused across [`reuse_histogram`] calls, so
/// a sweep of thousands of points pays one allocation, not thousands.
#[derive(Default)]
struct Scratch {
    fen: Vec<u64>,
    hist: Vec<u64>,
    slots: Vec<(u64, u64)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Depth of the recency stack in front of the Fenwick tree: the most
/// recent distinct lines, whose reuses are counted without map or tree
/// work.
const STACK: usize = 8;

/// Compute the reuse-distance histogram of a trace (line granularity).
///
/// Identical output to [`reuse_histogram_reference`] — the fast path is
/// differential-tested against it bin for bin.
pub fn reuse_histogram(trace: &Trace) -> ReuseHistogram {
    // Total line touches (determines tree capacity and `total`).
    let n: usize = trace
        .accesses
        .iter()
        .map(|a| {
            let first = a.addr / LINE_BYTES;
            let last = (a.addr + a.len.max(1) as u64 - 1) / LINE_BYTES;
            (last - first + 1) as usize
        })
        .sum();
    if n == 0 {
        return ReuseHistogram {
            finite: Vec::new(),
            cold: 0,
            total: 0,
        };
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let scratch = &mut *scratch;
        scratch.fen.clear();
        scratch.fen.resize(n + 1, 0);
        scratch.hist.clear();
        scratch.hist.resize(STACK, 0); // every stack distance has a bin
        let mut map = LineMap::reset(&mut scratch.slots, n.min(1 << 16));
        // The most recent distinct lines, most recent first; `EMPTY`
        // (no real line) pads it until STACK lines have been seen.
        let mut stack = [EMPTY; STACK];
        let mut cold = 0u64;
        let mut in_tree = 0u64; // marks currently in the tree
        let mut t = 0usize; // next tree timestamp
        for acc in &trace.accesses {
            let first = acc.addr / LINE_BYTES;
            let last = (acc.addr + acc.len.max(1) as u64 - 1) / LINE_BYTES;
            for line in first..=last {
                if let Some(p) = stack.iter().position(|&l| l == line) {
                    // Exactly the `p` lines above it were touched since.
                    scratch.hist[p] += 1;
                    for i in (1..=p).rev() {
                        stack[i] = stack[i - 1];
                    }
                    stack[0] = line;
                    continue;
                }
                // Below the stack: every stack line, plus each tree line
                // marked after this line's timestamp, was touched since.
                match map.get(line) {
                    Some(prev) => {
                        let d =
                            STACK + (in_tree - fen_prefix(&scratch.fen, prev as usize)) as usize;
                        if d >= scratch.hist.len() {
                            scratch.hist.resize(d + 1, 0);
                        }
                        scratch.hist[d] += 1;
                        fen_add(&mut scratch.fen, prev as usize, -1);
                        in_tree -= 1;
                    }
                    None => cold += 1,
                }
                // The line pushed off the bottom is older than every stack
                // line and newer than every tree line: it takes the next
                // timestamp, which keeps the tree in recency order.
                let out = stack[STACK - 1];
                stack.copy_within(..STACK - 1, 1);
                stack[0] = line;
                if out != EMPTY {
                    map.put(out, t as u64);
                    fen_add(&mut scratch.fen, t, 1);
                    in_tree += 1;
                    t += 1;
                }
            }
        }
        let finite: Vec<(u64, u64)> = scratch
            .hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(d, &c)| (d as u64, c))
            .collect();
        ReuseHistogram {
            finite,
            cold,
            total: n as u64,
        }
    })
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
