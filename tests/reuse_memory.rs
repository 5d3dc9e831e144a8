//! Peak heap of one `reuse_histogram` call.
//!
//! The pass keeps one bit per timestamp (at most one per line touch `N`)
//! with its count levels, and a paged map of the distinct lines `D`. A
//! counting global allocator measures the peak heap growth during one
//! call and holds it to `N/8 + N/32 + 64·D + 64 KiB` bytes: `N/8` for the
//! bitmap, `N/32` for its count levels (`N/64 + N/1024 + …`), and the
//! map and histogram per distinct line. An 8-byte cell per touch would
//! be `8·N` and fail it by far.
//!
//! This file holds one test, so no other test allocates during the
//! measurement, and each call runs on a fresh thread, so nothing a
//! thread kept from an earlier call hides its allocations.

use opm_repro::kernels::traces::stream_triad_trace;
use opm_repro::memsim::{reuse_histogram, ReuseHistogram, Trace, LINE_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated now, and the most allocated at once since the last
/// reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees hold; the
// counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The histogram of `trace` and the peak heap growth while a fresh
/// thread computes it.
fn measured(trace: &Trace) -> (ReuseHistogram, usize) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let base = LIVE.load(Relaxed);
            PEAK.store(base, Relaxed);
            let h = reuse_histogram(trace);
            (h, PEAK.load(Relaxed) - base)
        })
        .join()
        .unwrap()
    })
}

/// Hold one call to the bound of the module docs; return its histogram.
fn assert_bounded(name: &str, trace: &Trace) -> ReuseHistogram {
    let distinct = trace
        .accesses
        .iter()
        .flat_map(|a| a.lines())
        .collect::<HashSet<u64>>()
        .len();
    let (h, peak) = measured(trace);
    let n = h.total as usize;
    let bound = n / 8 + n / 32 + 64 * distinct + (64 << 10);
    assert!(
        peak <= bound,
        "{name}: {n} line touches over {distinct} lines grew the heap by {peak} B, \
         over the bound of {bound} B"
    );
    h
}

#[test]
fn reuse_histogram_memory_is_a_bit_per_touch_plus_the_distinct_lines() {
    // Two million touches cycling over 64 lines: every reuse comes from
    // below the recency stack, at distance 63, and takes a timestamp.
    let mut cyclic = Trace::new();
    for _ in 0..1 << 15 {
        cyclic.read(0, (64 * LINE_BYTES) as u32);
    }
    let h = assert_bounded("64 lines cycled", &cyclic);
    assert_eq!(h.finite, vec![(63, 64 * ((1 << 15) - 1))]);
    // A streaming triad: three arrays of 400 000 doubles, one pass.
    assert_bounded("triad", &stream_triad_trace(400_000, 1));
}
