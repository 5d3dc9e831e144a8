//! Peak heap of building a kernel trace twin.
//!
//! A trace keeps one packed 8-byte word per access, and every twin
//! reserves its exact access count up front, so building one grows the
//! heap by `8·N` bytes for `N` accesses and never reallocates. A
//! counting global allocator measures the peak heap growth while each
//! twin of the memsim benchmark's shapes is built and holds it to
//! `8·N + 64 KiB`. A 16-byte record per access, or a buffer grown by
//! doubling, would fail it.
//!
//! This file holds one test, so no other test allocates during the
//! measurement, and each build runs on a fresh thread, so nothing a
//! thread kept from an earlier build hides its allocations.

use opm_repro::kernels::traces::{
    gemm_blocked_trace, spmv_trace, stencil_trace, stream_triad_trace,
};
use opm_repro::memsim::Trace;
use opm_repro::sparse::gen::{MatrixKind, MatrixSpec};
use std::alloc::{GlobalAlloc, Layout, System};
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

/// Build a trace on a fresh thread and hold the peak heap growth to
/// `8·N + 64 KiB`; return the trace.
fn assert_packed(name: &str, build: impl FnOnce() -> Trace + Send) -> Trace {
    let (t, peak) = std::thread::scope(|s| {
        s.spawn(|| {
            let base = LIVE.load(Relaxed);
            PEAK.store(base, Relaxed);
            let t = build();
            (t, PEAK.load(Relaxed) - base)
        })
        .join()
        .unwrap()
    });
    let bound = 8 * t.len() + (64 << 10);
    assert!(
        peak <= bound,
        "{name}: {} accesses grew the heap by {peak} B, over the bound of {bound} B",
        t.len()
    );
    t
}

#[test]
fn building_a_twin_costs_eight_bytes_per_access() {
    // The memsim benchmark's seed-1 inputs.
    let matrix = MatrixSpec::new(MatrixKind::RandomUniform, 1 << 14, 1 << 18, 1).build();
    let twins = [
        assert_packed("gemm", || gemm_blocked_trace(56, 16)),
        assert_packed("spmv", || spmv_trace(&matrix, 1)),
        assert_packed("stencil", || stencil_trace(36)),
        assert_packed("triad", || stream_triad_trace(720_000, 1)),
    ];
    let accesses: usize = twins.iter().map(Trace::len).sum();
    assert_eq!(accesses, 3_942_640);
}
