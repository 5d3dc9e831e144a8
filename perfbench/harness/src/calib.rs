//! Host-speed calibration.
//!
//! The benchmark shares a few vCPUs of a busy host. Its neighbours
//! slow it down in two ways: the hypervisor steals the vCPU outright,
//! and, while the vCPU runs, other tenants compete for the core, its
//! caches and the memory bus. Op times are therefore taken in CPU time
//! (which leaves out steal, run-queue waits and I/O waits) and divided
//! by a host speed factor: how much slower than nominal a fixed
//! reference kernel, timed between ops, runs right now.
//!
//! The reference kernel has four parts, each timed in thread CPU time
//! as the best of three repetitions:
//!
//! * `alu`: a dependent integer and floating-point chain (core speed);
//! * `hash`: inserts into a hash map of small heap vectors, 64 Ki
//!   keys (allocator, branchy code, cache misses);
//! * `stream`: a sequential sum over an 8 MiB table (memory bandwidth);
//! * `l1`: UTF-8 validation of every other suffix of a 20 KiB ASCII
//!   text, a scan that stays in the core's private caches.
//!
//! The factor is the weighted geometric mean of the parts' times over
//! their nominal times. The campaign and serve-small use the
//! [`STANDARD`] weights (`alu` 1/2, `hash` and `stream` 1/4 each).
//! memsim and serve-batch spend most of an op scanning small tables in
//! the core's private caches (the simulator's tag sets, the reply
//! decoder's per-character UTF-8 check), so they move a quarter of that
//! weight to `l1` ([`L1_HEAVY`]). Over interleaved runs each choice
//! tracked its workloads' slow-downs within a few percent of the best
//! weighting for each.
//! The kernel is the benchmark's own code, so a change to the program
//! under test cannot move it.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Duration;

/// Part names, in the order of [`measure`].
pub const PARTS: [&str; 4] = ["alu", "hash", "stream", "l1"];

/// Thread CPU milliseconds each part takes on the reference host (an
/// idle 2-vCPU Intel Xeon guest). A factor of 1 means the host runs
/// the reference kernel at that speed.
const NOMINAL_MS: [f64; 4] = [2.6, 3.9, 1.7, 2.5];

/// Weights of the parts in a speed factor, in [`PARTS`] order; they
/// sum to 1.
#[derive(Clone, Copy)]
pub struct Weights([f64; 4]);

/// The weights of the campaign and serve-small.
pub const STANDARD: Weights = Weights([0.5, 0.25, 0.25, 0.0]);

/// [`STANDARD`] with a quarter of its weight moved to `l1`.
pub const L1_HEAVY: Weights = Weights([0.375, 0.1875, 0.1875, 0.25]);

/// Words in the `stream` table (8 MiB).
const TABLE_WORDS: usize = 1 << 21;

fn table() -> &'static [u32] {
    static T: OnceLock<Vec<u32>> = OnceLock::new();
    T.get_or_init(|| {
        (0..TABLE_WORDS as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect()
    })
}

fn alu() {
    let mut acc = 1u64;
    let mut x = 1.0f64;
    for k in 0..1_000_000u64 {
        acc = acc
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(black_box(k));
        x = x * 1.000_000_001 + (acc >> 60) as f64;
    }
    black_box((acc, x));
}

fn hash() {
    type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let mut m: HashMap<u64, Vec<f64>, Fixed> = HashMap::default();
    let mut rng = crate::stats::Rng::new(9);
    for i in 0..20_000u64 {
        let k = rng.below(1 << 16);
        m.entry(k)
            .or_insert_with(|| vec![i as f64; 6])
            .push((i as f64).sqrt());
    }
    black_box(m.len());
}

fn stream() {
    let t = table();
    let mut s = 0u64;
    for _ in 0..2 {
        s = s.wrapping_add(black_box(t).iter().map(|&v| u64::from(v)).sum::<u64>());
    }
    black_box(s);
}

fn l1() {
    let text = [b'x'; 20 << 10];
    let mut n = 0;
    for pos in (0..text.len()).step_by(2) {
        n += std::str::from_utf8(black_box(&text[pos..])).map_or(0, str::len);
    }
    black_box(n);
}

/// Thread CPU milliseconds of each part, best of three.
pub fn measure() -> [f64; 4] {
    let parts: [fn(); 4] = [alu, hash, stream, l1];
    let mut best = [f64::MAX; 4];
    for _ in 0..3 {
        for (b, part) in best.iter_mut().zip(parts) {
            let t0 = thread_cpu();
            part();
            *b = b.min((thread_cpu() - t0).as_secs_f64() * 1e3);
        }
    }
    best
}

impl Weights {
    /// The host speed factor of one measurement: the weighted geometric
    /// mean of each part's time over its nominal time.
    pub fn factor(&self, parts: [f64; 4]) -> f64 {
        (0..4)
            .map(|i| (parts[i] / NOMINAL_MS[i]).powf(self.0[i]))
            .product()
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time used so far by every thread of this process, exited ones
/// included. The kernel's task clock leaves out time the hypervisor
/// stole from the vCPU and time spent waiting, so a difference of two
/// readings is busy time only.
pub fn process_cpu() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used so far by the calling thread.
pub fn thread_cpu() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}
