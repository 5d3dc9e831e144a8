//! Memory access traces and synthetic trace generators.
//!
//! Traces are sequences of byte-addressed reads/writes. The simulator works
//! at cache-line granularity; helpers here split multi-byte accesses into
//! line touches.
//!
//! # Record layout
//!
//! A [`Trace`] keeps its accesses in [`PackedAccesses`], one `u64` word
//! per access:
//!
//! ```text
//! bit 63 ........ 17 | 16    | 15 ..... 0
//!     addr           | write | len
//! ```
//!
//! for every access with `addr < 2^47` and `len < 0xFFFF`, which covers
//! every access the kernel twins and the generators here make. Any other
//! access *spills*: it goes whole into a side table of [`Access`] values,
//! and its word holds the table index in the `addr` field under the
//! marker `len = 0xFFFF`. Word `i` is always access `i`, so length,
//! indexing, order and equality are those of the accesses themselves. A
//! trace costs 8 bytes per access, half the size of an [`Access`].
//!
//! The store also counts the line touches as accesses are recorded, so
//! a consumer can size its buffers without a pass over the trace.

/// Cache line size in bytes (both platforms use 64-byte lines).
pub const LINE_BYTES: u64 = 64;

/// Access direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// One memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Access size in bytes.
    pub len: u32,
    /// Load or store.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `len` bytes at `addr`.
    pub fn read(addr: u64, len: u32) -> Self {
        Access {
            addr,
            len,
            kind: AccessKind::Read,
        }
    }

    /// A write of `len` bytes at `addr`.
    pub fn write(addr: u64, len: u32) -> Self {
        Access {
            addr,
            len,
            kind: AccessKind::Write,
        }
    }

    /// First and last cache line touched by this access. A zero-length
    /// access touches the line of `addr`.
    ///
    /// # Panics
    ///
    /// If the access's last byte lies past `u64::MAX`.
    #[inline]
    pub fn line_span(&self) -> (u64, u64) {
        match self.addr.checked_add(u64::from(self.len.max(1)) - 1) {
            Some(end) => (self.addr / LINE_BYTES, end / LINE_BYTES),
            None => past_the_address_space(self),
        }
    }

    /// Cache lines touched by this access.
    ///
    /// # Panics
    ///
    /// If the access's last byte lies past `u64::MAX`.
    pub fn lines(&self) -> std::ops::RangeInclusive<u64> {
        let (first, last) = self.line_span();
        first..=last
    }
}

#[cold]
#[inline(never)]
fn past_the_address_space(acc: &Access) -> ! {
    panic!(
        "access of {} bytes at {:#x} ends past u64::MAX",
        acc.len, acc.addr
    )
}

/// Bits below the address in a packed word: the write bit and `len`.
const ADDR_SHIFT: u32 = 17;
/// The write bit of a packed word.
const WRITE: u64 = 1 << 16;
/// The `len` field of a packed word, and its value marking a spilled
/// access.
const SPILL: u64 = 0xFFFF;

/// The accesses of a [`Trace`], one packed `u64` word each (see the
/// module docs for the layout and the spill rule).
///
/// `&PackedAccesses` iterates the accesses by value, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedAccesses {
    words: Vec<u64>,
    spilled: Vec<Access>,
    touches: u64,
}

impl PackedAccesses {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no accesses are recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Accesses the store holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Make room for exactly `additional` more accesses (spilled ones
    /// also take a side-table entry, allocated as they come).
    pub fn reserve(&mut self, additional: usize) {
        self.words.reserve_exact(additional);
    }

    /// Drop every access but keep the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.spilled.clear();
        self.touches = 0;
    }

    /// Total cache-line touches of the recorded accesses.
    pub fn line_touches(&self) -> u64 {
        self.touches
    }

    /// Append one access.
    ///
    /// # Panics
    ///
    /// If the access's last byte lies past `u64::MAX`.
    #[inline]
    pub fn push(&mut self, acc: Access) {
        let (first, last) = acc.line_span();
        self.touches += last - first + 1;
        let len = u64::from(acc.len);
        let word = if acc.addr >> (64 - ADDR_SHIFT) == 0 && len < SPILL {
            let write = if acc.kind == AccessKind::Write {
                WRITE
            } else {
                0
            };
            acc.addr << ADDR_SHIFT | write | len
        } else {
            self.spilled.push(acc);
            ((self.spilled.len() - 1) as u64) << ADDR_SHIFT | SPILL
        };
        self.words.push(word);
    }

    /// Access `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<Access> {
        self.words.get(i).map(|&w| unpack(w, &self.spilled))
    }

    /// The accesses in order, by value.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter(),
            spilled: &self.spilled,
        }
    }
}

/// The access a packed word stands for.
#[inline]
fn unpack(w: u64, spilled: &[Access]) -> Access {
    let len = w & SPILL;
    if len == SPILL {
        return spilled[(w >> ADDR_SHIFT) as usize];
    }
    Access {
        addr: w >> ADDR_SHIFT,
        len: len as u32,
        kind: if w & WRITE == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        },
    }
}

/// Iterator over the accesses of a [`PackedAccesses`], by value.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: std::slice::Iter<'a, u64>,
    spilled: &'a [Access],
}

impl Iterator for Iter<'_> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        self.words.next().map(|&w| unpack(w, self.spilled))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl<'a> IntoIterator for &'a PackedAccesses {
    type Item = Access;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<Access> for PackedAccesses {
    /// # Panics
    ///
    /// As [`push`](PackedAccesses::push).
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.words.reserve(iter.size_hint().0);
        for acc in iter {
            self.push(acc);
        }
    }
}

/// A recorded access sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Accesses in program order.
    pub accesses: PackedAccesses,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty trace with room for exactly `accesses` accesses.
    pub fn with_capacity(accesses: usize) -> Self {
        let mut t = Trace::new();
        t.accesses.reserve(accesses);
        t
    }

    /// Drop all recorded accesses but keep the allocation, so a trace can
    /// serve as a reusable arena across sweep points (see
    /// [`trace_from_tiers_into`](crate::synth::trace_from_tiers_into)).
    pub fn clear(&mut self) {
        self.accesses.clear();
    }

    /// Record a read.
    ///
    /// # Panics
    ///
    /// If the read's last byte lies past `u64::MAX`.
    pub fn read(&mut self, addr: u64, len: u32) {
        self.accesses.push(Access::read(addr, len));
    }

    /// Record a write.
    ///
    /// # Panics
    ///
    /// If the write's last byte lies past `u64::MAX`.
    pub fn write(&mut self, addr: u64, len: u32) {
        self.accesses.push(Access::write(addr, len));
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True when no accesses are recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Total bytes requested.
    pub fn bytes(&self) -> u64 {
        self.accesses.iter().map(|a| a.len as u64).sum()
    }

    /// Sequential sweep over `[base, base + bytes)` reading 8-byte words,
    /// repeated `passes` times — the access pattern of STREAM-like kernels.
    pub fn sequential(base: u64, bytes: u64, passes: usize) -> Self {
        let mut t = Trace::with_capacity(passes * bytes.div_ceil(8) as usize);
        for _ in 0..passes {
            let mut a = base;
            while a < base + bytes {
                t.read(a, 8);
                a += 8;
            }
        }
        t
    }

    /// Strided read sweep (stride in bytes), one pass.
    pub fn strided(base: u64, bytes: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        let mut t = Trace::with_capacity(bytes.div_ceil(stride) as usize);
        let mut a = base;
        while a < base + bytes {
            t.read(a, 8);
            a += stride;
        }
        t
    }

    /// Pseudo-random 8-byte reads inside `[base, base + bytes)` using a
    /// deterministic LCG (reproducible without pulling in `rand`).
    pub fn random(base: u64, bytes: u64, count: usize, seed: u64) -> Self {
        assert!(bytes >= 8, "region too small");
        let mut t = Trace::with_capacity(count);
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        for _ in 0..count {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let off = (s >> 11) % (bytes / 8) * 8;
            t.read(base + off, 8);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_line_split() {
        let a = Access::read(60, 8); // crosses the 64-byte boundary
        let lines: Vec<u64> = a.lines().collect();
        assert_eq!(lines, vec![0, 1]);
        let b = Access::read(64, 8);
        assert_eq!(b.lines().collect::<Vec<_>>(), vec![1]);
        let z = Access::read(0, 0);
        assert_eq!(z.lines().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn sequential_covers_region_each_pass() {
        let t = Trace::sequential(0, 1024, 2);
        assert_eq!(t.len(), 2 * 128);
        assert_eq!(t.bytes(), 2048);
    }

    #[test]
    fn strided_steps() {
        let t = Trace::strided(0, 1024, 256);
        assert_eq!(t.len(), 4);
        assert_eq!(t.accesses.get(1).unwrap().addr, 256);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let a = Trace::random(1 << 20, 4096, 100, 7);
        let b = Trace::random(1 << 20, 4096, 100, 7);
        assert_eq!(a, b);
        for acc in &a.accesses {
            assert!(acc.addr >= 1 << 20);
            assert!(acc.addr + 8 <= (1 << 20) + 4096);
        }
        let c = Trace::random(1 << 20, 4096, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn generators_reserve_exactly_their_accesses() {
        for t in [
            Trace::sequential(8, 1001, 3),
            Trace::strided(0, 1000, 24),
            Trace::random(0, 4096, 77, 1),
        ] {
            assert_eq!(t.accesses.capacity(), t.len());
        }
    }

    /// Accesses on both sides of each spill boundary, reads and writes.
    fn boundary_accesses() -> Vec<Access> {
        let top = (1u64 << 47) - 1;
        let mut v = Vec::new();
        for (addr, len) in [
            (0, 0),
            (64, 0xFFFE),
            (128, 0xFFFF),
            (4096, u32::MAX),
            (top, 8),
            (top + 1, 8),
            (top - 60, 0xFFFE),
            (u64::MAX, 1),
            (3, 1),
        ] {
            v.push(Access::read(addr, len));
            v.push(Access::write(addr, len));
        }
        v
    }

    #[test]
    fn spill_boundaries_round_trip() {
        let want = boundary_accesses();
        let mut t = Trace::new();
        for &a in &want {
            t.accesses.push(a);
        }
        assert_eq!(t.len(), want.len());
        assert_eq!(t.accesses.iter().collect::<Vec<_>>(), want);
        for (i, &a) in want.iter().enumerate() {
            assert_eq!(t.accesses.get(i), Some(a), "access {i}");
        }
        assert_eq!(t.accesses.get(want.len()), None);
        // Exactly the accesses at len >= 0xFFFF or addr >= 2^47 spill.
        let spills = |a: &Access| a.len >= 0xFFFF || a.addr >= 1 << 47;
        assert_eq!(
            t.accesses.spilled.len(),
            want.iter().filter(|a| spills(a)).count()
        );
        let touches: u64 = want
            .iter()
            .map(|a| {
                let (first, last) = a.line_span();
                last - first + 1
            })
            .sum();
        assert_eq!(t.accesses.line_touches(), touches);
        assert_eq!(
            t.bytes(),
            want.iter().map(|a| u64::from(a.len)).sum::<u64>()
        );
    }

    #[test]
    fn extend_equality_and_clear() {
        let want = boundary_accesses();
        let mut a = Trace::new();
        a.accesses.extend(want.iter().copied());
        let mut b = Trace::new();
        for &acc in &want {
            b.accesses.push(acc);
        }
        assert_eq!(a, b);
        // Extending by another trace appends its accesses in order.
        let mut c = Trace::new();
        c.read(0, 8);
        c.accesses.extend(&a.accesses);
        assert_eq!(c.len(), want.len() + 1);
        assert!(c.accesses.iter().skip(1).eq(want.iter().copied()));
        assert_ne!(a, c);
        // Equal accesses, equal traces; one differing kind breaks it.
        let mut d = Trace::new();
        d.accesses.extend(want.iter().map(|&x| Access {
            kind: AccessKind::Read,
            ..x
        }));
        assert_ne!(a, d);
        // `clear` keeps the allocation and forgets the spills and counts.
        let cap = a.accesses.capacity();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.accesses.capacity(), cap);
        assert_eq!(a.accesses.line_touches(), 0);
        assert_eq!(a, Trace::new());
        a.accesses.extend(want.iter().copied());
        assert_eq!(a, b);
    }

    #[test]
    fn an_access_ending_at_u64_max_is_recorded() {
        let mut t = Trace::new();
        t.read(u64::MAX - 7, 8);
        assert_eq!(t.accesses.line_touches(), 1);
        let last = u64::MAX / LINE_BYTES;
        assert_eq!(t.accesses.get(0).unwrap().line_span(), (last, last));
    }

    #[test]
    #[should_panic(expected = "ends past u64::MAX")]
    fn recording_an_access_past_u64_max_panics() {
        Trace::new().read(u64::MAX - 3, 8);
    }

    #[test]
    #[should_panic(expected = "ends past u64::MAX")]
    fn lines_of_an_access_past_u64_max_panic() {
        let _ = Access::write(u64::MAX, 2).lines();
    }
}
