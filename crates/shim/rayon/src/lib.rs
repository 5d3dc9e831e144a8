//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no crates.io access, so this package provides
//! the `rayon::prelude` surface the workspace uses (`par_iter`,
//! `par_iter_mut`, `into_par_iter`, `par_chunks_mut`, `flat_map_iter`) as
//! **sequential** adapters over the standard iterators. Every call site
//! keeps compiling and produces identical results in deterministic order.

/// Number of worker threads the process would use: the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run two closures (sequentially here) and return both results — the
/// signature of `rayon::join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

/// Sequential slice adapters mirroring `rayon::prelude::ParallelSlice`.
pub trait ParallelSlice<T> {
    /// Sequential stand-in for `par_iter`.
    fn par_iter(&self) -> std::slice::Iter<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> std::slice::Iter<'_, T> {
        self.iter()
    }
}

/// Sequential mutable-slice adapters mirroring
/// `rayon::prelude::ParallelSliceMut`.
pub trait ParallelSliceMut<T> {
    /// Sequential stand-in for `par_iter_mut`.
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
    /// Sequential stand-in for `par_chunks_mut`.
    fn par_chunks_mut(&mut self, chunk: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.iter_mut()
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk)
    }
}

/// Sequential stand-in for `rayon::prelude::IntoParallelIterator`.
pub trait IntoParallelIterator: IntoIterator + Sized {
    /// Sequential stand-in for `into_par_iter`.
    fn into_par_iter(self) -> Self::IntoIter {
        self.into_iter()
    }
}

impl<T: IntoIterator> IntoParallelIterator for T {}

/// Rayon-only combinators that have direct sequential equivalents.
pub trait ParallelIteratorExt: Iterator + Sized {
    /// `flat_map_iter` is rayon's "flat-map with a serial inner iterator";
    /// sequentially it is just `flat_map`.
    fn flat_map_iter<U, F>(self, f: F) -> std::iter::FlatMap<Self, U, F>
    where
        U: IntoIterator,
        F: FnMut(Self::Item) -> U,
    {
        self.flat_map(f)
    }

    /// Chunk-size hint; a no-op sequentially.
    fn with_min_len(self, _len: usize) -> Self {
        self
    }
}

impl<I: Iterator> ParallelIteratorExt for I {}

/// The prelude mirrors `rayon::prelude::*` for the traits above.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIteratorExt, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adapters_behave_like_std() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let mut w = vec![0; 4];
        w.par_iter_mut()
            .zip(v.par_iter())
            .for_each(|(o, &i)| *o = i);
        assert_eq!(w, v);
        let mut c = vec![1; 6];
        c.par_chunks_mut(2).enumerate().for_each(|(i, ch)| {
            for x in ch {
                *x = i;
            }
        });
        assert_eq!(c, vec![0, 0, 1, 1, 2, 2]);
        let f: Vec<usize> = vec![1usize, 2]
            .into_par_iter()
            .flat_map_iter(|n| 0..n)
            .collect();
        assert_eq!(f, vec![0, 0, 1]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }
}
