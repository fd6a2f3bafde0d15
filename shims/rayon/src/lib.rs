//! Offline shim for `rayon`: ordered parallel map / for-each over slices
//! plus `join`, executed on a persistent worker pool ([`pool`]) instead of
//! spawning OS threads per region. Only the adapters this workspace uses
//! are provided (`par_iter`, `par_iter_mut`, `par_chunks_mut`, `map`,
//! `enumerate`, `for_each`, `collect`, `join`, `current_num_threads`).
//!
//! Ordering guarantees (documented in `shims/README.md`): every adapter
//! assigns each element/chunk a fixed index and each task writes only its
//! own output slot, so results are bit-identical to a sequential run
//! regardless of worker count or scheduling. Side effects still interleave
//! nondeterministically, as with real rayon.

pub mod pool;

pub use pool::{current_num_threads, join};

use pool::run_region;

pub mod prelude {
    //! Glob-import surface, mirroring `rayon::prelude`.
    pub use crate::{ParallelSlice, ParallelSliceMut};
}

/// Pointer wrapper for handing disjoint `&mut` slots to pool tasks. Each
/// index is claimed exactly once (see [`pool`]), so no two tasks alias.
struct SendPtr<T>(*mut T);

// SAFETY: tasks access disjoint offsets; the region completes before the
// borrow the pointer came from ends.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. Closures must call this (capturing the whole
    /// wrapper) rather than touch `.0` — edition-2021 precise captures
    /// would otherwise capture the bare `*mut T`, which is not `Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Contiguous index blocks: enough per-task work to amortize dispatch,
/// enough blocks (4 per thread) for the atomic-index claim to balance
/// uneven task costs.
fn block_size(n: usize) -> usize {
    n.div_ceil(pool::effective_threads() * 4).max(1)
}

/// `par_iter` on shared slices (and, via deref, `Vec`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel shared iterator.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel exclusive iterator.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Parallel iterator over contiguous mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { items: self }
    }

    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "par_chunks_mut: zero chunk size");
        ParChunksMut { items: self, size }
    }
}

/// Parallel iterator over `&T`.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element; results keep slice order.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Run `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let items = self.items;
        let n = items.len();
        let bs = block_size(n);
        run_region(n.div_ceil(bs), &|bi| {
            for item in &items[bi * bs..((bi + 1) * bs).min(n)] {
                f(item);
            }
        });
    }
}

/// Mapped parallel iterator; terminal `collect` preserves order.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Evaluate in parallel and collect in slice order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
        C: FromIterator<R>,
    {
        let items = self.items;
        let n = items.len();
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        let out = SendPtr(slots.as_mut_ptr());
        let f = &self.f;
        let bs = block_size(n);
        run_region(n.div_ceil(bs), &|bi| {
            // One index drives a slice read and a disjoint slot write.
            #[allow(clippy::needless_range_loop)]
            for i in bi * bs..((bi + 1) * bs).min(n) {
                // SAFETY: slot `i` belongs to exactly one block/task.
                unsafe { *out.get().add(i) = Some(f(&items[i])) };
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every index executed"))
            .collect()
    }
}

/// Parallel iterator over `&mut T`.
pub struct ParIterMut<'a, T> {
    items: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Run `f` on every element in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let n = self.items.len();
        let base = SendPtr(self.items.as_mut_ptr());
        let bs = block_size(n);
        run_region(n.div_ceil(bs), &|bi| {
            for i in bi * bs..((bi + 1) * bs).min(n) {
                // SAFETY: element `i` belongs to exactly one block/task,
                // and the region outlives no borrows (blocks until done).
                f(unsafe { &mut *base.get().add(i) });
            }
        });
    }
}

/// Parallel iterator over mutable chunks.
pub struct ParChunksMut<'a, T> {
    items: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index.
    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate(self)
    }

    /// Run `f` on every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, c)| f(c));
    }
}

/// Enumerated mutable-chunk iterator.
pub struct ParChunksMutEnumerate<'a, T>(ParChunksMut<'a, T>);

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    /// Run `f` on every `(index, chunk)` pair in parallel. One chunk is
    /// one pool task — chunks (GEMM M-tile slabs, QDense batch rows) are
    /// already the caller's unit of useful work.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let n = self.0.items.len();
        let size = self.0.size;
        let chunks = n.div_ceil(size);
        let base = SendPtr(self.0.items.as_mut_ptr());
        run_region(chunks, &|ci| {
            let start = ci * size;
            let len = size.min(n - start);
            // SAFETY: chunk `ci` covers `[start, start + len)`, disjoint
            // from every other chunk; one task per chunk.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
            f((ci, chunk));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::pool::{with_dispatch, Dispatch};
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let data: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = data.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_mut_touches_everything() {
        let mut data = vec![1u32; 5000];
        data.par_iter_mut().for_each(|x| *x += 1);
        assert!(data.iter().all(|&x| x == 2));
    }

    #[test]
    fn for_each_shared_visits_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let data: Vec<u64> = (0..4001).collect();
        let sum = AtomicU64::new(0);
        data.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4000 * 4001 / 2);
    }

    #[test]
    fn chunked_enumerate_covers_all_rows() {
        let mut data = vec![0usize; 12 * 7];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7);
        }
    }

    #[test]
    fn every_dispatch_mode_agrees() {
        let data: Vec<i64> = (0..2500).map(|i| i * 3 - 700).collect();
        let run = || -> Vec<i64> { data.par_iter().map(|x| x.wrapping_mul(17) ^ 5).collect() };
        let pooled = run();
        let sequential = with_dispatch(Dispatch::Sequential, run);
        assert_eq!(pooled, sequential);
    }
}
