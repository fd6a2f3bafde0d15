//! Property tests for the persistent-pool threading backend: parallel
//! kernels must be bit-for-bit identical to their sequential execution,
//! whatever the shape, contents, or worker scheduling.
//!
//! The pool is pinned to 4 threads before first use so these properties
//! exercise real cross-thread dispatch even on single-core CI hosts
//! (where the default pool degenerates to inline execution).

use proptest::prelude::*;
use rayon::pool::{configure_threads, with_dispatch, Dispatch};
use rayon::prelude::*;
use std::sync::Once;
use tinymlops_tensor::matmul::{gemm, gemm_packed, gemm_row_stream};
use tinymlops_tensor::TensorRng;

fn force_multithreaded_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // Best effort: if the pool already initialized (it cannot have,
        // in this test binary), the properties still hold — they compare
        // against Dispatch::Sequential, not a thread count.
        let _ = configure_threads(4);
    });
}

proptest! {
    /// Pooled packed GEMM (M-tile slabs fan out to pool workers above the
    /// parallelism threshold) is bit-for-bit identical to the same kernel
    /// run inline. Shapes straddle `PAR_MIN_MACS` (64³) and M-slab
    /// (32-row) remainders.
    #[test]
    fn pooled_gemm_is_bit_identical_to_sequential(
        m in 33usize..80,
        k in 48usize..96,
        n in 48usize..96,
        seed in any::<u64>(),
    ) {
        force_multithreaded_pool();
        let mut rng = TensorRng::seed(seed);
        let a = rng.uniform(&[m, k], -2.0, 2.0);
        let b = rng.uniform(&[k, n], -2.0, 2.0);
        let mut pooled = vec![0.0f32; m * n];
        gemm_packed(a.data(), b.data(), &mut pooled, m, k, n);
        let mut sequential = vec![0.0f32; m * n];
        with_dispatch(Dispatch::Sequential, || {
            gemm_packed(a.data(), b.data(), &mut sequential, m, k, n);
        });
        prop_assert_eq!(&pooled, &sequential, "pool scheduling changed bits");
    }

    /// The same property for the dispatching entry point (`gemm`) over
    /// sparse inputs, which routes to the row-streaming kernel: its
    /// per-row parallelism must also be schedule-independent.
    #[test]
    fn pooled_sparse_gemm_is_bit_identical(
        m in 33usize..64,
        seed in any::<u64>(),
    ) {
        force_multithreaded_pool();
        let (k, n) = (64usize, 64usize);
        let mut rng = TensorRng::seed(seed);
        let a = rng
            .uniform(&[m, k], -1.0, 1.0)
            .map(|v| if v.abs() < 0.85 { 0.0 } else { v });
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let mut pooled = vec![0.0f32; m * n];
        gemm(a.data(), b.data(), &mut pooled, m, k, n);
        let mut sequential = vec![0.0f32; m * n];
        with_dispatch(Dispatch::Sequential, || {
            gemm(a.data(), b.data(), &mut sequential, m, k, n);
        });
        prop_assert_eq!(&pooled, &sequential);
        // The row-stream kernel agrees with itself too (covers the
        // explicit baseline the benchmarks keep).
        let mut rows = vec![0.0f32; m * n];
        gemm_row_stream(a.data(), b.data(), &mut rows, m, k, n);
        let mut rows_seq = vec![0.0f32; m * n];
        with_dispatch(Dispatch::Sequential, || {
            gemm_row_stream(a.data(), b.data(), &mut rows_seq, m, k, n);
        });
        prop_assert_eq!(&rows, &rows_seq);
    }

    /// Shim-level ordering guarantee: pooled `par_iter().map().collect()`
    /// returns results in slice order, equal to the sequential map.
    #[test]
    fn pooled_par_iter_collect_preserves_order(
        data in proptest::collection::vec(any::<i64>(), 0..800),
    ) {
        force_multithreaded_pool();
        let pooled: Vec<i64> = data.par_iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        let sequential: Vec<i64> = data.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        prop_assert_eq!(pooled, sequential);
    }
}
