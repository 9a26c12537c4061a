//! Regression test for kernel-launch accounting under real threads.
//!
//! Before the deterministic pool, `fused` scopes were tracked with a plain
//! thread-local depth, so a primitive executed *on a pool worker* inside a
//! fused region would see depth 0 and be counted as its own launch. The
//! fused depth now travels in `dp_pool::taskctx`, which the pool copies
//! into every worker executing one of the region's tasks.

use dp_tensor::kernel;

#[test]
fn fused_scope_spans_pool_workers() {
    // Own process (integration test binary), so the global counters are
    // ours alone; still force a multithreaded pool explicitly.
    dp_pool::set_threads(4);
    kernel::reset();
    kernel::set_counting(true);
    kernel::set_fusion_enabled(true);

    let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
    let sum: f64 = kernel::fused("fused_parallel_region", || {
        dp_pool::map_reduce(
            xs.len(),
            || -0.0,
            |acc, i| {
                // A primitive launched from whichever thread runs this
                // task — must be attributed to the enclosing fused scope.
                kernel::launch("inner_primitive");
                acc + xs[i] * 2.0
            },
            |a, b| a + b,
        )
    });

    assert_eq!(sum, xs.iter().map(|&x| x * 2.0).sum::<f64>());
    assert_eq!(
        kernel::total_launches(),
        1,
        "inner primitives on pool workers must collapse into the fused launch; counts: {:?}",
        kernel::counts()
    );
    assert_eq!(kernel::counts().get("fused_parallel_region"), Some(&1));
    assert!(!kernel::counts().contains_key("inner_primitive"));

    // Outside the scope, and after the region, counting is primitive-wise
    // again — the workers' context was reset when the region ended.
    kernel::launch("after");
    let n = dp_pool::map_reduce(
        xs.len(),
        || 0u64,
        |acc, _| {
            kernel::launch("after");
            acc
        },
        |a, b| a + b,
    );
    assert_eq!(n, 0);
    assert_eq!(kernel::counts().get("after"), Some(&(1 + xs.len() as u64)));

    kernel::set_counting(false);
    kernel::set_fusion_enabled(false);
    kernel::reset();
    dp_pool::set_threads(1);
}
