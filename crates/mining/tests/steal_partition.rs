//! Property test: range-pool claims always partition the roots.
//!
//! The bounded model checker (`tests/model_check.rs`) exhausts *every*
//! interleaving of a tiny pool; this test is its complement — real OS
//! threads, adversarial *shapes*: an empty pool, a single root, fewer
//! roots than workers (some ranges start empty), a hub-first and a
//! hub-last skew (one worker is slow on the first or last roots, so the
//! others must steal the rest of its range from under it), and a uniform
//! drain. Whatever the shape and thread timing, the union of all claimed
//! roots must be `0..n`, each exactly once — no root lost to a steal, none
//! handed out twice.

use fingers_mining::parallel::RangePool;
use fingers_mining::MiningTask;
use proptest::prelude::*;
use std::time::Duration;

/// Which roots are slow to "mine".
#[derive(Debug, Clone, Copy)]
enum Shape {
    Uniform,
    HubFirst,
    HubLast,
}

impl Shape {
    fn is_hub(self, root: u32, n: u32) -> bool {
        let hubs = (n / 16).max(1);
        match self {
            Shape::Uniform => false,
            Shape::HubFirst => root < hubs,
            Shape::HubLast => root >= n - hubs,
        }
    }
}

/// Drains a pool over `[0, n)` from `workers` OS threads, each claim
/// checked to be a one-root task, and returns every claimed root, sorted.
fn drain_with_threads(n: u32, workers: usize, shape: Shape) -> Vec<u32> {
    let pool = RangePool::new(n as usize, workers);
    let mut mined: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut mined = Vec::new();
                    while let Some(t) = pool.claim(me) {
                        assert_eq!(t.len(), 1, "claims are single roots: {t:?}");
                        if shape.is_hub(t.start, n) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        mined.extend(t.roots());
                    }
                    mined
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    mined.sort_unstable();
    mined
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn claims_partition_roots_for_adversarial_shapes(
        shape in (0usize..3).prop_map(|i| [Shape::Uniform, Shape::HubFirst, Shape::HubLast][i]),
        n in 0u32..96,
        workers in 2usize..=4,
    ) {
        let expected: Vec<u32> = (0..n).collect();
        prop_assert_eq!(drain_with_threads(n, workers, shape), expected);
    }
}

#[test]
fn empty_pool_yields_nothing() {
    assert!(drain_with_threads(0, 3, Shape::Uniform).is_empty());
}

#[test]
fn single_root_is_claimed_exactly_once() {
    assert_eq!(drain_with_threads(1, 4, Shape::Uniform), vec![0]);
}

#[test]
fn fewer_roots_than_workers_leaves_some_ranges_empty() {
    assert_eq!(drain_with_threads(3, 4, Shape::HubFirst), vec![0, 1, 2]);
    let pool = RangePool::new(3, 4);
    assert_eq!(pool.claim(3), Some(MiningTask { start: 0, end: 1 }));
}
