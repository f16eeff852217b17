//! Model-checked harnesses for the mining crate's concurrency protocols.
//!
//! Each harness runs the *real* production types — [`RangePool`],
//! [`CancelToken`], [`MemGauge`]/[`GaugeScope`] — under the
//! [`fingers_conc::model`] bounded schedule explorer and asserts an invariant
//! that must hold in **every** interleaving within the preemption bound:
//!
//! 1. **Range partition** — roots claimed from a [`RangePool`] (own-range
//!    claims, steals and refills interleaved at will) always partition the
//!    seeded root range: every root mined exactly once, none lost, none
//!    duplicated — including the boundary root an owner claim and a steal
//!    of the same range contend for.
//! 2. **Cancel all-or-nothing** — replicating the worker protocol of
//!    `parallel::try_count_plan_parallel_governed`: if no worker observed
//!    the token cancelled, the summed result covers every root.
//! 3. **Gauge drain** — concurrent [`GaugeScope`] publishes into a
//!    parent/child gauge chain always drain both gauges back to baseline,
//!    and the recorded peak stays within the outstanding-publish envelope.
//!
//! A further harness drives the intentionally broken
//! [`RangePool::claim_with_torn_steal`] and must *catch* its lost update —
//! evidence the checker has teeth. The server crate hosts the
//! phoenix-rebuild harness.
//!
//! Keep harnesses tiny: state-space size is exponential in schedule points.
//! The shapes below exhaust in well under a second each in release mode;
//! `tests/model_check.rs` asserts completeness, and the `conc_check` binary
//! (server crate) records the state-space statistics in
//! `BENCH_conc_check.json`.

use crate::cancel::CancelToken;
use crate::gauge::{GaugeScope, MemGauge};
use crate::parallel::RangePool;
use crate::task::MiningTask;
use fingers_conc::model::{check, CheckOptions, CheckReport};
use fingers_conc::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Roots seeded into the range harnesses (kept tiny on purpose).
const POOL_ROOTS: usize = 4;

/// `workers` model threads each claim through `claim` until a fresh pool of
/// `roots` roots reads empty; asserts the claimed roots are exactly
/// `0..roots`, each once.
fn assert_claims_partition(
    name: &'static str,
    opts: CheckOptions,
    roots: usize,
    workers: usize,
    claim: fn(&RangePool, usize) -> Option<MiningTask>,
) -> CheckReport {
    check(name, opts, move |sim| {
        let pool = Arc::new(RangePool::new(roots, workers));
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let pool = Arc::clone(&pool);
                sim.spawn(move || {
                    let mut mined = Vec::new();
                    while let Some(t) = claim(&pool, me) {
                        mined.extend(t.roots());
                    }
                    mined
                })
            })
            .collect();
        let mut mined: Vec<u32> = handles.into_iter().flat_map(|w| w.join()).collect();
        mined.sort_unstable();
        let expected: Vec<u32> = (0..roots as u32).collect();
        assert_eq!(mined, expected, "claimed roots must partition the range");
    })
}

/// Invariant 1: two workers draining a four-root pool (two roots each, so
/// own claims, steals of two- and one-root ranges, refills and empty scans
/// all interleave) claim every root exactly once. Two workers, not three:
/// every worker ends on a scan of all the others, and a third multiplies
/// the bounded space past what exhausts in the per-harness time limit.
pub fn range_partition_check(opts: CheckOptions) -> CheckReport {
    assert_claims_partition("range-partition", opts, POOL_ROOTS, 2, RangePool::claim)
}

/// Invariant 1, boundary root: worker 0 owns `[0, 2)`, worker 1 `[2, 3)`.
/// Once worker 1 has claimed its own root, its steal races worker 0's
/// claims for the same word: root 1 is the last root the owner would reach
/// and the first the thief would cut off, and whichever update lands first
/// must get it — alone.
pub fn range_boundary_check(opts: CheckOptions) -> CheckReport {
    assert_claims_partition("range-boundary", opts, 3, 2, RangePool::claim)
}

/// Seeded-bug fixture: the partition invariant over
/// [`RangePool::claim_with_torn_steal`], whose steal loads then stores the
/// victim's word. The checker must find the schedule where the owner's
/// claim lands between the two and its root is handed out twice.
pub fn range_torn_steal_check(opts: CheckOptions) -> CheckReport {
    assert_claims_partition(
        "range-torn-steal",
        opts,
        POOL_ROOTS,
        2,
        RangePool::claim_with_torn_steal,
    )
}

/// Invariant 2: the cancel protocol of the governed parallel engine. A
/// worker claims from a real pool and polls a real [`CancelToken`] at task
/// boundaries, latching the shared `interrupted` flag exactly as
/// `parallel.rs` workers do, while a second thread fires `cancel()` at an
/// arbitrary point — including inside the window between two task claims,
/// the only place a partial tally exists. All-or-nothing: if the worker
/// never observed the cancel, its result must cover every root (an observed
/// cancel makes the engine discard everything, so partial sums never leak).
/// One worker keeps the space small; the multi-worker claim protocol is
/// exhausted separately by the range harnesses.
pub fn cancel_all_or_nothing_check(opts: CheckOptions) -> CheckReport {
    check("cancel-all-or-nothing", opts, |sim| {
        let roots = 2u32;
        let pool = Arc::new(RangePool::new(roots as usize, 1));
        let token = CancelToken::new();
        let interrupted = Arc::new(AtomicBool::new(false));
        let worker = {
            let pool = Arc::clone(&pool);
            let token = token.clone();
            let interrupted = Arc::clone(&interrupted);
            sim.spawn(move || {
                let mut local = 0u64;
                loop {
                    if token.is_cancelled() {
                        // ord: relaxed(mirrors the production worker protocol under test)
                        interrupted.store(true, Ordering::Relaxed);
                        break;
                    }
                    let Some(t) = pool.claim(0) else { break };
                    local += t.len() as u64;
                }
                local
            })
        };
        let canceller = {
            let token = token.clone();
            sim.spawn(move || token.cancel())
        };
        let total: u64 = worker.join();
        canceller.join();
        // ord: relaxed(verdict read after the worker has joined)
        if !interrupted.load(Ordering::Relaxed) {
            assert_eq!(
                total,
                u64::from(roots),
                "uncancelled verdict requires every root mined exactly once"
            );
        }
    })
}

/// Invariant 3: concurrent [`GaugeScope`]s over a parent/child gauge chain.
/// After every scope has dropped, both gauges read exactly zero (nothing
/// lost to a racing release, nothing double-charged and stranded), and the
/// peak lies within [largest single publish, sum of publishes].
pub fn gauge_drain_check(opts: CheckOptions) -> CheckReport {
    check("gauge-drain", opts, |sim| {
        let global = MemGauge::new();
        let query = global.child();
        let workers: Vec<_> = [30u64, 50]
            .iter()
            .map(|&amount| {
                let query = query.clone();
                sim.spawn(move || {
                    let mut scope = GaugeScope::new(query, Some(60));
                    if let Some((used, budget)) = scope.publish(amount) {
                        assert!(
                            used > budget,
                            "budget violation must only fire past the budget"
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        assert_eq!(query.bytes(), 0, "query gauge must drain to baseline");
        assert_eq!(global.bytes(), 0, "global gauge must drain to baseline");
        let peak = global.peak_bytes();
        assert!(peak >= 50, "peak covers the largest single publish: {peak}");
        assert!(peak <= 80, "peak bounded by the sum of publishes: {peak}");
    })
}
