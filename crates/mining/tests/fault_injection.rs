//! Fault-injection suite: drives the engine through the seeded chaos
//! plan and proves every injected fault surfaces typed — never a crash,
//! never a partial count — and that a run after `chaos::clear()` is
//! bit-identical to a run that never saw chaos.
//!
//! ci.sh runs this suite twice: with default features and with
//! `--no-default-features` (scalar set-op kernels), proving the fallback
//! path degrades identically under the same fault streams.
//!
//! The chaos plan is process-global, and an engine run draws from
//! whatever plan is installed while it runs. So *every* engine run in this
//! file — baselines, recovery runs and the "uninstalled" test included —
//! takes `CHAOS_LOCK`, either through `with_chaos` (plan installed, cleared
//! on exit) or `without_chaos` (nothing installed), and the suite passes
//! under the default parallel test runner.

use std::sync::Mutex;

use fingers_graph::CsrGraph;
use fingers_mining::chaos::{self, ChaosPlan, ChaosSite};
use fingers_mining::{
    count_plan_parallel_with, try_count_plan_parallel_with, CancelToken, EngineConfig, EngineError,
};
use fingers_pattern::{parse_pattern, ExecutionPlan, Induced};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` with no plan installed and none installable meanwhile.
fn without_chaos<R>(f: impl FnOnce() -> R) -> R {
    let _guard = chaos_lock();
    assert!(!chaos::active(), "a chaos test leaked its plan");
    f()
}

/// Runs `f` with `plan` installed, clearing chaos afterwards even when an
/// assertion inside `f` panics.
fn with_chaos<R>(plan: ChaosPlan, f: impl FnOnce() -> R) -> R {
    let _guard = chaos_lock();
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            chaos::clear();
        }
    }
    let _clear = Clear;
    chaos::install(plan);
    f()
}

fn graph() -> CsrGraph {
    fingers_graph::gen::chung_lu_power_law(&fingers_graph::gen::ChungLuConfig::new(400, 3200, 5))
}

fn plan(pattern: &str) -> ExecutionPlan {
    ExecutionPlan::compile(
        &parse_pattern(pattern).expect("pattern parses"),
        Induced::Vertex,
    )
}

#[test]
fn injected_worker_panics_fail_typed_and_name_partitions() {
    let g = graph();
    let p = plan("tc");
    let err = with_chaos(
        ChaosPlan {
            worker_panic_per_mille: 1000,
            max_per_site: 2,
            ..ChaosPlan::quiet(7)
        },
        || {
            try_count_plan_parallel_with(&g, &p, 2, &EngineConfig::default())
                .expect_err("a 1000-permille worker-panic site must fail the run")
        },
    );
    let EngineError::WorkerPanic { failures } = err else {
        panic!("expected WorkerPanic, got {err:?}");
    };
    assert_eq!(failures.len(), 2, "the per-site cap bounds the failures");
    for f in &failures {
        assert!(
            chaos::is_chaos_panic(&f.message),
            "injected panic must carry the chaos marker: {}",
            f.message
        );
    }
    assert!(
        failures.iter().all(|f| f.task.len() == 1),
        "a failure names the single root it was mining: {failures:?}"
    );
    let starts: Vec<_> = failures.iter().map(|f| f.task.start).collect();
    let mut sorted = starts.clone();
    sorted.sort_unstable();
    assert_eq!(starts, sorted, "failures are reported in root order");
}

#[test]
fn injected_alloc_failures_are_typed_and_recovery_is_bit_identical() {
    let g = graph();
    let p = plan("4cl");
    let config = EngineConfig::default();
    let baseline = without_chaos(|| count_plan_parallel_with(&g, &p, 1, &config));
    let err = with_chaos(
        ChaosPlan {
            alloc_per_mille: 1000,
            max_per_site: 1,
            ..ChaosPlan::quiet(11)
        },
        || {
            let err = try_count_plan_parallel_with(&g, &p, 1, &config)
                .expect_err("an injected allocation failure must fail the run");
            assert_eq!(chaos::injected(ChaosSite::Alloc), 1, "cap admits one");
            err
        },
    );
    assert!(
        matches!(err, EngineError::WorkerPanic { .. }),
        "a simulated allocation failure surfaces as an isolated worker panic: {err:?}"
    );
    let recovered = without_chaos(|| try_count_plan_parallel_with(&g, &p, 1, &config))
        .expect("chaos-free run succeeds");
    assert_eq!(recovered, baseline, "recovery run is bit-identical");
}

#[test]
fn serial_fault_schedule_is_identical_across_kernel_tiers() {
    // One draw per claimed root, and a single worker claims roots in
    // ascending order: the same seed must fail the same roots whether the
    // set-op tier is SIMD or scalar — the degradation-parity claim ci.sh
    // re-checks with `--no-default-features`.
    let g = graph();
    let p = plan("tc");
    let chaos_plan = ChaosPlan {
        worker_panic_per_mille: 120,
        ..ChaosPlan::quiet(23)
    };
    let failed_roots = |config: &EngineConfig| {
        with_chaos(chaos_plan, || {
            match try_count_plan_parallel_with(&g, &p, 1, config) {
                Err(EngineError::WorkerPanic { failures }) => {
                    assert!(failures.iter().all(|f| f.task.len() == 1), "{failures:?}");
                    failures.iter().map(|f| f.task.start).collect::<Vec<_>>()
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        })
    };
    let simd = failed_roots(&EngineConfig::default());
    assert!(simd.windows(2).all(|w| w[0] < w[1]), "root order: {simd:?}");
    assert_eq!(
        simd,
        failed_roots(&EngineConfig::without_simd()),
        "scalar fallback must degrade identically"
    );
}

#[test]
fn chaos_survives_alongside_cancellation_and_budget_contracts() {
    // Chaos does not weaken the other typed-abort contracts: with a plan
    // installed, a pre-cancelled token still wins and a 1-byte budget
    // still aborts typed, and neither leaks an injected panic.
    let g = graph();
    let p = plan("tc");
    with_chaos(ChaosPlan::quiet(3), || {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = fingers_mining::try_count_plan_parallel_shared(
            &g,
            &p,
            2,
            &EngineConfig::default(),
            None,
            &cancelled,
        )
        .expect_err("pre-cancelled token aborts");
        assert!(err.cancel_kind().is_some(), "{err:?}");

        let budget = EngineConfig::with_query_mem_budget(1);
        let err =
            try_count_plan_parallel_with(&g, &p, 2, &budget).expect_err("1-byte budget aborts");
        assert!(err.mem_budget().is_some(), "{err:?}");
    });
}

#[test]
fn uninstalled_chaos_runs_are_untouched() {
    let g = graph();
    let p = plan("tc");
    let config = EngineConfig::default();
    without_chaos(|| {
        let count =
            try_count_plan_parallel_with(&g, &p, 4, &config).expect("chaos-free run succeeds");
        assert_eq!(count, count_plan_parallel_with(&g, &p, 1, &config));
    });
}
