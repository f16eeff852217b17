//! Root-partitioned parallel mining over [`PlanMiner`] workers.
//!
//! Level-0 DFS trees are independent, so the unit of scheduling is one
//! root. Workers obtain roots from a [`RangePool`]: each worker owns a
//! half-open range of unstarted roots packed into one atomic word, claims
//! one root at a time from its front, and an idle worker steals the upper
//! half of a victim's range. A worker therefore holds exactly one root
//! privately; everything not yet started stays stealable, so a hub-heavy
//! id region cannot serialize the run behind the worker that was seeded
//! with it (DESIGN.md §14.2).
//!
//! Each worker owns one [`PlanMiner`] (and therefore one scratch arena)
//! for its whole lifetime, and reduces into a private `u64`. The final
//! reduction is a sum of per-root partial counts: each root's count is a
//! pure function of the root, and addition over `u64` is commutative and
//! associative, so the result is **bit-identical** to the sequential
//! count regardless of thread count or steal schedule — the determinism
//! tests assert exactly this (DESIGN.md §14).

use crate::cancel::{CancelKind, CancelToken};
use crate::config::EngineConfig;
use crate::error::{panic_message, EngineError, PartitionFailure};
use crate::executor::{count_plan_with, MineOutcome, PlanMiner, RunHalt};
use crate::gauge::MemGauge;
use crate::sink::{CountSink, Sink};
use crate::task::MiningTask;
use fingers_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fingers_conc::sync::{Mutex, PoisonError};
use fingers_graph::hubs::HubSet;
use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::{ExecutionPlan, MultiPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

// lint: lock-order(failures)

/// One worker's unstarted roots `[next, end)`, packed `next << 32 | end`
/// (`VertexId` is `u32`) so a claim or a steal is a single atomic update
/// of the whole range. Cache-line aligned: the owner updates its word once
/// per root, and neighbouring words must not bounce with it.
#[repr(align(64))]
struct RootRange(AtomicU64);

fn pack(next: VertexId, end: VertexId) -> u64 {
    (u64::from(next) << 32) | u64::from(end)
}

fn unpack(word: u64) -> (VertexId, VertexId) {
    ((word >> 32) as VertexId, word as VertexId)
}

/// Range word `word` with its upper half ⌈remaining/2⌉ cut off, and that
/// half as `(first root, end)`; `None` when the range is empty.
fn cut_upper_half(word: u64) -> Option<(u64, (VertexId, VertexId))> {
    let (next, end) = unpack(word);
    if next >= end {
        return None;
    }
    let mid = end - (end - next).div_ceil(2);
    Some((pack(next, mid), (mid, end)))
}

impl RootRange {
    /// Compare-and-swap loop replacing the word `w` by `f(w)`; returns the
    /// replaced word, or `None` (nothing written) once `f` declines.
    fn update(&self, f: impl FnMut(u64) -> Option<u64>) -> Option<u64> {
        // ord: acqrel+acquire(the word is the whole range: acqrel orders a claim or steal against every other update of the same word, a declined update only reads)
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, f)
            .ok()
    }
}

/// The range-stealing root scheduler: one [`RootRange`] per worker, seeded
/// with the contiguous blocks of `MiningTask::partition(n, workers)`.
///
/// Invariant: at every instant the ranges plus the single roots workers
/// hold privately partition the unmined remainder of `[0, |V|)`. A range
/// only ever *loses* roots to other parties — its front root to the owner,
/// its upper half to a thief — each by one compare-and-swap of the whole
/// word, so no root is handed out twice or dropped; the owner alone
/// refills its range, and only while it is empty (thieves never write an
/// empty range), so that plain store races with nothing. ABA cannot occur:
/// the word is the entire state (no pointer, no side data), and a
/// non-empty value `(next, end)` never recurs — claims and steals only
/// shrink a range, so the value could only come back through a refill,
/// which needs the range to have emptied, i.e. root `next` to have left
/// it, and a root that left is in flight or mined and never queued again.
pub struct RangePool {
    ranges: Vec<RootRange>,
}

impl RangePool {
    /// A pool over roots `[0, vertex_count)` for `workers` workers (at
    /// least one); workers beyond the root count start empty.
    pub fn new(vertex_count: usize, workers: usize) -> Self {
        let mut ranges: Vec<RootRange> = MiningTask::partition(vertex_count, workers)
            .iter()
            .map(|t| RootRange(AtomicU64::new(pack(t.start, t.end))))
            .collect();
        ranges.resize_with(workers.max(1), || RootRange(AtomicU64::new(0)));
        Self { ranges }
    }

    /// The next root for worker `me`, as a one-root task: the front of its
    /// own range, else the first root of the upper half of the first
    /// non-empty victim's range, the rest of which becomes `me`'s range.
    /// Returns `None` only when every range is empty at scan time; roots
    /// in flight on other workers are never visible here and no range
    /// regains a root that left the pool, so a `None` is final.
    pub fn claim(&self, me: usize) -> Option<MiningTask> {
        self.claim_stealing_by(me, |victim| {
            let was = victim.update(|w| Some(cut_upper_half(w)?.0))?;
            Some(cut_upper_half(was)?.1)
        })
    }

    fn claim_stealing_by(
        &self,
        me: usize,
        steal: impl Fn(&RootRange) -> Option<(VertexId, VertexId)>,
    ) -> Option<MiningTask> {
        let own = self.ranges[me].update(|w| {
            let (next, end) = unpack(w);
            (next < end).then(|| pack(next + 1, end))
        });
        let n = self.ranges.len();
        let root = own.map(|w| unpack(w).0).or_else(|| {
            let (root, end) = (1..n).find_map(|off| steal(&self.ranges[(me + off) % n]))?;
            // ord: release(only the owner writes its own empty range, see the type's invariant; pairs with the thieves' acquire)
            self.ranges[me]
                .0
                .store(pack(root + 1, end), Ordering::Release);
            Some(root)
        })?;
        Some(MiningTask {
            start: root,
            end: root + 1,
        })
    }

    /// Seeded-bug fixture for the model checker: [`RangePool::claim`] with
    /// a steal that loads the victim's word and stores the cut range back
    /// instead of compare-and-swapping it. An owner claim landing between
    /// the two is overwritten, so its root is handed out a second time —
    /// the lost-update the range harnesses exist to catch. Never called by
    /// production code.
    #[cfg(feature = "model-check")]
    pub fn claim_with_torn_steal(&self, me: usize) -> Option<MiningTask> {
        self.claim_stealing_by(me, |victim| {
            // ord: acquire(fixture: reads the word the store below clobbers)
            let (rest, half) = cut_upper_half(victim.0.load(Ordering::Acquire))?;
            // BUG (intentional): not a CAS, the word may have moved since the load.
            // ord: release(fixture: mirrors the ordering of a real range write)
            victim.0.store(rest, Ordering::Release);
            Some(half)
        })
    }
}

/// Counts embeddings of `plan` in `graph` using `threads` workers, with the
/// default [`EngineConfig`].
///
/// Deterministic: returns exactly [`crate::count_plan`]'s value for every
/// thread count (the reduction is an order-independent `u64` sum).
/// `threads == 0` is treated as 1.
///
/// # Panics
///
/// Re-raises any panic from a worker thread (none occur for plans produced
/// by the compiler; see the invariants documented on [`PlanMiner`]).
pub fn count_plan_parallel(graph: &CsrGraph, plan: &ExecutionPlan, threads: usize) -> u64 {
    count_plan_parallel_with(graph, plan, threads, &EngineConfig::default())
}

/// Counts embeddings of `plan` using `threads` workers under an explicit
/// engine config.
///
/// The hub set is identified once here and shared (`Arc`) across workers;
/// each worker still owns its private bitmap cache, so the hot path stays
/// synchronization-free. Counts are identical for every config and thread
/// count.
pub fn count_plan_parallel_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> u64 {
    let threads = effective_threads(threads, graph.vertex_count());
    if threads <= 1 {
        return count_plan_with(graph, plan, config);
    }
    let hubs = config.hub_set(graph);
    let pool = RangePool::new(graph.vertex_count(), threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|me| {
                let pool = &pool;
                let hubs = hubs.clone();
                scope.spawn(move || {
                    let mut miner = PlanMiner::with_hubs(graph, plan, hubs, config);
                    let mut sink = CountSink::default();
                    while let Some(task) = pool.claim(me) {
                        miner.run(task, &mut sink);
                    }
                    sink.count
                })
            })
            .collect();
        workers
            .into_iter()
            // §11: the infallible API treats a worker panic as fatal —
            // propagating it here is the documented policy, not a bug.
            .map(
                #[allow(clippy::expect_used)] // §11: justified above
                |w| w.join().expect("mining worker panicked"),
            )
            .sum()
    })
}

/// [`count_plan_parallel_with`] plus a schedule trace: returns the count
/// and, per worker, the root ranges that worker actually mined, in
/// execution order.
///
/// Workers claim one root at a time; the trace coalesces a worker's
/// consecutive adjacent claims into one [`MiningTask`] range, so a worker
/// that was never stolen from and never stole reports a single task and
/// the total task count reads ≈ `threads` + number of steals, not |V|.
/// Weighing each worker's ranges by per-root cost (a serial replay, or
/// per-root timings) gives the schedule's critical path, which is what the
/// wall clock would show on a machine with at least `threads` idle cores.
/// The count is bit-identical to [`count_plan_parallel_with`]; the trace's
/// tasks partition `[0, |V|)` for every thread count.
pub fn count_plan_parallel_trace(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> (u64, Vec<Vec<MiningTask>>) {
    let threads = effective_threads(threads, graph.vertex_count());
    let hubs = config.hub_set(graph);
    let pool = RangePool::new(graph.vertex_count(), threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|me| {
                let pool = &pool;
                let hubs = hubs.clone();
                scope.spawn(move || {
                    let mut miner = PlanMiner::with_hubs(graph, plan, hubs, config);
                    let mut sink = CountSink::default();
                    let mut trace: Vec<MiningTask> = Vec::new();
                    while let Some(task) = pool.claim(me) {
                        match trace.last_mut() {
                            Some(last) if last.end == task.start => last.end = task.end,
                            _ => trace.push(task.clone()),
                        }
                        miner.run(task, &mut sink);
                    }
                    (sink.count, trace)
                })
            })
            .collect();
        let mut total = 0u64;
        let mut traces = Vec::with_capacity(threads);
        for w in workers {
            // §11: same policy as the infallible entry point above — a
            // worker panic is fatal for the untraced and traced paths alike.
            #[allow(clippy::expect_used)] // §11: justified above
            let (count, trace) = w.join().expect("mining worker panicked");
            total += count;
            traces.push(trace);
        }
        (total, traces)
    })
}

/// Fallible counterpart of [`count_plan_parallel`]: worker panics are
/// isolated per task instead of aborting the process.
///
/// # Errors
///
/// Returns [`EngineError::WorkerPanic`] naming every failed root partition.
pub fn try_count_plan_parallel(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
) -> Result<u64, EngineError> {
    try_count_plan_parallel_with(graph, plan, threads, &EngineConfig::default())
}

/// Fallible counterpart of [`count_plan_parallel_with`].
///
/// Every claimed root runs under `catch_unwind`; a panicking root is
/// recorded (as its one-root partition, with the panic message), the
/// worker's miner is rebuilt — a panic can leave scratch state mid-DFS —
/// and mining continues with the remaining roots so *all* failures of a run
/// are reported at once. On any failure the whole count is discarded: a
/// partial count would silently under-report.
///
/// On success the count is bit-identical to [`count_plan_parallel_with`].
///
/// # Errors
///
/// Returns [`EngineError::WorkerPanic`] carrying the failed partitions in
/// ascending root order.
pub fn try_count_plan_parallel_with(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
) -> Result<u64, EngineError> {
    try_count_plan_parallel_shared(
        graph,
        plan,
        threads,
        config,
        config.hub_set(graph),
        &CancelToken::new(),
    )
}

/// The engine's full-featured counting entry point: fallible, cancellable,
/// and hub-sharing. Everything `try_count_plan_parallel_with` does, plus:
///
/// - `hubs` is taken pre-identified instead of recomputed, so a resident
///   graph store (the service's storage layer) can run top-k hub selection
///   once at load time and share one `Arc<HubSet>` across every query that
///   ever touches the graph;
/// - `cancel` is polled by every worker before each claimed root; once it
///   fires, all workers stop promptly, every partial count is discarded,
///   and the call returns [`EngineError::Cancelled`] — never a partial
///   total.
///
/// On success the count is bit-identical to [`count_plan_parallel_with`]
/// for every thread count, token state, and hub set: cancellation is
/// observed or it is not, and an uncancelled run reduces the same
/// per-worker sums. A run that *completes* just as its deadline passes
/// still returns its (complete, correct) count: cancellation is only
/// reported when a worker actually stopped early.
///
/// # Errors
///
/// [`EngineError::InvalidPlan`] before any worker runs,
/// [`EngineError::Cancelled`] when the token interrupted the run, and
/// [`EngineError::WorkerPanic`] naming every failed root partition.
pub fn try_count_plan_parallel_shared(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
    hubs: Option<Arc<HubSet>>,
    cancel: &CancelToken,
) -> Result<u64, EngineError> {
    try_count_plan_parallel_governed(graph, plan, threads, config, hubs, cancel, None)
}

/// The governed form of [`try_count_plan_parallel_shared`]: everything it
/// does, plus memory governance. When `config.query_mem_budget` is set or
/// a `global_gauge` is supplied, the run meters its scratch footprint on a
/// per-query gauge (a child of `global_gauge` when one is given, so the
/// daemon's process-wide gauge sees every query's bytes). Workers publish
/// at root boundaries — the cancellation cadence — and a budget
/// violation aborts the whole run with
/// [`EngineError::MemBudgetExceeded`] under the cancellation contract:
/// all-or-nothing, no partial count, gauge back to baseline on return.
///
/// # Errors
///
/// Everything [`try_count_plan_parallel_shared`] returns, plus
/// [`EngineError::MemBudgetExceeded`].
pub fn try_count_plan_parallel_governed(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    threads: usize,
    config: &EngineConfig,
    hubs: Option<Arc<HubSet>>,
    cancel: &CancelToken,
    global_gauge: Option<&MemGauge>,
) -> Result<u64, EngineError> {
    // Fail fast before spawning anything: an unsound plan would read
    // unmaterialized buffers or miscount in every worker at once.
    let report = fingers_verify::verify(plan);
    if !report.is_sound() {
        return Err(EngineError::InvalidPlan { report });
    }
    // One shared gauge for the whole query; each worker's miner publishes
    // its own footprint into it. Skipped entirely (no atomics anywhere)
    // when neither a budget nor a global gauge asks for metering.
    let query_gauge = if config.query_mem_budget.is_some() || global_gauge.is_some() {
        Some(global_gauge.map_or_else(MemGauge::new, MemGauge::child))
    } else {
        None
    };
    let threads = effective_threads(threads, graph.vertex_count());
    let pool = RangePool::new(graph.vertex_count(), threads);
    let failures: Mutex<Vec<PartitionFailure>> = Mutex::new(Vec::new());
    // Set by any worker that *observed* the token and stopped early; the
    // final verdict reads this rather than the token so a run that finished
    // all its tasks before the deadline passed is still a success.
    let interrupted = AtomicBool::new(false);
    // Bytes in use at the boundary where some worker saw the budget blown
    // (0 = no violation; a violation always involves used > budget ≥ 0).
    let over_budget = AtomicU64::new(0);
    let new_miner = || {
        let mut miner = PlanMiner::with_hubs(graph, plan, hubs.clone(), config);
        if let Some(gauge) = &query_gauge {
            miner.attach_gauge(gauge.clone(), config.query_mem_budget);
        }
        miner
    };
    let worker = |me: usize| {
        let mut miner = new_miner();
        let mut local = 0u64;
        loop {
            if cancel.is_cancelled() {
                // ord: relaxed(flag only latches true; the scope join synchronizes before into_inner reads it)
                interrupted.store(true, Ordering::Relaxed);
                break;
            }
            let Some(task) = pool.claim(me) else { break };
            let mut sink = CountSink::default();
            match catch_unwind(AssertUnwindSafe(|| {
                // Chaos worker-panic site: inside the per-task isolation,
                // so an injected death surfaces exactly like a real one.
                crate::chaos::maybe_panic_worker();
                miner.run_governed(task.clone(), &mut sink, cancel)
            })) {
                Ok(Ok(())) => local += sink.count,
                Ok(Err(RunHalt::Cancelled)) => {
                    // Interrupted mid-task: the sink holds a partial tally
                    // for this task — drop it and stop claiming.
                    // ord: relaxed(flag only latches true; the scope join synchronizes before into_inner reads it)
                    interrupted.store(true, Ordering::Relaxed);
                    break;
                }
                Ok(Err(RunHalt::MemBudget { used_bytes, .. })) => {
                    // ord: relaxed(monotone max of a scalar; read only after the scope join)
                    over_budget.fetch_max(used_bytes, Ordering::Relaxed);
                    break;
                }
                Err(payload) => {
                    // lock: failures
                    failures
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(PartitionFailure {
                            task,
                            message: panic_message(payload),
                        });
                    // The miner's scratch state is mid-DFS; rebuild it
                    // before touching the next task.
                    miner = new_miner();
                }
            }
        }
        local
    };
    let total: u64 = if threads <= 1 {
        worker(0)
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|me| {
                    let worker = &worker;
                    scope.spawn(move || worker(me))
                })
                .collect();
            workers
                .into_iter()
                // §11: each worker body is wrapped in catch_unwind, so the join
                // handle itself cannot carry a panic; one escaping means the
                // isolation wrapper is broken.
                .map(
                    #[allow(clippy::expect_used)] // §11: justified above
                    |w| w.join().expect("isolated worker cannot panic"),
                )
                .sum()
        })
    };
    let mut failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
    if !failures.is_empty() {
        // Root order, not claim order: a steal schedule has no global claim
        // sequence, and root order is deterministic for reporting either way
        // (tasks never overlap, so starts are unique).
        failures.sort_by_key(|f| f.task.start);
        return Err(EngineError::WorkerPanic { failures });
    }
    if interrupted.into_inner() {
        return Err(EngineError::Cancelled {
            // A worker only sets `interrupted` after seeing the token
            // cancelled, and tokens never un-cancel, so a kind is always
            // available; `Explicit` is an unreachable fallback.
            kind: cancel.kind().unwrap_or(CancelKind::Explicit),
        });
    }
    let used_bytes = over_budget.into_inner();
    if used_bytes > 0 {
        return Err(EngineError::MemBudgetExceeded {
            used_bytes,
            // A MemBudget halt can only come from a governed miner, which
            // only enforces a budget when the config carries one; 0 is an
            // unreachable fallback.
            budget_bytes: config.query_mem_budget.unwrap_or_default(),
        });
    }
    Ok(total)
}

/// Fallible counterpart of [`count_multi_parallel`].
///
/// # Errors
///
/// Returns the first constituent plan's [`EngineError`] (per-plan counting
/// stops at the first failing plan).
pub fn try_count_multi_parallel(
    graph: &CsrGraph,
    multi: &MultiPlan,
    threads: usize,
) -> Result<MineOutcome, EngineError> {
    try_count_multi_parallel_with(graph, multi, threads, &EngineConfig::default())
}

/// Fallible counterpart of [`count_multi_parallel_with`].
///
/// # Errors
///
/// Returns the first constituent plan's [`EngineError`].
pub fn try_count_multi_parallel_with(
    graph: &CsrGraph,
    multi: &MultiPlan,
    threads: usize,
    config: &EngineConfig,
) -> Result<MineOutcome, EngineError> {
    Ok(MineOutcome {
        per_pattern: multi
            .plans()
            .iter()
            .map(|p| try_count_plan_parallel_with(graph, p, threads, config))
            .collect::<Result<_, _>>()?,
    })
}

/// Fallible counterpart of [`count_benchmark_parallel`].
///
/// # Errors
///
/// Returns the first constituent plan's [`EngineError`].
pub fn try_count_benchmark_parallel(
    graph: &CsrGraph,
    benchmark: Benchmark,
    threads: usize,
) -> Result<MineOutcome, EngineError> {
    try_count_multi_parallel(graph, &benchmark.plan(), threads)
}

/// Fallible counterpart of [`count_benchmark_parallel_with`].
///
/// # Errors
///
/// Returns the first constituent plan's [`EngineError`].
pub fn try_count_benchmark_parallel_with(
    graph: &CsrGraph,
    benchmark: Benchmark,
    threads: usize,
    config: &EngineConfig,
) -> Result<MineOutcome, EngineError> {
    try_count_multi_parallel_with(graph, &benchmark.plan(), threads, config)
}

/// Counts every pattern of a multi-plan with `threads` workers per plan.
///
/// Per-pattern counts equal [`crate::count_multi`]'s exactly.
pub fn count_multi_parallel(graph: &CsrGraph, multi: &MultiPlan, threads: usize) -> MineOutcome {
    count_multi_parallel_with(graph, multi, threads, &EngineConfig::default())
}

/// Counts every pattern of a multi-plan with `threads` workers per plan
/// under an explicit engine config.
pub fn count_multi_parallel_with(
    graph: &CsrGraph,
    multi: &MultiPlan,
    threads: usize,
    config: &EngineConfig,
) -> MineOutcome {
    MineOutcome {
        per_pattern: multi
            .plans()
            .iter()
            .map(|p| count_plan_parallel_with(graph, p, threads, config))
            .collect(),
    }
}

/// Counts one of the paper's benchmark workloads with `threads` workers.
pub fn count_benchmark_parallel(
    graph: &CsrGraph,
    benchmark: Benchmark,
    threads: usize,
) -> MineOutcome {
    count_multi_parallel(graph, &benchmark.plan(), threads)
}

/// Counts a benchmark workload with `threads` workers under an explicit
/// engine config.
pub fn count_benchmark_parallel_with(
    graph: &CsrGraph,
    benchmark: Benchmark,
    threads: usize,
    config: &EngineConfig,
) -> MineOutcome {
    count_multi_parallel_with(graph, &benchmark.plan(), threads, config)
}

/// Runs `worker` once per claimed one-root task on each of `threads`
/// scoped threads (once over the whole range when serial), summing the
/// returned counts. The generic scaffold the brute-force and ESU oracles
/// reuse for their root-partitioned variants.
///
/// `worker(task)` must be a pure function of the task (plus captured shared
/// state) and additive over splits of its range for the sum to be
/// schedule-independent.
///
/// # Panics
///
/// Re-raises any panic from `worker`.
pub fn sum_over_root_tasks<W>(vertex_count: usize, threads: usize, worker: W) -> u64
where
    W: Fn(&MiningTask) -> u64 + Sync,
{
    let threads = effective_threads(threads, vertex_count);
    if threads <= 1 {
        return MiningTask::partition(vertex_count, 1)
            .iter()
            .map(&worker)
            .sum();
    }
    let pool = RangePool::new(vertex_count, threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|me| {
                let pool = &pool;
                let worker = &worker;
                scope.spawn(move || {
                    let mut local = 0u64;
                    while let Some(task) = pool.claim(me) {
                        local += worker(&task);
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            // §11: the oracle path has no panic isolation by design —
            // a panic in the reference counter is always a bug.
            .map(
                #[allow(clippy::expect_used)] // §11: justified above
                |w| w.join().expect("oracle worker panicked"),
            )
            .sum()
    })
}

/// Fallible counterpart of [`sum_over_root_tasks`]: each `worker(task)`
/// call runs under `catch_unwind`, panics are collected per one-root task,
/// and the remaining roots still run. The panic-injection seam the
/// fault-tolerance tests drive, and the scaffold fallible oracle variants
/// can reuse.
///
/// # Errors
///
/// Returns [`EngineError::WorkerPanic`] carrying every failed root in
/// ascending order.
pub fn try_sum_over_root_tasks<W>(
    vertex_count: usize,
    threads: usize,
    worker: W,
) -> Result<u64, EngineError>
where
    W: Fn(&MiningTask) -> u64 + Sync,
{
    try_sum_over_root_tasks_cancellable(vertex_count, threads, &CancelToken::new(), worker)
}

/// Cancellable counterpart of [`try_sum_over_root_tasks`]: workers
/// additionally poll `cancel` before claiming each root and stop once it
/// fires.
///
/// # Errors
///
/// [`EngineError::Cancelled`] when the token interrupted the run (the
/// partial sum is discarded), else [`EngineError::WorkerPanic`] as for the
/// plain variant.
pub fn try_sum_over_root_tasks_cancellable<W>(
    vertex_count: usize,
    threads: usize,
    cancel: &CancelToken,
    worker: W,
) -> Result<u64, EngineError>
where
    W: Fn(&MiningTask) -> u64 + Sync,
{
    let threads = effective_threads(threads, vertex_count);
    let pool = RangePool::new(vertex_count, threads);
    let failures: Mutex<Vec<PartitionFailure>> = Mutex::new(Vec::new());
    let interrupted = AtomicBool::new(false);
    let isolated = |me: usize| {
        let mut local = 0u64;
        loop {
            if cancel.is_cancelled() {
                // ord: relaxed(flag only latches true; the scope join synchronizes before into_inner reads it)
                interrupted.store(true, Ordering::Relaxed);
                break;
            }
            let Some(task) = pool.claim(me) else { break };
            match catch_unwind(AssertUnwindSafe(|| worker(&task))) {
                Ok(n) => local += n,
                // lock: failures
                Err(payload) => failures
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(PartitionFailure {
                        task,
                        message: panic_message(payload),
                    }),
            }
        }
        local
    };
    let total: u64 = if threads <= 1 {
        isolated(0)
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|me| {
                    let isolated = &isolated;
                    scope.spawn(move || isolated(me))
                })
                .collect();
            workers
                .into_iter()
                // §11: each worker body is wrapped in catch_unwind, so the join
                // handle itself cannot carry a panic; one escaping means the
                // isolation wrapper is broken.
                .map(
                    #[allow(clippy::expect_used)] // §11: justified above
                    |w| w.join().expect("isolated worker cannot panic"),
                )
                .sum()
        })
    };
    let mut failures = failures.into_inner().unwrap_or_else(|p| p.into_inner());
    if !failures.is_empty() {
        failures.sort_by_key(|f| f.task.start);
        return Err(EngineError::WorkerPanic { failures });
    }
    if interrupted.into_inner() {
        return Err(EngineError::Cancelled {
            kind: cancel.kind().unwrap_or(CancelKind::Explicit),
        });
    }
    Ok(total)
}

/// Clamps a requested thread count to something useful: at least 1, and no
/// more than the number of roots (extra workers would only spin on an empty
/// task queue).
fn effective_threads(requested: usize, vertex_count: usize) -> usize {
    requested.max(1).min(vertex_count.max(1))
}

/// Mines `task` with a fresh sink and returns it — convenience for callers
/// driving [`PlanMiner`] task-by-task (bench harness, tests).
pub fn run_task<S: Sink + Default>(miner: &mut PlanMiner<'_, '_>, task: MiningTask) -> S {
    let mut sink = S::default();
    miner.run(task, &mut sink);
    sink
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_plan;
    use fingers_graph::gen::erdos_renyi;
    use fingers_pattern::{ExecutionPlan, Induced, Pattern};

    #[test]
    fn parallel_equals_sequential_for_every_thread_count() {
        let g = erdos_renyi(60, 240, 11);
        for p in [
            Pattern::triangle(),
            Pattern::four_cycle(),
            Pattern::clique(4),
        ] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            let expected = count_plan(&g, &plan);
            for threads in [0, 1, 2, 3, 4, 8] {
                assert_eq!(
                    count_plan_parallel(&g, &plan, threads),
                    expected,
                    "{p} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn multi_plan_parallel_matches_sequential() {
        let g = erdos_renyi(40, 150, 3);
        for b in [Benchmark::Mc3, Benchmark::Tc] {
            let seq = crate::count_benchmark(&g, b);
            assert_eq!(count_benchmark_parallel(&g, b, 4), seq, "{b}");
        }
    }

    #[test]
    fn parallel_configs_agree_with_sequential_baseline() {
        // Bitmap on/off × thread counts all land on the same counts.
        let g = erdos_renyi(50, 300, 29);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let expected = count_plan_with(&g, &plan, &EngineConfig::without_bitmap());
        for cfg in [EngineConfig::without_bitmap(), EngineConfig::default()] {
            for threads in [1, 2, 4] {
                assert_eq!(
                    count_plan_parallel_with(&g, &plan, threads, &cfg),
                    expected,
                    "{threads} threads under {cfg:?}"
                );
            }
        }
    }

    fn hub_first_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut cfg = fingers_graph::gen::ChungLuConfig::new(n, m, seed);
        cfg.exponent = 1.9;
        fingers_graph::gen::chung_lu_power_law(&cfg)
    }

    #[test]
    fn range_stealing_agrees_with_serial_on_hub_heavy_graphs() {
        // A power-law graph concentrates work in a few low-id roots — the
        // regime stealing exists for. Counts must be bit-identical across
        // thread counts and simd settings, on both entry points.
        let g = hub_first_graph(500, 6_000, 42);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        for cfg in [EngineConfig::default(), EngineConfig::without_simd()] {
            for threads in [1, 2, 3, 4, 8] {
                assert_eq!(
                    count_plan_parallel_with(&g, &plan, threads, &cfg),
                    expected,
                    "{threads} threads under {cfg:?}"
                );
                assert_eq!(
                    try_count_plan_parallel_with(&g, &plan, threads, &cfg).expect("no panic"),
                    expected,
                    "fallible path, {threads} threads under {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn stealing_survives_task_splits_with_few_tasks() {
        // Nearly as many workers as roots: with 9 vertices and 8 workers
        // every range is seeded with one or two roots, so thieves cut
        // one-root ranges and most scans end on an empty pool.
        let g = erdos_renyi(9, 20, 5);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        for threads in [2, 8] {
            assert_eq!(count_plan_parallel(&g, &plan, threads), expected);
        }
    }

    #[test]
    fn trace_partitions_roots_into_coalesced_ranges() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        let cfg = EngineConfig::default();
        for threads in [1, 2, 4] {
            let (total, traces) = count_plan_parallel_trace(&g, &plan, threads, &cfg);
            assert_eq!(total, expected, "{threads} threads");
            assert_eq!(traces.len(), threads);
            for trace in &traces {
                for pair in trace.windows(2) {
                    assert_ne!(pair[0].end, pair[1].start, "adjacent claims coalesce");
                }
            }
            let mut roots: Vec<_> = traces
                .iter()
                .flatten()
                .flat_map(MiningTask::roots)
                .collect();
            roots.sort_unstable();
            let everything: Vec<_> = (0..g.vertex_count() as u32).collect();
            assert_eq!(roots, everything, "trace must partition the roots");
        }
        let (_, serial) = count_plan_parallel_trace(&g, &plan, 1, &cfg);
        assert_eq!(serial, vec![vec![MiningTask::all(&g)]]);
    }

    #[test]
    fn two_workers_share_a_hub_first_graph() {
        // Clock-free schedule quality: weigh every root by its serial 4cl
        // embedding count (the hubs, ids first, hold almost all of it) and
        // require that neither of two workers ends up with more than 3/4
        // of the weight. A scheduler that cannot take unstarted roots away
        // from the worker grinding the hub region fails this; the run is
        // long enough that thread start-up skew cannot.
        let g = hub_first_graph(3_000, 36_000, 7);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let cfg = EngineConfig::default();
        let mut miner = PlanMiner::with_hubs(&g, &plan, cfg.hub_set(&g), &cfg);
        let weight: Vec<u64> = MiningTask::all(&g)
            .roots()
            .map(|r| {
                let one = MiningTask {
                    start: r,
                    end: r + 1,
                };
                run_task::<CountSink>(&mut miner, one).count
            })
            .collect();
        let expected: u64 = weight.iter().sum();
        let (total, traces) = count_plan_parallel_trace(&g, &plan, 2, &cfg);
        assert_eq!(total, expected);
        let held = |trace: &Vec<MiningTask>| -> u64 {
            trace
                .iter()
                .flat_map(MiningTask::roots)
                .map(|r| weight[r as usize])
                .sum()
        };
        let heavier = traces.iter().map(held).max().expect("two workers");
        if std::thread::available_parallelism().map_or(1, usize::from) > 1 {
            assert!(
                heavier * 4 <= expected * 3,
                "one worker mined {heavier} of {expected} embeddings: {:?}",
                traces.iter().map(Vec::len).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn more_threads_than_vertices_is_fine() {
        let g = erdos_renyi(5, 6, 1);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        assert_eq!(count_plan_parallel(&g, &plan, 64), count_plan(&g, &plan));
    }

    #[test]
    fn empty_graph_parallel_counts_zero() {
        let g = fingers_graph::GraphBuilder::new().vertex_count(0).build();
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        assert_eq!(count_plan_parallel(&g, &plan, 4), 0);
    }

    #[test]
    fn sum_over_root_tasks_partitions_work() {
        // Sum of task lengths = vertex count, for any thread count.
        for threads in [1, 2, 5] {
            let total = sum_over_root_tasks(97, threads, |t| t.len() as u64);
            assert_eq!(total, 97);
        }
    }

    #[test]
    fn tiny_mem_budget_aborts_all_or_nothing_and_gauge_returns_to_baseline() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let global = MemGauge::new();
        for threads in [1, 2, 4] {
            // 1 byte: the first root boundary after any scratch retention
            // must trip it, for every thread count and scheduler.
            let cfg = EngineConfig::with_query_mem_budget(1);
            let err = try_count_plan_parallel_governed(
                &g,
                &plan,
                threads,
                &cfg,
                cfg.hub_set(&g),
                &CancelToken::new(),
                Some(&global),
            )
            .expect_err("1-byte budget must abort");
            let (used, budget) = err.mem_budget().expect("typed budget error");
            assert!(used > budget, "{used} must exceed {budget}");
            assert_eq!(budget, 1);
            assert_eq!(
                global.bytes(),
                0,
                "aborted query must release everything it published"
            );
        }
        assert!(global.peak_bytes() > 0, "the abort metered real bytes");
    }

    #[test]
    fn generous_mem_budget_changes_nothing_and_meters_the_run() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let expected = count_plan(&g, &plan);
        let global = MemGauge::new();
        for threads in [1, 4] {
            let cfg = EngineConfig::with_query_mem_budget(64 << 20);
            let total = try_count_plan_parallel_governed(
                &g,
                &plan,
                threads,
                &cfg,
                cfg.hub_set(&g),
                &CancelToken::new(),
                Some(&global),
            )
            .expect("generous budget never aborts");
            assert_eq!(total, expected, "{threads} threads");
            assert_eq!(global.bytes(), 0, "gauge back to baseline after the run");
        }
        assert!(
            global.peak_bytes() > 0,
            "a bitmap-tier clique count retains metered scratch"
        );
    }

    #[test]
    fn ungoverned_shared_entry_is_unchanged() {
        let g = erdos_renyi(40, 150, 3);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let cfg = EngineConfig::default();
        assert_eq!(
            try_count_plan_parallel_shared(
                &g,
                &plan,
                4,
                &cfg,
                cfg.hub_set(&g),
                &CancelToken::new()
            )
            .expect("no governance, no abort"),
            count_plan(&g, &plan),
        );
    }

    #[test]
    fn try_count_matches_infallible_on_success() {
        let g = erdos_renyi(60, 240, 11);
        for p in [Pattern::triangle(), Pattern::clique(4)] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            let expected = count_plan(&g, &plan);
            for threads in [1, 2, 4] {
                assert_eq!(
                    try_count_plan_parallel(&g, &plan, threads).expect("no panic"),
                    expected,
                    "{p} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn try_count_multi_matches_sequential() {
        let g = erdos_renyi(40, 150, 3);
        for b in [Benchmark::Mc3, Benchmark::Tc] {
            let seq = crate::count_benchmark(&g, b);
            assert_eq!(
                try_count_benchmark_parallel(&g, b, 4).expect("no panic"),
                seq,
                "{b}"
            );
        }
    }

    #[test]
    fn isolated_scaffold_reports_failed_partitions_and_survives() {
        // Panic in the task containing root 50; every other task still runs
        // and the process survives at every thread count.
        for threads in [1, 2, 4] {
            let err = try_sum_over_root_tasks(97, threads, |t| {
                assert!(!t.roots().any(|r| r == 50), "injected failure");
                t.len() as u64
            })
            .expect_err("one task must fail");
            let failures = err.failed_partitions();
            assert_eq!(failures.len(), 1, "{threads} threads");
            let task = &failures[0].task;
            assert!(task.start <= 50 && 50 < task.end, "{task:?}");
            assert!(failures[0].message.contains("injected failure"));
            assert!(err.to_string().contains("1 mining task panicked"));
        }
    }

    #[test]
    fn isolated_scaffold_collects_every_failure() {
        // Three poisoned roots in distinct partitions → three failures, in
        // ascending root order (a steal schedule has no global claim order).
        let poisoned = [5u32, 40, 90];
        let err = try_sum_over_root_tasks(97, 2, |t| {
            if t.roots().any(|r| poisoned.contains(&r)) {
                panic!("poisoned root in [{}, {})", t.start, t.end);
            }
            t.len() as u64
        })
        .expect_err("three tasks must fail");
        let failures = err.failed_partitions();
        assert_eq!(failures.len(), 3, "{failures:?}");
        for w in failures.windows(2) {
            assert!(
                w[0].task.start < w[1].task.start,
                "root order: {failures:?}"
            );
        }
    }

    #[test]
    fn isolated_scaffold_succeeds_without_failures() {
        for threads in [1, 3] {
            let total = try_sum_over_root_tasks(97, threads, |t| t.len() as u64);
            assert_eq!(total.expect("no panics"), 97);
        }
    }

    #[test]
    fn shared_entry_with_live_token_is_bit_identical() {
        let g = erdos_renyi(60, 240, 11);
        let cfg = EngineConfig::default();
        for p in [Pattern::triangle(), Pattern::clique(4)] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            let expected = count_plan(&g, &plan);
            for threads in [1, 2, 4] {
                let got = try_count_plan_parallel_shared(
                    &g,
                    &plan,
                    threads,
                    &cfg,
                    cfg.hub_set(&g),
                    &CancelToken::new(),
                )
                .expect("live token must not cancel");
                assert_eq!(got, expected, "{p} at {threads} threads");
            }
        }
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_not_partial() {
        let g = erdos_renyi(60, 240, 11);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let cfg = EngineConfig::default();
        for threads in [1, 4] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let err = try_count_plan_parallel_shared(&g, &plan, threads, &cfg, None, &cancel)
                .expect_err("cancelled before any task ran");
            assert_eq!(err.cancel_kind(), Some(CancelKind::Explicit), "{err}");
            assert!(err.failed_partitions().is_empty());
        }
    }

    #[test]
    fn expired_deadline_yields_deadline_kind() {
        let g = erdos_renyi(40, 150, 3);
        let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let cancel = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let err =
            try_count_plan_parallel_shared(&g, &plan, 2, &EngineConfig::default(), None, &cancel)
                .expect_err("deadline already passed");
        assert_eq!(err.cancel_kind(), Some(CancelKind::Deadline));
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn mid_run_cancel_stops_workers_and_discards_counts() {
        // A timer thread cancels while workers grind a slow 5-clique count;
        // the run must return Cancelled (never a partial count) and every
        // scoped worker is joined before the entry point returns, proving
        // the pool is reclaimed.
        let g = fingers_graph::gen::chung_lu_power_law(&fingers_graph::gen::ChungLuConfig::new(
            3_000, 36_000, 7,
        ));
        let plan = ExecutionPlan::compile(&Pattern::clique(5), Induced::Vertex);
        let cancel = CancelToken::new();
        let canceller = {
            let token = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        let res =
            try_count_plan_parallel_shared(&g, &plan, 4, &EngineConfig::default(), None, &cancel);
        canceller.join().expect("canceller thread");
        match res {
            Err(e) => assert_eq!(e.cancel_kind(), Some(CancelKind::Explicit), "{e}"),
            // If the machine is fast enough to finish in <20ms the count
            // must be the full, correct one — never something in between.
            Ok(n) => assert_eq!(n, count_plan(&g, &plan)),
        }
    }

    #[test]
    fn cancellable_scaffold_cancels_and_succeeds() {
        let cancel = CancelToken::new();
        for threads in [1, 3] {
            let total =
                try_sum_over_root_tasks_cancellable(97, threads, &cancel, |t| t.len() as u64);
            assert_eq!(total.expect("live token"), 97);
        }
        cancel.cancel();
        let err = try_sum_over_root_tasks_cancellable(97, 2, &cancel, |t| t.len() as u64)
            .expect_err("cancelled");
        assert_eq!(err.cancel_kind(), Some(CancelKind::Explicit));
    }

    #[test]
    fn shared_entry_rejects_unsound_plan_before_running() {
        let g = erdos_renyi(10, 20, 1);
        let sound = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
        let unsound = fingers_verify::PlanMutation::DropInit
            .apply(&sound)
            .expect("drop-init applies to the triangle plan");
        let err = try_count_plan_parallel_shared(
            &g,
            &unsound,
            2,
            &EngineConfig::default(),
            None,
            &CancelToken::new(),
        )
        .expect_err("unsound plan must be rejected");
        assert!(matches!(err, EngineError::InvalidPlan { .. }), "{err}");
    }
}
