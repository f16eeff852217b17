//! Scheduler layer: a bounded worker pool with admission control,
//! per-query thread budgets, deadlines, cooperative cancellation, and a
//! memory-pressure degradation ladder.
//!
//! Queries enter through a bounded queue; when it is full the submit is
//! rejected *immediately* with [`SubmitError::Overloaded`] — the typed
//! back-pressure signal the protocol layer turns into an `overloaded`
//! response instead of letting latency collapse for everyone. Each worker
//! drains the queue and executes one query at a time through the engine's
//! governed entry point, so a fired [`CancelToken`] (client cancel,
//! deadline, shutdown) stops the query at the next root-task boundary and
//! the pool thread survives to serve the next query — cancellation never
//! poisons the pool.
//!
//! # Memory governance (DESIGN.md §15)
//!
//! The scheduler owns the process's global [`MemGauge`]; every query's
//! metered footprint (scratch arenas, bitmap caches, listing sinks, plus
//! the session plan cache) rolls up into it. When
//! [`SchedulerConfig::mem_budget`] is set, gauge pressure drives a
//! degradation ladder instead of an OOM kill:
//!
//! 1. ≥ 70 % — **shrink** new queries' per-worker bitmap caches;
//! 2. ≥ 85 % — additionally **disable** the bitmap tier and **clamp** new
//!    queries to one thread (counts are identical under every engine
//!    config, so degraded queries stay bit-exact);
//! 3. ≥ 95 % — **shed**: reject new submissions and drop queued work
//!    (earliest deadline first) with a typed `overloaded` carrying
//!    `retry_after_ms`, so well-behaved clients back off instead of
//!    hammering a drowning daemon.
//!
//! # Self-healing
//!
//! Engine panics are already isolated per task and surface as typed
//! errors. A pool thread itself dying (the chaos harness injects exactly
//! this) is healed by a phoenix guard: the unwinding thread's `Drop`
//! respawns a replacement worker and bumps `pool_rebuilds`, so the pool
//! never shrinks below its configured size. The in-flight query's reply
//! channel drops, which the daemon reports as a typed engine failure —
//! subsequent queries run on the rebuilt pool, and the socket never
//! closes.
//!
//! The per-task dispatch below is on the service's hot path: one queue
//! hand-off and zero allocations per *task*; the waived allocations are
//! strictly per *query* (bounded by pattern count), never per embedding.
// lint: hot-path(alloc)

use fingers_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fingers_conc::sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

// lint: lock-order(active < queue < workers)

use fingers_mining::{
    try_count_plan_parallel_governed, CancelToken, EngineConfig, EngineError, MemGauge,
};
use fingers_pattern::ExecutionPlan;

use crate::storage::StoredGraph;

/// Gauge percentage of `mem_budget` at which new queries' bitmap caches
/// are shrunk to [`DEGRADED_CACHE_SLOTS`].
pub const PRESSURE_SHRINK_PCT: u64 = 70;
/// Gauge percentage at which the bitmap tier is disabled and new queries
/// are clamped to one thread.
pub const PRESSURE_CLAMP_PCT: u64 = 85;
/// Gauge percentage at which queued work is shed and new submissions are
/// rejected with a `retry_after_ms` hint.
pub const PRESSURE_SHED_PCT: u64 = 95;
/// Per-worker bitmap-cache slots under the shrink rung of the ladder.
pub const DEGRADED_CACHE_SLOTS: usize = 8;

/// Sizing and policy of the scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker pool size (concurrent queries).
    pub workers: usize,
    /// Queued (admitted, not yet running) query limit; a full queue
    /// rejects new submissions with [`SubmitError::Overloaded`].
    pub queue_depth: usize,
    /// Hard cap on any single query's thread budget.
    pub max_threads_per_query: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_timeout: Option<Duration>,
    /// Global metered-memory budget in bytes driving the degradation
    /// ladder (`None` = no ladder; the gauge still meters).
    pub mem_budget: Option<u64>,
    /// Back-off hint attached to pressure-shed rejections, in
    /// milliseconds.
    pub retry_after_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            workers: cores.clamp(1, 4),
            queue_depth: 16,
            max_threads_per_query: cores,
            default_timeout: None,
            mem_budget: None,
            retry_after_ms: 100,
        }
    }
}

/// Rungs of the memory-pressure degradation ladder, derived on demand
/// from the global gauge against [`SchedulerConfig::mem_budget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// Below every threshold: queries run with their requested budget.
    Normal,
    /// ≥ 70 % of budget: new queries get [`DEGRADED_CACHE_SLOTS`]
    /// bitmap-cache slots per worker.
    ShrinkCaches,
    /// ≥ 85 %: bitmap tier off, new queries clamped to one thread.
    ClampThreads,
    /// ≥ 95 %: queued work is shed and new submissions rejected with a
    /// `retry_after_ms` hint.
    Shed,
}

impl Degradation {
    /// Stable wire word for ping/stats responses.
    pub fn as_str(self) -> &'static str {
        match self {
            Degradation::Normal => "normal",
            Degradation::ShrinkCaches => "shrink-caches",
            Degradation::ClampThreads => "clamp-threads",
            Degradation::Shed => "shed",
        }
    }

    /// Numeric rung (0–3) for machine consumers.
    pub fn level(self) -> u8 {
        match self {
            Degradation::Normal => 0,
            Degradation::ShrinkCaches => 1,
            Degradation::ClampThreads => 2,
            Degradation::Shed => 3,
        }
    }
}

/// The ladder rung for `bytes` of metered memory under `budget`.
pub(crate) fn degradation_for(bytes: u64, budget: Option<u64>) -> Degradation {
    let Some(budget) = budget else {
        return Degradation::Normal;
    };
    if budget == 0 {
        return Degradation::Shed;
    }
    let pct = (u128::from(bytes) * 100 / u128::from(budget)) as u64;
    if pct >= PRESSURE_SHED_PCT {
        Degradation::Shed
    } else if pct >= PRESSURE_CLAMP_PCT {
        Degradation::ClampThreads
    } else if pct >= PRESSURE_SHRINK_PCT {
        Degradation::ShrinkCaches
    } else {
        Degradation::Normal
    }
}

/// One admitted query: everything a worker needs to run it.
#[derive(Debug)]
pub struct Job {
    /// The resident graph (shared CSR + precomputed hubs).
    pub graph: Arc<StoredGraph>,
    /// Verified plans to count, in request order.
    pub plans: Vec<Arc<ExecutionPlan>>,
    /// Requested thread budget (clamped to the scheduler's cap).
    pub threads: usize,
    /// The query's cancellation token (deadline already armed if any).
    pub cancel: CancelToken,
    /// Engine configuration for this query.
    pub config: EngineConfig,
}

/// Why an admitted job did not produce counts.
#[derive(Debug)]
pub enum JobError {
    /// The engine failed: cancellation, deadline, isolated panic, or a
    /// tripped per-query memory budget.
    Engine(EngineError),
    /// The job was shed from the queue under memory pressure; the client
    /// should retry after the hinted delay.
    Shed {
        /// Back-off hint, in milliseconds.
        retry_after_ms: u64,
    },
}

impl JobError {
    /// The engine's cancellation kind, when this failure is one.
    pub fn cancel_kind(&self) -> Option<fingers_mining::CancelKind> {
        match self {
            JobError::Engine(e) => e.cancel_kind(),
            JobError::Shed { .. } => None,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Engine(e) => write!(f, "{e}"),
            JobError::Shed { retry_after_ms } => write!(
                f,
                "query shed under memory pressure; retry after {retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// What the worker sends back: per-plan counts in request order, or the
/// first failure (cancellation, deadline, panic isolation, memory budget,
/// pressure shed).
pub type JobResult = Result<Vec<u64>, JobError>;

/// Why a submission was not admitted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its depth limit (no hint) or the scheduler is
    /// shedding under memory pressure (`retry_after_ms` set); retry later.
    Overloaded {
        /// The configured queue depth that was exceeded.
        queue_depth: usize,
        /// Back-off hint when the rejection came from the degradation
        /// ladder rather than a full queue.
        retry_after_ms: Option<u64>,
    },
    /// The scheduler is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded {
                queue_depth,
                retry_after_ms: None,
            } => {
                write!(f, "scheduler overloaded ({queue_depth} queries queued)")
            }
            SubmitError::Overloaded {
                retry_after_ms: Some(ms),
                ..
            } => {
                write!(
                    f,
                    "scheduler shedding under memory pressure; retry after {ms} ms"
                )
            }
            SubmitError::ShuttingDown => write!(f, "scheduler is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Monotonic counters for the stats endpoint.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Queries admitted into the queue.
    pub accepted: AtomicU64,
    /// Queries rejected by admission control.
    pub rejected: AtomicU64,
    /// Queries that completed with counts.
    pub completed: AtomicU64,
    /// Queries that ended cancelled or past deadline.
    pub cancelled: AtomicU64,
    /// Queries that failed (worker panic isolation, memory budget).
    pub failed: AtomicU64,
    /// Queued queries shed by the degradation ladder.
    pub shed: AtomicU64,
    /// Queries executed under a degraded ladder rung (shrunk caches or
    /// clamped threads).
    pub degraded: AtomicU64,
    /// Pool worker threads respawned after a panic killed one.
    pub pool_rebuilds: AtomicU64,
}

type QueueItem = (Job, Sender<JobResult>);

/// The admission queue plus everything a worker thread touches; shared
/// between the scheduler façade and every (re)spawned pool thread.
#[derive(Debug)]
struct Core {
    queue: Mutex<QueueState>,
    ready: Condvar,
    stats: SchedStats,
    gauge: MemGauge,
    config: SchedulerConfig,
    stopping: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<QueueItem>,
    closed: bool,
}

impl Core {
    fn degradation(&self) -> Degradation {
        degradation_for(self.gauge.bytes(), self.config.mem_budget)
    }

    /// Next job for a worker: sheds queued work (earliest deadline first)
    /// while the ladder is at its shed rung, then pops or blocks for new
    /// work. `None` means the queue is closed and drained — the worker
    /// exits.
    fn dequeue(&self) -> Option<QueueItem> {
        // lock: queue
        let mut state = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            while self.degradation() == Degradation::Shed && !state.closed {
                let Some(idx) = earliest_deadline_index(&state.items) else {
                    break;
                };
                let Some((_job, reply)) = state.items.remove(idx) else {
                    break;
                };
                // ord: relaxed(monotonic stats counter)
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                let _ = reply.send(Err(JobError::Shed {
                    retry_after_ms: self.config.retry_after_ms,
                }));
            }
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Executes every plan of one job with the shared graph, shared hub
    /// set, clamped thread budget, the job's token, and the global gauge.
    /// All-or-nothing: the first failing plan discards the query (a
    /// partial per-pattern vector would be indistinguishable from a
    /// complete one).
    ///
    /// The degradation ladder applies here, to *new* executions only:
    /// shrunk or disabled bitmap caches and clamped thread budgets are
    /// pure engine-config changes, so a degraded query's counts stay
    /// bit-identical to an undegraded run — degradation trades speed for
    /// footprint, never correctness.
    ///
    /// The clamped budget composes with the engine's range-stealing root
    /// scheduler: the budget fixes how many workers a query spawns,
    /// stealing only redistributes roots *among* them, so the cap — and
    /// the count — holds under every steal schedule.
    fn run_job(&self, job: &Job) -> Result<Vec<u64>, EngineError> {
        let level = self.degradation();
        let mut threads = job
            .threads
            .clamp(1, self.config.max_threads_per_query.max(1));
        // lint: allow-alloc(per-query config clone, not per task)
        let mut config = job.config.clone();
        // lint: allow-alloc(Arc clone of the shared hub set, no data copy)
        let mut hubs = job.graph.hubs.clone();
        if level >= Degradation::ShrinkCaches {
            // ord: relaxed(monotonic stats counter)
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
            config.bitmap_cache_slots = config.bitmap_cache_slots.min(DEGRADED_CACHE_SLOTS);
        }
        if level >= Degradation::ClampThreads {
            threads = 1;
            config.bitmap_hubs = 0;
            hubs = None;
        }
        // lint: allow-alloc(per-query result vector, bounded by pattern count)
        let mut counts = Vec::with_capacity(job.plans.len());
        for plan in &job.plans {
            let n = try_count_plan_parallel_governed(
                &job.graph.graph,
                plan,
                threads,
                &config,
                // lint: allow-alloc(Arc refcount bump, shares the resident hub set)
                hubs.clone(),
                &job.cancel,
                Some(&self.gauge),
            )?;
            counts.push(n);
        }
        Ok(counts)
    }
}

/// Index of the queued job with the earliest deadline (the one least
/// likely to finish in time under pressure); jobs without deadlines are
/// shed last. `None` when the queue is empty.
fn earliest_deadline_index(items: &VecDeque<QueueItem>) -> Option<usize> {
    if items.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_deadline = items[0].0.cancel.deadline();
    for (i, (job, _)) in items.iter().enumerate().skip(1) {
        let d = job.cancel.deadline();
        let earlier = match (d, best_deadline) {
            (Some(a), Some(b)) => a < b,
            (Some(_), None) => true,
            _ => false,
        };
        if earlier {
            best = i;
            best_deadline = d;
        }
    }
    Some(best)
}

/// Respawns a replacement pool worker when the current one dies by panic
/// (the phoenix pattern): the unwinding thread's `Drop` runs this guard,
/// which — unless the scheduler is shutting down — spawns a fresh worker
/// on the same shared core and bumps `pool_rebuilds`. The pool therefore
/// never shrinks below its configured size, with no supervisor thread or
/// polling loop.
struct Phoenix {
    core: Arc<Core>,
}

impl Drop for Phoenix {
    fn drop(&mut self) {
        // A phoenix must never respawn into a pool that shutdown has
        // begun draining, hence the same strength as shutdown's store.
        // ord: seqcst(cold-path gate pairing with shutdown's seqcst stopping store)
        if std::thread::panicking() && !self.core.stopping.load(Ordering::SeqCst) {
            self.core
                .stats
                .pool_rebuilds
                // ord: relaxed(monotonic stats counter)
                .fetch_add(1, Ordering::Relaxed);
            spawn_worker(&self.core);
        }
    }
}

// lock: acquires(workers)
fn spawn_worker(core: &Arc<Core>) {
    // lint: allow-alloc(pool construction/rebuild, not dispatch)
    let worker_core = Arc::clone(core);
    let handle = std::thread::spawn(move || {
        let _phoenix = Phoenix {
            core: Arc::clone(&worker_core),
        };
        worker_loop(&worker_core);
    });
    // lock: workers
    core.workers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        // lint: allow-alloc(pool construction/rebuild, not dispatch)
        .push(handle);
}

/// One pool thread: dequeue, execute through the governed engine entry
/// point, reply. A query failure (cancelled, deadline, isolated panic,
/// budget) is a *result*, not a pool event — the thread loops on. The
/// chaos probe sits *outside* any catch: an injected scheduler-worker
/// panic genuinely kills this thread, exercising the phoenix rebuild.
fn worker_loop(core: &Arc<Core>) {
    while let Some((job, reply)) = core.dequeue() {
        fingers_mining::chaos::maybe_panic_sched_worker();
        let result = core.run_job(&job).map_err(JobError::Engine);
        match &result {
            // ord: relaxed(monotonic stats counters, all three arms)
            Ok(_) => core.stats.completed.fetch_add(1, Ordering::Relaxed),
            Err(e) if e.cancel_kind().is_some() => {
                core.stats.cancelled.fetch_add(1, Ordering::Relaxed)
            }
            // ord: relaxed(monotonic stats counter)
            Err(_) => core.stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        // A vanished requester (client hung up) is fine; drop the result.
        let _ = reply.send(result);
    }
}

/// The scheduler: sheddable bounded queue, self-healing worker pool,
/// active-query registry, global memory gauge.
#[derive(Debug)]
pub struct Scheduler {
    core: Arc<Core>,
    active: Mutex<HashMap<String, CancelToken>>,
}

impl Scheduler {
    /// Starts `config.workers` pool threads.
    pub fn new(config: SchedulerConfig) -> Self {
        let workers = config.workers.max(1);
        let core = Arc::new(Core {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            stats: SchedStats::default(),
            gauge: MemGauge::new(),
            config,
            stopping: AtomicBool::new(false),
            // lint: allow-alloc(pool construction, once per daemon)
            workers: Mutex::new(Vec::new()),
        });
        for _ in 0..workers {
            spawn_worker(&core);
        }
        Self {
            core,
            active: Mutex::new(HashMap::new()),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.core.config
    }

    /// Shared statistics counters.
    pub fn stats(&self) -> &SchedStats {
        &self.core.stats
    }

    /// The global memory gauge every query's footprint rolls up into.
    /// Clone it into other meterable structures (the session plan cache)
    /// so their bytes count against the same budget.
    pub fn gauge(&self) -> &MemGauge {
        &self.core.gauge
    }

    /// The ladder rung the scheduler is currently operating at.
    pub fn degradation(&self) -> Degradation {
        self.core.degradation()
    }

    /// Admission control: queues `job` if there is room, rejecting
    /// immediately otherwise. On success returns the receiver the job's
    /// result will arrive on.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the queue is full (no hint) or
    /// the ladder is shedding (`retry_after_ms` set),
    /// [`SubmitError::ShuttingDown`] after [`Scheduler::shutdown`].
    pub fn submit(&self, job: Job) -> Result<Receiver<JobResult>, SubmitError> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        // lock: queue
        let mut state = self
            .core
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if self.core.degradation() == Degradation::Shed {
            // ord: relaxed(monotonic stats counter)
            self.core.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                queue_depth: self.core.config.queue_depth,
                retry_after_ms: Some(self.core.config.retry_after_ms),
            });
        }
        if state.items.len() >= self.core.config.queue_depth.max(1) {
            // ord: relaxed(monotonic stats counter)
            self.core.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded {
                queue_depth: self.core.config.queue_depth,
                retry_after_ms: None,
            });
        }
        // lint: allow-alloc(queue entry per admitted query, not per task)
        state.items.push_back((job, reply_tx));
        // ord: relaxed(monotonic stats counter)
        self.core.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.core.ready.notify_one();
        Ok(reply_rx)
    }

    /// Registers a client-visible query id so a later
    /// [`Scheduler::cancel`] (from any connection) can find its token.
    pub fn register(&self, id: &str, token: CancelToken) {
        // lock: active
        self.active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            // lint: allow-alloc(registry entry per query id, not per task)
            .insert(id.to_owned(), token);
    }

    /// Removes a finished query from the active registry.
    pub fn unregister(&self, id: &str) {
        // lock: active
        self.active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(id);
    }

    /// Cancels the active query registered under `id`. Returns whether an
    /// active query of that id existed. Works on queued jobs too: their
    /// token is registered at admission, and the engine checks it before
    /// claiming the first task.
    pub fn cancel(&self, id: &str) -> bool {
        // lock: active
        let active = self
            .active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match active.get(id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Number of registered (queued or running) queries.
    pub fn active_count(&self) -> usize {
        // lock: active
        self.active
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Stops accepting work, cancels every active query, and joins the
    /// pool. Idempotent. Queued-but-unstarted jobs still flow through
    /// their worker, which observes the cancelled token before claiming a
    /// task and reports a cancelled result — no silent drops.
    pub fn shutdown(&self) {
        // ord: seqcst(cold-path shutdown gate; pairs with the phoenix guard's seqcst load)
        self.core.stopping.store(true, Ordering::SeqCst);
        {
            // lock: active
            let active = self
                .active
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for token in active.values() {
                token.cancel();
            }
        }
        {
            // lock: queue
            let mut state = self
                .core
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.closed = true;
        }
        self.core.ready.notify_all();
        // A dying worker may respawn a sibling until it observes
        // `stopping`, so drain the handle list until it stays empty.
        loop {
            // lock: workers
            let workers = std::mem::take(
                &mut *self
                    .core
                    .workers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            if workers.is_empty() {
                break;
            }
            for handle in workers {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::GraphRegistry;
    use fingers_pattern::{Induced, Pattern};

    fn test_graph(spec: &str) -> Arc<StoredGraph> {
        let mut reg = GraphRegistry::new();
        reg.load("g", spec, &EngineConfig::default()).expect("load");
        reg.get("g").expect("stored")
    }

    fn plan_of(p: &Pattern) -> Arc<ExecutionPlan> {
        Arc::new(ExecutionPlan::compile(p, Induced::Vertex))
    }

    fn job(graph: &Arc<StoredGraph>, plans: Vec<Arc<ExecutionPlan>>, token: CancelToken) -> Job {
        Job {
            graph: Arc::clone(graph),
            plans,
            threads: 2,
            cancel: token,
            config: EngineConfig::default(),
        }
    }

    #[test]
    fn runs_jobs_and_counts_match_direct_execution() {
        let graph = test_graph("gen:er:60:240:11");
        let sched = Scheduler::new(SchedulerConfig::default());
        let plan = plan_of(&Pattern::triangle());
        let expected = fingers_mining::count_plan(&graph.graph, &plan);
        let rx = sched
            .submit(job(&graph, vec![Arc::clone(&plan)], CancelToken::new()))
            .expect("admitted");
        let counts = rx.recv().expect("reply").expect("success");
        assert_eq!(counts, vec![expected]);
        assert_eq!(sched.stats().completed.load(Ordering::Relaxed), 1);
        assert_eq!(sched.gauge().bytes(), 0, "gauge returns to baseline");
        assert!(sched.gauge().peak_bytes() > 0, "the query was metered");
        sched.shutdown();
    }

    #[test]
    fn thread_budgets_compose_with_stealing_and_the_simd_toggle() {
        // The same query under both kernel settings and several thread
        // budgets (including ones above the per-query cap) must produce
        // the serial count — budgets clamp worker counts, stealing only
        // moves roots among those workers.
        let graph = test_graph("gen:pl:300:3000:13");
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            queue_depth: 8,
            max_threads_per_query: 4,
            ..SchedulerConfig::default()
        });
        let plan = plan_of(&Pattern::triangle());
        let expected = fingers_mining::count_plan(&graph.graph, &plan);
        for config in [EngineConfig::default(), EngineConfig::without_simd()] {
            for threads in [1, 4, 64] {
                let rx = sched
                    .submit(Job {
                        graph: Arc::clone(&graph),
                        plans: vec![Arc::clone(&plan)],
                        threads,
                        cancel: CancelToken::new(),
                        config: config.clone(),
                    })
                    .expect("admitted");
                let counts = rx.recv().expect("reply").expect("success");
                assert_eq!(counts, vec![expected], "threads={threads} {config:?}");
            }
        }
        sched.shutdown();
    }

    #[test]
    fn admission_control_rejects_when_queue_is_full() {
        let graph = test_graph("gen:pl:2000:24000:7");
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 1,
            max_threads_per_query: 1,
            ..SchedulerConfig::default()
        });
        let slow = plan_of(&Pattern::clique(5));
        // First job occupies the worker, second fills the queue; the
        // worker may pop slot one straight off, so push until the first
        // rejection — it must arrive by job 4.
        let mut receivers = Vec::new();
        let mut rejected = None;
        for _ in 0..4 {
            match sched.submit(job(&graph, vec![Arc::clone(&slow)], CancelToken::new())) {
                Ok(rx) => receivers.push(rx),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let rejected = rejected.expect("queue depth 1 must reject by the fourth submit");
        assert_eq!(
            rejected,
            SubmitError::Overloaded {
                queue_depth: 1,
                retry_after_ms: None,
            }
        );
        assert!(sched.stats().rejected.load(Ordering::Relaxed) >= 1);
        // The admitted jobs still complete; the pool is healthy.
        for rx in receivers {
            rx.recv().expect("reply").expect("success");
        }
        sched.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_reports_cancelled_without_poisoning_the_pool() {
        let graph = test_graph("gen:pl:2000:24000:7");
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 4,
            max_threads_per_query: 1,
            ..SchedulerConfig::default()
        });
        let slow = plan_of(&Pattern::clique(5));
        let quick = plan_of(&Pattern::triangle());
        // Job A occupies the single worker.
        let a_rx = sched
            .submit(job(&graph, vec![Arc::clone(&slow)], CancelToken::new()))
            .expect("A admitted");
        // Job B queues behind it; cancel it while queued.
        let b_token = CancelToken::new();
        sched.register("b", b_token.clone());
        let b_rx = sched
            .submit(job(&graph, vec![Arc::clone(&slow)], b_token))
            .expect("B admitted");
        assert!(sched.cancel("b"), "registered id is cancellable");
        assert!(!sched.cancel("zzz"), "unknown id is not");
        a_rx.recv().expect("A reply").expect("A completes");
        let b_err = b_rx.recv().expect("B reply").expect_err("B was cancelled");
        assert!(b_err.cancel_kind().is_some(), "{b_err}");
        sched.unregister("b");
        assert_eq!(sched.active_count(), 0);
        // The same worker thread serves a fresh query afterwards.
        let c_rx = sched
            .submit(job(&graph, vec![quick], CancelToken::new()))
            .expect("C admitted");
        c_rx.recv().expect("C reply").expect("pool not poisoned");
        assert_eq!(sched.stats().cancelled.load(Ordering::Relaxed), 1);
        sched.shutdown();
    }

    #[test]
    fn deadline_jobs_terminate_with_deadline_kind() {
        let graph = test_graph("gen:pl:2000:24000:7");
        let sched = Scheduler::new(SchedulerConfig::default());
        let slow = plan_of(&Pattern::clique(5));
        let token = CancelToken::with_deadline(Duration::from_millis(1));
        let rx = sched
            .submit(job(&graph, vec![slow], token))
            .expect("admitted");
        let err = rx.recv().expect("reply").expect_err("deadline fires");
        assert_eq!(
            err.cancel_kind(),
            Some(fingers_mining::CancelKind::Deadline),
            "{err}"
        );
        sched.shutdown();
    }

    #[test]
    fn shutdown_cancels_active_and_rejects_new_work() {
        let graph = test_graph("gen:er:50:200:3");
        let sched = Scheduler::new(SchedulerConfig::default());
        sched.shutdown();
        let err = sched
            .submit(job(
                &graph,
                vec![plan_of(&Pattern::triangle())],
                CancelToken::new(),
            ))
            .expect_err("rejected after shutdown");
        assert_eq!(err, SubmitError::ShuttingDown);
        sched.shutdown(); // idempotent
    }

    #[test]
    fn ladder_rungs_follow_gauge_pressure() {
        assert_eq!(degradation_for(0, None), Degradation::Normal);
        assert_eq!(degradation_for(u64::MAX, None), Degradation::Normal);
        let budget = Some(1000);
        assert_eq!(degradation_for(699, budget), Degradation::Normal);
        assert_eq!(degradation_for(700, budget), Degradation::ShrinkCaches);
        assert_eq!(degradation_for(849, budget), Degradation::ShrinkCaches);
        assert_eq!(degradation_for(850, budget), Degradation::ClampThreads);
        assert_eq!(degradation_for(949, budget), Degradation::ClampThreads);
        assert_eq!(degradation_for(950, budget), Degradation::Shed);
        assert_eq!(degradation_for(5000, budget), Degradation::Shed);
        assert_eq!(degradation_for(0, Some(0)), Degradation::Shed);
        assert!(Degradation::Normal < Degradation::Shed);
        assert_eq!(Degradation::Shed.level(), 3);
        assert_eq!(Degradation::ClampThreads.as_str(), "clamp-threads");
    }

    #[test]
    fn shed_rung_rejects_new_work_with_a_retry_hint_and_recovers() {
        let graph = test_graph("gen:er:60:240:11");
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            max_threads_per_query: 1,
            mem_budget: Some(1000),
            retry_after_ms: 75,
            ..SchedulerConfig::default()
        });
        // Push the gauge past the shed threshold by hand (standing in for
        // a fleet of fat queries).
        sched.gauge().charge(960);
        assert_eq!(sched.degradation(), Degradation::Shed);
        let err = sched
            .submit(job(
                &graph,
                vec![plan_of(&Pattern::triangle())],
                CancelToken::new(),
            ))
            .expect_err("shed rung rejects");
        assert_eq!(
            err,
            SubmitError::Overloaded {
                queue_depth: 8,
                retry_after_ms: Some(75),
            }
        );
        // Pressure relieved: the same query is admitted and completes.
        sched.gauge().release(960);
        assert_eq!(sched.degradation(), Degradation::Normal);
        let expected = fingers_mining::count_plan(
            &graph.graph,
            &ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex),
        );
        let rx = sched
            .submit(job(
                &graph,
                vec![plan_of(&Pattern::triangle())],
                CancelToken::new(),
            ))
            .expect("admitted after recovery");
        assert_eq!(rx.recv().expect("reply").expect("success"), vec![expected]);
        sched.shutdown();
    }

    #[test]
    fn shed_rung_drops_queued_work_earliest_deadline_first() {
        let graph = test_graph("gen:pl:2000:24000:7");
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 8,
            max_threads_per_query: 1,
            mem_budget: Some(1000),
            retry_after_ms: 50,
            ..SchedulerConfig::default()
        });
        let slow = plan_of(&Pattern::clique(5));
        // The plug occupies the single worker; two victims queue behind it
        // (far deadline and near deadline).
        let plug_token = CancelToken::new();
        let plug_rx = sched
            .submit(job(&graph, vec![Arc::clone(&slow)], plug_token.clone()))
            .expect("plug admitted");
        let far = sched
            .submit(job(
                &graph,
                vec![Arc::clone(&slow)],
                CancelToken::with_deadline(Duration::from_secs(3600)),
            ))
            .expect("far victim admitted");
        let near = sched
            .submit(job(
                &graph,
                vec![Arc::clone(&slow)],
                CancelToken::with_deadline(Duration::from_secs(600)),
            ))
            .expect("near victim admitted");
        // The worker must have taken the plug off the queue before the
        // pressure arrives, or the plug is shed along with its victims.
        let queued = || {
            // lock: queue
            let state = sched.core.queue.lock();
            state
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .items
                .len()
        };
        let patience = std::time::Instant::now() + Duration::from_secs(30);
        while queued() > 2 {
            assert!(
                std::time::Instant::now() < patience,
                "the lone worker never dequeued the plug"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Memory pressure arrives while the victims wait; finish the plug
        // so the worker returns to the queue and sheds.
        sched.gauge().charge(999);
        plug_token.cancel();
        let plug_err = plug_rx.recv().expect("plug reply").expect_err("cancelled");
        assert!(plug_err.cancel_kind().is_some(), "{plug_err}");
        let near_err = near.recv().expect("near reply").expect_err("shed");
        assert!(
            matches!(near_err, JobError::Shed { retry_after_ms: 50 }),
            "{near_err}"
        );
        let far_err = far.recv().expect("far reply").expect_err("shed");
        assert!(matches!(far_err, JobError::Shed { .. }), "{far_err}");
        assert_eq!(sched.stats().shed.load(Ordering::Relaxed), 2);
        // Recovery: pressure off, fresh work completes.
        sched.gauge().release(999);
        let rx = sched
            .submit(job(
                &graph,
                vec![plan_of(&Pattern::triangle())],
                CancelToken::new(),
            ))
            .expect("admitted after recovery");
        rx.recv().expect("reply").expect("success");
        sched.shutdown();
    }

    #[test]
    fn degraded_rungs_still_produce_exact_counts() {
        let graph = test_graph("gen:pl:300:3000:13");
        let plan = plan_of(&Pattern::triangle());
        let expected = fingers_mining::count_plan(&graph.graph, &plan);
        // Hold the gauge at the clamp rung: new queries run single-threaded
        // with the bitmap tier off, and must still count exactly.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_depth: 4,
            max_threads_per_query: 4,
            mem_budget: Some(1000),
            ..SchedulerConfig::default()
        });
        sched.gauge().charge(900);
        assert_eq!(sched.degradation(), Degradation::ClampThreads);
        let rx = sched
            .submit(job(&graph, vec![Arc::clone(&plan)], CancelToken::new()))
            .expect("admitted below shed");
        assert_eq!(rx.recv().expect("reply").expect("success"), vec![expected]);
        assert!(sched.stats().degraded.load(Ordering::Relaxed) >= 1);
        sched.gauge().release(900);
        sched.shutdown();
    }

    #[test]
    fn earliest_deadline_selection_prefers_deadlined_jobs() {
        let graph = test_graph("gen:er:20:40:1");
        let plan = plan_of(&Pattern::triangle());
        let mk = |token: CancelToken| {
            let (tx, _rx) = std::sync::mpsc::channel();
            (job(&graph, vec![Arc::clone(&plan)], token), tx)
        };
        let mut items = VecDeque::new();
        assert_eq!(earliest_deadline_index(&items), None);
        items.push_back(mk(CancelToken::new()));
        assert_eq!(earliest_deadline_index(&items), Some(0));
        items.push_back(mk(CancelToken::with_deadline(Duration::from_secs(100))));
        items.push_back(mk(CancelToken::with_deadline(Duration::from_secs(10))));
        assert_eq!(earliest_deadline_index(&items), Some(2));
    }
}
