//! Plan-driven DFS execution (the paper's Figure 2, lowered for software).
//!
//! The engine is layered, replacing the seed's monolithic closure walker:
//!
//! - [`PlanMiner`] — a reusable worker that executes [`MiningTask`]s (runs
//!   of level-0 roots) against one compiled plan. It lowers the plan once
//!   into a per-level program — shared set-operation chains computed once,
//!   CSR rows borrowed, bounds pushed into every level — and materializes
//!   candidate sets into a [`ScratchArena`], so steady-state mining never
//!   allocates per embedding.
//! - [`Sink`] — what happens at each match: [`CountSink`] takes leaf runs
//!   as totals, [`FnSink`] materializes embeddings for listing.
//! - [`count_plan`] / [`list_plan`] / [`count_multi`] — thin sequential
//!   wrappers over the engine, API-compatible with the seed.
//! - [`crate::parallel`] — root-partitioned execution of the same engine
//!   across threads, with an order-independent reduction.

// lint: hot-path(alloc)

use crate::config::EngineConfig;
use crate::gauge::{GaugeScope, MemGauge};
use crate::scratch::{BitmapCache, ScratchArena};
use crate::sink::{CountSink, FnSink, Sink};
use crate::task::MiningTask;
use fingers_graph::hubs::HubSet;
use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::{ExecutionPlan, Induced, MultiPlan, PlanOp};
use fingers_setops::adaptive::{select_count_tier_with, select_tier_with, KernelTier};
use fingers_setops::bitmap::NeighborBitmap;
use fingers_setops::{bitmap, bound, galloping, merge, simd, Elem, SetOpKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of mining a (multi-)plan: per-pattern embedding counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MineOutcome {
    /// One embedding count per constituent plan, in plan order.
    pub per_pattern: Vec<u64>,
}

impl MineOutcome {
    /// Total embeddings across all patterns.
    pub fn total(&self) -> u64 {
        self.per_pattern.iter().sum()
    }
}

/// Counts embeddings of one compiled plan in `graph` with the default
/// [`EngineConfig`].
pub fn count_plan(graph: &CsrGraph, plan: &ExecutionPlan) -> u64 {
    count_plan_with(graph, plan, &EngineConfig::default())
}

/// Counts embeddings of one compiled plan under an explicit engine config.
/// The count is identical for every config — only timing changes.
pub fn count_plan_with(graph: &CsrGraph, plan: &ExecutionPlan, config: &EngineConfig) -> u64 {
    let mut sink = CountSink::default();
    PlanMiner::with_config(graph, plan, config).run(MiningTask::all(graph), &mut sink);
    sink.count
}

/// Invokes `visitor` with every embedding of `plan` in `graph` (the mapped
/// input-graph vertex for each level, in level order).
pub fn list_plan<F: FnMut(&[VertexId])>(graph: &CsrGraph, plan: &ExecutionPlan, visitor: &mut F) {
    let mut sink = FnSink::new(visitor);
    PlanMiner::new(graph, plan).run(MiningTask::all(graph), &mut sink);
}

/// Counts embeddings of every pattern in a multi-plan.
pub fn count_multi(graph: &CsrGraph, multi: &MultiPlan) -> MineOutcome {
    count_multi_with(graph, multi, &EngineConfig::default())
}

/// Counts embeddings of every pattern in a multi-plan under an explicit
/// engine config.
pub fn count_multi_with(graph: &CsrGraph, multi: &MultiPlan, config: &EngineConfig) -> MineOutcome {
    MineOutcome {
        per_pattern: multi
            .plans()
            .iter()
            .map(|p| count_plan_with(graph, p, config))
            .collect(), // lint: allow-alloc(one vector per mining run, not per embedding)
    }
}

/// Counts embeddings for one of the paper's benchmark workloads.
pub fn count_benchmark(graph: &CsrGraph, benchmark: Benchmark) -> MineOutcome {
    count_multi(graph, &benchmark.plan())
}

/// Counts embeddings for a benchmark workload under an explicit engine
/// config.
pub fn count_benchmark_with(
    graph: &CsrGraph,
    benchmark: Benchmark,
    config: &EngineConfig,
) -> MineOutcome {
    count_multi_with(graph, &benchmark.plan(), config)
}

/// A reusable plan-execution worker: one graph, one compiled plan lowered
/// to a per-level program, and the scratch memory to run any number of
/// [`MiningTask`]s against them.
///
/// Construction is cheap; the arena warms up during the first task and is
/// reused across tasks, which is what makes one `PlanMiner` per parallel
/// worker (rather than per task) the right shape. The same lifecycle holds
/// for the worker's [`BitmapCache`]: hub bitmaps built during one task
/// stay resident for later tasks and deeper DFS levels.
///
/// The plan is lowered once, at construction (DESIGN.md § "Executor
/// lowering"): targets whose set-operation chains are identical through a
/// level share one computation and one buffer, an `Init` borrows the CSR
/// row instead of copying it, every materializing operation has the
/// symmetry-breaking bound its targets already know pushed into both
/// operands, a level returns as soon as one of its candidate sets is
/// empty, and the mapped vertices that can reappear in a level's
/// candidate set are listed statically.
///
/// Every scheduled set operation dispatches adaptively across the four
/// kernel tiers (merge / galloping / dense bitmap / SIMD block compare)
/// via [`fingers_setops::adaptive::select_tier_with`]; all tiers produce
/// identical sorted outputs, so tier choice — and therefore cache state,
/// thread count, and configuration — can never change counts.
///
/// For counting sinks ([`Sink::COUNTS_ONLY`]) with
/// `EngineConfig::fuse_terminal_counts` on (the default), the action that
/// would materialize the *leaf* candidate set instead dispatches a fused,
/// bound-pushed count kernel ([`select_count_tier_with`]) — the leaf set is
/// never written. Totals are bit-identical with fusion on or off; listing
/// sinks always take the materializing path.
///
/// # Invariants
///
/// The lowering trusts two properties of compiler-produced plans, and
/// panics at construction (rather than silently miscounting) if handed a
/// plan violating them: every level's candidate set is materialized by
/// the previous level's actions, and every `Apply` refines a set already
/// materialized. Both are structural guarantees of
/// `ExecutionPlan::compile*`; no user input can break them.
///
/// # Example
///
/// ```
/// use fingers_graph::GraphBuilder;
/// use fingers_mining::{CountSink, MiningTask, PlanMiner};
/// use fingers_pattern::{ExecutionPlan, Induced, Pattern};
///
/// let g = GraphBuilder::new()
///     .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
///     .build();
/// let plan = ExecutionPlan::compile(&Pattern::triangle(), Induced::Vertex);
/// let mut miner = PlanMiner::new(&g, &plan);
/// let mut sink = CountSink::default();
/// miner.run(MiningTask::all(&g), &mut sink);
/// assert_eq!(sink.count, 4); // K4 has 4 triangles
/// ```
#[derive(Debug)]
pub struct PlanMiner<'g, 'p> {
    graph: &'g CsrGraph,
    plan: &'p ExecutionPlan,
    /// The plan lowered for this interpreter. Shared so the DFS can hold
    /// it while mutating the rest of the miner.
    program: Arc<Program>,
    arena: ScratchArena,
    mapped: Vec<VertexId>,
    /// Candidate-set views, one slot per `(level written, target)`: a
    /// level overwrites its own slots on every entry and deeper levels
    /// only read them, so backtracking needs no undo log.
    views: Vec<View>,
    /// Buffers of the levels currently on the DFS stack, in the order
    /// they were taken from the arena; a level returns its own on exit.
    bufs: Vec<Vec<Elem>>,
    /// Vertices eligible for the dense-bitmap tier (`None` disables it).
    /// Shared across a mining call's workers; selection runs once.
    hubs: Option<Arc<HubSet>>,
    /// This worker's resident hub bitmaps.
    cache: BitmapCache,
    /// Whether terminal-counting levels run the fused count kernels
    /// (`EngineConfig::fuse_terminal_counts`; counting sinks only).
    fuse: bool,
    /// Whether the tier choosers may pick the SIMD block-compare kernels
    /// (`EngineConfig::simd`; ANDed with the build/CPU probe inside
    /// [`select_tier_with`]).
    simd: bool,
    /// Memory-governor window (`None` = ungoverned): publishes this
    /// worker's scratch footprint into a shared gauge at root-task
    /// boundaries and reports budget violations (see [`crate::gauge`]).
    governor: Option<GaugeScope>,
}

/// Why a governed run stopped before finishing its task. Same cooperative
/// contract for both arms: the halt was observed at a root-task boundary,
/// the sink holds an unpredictable partial tally that the caller must
/// discard, and the miner is immediately reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunHalt {
    /// The run's [`crate::cancel::CancelToken`] fired.
    Cancelled,
    /// The governed gauge crossed its byte budget.
    MemBudget {
        /// Metered bytes at the boundary that tripped the budget.
        used_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
}

/// Where a symmetry-breaking lower bound comes from — resolved at lowering
/// time so the per-embedding restriction check reduces to `mapped[]` reads.
/// Most restricted levels have exactly one bound ancestor, so the common
/// case resolves with a single indexed read.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BoundSource {
    /// Unrestricted: every candidate is eligible.
    None,
    /// Bound is the vertex mapped at one ancestor level.
    Single(usize),
    /// Bound is the max over several ancestor levels' mapped vertices.
    Max(Vec<usize>),
}

impl BoundSource {
    /// The bound `target` gets from those of its restriction ancestors
    /// that `keep` selects.
    fn of(plan: &ExecutionPlan, target: usize, keep: impl Fn(usize) -> bool) -> Self {
        let levels: Vec<usize> = plan
            .schedule(target)
            .lower_bounds
            .iter()
            .copied()
            .filter(|&a| keep(a))
            .collect(); // lint: allow-alloc(plan-lowering time, once per miner)
        match levels.as_slice() {
            [] => BoundSource::None,
            [a] => BoundSource::Single(*a),
            _ => BoundSource::Max(levels),
        }
    }

    /// The effective lower bound for the current prefix (`None` when
    /// unrestricted).
    #[inline]
    fn resolve(&self, mapped: &[VertexId]) -> Option<VertexId> {
        match self {
            BoundSource::None => None,
            BoundSource::Single(a) => Some(mapped[*a]),
            BoundSource::Max(list) => list.iter().map(|&a| mapped[a]).max(),
        }
    }
}

/// Where a candidate set's elements live: a CSR row borrowed as is, or one
/// of the buffers on the miner's LIFO stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// `N(vertex)`, read in place.
    Adj(VertexId),
    /// `bufs[index]`.
    Buf(usize),
}

/// One target's candidate set as a value with a representation: the
/// elements of `store` from `start` on. Targets that share a computation
/// share the store and differ only in `start`.
#[derive(Debug, Clone, Copy)]
struct View {
    store: Store,
    start: usize,
}

/// A [`PlanOp`] with its target erased — what a group's members share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `:= N(u_level)`.
    Init,
    /// `:= N(u_level) − N(u_short)`.
    InitAnti { short: usize },
    /// `:= input op N(u_list)`.
    Apply { list: usize, kind: SetOpKind },
}

impl From<&PlanOp> for Step {
    fn from(op: &PlanOp) -> Self {
        match *op {
            PlanOp::Init { .. } => Step::Init,
            PlanOp::InitAnti { short, .. } => Step::InitAnti { short },
            PlanOp::Apply { list, kind, .. } => Step::Apply { list, kind },
        }
    }
}

/// One target of a [`Group`].
#[derive(Debug)]
struct Member {
    /// Where this level publishes the target's view.
    slot: usize,
    /// The target's bound from the restriction ancestors matched so far.
    bound: BoundSource,
}

/// Targets whose operation chains are identical through this level: the
/// level's steps run once and every member gets a view of the one result
/// (the paper's "identical set operations are computed once").
#[derive(Debug)]
struct Group {
    /// Slot holding the set the first step refines (unread when that step
    /// is an `Init`/`InitAnti`).
    input: usize,
    steps: Vec<Step>,
    members: Vec<Member>,
    /// The members' distinct bound sources; empty when any member is
    /// unrestricted. Their minimum is the strongest bound that is safe to
    /// push into the operands.
    weakest: Vec<BoundSource>,
}

impl Group {
    fn weakest_bound(&self, mapped: &[VertexId]) -> Option<VertexId> {
        self.weakest.iter().filter_map(|b| b.resolve(mapped)).min()
    }
}

/// Where one level's candidates are read from.
#[derive(Debug)]
struct Candidates {
    /// Slot of the level's final view.
    slot: usize,
    /// Restriction ancestors matched after that view was published — the
    /// bound the candidate loop still has to apply.
    late: BoundSource,
}

/// Level `k−2` when it is nothing but the fused `Apply` on the leaf: level
/// `k−3`'s candidate loop then counts each sibling directly.
#[derive(Debug)]
struct TightLeaf {
    kind: SetOpKind,
    list: usize,
    /// Slot of the leaf view the `Apply` refines.
    input: usize,
    /// The leaf's bound from ancestors up to level `k−3` (loop invariant).
    fixed: BoundSource,
    /// Whether the sibling itself also bounds the leaf.
    by_sibling: bool,
}

/// An [`ExecutionPlan`] lowered for the software executor.
#[derive(Debug)]
struct Program {
    k: usize,
    /// The groups of each level, in order of their first target.
    levels: Vec<Vec<Group>>,
    /// `candidates[level]`: where level `level + 1`'s candidates are read.
    candidates: Vec<Candidates>,
    /// `may_dup[j]`: ancestor levels whose mapped vertex can occur in
    /// `S_j`. An ancestor is ruled out when it is pattern-adjacent to `j`
    /// (`S_j ⊆ N(u_a)` and there are no self loops), when a restriction
    /// puts `S_j` above it, or — vertex-induced only, where graph
    /// adjacency among mapped vertices equals pattern adjacency — when
    /// some other ancestor is adjacent to exactly one of the two.
    may_dup: Vec<Vec<usize>>,
    /// Whether level `k−2` consists of exactly the leaf's group.
    fusable: bool,
    tight: Option<TightLeaf>,
}

impl Program {
    // Runs once per miner: every allocation below is construction-time.
    fn lower(plan: &ExecutionPlan) -> Self {
        let k = plan.pattern_size();
        // Each target's ops so far, as `(level, step)`: targets with equal
        // chains hold equal sets.
        // lint: allow-alloc(plan-lowering time, once per miner)
        let mut chains: Vec<Vec<(usize, Step)>> = vec![Vec::new(); k];
        // Level of each target's latest view.
        // lint: allow-alloc(plan-lowering time, once per miner)
        let mut written: Vec<Option<usize>> = vec![None; k];
        // lint: allow-alloc(plan-lowering time, once per miner)
        let mut levels = Vec::with_capacity(k);
        for level in 0..k {
            for op in plan.actions_at(level) {
                chains[op.target()].push((level, Step::from(op)));
            }
            // lint: allow-alloc(plan-lowering time, once per miner)
            let mut groups: Vec<Group> = Vec::new();
            for j in 0..k {
                if chains[j].last().is_none_or(|&(l, _)| l != level) {
                    continue;
                }
                let member = Member {
                    slot: level * k + j,
                    bound: BoundSource::of(plan, j, |a| a <= level),
                };
                let same_chain = |g: &&mut Group| chains[g.members[0].slot % k] == chains[j];
                if let Some(group) = groups.iter_mut().find(same_chain) {
                    group.members.push(member);
                    continue;
                }
                let steps: Vec<Step> = chains[j]
                    .iter()
                    .filter(|&&(l, _)| l == level)
                    .map(|&(_, step)| step)
                    .collect(); // lint: allow-alloc(plan-lowering time, once per miner)

                // §11: an `Apply` with nothing to refine is a plan-compiler
                // bug that fingers-verify's use-before-init check rejects
                // statically.
                assert!(
                    written[j].is_some() || !matches!(steps[0], Step::Apply { .. }),
                    "Apply requires a materialized set"
                );
                groups.push(Group {
                    input: written[j].map_or(0, |l| l * k + j),
                    steps,
                    members: vec![member], // lint: allow-alloc(plan-lowering time, once per miner)
                    weakest: Vec::new(),   // lint: allow-alloc(plan-lowering time, once per miner)
                });
            }
            for group in &mut groups {
                for member in &group.members {
                    written[member.slot % k] = Some(level);
                    if !group.weakest.contains(&member.bound) {
                        // lint: allow-alloc(plan-lowering time, once per miner)
                        group.weakest.push(member.bound.clone());
                    }
                }
                if group.weakest.contains(&BoundSource::None) {
                    group.weakest.clear();
                }
            }
            levels.push(groups);
        }

        let candidates = (1..k)
            .map(|j| {
                // §11: the compiler schedules every `S_j` to be final by
                // level `j − 1`; fingers-verify proves it statically.
                let at = written[j].unwrap_or(j);
                assert!(at < j, "schedule materializes S_{j} by level {j}-1");
                Candidates {
                    slot: at * k + j,
                    late: BoundSource::of(plan, j, |a| a > at),
                }
            })
            .collect(); // lint: allow-alloc(plan-lowering time, once per miner)

        let pattern = plan.pattern();
        let may_dup = (0..k)
            .map(|j| {
                (0..j)
                    .filter(|&a| {
                        !pattern.are_adjacent(a, j)
                            && !plan.schedule(j).lower_bounds.contains(&a)
                            && (plan.induced() == Induced::Edge
                                || (0..j).all(|b| {
                                    b == a
                                        || pattern.are_adjacent(a, b) == pattern.are_adjacent(j, b)
                                }))
                    })
                    .collect() // lint: allow-alloc(plan-lowering time, once per miner)
            })
            .collect(); // lint: allow-alloc(plan-lowering time, once per miner)

        // Compiled plans schedule nothing but leaf ops at level k−2;
        // whatever else a raw plan puts there simply runs unfused.
        let leaf_level = if k >= 2 {
            levels[k - 2].as_slice()
        } else {
            &[]
        };
        let leaf_group = match leaf_level {
            [g] if g.members.len() == 1 && g.members[0].slot % k == k - 1 => Some(g),
            _ => None,
        };
        let fusable = leaf_group.is_some();
        let tight = leaf_group
            .filter(|_| k >= 3)
            .and_then(|g| match *g.steps.as_slice() {
                [Step::Apply { list, kind }] => Some(TightLeaf {
                    kind,
                    list,
                    input: g.input,
                    fixed: BoundSource::of(plan, k - 1, |a| a + 3 <= k),
                    by_sibling: plan.schedule(k - 1).lower_bounds.contains(&(k - 2)),
                }),
                _ => None,
            });
        Self {
            k,
            levels,
            candidates,
            may_dup,
            fusable,
            tight,
        }
    }
}

/// The elements behind `store`.
#[inline]
fn stored<'a>(graph: &'a CsrGraph, bufs: &'a [Vec<Elem>], store: Store) -> &'a [Elem] {
    match store {
        Store::Adj(v) => graph.neighbors(v),
        Store::Buf(i) => &bufs[i],
    }
}

/// The kernel call `step` makes at `level` on the set in `input`:
/// `(kind, short operand, long vertex)`. `None` for an `Init`, which only
/// borrows its row.
fn operands<'a>(
    graph: &'a CsrGraph,
    bufs: &'a [Vec<Elem>],
    mapped: &[VertexId],
    level: usize,
    input: Store,
    step: Step,
) -> Option<(SetOpKind, &'a [Elem], VertexId)> {
    match step {
        Step::Init => None,
        Step::InitAnti { short } => Some((
            SetOpKind::AntiSubtract,
            graph.neighbors(mapped[short]),
            mapped[level],
        )),
        Step::Apply { list, kind } => Some((kind, stored(graph, bufs, input), mapped[list])),
    }
}

/// How many embeddings the leaf run `run` completes: its length minus the
/// mapped vertices in it, which only the levels in `may_dup` can be.
fn leaf_run_count(run: &[Elem], mapped: &[VertexId], may_dup: &[usize]) -> u64 {
    let in_run = |p: &VertexId| run.binary_search(p).is_ok();
    let dup = may_dup.iter().filter(|&&a| in_run(&mapped[a])).count();
    debug_assert_eq!(dup, mapped.iter().filter(|p| in_run(p)).count());
    (run.len() - dup) as u64
}

/// Whether candidate `c` is already mapped, decided from the static list
/// alone; debug builds check the list against the whole prefix.
#[inline]
fn is_mapped(mapped: &[VertexId], may_dup: &[usize], c: VertexId) -> bool {
    let dup = may_dup.iter().any(|&a| mapped[a] == c);
    debug_assert!(
        dup || !mapped.contains(&c),
        "may_dup {may_dup:?} misses a level of {mapped:?} holding {c}"
    );
    dup
}

impl<'g, 'p> PlanMiner<'g, 'p> {
    /// A worker for executing `plan` over `graph` with the default
    /// [`EngineConfig`].
    pub fn new(graph: &'g CsrGraph, plan: &'p ExecutionPlan) -> Self {
        Self::with_config(graph, plan, &EngineConfig::default())
    }

    /// A worker configured by `config`; identifies the hub set itself.
    /// Parallel callers that share one hub set across workers should use
    /// [`PlanMiner::with_hubs`] instead.
    pub fn with_config(
        graph: &'g CsrGraph,
        plan: &'p ExecutionPlan,
        config: &EngineConfig,
    ) -> Self {
        Self::with_hubs(graph, plan, config.hub_set(graph), config)
    }

    /// A worker using a pre-identified (possibly shared) hub set (`None`
    /// disables the bitmap tier for this worker); every other knob is read
    /// from `config`.
    pub fn with_hubs(
        graph: &'g CsrGraph,
        plan: &'p ExecutionPlan,
        hubs: Option<Arc<HubSet>>,
        config: &EngineConfig,
    ) -> Self {
        // Every construction path funnels through here, so this is the
        // debug-build gate: a plan that fails static verification would
        // make the interpreter read unmaterialized buffers or miscount.
        #[cfg(debug_assertions)]
        {
            let report = fingers_verify::verify(plan);
            assert!(report.is_sound(), "unsound execution plan:\n{report}");
        }
        let k = plan.pattern_size();
        let unset = View {
            store: Store::Adj(0),
            start: 0,
        };
        Self {
            graph,
            plan,
            // lint: allow-alloc(one-time interpreter construction, not per embedding)
            program: Arc::new(Program::lower(plan)),
            arena: ScratchArena::new(),
            // lint: allow-alloc(one-time interpreter construction, not per embedding)
            mapped: Vec::with_capacity(k),
            views: vec![unset; k * k], // lint: allow-alloc(one-time interpreter construction, not per embedding)
            bufs: Vec::new(), // lint: allow-alloc(one-time interpreter construction, not per embedding)
            hubs,
            cache: BitmapCache::new(config.bitmap_cache_slots),
            fuse: config.fuse_terminal_counts,
            simd: config.simd,
            governor: None,
        }
    }

    /// Puts this miner under memory governance: its scratch footprint is
    /// published into `gauge` at every root-task boundary, and — when
    /// `budget` is set — a governed run ([`PlanMiner::run_governed`])
    /// aborts with [`RunHalt::MemBudget`] once the gauge (shared across
    /// all miners publishing into it) exceeds the budget. Dropping the
    /// miner releases everything it published, so the gauge returns to
    /// its prior baseline.
    pub fn attach_gauge(&mut self, gauge: MemGauge, budget: Option<u64>) {
        self.governor = Some(GaugeScope::new(gauge, budget));
    }

    /// Runs the plan DFS for every root in `task`, reporting matches to
    /// `sink`. Scratch buffers persist across calls, so running many tasks
    /// through one miner allocates no more than running one.
    pub fn run<S: Sink>(&mut self, task: MiningTask, sink: &mut S) {
        let k = self.plan.pattern_size();
        if k == 1 {
            for v in task.roots() {
                self.mapped.push(v);
                sink.embedding(&self.mapped);
                self.mapped.pop();
            }
            return;
        }
        let program = Arc::clone(&self.program);
        for v in task.roots() {
            self.enter(&program, 0, v, sink);
        }
    }

    /// Like [`PlanMiner::run`], but polls `cancel` between level-0 roots
    /// and stops early once it fires. Returns `true` when the whole task
    /// completed and `false` on interruption — an interrupted task has
    /// reported an unpredictable prefix of its embeddings to `sink`, so
    /// callers must discard the sink's tally (the parallel engine does,
    /// returning [`crate::EngineError::Cancelled`]).
    ///
    /// The poll is per *root*, never per embedding: a live token costs one
    /// relaxed atomic load (plus a clock read when a deadline is armed) per
    /// level-0 vertex, preserving the engine's zero-per-embedding-overhead
    /// property. A subtree below one root is never interrupted mid-walk,
    /// so scratch state stays consistent and the miner is immediately
    /// reusable after an interruption.
    pub fn run_cancellable<S: Sink>(
        &mut self,
        task: MiningTask,
        sink: &mut S,
        cancel: &crate::cancel::CancelToken,
    ) -> bool {
        self.run_governed(task, sink, cancel).is_ok()
    }

    /// The governed superset of [`PlanMiner::run_cancellable`]: the same
    /// per-root cancellation poll, plus — when a gauge is attached via
    /// [`PlanMiner::attach_gauge`] — a footprint publish and budget check
    /// at the same boundary. Cancellation is checked before the budget, so
    /// a query that is both cancelled and over budget reports the
    /// cancellation (the caller asked for it; the budget was incidental).
    ///
    /// Both halts share the cancellation contract: `sink` holds an
    /// unpredictable partial tally the caller must discard, and the miner
    /// is immediately reusable. An ungoverned miner never returns
    /// [`RunHalt::MemBudget`], and pays nothing for the feature.
    ///
    /// # Errors
    ///
    /// [`RunHalt::Cancelled`] when the token fired, [`RunHalt::MemBudget`]
    /// when the governed gauge crossed its budget.
    pub fn run_governed<S: Sink>(
        &mut self,
        task: MiningTask,
        sink: &mut S,
        cancel: &crate::cancel::CancelToken,
    ) -> Result<(), RunHalt> {
        let k = self.plan.pattern_size();
        if k == 1 {
            for v in task.roots() {
                if cancel.is_cancelled() {
                    return Err(RunHalt::Cancelled);
                }
                self.mapped.push(v);
                sink.embedding(&self.mapped);
                self.mapped.pop();
            }
            return Ok(());
        }
        let program = Arc::clone(&self.program);
        for v in task.roots() {
            if cancel.is_cancelled() {
                return Err(RunHalt::Cancelled);
            }
            self.poll_governor(sink.heap_bytes())?;
            self.enter(&program, 0, v, sink);
        }
        // Final publish so a completed task's full footprint is visible to
        // sibling workers' budget checks without waiting for this worker's
        // next claim.
        self.poll_governor(sink.heap_bytes())
    }

    /// Publishes the miner's current footprint into the attached gauge and
    /// converts a budget violation into the governed halt. No-op (and no
    /// atomics) when ungoverned.
    fn poll_governor(&mut self, sink_bytes: u64) -> Result<(), RunHalt> {
        let Some(governor) = self.governor.as_mut() else {
            return Ok(());
        };
        let footprint = self.arena.footprint_bytes() + self.cache.footprint_bytes() + sink_bytes;
        match governor.publish(footprint) {
            Some((used_bytes, budget_bytes)) => Err(RunHalt::MemBudget {
                used_bytes,
                budget_bytes,
            }),
            None => Ok(()),
        }
    }

    /// Scratch-memory statistics, for tests asserting the
    /// no-per-embedding-allocation property.
    pub fn arena(&self) -> &ScratchArena {
        &self.arena
    }

    /// Bitmap-cache statistics (hits, builds, allocation bounds), for tests
    /// asserting the cache half of the no-per-embedding-allocation
    /// property.
    pub fn bitmap_cache(&self) -> &BitmapCache {
        &self.cache
    }

    /// Matches `v` at `level` and explores everything below it; the
    /// level's buffers go back to the arena on the way out.
    fn enter<S: Sink>(&mut self, program: &Program, level: usize, v: VertexId, sink: &mut S) {
        self.mapped.push(v);
        let base = self.bufs.len();
        self.expand(program, level, sink);
        while self.bufs.len() > base {
            if let Some(buf) = self.bufs.pop() {
                self.arena.recycle(buf);
            }
        }
        self.mapped.pop();
    }

    /// Runs `level`'s groups for the prefix in `mapped`, then walks the
    /// next level's candidates.
    fn expand<S: Sink>(&mut self, program: &Program, level: usize, sink: &mut S) {
        let k = program.k;
        let groups = &program.levels[level];
        let counting = S::COUNTS_ONLY && self.fuse;
        // Terminal-count fusion (DESIGN.md § count fusion & bound
        // pushing): the step that would finalize the leaf set runs as a
        // count kernel instead. Earlier steps of the same chain
        // materialize as usual; a leaf set finalized at an earlier level
        // has no step here and takes the candidate path below.
        if counting && level + 2 == k && program.fusable {
            let leaf = &groups[0];
            if let Some((&last, rest)) = leaf.steps.split_last() {
                let store = self.materialize(level, leaf, rest);
                sink.leaf_count(self.count_step(program, level, leaf, last, store));
                return;
            }
        }
        for group in groups {
            let store = self.materialize(level, group, &group.steps);
            if !self.publish(group, store) {
                // Some target's set is empty and sets only shrink after
                // their Init, so no embedding extends this prefix.
                return;
            }
        }

        let next = level + 1;
        let graph = self.graph;
        let candidates = &program.candidates[level];
        let view = self.views[candidates.slot];
        let set = stored(graph, &self.bufs, view.store);
        let start = view.start
            + candidates
                .late
                .resolve(&self.mapped)
                .map_or(0, |b| bound::lower_bound_start(&set[view.start..], b));
        let end = set.len();
        let may_dup = program.may_dup[next].as_slice();
        if next + 1 == k {
            // Leaf: every remaining candidate that is not already mapped
            // completes one embedding.
            let run = &set[start..];
            if S::COUNTS_ONLY {
                sink.leaf_count(leaf_run_count(run, &self.mapped, may_dup));
            } else {
                for &c in run {
                    if is_mapped(&self.mapped, may_dup, c) {
                        continue; // embeddings map distinct vertices
                    }
                    self.mapped.push(c);
                    sink.embedding(&self.mapped);
                    self.mapped.pop();
                }
            }
        } else if let Some(tight) = program.tight.as_ref().filter(|_| counting && next + 2 == k) {
            sink.leaf_count(self.count_siblings(program, tight, view.store, start, may_dup));
        } else {
            for i in start..end {
                // Resolved again each time round: `enter` needs the whole
                // miner, and deeper levels read (never write) this store.
                let set = stored(graph, &self.bufs, view.store);
                let c = set[i];
                if let Some(&ahead) = set.get(i + 2) {
                    simd::prefetch(graph.neighbors(ahead));
                }
                if is_mapped(&self.mapped, may_dup, c) {
                    continue; // embeddings map distinct vertices
                }
                self.enter(program, next, c, sink);
            }
        }
    }

    /// Runs `steps` of `group` once for all its members and returns where
    /// the result lives. Both operands of every kernel call are trimmed by
    /// the weakest bound any member already knows, so what lies below that
    /// bound in a buffer is unspecified — every reader trims by a bound at
    /// least as strong (bounds only grow down the DFS).
    fn materialize(&mut self, level: usize, group: &Group, steps: &[Step]) -> Store {
        let graph = self.graph;
        let lo = group.weakest_bound(&self.mapped);
        let mut store = self.views[group.input].store;
        for &step in steps {
            let Some((kind, short, long_v)) =
                operands(graph, &self.bufs, &self.mapped, level, store, step)
            else {
                store = Store::Adj(self.mapped[level]);
                continue;
            };
            let mut out = self.arena.take();
            kernel_dispatch(
                graph,
                self.hubs.as_deref(),
                &mut self.cache,
                kind,
                bound::trim(short, lo),
                long_v,
                bound::trim(graph.neighbors(long_v), lo),
                &mut out,
                self.simd,
            );
            self.bufs.push(out);
            store = Store::Buf(self.bufs.len() - 1);
        }
        store
    }

    /// Gives every member of `group` its view of `store`: the elements
    /// above the member's own bound, found by binary search — never
    /// assumed from the operand trim, because the bitmap anti-subtract
    /// emits its long side untrimmed. Returns `false` as soon as one view
    /// is empty.
    fn publish(&mut self, group: &Group, store: Store) -> bool {
        let set = stored(self.graph, &self.bufs, store);
        let mut last = (None, 0);
        for member in &group.members {
            let lower = member.bound.resolve(&self.mapped);
            if lower != last.0 {
                last = (lower, lower.map_or(0, |b| bound::lower_bound_start(set, b)));
            }
            if last.1 == set.len() {
                return false;
            }
            self.views[member.slot] = View {
                store,
                start: last.1,
            };
        }
        true
    }

    /// Executes the leaf's finalizing step as a count: the number of
    /// embeddings the materializing path would have reported for this
    /// prefix, with the restriction bound pushed into the operands and no
    /// output written. `store` is what the step refines.
    fn count_step(
        &mut self,
        program: &Program,
        level: usize,
        leaf: &Group,
        step: Step,
        store: Store,
    ) -> u64 {
        let graph = self.graph;
        let lower = leaf.members[0].bound.resolve(&self.mapped);
        let may_dup = program.may_dup[program.k - 1].as_slice();
        let Some((kind, short, long_v)) =
            operands(graph, &self.bufs, &self.mapped, level, store, step)
        else {
            // Leaf set = N(u_level) wholesale: no kernel needed, only the
            // bound trim and prefix-duplicate exclusion.
            let run = bound::trim(graph.neighbors(self.mapped[level]), lower);
            return leaf_run_count(run, &self.mapped, may_dup);
        };
        count_dispatch(
            graph,
            self.hubs.as_deref(),
            &mut self.cache,
            kind,
            short,
            long_v,
            lower,
            &self.mapped,
            may_dup,
            self.simd,
        )
    }

    /// Level `k−3`'s candidate loop when level `k−2` is only the fused
    /// `Apply` on the leaf: counts every sibling's leaves without entering
    /// the level, with the leaf view, the loop-invariant part of its bound
    /// and both duplicate lists resolved once, and the row two siblings
    /// ahead prefetched while this one is counted.
    fn count_siblings(
        &mut self,
        program: &Program,
        tight: &TightLeaf,
        store: Store,
        start: usize,
        may_dup: &[usize],
    ) -> u64 {
        let graph = self.graph;
        let siblings = &stored(graph, &self.bufs, store)[start..];
        let leaf_view = self.views[tight.input];
        let fixed = tight.fixed.resolve(&self.mapped);
        let short = bound::trim(
            &stored(graph, &self.bufs, leaf_view.store)[leaf_view.start..],
            fixed,
        );
        let leaf_dup = program.may_dup[program.k - 1].as_slice();
        let hubs = self.hubs.as_deref();
        let mut total = 0;
        for (i, &c) in siblings.iter().enumerate() {
            if let Some(&ahead) = siblings.get(i + 2) {
                simd::prefetch(graph.neighbors(ahead));
            }
            if is_mapped(&self.mapped, may_dup, c) {
                continue; // embeddings map distinct vertices
            }
            let lower = if tight.by_sibling {
                Some(fixed.map_or(c, |b| b.max(c)))
            } else {
                fixed
            };
            self.mapped.push(c);
            total += count_dispatch(
                graph,
                hubs,
                &mut self.cache,
                tight.kind,
                short,
                self.mapped[tight.list],
                lower,
                &self.mapped,
                leaf_dup,
                self.simd,
            );
            self.mapped.pop();
        }
        total
    }
}

/// Four-tier adaptive kernel dispatch for one scheduled set operation
/// whose long operand is `long`, the adjacency of `long_v` above the bound
/// already pushed into `short`.
///
/// Tier choice is delegated to [`select_tier_with`]: the dense-bitmap tier
/// is a candidate only when `long_v` is a configured hub (its bitmap is
/// then fetched or lazily built through the worker's cache); otherwise the
/// merge/galloping crossover applies, with the SIMD block compare taking
/// the merge's balanced region when `use_simd` (the `EngineConfig::simd`
/// policy toggle) and the build/CPU probe both hold. All four tiers agree
/// on every element above the pushed bound; the bitmap anti-subtract also
/// emits what `N(long_v)` holds below it, which callers cut off again.
#[allow(clippy::too_many_arguments)]
fn kernel_dispatch(
    graph: &CsrGraph,
    hubs: Option<&HubSet>,
    cache: &mut BitmapCache,
    kind: SetOpKind,
    short: &[Elem],
    long_v: VertexId,
    long: &[Elem],
    out: &mut Vec<Elem>,
    use_simd: bool,
) {
    let resident_words = hubs
        .filter(|h| h.contains(long_v))
        .map(|_| NeighborBitmap::words_for(graph.vertex_count()));
    match select_tier_with(kind, short.len(), long.len(), resident_words, use_simd) {
        KernelTier::Bitmap => {
            let bm = cache.get_or_build(graph, long_v);
            bitmap::apply_into(kind, short, bm, out);
        }
        KernelTier::Galloping => galloping::apply_into(kind, short, long, out),
        KernelTier::Merge => merge::apply_into(kind, short, long, out),
        KernelTier::Simd => simd::apply_into(kind, short, long, out),
    }
}

/// Fused count dispatch for the leaf's finalizing set operation: returns
/// how many embeddings the prefix `mapped` completes, without
/// materializing the leaf set.
///
/// Both operands are trimmed to elements strictly above `lower` *before*
/// the kernel runs (the shared [`bound::trim`] convention). Every kind
/// reduces to `|short ∩ long|` plus operand-length arithmetic, and an
/// intersection count is symmetric, so the list tiers always see the
/// smaller operand first — the selector then gallops a 10-long row into an
/// 800-long set instead of merging them. A resident bitmap of `long_v`
/// still wins outright ([`select_count_tier_with`]).
///
/// Of the prefix only the levels in `may_dup` can occur in the result;
/// each that does (it is above the bound and in the right operands) is one
/// overcount.
#[allow(clippy::too_many_arguments)]
fn count_dispatch(
    graph: &CsrGraph,
    hubs: Option<&HubSet>,
    cache: &mut BitmapCache,
    kind: SetOpKind,
    short_full: &[Elem],
    long_v: VertexId,
    lower: Option<Elem>,
    mapped: &[VertexId],
    may_dup: &[usize],
    use_simd: bool,
) -> u64 {
    let short = bound::trim(short_full, lower);
    let long = bound::trim(graph.neighbors(long_v), lower);
    let resident = hubs.is_some_and(|h| h.contains(long_v));
    let (a, b) = if short.len() <= long.len() {
        (short, long)
    } else {
        (long, short)
    };
    let both = match select_count_tier_with(kind, a.len(), b.len(), resident, use_simd) {
        KernelTier::Bitmap => bitmap::intersect_count(short, cache.get_or_build(graph, long_v)),
        KernelTier::Galloping => galloping::intersect_count(a, b),
        KernelTier::Merge => merge::intersect_count(a, b),
        KernelTier::Simd => simd::intersect_count(a, b),
    };
    let n = match kind {
        SetOpKind::Intersect => both,
        SetOpKind::Subtract => short.len() as u64 - both,
        SetOpKind::AntiSubtract => long.len() as u64 - both,
    };
    let in_result = |p: VertexId| {
        lower.is_none_or(|b| p > b) && {
            let in_short = short.binary_search(&p).is_ok();
            let in_long = long.binary_search(&p).is_ok();
            match kind {
                SetOpKind::Intersect => in_short && in_long,
                SetOpKind::Subtract => in_short && !in_long,
                SetOpKind::AntiSubtract => in_long && !in_short,
            }
        }
    };
    let dup = may_dup.iter().filter(|&&a| in_result(mapped[a])).count();
    debug_assert_eq!(dup, mapped.iter().filter(|&&p| in_result(p)).count());
    n - dup as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::gen::erdos_renyi;
    use fingers_graph::GraphBuilder;
    use fingers_pattern::{Induced, Pattern};

    fn complete(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for a in 0..n as VertexId {
            for b in (a + 1)..n as VertexId {
                edges.push((a, b));
            }
        }
        GraphBuilder::new().edges(edges).build()
    }

    fn choose(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn triangles_in_complete_graphs() {
        for n in 3..=8 {
            let g = complete(n);
            let got = count_benchmark(&g, Benchmark::Tc).total();
            assert_eq!(got, choose(n as u64, 3), "K{n}");
        }
    }

    #[test]
    fn cliques_in_complete_graphs() {
        let g = complete(8);
        assert_eq!(count_benchmark(&g, Benchmark::Cl4).total(), choose(8, 4));
        assert_eq!(count_benchmark(&g, Benchmark::Cl5).total(), choose(8, 5));
    }

    #[test]
    fn vertex_induced_cycles_absent_in_complete_graphs() {
        // Every 4-subset of K_n has chords, so no *vertex-induced* 4-cycle.
        let g = complete(6);
        assert_eq!(count_benchmark(&g, Benchmark::Cyc).total(), 0);
        // Same for tailed triangles and diamonds (missing edges required).
        assert_eq!(count_benchmark(&g, Benchmark::Tt).total(), 0);
        assert_eq!(count_benchmark(&g, Benchmark::Dia).total(), 0);
    }

    #[test]
    fn edge_induced_cycles_in_complete_graph() {
        // Each 4-subset of K_n contains 3 (edge-induced) 4-cycles.
        let g = complete(6);
        let plan = ExecutionPlan::compile(&Pattern::four_cycle(), Induced::Edge);
        assert_eq!(count_plan(&g, &plan), 3 * choose(6, 4));
    }

    #[test]
    fn wedges_in_star() {
        // Star with c leaves: C(c, 2) wedges (vertex-induced), no triangles.
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        let out = count_benchmark(&g, Benchmark::Mc3);
        assert_eq!(out.per_pattern, vec![0, 6]);
    }

    #[test]
    fn motif_census_covers_all_connected_triads() {
        // In any graph, #triangles + #wedges = number of connected 3-vertex
        // induced subgraphs. Cross-check on a random graph by direct count.
        let g = erdos_renyi(40, 120, 5);
        let out = count_benchmark(&g, Benchmark::Mc3);
        let mut triangles = 0u64;
        let mut wedges = 0u64;
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                for c in (b + 1)..40 {
                    let e = [g.has_edge(a, b), g.has_edge(a, c), g.has_edge(b, c)];
                    match e.iter().filter(|&&x| x).count() {
                        3 => triangles += 1,
                        2 => wedges += 1,
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(out.per_pattern, vec![triangles, wedges]);
    }

    #[test]
    fn figure_1_tailed_triangle_embeddings() {
        // A Figure-1-style input graph: triangle {1, 2, 3}, with 4 and 5
        // hanging off it so that {2, 1, 3, 5} is a tailed-triangle
        // embedding (u0=2, {u1,u2}={1,3}, tail u3=5 adjacent only to 2) —
        // the example embedding the paper's Section 2.1 names.
        let g = GraphBuilder::new()
            .edges([(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4)])
            .build();
        let plan = ExecutionPlan::compile(&Pattern::tailed_triangle(), Induced::Vertex);
        let mut found = Vec::new();
        list_plan(&g, &plan, &mut |emb| found.push(emb.to_vec()));
        assert!(
            found.iter().any(|e| e[0] == 2 && e[3] == 5 && {
                let mut tri = [e[1], e[2]];
                tri.sort_unstable();
                tri == [1, 3]
            }),
            "expected embedding 2-{{1,3}}-5 in {found:?}"
        );
        // Each embedding's vertices are distinct.
        for e in &found {
            let mut s = e.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 4, "duplicate vertices in {e:?}");
        }
    }

    #[test]
    fn single_vertex_pattern_counts_vertices() {
        let g = erdos_renyi(10, 12, 1);
        let plan = ExecutionPlan::compile(&Pattern::from_edges_named(1, &[], "v"), Induced::Vertex);
        assert_eq!(count_plan(&g, &plan), 10);
    }

    #[test]
    fn empty_graph_counts_zero() {
        let g = GraphBuilder::new().vertex_count(5).build();
        for b in Benchmark::ALL {
            assert_eq!(count_benchmark(&g, b).total(), 0, "{b}");
        }
    }

    #[test]
    fn listed_embeddings_satisfy_restrictions() {
        let g = erdos_renyi(25, 90, 13);
        let plan = ExecutionPlan::compile(&Pattern::four_cycle(), Induced::Vertex);
        let mut count = 0u64;
        list_plan(&g, &plan, &mut |emb| {
            count += 1;
            for &(a, b) in plan.restrictions() {
                assert!(
                    emb[a] < emb[b],
                    "restriction u{a} < u{b} violated by {emb:?}"
                );
            }
        });
        assert_eq!(count, count_plan(&g, &plan));
    }

    #[test]
    fn listed_embeddings_have_pattern_edges() {
        let g = erdos_renyi(20, 70, 21);
        for p in [Pattern::diamond(), Pattern::tailed_triangle()] {
            let plan = ExecutionPlan::compile(&p, Induced::Vertex);
            list_plan(&g, &plan, &mut |emb| {
                let pat = plan.pattern();
                for a in 0..pat.size() {
                    for b in (a + 1)..pat.size() {
                        assert_eq!(
                            pat.are_adjacent(a, b),
                            g.has_edge(emb[a], emb[b]),
                            "vertex-induced adjacency mismatch at ({a},{b}) in {emb:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn wedges_on_paths_closed_form() {
        // A path on n vertices has exactly n−2 wedges and nothing else.
        for n in [3u32, 5, 9] {
            let g = GraphBuilder::new()
                .edges((0..n - 1).map(|i| (i, i + 1)))
                .build();
            let out = count_benchmark(&g, Benchmark::Mc3);
            assert_eq!(out.per_pattern, vec![0, (n - 2) as u64], "P{n}");
        }
    }

    #[test]
    fn cycles_on_rings_closed_form() {
        // C4 has one 4-cycle; C5 has none (vertex-induced 4-cycles need an
        // induced square); C6 likewise none, but C6 has 4-paths etc.
        let ring = |n: u32| {
            GraphBuilder::new()
                .edges((0..n).map(|i| (i, (i + 1) % n)))
                .build()
        };
        assert_eq!(count_benchmark(&ring(4), Benchmark::Cyc).total(), 1);
        assert_eq!(count_benchmark(&ring(5), Benchmark::Cyc).total(), 0);
        assert_eq!(count_benchmark(&ring(6), Benchmark::Cyc).total(), 0);
    }

    #[test]
    fn disconnected_components_mine_independently() {
        // Two disjoint K4s: counts double a single K4's.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b));
                }
            }
        }
        let g = GraphBuilder::new().edges(edges).build();
        assert_eq!(count_benchmark(&g, Benchmark::Tc).total(), 8);
        assert_eq!(count_benchmark(&g, Benchmark::Cl4).total(), 2);
    }

    #[test]
    fn task_union_equals_full_run() {
        // Splitting the root range into tasks partitions the embeddings.
        let g = erdos_renyi(30, 110, 4);
        let plan = ExecutionPlan::compile(&Pattern::diamond(), Induced::Vertex);
        let full = count_plan(&g, &plan);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sum = 0u64;
        for task in MiningTask::partition(g.vertex_count(), 7) {
            let mut sink = CountSink::default();
            miner.run(task, &mut sink);
            sum += sink.count;
        }
        assert_eq!(sum, full);
    }

    #[test]
    fn no_per_embedding_allocation() {
        // The arena creates at most one buffer per scheduled op per level —
        // never one per embedding. K8 Cl4 has 70 embeddings and far more
        // partial ones; the arena must stay in the single digits.
        let g = complete(8);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, choose(8, 4));
        let ops: usize = (0..plan.pattern_size())
            .map(|l| plan.actions_at(l).len())
            .sum();
        assert!(
            miner.arena().fresh_buffers() <= ops.max(1),
            "{} fresh buffers for {} scheduled ops",
            miner.arena().fresh_buffers(),
            ops
        );
        // A second full run on the warmed arena must allocate nothing new.
        let before = miner.arena().fresh_buffers();
        let mut sink2 = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink2);
        assert_eq!(sink2.count, sink.count);
        assert_eq!(miner.arena().fresh_buffers(), before);
        // Same discipline for the bitmap tier: storage allocations are
        // bounded by the cache capacity, never by embeddings, and a warmed
        // cache serves repeat runs from residency.
        let cache = miner.bitmap_cache();
        assert!(
            cache.fresh_bitmaps() <= cache.capacity(),
            "{} bitmap allocations exceed capacity {}",
            cache.fresh_bitmaps(),
            cache.capacity()
        );
        assert!(
            cache.hits() > 0,
            "a K8 clique run must reuse hub bitmaps across embeddings"
        );

        // Shared chains share buffers: 5cl schedules ten ops (four Inits
        // that borrow their row, six intersections of which three repeat
        // another target's), so a run needs far fewer buffers than ops.
        let plan = ExecutionPlan::compile(&Pattern::clique(5), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, choose(8, 5));
        let ops: usize = (0..5).map(|l| plan.actions_at(l).len()).sum();
        assert_eq!(ops, 10);
        assert!(
            miner.arena().fresh_buffers() <= 2,
            "{} fresh buffers: one per materializing group (levels 1, 2)",
            miner.arena().fresh_buffers()
        );
    }

    fn lowered(p: &Pattern, induced: Induced) -> Program {
        Program::lower(&ExecutionPlan::compile(p, induced))
    }

    /// `(members, steps)` of each group at `level`.
    fn shape(program: &Program, level: usize) -> Vec<(usize, usize)> {
        program.levels[level]
            .iter()
            .map(|g| (g.members.len(), g.steps.len()))
            .collect()
    }

    #[test]
    fn identical_chains_form_one_group() {
        // 4cl level 1: S2 and S3 are both N(u0) ∩ N(u1).
        let cl4 = lowered(&Pattern::clique(4), Induced::Vertex);
        assert_eq!(shape(&cl4, 0), [(3, 1)]);
        assert_eq!(shape(&cl4, 1), [(2, 1)]);
        assert_eq!(shape(&cl4, 2), [(1, 1)]);
        // tt level 1: S2 = S2 ∩ N(u1) but S3 = S3 − N(u1).
        let tt = lowered(&Pattern::tailed_triangle(), Induced::Vertex);
        assert_eq!(shape(&tt, 0), [(3, 1)]);
        assert_eq!(shape(&tt, 1), [(1, 1), (1, 1)]);
        // cyc level 1: S2 = N(u1) − N(u0), S3 = S3 − N(u1).
        let cyc = lowered(&Pattern::four_cycle(), Induced::Vertex);
        assert_eq!(shape(&cyc, 0), [(2, 1)]);
        assert_eq!(shape(&cyc, 1), [(1, 1), (1, 1)]);
        // The seven benchmarks all end in a lone fused Apply.
        for b in Benchmark::ALL {
            for plan in b.plan().plans() {
                assert!(Program::lower(plan).tight.is_some(), "{b}");
            }
        }
    }

    #[test]
    fn static_duplicate_lists() {
        // Cliques: every ancestor is adjacent. tt: u1 and u2 are told apart
        // from u3 by each other. Vertex-induced wedge: u1 < u2.
        for p in [
            Pattern::clique(5),
            Pattern::tailed_triangle(),
            Pattern::wedge(),
        ] {
            let program = lowered(&p, Induced::Vertex);
            assert!(program.may_dup.iter().all(Vec::is_empty), "{p}");
        }
        // Diamond: u3 ∈ N(u0) ∩ N(u1) − N(u2) and so is u2 itself, but the
        // restriction u2 < u3 rules it out.
        let dia = lowered(&Pattern::diamond(), Induced::Vertex);
        assert!(dia.may_dup.iter().all(Vec::is_empty));
        // 4-path, compiled centre first (u2 - u0 - u1 - u3). Vertex-induced
        // S2 = N(u0) − N(u1) holds u1 itself: it is in N(u0), and nothing
        // tells it apart from u2. S3 = N(u1) − N(u0) − N(u2) cannot hold u0
        // or u1 (adjacent) nor u2 (u0 neighbours u2 but must not u3).
        let path = Pattern::from_edges_named(4, &[(0, 1), (1, 2), (2, 3)], "path4");
        let vertex = lowered(&path, Induced::Vertex);
        assert_eq!(vertex.may_dup, [vec![], vec![], vec![1], vec![]]);
        // Edge-induced S3 = N(u1) may also hold u0 and u2: extra edges
        // among mapped vertices are allowed.
        let edge = lowered(&path, Induced::Edge);
        assert_eq!(edge.may_dup, [vec![], vec![], vec![1], vec![0, 2]]);
    }

    #[test]
    fn pushed_bound_is_the_weakest_of_the_members() {
        let group = |weakest| Group {
            input: 0,
            steps: vec![Step::Init],
            members: Vec::new(),
            weakest,
        };
        let mapped = [9, 1, 4];
        let both = group(vec![BoundSource::Single(0), BoundSource::Max(vec![1, 2])]);
        assert_eq!(both.weakest_bound(&mapped), Some(4));
        assert_eq!(group(Vec::new()).weakest_bound(&mapped), None);
        // Lowering leaves the list empty as soon as one member is free
        // (gem level 1: S2 is bounded by u1, S3 is not).
        let gem = lowered(&Pattern::gem(), Induced::Vertex);
        let shared = &gem.levels[1][0];
        assert_eq!(shared.members.len(), 2);
        assert_ne!(shared.members[0].bound, shared.members[1].bound);
        assert!(shared.weakest.is_empty());
        // ... and keeps the common source when all agree (4cl level 1).
        let cl4 = lowered(&Pattern::clique(4), Induced::Vertex);
        assert_eq!(cl4.levels[1][0].weakest, [BoundSource::Max(vec![0, 1])]);
    }

    /// The plan shapes the seven benchmarks lack, each present in at least
    /// one pattern of `tests/lowering.rs`'s named list.
    #[test]
    fn named_patterns_cover_the_rare_shapes() {
        // A leaf set final before level k−2, bounded by a later level.
        let star = lowered(&Pattern::star(3), Induced::Edge);
        assert!(star.levels[2].is_empty() && !star.fusable);
        assert_ne!(star.candidates[2].late, BoundSource::None);
        // InitAnti followed by Subtract within one level (5-path) and
        // across levels (house).
        let path = lowered(&Pattern::path(5), Induced::Vertex);
        assert!(path.levels.iter().flatten().any(|g| matches!(
            g.steps.as_slice(),
            [Step::InitAnti { .. }, Step::Apply { .. }]
        )));
        let house = lowered(&Pattern::house(), Induced::Vertex);
        assert_eq!(house.levels[1][1].steps, [Step::InitAnti { short: 0 }]);
        assert_eq!(house.levels[2][0].input, house.levels[1][1].members[0].slot);
        // A materializing group whose members know different bounds.
        let gem = lowered(&Pattern::gem(), Induced::Vertex);
        assert!(gem.levels.iter().flatten().any(|g| {
            g.steps.iter().any(|s| *s != Step::Init)
                && g.members.windows(2).any(|m| m[0].bound != m[1].bound)
        }));
    }

    #[test]
    fn empty_candidate_set_ends_the_level() {
        // A star has no triangles, so tt's S2 = N(u0) ∩ N(u1) is always
        // empty and S3 = N(u0) − N(u1), scheduled after it, never runs.
        let g = GraphBuilder::new()
            .edges((1..=12).map(|leaf| (0, leaf)))
            .build();
        let plan = ExecutionPlan::compile(&Pattern::tailed_triangle(), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, 0);
        assert_eq!(miner.arena().fresh_buffers(), 1);
    }

    #[test]
    fn counts_probe_the_smaller_operand_into_the_larger() {
        // Vertex 0 has a 10-long row; the set it refines is 800 long.
        let g = GraphBuilder::new()
            .edges((1..=10u32).map(|i| (0, 75 * i)))
            .build();
        let long = g.neighbors(0);
        let short: Vec<Elem> = (1..=800).collect();
        assert_eq!(
            select_count_tier_with(SetOpKind::Intersect, long.len(), short.len(), false, true),
            KernelTier::Galloping
        );
        let mut cache = BitmapCache::new(1);
        for kind in [
            SetOpKind::Intersect,
            SetOpKind::Subtract,
            SetOpKind::AntiSubtract,
        ] {
            for lower in [None, Some(300)] {
                let got =
                    count_dispatch(&g, None, &mut cache, kind, &short, 0, lower, &[], &[], true);
                let want = merge::count_bounded(kind, &short, long, lower);
                assert_eq!(got, want, "{kind:?} above {lower:?}");
            }
        }
    }

    #[test]
    fn fused_counts_match_listing() {
        // The listing path is fusion-blind (FnSink never counts), so the
        // number of listed embeddings is an independent oracle for the
        // fused count — including patterns whose terminal action is an
        // Init (path), InitAnti, or Apply of every kind.
        let g = erdos_renyi(35, 140, 9);
        for p in [
            Pattern::triangle(),
            Pattern::clique(4),
            Pattern::four_cycle(),
            Pattern::tailed_triangle(),
            Pattern::diamond(),
            Pattern::from_edges_named(4, &[(0, 1), (1, 2), (2, 3)], "path4"),
            Pattern::from_edges_named(4, &[(0, 1), (0, 2), (0, 3)], "star4"),
        ] {
            for induced in [Induced::Vertex, Induced::Edge] {
                let plan = ExecutionPlan::compile(&p, induced);
                let mut listed = 0u64;
                list_plan(&g, &plan, &mut |_| listed += 1);
                assert_eq!(
                    count_plan_with(&g, &plan, &EngineConfig::default()),
                    listed,
                    "fused count vs listing for {p:?} ({induced:?})"
                );
            }
        }
    }

    #[test]
    fn fused_runs_keep_allocation_discipline() {
        // Fusion removes the leaf buffer entirely; what remains must still
        // obey the no-per-embedding-allocation property.
        let g = complete(8);
        let plan = ExecutionPlan::compile(&Pattern::clique(4), Induced::Vertex);
        let mut miner = PlanMiner::new(&g, &plan);
        let mut sink = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink);
        assert_eq!(sink.count, choose(8, 4));
        let before = miner.arena().fresh_buffers();
        let mut sink2 = CountSink::default();
        miner.run(MiningTask::all(&g), &mut sink2);
        assert_eq!(sink2.count, sink.count);
        assert_eq!(miner.arena().fresh_buffers(), before);
    }

    #[test]
    fn configs_agree_on_counts() {
        // Bit-identical counts across every kernel-tier configuration.
        let g = erdos_renyi(60, 600, 77);
        for b in Benchmark::ALL {
            let baseline = count_benchmark_with(&g, b, &EngineConfig::without_bitmap());
            for cfg in [
                EngineConfig::default(),
                EngineConfig::with_bitmap_hubs(1),
                EngineConfig::without_count_fusion(),
                EngineConfig::without_simd(),
                EngineConfig {
                    bitmap_hubs: 8,
                    bitmap_cache_slots: 2,
                    ..EngineConfig::default()
                },
                EngineConfig {
                    bitmap_hubs: 0,
                    fuse_terminal_counts: false,
                    ..EngineConfig::default()
                },
                EngineConfig {
                    bitmap_hubs: 0,
                    fuse_terminal_counts: false,
                    simd: false,
                    ..EngineConfig::default()
                },
            ] {
                assert_eq!(
                    count_benchmark_with(&g, b, &cfg).per_pattern,
                    baseline.per_pattern,
                    "{b} under {cfg:?}"
                );
            }
        }
    }
}
