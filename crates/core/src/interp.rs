//! The plan interpreter both PE models share.
//!
//! FINGERS and FlexMiner execute identical compiled plans (the paper's
//! methodology: "we can just tune the concrete PE designs"), so what a
//! task *computes* — symmetry-breaking clips, `Init` / `InitAnti` / `Apply`
//! evaluation, the in-task dedup of identical computations, the candidate
//! list of the next level — lives here once. What a design *charges* for
//! it — how operands reach the unit and how long a set operation keeps it
//! busy — is the [`OpModel`] each PE supplies.

// lint: hot-path(alloc)

use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::{ExecutionPlan, PlanOp, MAX_PATTERN_VERTICES};
use fingers_setops::{Elem, SetOpKind};
use fingers_sim::MemorySystem;

use crate::frame::{FrameId, Frames, SetId, NO_FRAME};

/// One task: a newly matched vertex at `level` of some plan's search tree.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    /// Which plan of the multi-plan this tree belongs to.
    pub plan_idx: usize,
    /// The level the task's vertex was matched at.
    pub level: usize,
    /// The frame of the parent task ([`NO_FRAME`] at level 0).
    pub frame: FrameId,
    mapped: [VertexId; MAX_PATTERN_VERTICES],
}

impl Task {
    /// The level-0 task of the tree rooted at `root`.
    pub fn root(plan_idx: usize, root: VertexId) -> Self {
        let mut mapped = [0; MAX_PATTERN_VERTICES];
        mapped[0] = root;
        Self {
            plan_idx,
            level: 0,
            frame: NO_FRAME,
            mapped,
        }
    }

    /// The child task matching `vertex` at the next level, reading its
    /// ancestors' candidate sets through `frame`.
    pub fn child(&self, vertex: VertexId, frame: FrameId) -> Self {
        let mut child = Self {
            level: self.level + 1,
            frame,
            ..*self
        };
        child.mapped[child.level] = vertex;
        child
    }

    /// Mapped input vertices for levels `0..=level`.
    pub fn mapped(&self) -> &[VertexId] {
        &self.mapped[..=self.level]
    }

    /// The vertex this task matched (whose neighbor list it streams).
    pub fn vertex(&self) -> VertexId {
        self.mapped[self.level]
    }
}

/// The design-specific half of task execution: memory traffic and unit
/// timing of the operations the interpreter evaluates.
pub trait OpModel {
    /// Charges bringing `v`'s neighbor list to the unit as a set-operation
    /// operand. `streamed` says it is the task's own vertex, whose list the
    /// task fetched when it started.
    fn stream_operand(&mut self, v: VertexId, streamed: bool, mem: &mut MemorySystem);

    /// Executes one (non-deduplicated) set operation into `out` and charges
    /// its unit time.
    fn execute(&mut self, kind: SetOpKind, short: &[Elem], long: &[Elem], out: &mut Vec<Elem>);
}

/// What a memoized in-task computation was computed *from*: the short
/// operand (a pooled set or a vertex's neighbor list), the vertex whose
/// list is the long operand, the operation (`None` for `Init`'s plain
/// alias) and the clip bound. Identities, not addresses: an ancestor list
/// borrowed from the CSR has no allocation whose address could stand for
/// it, and the address of a temporary copy is reused by the next one.
type MemoKey = (ShortOperand, VertexId, Option<SetOpKind>, Option<Elem>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShortOperand {
    Set(SetId),
    List(VertexId),
}

/// Interpreter state of one PE: the candidate-set frames plus per-task
/// scratch (the memo and the candidate list), all reused across tasks.
#[derive(Debug)]
pub struct Interp<'g> {
    graph: &'g CsrGraph,
    /// Candidate-set storage; the PE retains and releases frames.
    pub frames: Frames,
    memo: Vec<(MemoKey, SetId)>,
    candidates: Vec<VertexId>,
}

impl<'g> Interp<'g> {
    /// An interpreter over `graph` with empty storage.
    pub fn new(graph: &'g CsrGraph) -> Self {
        Self {
            graph,
            frames: Frames::default(),
            // lint: allow-alloc(per-PE scratch, created once and reused by every task)
            memo: Vec::new(),
            // lint: allow-alloc(per-PE scratch, created once and reused by every task)
            candidates: Vec::new(),
        }
    }

    /// Runs the schedule ops of `task`'s level, emitting the materialized
    /// sets into the current (open) frame — whatever the previous task left
    /// there unretained is recycled first. Identical computations within
    /// the task ("identical, we only compute once") are evaluated and
    /// charged once.
    pub fn run_ops<M: OpModel>(
        &mut self,
        plan: &ExecutionPlan,
        task: &Task,
        model: &mut M,
        mem: &mut MemorySystem,
    ) {
        let graph = self.graph;
        let (level, mapped, u) = (task.level, task.mapped(), task.vertex());
        self.frames.discard();
        self.memo.clear();
        for op in plan.actions_at(level) {
            let target = op.target();
            let bound = known_bound(plan, target, level, mapped);
            let (short, long_v, kind) = match *op {
                // Aliasing the streamed list is free on the unit; the
                // fetch was already charged.
                PlanOp::Init { .. } => (ShortOperand::List(u), u, None),
                PlanOp::InitAnti { short, .. } => {
                    model.stream_operand(mapped[short], false, mem);
                    let kind = Some(SetOpKind::AntiSubtract);
                    (ShortOperand::List(mapped[short]), u, kind)
                }
                PlanOp::Apply { list, kind, .. } => {
                    // §11: verified plans Init a target before any Apply
                    // (fingers-verify's use-before-init check); a miss is a plan bug.
                    #[allow(clippy::expect_used)]
                    let set = self
                        .frames
                        .lookup(task.frame, target)
                        .expect("Apply requires a materialized set");
                    model.stream_operand(mapped[list], list == level, mem);
                    (ShortOperand::Set(set), mapped[list], Some(kind))
                }
            };
            let key = (short, long_v, kind, bound);
            let set = match self.memo.iter().find(|(k, _)| *k == key) {
                Some(&(_, set)) => set,
                None => {
                    let (set, mut out) = self.frames.new_set();
                    let long = clip(graph.neighbors(long_v), bound);
                    match (short, kind) {
                        (_, None) => out.extend_from_slice(long),
                        (ShortOperand::List(v), Some(kind)) => {
                            model.execute(kind, clip(graph.neighbors(v), bound), long, &mut out);
                        }
                        (ShortOperand::Set(s), Some(kind)) => {
                            model.execute(kind, clip(self.frames.set(s), bound), long, &mut out);
                        }
                    }
                    self.frames.store(set, out);
                    self.memo.push((key, set));
                    set
                }
            };
            self.frames.emit(target, set);
        }
    }

    /// Collects the vertices `task` extends to at the next level —
    /// `S_{level+1}` above every known symmetry-breaking bound, minus the
    /// vertices already mapped — and returns how many there are. Call after
    /// [`run_ops`](Self::run_ops), before retaining its emissions.
    pub fn find_candidates(&mut self, plan: &ExecutionPlan, task: &Task) -> usize {
        let next = task.level + 1;
        // §11: verified plans materialize S_{level+1} before it is read
        // (fingers-verify's materialization check); a miss is a plan bug.
        #[allow(clippy::expect_used)]
        let set = self
            .frames
            .lookup(task.frame, next)
            .expect("schedule materializes S_{level+1}");
        let bound = known_bound(plan, next, task.level, task.mapped());
        self.candidates.clear();
        self.candidates.extend(
            clip(self.frames.set(set), bound)
                .iter()
                .copied()
                .filter(|c| !task.mapped().contains(c)),
        );
        self.candidates.len()
    }

    /// The candidates the last [`find_candidates`](Self::find_candidates)
    /// collected, ascending.
    pub fn candidates(&self) -> &[VertexId] {
        &self.candidates
    }
}

/// Returns the suffix of `set` strictly above `bound` (symmetry-breaking
/// clip; sound on partial sets because later ops only remove elements).
fn clip(set: &[Elem], bound: Option<Elem>) -> &[Elem] {
    match bound {
        Some(b) => &set[set.partition_point(|&x| x <= b)..],
        None => set,
    }
}

/// The largest already-known symmetry-breaking lower bound for level
/// `target` (restrictions whose smaller side is mapped).
fn known_bound(
    plan: &ExecutionPlan,
    target: usize,
    level: usize,
    mapped: &[VertexId],
) -> Option<Elem> {
    plan.schedule(target)
        .lower_bounds
        .iter()
        .filter(|&&a| a <= level)
        .map(|&a| mapped[a])
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::GraphBuilder;
    use fingers_pattern::{Induced, LevelSchedule, Pattern};
    use fingers_setops::merge;
    use fingers_sim::MemoryConfig;

    /// Merge-kernel op model that records what the interpreter asked for.
    #[derive(Default)]
    struct Recorder {
        streamed: Vec<(VertexId, bool)>,
        executed: Vec<SetOpKind>,
    }

    impl OpModel for Recorder {
        fn stream_operand(&mut self, v: VertexId, streamed: bool, _: &mut MemorySystem) {
            self.streamed.push((v, streamed));
        }

        fn execute(&mut self, kind: SetOpKind, short: &[Elem], long: &[Elem], out: &mut Vec<Elem>) {
            self.executed.push(kind);
            merge::apply_into(kind, short, long, out);
        }
    }

    fn plan(level2: Vec<PlanOp>, lower_bounds_of_4: Vec<usize>) -> ExecutionPlan {
        let schedule = |target, lower_bounds| LevelSchedule {
            target,
            first_connected: 0,
            lower_bounds,
        };
        ExecutionPlan::from_raw_parts(
            Pattern::path(5),
            Induced::Vertex,
            vec![vec![], vec![], level2, vec![], vec![]],
            vec![
                schedule(1, vec![]),
                schedule(2, vec![]),
                schedule(3, vec![]),
                schedule(4, lower_bounds_of_4),
            ],
            vec![],
        )
    }

    /// Path 0-1-2 with pendant neighbours: N(2) = {1, 3, 4, 5}, N(0) = {1, 3}.
    fn graph() -> CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (0, 3)])
            .build()
    }

    fn level2_task() -> Task {
        Task::root(0, 0).child(1, NO_FRAME).child(2, NO_FRAME)
    }

    #[test]
    fn identical_computations_run_once_and_share_one_set() {
        let g = graph();
        let anti = |target| PlanOp::InitAnti { target, short: 0 };
        let plan = plan(vec![anti(3), anti(4)], vec![]);
        let mut interp = Interp::new(&g);
        let mut model = Recorder::default();
        let mut mem = MemorySystem::new(MemoryConfig::paper_default());
        let task = level2_task();
        interp.run_ops(&plan, &task, &mut model, &mut mem);
        // Both ops stream their ancestor operand; only the first computes.
        assert_eq!(model.streamed, vec![(0, false), (0, false)]);
        assert_eq!(model.executed, vec![SetOpKind::AntiSubtract]);
        let (s3, s4) = (
            interp.frames.lookup(NO_FRAME, 3),
            interp.frames.lookup(NO_FRAME, 4),
        );
        assert_eq!(s3, s4);
        assert_eq!(interp.frames.set(s3.expect("S3")), &[4, 5]);
    }

    #[test]
    fn a_different_bound_or_operand_is_a_different_computation() {
        let g = graph();
        let ops = vec![
            PlanOp::Init { target: 3 },
            PlanOp::Init { target: 4 },
            PlanOp::InitAnti {
                target: 3,
                short: 0,
            },
            PlanOp::InitAnti {
                target: 4,
                short: 1,
            },
        ];
        // S4 must exceed u1 = 1: its Init clips, S3's does not.
        let plan = plan(ops, vec![1]);
        let mut interp = Interp::new(&g);
        let mut model = Recorder::default();
        let mut mem = MemorySystem::new(MemoryConfig::paper_default());
        let task = level2_task();
        interp.run_ops(&plan, &task, &mut model, &mut mem);
        assert_eq!(model.executed.len(), 2);
        let set = |target| {
            let id = interp.frames.lookup(NO_FRAME, target).expect("emitted");
            interp.frames.set(id).to_vec()
        };
        // N(2) − N(0) = {4, 5}; N(2) above 1, minus N(1) = {0, 2}: {3, 4, 5}.
        assert_eq!((set(3), set(4)), (vec![4, 5], vec![3, 4, 5]));
        // The next level's candidates: S3 minus the mapped vertices.
        assert_eq!(interp.find_candidates(&plan, &task), 2);
        assert_eq!(interp.candidates(), &[4, 5]);
    }
}
