//! The FINGERS processing element (paper Section 4).
//!
//! Each PE executes whole search trees, decomposed into *tasks* (extend the
//! partial embedding by one vertex). A task runs the compiled schedule ops
//! for its level with **set-level parallelism** (all ops issue together,
//! sharing the one streamed neighbor list) and **segment-level parallelism**
//! (each op is split by the task dividers into per-long-segment IU
//! workloads, balanced with the max-load threshold, and aggregated through
//! the bitvector result collector). **Branch-level parallelism** comes from
//! the pseudo-DFS order: sibling tasks form groups whose neighbor-list
//! fetches are issued together, so misses overlap with the compute of the
//! siblings that hit.
//!
//! Functional execution is exact (delegated to `fingers_setops::segmented`),
//! so every simulation doubles as a correctness check against the software
//! miner.

// lint: hot-path(alloc)

use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::{ExecutionPlan, MultiPlan};
use fingers_setops::{segmented, Elem, SegmentedConfig, SetOpKind};
use fingers_sim::{Cycle, MemorySystem};

use crate::chip::PeModel;
use crate::config::PeConfig;
use crate::interp::{Interp, OpModel, Task};
use crate::stats::PeStats;
use crate::trace::{Trace, TraceEvent};

/// A queued task plus the `(first_ready, completion)` of its neighbor-list
/// fetch, filled when its group is first touched.
#[derive(Debug, Clone, Copy)]
struct Queued {
    task: Task,
    ready: (Cycle, Cycle),
}

/// A pseudo-DFS task group: siblings popped (and fetched) together. Its
/// tasks are the slice `start..end` of the PE's task queue; groups nest
/// like the search tree, so the queue is a stack too.
#[derive(Debug)]
struct Group {
    start: usize,
    end: usize,
    /// Queue index of the next task to run.
    next: usize,
    fetched: bool,
    /// Earliest cycle the group may start: child tasks depend on the parent
    /// task's collected results.
    not_before: Cycle,
}

/// The IU array behind its task dividers and result collector: the
/// [`OpModel`] of a FINGERS PE. Holds what an operation's timing touches —
/// the per-IU clocks, the segmented pipeline's scratch, the statistics —
/// plus the running totals of the task being executed.
#[derive(Debug)]
struct IuArray<'g> {
    graph: &'g CsrGraph,
    seg_cfg: SegmentedConfig,
    scratch: segmented::Scratch,
    /// Per-IU busy-until times, persistent across tasks: sibling tasks'
    /// workloads pipeline onto the array as units free up.
    iu_free: Vec<Cycle>,
    /// The last operation (by `ops_issued`) that used each IU.
    iu_last_op: Vec<u64>,
    ops_issued: u64,
    stats: PeStats,
    /// One-way NoC latency from this PE to the shared-cache port.
    noc_latency: Cycle,
    /// Current task: when its compute may start, when its last workload
    /// drains, its divider and collector totals, and when the last operand
    /// list arrives.
    floor: Cycle,
    iu_end: Cycle,
    divider_cycles: u64,
    collector_receives: u64,
    data_done: Cycle,
}

impl OpModel for IuArray<'_> {
    /// Ancestors' lists (postponed anti-subtraction operands) are fetched
    /// again, usually a shared-cache hit since they streamed recently; the
    /// task's own list is shared by all its ops.
    fn stream_operand(&mut self, v: VertexId, streamed: bool, mem: &mut MemorySystem) {
        if !streamed {
            let out = mem.fetch(
                self.floor,
                self.graph.neighbor_list_addr(v),
                self.graph.neighbor_list_bytes(v),
            );
            self.data_done = self.data_done.max(out.completion + self.noc_latency);
        }
    }

    /// Runs the op through the segmented pipeline and schedules its IU
    /// workloads greedily onto the earliest-free IUs, recording busy time
    /// and the Table 3 balance accounting.
    fn execute(&mut self, kind: SetOpKind, short: &[Elem], long: &[Elem], out: &mut Vec<Elem>) {
        let counts =
            segmented::execute_into(&mut self.scratch, kind, short, long, &self.seg_cfg, out);
        let workloads = self.scratch.workload_cycles();
        self.stats.set_ops += 1;
        self.stats.workloads += workloads.len() as u64;
        self.divider_cycles += counts.divider_cycles;
        self.collector_receives += counts.collector_receives;
        self.ops_issued += 1;

        let mut ius_used = 0;
        let mut busy = 0;
        let mut load_start = Cycle::MAX;
        let mut load_end = 0;
        for &cycles in workloads {
            // §11: PeConfig validates iu_count >= 1 at construction, so
            // iu_free is never empty; an empty pool is a config-path bug.
            #[allow(clippy::expect_used)]
            let (idx, _) = self
                .iu_free
                .iter()
                .enumerate()
                .min_by_key(|&(_, &f)| f)
                .expect("at least one IU");
            let start = self.iu_free[idx].max(self.floor);
            self.iu_free[idx] = start + cycles;
            busy += cycles;
            load_start = load_start.min(start);
            load_end = load_end.max(start + cycles);
            if self.iu_last_op[idx] != self.ops_issued {
                self.iu_last_op[idx] = self.ops_issued;
                ius_used += 1;
            }
        }
        self.stats.iu_busy_cycles += busy;
        self.iu_end = self.iu_end.max(load_end);
        if ius_used > 0 {
            self.stats.balance_busy += busy;
            self.stats.balance_span += (load_end - load_start) * ius_used;
        }
    }
}

/// The FINGERS PE simulation state. Implements [`PeModel`] so it can be
/// driven by the shared chip driver.
#[derive(Debug)]
pub struct FingersPe<'g> {
    plans: Vec<&'g ExecutionPlan>,
    cfg: PeConfig,
    /// Front-end time: where the fetch/head-list/divider stages are. Tasks
    /// issue from here; the IU array drains behind it (macro-pipeline
    /// overlap across tasks, Section 4's 5-stage pipeline).
    now: Cycle,
    /// Latest task completion (the PE's retire time).
    finish: Cycle,
    stack: Vec<Group>,
    /// The tasks of every group on `stack`, bottom group first.
    queue: Vec<Queued>,
    interp: Interp<'g>,
    ius: IuArray<'g>,
    /// Live candidate-set bytes (private-cache occupancy model).
    live_bytes: u64,
    /// EWMA of materialized candidate-set lengths, for group sizing.
    avg_candidate_len: f64,
    /// Synthetic spill address region (above the graph's footprint).
    spill_base: u64,
    spill_cursor: u64,
    trace: Trace,
}

impl<'g> FingersPe<'g> {
    /// Creates a PE executing `multi` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if any pattern has fewer than 2 vertices.
    pub fn new(graph: &'g CsrGraph, multi: &'g MultiPlan, cfg: PeConfig) -> Self {
        // lint: allow-alloc(per-PE construction, once per simulation)
        let plans: Vec<&ExecutionPlan> = multi.plans().iter().collect();
        assert!(
            plans.iter().all(|p| p.pattern_size() >= 2),
            "patterns must have at least 2 vertices"
        );
        let ius = IuArray {
            graph,
            seg_cfg: cfg.segmented(),
            scratch: segmented::Scratch::default(),
            // lint: allow-alloc(per-PE construction, once per simulation)
            iu_free: vec![0; cfg.num_ius],
            // lint: allow-alloc(per-PE construction, once per simulation)
            iu_last_op: vec![0; cfg.num_ius],
            ops_issued: 0,
            stats: PeStats {
                num_ius: cfg.num_ius,
                // lint: allow-alloc(per-PE construction, once per simulation)
                embeddings: vec![0; plans.len()],
                ..PeStats::default()
            },
            noc_latency: 0,
            floor: 0,
            iu_end: 0,
            divider_cycles: 0,
            collector_receives: 0,
            data_done: 0,
        };
        Self {
            plans,
            now: 0,
            finish: 0,
            // lint: allow-alloc(per-PE construction; grows to the deepest tree, then is reused)
            stack: Vec::new(),
            // lint: allow-alloc(per-PE construction; grows to the deepest tree, then is reused)
            queue: Vec::new(),
            interp: Interp::new(graph),
            ius,
            live_bytes: 0,
            avg_candidate_len: graph.avg_degree().max(1.0),
            spill_base: graph.total_bytes().next_multiple_of(64),
            spill_cursor: 0,
            // lint: allow-alloc(per-PE construction; the trace ring is sized once)
            trace: Trace::with_capacity(cfg.trace_capacity),
            cfg,
        }
    }

    /// The event trace recorded so far (empty unless
    /// [`PeConfig::trace_capacity`] is non-zero).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Sets this PE's one-way NoC latency to the shared cache (its mesh
    /// position's distance; see [`fingers_sim::MeshNoc`]).
    pub fn set_noc_latency(&mut self, latency: Cycle) {
        self.ius.noc_latency = latency;
    }

    /// Pseudo-DFS group size: the minimum number of tasks estimated to fill
    /// the IUs, from average set sizes (Section 4.1).
    fn group_size(&self) -> usize {
        if !self.cfg.pseudo_dfs {
            return 1;
        }
        let short_segments = (self.avg_candidate_len / self.cfg.short_segment_len as f64).max(1.0);
        let ius_per_op = (short_segments / self.cfg.max_load as f64).ceil().max(1.0);
        let ops_per_task = 2.0; // typical ops per task across the benchmarks
        let ius_per_task = (ius_per_op * ops_per_task).max(1.0);
        let g = (self.cfg.num_ius as f64 / ius_per_task).ceil() as usize;
        g.clamp(1, self.cfg.max_group_size)
    }

    /// Issues the neighbor-list fetches of every task in group `idx` (the
    /// pseudo-DFS "pop together, hits first" policy), then orders the tasks
    /// by data readiness.
    fn fetch_group(&mut self, idx: usize, mem: &mut MemorySystem) {
        let group = &mut self.stack[idx];
        let now = self.now.max(group.not_before);
        let tasks = &mut self.queue[group.start..group.end];
        for q in tasks.iter_mut() {
            let v = q.task.vertex();
            let out = mem.fetch(
                now,
                self.ius.graph.neighbor_list_addr(v),
                self.ius.graph.neighbor_list_bytes(v),
            );
            q.ready = (
                out.first_ready + self.ius.noc_latency,
                out.completion + self.ius.noc_latency,
            );
        }
        // Execute ready tasks first while the others' fetches are in flight
        // (stable: ties keep candidate order).
        tasks.sort_by_key(|q| q.ready.1);
        group.fetched = true;
        self.trace.record(TraceEvent::GroupFetch {
            cycle: now,
            tasks: tasks.len(),
        });
    }

    /// Executes one task end to end, spawning child groups or counting
    /// embeddings. Returns the task's finish cycle.
    fn run_task(&mut self, task: Task, data: (Cycle, Cycle), mem: &mut MemorySystem) -> Cycle {
        let plan = self.plans[task.plan_idx];
        let level = task.level;
        self.ius.stats.tasks += 1;

        let (first_ready, all_data_done) = data;
        let compute_start = self.now.max(first_ready);
        if compute_start > self.now {
            self.ius.stats.stall_cycles += compute_start - self.now;
        }
        self.trace.record(TraceEvent::TaskStart {
            cycle: compute_start,
            level,
            vertex: task.vertex(),
        });
        let workloads_before = self.ius.stats.workloads;

        // --- run the level's schedule ops with set-level parallelism ---
        self.ius.floor = compute_start;
        self.ius.iu_end = compute_start;
        self.ius.divider_cycles = 0;
        self.ius.collector_receives = 0;
        self.ius.data_done = all_data_done;
        self.interp.run_ops(plan, &task, &mut self.ius, mem);

        // --- task timing: IU drain vs divider vs collector serial ---
        let divider_stage = self
            .ius
            .divider_cycles
            .div_ceil(self.cfg.num_dividers.max(1) as u64);
        let divider_end = compute_start + divider_stage;
        let collector_end = compute_start + self.ius.collector_receives;
        // The 5-stage macro pipeline overlaps the fixed stage latencies with
        // compute; the overhead only shows when the task is tiny.
        let task_end = self
            .ius
            .iu_end
            .max(divider_end)
            .max(collector_end)
            .max(self.ius.data_done)
            .max(compute_start + self.cfg.pipeline_overhead);
        // The front end moves on as soon as this task's workloads are
        // dispatched; the IU array drains behind it, so sibling tasks
        // pipeline across the macro stages.
        self.now = compute_start + divider_stage.max(self.cfg.pipeline_overhead);
        self.finish = self.finish.max(task_end);
        self.ius.stats.cycles = self.finish;

        // --- spawn children or count embeddings ---
        let candidates = self.interp.find_candidates(plan, &task);
        let children = if level + 2 == plan.pattern_size() {
            self.ius.stats.embeddings[task.plan_idx] += candidates as u64;
            0
        } else {
            candidates
        };
        if children > 0 {
            self.spawn_children(&task, mem, task_end);
        }
        self.trace.record(TraceEvent::TaskRetire {
            cycle: task_end,
            level,
            workloads: self.ius.stats.workloads - workloads_before,
            children,
        });
        task_end
    }

    /// Keeps `task`'s emissions as a frame and pushes its candidates as
    /// pseudo-DFS task groups.
    fn spawn_children(&mut self, task: &Task, mem: &mut MemorySystem, now: Cycle) {
        let candidates = self.interp.candidates();
        // Update the running candidate-length estimate for group sizing.
        self.avg_candidate_len = 0.9 * self.avg_candidate_len + 0.1 * candidates.len() as f64;

        let frame = self.interp.frames.retain(task.frame, self.stack.len());
        self.charge_private_cache(self.interp.frames.bytes(frame), mem, now);

        // Push in reverse so the first chunk is executed first (DFS).
        for chunk in self.interp.candidates().chunks(self.group_size()).rev() {
            let start = self.queue.len();
            self.queue.extend(chunk.iter().map(|&c| Queued {
                task: task.child(c, frame),
                ready: (0, 0),
            }));
            self.ius.stats.groups += 1;
            self.ius.stats.group_tasks_sum += chunk.len() as u64;
            self.stack.push(Group {
                start,
                end: self.queue.len(),
                next: start,
                fetched: false,
                not_before: now,
            });
        }
    }

    /// Private-cache occupancy accounting with spill-to-shared on overflow.
    fn charge_private_cache(&mut self, bytes: u64, mem: &mut MemorySystem, now: Cycle) {
        let capacity = self.cfg.scaled_private_cache_bytes();
        let before = self.live_bytes;
        self.live_bytes += bytes;
        if self.live_bytes > capacity {
            let overflow = self.live_bytes - capacity.max(before);
            self.ius.stats.spill_bytes += overflow;
            self.trace.record(TraceEvent::Spill {
                cycle: now,
                bytes: overflow,
            });
            // Spilled sets travel over the NoC into the shared cache.
            let addr = self.spill_base + (self.spill_cursor % (4 * capacity));
            self.spill_cursor += overflow;
            mem.write_back(now, addr, overflow);
        }
    }

    /// Immutable view of the accumulated statistics.
    pub fn stats(&self) -> &PeStats {
        &self.ius.stats
    }
}

impl PeModel for FingersPe<'_> {
    fn now(&self) -> Cycle {
        self.now
    }

    fn set_now(&mut self, c: Cycle) {
        self.now = self.now.max(c);
    }

    fn has_work(&self) -> bool {
        !self.stack.is_empty()
    }

    fn start_tree(&mut self, root: VertexId) {
        // One level-0 task per plan, in one group: multi-pattern trunks
        // share the root's neighbor-list fetch (Section 4, multi-pattern).
        let start = self.queue.len();
        self.queue
            .extend((0..self.plans.len()).map(|plan_idx| Queued {
                task: Task::root(plan_idx, root),
                ready: (0, 0),
            }));
        self.stack.push(Group {
            start,
            end: self.queue.len(),
            next: start,
            fetched: false,
            not_before: 0,
        });
    }

    fn step(&mut self, mem: &mut MemorySystem) {
        // Find the next task: drop exhausted groups, and with the last
        // child group of a task the frame (and private-cache bytes) its
        // subtree was reading.
        while let Some(top) = self.stack.last() {
            if top.next < top.end {
                break;
            }
            self.queue.truncate(top.start);
            self.stack.pop();
            let released = self.interp.frames.release(self.stack.len());
            self.live_bytes = self.live_bytes.saturating_sub(released);
        }
        let Some(top) = self.stack.len().checked_sub(1) else {
            return;
        };
        if !self.stack[top].fetched {
            self.fetch_group(top, mem);
        }
        let group = &mut self.stack[top];
        let Queued { task, ready } = self.queue[group.next];
        group.next += 1;
        self.run_task(task, ready, mem);
    }

    fn take_stats(&mut self) -> PeStats {
        self.ius.stats.cycles = self.now;
        std::mem::take(&mut self.ius.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::GraphBuilder;
    use fingers_pattern::benchmarks::Benchmark;
    use fingers_sim::MemoryConfig;

    fn k4() -> CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build()
    }

    fn run_single(graph: &CsrGraph, bench: Benchmark, cfg: PeConfig) -> PeStats {
        let multi = bench.plan();
        let mut mem = MemorySystem::new(MemoryConfig::paper_default());
        let mut pe = FingersPe::new(graph, &multi, cfg);
        for v in graph.vertices() {
            pe.start_tree(v);
            while pe.has_work() {
                pe.step(&mut mem);
            }
        }
        pe.take_stats()
    }

    #[test]
    fn triangle_count_on_k4() {
        let s = run_single(&k4(), Benchmark::Tc, PeConfig::default());
        assert_eq!(s.embeddings, vec![4]);
        assert!(s.cycles > 0);
        assert!(s.tasks > 0);
    }

    #[test]
    fn motif_counts_on_k4() {
        // K4: 4 triangles, 0 vertex-induced wedges.
        let s = run_single(&k4(), Benchmark::Mc3, PeConfig::default());
        assert_eq!(s.embeddings, vec![4, 0]);
    }

    #[test]
    fn four_clique_on_k5() {
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
            }
        }
        let g = GraphBuilder::new().edges(edges).build();
        let s = run_single(&g, Benchmark::Cl4, PeConfig::default());
        assert_eq!(s.embeddings, vec![5]);
        let s = run_single(&g, Benchmark::Cl5, PeConfig::default());
        assert_eq!(s.embeddings, vec![1]);
    }

    #[test]
    fn pseudo_dfs_off_still_correct() {
        let cfg = PeConfig {
            pseudo_dfs: false,
            ..PeConfig::default()
        };
        let s = run_single(&k4(), Benchmark::Tc, cfg);
        assert_eq!(s.embeddings, vec![4]);
    }

    #[test]
    fn single_iu_still_correct() {
        let cfg = PeConfig::iso_area_ius(1);
        let s = run_single(&k4(), Benchmark::Tc, cfg);
        assert_eq!(s.embeddings, vec![4]);
    }

    #[test]
    fn stats_are_consistent() {
        let s = run_single(&k4(), Benchmark::Tt, PeConfig::default());
        // K4 has no vertex-induced tailed triangles (extra edges).
        assert_eq!(s.embeddings, vec![0]);
        assert!(s.active_rate() <= 1.0);
        assert!(s.balance_rate() <= 1.0 + 1e-9);
    }

    #[test]
    fn pipelining_improves_utilization_on_real_work() {
        use fingers_graph::gen::{chung_lu_power_law, ChungLuConfig};
        let g = chung_lu_power_law(&ChungLuConfig::new(400, 4000, 3));
        // Pseudo-DFS keeps sibling tasks in flight on the IU array; strict
        // DFS (group size 1) still pipelines but prefetches nothing, so
        // utilization and cycles must both be no better.
        let on = run_single(&g, Benchmark::Cyc, PeConfig::default());
        let off = run_single(
            &g,
            Benchmark::Cyc,
            PeConfig {
                pseudo_dfs: false,
                ..PeConfig::default()
            },
        );
        assert_eq!(on.embeddings, off.embeddings);
        assert!(
            on.cycles <= off.cycles,
            "on {} off {}",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn retire_time_never_precedes_front_end_work() {
        let s = run_single(&k4(), Benchmark::Tc, PeConfig::default());
        // The reported cycle count is the retire time of the last task,
        // which bounds every stage.
        assert!(s.cycles as f64 >= s.iu_busy_cycles as f64 / s.num_ius as f64);
    }

    #[test]
    fn group_statistics_track_branch_parallelism() {
        use fingers_graph::gen::erdos_renyi;
        let g = erdos_renyi(200, 2000, 1);
        let s = run_single(&g, Benchmark::Tc, PeConfig::default());
        assert!(s.groups > 0);
        assert!(s.avg_group_size() >= 1.0);
        assert!(s.avg_ops_per_task() > 0.0);
        assert!(s.avg_workloads_per_op() >= 1.0);
    }

    #[test]
    fn trace_records_task_lifecycle() {
        let cfg = PeConfig {
            trace_capacity: 4096,
            ..PeConfig::default()
        };
        let multi = Benchmark::Tc.plan();
        let mut mem = MemorySystem::new(fingers_sim::MemoryConfig::paper_default());
        let g = k4();
        let mut pe = FingersPe::new(&g, &multi, cfg);
        for v in g.vertices() {
            pe.start_tree(v);
            while pe.has_work() {
                pe.step(&mut mem);
            }
        }
        let trace = pe.trace();
        assert!(!trace.is_empty());
        let text = trace.render();
        assert!(text.contains("start"));
        assert!(text.contains("retire"));
        // Events are recorded in nondecreasing front-end order per kind;
        // at minimum the timeline renders one line per event.
        assert_eq!(text.lines().count(), trace.len());
    }

    #[test]
    fn tracing_does_not_change_timing() {
        let g = k4();
        let plain = run_single(&g, Benchmark::Tc, PeConfig::default());
        let traced = run_single(
            &g,
            Benchmark::Tc,
            PeConfig {
                trace_capacity: 1024,
                ..PeConfig::default()
            },
        );
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.embeddings, traced.embeddings);
    }

    #[test]
    fn more_ius_do_not_hurt_cycles() {
        use fingers_graph::gen::{chung_lu_power_law, ChungLuConfig};
        let g = chung_lu_power_law(&ChungLuConfig::new(300, 3000, 9));
        let few = run_single(&g, Benchmark::Tt, PeConfig::unlimited_area_ius(2));
        let many = run_single(&g, Benchmark::Tt, PeConfig::unlimited_area_ius(32));
        assert_eq!(few.embeddings, many.embeddings);
        assert!(
            many.cycles <= few.cycles,
            "32 IUs {} vs 2 IUs {}",
            many.cycles,
            few.cycles
        );
    }
}
