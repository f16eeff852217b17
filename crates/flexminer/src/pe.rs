//! The FlexMiner PE: serial DFS walker with a single merge unit.

// lint: hot-path(alloc)

use fingers_core::chip::PeModel;
use fingers_core::interp::{Interp, OpModel, Task};
use fingers_core::stats::{ChipReport, PeStats};
use fingers_graph::{CsrGraph, VertexId};
use fingers_pattern::{ExecutionPlan, MultiPlan};
use fingers_setops::{merge, Elem, SetOpKind};
use fingers_sim::{Cycle, MemoryConfig, MemorySystem, SetAssocCache, MEM_SCALE};
use serde::{Deserialize, Serialize};

/// Configuration of one FlexMiner PE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexMinerPeConfig {
    /// Private (c-map/neighbor) cache capacity in paper-scale bytes.
    pub private_cache_bytes: u64,
    /// Private-cache hit latency in cycles.
    pub private_hit_latency: Cycle,
    /// Fixed per-task control overhead in cycles.
    pub pipeline_overhead: u64,
}

impl Default for FlexMinerPeConfig {
    fn default() -> Self {
        Self {
            private_cache_bytes: 32 * 1024,
            private_hit_latency: 2,
            pipeline_overhead: 4,
        }
    }
}

/// Chip configuration: FlexMiner's largest published configuration is
/// 40 PEs, the iso-area counterpart of 20 FINGERS PEs (Section 6.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexMinerChipConfig {
    /// Number of PEs (default 40).
    pub num_pes: usize,
    /// Per-PE configuration.
    pub pe: FlexMinerPeConfig,
    /// Memory-system configuration (identical substrate to FINGERS).
    pub memory: MemoryConfig,
    /// NoC hop latency in cycles (same mesh model as the FINGERS chip).
    pub noc_per_hop: Cycle,
    /// NoC injection/ejection overhead in cycles.
    pub noc_base: Cycle,
}

impl Default for FlexMinerChipConfig {
    fn default() -> Self {
        Self {
            num_pes: 40,
            pe: FlexMinerPeConfig::default(),
            memory: MemoryConfig::paper_default(),
            noc_per_hop: 1,
            noc_base: 2,
        }
    }
}

impl FlexMinerChipConfig {
    /// A single-PE chip (Section 6.2's comparison unit).
    pub fn single_pe() -> Self {
        Self {
            num_pes: 1,
            ..Self::default()
        }
    }

    /// Sets the shared-cache capacity in paper-scale MB (Figure 13 sweep).
    pub fn with_shared_cache_mb(mut self, mb: f64) -> Self {
        self.memory = MemoryConfig::with_shared_cache_mb(mb);
        self
    }
}

/// The merge unit behind its private cache: the [`OpModel`] of a FlexMiner
/// PE. Everything is serial, so its clock *is* the PE's clock.
#[derive(Debug)]
struct MergeUnit<'g> {
    graph: &'g CsrGraph,
    cfg: FlexMinerPeConfig,
    private: SetAssocCache,
    stats: PeStats,
    noc_latency: Cycle,
    /// The PE's clock: when the current task started.
    now: Cycle,
    /// When the current task's serial work so far ends.
    t: Cycle,
}

impl MergeUnit<'_> {
    /// Blocking fetch of a neighbor list through the private cache; missed
    /// lines go to the shared memory system.
    fn fetch_list(&mut self, v: VertexId, mem: &mut MemorySystem) -> Cycle {
        let addr = self.graph.neighbor_list_addr(v);
        let bytes = self.graph.neighbor_list_bytes(v);
        let line = 64u64;
        let first = addr / line;
        let last = if bytes == 0 {
            first
        } else {
            (addr + bytes - 1) / line
        };
        let mut done = self.now + self.cfg.private_hit_latency;
        for l in first..=last {
            if !self.private.access(l * line) {
                let out = mem.fetch(self.now, l * line, line);
                done = done.max(out.completion + self.noc_latency + self.cfg.private_hit_latency);
            }
        }
        done
    }
}

impl OpModel for MergeUnit<'_> {
    /// Every operand list is streamed again for its op — an ancestor's, or
    /// the task's own once more; the private cache decides whether it is
    /// on chip.
    fn stream_operand(&mut self, v: VertexId, _streamed: bool, mem: &mut MemorySystem) {
        let done = self.fetch_list(v, mem);
        self.t = self.t.max(done);
    }

    /// One serial merge-unit operation: one element per cycle over both
    /// inputs.
    fn execute(&mut self, kind: SetOpKind, short: &[Elem], long: &[Elem], out: &mut Vec<Elem>) {
        let cycles = merge::merge_steps(kind, short, long).max(1);
        self.t += cycles;
        self.stats.iu_busy_cycles += cycles;
        self.stats.balance_busy += cycles;
        self.stats.balance_span += cycles;
        self.stats.set_ops += 1;
        self.stats.workloads += 1;
        merge::apply_into(kind, short, long, out);
    }
}

/// The FlexMiner PE simulation state.
#[derive(Debug)]
pub struct FlexMinerPe<'g> {
    plans: Vec<&'g ExecutionPlan>,
    /// The strict-DFS walk: tasks still to run, next on top.
    stack: Vec<Task>,
    interp: Interp<'g>,
    unit: MergeUnit<'g>,
}

impl<'g> FlexMinerPe<'g> {
    /// Creates a PE executing `multi` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if any pattern has fewer than 2 vertices.
    pub fn new(graph: &'g CsrGraph, multi: &'g MultiPlan, cfg: FlexMinerPeConfig) -> Self {
        // lint: allow-alloc(per-PE construction, once per simulation)
        let plans: Vec<&ExecutionPlan> = multi.plans().iter().collect();
        assert!(
            plans.iter().all(|p| p.pattern_size() >= 2),
            "patterns must have at least 2 vertices"
        );
        let private = SetAssocCache::new((cfg.private_cache_bytes / MEM_SCALE).max(1024), 64, 8);
        Self {
            unit: MergeUnit {
                graph,
                stats: PeStats {
                    num_ius: 1,
                    // lint: allow-alloc(per-PE construction, once per simulation)
                    embeddings: vec![0; plans.len()],
                    ..PeStats::default()
                },
                cfg,
                private,
                noc_latency: 0,
                now: 0,
                t: 0,
            },
            plans,
            // lint: allow-alloc(per-PE construction; grows to the deepest tree, then is reused)
            stack: Vec::new(),
            interp: Interp::new(graph),
        }
    }

    /// Sets this PE's one-way NoC latency to the shared cache.
    pub fn set_noc_latency(&mut self, latency: Cycle) {
        self.unit.noc_latency = latency;
    }

    /// Executes one DFS task (extend at `task.level`): serial set ops on
    /// the single merge unit, then push children in reverse order.
    fn run_task(&mut self, task: Task, mem: &mut MemorySystem) {
        let plan = self.plans[task.plan_idx];
        let unit = &mut self.unit;
        unit.stats.tasks += 1;

        // Blocking fetch: the intrinsic DFS dependency stall of Section 2.3.
        let data_done = unit.fetch_list(task.vertex(), mem);
        if data_done > unit.now {
            unit.stats.stall_cycles += data_done - unit.now;
        }
        unit.t = unit.now.max(data_done);
        self.interp.run_ops(plan, &task, unit, mem);
        unit.t += unit.cfg.pipeline_overhead;
        unit.now = unit.now.max(unit.t);
        unit.stats.cycles = unit.now;

        let candidates = self.interp.find_candidates(plan, &task);
        if task.level + 2 == plan.pattern_size() {
            unit.stats.embeddings[task.plan_idx] += candidates as u64;
        } else if candidates > 0 {
            let frame = self.interp.frames.retain(task.frame, self.stack.len());
            // Strict DFS: push children in reverse so the smallest-ID
            // candidate is explored first.
            let children = self.interp.candidates().iter().rev();
            self.stack.extend(children.map(|&c| task.child(c, frame)));
        }
        // Frames whose last descendant just finished are done.
        self.interp.frames.release(self.stack.len());
    }
}

impl PeModel for FlexMinerPe<'_> {
    fn now(&self) -> Cycle {
        self.unit.now
    }

    fn set_now(&mut self, c: Cycle) {
        self.unit.now = self.unit.now.max(c);
    }

    fn has_work(&self) -> bool {
        !self.stack.is_empty()
    }

    fn start_tree(&mut self, root: VertexId) {
        let plans = (0..self.plans.len()).rev();
        self.stack
            .extend(plans.map(|plan_idx| Task::root(plan_idx, root)));
    }

    fn step(&mut self, mem: &mut MemorySystem) {
        if let Some(task) = self.stack.pop() {
            self.run_task(task, mem);
        }
    }

    fn take_stats(&mut self) -> PeStats {
        self.unit.stats.cycles = self.unit.now;
        std::mem::take(&mut self.unit.stats)
    }
}

/// Simulates a FlexMiner chip executing `multi` over `graph`.
pub fn simulate_flexminer(
    graph: &CsrGraph,
    multi: &MultiPlan,
    config: &FlexMinerChipConfig,
) -> ChipReport {
    let mut mem = MemorySystem::new(config.memory);
    let noc = fingers_sim::MeshNoc::for_pes(config.num_pes, config.noc_per_hop, config.noc_base);
    let mut pes: Vec<FlexMinerPe> = (0..config.num_pes)
        .map(|i| {
            // lint: allow-alloc(chip construction, once per simulation)
            let mut pe = FlexMinerPe::new(graph, multi, config.pe.clone());
            pe.set_noc_latency(noc.pe_latency(i));
            pe
        })
        // lint: allow-alloc(chip construction, once per simulation)
        .collect();
    fingers_core::chip::run_chip_with_roots(
        pes.as_mut_slice(),
        &mut mem,
        fingers_core::chip::root_order(graph, fingers_core::chip::RootSchedule::Sequential),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_core::chip::simulate_fingers;
    use fingers_core::config::ChipConfig;
    use fingers_graph::gen::erdos_renyi;
    use fingers_graph::GraphBuilder;
    use fingers_mining::count_benchmark;
    use fingers_pattern::benchmarks::Benchmark;

    #[test]
    fn k4_triangles() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .build();
        let r = simulate_flexminer(&g, &Benchmark::Tc.plan(), &FlexMinerChipConfig::single_pe());
        assert_eq!(r.embeddings, vec![4]);
    }

    /// Functional equivalence with the software miner for every benchmark.
    #[test]
    fn counts_match_software_miner() {
        let g = erdos_renyi(60, 240, 11);
        for bench in Benchmark::ALL {
            let expected = count_benchmark(&g, bench);
            let cfg = FlexMinerChipConfig {
                num_pes: 3,
                ..FlexMinerChipConfig::default()
            };
            let r = simulate_flexminer(&g, &bench.plan(), &cfg);
            assert_eq!(r.embeddings, expected.per_pattern, "{bench}");
        }
    }

    /// The headline direction: a FINGERS PE beats a FlexMiner PE on a graph
    /// with long neighbor lists.
    #[test]
    fn fingers_single_pe_is_faster() {
        let g = erdos_renyi(150, 3000, 5); // avg degree 40
        let multi = Benchmark::Tc.plan();
        let fm = simulate_flexminer(&g, &multi, &FlexMinerChipConfig::single_pe());
        let fi = simulate_fingers(&g, &multi, &ChipConfig::single_pe());
        assert_eq!(fm.embeddings, fi.embeddings);
        assert!(
            fi.cycles < fm.cycles,
            "FINGERS {} vs FlexMiner {}",
            fi.cycles,
            fm.cycles
        );
    }

    #[test]
    fn more_pes_scale() {
        let g = erdos_renyi(120, 700, 3);
        let multi = Benchmark::Tc.plan();
        let one = simulate_flexminer(&g, &multi, &FlexMinerChipConfig::single_pe());
        let eight = simulate_flexminer(
            &g,
            &multi,
            &FlexMinerChipConfig {
                num_pes: 8,
                ..FlexMinerChipConfig::default()
            },
        );
        assert!(eight.cycles * 2 < one.cycles);
        assert_eq!(eight.embeddings, one.embeddings);
    }
}
