//! Root-scheduler load-balance evaluation on a hub-heavy power-law graph
//! (DESIGN.md §14).
//!
//! The Chung–Lu generator puts its hubs at low vertex ids, so whichever
//! worker is handed the low ids holds nearly all the DFS work. The
//! experiment compares, per (benchmark, threads) cell, the engine's
//! range-stealing scheduler with two schedules the engine no longer
//! contains, replayed here from per-root timings:
//!
//! - **static** — one contiguous root block per worker, assigned up front
//!   (the strawman the paper's accelerator also avoids);
//! - **cursor** — a fixed partition into `32 × threads` chunks handed out
//!   in order to whichever worker is free first (a list schedule: what a
//!   shared fetch-add cursor, or deques of whole chunks, realize when
//!   chunks are indivisible once started);
//! - **steal** — the schedule the engine actually realized
//!   ([`fingers_mining::count_plan_parallel_trace`]).
//!
//! **Metric: critical-path ms, not contended wall ms.** Every root is
//! timed once, serially and uncontended; a schedule's cost is its slowest
//! worker's summed root times — exactly what the wall clock shows on a
//! machine with at least `threads` idle cores. Measuring contended wall
//! time instead would let the host's core count mask the imbalance under
//! test (on a single-core CI box every schedule takes the same wall time;
//! the hub straggler is invisible). Actual steal-run wall ms is recorded
//! as an advisory column.
//!
//! Counts are asserted bit-identical to the serial miner for the traced
//! run and the per-root replay in every cell, and the headline number is
//! the steal-vs-static critical-path speedup at 8 threads. The raw series
//! is written to `steal_balance.json` under the usual results-directory
//! gating.

use std::time::Instant;

use fingers_graph::gen::{chung_lu_power_law, ChungLuConfig};
use fingers_graph::CsrGraph;
use fingers_mining::parallel::run_task;
use fingers_mining::{
    count_benchmark_with, count_plan_parallel_trace, CountSink, EngineConfig, MiningTask, PlanMiner,
};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::ExecutionPlan;

use crate::report::{json_escape, write_json};

/// Chunks per worker of the replayed `cursor` schedule.
const CURSOR_CHUNKS_PER_WORKER: usize = 32;

/// Runs the grid and writes `steal_balance.json`.
pub fn run(quick: bool) -> String {
    let cells = run_grid(quick);
    write_json("steal_balance", &render_json(&cells));
    render_grid(&cells)
}

/// The synthetic heavy-tail graph (same construction as `bitmap_kernels`
/// and `count_fusion`'s `plhub`): hubs at low ids make the block holding
/// them the straggler.
fn plhub() -> CsrGraph {
    let mut cfg = ChungLuConfig::new(4000, 80_000, 18);
    cfg.exponent = 1.9;
    chung_lu_power_law(&cfg)
}

/// One (benchmark, threads) cell: the same workload under all three
/// schedules.
#[derive(Debug, Clone)]
pub struct StealCell {
    /// Benchmark abbreviation.
    pub benchmark: String,
    /// Worker count every schedule was built for.
    pub threads: usize,
    /// Critical-path ms of the static one-block-per-worker partition.
    pub static_ms: f64,
    /// Critical-path ms of the in-order list schedule of fixed chunks.
    pub cursor_ms: f64,
    /// Critical-path ms of the engine's realized range-stealing schedule.
    pub steal_ms: f64,
    /// Advisory: contended wall ms of the actual traced run (tracks
    /// `steal_ms` only when the host has `threads` idle cores).
    pub steal_wall_ms: f64,
    /// `static_ms / steal_ms` — the headline balance win.
    pub speedup_vs_static: f64,
    /// `cursor_ms / steal_ms` — stealing vs indivisible fixed chunks.
    pub speedup_vs_cursor: f64,
    /// Total embeddings (asserted identical across the traced run, the
    /// per-root replay and the serial miner).
    pub embeddings: u64,
}

/// Per-root serial cost of one plan, as a prefix sum: `ms_before[r]` is the
/// wall ms a single warm miner spent on roots `[0, r)`, minimum over `reps`
/// passes. Returns it with the plan's total count.
fn root_prefix_ms(
    graph: &CsrGraph,
    plan: &ExecutionPlan,
    config: &EngineConfig,
    reps: usize,
) -> (Vec<f64>, u64) {
    let n = graph.vertex_count();
    let mut miner = PlanMiner::with_hubs(graph, plan, config.hub_set(graph), config);
    let mut root_ms = vec![f64::INFINITY; n];
    let mut total = 0u64;
    for _ in 0..reps {
        total = 0;
        for (r, best) in root_ms.iter_mut().enumerate() {
            let one = MiningTask {
                start: r as u32,
                end: r as u32 + 1,
            };
            let start = Instant::now();
            total += run_task::<CountSink>(&mut miner, one).count;
            *best = best.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut ms_before = Vec::with_capacity(n + 1);
    ms_before.push(0.0);
    for ms in root_ms {
        ms_before.push(ms_before[ms_before.len() - 1] + ms);
    }
    (ms_before, total)
}

fn task_ms(ms_before: &[f64], task: &MiningTask) -> f64 {
    ms_before[task.end as usize] - ms_before[task.start as usize]
}

/// Critical path of an explicit schedule: the slowest worker's summed
/// task times.
fn critical_ms(ms_before: &[f64], schedule: &[Vec<MiningTask>]) -> f64 {
    schedule
        .iter()
        .map(|tasks| tasks.iter().map(|t| task_ms(ms_before, t)).sum())
        .fold(0.0, f64::max)
}

/// The static schedule: exactly one contiguous root block per worker.
fn static_schedule(vertex_count: usize, threads: usize) -> Vec<Vec<MiningTask>> {
    MiningTask::partition(vertex_count, threads.max(1))
        .into_iter()
        .map(|t| vec![t])
        .collect()
}

/// Critical path of the in-order list schedule: `chunks`, indivisible, each
/// started by the worker that frees up first.
fn list_schedule_ms(ms_before: &[f64], chunks: &[MiningTask], threads: usize) -> f64 {
    let mut free_at = vec![0.0f64; threads.max(1)];
    for chunk in chunks {
        if let Some(first_free) = free_at.iter_mut().min_by(|a, b| a.total_cmp(b)) {
            *first_free += task_ms(ms_before, chunk);
        }
    }
    free_at.into_iter().fold(0.0, f64::max)
}

/// The benchmark set: triangle counting in quick mode, plus the 4-clique
/// (deeper trees amplify per-root skew) in full mode.
fn balance_benchmarks(quick: bool) -> Vec<Benchmark> {
    if quick {
        vec![Benchmark::Tc]
    } else {
        vec![Benchmark::Tc, Benchmark::Cl4]
    }
}

/// Runs the benchmark × thread-count grid on the hub graph; asserts the
/// traced run's and the replay's counts equal the serial miner's. Plans of
/// a multi-plan benchmark run one after another, so their critical paths
/// add. Polls the checkpoint watchdog between cells like the other grids.
pub fn run_grid(quick: bool) -> Vec<StealCell> {
    let token = crate::checkpoint::section_token();
    let reps = if quick { 1 } else { 3 };
    let graph = plhub();
    let n = graph.vertex_count();
    let config = EngineConfig::default();
    let thread_counts: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };

    let mut cells = Vec::new();
    for b in balance_benchmarks(quick) {
        let serial = count_benchmark_with(&graph, b, &config).total();
        let multi = b.plan();
        let mut replayed = 0u64;
        let timings: Vec<Vec<f64>> = multi
            .plans()
            .iter()
            .map(|plan| {
                let (ms_before, count) = root_prefix_ms(&graph, plan, &config, reps);
                replayed += count;
                ms_before
            })
            .collect();
        assert_eq!(replayed, serial, "per-root replay diverged: {b}");
        for &threads in thread_counts {
            if token.is_cancelled() {
                return cells;
            }
            let wall_start = Instant::now();
            let traces: Vec<(u64, Vec<Vec<MiningTask>>)> = multi
                .plans()
                .iter()
                .map(|plan| count_plan_parallel_trace(&graph, plan, threads, &config))
                .collect();
            let steal_wall_ms = wall_start.elapsed().as_secs_f64() * 1e3;
            let traced: u64 = traces.iter().map(|(count, _)| count).sum();
            let blocks = static_schedule(n, threads);
            let chunks = MiningTask::partition(n, threads * CURSOR_CHUNKS_PER_WORKER);
            let (mut static_ms, mut cursor_ms, mut steal_ms) = (0.0, 0.0, 0.0);
            for ((_, trace), ms_before) in traces.iter().zip(&timings) {
                steal_ms += critical_ms(ms_before, trace);
                static_ms += critical_ms(ms_before, &blocks);
                cursor_ms += list_schedule_ms(ms_before, &chunks, threads);
            }
            assert_eq!(traced, serial, "traced run diverged: {b} t={threads}");
            cells.push(StealCell {
                benchmark: b.abbrev().to_owned(),
                threads,
                static_ms,
                cursor_ms,
                steal_ms,
                steal_wall_ms,
                speedup_vs_static: static_ms / steal_ms.max(1e-9),
                speedup_vs_cursor: cursor_ms / steal_ms.max(1e-9),
                embeddings: serial,
            });
        }
    }
    cells
}

/// The minimum steal-vs-static speedup among 8-thread cells (the
/// acceptance headline), or `None` when no 8-thread cell exists.
pub fn worst_8t_vs_static(cells: &[StealCell]) -> Option<f64> {
    cells
        .iter()
        .filter(|c| c.threads == 8)
        .map(|c| c.speedup_vs_static)
        .reduce(f64::min)
}

fn render_grid(cells: &[StealCell]) -> String {
    let mut out = String::from(
        "## Range stealing — load balance on the power-law hub graph\n\n\
         Critical-path time (slowest worker's summed per-root serial \
         times) of a static one-block-per-worker partition, of an in-order \
         list schedule of 32 × threads indivisible chunks (what a shared \
         cursor realizes), and of the schedule the engine's range-stealing \
         pool actually realized; counts asserted bit-identical to the \
         serial miner in every cell. Critical path is what the wall clock \
         shows with enough idle cores — contended wall time would hide the \
         imbalance on small hosts.\n\n\
         | benchmark | threads | static ms | cursor ms | steal ms | \
         vs static | vs cursor |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for c in cells {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.2}× | {:.2}× |\n",
            c.benchmark,
            c.threads,
            c.static_ms,
            c.cursor_ms,
            c.steal_ms,
            c.speedup_vs_static,
            c.speedup_vs_cursor
        ));
    }
    if let Some(worst) = worst_8t_vs_static(cells) {
        out.push_str(&format!(
            "\n- worst 8-thread steal-vs-static speedup: {worst:.2}× \
             (the hub block serializes the static schedule; stealing hands \
             its unstarted roots to idle workers)\n"
        ));
    }
    out
}

/// Renders the grid as a JSON document.
fn render_json(cells: &[StealCell]) -> String {
    let mut out = String::from("{\n  \"metric\": \"critical_path_ms\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"plhub\", \"benchmark\": \"{}\", \
             \"threads\": {}, \"static_ms\": {:.3}, \"cursor_ms\": {:.3}, \
             \"steal_ms\": {:.3}, \"steal_wall_ms\": {:.3}, \
             \"speedup_vs_static\": {:.3}, \"speedup_vs_cursor\": {:.3}, \
             \"embeddings\": {}}}{}\n",
            json_escape(&c.benchmark),
            c.threads,
            c.static_ms,
            c.cursor_ms,
            c.steal_ms,
            c.steal_wall_ms,
            c.speedup_vs_static,
            c.speedup_vs_cursor,
            c.embeddings,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    let worst = worst_8t_vs_static(cells).unwrap_or(0.0);
    out.push_str(&format!("  ],\n  \"worst_8t_vs_static\": {worst:.3}\n}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::gen::erdos_renyi;

    #[test]
    fn static_schedule_partitions_roots() {
        for (n, threads) in [(97usize, 8usize), (16, 16), (5, 8)] {
            let sched = static_schedule(n, threads);
            let mut roots: Vec<u32> = sched.iter().flatten().flat_map(MiningTask::roots).collect();
            roots.sort_unstable();
            let everything: Vec<u32> = (0..n as u32).collect();
            assert_eq!(roots, everything, "n={n} threads={threads}");
        }
    }

    #[test]
    fn per_root_replay_matches_serial_count_and_sums_over_ranges() {
        let g = erdos_renyi(80, 400, 9);
        let cfg = EngineConfig::default();
        let serial = count_benchmark_with(&g, Benchmark::Tc, &cfg).total();
        let multi = Benchmark::Tc.plan();
        let (ms_before, total) = root_prefix_ms(&g, &multi.plans()[0], &cfg, 2);
        assert_eq!(total, serial);
        assert_eq!(ms_before.len(), g.vertex_count() + 1);
        assert!(ms_before.windows(2).all(|w| w[0] <= w[1]));
        let whole = critical_ms(&ms_before, &static_schedule(g.vertex_count(), 1));
        for threads in [2usize, 8] {
            let blocks = critical_ms(&ms_before, &static_schedule(g.vertex_count(), threads));
            assert!(blocks <= whole && blocks * threads as f64 >= whole * 0.999);
        }
    }

    #[test]
    fn list_schedule_gives_chunks_to_the_first_free_worker() {
        // Root costs 4, 1, 1, 1, 1 ms as one-root chunks on two workers:
        // the first worker keeps the 4 ms root, the other takes the rest.
        let ms_before = [0.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let chunks = MiningTask::partition(5, 5);
        assert_eq!(list_schedule_ms(&ms_before, &chunks, 2), 4.0);
        assert_eq!(list_schedule_ms(&ms_before, &chunks, 1), 8.0);
        let halves = MiningTask::partition(5, 2);
        assert_eq!(list_schedule_ms(&ms_before, &halves, 2), 6.0);
    }

    #[test]
    fn quick_grid_cells_are_consistent() {
        let cells = run_grid(true);
        assert!(!cells.is_empty());
        assert!(cells.iter().any(|c| c.threads == 8));
        for c in &cells {
            assert!(c.static_ms >= 0.0 && c.cursor_ms >= 0.0 && c.steal_ms >= 0.0);
            assert!((c.speedup_vs_static - c.static_ms / c.steal_ms.max(1e-9)).abs() < 1e-9);
            assert!((c.speedup_vs_cursor - c.cursor_ms / c.steal_ms.max(1e-9)).abs() < 1e-9);
        }
        assert!(worst_8t_vs_static(&cells).is_some());
    }

    #[test]
    fn json_document_is_well_formed() {
        let cells = vec![StealCell {
            benchmark: "tc".into(),
            threads: 8,
            static_ms: 40.0,
            cursor_ms: 12.0,
            steal_ms: 10.0,
            steal_wall_ms: 11.0,
            speedup_vs_static: 4.0,
            speedup_vs_cursor: 1.2,
            embeddings: 99,
        }];
        let j = render_json(&cells);
        assert!(j.starts_with("{\n"));
        assert!(j.trim_end().ends_with('}'));
        assert!(j.contains("\"metric\": \"critical_path_ms\""));
        assert!(j.contains("\"cells\": ["));
        assert!(j.contains("\"worst_8t_vs_static\": 4.000"));
        assert!(j.contains("\"speedup_vs_cursor\": 1.200"));
    }
}
