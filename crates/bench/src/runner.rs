//! Shared experiment execution helpers.

use fingers_core::chip::simulate_fingers;
use fingers_core::config::{ChipConfig, PeConfig};
use fingers_core::stats::ChipReport;
use fingers_flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_graph::CsrGraph;
use fingers_mining::{count_benchmark_parallel_with, EngineConfig};
use fingers_pattern::benchmarks::Benchmark;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Result of running one (graph, benchmark) cell on both designs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// FINGERS end-to-end cycles.
    pub fingers_cycles: u64,
    /// FlexMiner end-to-end cycles.
    pub flexminer_cycles: u64,
    /// Per-pattern embedding counts (identical between designs; asserted).
    pub embeddings: Vec<u64>,
    /// `flexminer_cycles / fingers_cycles`.
    pub speedup: f64,
}

fn cell(fingers: ChipReport, flexminer: ChipReport) -> CellResult {
    assert_eq!(
        fingers.embeddings, flexminer.embeddings,
        "functional divergence between designs"
    );
    CellResult {
        fingers_cycles: fingers.cycles,
        flexminer_cycles: flexminer.cycles,
        speedup: flexminer.cycles as f64 / fingers.cycles.max(1) as f64,
        embeddings: fingers.embeddings,
    }
}

/// Runs one benchmark on one graph with a single PE of each design
/// (Figure 9's comparison unit).
pub fn compare_single_pe(graph: &CsrGraph, bench: Benchmark) -> CellResult {
    let multi = bench.plan();
    cell(
        simulate_fingers(graph, &multi, &ChipConfig::single_pe()),
        simulate_flexminer(graph, &multi, &FlexMinerChipConfig::single_pe()),
    )
}

/// Runs the iso-area chip comparison: 20 FINGERS PEs vs 40 FlexMiner PEs
/// (Figure 10).
pub fn compare_overall(graph: &CsrGraph, bench: Benchmark) -> CellResult {
    let multi = bench.plan();
    let (fingers_pes, flexminer_pes) = fingers_core::area::iso_area_pe_counts();
    cell(
        simulate_fingers(
            graph,
            &multi,
            &ChipConfig {
                num_pes: fingers_pes,
                ..ChipConfig::default()
            },
        ),
        simulate_flexminer(
            graph,
            &multi,
            &FlexMinerChipConfig {
                num_pes: flexminer_pes,
                ..FlexMinerChipConfig::default()
            },
        ),
    )
}

/// Runs one benchmark on a single FINGERS PE with the given PE config.
pub fn run_fingers_single(graph: &CsrGraph, bench: Benchmark, pe: PeConfig) -> ChipReport {
    let multi = bench.plan();
    let mut cfg = ChipConfig::single_pe();
    cfg.pe = pe;
    simulate_fingers(graph, &multi, &cfg)
}

/// One measured cell of the software-miner grid: a benchmark mined on a
/// dataset with the task-parallel engine at a fixed thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoftwareCell {
    /// Dataset abbreviation (Table 1 naming).
    pub dataset: String,
    /// Benchmark abbreviation.
    pub benchmark: String,
    /// Worker threads used.
    pub threads: usize,
    /// Hub budget of the bitmap kernel tier (0 = tier disabled).
    pub bitmap_hubs: usize,
    /// Whether terminal-count fusion was enabled for this cell (bench
    /// hygiene: fusion mode is tagged on every JSON cell so cross-PR
    /// trajectories stay comparable).
    pub count_fusion: bool,
    /// Whether the SIMD kernel tier was eligible for this cell (the
    /// `EngineConfig::simd` toggle; actual vector execution additionally
    /// requires hardware support at run time).
    pub simd: bool,
    /// Total embeddings across the benchmark's patterns.
    pub embeddings: u64,
    /// Wall-clock time of the mining run, in milliseconds.
    pub wall_ms: f64,
}

/// Mines one benchmark on one graph with the task-parallel software engine,
/// recording wall-clock time.
pub fn run_software_cell(
    graph: &CsrGraph,
    dataset: &str,
    bench: Benchmark,
    threads: usize,
    config: &EngineConfig,
) -> SoftwareCell {
    let start = Instant::now();
    let out = count_benchmark_parallel_with(graph, bench, threads, config);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    SoftwareCell {
        dataset: dataset.to_owned(),
        benchmark: bench.abbrev().to_owned(),
        threads,
        bitmap_hubs: config.bitmap_hubs,
        count_fusion: config.fuse_terminal_counts,
        simd: config.simd,
        embeddings: out.total(),
        wall_ms,
    }
}

/// Runs the dataset × benchmark grid with the parallel software miner at
/// each of `configs` × `thread_counts`, in grid order (dataset-major, then
/// benchmark, then config, then thread count). The raw series behind the
/// parallelism experiment's speedup table and JSON dump.
///
/// Polls the checkpoint watchdog's [`crate::checkpoint::section_token`]
/// between cells: when the enclosing `run_all` section is aborted, the
/// grid stops at the next cell boundary (the partial cell list is
/// discarded by the watchdog along with the section body).
pub fn run_software_grid(
    quick: bool,
    thread_counts: &[usize],
    configs: &[EngineConfig],
) -> Vec<SoftwareCell> {
    let token = crate::checkpoint::section_token();
    let mut cells = Vec::new();
    for d in datasets(quick) {
        let graph = crate::datasets::load(d);
        for b in benchmarks(quick) {
            for cfg in configs {
                for &t in thread_counts {
                    if token.is_cancelled() {
                        return cells;
                    }
                    cells.push(run_software_cell(graph, d.abbrev(), b, t, cfg));
                }
            }
        }
    }
    cells
}

/// The benchmark set: all seven in full mode, a fast subset in quick mode.
pub fn benchmarks(quick: bool) -> Vec<Benchmark> {
    if quick {
        vec![Benchmark::Tc, Benchmark::Tt]
    } else {
        Benchmark::ALL.to_vec()
    }
}

/// The dataset set: all six in full mode, the two cache-resident ones in
/// quick mode.
pub fn datasets(quick: bool) -> Vec<fingers_graph::datasets::Dataset> {
    use fingers_graph::datasets::Dataset;
    if quick {
        vec![Dataset::AstroPh, Dataset::Mico]
    } else {
        Dataset::ALL.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::gen::erdos_renyi;

    #[test]
    fn single_pe_cell_is_consistent() {
        let g = erdos_renyi(50, 200, 1);
        let c = compare_single_pe(&g, Benchmark::Tc);
        assert!(c.speedup > 0.0);
        assert_eq!(
            c.speedup,
            c.flexminer_cycles as f64 / c.fingers_cycles as f64
        );
    }

    #[test]
    fn software_cell_counts_and_times() {
        let g = erdos_renyi(40, 160, 2);
        let cfg = EngineConfig::default();
        let one = run_software_cell(&g, "er", Benchmark::Tc, 1, &cfg);
        let two = run_software_cell(&g, "er", Benchmark::Tc, 2, &cfg);
        let off = run_software_cell(&g, "er", Benchmark::Tc, 1, &EngineConfig::without_bitmap());
        assert_eq!(one.embeddings, two.embeddings, "thread-count invariance");
        assert_eq!(one.embeddings, off.embeddings, "bitmap-toggle invariance");
        assert!(one.wall_ms >= 0.0 && two.wall_ms >= 0.0);
        assert_eq!(one.threads, 1);
        assert_eq!(two.threads, 2);
        assert_eq!(one.bitmap_hubs, cfg.bitmap_hubs);
        assert_eq!(off.bitmap_hubs, 0);
        assert!(one.count_fusion, "default config fuses terminal counts");
        let unfused = run_software_cell(
            &g,
            "er",
            Benchmark::Tc,
            1,
            &EngineConfig::without_count_fusion(),
        );
        assert_eq!(one.embeddings, unfused.embeddings, "fusion invariance");
        assert!(!unfused.count_fusion);
        assert!(one.simd, "defaults tag the simd tier on");
        let scalar = run_software_cell(&g, "er", Benchmark::Tc, 2, &EngineConfig::without_simd());
        assert_eq!(one.embeddings, scalar.embeddings, "simd-toggle invariance");
        assert!(!scalar.simd);
        assert_eq!(one.dataset, "er");
        assert_eq!(one.benchmark, Benchmark::Tc.abbrev());
    }

    #[test]
    fn quick_sets_are_subsets() {
        assert!(benchmarks(true).len() < benchmarks(false).len());
        assert!(datasets(true).len() < datasets(false).len());
    }
}
