//! Parallelism profile: quantifies the realized degree of each fine-grained
//! parallelism level per (pattern, graph), supporting the paper's final
//! contribution claim that "different patterns and different graphs exhibit
//! drastically different degrees of each fine-grained parallelism"
//! (Sections 1 and 6.2).
//!
//! Also measures the *coarse-grained* software analogue: wall-clock speedup
//! of the task-parallel reference miner as the worker-thread count grows
//! (the software counterpart of the accelerator's PE scaling), dumping the
//! raw series as JSON when `$FINGERS_RESULTS_DIR` exists.

use fingers_core::config::PeConfig;
use fingers_mining::EngineConfig;

use crate::datasets::load;
use crate::report::{json_escape, write_json};
use crate::runner::{benchmarks, datasets, run_fingers_single, run_software_grid, SoftwareCell};

/// Runs every benchmark × dataset cell on one FINGERS PE and reports the
/// realized branch- (tasks per pseudo-DFS group), set- (scheduled ops per
/// task, after dedup), and segment-level (IU workloads per op) parallelism.
pub fn run(quick: bool) -> String {
    let benches = benchmarks(quick);
    let graphs = datasets(quick);

    let mut out = String::from(
        "## Parallelism profile — realized degree of each fine-grained level\n\n\
         Values are `branch / set / segment`: mean tasks per pseudo-DFS \
         group, mean set ops per task (identical computations deduplicated, \
         which is why cliques sit near 1), and mean IU workloads per set \
         operation.\n\n| pattern \\ graph |",
    );
    for d in &graphs {
        out.push_str(&format!(" {} |", d.abbrev()));
    }
    out.push_str("\n|---|");
    for _ in &graphs {
        out.push_str("---|");
    }
    out.push('\n');
    for &b in &benches {
        out.push_str(&format!("| {} |", b.abbrev()));
        for &d in &graphs {
            let r = run_fingers_single(load(d), b, PeConfig::default());
            let pe = &r.pes[0];
            out.push_str(&format!(
                " {:.1} / {:.1} / {:.1} |",
                pe.avg_group_size(),
                pe.avg_ops_per_task(),
                pe.avg_workloads_per_op()
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "\n- expected shapes: cliques ≈ 1 set op per task (no set-level \
         parallelism — Section 6.2); subtraction-heavy patterns (tt, cyc) \
         carry more ops and more segments; high-degree graphs (Or) have \
         the most segment-level parallelism; branch-level degree rises \
         where candidate sets are small\n",
    );
    out.push_str(&software_scaling_section(quick));
    out
}

/// Thread counts swept by the software-scaling measurement.
pub const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Bitmap-tier modes swept alongside the thread counts: off vs default-on.
fn bitmap_modes() -> [EngineConfig; 2] {
    [EngineConfig::without_bitmap(), EngineConfig::default()]
}

/// Measures the task-parallel software miner's wall-clock speedup over its
/// own single-thread run for each (dataset, benchmark, bitmap-mode) cell,
/// renders a markdown table, and writes the raw series to
/// `parallelism_threads.json` (under the usual results-directory gating).
/// Each JSON cell records its `bitmap_hubs` toggle, so thread-scaling can
/// be analyzed with the bitmap tier on and off separately.
fn software_scaling_section(quick: bool) -> String {
    let cells = run_software_grid(quick, &THREAD_SWEEP, &bitmap_modes());
    write_json("parallelism_threads", &render_json(&cells));

    let mut out = String::from(
        "\n## Software miner thread scaling — root-partitioned tasks\n\n\
         Wall-clock speedup of `count_plan_parallel` over its 1-thread run \
         (identical counts at every thread count and bitmap mode, by \
         construction). `bitmap=off` is the merge/galloping engine; \
         `bitmap=on` adds the dense hub-bitmap tier.\n\n\
         | dataset / benchmark / bitmap |",
    );
    for t in THREAD_SWEEP {
        out.push_str(&format!(" {t} thread{} |", if t == 1 { "" } else { "s" }));
    }
    out.push_str("\n|---|");
    for _ in THREAD_SWEEP {
        out.push_str("---|");
    }
    out.push('\n');
    // Grid order is dataset-major, then benchmark, then bitmap mode, then
    // threads, so each consecutive THREAD_SWEEP-sized chunk is one
    // (dataset, benchmark, bitmap) row.
    for row in cells.chunks(THREAD_SWEEP.len()) {
        let base_ms = row[0].wall_ms.max(1e-9);
        out.push_str(&format!(
            "| {} / {} / {} |",
            row[0].dataset,
            row[0].benchmark,
            if row[0].bitmap_hubs == 0 { "off" } else { "on" }
        ));
        for c in row {
            out.push_str(&format!(
                " {:.2}× ({:.1} ms) |",
                base_ms / c.wall_ms.max(1e-9),
                c.wall_ms
            ));
        }
        out.push('\n');
    }
    out.push_str(
        "\n- speedups track the machine's core count: on a single-core host \
         every column stays ≈ 1× (the engine adds no contention, so it \
         does not *slow down* either); the per-thread counts are asserted \
         identical by `tests/determinism.rs`, with the bitmap tier both on \
         and off\n",
    );
    out
}

/// Renders the grid as a JSON array of cell objects.
fn render_json(cells: &[SoftwareCell]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"dataset\": \"{}\", \"benchmark\": \"{}\", \"threads\": {}, \
             \"bitmap_hubs\": {}, \"count_fusion\": {}, \"simd\": {}, \
             \"embeddings\": {}, \"wall_ms\": {:.3}}}{}\n",
            json_escape(&c.dataset),
            json_escape(&c.benchmark),
            c.threads,
            c.bitmap_hubs,
            c.count_fusion,
            c.simd,
            c.embeddings,
            c.wall_ms,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_renders() {
        let r = run(true);
        assert!(r.contains("Parallelism profile"));
        assert!(r.contains(" / "));
        assert!(r.contains("thread scaling"));
        assert!(r.contains("1 thread |"));
    }

    #[test]
    fn json_series_is_well_formed() {
        let cells = vec![
            SoftwareCell {
                dataset: "As".into(),
                benchmark: "tc".into(),
                threads: 1,
                bitmap_hubs: 0,
                count_fusion: true,
                simd: true,
                embeddings: 42,
                wall_ms: 1.5,
            },
            SoftwareCell {
                dataset: "As".into(),
                benchmark: "tc".into(),
                threads: 2,
                bitmap_hubs: 64,
                count_fusion: false,
                simd: false,
                embeddings: 42,
                wall_ms: 0.9,
            },
        ];
        let j = render_json(&cells);
        assert!(j.starts_with("[\n"));
        assert!(j.trim_end().ends_with(']'));
        assert_eq!(j.matches("\"threads\"").count(), 2);
        assert!(j.contains("\"bitmap_hubs\": 0"));
        assert!(j.contains("\"bitmap_hubs\": 64"));
        assert!(j.contains("\"count_fusion\": true"));
        assert!(j.contains("\"count_fusion\": false"));
        assert!(j.contains("\"simd\": true"));
        assert!(j.contains("\"simd\": false"));
        assert!(j.contains("\"embeddings\": 42"));
        // Exactly one separating comma between the two objects.
        assert_eq!(j.matches("},").count(), 1);
    }
}
