//! Determinism: every layer of the reproduction is bit-for-bit repeatable,
//! which is what makes the evaluation harness's numbers citable.

use fingers_repro::core::chip::simulate_fingers;
use fingers_repro::core::config::ChipConfig;
use fingers_repro::flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_repro::graph::datasets::Dataset;
use fingers_repro::graph::gen::{chung_lu_power_law, erdos_renyi, rmat, ChungLuConfig, RmatConfig};
use fingers_repro::graph::CsrGraph;
use fingers_repro::mining::{
    count_benchmark, count_benchmark_parallel_with, count_benchmark_with, EngineConfig,
};
use fingers_repro::pattern::benchmarks::Benchmark;

#[test]
fn dataset_stand_ins_are_reproducible() {
    // (The per-dataset unit tests check determinism of each generator; this
    // covers the end-to-end dataset definitions.)
    let a = Dataset::Mico.load();
    let b = Dataset::Mico.load();
    assert_eq!(a, b);
}

#[test]
fn fingers_simulation_is_deterministic() {
    let g = chung_lu_power_law(&ChungLuConfig::new(150, 900, 17));
    let multi = Benchmark::Cyc.plan();
    let cfg = ChipConfig {
        num_pes: 3,
        ..ChipConfig::default()
    };
    let a = simulate_fingers(&g, &multi, &cfg);
    let b = simulate_fingers(&g, &multi, &cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.embeddings, b.embeddings);
    assert_eq!(a.shared_cache, b.shared_cache);
    assert_eq!(a.dram_bytes, b.dram_bytes);
    for (x, y) in a.pes.iter().zip(&b.pes) {
        assert_eq!(x, y);
    }
}

#[test]
fn flexminer_simulation_is_deterministic() {
    let g = chung_lu_power_law(&ChungLuConfig::new(150, 900, 17));
    let multi = Benchmark::Tt.plan();
    let cfg = FlexMinerChipConfig {
        num_pes: 5,
        ..FlexMinerChipConfig::default()
    };
    let a = simulate_flexminer(&g, &multi, &cfg);
    let b = simulate_flexminer(&g, &multi, &cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.embeddings, b.embeddings);
}

/// The load-bearing guarantee of the task-parallel engine: for **every**
/// benchmark, on synthetic datasets of three different degree structures,
/// the parallel count is bit-identical to the sequential count at 1, 2, 4,
/// and 8 threads — with the dense-bitmap kernel tier both enabled and
/// disabled, with terminal-count fusion both enabled and disabled, and
/// with the SIMD kernel tier both enabled and disabled; the one root
/// scheduler runs under all of them. (The reduction is an
/// order-independent `u64` sum over root-partitioned tasks, and all kernel
/// tiers — including the fused count forms and the vector kernels — are
/// property-tested output-identical, so this holds by construction — this
/// test keeps it that way.)
#[test]
fn parallel_counts_are_bit_identical_to_sequential() {
    let graphs: [(&str, CsrGraph); 3] = [
        ("erdos-renyi", erdos_renyi(130, 650, 7)),
        (
            "chung-lu",
            chung_lu_power_law(&ChungLuConfig::new(140, 800, 17)),
        ),
        ("rmat", rmat(&RmatConfig::graph500(7, 700, 3))),
    ];
    // A small hub budget and tiny cache force real eviction traffic, so the
    // bitmap-on arm exercises build/evict/reuse rather than pure hits.
    let configs = [
        ("bitmap off", EngineConfig::without_bitmap()),
        ("bitmap on", EngineConfig::default()),
        (
            "bitmap tiny cache",
            EngineConfig {
                bitmap_hubs: 8,
                bitmap_cache_slots: 2,
                ..EngineConfig::default()
            },
        ),
        ("fusion off", EngineConfig::without_count_fusion()),
        (
            "fusion off, bitmap off",
            EngineConfig {
                bitmap_hubs: 0,
                fuse_terminal_counts: false,
                ..EngineConfig::default()
            },
        ),
        ("simd off", EngineConfig::without_simd()),
        (
            "everything off",
            EngineConfig {
                bitmap_hubs: 0,
                fuse_terminal_counts: false,
                simd: false,
                ..EngineConfig::default()
            },
        ),
    ];
    for (name, g) in &graphs {
        for bench in Benchmark::ALL {
            let sequential = count_benchmark(g, bench);
            for (cfg_name, cfg) in &configs {
                assert_eq!(
                    count_benchmark_with(g, bench, cfg),
                    sequential,
                    "{name} / {bench} sequential diverged with {cfg_name}"
                );
                for threads in [1, 2, 4, 8] {
                    let parallel = count_benchmark_parallel_with(g, bench, threads, cfg);
                    assert_eq!(
                        parallel, sequential,
                        "{name} / {bench} diverged at {threads} threads with {cfg_name}"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_compilation_is_deterministic() {
    for bench in Benchmark::ALL {
        let a = bench.plan();
        let b = bench.plan();
        assert_eq!(a.plans(), b.plans(), "{bench}");
    }
}
