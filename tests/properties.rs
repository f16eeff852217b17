//! Cross-crate property-based tests: invariants that must hold for every
//! random graph, pattern, and configuration.

use proptest::prelude::*;

use fingers_repro::core::chip::simulate_fingers;
use fingers_repro::core::config::{ChipConfig, PeConfig};
use fingers_repro::graph::{CsrGraph, GraphBuilder, VertexId};
use fingers_repro::mining::{count_benchmark, count_benchmark_parallel};
use fingers_repro::pattern::benchmarks::Benchmark;
use fingers_repro::setops::{
    bitmap, galloping, merge, segmented, simd, SegmentedConfig, SetOpKind,
};

/// Strategy: a random small graph as an edge set over `n` vertices.
fn graph_strategy(max_n: VertexId, max_edges: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::btree_set((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
            GraphBuilder::new()
                .edges(edges)
                .vertex_count(n as usize)
                .build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Permuting vertex IDs never changes embedding counts (isomorphism
    /// invariance of the whole stack, including symmetry breaking).
    #[test]
    fn counts_are_isomorphism_invariant(g in graph_strategy(24, 80), seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let n = g.vertex_count();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        perm.shuffle(&mut rng);
        let permuted = GraphBuilder::new()
            .edges(g.edges().map(|(u, v)| (perm[u as usize], perm[v as usize])))
            .vertex_count(n)
            .build();
        for bench in [Benchmark::Tc, Benchmark::Tt, Benchmark::Cyc, Benchmark::Dia] {
            let a = count_benchmark(&g, bench).per_pattern;
            let b = count_benchmark(&permuted, bench).per_pattern;
            prop_assert_eq!(a, b, "{}", bench);
        }
    }

    /// Isolated vertices never change counts.
    #[test]
    fn isolated_vertices_are_inert(g in graph_strategy(20, 60), extra in 1usize..10) {
        let padded = GraphBuilder::new()
            .edges(g.edges())
            .vertex_count(g.vertex_count() + extra)
            .build();
        for bench in [Benchmark::Tc, Benchmark::Mc3] {
            prop_assert_eq!(
                count_benchmark(&g, bench).per_pattern,
                count_benchmark(&padded, bench).per_pattern
            );
        }
    }

    /// Adding an edge never decreases clique counts (monotonicity).
    #[test]
    fn clique_counts_are_edge_monotone(g in graph_strategy(16, 50), a in 0u32..16, b in 0u32..16) {
        prop_assume!(a != b);
        prop_assume!((a as usize) < g.vertex_count() && (b as usize) < g.vertex_count());
        let before = count_benchmark(&g, Benchmark::Cl4).total();
        let bigger = GraphBuilder::new()
            .edges(g.edges())
            .edge(a, b)
            .vertex_count(g.vertex_count())
            .build();
        let after = count_benchmark(&bigger, Benchmark::Cl4).total();
        prop_assert!(after >= before);
    }

    /// The accelerator agrees with the software miner on arbitrary graphs
    /// and odd PE configurations (the fuzzing version of the end-to-end
    /// agreement test).
    #[test]
    fn accelerator_matches_miner_on_random_graphs(
        g in graph_strategy(20, 70),
        ius in 1usize..30,
        group in 1usize..20,
    ) {
        let bench = Benchmark::Tt;
        let expected = count_benchmark(&g, bench).per_pattern;
        let mut cfg = ChipConfig::single_pe();
        cfg.pe = PeConfig {
            num_ius: ius,
            max_group_size: group,
            ..PeConfig::default()
        };
        let r = simulate_fingers(&g, &bench.plan(), &cfg);
        prop_assert_eq!(r.embeddings, expected);
    }

    /// All five kernel families agree on all three operations: whole-list
    /// merge (the functional reference), galloping (the software miner's
    /// skew fast path, including its into-buffer variant), the segmented
    /// hardware pipeline, the dense-bitmap tier (probing the long
    /// operand's `NeighborBitmap` exactly as the miner's hub cache does),
    /// and the SIMD tier (materializing, count, and bounded-count forms) —
    /// on neighbor lists taken from real graphs (complements the
    /// uniform-random unit property tests).
    #[test]
    fn merge_galloping_segmented_bitmap_agree_on_graph_lists(
        g in graph_strategy(30, 200),
        a in 0u32..30,
        b in 0u32..30,
    ) {
        prop_assume!((a as usize) < g.vertex_count() && (b as usize) < g.vertex_count());
        let la = g.neighbors(a);
        let lb = g.neighbors(b);
        let cfg = SegmentedConfig::default();
        let bm = fingers_repro::graph::hubs::neighbor_bitmap(&g, b);
        let mut buf = Vec::new();
        for kind in SetOpKind::ALL {
            let expected = merge::apply(kind, la, lb);
            let galloped = galloping::apply(kind, la, lb);
            prop_assert_eq!(&galloped, &expected, "galloping {}", kind);
            galloping::apply_into(kind, la, lb, &mut buf);
            prop_assert_eq!(&buf, &expected, "galloping-into {}", kind);
            let got = segmented::execute(kind, la, lb, &cfg);
            prop_assert_eq!(&got.result, &expected, "segmented {}", kind);
            bitmap::apply_into(kind, la, &bm, &mut buf);
            prop_assert_eq!(&buf, &expected, "bitmap {}", kind);
            simd::apply_into(kind, la, lb, &mut buf);
            prop_assert_eq!(&buf, &expected, "simd {}", kind);
            prop_assert_eq!(
                simd::count(kind, la, lb),
                merge::count(kind, la, lb),
                "simd count {}", kind
            );
            let bound = la.first().copied();
            prop_assert_eq!(
                simd::count_bounded(kind, la, lb, bound),
                merge::count_bounded(kind, la, lb, bound),
                "simd count_bounded {}", kind
            );
        }
    }

    /// The bitmap toggle (and hub/cache sizing) never changes counts — the
    /// end-to-end fuzzing complement of the per-kernel agreement above.
    #[test]
    fn bitmap_tier_never_changes_counts(
        g in graph_strategy(24, 90),
        hubs in 0usize..20,
        slots in 0usize..4,
        threads in 1usize..4,
    ) {
        use fingers_repro::mining::{count_benchmark_parallel_with, EngineConfig};
        let cfg = EngineConfig {
            bitmap_hubs: hubs,
            bitmap_cache_slots: slots,
            ..EngineConfig::default()
        };
        for bench in [Benchmark::Tc, Benchmark::Tt] {
            prop_assert_eq!(
                count_benchmark_parallel_with(&g, bench, threads, &cfg),
                count_benchmark(&g, bench),
                "{} hubs={} slots={} threads={}", bench, hubs, slots, threads
            );
        }
    }

    /// Terminal-count fusion never changes counts, on arbitrary random
    /// graphs, regardless of the bitmap tier or thread count it composes
    /// with — the fuzzing complement of the fixed-grid equivalence sweep
    /// in the `count_fusion` experiment.
    #[test]
    fn count_fusion_never_changes_counts(
        g in graph_strategy(24, 90),
        hubs in 0usize..20,
        threads in 1usize..4,
    ) {
        use fingers_repro::mining::{count_benchmark_parallel_with, EngineConfig};
        let fused = EngineConfig { bitmap_hubs: hubs, ..EngineConfig::default() };
        let unfused = EngineConfig {
            bitmap_hubs: hubs,
            fuse_terminal_counts: false,
            ..EngineConfig::default()
        };
        for bench in [Benchmark::Tc, Benchmark::Tt, Benchmark::Cyc] {
            prop_assert_eq!(
                count_benchmark_parallel_with(&g, bench, threads, &fused),
                count_benchmark_parallel_with(&g, bench, threads, &unfused),
                "{} hubs={} threads={}", bench, hubs, threads
            );
        }
    }

    /// The SIMD-tier toggle never changes counts, on arbitrary random
    /// graphs, under any steal schedule (1–8 threads over ≤ 24 roots),
    /// composed with any hub budget — the fuzzing complement of the
    /// fixed-grid determinism sweep.
    #[test]
    fn simd_toggle_and_steal_schedule_never_change_counts(
        g in graph_strategy(24, 90),
        hubs in 0usize..20,
        threads in 1usize..9,
        use_simd in proptest::option::of(0u8..1).prop_map(|o| o.is_none()),
    ) {
        use fingers_repro::mining::{count_benchmark_parallel_with, EngineConfig};
        let cfg = EngineConfig {
            bitmap_hubs: hubs,
            simd: use_simd,
            ..EngineConfig::default()
        };
        for bench in [Benchmark::Tc, Benchmark::Tt] {
            prop_assert_eq!(
                count_benchmark_parallel_with(&g, bench, threads, &cfg),
                count_benchmark(&g, bench),
                "{} hubs={} threads={} simd={}",
                bench, hubs, threads, use_simd
            );
        }
    }

    /// The task-parallel miner equals the sequential miner on arbitrary
    /// random graphs at every thread count (the fuzzing complement of the
    /// fixed-dataset determinism test).
    #[test]
    fn parallel_counts_match_sequential_on_random_graphs(
        g in graph_strategy(24, 90),
        threads in 1usize..5,
    ) {
        for bench in [Benchmark::Tc, Benchmark::Cyc, Benchmark::Mc3] {
            prop_assert_eq!(
                count_benchmark_parallel(&g, bench, threads),
                count_benchmark(&g, bench),
                "{} at {} threads", bench, threads
            );
        }
    }

    /// Simulated time is positive and at least the pure compute time lower
    /// bound whenever any work exists.
    #[test]
    fn cycles_exceed_busy_per_iu(g in graph_strategy(20, 60)) {
        let r = simulate_fingers(&g, &Benchmark::Tc.plan(), &ChipConfig::single_pe());
        let pe = &r.pes[0];
        if pe.tasks > 0 {
            prop_assert!(r.cycles > 0);
            prop_assert!(pe.iu_busy_cycles <= r.cycles * pe.num_ius as u64);
        }
    }
}
