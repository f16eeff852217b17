//! The executor runs a lowered form of the plan (shared computations,
//! borrowed rows, bounds pushed into every level, empty-set pruning,
//! static duplicate lists, a count loop in place of the last `enter`).
//! None of that may change what is counted or listed: on small graphs,
//! for patterns well outside the seven benchmarks, the fused count, the
//! unfused count, the listing and the brute-force oracle must agree.
//!
//! Debug builds additionally check, inside the executor, every static
//! duplicate list against the whole mapped prefix.

use fingers_graph::gen::{chung_lu_power_law, erdos_renyi, ChungLuConfig};
use fingers_graph::CsrGraph;
use fingers_mining::brute::count_embeddings;
use fingers_mining::{count_plan_with, list_plan, EngineConfig};
use fingers_pattern::{ExecutionPlan, Induced, Pattern};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random connected pattern on 4–6 vertices: a random spanning tree
/// plus a few random extra edges (the generator of
/// `tests/sim_differential.rs`), named by its edge list.
fn random_connected_pattern(seed: u64) -> Pattern {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = rng.gen_range(4..=6usize);
    let mut edges = Vec::new();
    for v in 1..k {
        edges.push((rng.gen_range(0..v), v));
    }
    for _ in 0..rng.gen_range(0..=k) {
        let a = rng.gen_range(0..k);
        let b = rng.gen_range(0..k);
        if a != b && !edges.contains(&(a.min(b), a.max(b))) {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let spec: Vec<String> = edges.iter().map(|(a, b)| format!("{a}-{b}")).collect();
    Pattern::from_edges_named(k, &edges, spec.join(","))
}

/// Uniform degrees, and a Chung–Lu graph whose hubs have the smallest
/// IDs — so symmetry bounds cut hub rows near their start, not their end.
fn graphs() -> [(&'static str, CsrGraph); 2] {
    [
        ("er", erdos_renyi(22, 60, 3)),
        (
            "hub-first",
            chung_lu_power_law(&ChungLuConfig {
                vertices: 24,
                edges: 60,
                exponent: 1.9,
                max_degree_fraction: 0.5,
                seed: 11,
            }),
        ),
    ]
}

fn assert_all_paths_agree(graph: &CsrGraph, pattern: &Pattern, context: &str) {
    for induced in [Induced::Vertex, Induced::Edge] {
        let plan = ExecutionPlan::compile(pattern, induced);
        let expected = count_embeddings(graph, pattern, induced);
        let mut listed = 0u64;
        let mut previous: Option<Vec<u32>> = None;
        list_plan(graph, &plan, &mut |embedding| {
            listed += 1;
            for &(a, b) in plan.restrictions() {
                assert!(embedding[a] < embedding[b], "{context} {pattern}");
            }
            if let Some(previous) = &previous {
                assert!(
                    previous.as_slice() < embedding,
                    "{context} {pattern}: listing left DFS order"
                );
            }
            previous = Some(embedding.to_vec());
        });
        for config in [
            EngineConfig::default(),
            EngineConfig::without_count_fusion(),
            EngineConfig::without_bitmap(),
        ] {
            assert_eq!(
                (count_plan_with(graph, &plan, &config), listed),
                (expected, expected),
                "{context} {pattern} {induced:?}-induced under {config:?}: \
                 (count, listed) vs brute force\n{plan}"
            );
        }
    }
}

#[test]
fn random_patterns_count_and_list_like_brute_force() {
    for (name, graph) in graphs() {
        for seed in 0..24 {
            assert_all_paths_agree(
                &graph,
                &random_connected_pattern(seed),
                &format!("{name} seed {seed}"),
            );
        }
    }
}

/// The shapes `executor::tests::named_patterns_cover_the_rare_shapes`
/// pins: a leaf set final before level k−2 with a later bound (edge-induced
/// star), `InitAnti` then `Subtract` at one level (5-path) and across
/// levels (house), a shared computation whose targets know different
/// bounds (gem), prefix vertices that do reappear as candidates (4-path).
#[test]
fn rare_plan_shapes_count_and_list_like_brute_force() {
    for (name, graph) in graphs() {
        for pattern in [
            Pattern::star(3),
            Pattern::star(4),
            Pattern::path(4),
            Pattern::path(5),
            Pattern::house(),
            Pattern::gem(),
            Pattern::bull(),
            Pattern::butterfly(),
            Pattern::wedge(),
        ] {
            assert_all_paths_agree(&graph, &pattern, name);
        }
    }
}
