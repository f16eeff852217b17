//! Differential test across the three plan-driven executors (ROADMAP
//! 5(a), first slice): on one compiled plan, the software miner, the
//! FINGERS simulator and the FlexMiner simulator must report the same
//! embedding count — single-PE and with four PEs interleaving.
//!
//! Each executor is checked against an oracle elsewhere; this drives all
//! three from one place on patterns none of the named benchmarks cover.
//! It is what caught `Frame::lookup` returning a level's *first* emission
//! for a target instead of its last (vertex-induced plans whose level
//! emits `InitAnti` then `Apply` to one target over-counted in FINGERS).

use fingers_repro::core::chip::simulate_fingers;
use fingers_repro::core::config::ChipConfig;
use fingers_repro::flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_repro::graph::gen::erdos_renyi;
use fingers_repro::graph::CsrGraph;
use fingers_repro::mining::count_plan;
use fingers_repro::pattern::{Induced, MultiPlan, Pattern};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random connected pattern on 4–6 vertices: a random spanning tree
/// (each vertex attaches to a random earlier one) plus a few random extra
/// edges — the mutation corpus's generator (`verify/tests`), narrowed to
/// sizes a simulation finishes quickly.
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
    named(k, &edges)
}

/// Names a pattern by its edge list, so a failing cell reads as a spec.
fn named(k: usize, edges: &[(usize, usize)]) -> Pattern {
    let spec: Vec<String> = edges.iter().map(|(a, b)| format!("{a}-{b}")).collect();
    Pattern::from_edges_named(k, edges, spec.join(","))
}

fn assert_executors_agree(graph: &CsrGraph, pattern: &Pattern, context: &str) {
    for induced in [Induced::Vertex, Induced::Edge] {
        let multi = MultiPlan::single(pattern, induced);
        let software = count_plan(graph, &multi.plans()[0]);
        for pes in [1, 4] {
            let fingers = simulate_fingers(
                graph,
                &multi,
                &ChipConfig {
                    num_pes: pes,
                    ..ChipConfig::default()
                },
            );
            let flexminer = simulate_flexminer(
                graph,
                &multi,
                &FlexMinerChipConfig {
                    num_pes: pes,
                    ..FlexMinerChipConfig::default()
                },
            );
            assert_eq!(
                (fingers.embeddings[0], flexminer.embeddings[0]),
                (software, software),
                "{context} {pattern} {induced:?}-induced, {pes} PE(s): \
                 (FINGERS, FlexMiner) vs the software miner's {software}"
            );
        }
    }
}

#[test]
fn random_patterns_count_identically_on_all_three_executors() {
    let graph = erdos_renyi(40, 160, 7);
    for seed in 0..40 {
        let pattern = random_connected_pattern(seed);
        assert_executors_agree(&graph, &pattern, &format!("seed {seed}"));
    }
}

/// The cell the frame-lookup bug was found on: the vertex-induced 5-path
/// counted 241 902 in FINGERS against 188 314 everywhere else.
#[test]
fn five_path_regression() {
    let graph = erdos_renyi(60, 400, 7);
    let path = named(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    assert_eq!(
        count_plan(
            &graph,
            &MultiPlan::single(&path, Induced::Vertex).plans()[0]
        ),
        188_314
    );
    assert_executors_agree(&graph, &path, "5-path");
}

/// Brute-force count of the hand-built plans below: paths `u0-u1-u2` with
/// `u3 ∈ N(u2) − N(u0)` and `u4 ∈ N(u2) − N(u1)`, all five distinct.
fn two_tails_oracle(graph: &CsrGraph) -> u64 {
    let mut count = 0;
    for u0 in graph.vertices() {
        for &u1 in graph.neighbors(u0) {
            for &u2 in graph.neighbors(u1).iter().filter(|&&u2| u2 != u0) {
                for &u3 in graph.neighbors(u2) {
                    if [u0, u1].contains(&u3) || graph.has_edge(u3, u0) {
                        continue;
                    }
                    count += graph
                        .neighbors(u2)
                        .iter()
                        .filter(|&&u4| ![u0, u1, u3].contains(&u4) && !graph.has_edge(u4, u1))
                        .count() as u64;
                }
            }
        }
    }
    count
}

/// Memo aliasing regression. Level 2 of each plan computes two sets from
/// *different* ancestor lists with the same operation and (absent) bound:
/// `S3 = N(u2) − N(u0)` and `S4 = N(u2) − N(u1)`, once as two `InitAnti`
/// ops and once as two `Apply` subtractions of one shared `Init` set. The
/// in-task dedup used to key on the address of a temporary copy of the
/// ancestor list, which the allocator hands straight to the next copy, so
/// the second op could be answered with the first one's set; keyed on what
/// the operands *are*, the two stay distinct in both PE models.
#[test]
fn different_ancestor_lists_never_share_a_memoized_set() {
    use fingers_repro::pattern::{ExecutionPlan, LevelSchedule, PlanOp};
    use fingers_repro::setops::SetOpKind::Subtract;

    let graph = erdos_renyi(40, 160, 7);
    let expected = two_tails_oracle(&graph);
    assert!(expected > 0);
    let level2: [Vec<PlanOp>; 2] = [
        vec![
            PlanOp::InitAnti {
                target: 3,
                short: 0,
            },
            PlanOp::InitAnti {
                target: 4,
                short: 1,
            },
        ],
        vec![
            PlanOp::Init { target: 3 },
            PlanOp::Init { target: 4 },
            PlanOp::Apply {
                target: 3,
                list: 0,
                kind: Subtract,
            },
            PlanOp::Apply {
                target: 4,
                list: 1,
                kind: Subtract,
            },
        ],
    ];
    for (name, ops) in ["two InitAnti", "two Apply"].into_iter().zip(level2) {
        let plan = ExecutionPlan::from_raw_parts(
            named(5, &[(0, 1), (1, 2), (2, 3), (2, 4)]),
            Induced::Vertex,
            vec![
                vec![PlanOp::Init { target: 1 }],
                vec![PlanOp::Init { target: 2 }],
                ops,
                vec![],
                vec![],
            ],
            (1..5)
                .map(|target| LevelSchedule {
                    target,
                    first_connected: target.min(3) - 1,
                    lower_bounds: vec![],
                })
                .collect(),
            vec![],
        );
        let multi = MultiPlan::from_plans(name, vec![plan]);
        let fingers = simulate_fingers(&graph, &multi, &ChipConfig::single_pe());
        let flexminer = simulate_flexminer(&graph, &multi, &FlexMinerChipConfig::single_pe());
        assert_eq!(
            (fingers.embeddings[0], flexminer.embeddings[0]),
            (expected, expected),
            "{name}: (FINGERS, FlexMiner) vs brute force"
        );
    }
}
