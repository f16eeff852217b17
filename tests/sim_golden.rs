//! Golden exact-statistics pins (ROADMAP 5(d), first slice).
//!
//! The simulators' invariant is that host-side refactors never move a
//! simulated number. The stack benchmark only checks a run's passes
//! against each other; these pins check against values captured at the
//! commit *before* the allocation-free task path landed (PR 13's parent),
//! so any drift in a `ChipReport` or in the IU pipeline's timing fields is
//! a test failure naming the first line that moved.
//!
//! To re-pin after an intended model change, copy the `.actual` file the
//! failing test names over the matching file in `tests/golden/`.

use fingers_repro::core::chip::simulate_fingers;
use fingers_repro::core::config::ChipConfig;
use fingers_repro::flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_repro::graph::gen::{chung_lu_power_law, ChungLuConfig};
use fingers_repro::pattern::benchmarks::Benchmark;
use fingers_repro::setops::{segmented, Elem, SegmentedConfig, SetOpKind};
use std::fmt::Write;

/// Compares `actual` with the pinned text line by line; on a mismatch
/// writes `actual` next to the test binary's scratch files and panics
/// with the first differing line.
fn assert_pinned(name: &str, golden: &str, actual: &str) {
    if golden == actual {
        return;
    }
    let path = format!("{}/{name}.actual", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, actual).expect("write the actual rendering");
    let (line, want, got) = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(i, (w, g))| (i + 1, w, g))
        .unwrap_or((
            golden.lines().count().min(actual.lines().count()) + 1,
            "",
            "",
        ));
    panic!(
        "tests/golden/{name} differs at line {line}\n  pinned: {want}\n  actual: {got}\n\
         full rendering written to {path}"
    );
}

/// (a) Full `ChipReport`s — cycles, every per-PE counter, shared-cache
/// accesses and misses, DRAM bytes, embeddings — on a seeded Chung–Lu
/// graph, four benchmarks × {1, 4} PEs × both simulators.
#[test]
fn chip_reports_match_the_pinned_statistics() {
    let g = chung_lu_power_law(&ChungLuConfig::new(2_000, 12_000, 13));
    let mut actual = String::new();
    for bench in [Benchmark::Tc, Benchmark::Cl4, Benchmark::Tt, Benchmark::Mc3] {
        let multi = bench.plan();
        for pes in [1, 4] {
            let fingers = ChipConfig {
                num_pes: pes,
                ..ChipConfig::default()
            };
            let flexminer = FlexMinerChipConfig {
                num_pes: pes,
                ..FlexMinerChipConfig::default()
            };
            let reports = [
                ("fingers", simulate_fingers(&g, &multi, &fingers)),
                ("flexminer", simulate_flexminer(&g, &multi, &flexminer)),
            ];
            for (sim, report) in reports {
                writeln!(actual, "{bench} pes={pes} {sim} {report:?}").expect("write to a String");
            }
        }
    }
    assert_pinned(
        "chip_reports.txt",
        include_str!("golden/chip_reports.txt"),
        &actual,
    );
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A sorted duplicate-free set: each value of `0..universe` kept with
    /// probability `per_mille / 1000`.
    fn sorted_set(&mut self, universe: Elem, per_mille: u64) -> Vec<Elem> {
        (0..universe)
            .filter(|_| self.next() % 1000 < per_mille)
            .collect()
    }
}

fn render_outcome(out: &mut String, label: &str, o: &segmented::SegmentedOutcome) {
    let workloads: Vec<String> = o
        .workloads
        .iter()
        .map(|w| format!("{}:{}..{}", w.long_idx, w.shorts.start, w.shorts.end))
        .collect();
    writeln!(
        out,
        "{label} result={:?} cycles={:?} workloads=[{}] divider={} receives={}",
        o.result,
        o.workload_cycles,
        workloads.join(","),
        o.divider_cycles,
        o.collector_receives
    )
    .expect("write to a String");
}

/// (b) Whole `SegmentedOutcome`s: the paper's Figure 7 and Figure 8
/// examples, then a seeded table of operand pairs × three kinds ×
/// `max_load` 1–3 × three segment geometries (the paper's 16/4, an odd
/// 5/3, and an iso-area-style 96/4 whose bitvectors span two words).
#[test]
fn segmented_outcomes_match_the_pinned_statistics() {
    let mut actual = String::new();

    // Figure 7's head lists (long 10 25 44 57 68 80, short 26 33 47 50 76,
    // each short segment ending just before the next head), as two-element
    // segments, max load 2.
    let fig7_long = [10, 11, 25, 26, 44, 45, 57, 58, 68, 69, 80, 81];
    let fig7_short = [26, 32, 33, 46, 47, 49, 50, 75, 76, 79];
    let fig7 = SegmentedConfig {
        long_segment_len: 2,
        short_segment_len: 2,
        max_load: 2,
    };
    // Figure 8: [1, 7, 11, 18] against two eight-element long segments.
    let fig8_long = [1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 18, 22, 26, 28, 33, 34];
    let fig8_short = [1, 7, 11, 18];
    let fig8 = SegmentedConfig {
        long_segment_len: 8,
        short_segment_len: 4,
        max_load: 2,
    };
    for kind in SetOpKind::ALL {
        let o = segmented::execute(kind, &fig7_short, &fig7_long, &fig7);
        render_outcome(&mut actual, &format!("fig7 {kind}"), &o);
        let o = segmented::execute(kind, &fig8_short, &fig8_long, &fig8);
        render_outcome(&mut actual, &format!("fig8 {kind}"), &o);
    }

    let mut rng = SplitMix64(0xF1_96E5);
    // (short density, long density) in per-mille of a 0..160 universe; the
    // last two pairs are an empty short set and a short set that ends
    // before the long set begins.
    let mut pairs: Vec<(Vec<Elem>, Vec<Elem>)> = [(120, 400), (250, 250), (60, 700), (400, 150)]
        .iter()
        .map(|&(s, l)| (rng.sorted_set(160, s), rng.sorted_set(160, l)))
        .collect();
    pairs.push((Vec::new(), rng.sorted_set(160, 300)));
    pairs.push((
        rng.sorted_set(40, 300),
        rng.sorted_set(160, 300)
            .into_iter()
            .map(|x| x + 50)
            .collect(),
    ));
    for (p, (short, long)) in pairs.iter().enumerate() {
        for (sl, ss) in [(16, 4), (5, 3), (96, 4)] {
            for max_load in 1..=3 {
                let cfg = SegmentedConfig {
                    long_segment_len: sl,
                    short_segment_len: ss,
                    max_load,
                };
                for kind in SetOpKind::ALL {
                    let o = segmented::execute(kind, short, long, &cfg);
                    let label = format!("pair{p} {sl}/{ss} load={max_load} {kind}");
                    render_outcome(&mut actual, &label, &o);
                }
            }
        }
    }
    assert_pinned(
        "segmented_outcomes.txt",
        include_str!("golden/segmented_outcomes.txt"),
        &actual,
    );
}
