//! `sim-paper`: host speed of the two cycle simulators on a grid of paper
//! cells, single-PE and iso-area chip. Bypasses `mining` and `server`
//! except for the software counts both simulators must reproduce.

use std::time::Instant;

use fingers_core::area::iso_area_pe_counts;
use fingers_core::chip::simulate_fingers;
use fingers_core::config::ChipConfig;
use fingers_core::stats::ChipReport;
use fingers_flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_graph::datasets::Dataset;
use fingers_graph::gen::{chung_lu_power_law, ChungLuConfig};
use fingers_graph::CsrGraph;
use fingers_mining::{try_count_plan_parallel_with, EngineConfig};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::MultiPlan;

use crate::report::Outcome;
use crate::rng::{derive, Rng};
use crate::stats::Summary;
use crate::trace::{Tracer, ROOT};
use crate::{setup_repeats, Ctx};

use Benchmark::{Cl4, Cl5, Dia, Mc3, Tc, Tt};

/// The four simulations of a cell, in the order they run.
const SIMS: [&str; 4] = [
    "fingers-1pe",
    "flexminer-1pe",
    "fingers-chip",
    "flexminer-chip",
];

struct Cell {
    label: String,
    graph: std::rc::Rc<CsrGraph>,
    multi: MultiPlan,
    /// Per-plan counts of the software miner; both simulators' `embeddings`
    /// must equal them.
    expected: Vec<u64>,
}

/// The grid: Table-1 stand-ins the paper's Figures 9 and 10 use, cut to
/// the cells that fit three passes in a run (`cyc`, and `tt` beyond
/// AstroPh, cost seconds each), plus one graph drawn from `--seed` so a
/// held-out seed is a held-out input.
fn setup(ctx: &Ctx, tracer: &mut Tracer) -> Vec<Cell> {
    let seeded = |n, m| chung_lu_power_law(&ChungLuConfig::new(n, m, derive(ctx.seed, 3)));
    let span = tracer.begin("graph.generate", ROOT, 0);
    let grid: Vec<(&str, CsrGraph, &[Benchmark])> = if ctx.smoke {
        vec![
            ("As", Dataset::AstroPh.load(), &[Tc]),
            ("Sx", seeded(500, 2_500), &[Tc]),
        ]
    } else {
        vec![
            ("As", Dataset::AstroPh.load(), &[Tc, Cl4, Cl5, Tt, Dia, Mc3]),
            ("Mi", Dataset::Mico.load(), &[Tc, Cl4, Cl5, Dia, Mc3]),
            ("Yo", Dataset::Youtube.load(), &[Tc]),
            ("Pa", Dataset::Patents.load(), &[Tc]),
            ("Sx", seeded(2_000, 12_000), &[Tc, Cl4]),
        ]
    };
    tracer.end(span);
    let config = EngineConfig::default();
    let mut cells = Vec::new();
    for (name, graph, benches) in grid {
        let graph = std::rc::Rc::new(graph);
        for &b in benches {
            let multi = tracer.leaf("pattern.compile", ROOT, cells.len() as u64, || b.plan());
            let expected = multi
                .plans()
                .iter()
                .map(|plan| {
                    try_count_plan_parallel_with(&graph, plan, ctx.host.p, &config)
                        .expect("the software miner counts every grid cell")
                })
                .collect();
            cells.push(Cell {
                label: format!("{name}/{b}"),
                graph: graph.clone(),
                multi,
                expected,
            });
        }
    }
    // The seed decides the order cells are simulated in.
    Rng::new(ctx.seed, 4).shuffle(&mut cells);
    cells
}

/// Runs the four simulations of one cell; returns host seconds and reports.
fn simulate(cell: &Cell, tracer: &mut Tracer, op_id: u64) -> ([f64; 4], [ChipReport; 4]) {
    let (fingers_pes, flexminer_pes) = iso_area_pe_counts();
    let parent = tracer.begin("sim.cell", ROOT, op_id);
    let mut times = [0.0; 4];
    let mut run = |i: usize, name: &'static str, f: &dyn Fn() -> ChipReport| {
        let span = tracer.begin(name, parent, op_id);
        let t = Instant::now();
        let report = f();
        times[i] = t.elapsed().as_secs_f64();
        tracer.end(span);
        report
    };
    let fingers = |pes| ChipConfig {
        num_pes: pes,
        ..ChipConfig::default()
    };
    let flexminer = |pes| FlexMinerChipConfig {
        num_pes: pes,
        ..FlexMinerChipConfig::default()
    };
    let reports = [
        run(0, "sim.fingers", &|| {
            simulate_fingers(&cell.graph, &cell.multi, &fingers(1))
        }),
        run(1, "sim.flexminer", &|| {
            simulate_flexminer(&cell.graph, &cell.multi, &flexminer(1))
        }),
        run(2, "sim.fingers", &|| {
            simulate_fingers(&cell.graph, &cell.multi, &fingers(fingers_pes))
        }),
        run(3, "sim.flexminer", &|| {
            simulate_flexminer(&cell.graph, &cell.multi, &flexminer(flexminer_pes))
        }),
    ];
    tracer.end(parent);
    (times, reports)
}

struct Pass {
    /// `[cell][sim]` host seconds.
    times: Vec<[f64; 4]>,
    reports: Vec<[ChipReport; 4]>,
}

fn pass(cells: &[Cell], tracer: &mut Tracer) -> Pass {
    let (times, reports) = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| simulate(cell, tracer, i as u64))
        .unzip();
    Pass { times, reports }
}

/// Both simulators must find exactly the software miner's embeddings.
fn check_embeddings(cells: &[Cell], p: &Pass, out: &mut Outcome) {
    for (cell, reports) in cells.iter().zip(&p.reports) {
        for (sim, report) in SIMS.iter().zip(reports) {
            out.check(report.embeddings == cell.expected, || {
                format!(
                    "sim-paper {} {sim}: embeddings {:?}, software miner {:?}",
                    cell.label, report.embeddings, cell.expected
                )
            });
        }
        out.counts
            .insert(cell.label.clone(), cell.expected.iter().sum());
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        traced(ctx, &mut out);
        return out;
    }
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..setup_repeats(ctx) {
        cells.clear();
        let t = Instant::now();
        cells = setup(ctx, &mut tracer);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", Summary::of(&setups));

    let min_passes = if ctx.smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last = 0.0;
    while passes.len() < min_passes || start.elapsed().as_secs_f64() + last <= ctx.seconds {
        let t = Instant::now();
        let p = pass(&cells, &mut tracer);
        last = t.elapsed().as_secs_f64();
        match passes.first() {
            None => {
                check_embeddings(&cells, &p, &mut out);
                out.record_peak_rss();
            }
            Some(first) => out.check(p.reports == first.reports, || {
                "sim-paper: simulated statistics changed between two passes".to_owned()
            }),
        }
        passes.push(p);
    }
    ctx.check_golden("sim-paper", &mut out);

    let sums = |sims: [usize; 2]| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.times.iter().map(|t| t[sims[0]] + t[sims[1]]).sum())
            .collect()
    };
    out.set("serial_s", Summary::of(&sums([0, 1])));
    out.set("parallel_s", Summary::of(&sums([2, 3])));
    let per_sim: Vec<f64> = (0..cells.len())
        .flat_map(|c| (0..4).map(move |s| (c, s)))
        .map(|(c, s)| {
            Summary::of(
                &passes
                    .iter()
                    .map(|p| p.times[c][s] * 1e3)
                    .collect::<Vec<_>>(),
            )
            .value
        })
        .collect();
    out.set_op_percentiles(per_sim);
    out
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = ratios.fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

fn traced(ctx: &Ctx, out: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let cells = &setup(ctx, &mut tracer);
    let totals = tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    out.set_value("graph.generate_s", total_ns("graph.generate") * 1e-9);
    let plans: usize = cells.iter().map(|c| c.multi.plans().len()).sum();
    out.set_value(
        "pattern.compile_us",
        total_ns("pattern.compile") * 1e-3 / plans as f64,
    );
    tracer.set_enabled(false);
    let plain = pass(cells, &mut tracer);
    tracer.set_enabled(true);
    let p = pass(cells, &mut tracer);
    check_embeddings(cells, &p, out);
    out.check(p.reports == plain.reports, || {
        "sim-paper: simulated statistics differ between the traced and untraced pass".to_owned()
    });
    let host = |pass: &Pass, sims: &[usize]| -> f64 {
        pass.times
            .iter()
            .map(|t| sims.iter().map(|&s| t[s]).sum::<f64>())
            .sum()
    };
    out.set_value(
        "trace.overhead_ratio",
        host(&p, &[0, 1, 2, 3]) / host(&plain, &[0, 1, 2, 3]),
    );

    // Exact, from the reports: sums over the grid's FINGERS (sims 0, 2)
    // and FlexMiner (sims 1, 3) simulations.
    let fingers = || p.reports.iter().flat_map(|r| [&r[0], &r[2]]);
    let flexminer = || p.reports.iter().flat_map(|r| [&r[1], &r[3]]);
    let pe_sum = |f: fn(&fingers_core::stats::PeStats) -> u64| -> f64 {
        fingers().flat_map(|r| r.pes.iter()).map(f).sum::<u64>() as f64
    };
    let fingers_cycles = fingers().map(|r| r.cycles).sum::<u64>() as f64;
    let flexminer_cycles = flexminer().map(|r| r.cycles).sum::<u64>() as f64;
    let tasks = fingers().map(ChipReport::tasks).sum::<u64>() as f64;
    let sims = fingers().count() as f64;
    out.set_value("sim.fingers_cycles", fingers_cycles);
    out.set_value("sim.flexminer_cycles", flexminer_cycles);
    out.set_value("sim.tasks", tasks);
    out.set_value("sim.set_ops", pe_sum(|s| s.set_ops));
    out.set_value("sim.stall_cycles", pe_sum(|s| s.stall_cycles));
    out.set_value(
        "sim.fingers_active_rate",
        fingers().map(ChipReport::active_rate).sum::<f64>() / sims,
    );
    out.set_value(
        "sim.fingers_balance_rate",
        fingers().map(ChipReport::balance_rate).sum::<f64>() / sims,
    );
    let (accesses, misses) = fingers().fold((0u64, 0u64), |(a, m), r| {
        (a + r.shared_cache.accesses, m + r.shared_cache.misses)
    });
    out.set_value(
        "sim.shared_cache_miss_rate",
        misses as f64 / accesses.max(1) as f64,
    );
    out.set_value(
        "sim.dram_bytes",
        fingers().map(|r| r.dram_bytes).sum::<u64>() as f64,
    );
    // Indicative only: the paper's 6.2x (Fig 9) and 2.8x (Fig 10) are
    // geomeans over its full grid; this grid is a subset of stand-ins.
    let speedup = |f: usize, x: usize| {
        geomean(
            p.reports
                .iter()
                .map(|r| r[x].cycles as f64 / r[f].cycles as f64),
        )
    };
    out.set_value("sim.speedup_geomean_1pe", speedup(0, 1));
    out.set_value("sim.speedup_geomean_chip", speedup(2, 3));
    for (cell, r) in cells.iter().zip(&p.reports) {
        println!(
            "sim-paper cell {} fingers_1pe={} flexminer_1pe={} fingers_chip={} flexminer_chip={} cycles",
            cell.label, r[0].cycles, r[1].cycles, r[2].cycles, r[3].cycles
        );
    }

    // Host time per simulated unit, from the untraced pass.
    let fingers_host = host(&plain, &[0, 2]);
    out.set_value(
        "sim.fingers_host_ns_per_cycle",
        fingers_host * 1e9 / fingers_cycles,
    );
    out.set_value(
        "sim.flexminer_host_ns_per_cycle",
        host(&plain, &[1, 3]) * 1e9 / flexminer_cycles,
    );
    out.set_value("sim.fingers_host_us_per_task", fingers_host * 1e6 / tasks);
    out.set_value("trace.spans", tracer.len() as f64);
    ctx.flush_trace("sim-paper", &tracer, out);
}
