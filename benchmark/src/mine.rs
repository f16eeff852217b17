//! `mine-hub` and `mine-sparse`: the software miner called as a library,
//! at one thread and at P threads, plus the traced replays that attribute
//! its time to `graph`, `verify`, `setops`, `mining::executor` and
//! `mining::parallel`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fingers_graph::gen::{chung_lu_power_law, erdos_renyi, ChungLuConfig};
use fingers_graph::hubs::neighbor_bitmap;
use fingers_graph::CsrGraph;
use fingers_mining::oblivious::count_embeddings_oblivious;
use fingers_mining::parallel::run_task;
use fingers_mining::{
    count_plan_parallel_trace, try_count_plan_parallel_with, CountSink, EngineConfig, MiningTask,
    PlanMiner,
};
use fingers_pattern::benchmarks::Benchmark;
use fingers_pattern::MultiPlan;
use fingers_setops::adaptive::{select_count_tier_with, KernelTier};
use fingers_setops::bitmap::NeighborBitmap;
use fingers_setops::{bitmap, bound, galloping, merge, simd, SetOpKind};

use crate::host::gated;
use crate::report::Outcome;
use crate::rng::derive;
use crate::stats::Summary;
use crate::trace::{Tracer, ROOT};
use crate::{setup_repeats, Ctx};

/// Which of the two graph families a mining workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Chung–Lu power law, exponent 1.9: a few ~900-long adjacency lists
    /// over a 4 000-vertex universe.
    Hub,
    /// Erdős–Rényi, degree 20: every list short, none a useful hub.
    Sparse,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Hub => "mine-hub",
            Family::Sparse => "mine-sparse",
        }
    }

    fn benches(self) -> &'static [Benchmark] {
        match self {
            Family::Hub => &[
                Benchmark::Tc,
                Benchmark::Cl4,
                Benchmark::Tt,
                Benchmark::Cyc,
                Benchmark::Dia,
            ],
            Family::Sparse => &Benchmark::ALL,
        }
    }

    /// `(vertices, edges)` at full size, smoke size, and the 300-vertex
    /// down-scale that the ESU oracle can enumerate.
    fn size(self, scale: Scale) -> (usize, usize) {
        match (self, scale) {
            (Family::Hub, Scale::Full) => (4_000, 50_000),
            (Family::Hub, Scale::Smoke) => (1_000, 8_000),
            (Family::Hub, Scale::Oracle) => (300, 1_200),
            (Family::Sparse, Scale::Full) => (40_000, 400_000),
            (Family::Sparse, Scale::Smoke) => (5_000, 50_000),
            (Family::Sparse, Scale::Oracle) => (300, 1_200),
        }
    }

    fn graph(self, seed: u64, scale: Scale) -> CsrGraph {
        let (n, m) = self.size(scale);
        match self {
            Family::Hub => chung_lu_power_law(&ChungLuConfig {
                vertices: n,
                edges: m,
                exponent: 1.9,
                max_degree_fraction: 0.25,
                seed: derive(seed, 1),
            }),
            Family::Sparse => erdos_renyi(n, m, derive(seed, 2)),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Smoke,
    Oracle,
}

struct Input {
    graph: CsrGraph,
    plans: Vec<(Benchmark, MultiPlan)>,
}

/// Everything before the first timed query: generate the graph, identify
/// its hub set once (what a resident store would do), compile and verify
/// every plan, and run one warm-up triangle count per thread count.
fn setup(family: Family, ctx: &Ctx, tracer: &mut Tracer) -> Input {
    let scale = if ctx.smoke { Scale::Smoke } else { Scale::Full };
    let graph = tracer.leaf("graph.generate", ROOT, 0, || family.graph(ctx.seed, scale));
    let config = EngineConfig::default();
    tracer.leaf("graph.hubset", ROOT, 0, || {
        black_box(config.hub_set(&graph))
    });
    let mut plans = Vec::new();
    for (i, &b) in family.benches().iter().enumerate() {
        let multi = tracer.leaf("pattern.compile", ROOT, i as u64, || b.plan());
        for plan in multi.plans() {
            let report = tracer.leaf("verify.verify", ROOT, i as u64, || {
                fingers_verify::verify(plan)
            });
            assert!(report.is_sound(), "compiler produced an unsound {b} plan");
        }
        plans.push((b, multi));
    }
    let warm = &plans[0].1;
    for threads in [1, ctx.host.p] {
        black_box(count(&graph, warm, threads, &config));
    }
    Input { graph, plans }
}

/// One query: every plan of the benchmark, counts summed.
fn count(
    graph: &CsrGraph,
    multi: &MultiPlan,
    threads: usize,
    config: &EngineConfig,
) -> Option<u64> {
    let mut total = 0u64;
    for plan in multi.plans() {
        total += try_count_plan_parallel_with(graph, plan, threads, config).ok()?;
    }
    Some(total)
}

/// One pass over the pattern list; returns per-pattern seconds and counts.
fn pass(input: &Input, threads: usize, config: &EngineConfig) -> (Vec<f64>, Vec<Option<u64>>) {
    input
        .plans
        .iter()
        .map(|(_, multi)| {
            let t = Instant::now();
            let c = count(&input.graph, multi, threads, config);
            (t.elapsed().as_secs_f64(), c)
        })
        .unzip()
}

/// The 300-vertex down-scale of the same generator, every pattern checked
/// against the pattern-oblivious ESU enumerator.
fn oracle_check(family: Family, seed: u64, out: &mut Outcome) {
    let t = Instant::now();
    let small = family.graph(seed, Scale::Oracle);
    let config = EngineConfig::default();
    for &b in family.benches() {
        let multi = b.plan();
        let expected: u64 = b
            .patterns()
            .iter()
            .map(|p| count_embeddings_oblivious(&small, p))
            .sum();
        let got = count(&small, &multi, 1, &config);
        out.check(got == Some(expected), || {
            format!(
                "{} {b} on the 300-vertex down-scale: engine {got:?}, ESU {expected}",
                family.name()
            )
        });
    }
    println!(
        "{} oracle_check_s {:.3}",
        family.name(),
        t.elapsed().as_secs_f64()
    );
}

pub fn run(family: Family, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        traced(family, ctx, &mut out);
    } else {
        untraced(family, ctx, &mut out);
    }
    out
}

fn untraced(family: Family, ctx: &Ctx, out: &mut Outcome) {
    let config = EngineConfig::default();
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..setup_repeats(ctx) {
        drop(input.take());
        let t = Instant::now();
        input = Some(setup(family, ctx, &mut off));
        setups.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    out.set("setup_s", Summary::of(&setups));
    oracle_check(family, ctx.seed, out);

    let p = ctx.host.p;
    let min_pairs = if ctx.smoke { 1 } else { 3 };
    let start = Instant::now();
    let mut serial_sums = Vec::new();
    let mut parallel_sums = Vec::new();
    let mut parallel_by_pattern: Vec<Vec<f64>> = vec![Vec::new(); input.plans.len()];
    let mut reference: Vec<Option<u64>> = Vec::new();
    let mut parallel_resolved = true;
    let mut last_pair = 0.0;
    while serial_sums.len() < min_pairs || start.elapsed().as_secs_f64() + last_pair <= ctx.seconds
    {
        let pair = Instant::now();
        let (times, counts) = pass(&input, 1, &config);
        if reference.is_empty() {
            reference = counts.clone();
        }
        verify_counts(family, &input, &counts, &reference, "1 thread", out);
        serial_sums.push(times.iter().sum());

        let ((times, counts), resolved) = gated(p, || pass(&input, p, &config));
        parallel_resolved &= resolved;
        verify_counts(family, &input, &counts, &reference, "P threads", out);
        parallel_sums.push(times.iter().sum());
        for (samples, t) in parallel_by_pattern.iter_mut().zip(&times) {
            samples.push(t * 1e3);
        }
        last_pair = pair.elapsed().as_secs_f64();
        if serial_sums.len() == 1 {
            out.record_peak_rss();
        }
    }
    for ((b, _), c) in input.plans.iter().zip(&reference) {
        if let Some(c) = c {
            out.counts.insert(b.abbrev().to_owned(), *c);
        }
    }
    ctx.check_golden(family.name(), out);

    out.set("serial_s", Summary::of(&serial_sums));
    out.set("parallel_s", Summary::of(&parallel_sums));
    out.set_op_percentiles(
        parallel_by_pattern
            .iter()
            .map(|s| Summary::of(s).value)
            .collect(),
    );
    if !parallel_resolved {
        for m in ["parallel_s", "op_p50_ms", "op_p99_ms"] {
            out.unresolved.push(m.to_owned());
        }
    }
}

fn verify_counts(
    family: Family,
    input: &Input,
    counts: &[Option<u64>],
    reference: &[Option<u64>],
    how: &str,
    out: &mut Outcome,
) {
    for (((b, _), got), want) in input.plans.iter().zip(counts).zip(reference) {
        out.check(got.is_some() && got == want, || {
            format!(
                "{} {b} at {how}: {got:?}, first serial count {want:?}",
                family.name()
            )
        });
    }
}

/// What the per-root-task replay of one plan found.
struct PlanReplay {
    hubset_s: f64,
    verify_s: f64,
    task_sum_s: f64,
    task_max_s: f64,
    embeddings: u64,
}

/// Replays one plan the way a one-thread query runs it — hub set, verify,
/// then every root task through one `PlanMiner` — with a span per step.
fn replay_plan(
    graph: &CsrGraph,
    plan: &fingers_pattern::ExecutionPlan,
    tasks: &[MiningTask],
    config: &EngineConfig,
    tracer: &mut Tracer,
    op_id: u64,
) -> PlanReplay {
    let query = tracer.begin("executor.query", ROOT, op_id);
    let span = tracer.begin("graph.hubset", query, op_id);
    let hubs = config.hub_set(graph);
    tracer.end(span);
    let hubset_s = tracer.seconds(span);
    let span = tracer.begin("verify.verify", query, op_id);
    black_box(fingers_verify::verify(plan));
    tracer.end(span);
    let verify_s = tracer.seconds(span);
    let mut miner = PlanMiner::with_hubs(graph, plan, hubs, config);
    let (mut task_sum_s, mut task_max_s, mut embeddings) = (0.0, 0.0f64, 0u64);
    for task in tasks {
        let span = tracer.begin("executor.task", query, op_id);
        let sink: CountSink = run_task(&mut miner, task.clone());
        tracer.end(span);
        let s = tracer.seconds(span);
        task_sum_s += s;
        task_max_s = task_max_s.max(s);
        embeddings += sink.count;
    }
    tracer.end(query);
    PlanReplay {
        hubset_s,
        verify_s,
        task_sum_s,
        task_max_s,
        embeddings,
    }
}

fn traced(family: Family, ctx: &Ctx, out: &mut Outcome) {
    let config = EngineConfig::default();
    let p = ctx.host.p;
    let mut tracer = Tracer::new(true);
    let input = setup(family, ctx, &mut tracer);
    let setup_totals = tracer.totals();
    let per = |name: &str| {
        setup_totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
    };
    out.set_value("graph.generate_s", per("graph.generate") * 1e-9);
    let plan_count: usize = input.plans.iter().map(|(_, m)| m.plans().len()).sum();
    out.set_value(
        "pattern.compile_us",
        setup_totals
            .get("pattern.compile")
            .map_or(0.0, |t| t.total_ns as f64)
            * 1e-3
            / plan_count as f64,
    );
    out.set_value("verify.verify_us", per("verify.verify") * 1e-3);

    // Tracing overhead: the same serial pass with span recording off, then on.
    tracer.set_enabled(false);
    let (plain, reference) = pass(&input, 1, &config);
    tracer.set_enabled(true);
    let mut wrapped = Vec::new();
    for (i, (_, multi)) in input.plans.iter().enumerate() {
        let span = tracer.begin("mine.query", ROOT, i as u64);
        let c = count(&input.graph, multi, 1, &config);
        tracer.end(span);
        wrapped.push(tracer.seconds(span));
        out.check(c == reference[i], || {
            format!("{} traced serial count differs", family.name())
        });
    }
    let serial_s: f64 = (plain.iter().sum::<f64>() + wrapped.iter().sum::<f64>()) / 2.0;
    out.set_value(
        "trace.overhead_ratio",
        wrapped.iter().sum::<f64>() / plain.iter().sum::<f64>(),
    );

    // mining.executor: per-root-task serial replay, per plan.
    let tasks = MiningTask::partition(input.graph.vertex_count(), 32 * p);
    let mut replays = Vec::new();
    let mut op = 0u64;
    for (i, (b, multi)) in input.plans.iter().enumerate() {
        let mut total = 0u64;
        for plan in multi.plans() {
            let r = replay_plan(&input.graph, plan, &tasks, &config, &mut tracer, op);
            println!(
                "{} executor.{b}.{op} task_sum_s={:.6} task_max_share={:.4} embeddings={}",
                family.name(),
                r.task_sum_s,
                r.task_max_s / r.task_sum_s.max(f64::MIN_POSITIVE),
                r.embeddings
            );
            total += r.embeddings;
            replays.push(r);
            op += 1;
        }
        out.check(Some(total) == reference[i], || {
            format!(
                "{} {b}: task replay counted {total}, engine {:?}",
                family.name(),
                reference[i]
            )
        });
    }
    let sum = |f: fn(&PlanReplay) -> f64| replays.iter().map(f).sum::<f64>();
    let task_sum_s = sum(|r| r.task_sum_s);
    let hubset_s = sum(|r| r.hubset_s);
    let verify_s = sum(|r| r.verify_s);
    let embeddings: u64 = replays.iter().map(|r| r.embeddings).sum();
    out.set_value("graph.hubset_ms", hubset_s * 1e3 / replays.len() as f64);
    out.set_value("executor.task_sum_s", task_sum_s);
    out.set_value("executor.embeddings_per_s", embeddings as f64 / task_sum_s);
    out.set_value(
        "executor.ns_per_embedding",
        task_sum_s * 1e9 / embeddings.max(1) as f64,
    );
    out.set_value(
        "executor.task_max_share",
        sum(|r| r.task_max_s) / task_sum_s,
    );
    let layers = hubset_s + verify_s + task_sum_s;
    out.reconcile(
        ctx.smoke || (layers / serial_s - 1.0).abs() <= 0.05,
        format!(
            "{}: hubset + verify + tasks = {layers:.4} s, serial pass = {serial_s:.4} s, ratio {:.4} (want within 5%)",
            family.name(),
            layers / serial_s
        ),
    );

    // mining.parallel: one gated P-thread pass, then the schedule trace.
    let ((times, counts), resolved) = gated(p, || pass(&input, p, &config));
    verify_counts(family, &input, &counts, &reference, "P threads", out);
    let parallel_s: f64 = times.iter().sum();
    let bound_s: f64 = replays
        .iter()
        .map(|r| r.task_max_s.max(r.task_sum_s / p as f64))
        .sum();
    out.set_value("parallel.speedup", serial_s / parallel_s);
    out.set_value("parallel.efficiency", task_sum_s / (p as f64 * parallel_s));
    out.set_value("parallel.bound_ratio", bound_s / parallel_s);
    if !resolved {
        for m in [
            "parallel.speedup",
            "parallel.efficiency",
            "parallel.bound_ratio",
        ] {
            out.unresolved.push(m.to_owned());
        }
    }
    let (mut executed, mut imbalance) = (0usize, 0.0);
    let mut plans_traced = 0;
    for (i, (b, multi)) in input.plans.iter().enumerate() {
        let mut total = 0;
        for plan in multi.plans() {
            let span = tracer.begin("parallel.trace", ROOT, i as u64);
            let (c, workers) = count_plan_parallel_trace(&input.graph, plan, p, &config);
            tracer.end(span);
            total += c;
            executed += workers.iter().map(Vec::len).sum::<usize>();
            let roots = |w: &Vec<MiningTask>| w.iter().map(MiningTask::len).sum::<usize>();
            let most = workers.iter().map(roots).max().unwrap_or(0);
            imbalance += most as f64 * workers.len() as f64 / input.graph.vertex_count() as f64;
            plans_traced += 1;
        }
        out.check(Some(total) == reference[i], || {
            format!("{} {b}: schedule trace count differs", family.name())
        });
    }
    out.set_value("parallel.tasks_executed", executed as f64);
    out.set_value("parallel.worker_imbalance", imbalance / plans_traced as f64);

    // setops: replay the triangle plan's level-1 operand pairs per tier.
    let tc = input
        .plans
        .iter()
        .position(|(b, _)| *b == Benchmark::Tc)
        .expect("tc is in every pattern list");
    let span = tracer.begin("setops.replay", ROOT, 0);
    let replay = setops_replay(&input.graph, &config);
    tracer.end(span);
    out.check(Some(replay.triangles) == reference[tc], || {
        format!(
            "{}: set-op replay counted {} triangles, engine {:?}",
            family.name(),
            replay.triangles,
            reference[tc]
        )
    });
    for (tier, (_, name)) in TIERS.iter().enumerate() {
        let (ns, elems) = replay.by_tier[tier];
        out.set_value(
            &format!("setops.{name}.ns_per_elem"),
            ns / elems.max(1) as f64,
        );
        out.set_value(
            &format!("setops.tier_share.{name}"),
            replay.selected_elems[tier] as f64 / replay.elems.max(1) as f64,
        );
        println!(
            "{} setops.{name} selected for {} of {} operand pairs",
            family.name(),
            replay.selected_ops[tier],
            replay.pairs
        );
    }
    out.set_value(
        "setops.selected.ns_per_elem",
        replay.selected_ns / replay.elems.max(1) as f64,
    );
    out.set_value(
        "setops.selector_regret",
        replay.selected_ns / replay.best_ns.max(f64::MIN_POSITIVE),
    );
    out.set_value(
        "setops.replay_share_of_tc",
        replay.selected_ns * 1e-9 / ((plain[tc] + wrapped[tc]) / 2.0),
    );

    out.set_value("trace.spans", tracer.len() as f64);
    ctx.flush_trace(family.name(), &tracer, out);
}

/// The four kernel tiers in the order the metrics name them.
const TIERS: [(KernelTier, &str); 4] = [
    (KernelTier::Merge, "merge"),
    (KernelTier::Galloping, "galloping"),
    (KernelTier::Simd, "simd"),
    (KernelTier::Bitmap, "bitmap"),
];
const BITMAP: usize = 3;

fn tier_index(tier: KernelTier) -> usize {
    TIERS
        .iter()
        .position(|(t, _)| *t == tier)
        .expect("TIERS lists every tier")
}

#[derive(Default)]
struct SetopsReplay {
    pairs: usize,
    elems: u64,
    triangles: u64,
    /// Per tier: nanoseconds and operand elements over the pairs the tier
    /// can run (all of them for the list tiers, hub-long pairs for bitmap).
    by_tier: [(f64, u64); 4],
    /// Pairs, and their operand elements, that `select_count_tier_with`
    /// sends to each tier.
    selected_ops: [usize; 4],
    selected_elems: [u64; 4],
    /// Σ over shape buckets of the selected tier's time, and of the
    /// fastest applicable tier's time.
    selected_ns: f64,
    best_ns: f64,
}

/// Replays every level-1 operand pair of the triangle plan — for each edge
/// `(u, v)` with `u < v`, `N(u) ∩ N(v)` above `v` — through each tier's
/// bounded count. Pairs are bucketed by the tier the selector picks and by
/// the log2 of both operand lengths; a bucket is timed in bulk under every
/// tier that can run it (per-pair timing would measure the clock).
fn setops_replay(graph: &CsrGraph, config: &EngineConfig) -> SetopsReplay {
    let hubs = config.hub_set(graph);
    let bitmaps: Vec<Option<NeighborBitmap>> = graph
        .vertices()
        .map(|v| {
            hubs.as_ref()
                .filter(|h| h.contains(v))
                .map(|_| neighbor_bitmap(graph, v))
        })
        .collect();
    let mut buckets: BTreeMap<(usize, u32, u32), Vec<(u32, u32)>> = BTreeMap::new();
    let mut replay = SetopsReplay::default();
    for u in graph.vertices() {
        for &v in bound::trim(graph.neighbors(u), Some(u)) {
            let short = bound::trim(graph.neighbors(u), Some(v)).len();
            let long = bound::trim(graph.neighbors(v), Some(v)).len();
            let resident = bitmaps[v as usize].is_some();
            let tier = tier_index(select_count_tier_with(
                SetOpKind::Intersect,
                short,
                long,
                resident,
                config.simd,
            ));
            replay.selected_ops[tier] += 1;
            replay.selected_elems[tier] += (short + long) as u64;
            replay.pairs += 1;
            buckets
                .entry((tier, (short + 1).ilog2(), (long + 1).ilog2()))
                .or_default()
                .push((u, v));
        }
    }
    for ((selected, _, _), pairs) in &buckets {
        let elems: u64 = pairs
            .iter()
            .map(|&(u, v)| {
                (bound::trim(graph.neighbors(u), Some(v)).len()
                    + bound::trim(graph.neighbors(v), Some(v)).len()) as u64
            })
            .sum();
        replay.elems += elems;
        let mut best = f64::INFINITY;
        for tier in 0..TIERS.len() {
            if tier == BITMAP && *selected != BITMAP {
                continue;
            }
            let mut ns = f64::INFINITY;
            let mut found = 0;
            for _ in 0..3 {
                let t = Instant::now();
                found = run_bucket(graph, &bitmaps, tier, pairs);
                ns = ns.min(t.elapsed().as_nanos() as f64);
            }
            if tier == *selected {
                replay.triangles += found;
                replay.selected_ns += ns;
            }
            replay.by_tier[tier].0 += ns;
            replay.by_tier[tier].1 += elems;
            best = best.min(ns);
        }
        replay.best_ns += best;
    }
    replay
}

fn run_bucket(
    graph: &CsrGraph,
    bitmaps: &[Option<NeighborBitmap>],
    tier: usize,
    pairs: &[(u32, u32)],
) -> u64 {
    let kind = SetOpKind::Intersect;
    let mut found = 0u64;
    for &(u, v) in pairs {
        let (short, long) = (graph.neighbors(u), graph.neighbors(v));
        found += match TIERS[tier].0 {
            KernelTier::Merge => merge::count_bounded(kind, short, long, Some(v)),
            KernelTier::Galloping => galloping::count_bounded(kind, short, long, Some(v)),
            KernelTier::Simd => simd::count_bounded(kind, short, long, Some(v)),
            KernelTier::Bitmap => {
                let bm = bitmaps[v as usize]
                    .as_ref()
                    .expect("bitmap buckets hold hub-long pairs only");
                bitmap::count(
                    kind,
                    bound::trim(short, Some(v)),
                    bm,
                    bound::trim(long, Some(v)).len(),
                )
            }
        };
    }
    black_box(found)
}
