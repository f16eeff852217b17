//! `svc-mix` and `svc-plan`: an in-process `Daemon` on a real Unix socket,
//! driven closed-loop (idle and saturation) and open-loop (seeded Poisson
//! arrivals at a frozen rate, latency timed from the due time), plus the
//! traced stage replica that attributes a request's time to `proto`,
//! `session`, `sched` and the front door.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fingers_mining::{try_count_plan_parallel_with, CancelToken, EngineConfig};
use fingers_pattern::{ExecutionPlan, Induced};
use fingers_server::session::{parse_pattern_spec, DEFAULT_PLAN_CACHE_CAP};
use fingers_server::{
    proto, Client, CountReport, Daemon, DaemonConfig, GraphRegistry, GraphSpec, Job, Json,
    PlanCache, Request, Scheduler, SchedulerConfig,
};

use crate::host::gated;
use crate::report::Outcome;
use crate::rng::{derive, Rng};
use crate::stats::{median, percentile, sort, Summary};
use crate::trace::{Tracer, ROOT};
use crate::{out_dir, setup_repeats, Ctx};

/// Which traffic mix the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `svc-mix`: four count classes over two mid-size graphs.
    Count,
    /// `svc-plan`: mostly `verify-plan` of random patterns, tiny graph.
    Plan,
}

impl Mix {
    pub fn name(self) -> &'static str {
        match self {
            Mix::Count => "svc-mix",
            Mix::Plan => "svc-plan",
        }
    }

    /// The open loop's arrival rate per worker, frozen so that latency is
    /// compared at one operating point across commits: about 40 %
    /// (`svc-mix`) and 50 % (`svc-plan`) of the saturation measured on the
    /// 2-vCPU reference box. Higher, and p99 is a few long busy periods
    /// that amplify every percent of service-time noise severalfold; lower
    /// on `svc-plan`, and p50 falls between the 0.1 ms and the 1 ms mode of
    /// its service times, where it moves with everything. Scaled by P so a
    /// wider or narrower host sits at a similar utilisation rather than
    /// idle or overloaded.
    fn rate_qps(self, p: usize) -> f64 {
        p as f64
            * match self {
                Mix::Count => 175.0,
                Mix::Plan => 1_100.0,
            }
    }
}

/// What a correct reply to a request line looks like.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    /// `count` / `motif-census`: per-pattern counts from the direct engine.
    Counts(Vec<u64>),
    /// `verify-plan`: sound, with this many levels.
    Levels(u64),
}

/// One distinct request line of the mix.
#[derive(Debug, Clone)]
struct Line {
    /// Latency class: the mix's class name, or op + pattern size.
    class: String,
    text: String,
    expect: Expect,
}

/// The generated inputs of one run: everything derives from the seed.
struct Traffic {
    graphs: Vec<(String, String)>,
    lines: Vec<Line>,
    /// Indices into `lines`; cycled when a phase outlives it.
    stream: Vec<u32>,
    /// Requests per block of the stream.
    block: usize,
}

const STREAM_LEN: usize = 1 << 15;

/// How a run's `--seconds` are split, within each of its rounds: an idle
/// closed loop, a saturation closed loop, an open-loop segment.
const IDLE_SHARE: f64 = 0.10;
const SATURATION_SHARE: f64 = 0.15;
const OPEN_LOOP_SHARE: f64 = 0.75;

fn count_line(graph: &str, pattern: &str, edge_induced: bool) -> String {
    format!(
        r#"{{"op":"count","graph":"{graph}","patterns":["{pattern}"],"threads":1,"edge_induced":{edge_induced}}}"#
    )
}

/// A random connected pattern on `k` vertices as an edge-list spec: a
/// random spanning tree plus each remaining pair with probability 0.3.
fn random_pattern_spec(rng: &mut Rng, k: usize) -> String {
    let mut edges = Vec::new();
    for v in 1..k {
        edges.push((rng.below(v), v));
    }
    for a in 0..k {
        for b in a + 1..k {
            if !edges.contains(&(a, b)) && rng.unit() < 0.3 {
                edges.push((a, b));
            }
        }
    }
    let parts: Vec<String> = edges.iter().map(|(a, b)| format!("{a}-{b}")).collect();
    parts.join(",")
}

fn induced_mode(edge_induced: bool) -> Induced {
    if edge_induced {
        Induced::Edge
    } else {
        Induced::Vertex
    }
}

/// The engine's own answer for a pattern spec, bypassing the daemon.
fn direct_count(graph: &fingers_graph::CsrGraph, spec: &str, induced: Induced) -> u64 {
    let pattern = parse_pattern_spec(spec).expect("the benchmark generates valid pattern specs");
    let plan = ExecutionPlan::compile(&pattern, induced);
    try_count_plan_parallel_with(graph, &plan, 1, &EngineConfig::default())
        .expect("the direct engine counts every generated pattern")
}

fn load(spec: &str) -> fingers_graph::CsrGraph {
    GraphSpec::parse(spec)
        .and_then(|s| s.load())
        .expect("the benchmark generates valid graph specs")
}

impl Traffic {
    fn generate(mix: Mix, ctx: &Ctx, tracer: &mut Tracer) -> Traffic {
        let mut rng = Rng::new(ctx.seed, 10);
        let mut lines = Vec::new();
        // How often each line appears in one block of the stream.
        let mut per_block: Vec<usize> = Vec::new();
        let graphs: Vec<(String, String)> = match mix {
            Mix::Count => {
                let (pl, er) = if ctx.smoke {
                    ((500, 4_000), (500, 2_500))
                } else {
                    ((1_200, 12_000), (1_000, 6_000))
                };
                // The resident graphs are fixed, like `sim-paper`'s datasets:
                // a power-law graph's 4-clique time varies severalfold
                // between seeds, which would move utilisation at the
                // frozen rate and with it every latency. The seed draws
                // the request stream and the arrival schedule.
                vec![
                    ("pl".to_owned(), format!("gen:pl:{}:{}:11", pl.0, pl.1)),
                    ("er".to_owned(), format!("gen:er:{}:{}:12", er.0, er.1)),
                ]
            }
            // Degree 3, so that counting a 6-vertex tree on it costs what
            // planning it does. At degree 5 a few count lines ran 5-15 ms:
            // 1-2 % of the requests, which put p99 on the edge of that
            // class and made it an engine metric that moved with the seed.
            Mix::Plan => vec![(
                "tiny".to_owned(),
                format!("gen:er:200:300:{}", derive(ctx.seed, 13) % 1_000_000),
            )],
        };
        let loaded: BTreeMap<&str, fingers_graph::CsrGraph> = graphs
            .iter()
            .map(|(name, spec)| {
                (
                    name.as_str(),
                    tracer.leaf("graph.generate", ROOT, 0, || load(spec)),
                )
            })
            .collect();
        match mix {
            Mix::Count => {
                // 40 % / 25 % / 20 % / 15 % of a 20-request block.
                for (class, graph, pattern, copies) in [
                    ("tc@pl", "pl", "tc", 8),
                    ("wedge@er", "er", "wedge", 5),
                    ("census@er", "er", "", 4),
                    ("4cl@pl", "pl", "4cl", 3),
                ] {
                    let g = &loaded[graph];
                    let (text, counts) = if pattern.is_empty() {
                        (
                            format!(r#"{{"op":"motif-census","graph":"{graph}","threads":1}}"#),
                            vec![
                                direct_count(g, "tc", Induced::Vertex),
                                direct_count(g, "wedge", Induced::Vertex),
                            ],
                        )
                    } else {
                        (
                            count_line(graph, pattern, false),
                            vec![direct_count(g, pattern, Induced::Vertex)],
                        )
                    };
                    lines.push(Line {
                        class: class.to_owned(),
                        text,
                        expect: Expect::Counts(counts),
                    });
                    per_block.push(copies);
                }
            }
            Mix::Plan => {
                // 40 verify patterns and 8 count patterns, each in both
                // induced modes: 96 plan-cache keys against 64 slots. The
                // pool is fixed for the same reason `svc-mix`'s graphs are:
                // canonicalising a 7-vertex pattern costs 0.5-2 ms
                // depending on its shape, so a seeded pool moves the
                // service time by 10 % between seeds.
                let mut pool = Rng::new(0x5EED, 14);
                let g = &loaded["tiny"];
                for i in 0..48 {
                    let verify = i < 40;
                    let k = if verify { 5 + i % 3 } else { 5 + i % 2 };
                    let spec = random_pattern_spec(&mut pool, k);
                    for edge_induced in [false, true] {
                        let induced = induced_mode(edge_induced);
                        let (class, text, expect) = if verify {
                            (
                                format!("verify-{k}"),
                                format!(
                                    r#"{{"op":"verify-plan","pattern":"{spec}","edge_induced":{edge_induced}}}"#
                                ),
                                Expect::Levels(k as u64),
                            )
                        } else {
                            (
                                format!("count-{k}"),
                                count_line("tiny", &spec, edge_induced),
                                Expect::Counts(vec![direct_count(g, &spec, induced)]),
                            )
                        };
                        lines.push(Line {
                            class,
                            text,
                            expect,
                        });
                        // 80 verify lines twice + 16 count lines once:
                        // 91 % verify-plan in a 176-request block.
                        per_block.push(if verify { 2 } else { 1 });
                    }
                }
            }
        }
        // Stratified: the stream is a run of blocks, each holding every
        // line its fixed number of times in a seeded order, so any window
        // of whole blocks has exactly the mix's composition. (Drawing each
        // request independently lets a one-second window hold 20 % more
        // or fewer of the 20 ms class, which reads as a 10 % swing.)
        let block: Vec<u32> = per_block
            .iter()
            .enumerate()
            .flat_map(|(i, copies)| std::iter::repeat_n(i as u32, *copies))
            .collect();
        let mut stream = Vec::with_capacity(STREAM_LEN);
        while stream.len() + block.len() <= STREAM_LEN {
            let mut next = block.clone();
            rng.shuffle(&mut next);
            stream.extend(next);
        }
        Traffic {
            graphs,
            lines,
            stream,
            block: block.len(),
        }
    }

    fn line(&self, i: usize) -> (usize, &Line) {
        let idx = self.stream[i % self.stream.len()] as usize;
        (idx, &self.lines[idx])
    }
}

/// Seeded Poisson arrival schedule of one open-loop segment: due offsets
/// in seconds from the segment's start, all below `duration`.
fn arrival_schedule(seed: u64, segment: usize, rate_qps: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 20 + segment as u64);
    let mut due = Vec::new();
    let mut t = rng.exp(rate_qps);
    while t < duration {
        due.push(t);
        t += rng.exp(rate_qps);
    }
    due
}

fn scheduler_config(p: usize) -> SchedulerConfig {
    SchedulerConfig {
        workers: p,
        max_threads_per_query: 1,
        ..SchedulerConfig::default()
    }
}

/// Whether `reply` is the `ok` reply `expect` describes.
fn reply_ok(reply: &str, expect: &Expect) -> bool {
    let Ok(v) = Json::parse(reply) else {
        return false;
    };
    if v.get("status").and_then(Json::as_str) != Some("ok") {
        return false;
    }
    match expect {
        Expect::Counts(want) => v.get("counts").and_then(Json::as_array).is_some_and(|got| {
            got.iter()
                .map(Json::as_u64)
                .eq(want.iter().map(|c| Some(*c)))
        }),
        Expect::Levels(k) => {
            v.get("sound").and_then(Json::as_bool) == Some(true)
                && v.get("levels").and_then(Json::as_u64) == Some(*k)
        }
    }
}

/// A started daemon with its traffic; dropping it stops the daemon, joins
/// its threads and removes the socket file.
struct Service {
    traffic: Traffic,
    socket: PathBuf,
    /// Held for its `Drop`.
    _daemon: Daemon,
    /// Mean seconds per request of the mix over one connection, from the
    /// warm-up; sizes the first closed loop.
    warm_request_s: f64,
}

impl Service {
    /// How many requests — whole blocks, at least one — fit `budget` at
    /// `request_s` seconds per request.
    fn requests_for(&self, budget: Duration, request_s: f64) -> usize {
        let block = self.traffic.block;
        ((budget.as_secs_f64() / (request_s * block as f64)) as usize).max(1) * block
    }
}

/// Everything before the first timed request: generate graphs and
/// traffic, compute the direct-engine answers, start the daemon, and send
/// one block of the stream (every distinct line at least once) so plan
/// cache and workers are warm.
fn setup(mix: Mix, ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Service {
    let traffic = Traffic::generate(mix, ctx, tracer);
    std::fs::create_dir_all(out_dir()).expect("benchmark/out is writable");
    let absolute = out_dir().join(format!("{}-{}.sock", mix.name(), std::process::id()));
    // Unix socket paths are capped near 100 bytes; prefer the path
    // relative to the working directory when the checkout sits deep.
    let socket = std::env::current_dir()
        .ok()
        .and_then(|cwd| absolute.strip_prefix(cwd).map(PathBuf::from).ok())
        .unwrap_or(absolute);
    let span = tracer.begin("server.daemon.start", ROOT, 0);
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        graphs: traffic.graphs.clone(),
        engine: EngineConfig::default(),
        sched: scheduler_config(ctx.host.p),
    })
    .expect("the daemon starts on a socket inside benchmark/out");
    tracer.end(span);
    let mut client = Client::connect(&socket).expect("the daemon accepts connections");
    let warm = Instant::now();
    for &i in &traffic.stream[..traffic.block] {
        let line = &traffic.lines[i as usize];
        let reply = client.request(&line.text);
        out.check(
            reply.as_ref().is_ok_and(|r| reply_ok(r, &line.expect)),
            || {
                format!(
                    "{} warm-up {}: {reply:?}, expected {:?}",
                    mix.name(),
                    line.text,
                    line.expect
                )
            },
        );
    }
    let warm_request_s = warm.elapsed().as_secs_f64() / traffic.block as f64;
    Service {
        traffic,
        socket,
        _daemon: daemon,
        warm_request_s,
    }
}

/// One served request as the load generator saw it.
struct Sample {
    line: usize,
    /// Reply received − due time (closed loop: − send time), ms.
    latency_ms: f64,
    /// Send time − due time, ms (0 in a closed loop).
    late_ms: f64,
    ok: bool,
}

/// Sends stream entry `i` on `client` and classifies the reply.
fn serve(client: &mut Client, traffic: &Traffic, i: usize, due: Option<Instant>) -> Sample {
    let (idx, line) = traffic.line(i);
    let sent = Instant::now();
    let reply = client.request(&line.text);
    let done = Instant::now();
    let from = due.unwrap_or(sent);
    Sample {
        line: idx,
        latency_ms: done.duration_since(from).as_secs_f64() * 1e3,
        late_ms: sent.saturating_duration_since(from).as_secs_f64() * 1e3,
        ok: reply.is_ok_and(|r| reply_ok(&r, &line.expect)),
    }
}

/// Closed loop: `conns` connections, each sending its next request as
/// soon as the previous reply arrives, until stream entries
/// `first..first + count` are served. Returns the samples and the wall
/// time they took.
fn closed_loop(svc: &Service, conns: usize, first: usize, count: usize) -> (Vec<Sample>, f64) {
    let cursor = AtomicUsize::new(first);
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        Client::connect(&svc.socket).expect("the daemon accepts connections");
                    let mut mine = Vec::new();
                    loop {
                        // ord: the cursor hands out indices, nothing else.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= first + count {
                            break mine;
                        }
                        mine.push(serve(&mut client, &svc.traffic, i, None));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load-generator thread"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed().as_secs_f64())
}

/// Open loop: `conns` connections take arrivals off one schedule in due
/// order, each waiting for its arrival's due time; an arrival whose
/// connection is still busy goes out late and its latency says so.
fn open_loop(svc: &Service, conns: usize, first: usize, due: &[f64]) -> Vec<Sample> {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        Client::connect(&svc.socket).expect("the daemon accepts connections");
                    let mut mine = Vec::new();
                    loop {
                        // ord: the cursor hands out indices, nothing else.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = due.get(i) else { break };
                        let at = start + Duration::from_secs_f64(*offset);
                        // Sleep to within 200 us, then spin: a late
                        // generator would be measured as service latency.
                        loop {
                            let left = at.saturating_duration_since(Instant::now());
                            if left > Duration::from_micros(200) {
                                std::thread::sleep(left - Duration::from_micros(200));
                            } else if left.is_zero() {
                                break;
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        mine.push(serve(&mut client, &svc.traffic, first + i, Some(at)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load-generator thread"))
            .collect()
    })
}

/// Counts every sample into `attempted`/`failed`.
fn account(mix: Mix, phase: &str, samples: &[Sample], out: &mut Outcome) {
    let bad = samples.iter().filter(|s| !s.ok).count() as u64;
    out.attempted += samples.len() as u64;
    out.failed += bad;
    if bad > 0 {
        eprintln!(
            "FAILED: {} {phase}: {bad} of {} replies were not the expected ok reply",
            mix.name(),
            samples.len()
        );
    }
}

fn percentiles(values: impl Iterator<Item = f64>) -> (f64, f64, usize) {
    let mut v: Vec<f64> = values.collect();
    sort(&mut v);
    (percentile(&v, 50.0), percentile(&v, 99.0), v.len())
}

pub fn run(mix: Mix, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.traced {
        traced(mix, ctx, &mut out);
    } else {
        untraced(mix, ctx, &mut out);
    }
    out
}

fn untraced(mix: Mix, ctx: &Ctx, out: &mut Outcome) {
    // Each round sets the service up afresh — new daemon, new threads, new
    // connections — and measures idle, saturation and one open-loop
    // segment on it. Where the kernel happens to place a daemon's threads
    // lasts as long as the daemon does; one long-lived daemon would carry
    // that luck through the whole run. The closed-loop metrics are medians
    // over the rounds; the percentiles are taken over the open-loop
    // samples of all rounds together (a p99 of each round's third of the
    // samples, then the median of three, is a quarter noisier).
    let p = ctx.host.p;
    let rounds = setup_repeats(ctx);
    let each = |share: f64| ctx.seconds * share / rounds as f64;
    let mut off = Tracer::new(false);
    let (mut setups, mut serial, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latencies, mut lates) = (Vec::new(), Vec::new());
    let (mut round_p50s, mut round_p99s) = (Vec::new(), Vec::new());
    // Seconds per request, refined by each round, size the next one.
    let (mut idle_s, mut sat_s) = (0.0, 0.0);
    let mut next = 0;
    let mut resolved = true;
    for round in 0..rounds {
        let t = Instant::now();
        let svc = setup(mix, ctx, &mut off, out);
        setups.push(t.elapsed().as_secs_f64());
        if round == 0 {
            (idle_s, sat_s) = (svc.warm_request_s, svc.warm_request_s / p as f64);
            record_counts(mix, &svc.traffic, out);
            ctx.check_golden(mix.name(), out);
        }

        let count = svc.requests_for(Duration::from_secs_f64(each(IDLE_SHARE)), idle_s);
        let ((samples, wall), ok) = gated(p, || closed_loop(&svc, 1, next, count));
        resolved &= ok;
        account(mix, "idle", &samples, out);
        next += count;
        idle_s = wall / count as f64;
        serial.push(idle_s * 1_000.0);

        let count = svc.requests_for(Duration::from_secs_f64(each(SATURATION_SHARE)), sat_s);
        let ((samples, wall), ok) = gated(p, || closed_loop(&svc, p, next, count));
        resolved &= ok;
        account(mix, "saturation", &samples, out);
        next += count;
        sat_s = wall / count as f64;
        parallel.push(sat_s * 1_000.0);

        let due = arrival_schedule(ctx.seed, round, mix.rate_qps(p), each(OPEN_LOOP_SHARE));
        let (samples, ok) = gated(p, || open_loop(&svc, p, next, &due));
        resolved &= ok;
        account(mix, "open loop", &samples, out);
        next += due.len().next_multiple_of(svc.traffic.block);
        let (p50, p99, _) = percentiles(samples.iter().map(|s| s.latency_ms));
        round_p50s.push(p50);
        round_p99s.push(p99);
        latencies.extend(samples.iter().map(|s| s.latency_ms));
        lates.extend(samples.iter().map(|s| s.late_ms));
        if round == 0 {
            out.record_peak_rss();
        }
        // Dropping the service stops the daemon, joins its threads and
        // removes the socket.
    }
    out.set("setup_s", Summary::of(&setups));
    out.set("serial_s", Summary::of(&serial));
    out.set("parallel_s", Summary::of(&parallel));
    // Value over all samples; min and max are the rounds' own percentiles.
    let (p50, p99, open_samples) = percentiles(latencies.into_iter());
    let over_rounds = |value: f64, per_round: &[f64]| Summary {
        value,
        n: open_samples,
        ..Summary::of(per_round)
    };
    out.set("op_p50_ms", over_rounds(p50, &round_p50s));
    out.set("op_p99_ms", over_rounds(p99, &round_p99s));
    println!(
        "{} saturation_qps {}",
        mix.name(),
        1_000.0 / median(&parallel)
    );
    println!(
        "{} open_loop rate_qps={} samples={open_samples} gen_late_ms_p99={}",
        mix.name(),
        mix.rate_qps(p),
        percentiles(lates.into_iter()).1
    );
    if !resolved {
        for m in ["serial_s", "parallel_s", "op_p50_ms", "op_p99_ms"] {
            out.unresolved.push(m.to_owned());
        }
    }
}

/// The direct engine's answers, keyed for the golden file.
fn record_counts(mix: Mix, traffic: &Traffic, out: &mut Outcome) {
    for line in &traffic.lines {
        if let Expect::Counts(c) = &line.expect {
            // `svc-mix` classes are one line each; `svc-plan` count
            // classes hold several, so the request line is the key.
            let key = match mix {
                Mix::Count => &line.class,
                Mix::Plan => &line.text,
            };
            out.counts.insert(key.clone(), c.iter().sum());
        }
    }
}

/// What the session layer needs from a request of the mixes: the op name,
/// the graph a count runs on, the pattern specs and the induced mode — the
/// daemon's own dispatch, for the three ops the mixes hold.
fn plan_keys(request: &Request) -> (&'static str, Option<&str>, Vec<String>, Induced) {
    match request {
        Request::Count {
            graph,
            patterns,
            edge_induced,
            ..
        } => (
            "count",
            Some(graph.as_str()),
            patterns.clone(),
            induced_mode(*edge_induced),
        ),
        Request::MotifCensus { graph, .. } => (
            "motif-census",
            Some(graph.as_str()),
            vec!["tc".to_owned(), "wedge".to_owned()],
            Induced::Vertex,
        ),
        Request::VerifyPlan {
            pattern,
            edge_induced,
            ..
        } => (
            "verify-plan",
            None,
            vec![pattern.clone()],
            induced_mode(*edge_induced),
        ),
        other => panic!("the mixes hold no {other:?} requests"),
    }
}

/// The benchmark's replica of the daemon's request path, built from the
/// same public pieces in the same order, so each stage can be timed from
/// outside.
struct Replica {
    registry: GraphRegistry,
    cache: PlanCache,
    sched: Scheduler,
}

/// Per-request stage times of one replica pass, in seconds.
#[derive(Default, Clone, Copy)]
struct Stages {
    parse: f64,
    plan: f64,
    exec: f64,
    render: f64,
}

impl Replica {
    fn new(traffic: &Traffic, p: usize) -> Replica {
        let engine = EngineConfig::default();
        let mut registry = GraphRegistry::new();
        for (name, spec) in &traffic.graphs {
            registry
                .load(name, spec, &engine)
                .expect("the benchmark generates valid graph specs");
        }
        Replica {
            registry,
            cache: PlanCache::with_limits(DEFAULT_PLAN_CACHE_CAP, None),
            sched: Scheduler::new(scheduler_config(p)),
        }
    }

    /// One request through parse → pattern parse → plan cache → scheduler
    /// → render, a span per stage under one request span.
    fn request(&self, line: &Line, tracer: &mut Tracer, op_id: u64, out: &mut Outcome) -> Stages {
        let root = tracer.begin("replica.request", ROOT, op_id);
        let span = tracer.begin("server.proto.parse", root, op_id);
        let request = Request::parse(&line.text).expect("the benchmark generates valid requests");
        tracer.end(span);
        let mut stages = Stages {
            parse: tracer.seconds(span),
            ..Stages::default()
        };
        let (op, graph, specs, induced) = plan_keys(&request);
        let span = tracer.begin("server.session.plan", root, op_id);
        let plans: Vec<Arc<ExecutionPlan>> = specs
            .iter()
            .map(|spec| {
                let pattern = parse_pattern_spec(spec).expect("valid pattern spec");
                self.cache
                    .plan(&pattern, induced)
                    .expect("compiler plans verify")
            })
            .collect();
        tracer.end(span);
        stages.plan = tracer.seconds(span);
        let reply = if let Some(graph_name) = graph {
            let span = tracer.begin("server.sched.exec", root, op_id);
            let started = Instant::now();
            let job = Job {
                graph: self.registry.get(graph_name).expect("registered graph"),
                plans,
                threads: 1,
                cancel: CancelToken::new(),
                config: EngineConfig::default(),
            };
            let counts = self
                .sched
                .submit(job)
                .expect("an idle scheduler admits")
                .recv()
                .expect("worker replies")
                .expect("query completes");
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            tracer.end(span);
            stages.exec = tracer.seconds(span);
            let span = tracer.begin("server.proto.render", root, op_id);
            let report = CountReport {
                patterns: specs,
                total: counts.iter().sum(),
                counts,
                engine: "service(threads=1)".to_owned(),
                wall_ms,
            };
            let reply = proto::ok_count(op, None, graph_name, &report);
            tracer.end(span);
            stages.render = tracer.seconds(span);
            reply
        } else {
            let span = tracer.begin("server.proto.render", root, op_id);
            let reply = Json::obj([
                ("status", Json::str("ok")),
                ("op", Json::str("verify-plan")),
                ("pattern", Json::str(&specs[0])),
                ("sound", Json::Bool(true)),
                ("levels", Json::U64(plans[0].pattern_size() as u64)),
            ])
            .render();
            tracer.end(span);
            stages.render = tracer.seconds(span);
            reply
        };
        tracer.end(root);
        out.check(reply_ok(&reply, &line.expect), || {
            format!(
                "replica reply to {} was {reply}, expected {:?}",
                line.text, line.expect
            )
        });
        stages
    }
}

/// Mean cost per distinct plan key of the session layer's pieces, probed
/// directly: `PlanCache::plan` on a key the cache lacks (miss: canonicalise,
/// compile, verify, insert) and again once it holds it (hit: canonicalise,
/// look up), plus `ExecutionPlan::compile` and `fingers_verify::verify` on
/// their own. The probe cache is large enough never to evict.
#[derive(Default)]
struct SessionProbe {
    miss_us: f64,
    hit_us: f64,
    compile_us: f64,
    verify_us: f64,
}

fn session_probe(mix: Mix, traffic: &Traffic) -> SessionProbe {
    let cache = PlanCache::with_limits(4 * traffic.lines.len(), None);
    // Per pattern size: (keys, miss, hit, compile, verify) seconds.
    let mut by_size: BTreeMap<usize, (usize, [f64; 4])> = BTreeMap::new();
    for line in &traffic.lines {
        let request = Request::parse(&line.text).expect("valid request");
        let (_, _, specs, induced) = plan_keys(&request);
        for spec in specs {
            let pattern = parse_pattern_spec(&spec).expect("valid pattern spec");
            let timed = |f: &dyn Fn()| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            };
            let before = cache.misses();
            let miss = timed(&|| drop(black_box(cache.plan(&pattern, induced))));
            if cache.misses() == before {
                continue; // an isomorphic spelling already filled this key
            }
            let hit = timed(&|| drop(black_box(cache.plan(&pattern, induced))));
            let compile = timed(&|| drop(black_box(ExecutionPlan::compile(&pattern, induced))));
            let plan = ExecutionPlan::compile(&pattern, induced);
            let verify = timed(&|| drop(black_box(fingers_verify::verify(&plan))));
            let entry = by_size.entry(pattern.size()).or_default();
            entry.0 += 1;
            for (sum, t) in entry.1.iter_mut().zip([miss, hit, compile, verify]) {
                *sum += t;
            }
        }
    }
    let mut keys = 0;
    let mut sums = [0.0; 4];
    for (size, (n, t)) in &by_size {
        let us = t.map(|x| x * 1e6 / *n as f64);
        println!(
            "{} session {size}-vertex keys={n} plan_miss_us={:.2} plan_hit_us={:.2} compile_us={:.2} verify_us={:.2}",
            mix.name(), us[0], us[1], us[2], us[3]
        );
        keys += n;
        for (sum, x) in sums.iter_mut().zip(t) {
            *sum += x;
        }
    }
    let mean = sums.map(|x| x * 1e6 / keys as f64);
    SessionProbe {
        miss_us: mean[0],
        hit_us: mean[1],
        compile_us: mean[2],
        verify_us: mean[3],
    }
}

fn traced(mix: Mix, ctx: &Ctx, out: &mut Outcome) {
    let p = ctx.host.p;
    let mut tracer = Tracer::new(true);
    let svc = setup(mix, ctx, &mut tracer, out);
    let totals = tracer.totals();
    out.set_value(
        "graph.generate_s",
        totals
            .get("graph.generate")
            .map_or(0.0, |t| t.total_ns as f64 * 1e-9),
    );
    let slice = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    // Tracing overhead: idle round trips with span recording off, then on.
    let mut client = Client::connect(&svc.socket).expect("the daemon accepts connections");
    let mut next = 0;
    let mut idle_rtt =
        |tracer: &mut Tracer, budget: Duration, next: &mut usize, out: &mut Outcome| {
            let start = Instant::now();
            let mut samples = Vec::new();
            while start.elapsed() < budget {
                let span = tracer.begin("server.rtt", ROOT, *next as u64);
                samples.push(serve(&mut client, &svc.traffic, *next, None));
                tracer.end(span);
                *next += 1;
            }
            account(mix, "idle round trips", &samples, out);
            samples
        };
    tracer.set_enabled(false);
    let plain = idle_rtt(&mut tracer, slice(0.08), &mut next, out);
    tracer.set_enabled(true);
    let wrapped = idle_rtt(&mut tracer, slice(0.08), &mut next, out);
    let mean = |s: &[Sample]| s.iter().map(|x| x.latency_ms).sum::<f64>() / s.len().max(1) as f64;
    out.set_value("trace.overhead_ratio", mean(&wrapped) / mean(&plain));

    // The stage replica and the real daemon serve the same requests, idle.
    let replica = Replica::new(&svc.traffic, p);
    for line in &svc.traffic.lines {
        replica.request(line, &mut Tracer::new(false), 0, out);
    }
    let first = next;
    let start = Instant::now();
    let mut stages = Vec::new();
    while start.elapsed() < slice(0.15) {
        let (_, line) = svc.traffic.line(next);
        stages.push(replica.request(line, &mut tracer, next as u64, out));
        next += 1;
    }
    let mut rtts = Vec::new();
    for i in first..next {
        let span = tracer.begin("server.rtt", ROOT, i as u64);
        rtts.push(serve(&mut client, &svc.traffic, i, None));
        tracer.end(span);
    }
    account(mix, "stage round trips", &rtts, out);
    replica.sched.shutdown();
    // The front door — socket write, handler wake-up, socket read — is
    // what a request with no work costs: the median `ping` round trip.
    // (`RTT - wall_ms` would do for counts, but `verify-plan` replies carry
    // no `wall_ms`.)
    let mut pings: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let reply = client.request(r#"{"op":"ping"}"#);
            out.check(reply.is_ok(), || {
                format!("{}: ping failed: {reply:?}", mix.name())
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    sort(&mut pings);
    let frontdoor_s = percentile(&pings, 50.0);
    out.set_value("server.daemon.frontdoor_us", frontdoor_s * 1e6);
    let k = stages.len() as f64;
    let sum = |f: fn(&Stages) -> f64| stages.iter().map(f).sum::<f64>();
    let rtt_s = rtts.iter().map(|s| s.latency_ms).sum::<f64>() * 1e-3;
    let stage_s =
        sum(|s| s.parse) + sum(|s| s.plan) + sum(|s| s.exec) + sum(|s| s.render) + k * frontdoor_s;
    out.set_value("server.proto.parse_us", sum(|s| s.parse) * 1e6 / k);
    out.set_value("server.sched.exec_ms", sum(|s| s.exec) * 1e3 / k);
    out.set_value("server.proto.render_us", sum(|s| s.render) * 1e6 / k);
    out.set_value("server.stage_sum_ratio", stage_s / rtt_s);
    let exec_share = sum(|s| s.exec) / rtt_s;
    println!(
        "{} stages requests={k} plan_us={:.2} stage_sum_ratio={:.4} exec_share_of_rtt={exec_share:.4}",
        mix.name(),
        sum(|s| s.plan) * 1e6 / k,
        stage_s / rtt_s
    );
    out.reconcile(
        ctx.smoke || (0.9..=1.1).contains(&(stage_s / rtt_s)),
        format!(
            "{}: parse + plan + exec + render + front door = {:.4} of the idle round trip (want 0.9-1.1)",
            mix.name(),
            stage_s / rtt_s
        ),
    );
    let probe = session_probe(mix, &svc.traffic);
    out.set_value("server.session.plan_miss_us", probe.miss_us);
    out.set_value("server.session.plan_hit_us", probe.hit_us);
    out.set_value("pattern.compile_us", probe.compile_us);
    out.set_value("verify.verify_us", probe.verify_us);

    // Idle round trip per class, to split loaded latency into service and wait.
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in plain.iter().chain(&wrapped).chain(&rtts) {
        by_class
            .entry(&svc.traffic.lines[s.line].class)
            .or_default()
            .push(s.latency_ms);
    }
    let idle_ms: BTreeMap<&str, f64> = by_class.iter().map(|(c, v)| (*c, median(v))).collect();
    for (class, ms) in &idle_ms {
        println!(
            "{} idle_rtt_ms {class} {ms:.4} n={}",
            mix.name(),
            by_class[class].len()
        );
    }

    let idle_s = mean(&plain) * 1e-3;
    let count = svc.requests_for(slice(0.15), idle_s / p as f64);
    let ((samples, wall), sat_ok) = gated(p, || {
        closed_loop(&svc, p, next.next_multiple_of(svc.traffic.block), count)
    });
    account(mix, "saturation", &samples, out);
    next = next.next_multiple_of(svc.traffic.block) + count;
    out.set_value("server.saturation_qps", samples.len() as f64 / wall);

    let due = arrival_schedule(ctx.seed, 0, mix.rate_qps(p), ctx.seconds * 0.40);
    let (samples, open_ok) = gated(p, || open_loop(&svc, p, next, &due));
    account(mix, "open loop", &samples, out);
    let overall_idle = median(&idle_ms.values().copied().collect::<Vec<_>>());
    let wait = |s: &Sample| {
        let idle = idle_ms
            .get(svc.traffic.lines[s.line].class.as_str())
            .copied()
            .unwrap_or(overall_idle);
        (s.latency_ms - idle).max(0.0)
    };
    let (w50, w99, _) = percentiles(samples.iter().map(wait));
    out.set_value("server.queue_wait_ms_p50", w50);
    out.set_value("server.queue_wait_ms_p99", w99);
    let (_, late99, _) = percentiles(samples.iter().map(|s| s.late_ms));
    out.set_value("server.gen_late_ms_p99", late99);
    if !(sat_ok && open_ok) {
        for m in [
            "server.saturation_qps",
            "server.queue_wait_ms_p50",
            "server.queue_wait_ms_p99",
        ] {
            out.unresolved.push(m.to_owned());
        }
    }

    // The daemon's own counters.
    let stats = client
        .request(r#"{"op":"stats"}"#)
        .ok()
        .and_then(|r| Json::parse(&r).ok());
    out.check(stats.is_some(), || {
        format!("{}: the stats op failed", mix.name())
    });
    if let Some(stats) = stats {
        let num = |section: &str, key: &str| {
            stats
                .get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let (hits, misses) = (num("plan_cache", "hits"), num("plan_cache", "misses"));
        out.set_value(
            "server.session.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        out.set_value("server.session.evictions", num("plan_cache", "evictions"));
        for key in ["accepted", "rejected", "shed", "completed"] {
            out.set_value(&format!("server.sched.{key}"), num("scheduler", key));
        }
        out.set_value("server.gauge_peak_bytes", num("memory", "gauge_peak_bytes"));
    }
    out.set_value("trace.spans", tracer.len() as f64);
    drop(client);
    drop(svc);
    ctx.flush_trace(mix.name(), &tracer, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;

    fn ctx(seed: u64) -> Ctx {
        Ctx {
            host: Host::probe(),
            seed,
            seconds: 1.0,
            smoke: true,
            traced: false,
        }
    }

    #[test]
    fn same_seed_gives_the_same_arrivals_and_request_stream() {
        let a = arrival_schedule(5, 0, 300.0, 2.0);
        assert_eq!(a, arrival_schedule(5, 0, 300.0, 2.0));
        assert_ne!(a, arrival_schedule(6, 0, 300.0, 2.0));
        assert_ne!(a, arrival_schedule(5, 1, 300.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a.iter().all(|t| *t < 2.0));
        // About rate x duration arrivals.
        assert!((400..800).contains(&a.len()), "{}", a.len());

        for mix in [Mix::Count, Mix::Plan] {
            let mut off = Tracer::new(false);
            let one = Traffic::generate(mix, &ctx(5), &mut off);
            let two = Traffic::generate(mix, &ctx(5), &mut off);
            assert_eq!(one.stream, two.stream);
            assert_eq!(one.graphs, two.graphs);
            let texts = |t: &Traffic| t.lines.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
            assert_eq!(texts(&one), texts(&two));
            let other = Traffic::generate(mix, &ctx(6), &mut off);
            assert_ne!(one.stream, other.stream);
        }
    }

    #[test]
    fn plan_mix_is_mostly_verify_plan_over_more_keys_than_the_cache_holds() {
        let t = Traffic::generate(Mix::Plan, &ctx(1), &mut Tracer::new(false));
        assert!(t.lines.len() > DEFAULT_PLAN_CACHE_CAP);
        let verify = t
            .stream
            .iter()
            .filter(|&&i| t.lines[i as usize].class.starts_with("verify"))
            .count();
        let share = verify as f64 / t.stream.len() as f64;
        assert!((0.88..0.92).contains(&share), "{share}");
        for line in &t.lines {
            assert!(Request::parse(&line.text).is_ok(), "{}", line.text);
        }
    }

    #[test]
    fn replies_are_checked_against_the_expectation() {
        let ok =
            r#"{"status":"ok","op":"count","graph":"g","patterns":["tc"],"counts":[7],"total":7}"#;
        assert!(reply_ok(ok, &Expect::Counts(vec![7])));
        assert!(!reply_ok(ok, &Expect::Counts(vec![8])));
        assert!(!reply_ok(
            r#"{"status":"error","kind":"overloaded"}"#,
            &Expect::Counts(vec![7])
        ));
        let verify = r#"{"status":"ok","op":"verify-plan","sound":true,"levels":5}"#;
        assert!(reply_ok(verify, &Expect::Levels(5)));
        assert!(!reply_ok(verify, &Expect::Levels(6)));
        assert!(!reply_ok("not json", &Expect::Levels(5)));
    }
}
