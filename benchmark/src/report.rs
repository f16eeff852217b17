//! The metric tables, the per-workload outcome, the result file, and
//! `compare`. The tables here are the single definition of every metric
//! name, unit and bound; `BENCHMARK.json` repeats them for the driver and a
//! unit test keeps the two equal.

use std::collections::BTreeMap;

use fingers_server::Json;

use crate::host::Host;
use crate::stats::Summary;

/// End-to-end metrics as `(name, unit, bound)`: measured with tracing off.
/// `bound` is the share of the parent's median by which the metric may get
/// worse. Every one is lower-is-better and defined on every workload
/// (README.md has the per-workload definitions).
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.25),
    ("serial_s", "s", 0.15),
    ("parallel_s", "s", 0.15),
    ("op_p50_ms", "ms", 0.15),
    ("op_p99_ms", "ms", 0.25),
];

/// Per-layer metrics as `(name, unit)`: reported by the traced run, never
/// bounded. Every traced run prints all of them; a layer the workload
/// bypasses reads 0. (Which direction is better is BENCHMARK.json's to say.)
pub const PER_LAYER: [(&str, &str); 58] = [
    ("graph.generate_s", "s"),
    ("graph.hubset_ms", "ms"),
    ("pattern.compile_us", "us"),
    ("verify.verify_us", "us"),
    ("setops.merge.ns_per_elem", "ns"),
    ("setops.galloping.ns_per_elem", "ns"),
    ("setops.simd.ns_per_elem", "ns"),
    ("setops.bitmap.ns_per_elem", "ns"),
    ("setops.selected.ns_per_elem", "ns"),
    ("setops.tier_share.merge", "ratio"),
    ("setops.tier_share.galloping", "ratio"),
    ("setops.tier_share.simd", "ratio"),
    ("setops.tier_share.bitmap", "ratio"),
    ("setops.selector_regret", "ratio"),
    ("setops.replay_share_of_tc", "ratio"),
    ("executor.task_sum_s", "s"),
    ("executor.embeddings_per_s", "1/s"),
    ("executor.ns_per_embedding", "ns"),
    ("executor.task_max_share", "ratio"),
    ("parallel.speedup", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("parallel.bound_ratio", "ratio"),
    ("parallel.tasks_executed", "count"),
    ("parallel.worker_imbalance", "ratio"),
    ("server.proto.parse_us", "us"),
    ("server.session.plan_hit_us", "us"),
    ("server.session.plan_miss_us", "us"),
    ("server.sched.exec_ms", "ms"),
    ("server.proto.render_us", "us"),
    ("server.daemon.frontdoor_us", "us"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.stage_sum_ratio", "ratio"),
    ("server.session.cache_hit_ratio", "ratio"),
    ("server.session.evictions", "count"),
    ("server.sched.accepted", "count"),
    ("server.sched.rejected", "count"),
    ("server.sched.shed", "count"),
    ("server.sched.completed", "count"),
    ("server.gauge_peak_bytes", "B"),
    ("server.gen_late_ms_p99", "ms"),
    ("server.saturation_qps", "1/s"),
    ("sim.fingers_cycles", "cycles"),
    ("sim.flexminer_cycles", "cycles"),
    ("sim.tasks", "count"),
    ("sim.set_ops", "count"),
    ("sim.fingers_active_rate", "ratio"),
    ("sim.fingers_balance_rate", "ratio"),
    ("sim.stall_cycles", "cycles"),
    ("sim.shared_cache_miss_rate", "ratio"),
    ("sim.dram_bytes", "B"),
    ("sim.speedup_geomean_1pe", "ratio"),
    ("sim.speedup_geomean_chip", "ratio"),
    ("sim.fingers_host_ns_per_cycle", "ns"),
    ("sim.flexminer_host_ns_per_cycle", "ns"),
    ("sim.fingers_host_us_per_task", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// The five workloads, in the order the all-workloads command runs them.
/// Why each exists is BENCHMARK.json's `why` and README.md's table.
pub const WORKLOADS: [&str; 5] = [
    "mine-hub",
    "mine-sparse",
    "svc-mix",
    "svc-plan",
    "sim-paper",
];

/// What one workload run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, the ones that were wrong, refused or not `ok`.
    pub failed: u64,
    pub metrics: BTreeMap<String, (Summary, &'static str)>,
    /// Metrics whose capacity probes did not pass (see `host::gated`).
    pub unresolved: Vec<String>,
    /// Exact counts the run produced, keyed for the golden file.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer numbers that did not reconcile with the end-to-end one.
    /// A timing relation, so it never enters `failed`; the all-workloads
    /// command exits non-zero on it.
    pub unreconciled: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Records whether a traced run's layer numbers add up to the
    /// end-to-end number they decompose.
    pub fn reconcile(&mut self, ok: bool, what: String) {
        println!("reconcile {} {what}", if ok { "ok" } else { "OUT-OF-BAND" });
        if !ok {
            self.unreconciled.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        let unit = END_TO_END
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the tables"));
        self.metrics.insert(name.to_owned(), (summary, unit));
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value, 1));
    }

    /// `op_p50_ms` and `op_p99_ms` over one value per operation (a pattern's
    /// query, a simulation), each already a median over the run's passes.
    pub fn set_op_percentiles(&mut self, mut per_op_ms: Vec<f64>) {
        crate::stats::sort(&mut per_op_ms);
        for (name, p) in [("op_p50_ms", 50.0), ("op_p99_ms", 99.0)] {
            let value = crate::stats::percentile(&per_op_ms, p);
            self.set(name, Summary::single(value, per_op_ms.len()));
        }
    }

    /// Records `peak_rss_mb`. Every workload calls this once, when set-up
    /// and its first measured pass are done: the later passes repeat that
    /// work for the timings' sake, and which of them first makes the
    /// allocator open one more arena for a worker thread (a step of one
    /// bitmap cache, 5 MB on `mine-sparse`) differs from run to run.
    pub fn record_peak_rss(&mut self) {
        self.set_value("peak_rss_mb", crate::host::peak_rss_mb());
    }

    /// Fills every metric of `names` the workload did not report with 0:
    /// the workload bypasses that layer.
    pub fn fill_missing<'a>(&mut self, names: impl Iterator<Item = &'a str>) {
        for name in names {
            if !self.metrics.contains_key(name) {
                self.set_value(name, 0.0);
            }
        }
    }

    /// The `metrics` object: `value` and `unit` per metric, and with `full`
    /// the in-run `min`, `max` and `n` beside them.
    fn metrics_json(&self, full: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, (s, unit))| {
                    let mut fields =
                        vec![("value", Json::F64(s.value)), ("unit", Json::str(*unit))];
                    if full {
                        fields.extend([
                            ("min", Json::F64(s.min)),
                            ("max", Json::F64(s.max)),
                            ("n", Json::U64(s.n as u64)),
                        ]);
                    }
                    (name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// The full record: the result line's content plus in-run spread,
    /// unresolved marks and exact counts.
    pub fn to_json(&self) -> Json {
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", self.metrics_json(true)),
            (
                "unresolved",
                Json::Arr(self.unresolved.iter().map(Json::str).collect()),
            ),
            ("counts", Json::Obj(counts)),
            (
                "unreconciled",
                Json::Arr(self.unreconciled.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Outcome> {
        let mut out = Outcome {
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            ..Outcome::default()
        };
        let Json::Obj(metrics) = v.get("metrics")? else {
            return None;
        };
        for (name, m) in metrics {
            let f = |k: &str| match m.get(k)? {
                Json::F64(x) => Some(*x),
                Json::U64(x) => Some(*x as f64),
                _ => None,
            };
            let value = f("value")?;
            let summary = Summary {
                value,
                min: f("min").unwrap_or(value),
                max: f("max").unwrap_or(value),
                n: m.get("n").and_then(Json::as_u64).unwrap_or(1) as usize,
            };
            out.set(name, summary);
        }
        let strings = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(Json::as_array)
                .map(|list| {
                    list.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        };
        out.unresolved = strings("unresolved");
        out.unreconciled = strings("unreconciled");
        if let Some(Json::Obj(counts)) = v.get("counts") {
            for (k, c) in counts {
                out.counts.insert(k.clone(), c.as_u64()?);
            }
        }
        Some(out)
    }

    /// Human-readable lines: `workload metric value unit min max n`.
    /// Metrics that read 0 (bypassed layers, counters that stayed at 0)
    /// share one line.
    pub fn print(&self, workload: &str) {
        let mut zero = Vec::new();
        for (name, (s, unit)) in &self.metrics {
            if s.value == 0.0 {
                zero.push(name.as_str());
                continue;
            }
            let mark = if self.unresolved.contains(name) {
                " unresolved"
            } else {
                ""
            };
            println!(
                "{workload} {name} {} {unit} min={} max={} n={}{mark}",
                s.value, s.min, s.max, s.n
            );
        }
        if !zero.is_empty() {
            println!("{workload} reads 0: {}", zero.join(" "));
        }
        println!(
            "{workload} failed_share {} ratio failed={} attempted={}",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// One invocation's results over several workloads, as written to
/// `benchmark/out/result-*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host: Host,
    pub workloads: BTreeMap<String, Outcome>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::U64(1)),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::F64(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("host", self.host.to_json()),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let v = Json::parse(text)?;
        let bad = |what: &str| format!("result file: missing or malformed {what}");
        if v.get("schema").and_then(Json::as_u64) != Some(1) {
            return Err(bad("schema"));
        }
        let Some(Json::Obj(members)) = v.get("workloads") else {
            return Err(bad("workloads"));
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in members {
            workloads.insert(
                name.clone(),
                Outcome::from_json(w).ok_or_else(|| bad(name))?,
            );
        }
        Ok(ResultFile {
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("seed"))?,
            seconds: match v.get("seconds") {
                Some(Json::F64(x)) => *x,
                Some(Json::U64(x)) => *x as f64,
                _ => return Err(bad("seconds")),
            },
            traced: v
                .get("traced")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("traced"))?,
            host: v
                .get("host")
                .and_then(Host::from_json)
                .ok_or_else(|| bad("host"))?,
            workloads,
        })
    }
}

/// How run B stands against run A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Within,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `unresolved` when either side was capacity-unresolved, or an in-run
/// spread exceeds the bound while the two runs' ranges overlap — then the
/// difference cannot be told from noise. Otherwise the medians decide
/// (every end-to-end metric is lower-is-better).
pub fn verdict(a: &Summary, b: &Summary, bound: f64, capacity_unresolved: bool) -> Verdict {
    let overlap = a.min <= b.max && b.min <= a.max;
    if capacity_unresolved || ((a.spread() > bound || b.spread() > bound) && overlap) {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        return Verdict::Within;
    }
    let delta = (b.value - a.value) / a.value;
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Prints the comparison table; returns the verdicts so callers can gate.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<(String, &'static str, Verdict)> {
    let mut out = Vec::new();
    println!("workload metric a b delta bound verdict");
    for (workload, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(workload) else {
            continue;
        };
        for (name, _, bound) in END_TO_END {
            let (Some((sa, unit)), Some((sb, _))) = (wa.metrics.get(name), wb.metrics.get(name))
            else {
                continue;
            };
            let capacity_unresolved = [wa, wb]
                .iter()
                .any(|w| w.unresolved.iter().any(|u| u == name));
            let v = verdict(sa, sb, bound, capacity_unresolved);
            let delta = if sa.value == 0.0 {
                0.0
            } else {
                (sb.value - sa.value) / sa.value
            };
            println!(
                "{workload} {} {:.6} {:.6} {unit} {:+.2}% bound {:.0}% {}",
                name,
                sa.value,
                sb.value,
                delta * 100.0,
                bound * 100.0,
                v.as_str()
            );
            out.push((workload.clone(), name, v));
        }
        if wa.counts != wb.counts && a.seed == b.seed {
            println!(
                "{workload} counts differ between the two runs of seed {}",
                a.seed
            );
            out.push((workload.clone(), "counts", Verdict::Worse));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(v: &Json, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let v = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(name, unit, _)| (name.to_string(), unit.to_string()))
            .collect();
        assert_eq!(names_of(&v, "end_to_end"), e2e);
        for (m, spec) in v
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("arr")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(m.get("bound"), Some(&Json::F64(spec.2)));
        }
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_of(&v, "per_layer"), layers);
        let workloads = v.get("workloads").and_then(Json::as_array).expect("arr");
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn result_file_round_trips() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("serial_s", Summary::of(&[1.25, 1.5, 1.0]));
        o.set_value("peak_rss_mb", 31.5);
        o.unresolved.push("parallel_s".to_owned());
        o.unreconciled
            .push("layers sum to 0.8 of serial".to_owned());
        o.counts.insert("tc".to_owned(), u64::MAX);
        let file = ResultFile {
            seed: 7,
            seconds: 15.0,
            traced: false,
            host: Host::probe(),
            workloads: BTreeMap::from([("mine-hub".to_owned(), o)]),
        };
        let text = file.to_json().render();
        assert_eq!(ResultFile::parse(&text), Ok(file));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(false, || "expected".to_owned());
        o.set_value("setup_s", 0.5);
        let v = Json::parse(&o.result_line()).expect("parses");
        let Json::Obj(members) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&Json::U64(2)));
        let Some(Json::Obj(m)) = v.get("metrics").and_then(|m| m.get("setup_s")) else {
            panic!("metric")
        };
        assert_eq!(
            m.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["value", "unit"]
        );
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let tight = |v: f64| Summary {
            value: v,
            min: v * 0.99,
            max: v * 1.01,
            n: 3,
        };
        assert_eq!(
            verdict(&tight(1.0), &tight(1.02), 0.05, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(1.2), 0.05, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(0.8), 0.05, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(1.2), 0.05, true),
            Verdict::Unresolved
        );
        // Wide in-run spread with overlapping ranges: cannot tell.
        let wide = Summary {
            value: 1.0,
            min: 0.8,
            max: 1.3,
            n: 3,
        };
        assert_eq!(
            verdict(&wide, &tight(1.2), 0.05, false),
            Verdict::Unresolved
        );
        // Wide but disjoint: every repeat of b is slower than every repeat of a.
        assert_eq!(verdict(&wide, &tight(2.0), 0.05, false), Verdict::Worse);
    }
}
