//! One benchmark for the whole stack. See README.md for the workload and
//! metric tables, `-- run --help` for the commands.
//!
//! `run --workload W --seed N --seconds S --trace 0|1` measures one
//! workload in this process and ends with the driver's one-line JSON
//! result. `run` without `--workload` runs all five, each in a child
//! process of its own (so `peak_rss_mb` is per workload), and writes a
//! result file that `compare` reads.

mod host;
mod mine;
mod report;
mod rng;
mod sim;
mod stats;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use fingers_server::Json;

use host::Host;
use report::{Outcome, ResultFile, Verdict, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

/// What every workload is handed.
pub struct Ctx {
    pub host: Host,
    pub seed: u64,
    pub seconds: f64,
    /// Down-scaled inputs and sub-second phases: schema and correctness
    /// only, no timing claim.
    pub smoke: bool,
    pub traced: bool,
}

/// Set-up is repeated in-run and its median reported, so one slow page
/// fault does not read as a set-up regression.
pub fn setup_repeats(ctx: &Ctx) -> usize {
    if ctx.smoke {
        1
    } else {
        3
    }
}

/// The benchmark's scratch directory, `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Ctx {
    /// Checks the run's exact counts against the checked-in golden counts.
    /// Only seed 1 at full size has them.
    pub fn check_golden(&self, workload: &str, out: &mut Outcome) {
        if self.seed != 1 || self.smoke {
            return;
        }
        let golden =
            Json::parse(include_str!("../golden/seed1.json")).expect("golden/seed1.json parses");
        let Some(Json::Obj(expected)) = golden.get(workload) else {
            panic!("golden/seed1.json has no {workload} object");
        };
        for (key, want) in expected {
            let got = out.counts.get(key).copied();
            out.check(got == want.as_u64(), || {
                format!(
                    "{workload} {key}: counted {got:?}, golden {:?}",
                    want.as_u64()
                )
            });
        }
    }

    /// Writes the span file of a traced run; a failed write fails the run.
    pub fn flush_trace(&self, workload: &str, tracer: &trace::Tracer, out: &mut Outcome) {
        let path = out_dir().join(format!("{workload}.trace.jsonl"));
        let written = tracer.flush(&path);
        out.check(written.is_ok(), || {
            format!("cannot write {}: {written:?}", path.display())
        });
        for (name, t) in tracer.totals() {
            println!(
                "{workload} span {name} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    let mut out = match name {
        "mine-hub" => mine::run(mine::Family::Hub, ctx),
        "mine-sparse" => mine::run(mine::Family::Sparse, ctx),
        "svc-mix" => svc::run(svc::Mix::Count, ctx),
        "svc-plan" => svc::run(svc::Mix::Plan, ctx),
        "sim-paper" => sim::run(ctx),
        _ => return None,
    };
    if ctx.traced {
        out.fill_missing(PER_LAYER.iter().map(|(name, _)| *name));
    }
    Some(out)
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    /// All-workloads mode only: run untraced, then traced.
    traced: bool,
    smoke: bool,
    repeat: usize,
}

impl RunArgs {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 1.0 } else { DEFAULT_SECONDS })
    }
}

const USAGE: &str = "usage:
  fingers-benchmark run [--seed N] [--seconds S] [--traced] [--smoke] [--repeat K]
      all five workloads, one child process each; writes benchmark/out/result-*.json
  fingers-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload in this process; last stdout line is the JSON result
  fingers-benchmark compare A.json B.json
workloads: mine-hub mine-sparse svc-mix svc-plan sim-paper";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => {
                r.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                r.seconds = Some(s);
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => r.traced = true,
            "--smoke" => r.smoke = true,
            "--repeat" => {
                r.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat needs a whole number")?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if r.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| match r.workload.clone() {
            Some(w) => run_one(&w, &r),
            None => run_all(&r),
        }),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Driver mode: one workload, in this process.
fn run_one(workload: &str, r: &RunArgs) -> Result<bool, String> {
    let ctx = Ctx {
        host: Host::probe(),
        seed: r.seed,
        seconds: r.seconds(),
        smoke: r.smoke,
        traced: r.trace,
    };
    println!("host {}", ctx.host.to_json().render());
    let out =
        run_workload(workload, &ctx).ok_or(format!("unknown workload {workload:?}\n{USAGE}"))?;
    out.print(workload);
    println!("detail {}", out.to_json().render());
    println!("{}", out.result_line());
    Ok(out.correct())
}

/// Runs one workload in a child process and returns its full record.
fn run_child(workload: &str, r: &RunArgs, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &r.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = r.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if r.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(json) => detail = Some(json.to_owned()),
            None if line.starts_with('{') || line.starts_with("host ") => {}
            None => println!("{line}"),
        }
    }
    let detail = detail.ok_or(format!(
        "the {workload} child printed no result ({})",
        output.status
    ))?;
    Json::parse(&detail)
        .ok()
        .as_ref()
        .and_then(Outcome::from_json)
        .ok_or(format!("the {workload} child printed a malformed result"))
}

/// The names and units a run must report, asserted on every run (this is
/// the whole of what `--smoke` adds to correctness: schema, names, units).
fn check_schema(workload: &str, out: &Outcome, traced: bool) -> Result<(), String> {
    let mut want: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .collect()
    };
    let got: Vec<(&str, &str)> = out
        .metrics
        .iter()
        .map(|(n, (_, u))| (n.as_str(), *u))
        .collect();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "{workload} reported {got:?}, the tables say {want:?}"
        ));
    }
    if !traced {
        for (name, (s, _)) in &out.metrics {
            if !(s.value > 0.0 && s.value.is_finite()) {
                return Err(format!(
                    "{workload} {name} = {} is not a positive number",
                    s.value
                ));
            }
        }
    }
    Ok(())
}

fn run_all(r: &RunArgs) -> Result<bool, String> {
    let host = Host::probe();
    println!("host {}", host.to_json().render());
    let mut ok = true;
    let mut files: Vec<ResultFile> = Vec::new();
    let passes: &[bool] = if r.traced { &[false, true] } else { &[false] };
    for round in 1..=r.repeat {
        for &traced in passes {
            let mut workloads = BTreeMap::new();
            for name in WORKLOADS {
                let out = run_child(name, r, traced)?;
                check_schema(name, &out, traced)?;
                ok &= out.correct() && out.unreconciled.is_empty();
                workloads.insert(name.to_owned(), out);
            }
            let file = ResultFile {
                seed: r.seed,
                seconds: r.seconds(),
                traced,
                host: host.clone(),
                workloads,
            };
            let path = out_dir().join(format!(
                "result-seed{}{}{}.json",
                r.seed,
                if traced { "-traced" } else { "" },
                if r.repeat > 1 {
                    format!("-r{round}")
                } else {
                    String::new()
                }
            ));
            std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, file.to_json().render() + "\n"))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("wrote {}", path.display());
            if !traced {
                files.push(file);
            }
        }
    }
    // --repeat: consecutive rounds must agree within every bound.
    for pair in files.windows(2) {
        for (workload, metric, v) in report::compare(&pair[0], &pair[1]) {
            if matches!(v, Verdict::Worse | Verdict::Better) {
                println!(
                    "{workload} {metric}: two runs of the same code disagree beyond the bound"
                );
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "benchmark: ok"
        } else {
            "benchmark: FAILED"
        }
    );
    Ok(ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| ResultFile::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = (read(a)?, read(b)?);
    if a.host != b.host {
        println!("note: the two runs come from different hosts or commits");
        println!("  a: {}", a.host.to_json().render());
        println!("  b: {}", b.host.to_json().render());
    }
    let verdicts = report::compare(&a, &b);
    Ok(!verdicts.iter().any(|(_, _, v)| *v == Verdict::Worse))
}
