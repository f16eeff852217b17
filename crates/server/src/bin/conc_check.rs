//! Runs every model-checked harness and emits state-space statistics.
//!
//! The output is the JSON recorded in `BENCH_conc_check.json` at the repo
//! root: one record per harness with the explored-execution count, schedule
//! points, distinct state fingerprints, and completeness flag. The process
//! exits non-zero if any invariant harness reports a violation or an
//! exhausted-bound truncation, or if the seeded-bug fixture *fails* to
//! catch its race — so this binary doubles as the `model-check` CI gate's
//! smoke step.
//!
//! Usage: `cargo run --release -p fingers-server --features model-check --bin conc_check`

use fingers_conc::model::{CheckOptions, CheckReport};
use fingers_mining::model as mining_model;
use fingers_server::model as server_model;
use std::time::Duration;

fn opts() -> CheckOptions {
    CheckOptions {
        max_preemptions: 4,
        max_duration: Duration::from_secs(30),
        ..CheckOptions::default()
    }
}

fn record(r: &CheckReport, expect_violation: bool) -> String {
    format!(
        concat!(
            "  {{\"harness\": {:?}, \"executions\": {}, \"sched_points\": {}, ",
            "\"distinct_states\": {}, \"max_threads\": {}, \"preemption_bound\": {}, ",
            "\"complete\": {}, \"violations\": {}, \"expect_violation\": {}, ",
            "\"wall_ms\": {}}}"
        ),
        r.name,
        r.executions,
        r.sched_points,
        r.distinct_states,
        r.max_threads,
        r.preemption_bound,
        r.complete,
        r.violations.len(),
        expect_violation,
        r.wall_ms,
    )
}

fn main() {
    // (report, does this harness exist to be *caught*?)
    let runs: Vec<(CheckReport, bool)> = vec![
        (mining_model::range_partition_check(opts()), false),
        (mining_model::range_boundary_check(opts()), false),
        (mining_model::range_torn_steal_check(opts()), true),
        (mining_model::cancel_all_or_nothing_check(opts()), false),
        (mining_model::gauge_drain_check(opts()), false),
        (server_model::phoenix_rebuild_check(opts()), false),
        (server_model::ladder_monotone_check(opts()), false),
    ];

    let mut ok = true;
    let mut lines = Vec::new();
    for (report, expect_violation) in &runs {
        lines.push(record(report, *expect_violation));
        let caught = !report.violations.is_empty();
        if *expect_violation {
            if !caught {
                eprintln!("FAIL {}: seeded bug was not caught", report.name);
                ok = false;
            }
        } else if caught {
            eprintln!("FAIL {}: {}", report.name, report.violations[0].message);
            ok = false;
        } else if !report.complete {
            eprintln!("FAIL {}: bounded space not exhausted", report.name);
            ok = false;
        }
    }

    println!("{{");
    println!("  \"bench\": \"conc_check\",");
    println!("  \"preemption_bound\": {},", opts().max_preemptions);
    println!("  \"harnesses\": [");
    let n = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        println!("  {line}{comma}");
    }
    println!("  ]");
    println!("}}");

    if !ok {
        std::process::exit(1);
    }
}
