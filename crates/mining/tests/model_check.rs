//! Bounded model-check gate for the mining crate's concurrency protocols.
//!
//! Runs only with `--features model-check` (the `[[test]]` target declares
//! `required-features`). Each test asserts the explorer *exhausted* the
//! bounded interleaving space — a timeout-truncated exploration fails, so a
//! state-space blowup cannot silently weaken the gate.

use fingers_conc::model::CheckOptions;
use fingers_mining::model;
use std::time::Duration;

/// ≥2 threads and a ≥4 preemption bound, per the acceptance criteria.
/// 20 s is a hard per-harness ceiling; in practice each exhausts in
/// milliseconds (release) and the reports prove it via `complete`.
fn opts() -> CheckOptions {
    CheckOptions {
        max_preemptions: 4,
        max_duration: Duration::from_secs(20),
        ..CheckOptions::default()
    }
}

#[test]
fn range_partition_holds_under_all_bounded_schedules() {
    let report = model::range_partition_check(opts());
    report.assert_clean();
    assert!(report.executions > 1, "exploration must branch");
    assert!(report.max_threads >= 3, "main + two workers");
}

#[test]
fn range_boundary_root_goes_to_exactly_one_claimant() {
    let report = model::range_boundary_check(opts());
    report.assert_clean();
    assert!(report.executions > 1, "exploration must branch");
}

#[test]
fn seeded_torn_steal_is_caught() {
    let report = model::range_torn_steal_check(opts());
    report.assert_caught();
    let v = &report.violations[0];
    assert!(
        v.message.contains("partition"),
        "the partition assertion must be the one that fires: {}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "violation carries its schedule");
}

#[test]
fn cancel_is_all_or_nothing_under_all_bounded_schedules() {
    let report = model::cancel_all_or_nothing_check(opts());
    report.assert_clean();
    assert!(report.max_threads >= 3, "main + worker + canceller");
}

#[test]
fn gauge_drains_to_baseline_under_all_bounded_schedules() {
    let report = model::gauge_drain_check(opts());
    report.assert_clean();
    assert!(report.executions > 1, "exploration must branch");
}
