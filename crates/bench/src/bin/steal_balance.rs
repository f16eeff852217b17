//! Range-stealing vs replayed static/cursor schedules on the power-law hub graph.

fn main() {
    let quick = fingers_bench::quick_mode();
    print!("{}", fingers_bench::experiments::steal_balance::run(quick));
}
