//! The simulators' task path allocates nothing in steady state: neighbor
//! lists are borrowed from the CSR, candidate sets live in recycled pool
//! buffers, the IU pipeline runs in reused scratch. What is left is
//! construction (PEs, memory system, root order) and pool growth, which a
//! 10 000-task run amortises to well under two allocations per task — the
//! parent of PR 13 made about two dozen.
//!
//! Its own test binary with a single test: the counter is per thread, but
//! a quiet process keeps the measurement honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fingers_repro::core::chip::simulate_fingers;
use fingers_repro::core::config::ChipConfig;
use fingers_repro::flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_repro::graph::gen::{chung_lu_power_law, ChungLuConfig};
use fingers_repro::pattern::benchmarks::Benchmark;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's `alloc`/`realloc` calls.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`, and `f`'s result.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn simulated_tasks_allocate_at_most_pool_growth() {
    let graph = chung_lu_power_law(&ChungLuConfig::new(2_000, 12_000, 13));
    // 4-cliques: three-level trees, so frames are retained, chained and
    // released, and every task runs an intersection through the pipeline.
    let multi = Benchmark::Cl4.plan();
    let runs = [
        count_allocations(|| simulate_fingers(&graph, &multi, &ChipConfig::single_pe())),
        count_allocations(|| simulate_flexminer(&graph, &multi, &FlexMinerChipConfig::single_pe())),
    ];
    for (sim, (allocations, report)) in ["FINGERS", "FlexMiner"].into_iter().zip(runs) {
        let tasks = report.tasks();
        assert!(tasks >= 10_000, "{sim}: only {tasks} tasks");
        assert!(
            allocations <= 2 * tasks,
            "{sim}: {allocations} allocations over {tasks} tasks"
        );
        println!("{sim}: {allocations} allocations over {tasks} tasks");
    }
}
