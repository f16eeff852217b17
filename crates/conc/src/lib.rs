//! fingers-conc: the concurrency substrate for the FINGERS reproduction.
//!
//! Two halves:
//!
//! - [`sync`] — a drop-in shim over `std::sync`. Without the `model-check`
//!   feature it re-exports the std types verbatim, so production builds pay
//!   nothing. With the feature, `Mutex`, `Condvar` and the atomics become
//!   instrumented versions that report every operation to the model checker
//!   (and fall back to plain std behaviour when no checker is driving the
//!   current thread, so the full test suite still runs with the feature on).
//! - [`model`] — a deterministic bounded model checker in the style of loom.
//!   [`model::check`] runs a closure under every schedule the DFS explorer
//!   can reach within a context-switch (preemption) bound, serializing the
//!   shimmed threads so exactly one runs at a time and branching the schedule
//!   at every instrumented operation.
//!
//! The mining and server crates port their load-bearing structures (the
//! root-range pool, `MemGauge`, `CancelToken`, the sched worker pool) onto [`sync`] and
//! ship model-checked harnesses in their own `model` modules; see DESIGN.md
//! §16 for the architecture and for how to write a new harness.

#![warn(missing_docs)]

#[cfg(feature = "model-check")]
pub mod model;
pub mod sync;
