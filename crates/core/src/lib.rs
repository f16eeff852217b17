//! FINGERS: a graph mining accelerator exploiting fine-grained parallelism.
//!
//! This crate is the paper's primary contribution, reproduced as a
//! functional-plus-timing model:
//!
//! - [`config`]: hardware configurations (24 IUs, 12 task dividers, 32 kB
//!   private cache, 2×8 kB stream buffers per PE; 20 PEs per chip).
//! - [`area`]: the Table 2 area/power model and the iso-area configuration
//!   solvers used throughout the evaluation.
//! - [`interp`] + [`frame`]: the plan interpreter and candidate-set storage
//!   both PE models share — what a task computes; each design supplies
//!   only what it charges for it (an [`interp::OpModel`]).
//! - [`pe`]: the FINGERS processing element — the 5-stage macro pipeline of
//!   Section 4 with branch-level (pseudo-DFS task groups), set-level
//!   (parallel schedule ops sharing the streamed neighbor list) and
//!   segment-level (task dividers + parallel IUs + bitvector result
//!   collection) parallelism.
//! - [`chip`]: the multi-PE chip with the global root scheduler, plus the
//!   [`PeModel`](chip::PeModel) trait the FlexMiner baseline also
//!   implements so both designs run on the identical memory substrate —
//!   mirroring the paper's methodology ("The same simulator is also used to
//!   reproduce the results for our baseline FlexMiner").
//! - [`stats`]: per-IU activity and balance statistics (Table 3
//!   definitions), embedding counts, and chip-level reports.
//!
//! Functional execution is exact: every simulation returns the embedding
//! counts, which integration tests require to equal the software miner's.
//!
//! # Example
//!
//! ```
//! use fingers_core::chip::simulate_fingers;
//! use fingers_core::config::ChipConfig;
//! use fingers_graph::GraphBuilder;
//! use fingers_pattern::benchmarks::Benchmark;
//!
//! let g = GraphBuilder::new()
//!     .edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
//!     .build();
//! let report = simulate_fingers(&g, &Benchmark::Tc.plan(), &ChipConfig::single_pe());
//! assert_eq!(report.total_embeddings(), 4); // K4 has 4 triangles
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod chip;
pub mod config;
pub mod frame;
pub mod interp;
pub mod pe;
pub mod stats;
pub mod trace;
