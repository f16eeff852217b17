//! Engine-wide tuning knobs for the software miner.

use std::sync::Arc;

use fingers_graph::hubs::HubSet;
use fingers_graph::CsrGraph;

/// Default number of top-degree vertices whose adjacencies are eligible
/// for the dense-bitmap kernel tier. Power-law set-op time concentrates in
/// hubs, but the crossover microbench showed the win keeps growing well
/// past the first few dozen: 1024 hubs roughly doubles clique-counting
/// throughput on the heavy-tail stand-ins where 64 barely moved it. `k`
/// also bounds the most bitmaps a cache could ever hold.
pub const DEFAULT_BITMAP_HUBS: usize = 1024;

/// Default per-worker bitmap-cache capacity in resident bitmaps. Sized to
/// match [`DEFAULT_BITMAP_HUBS`] so a warm cache never evicts (eviction
/// churn was the dominant cost of a small cache). Each slot costs
/// `⌈n/64⌉` words for an n-vertex graph (≈ 12 KiB at n = 100 000), but
/// bitmaps are built lazily, so a worker only pays for hubs whose
/// adjacencies its tasks actually probe.
pub const DEFAULT_BITMAP_CACHE_SLOTS: usize = 1024;

/// Tuning configuration of the plan-driven mining engine.
///
/// Every setting is performance-only: **counts are identical under every
/// configuration** (all kernel tiers are property-tested equivalent), so
/// configs can be swept freely in benchmarks without re-validating
/// results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// How many top-degree vertices get dense bitmaps (0 disables the
    /// bitmap tier entirely; merge/galloping dispatch still applies).
    pub bitmap_hubs: usize,
    /// Per-worker bitmap-cache capacity (resident hub bitmaps). Clamped to
    /// at least 1 when the bitmap tier is enabled.
    pub bitmap_cache_slots: usize,
    /// Route terminal-counting plan levels through the fused count kernels
    /// (count + bound pushing, no leaf-set materialization; DESIGN.md
    /// § count fusion & bound pushing). Counting sinks only — the listing
    /// path is unaffected either way. Off reinstates the materialize-then-
    /// count baseline, for determinism sweeps and before/after benchmarks
    /// (CLI `--no-count-fusion`).
    pub fuse_terminal_counts: bool,
    /// Let the adaptive tier choosers pick the SIMD block-compare kernels
    /// ([`fingers_setops::simd`]) in the merge's balanced region. A policy
    /// toggle only: the selectors AND it with the build/CPU probe, so `true`
    /// on a machine without the vector path degrades silently to the
    /// scalar tiers. Off reinstates the three-tier baseline (CLI
    /// `--no-simd`).
    pub simd: bool,
    /// Per-query scratch-memory budget in bytes (`None` = unlimited). When
    /// a query's combined metered footprint — scratch arenas, bitmap
    /// caches, and listing sinks across all its workers — crosses the
    /// budget, the run aborts cooperatively at the next root-task boundary
    /// with [`crate::EngineError::MemBudgetExceeded`] and discards every
    /// partial count (the cancellation contract). A budget can only abort
    /// a run, never change what a completed run counts, so the "counts are
    /// identical under every configuration" guarantee still holds for
    /// every run that completes.
    pub query_mem_budget: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            bitmap_hubs: DEFAULT_BITMAP_HUBS,
            bitmap_cache_slots: DEFAULT_BITMAP_CACHE_SLOTS,
            fuse_terminal_counts: true,
            simd: true,
            query_mem_budget: None,
        }
    }
}

impl EngineConfig {
    /// The merge/galloping-only baseline: bitmap tier disabled.
    pub fn without_bitmap() -> Self {
        Self {
            bitmap_hubs: 0,
            ..Self::default()
        }
    }

    /// The materialize-every-level baseline: terminal-count fusion off.
    pub fn without_count_fusion() -> Self {
        Self {
            fuse_terminal_counts: false,
            ..Self::default()
        }
    }

    /// The scalar-kernels baseline: SIMD tier disabled (merge, galloping,
    /// and bitmap dispatch still apply).
    pub fn without_simd() -> Self {
        Self {
            simd: false,
            ..Self::default()
        }
    }

    /// A config enforcing a per-query scratch-memory budget of `bytes`.
    pub fn with_query_mem_budget(bytes: u64) -> Self {
        Self {
            query_mem_budget: Some(bytes),
            ..Self::default()
        }
    }

    /// A config with the given hub budget and default cache sizing.
    pub fn with_bitmap_hubs(bitmap_hubs: usize) -> Self {
        Self {
            bitmap_hubs,
            ..Self::default()
        }
    }

    /// Whether the bitmap tier is enabled.
    pub fn bitmap_enabled(&self) -> bool {
        self.bitmap_hubs > 0
    }

    /// Identifies this config's hub set for `graph`, shared (via `Arc`)
    /// across the parallel workers so top-k selection runs once per mining
    /// call rather than once per worker. `None` when the tier is disabled
    /// or no vertex qualifies.
    pub fn hub_set(&self, graph: &CsrGraph) -> Option<Arc<HubSet>> {
        if !self.bitmap_enabled() {
            return None;
        }
        let hubs = HubSet::top_k(graph, self.bitmap_hubs);
        if hubs.is_empty() {
            None
        } else {
            Some(Arc::new(hubs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingers_graph::GraphBuilder;

    #[test]
    fn default_enables_bitmap_tier() {
        let c = EngineConfig::default();
        assert!(c.bitmap_enabled());
        assert_eq!(c.bitmap_hubs, DEFAULT_BITMAP_HUBS);
        assert!(!EngineConfig::without_bitmap().bitmap_enabled());
        assert_eq!(EngineConfig::with_bitmap_hubs(3).bitmap_hubs, 3);
    }

    #[test]
    fn default_enables_count_fusion() {
        assert!(EngineConfig::default().fuse_terminal_counts);
        let off = EngineConfig::without_count_fusion();
        assert!(!off.fuse_terminal_counts);
        assert!(off.bitmap_enabled(), "fusion toggle must not touch bitmap");
    }

    #[test]
    fn default_enables_simd() {
        assert!(EngineConfig::default().simd);
        let no_simd = EngineConfig::without_simd();
        assert!(!no_simd.simd);
        assert!(
            no_simd.bitmap_enabled(),
            "simd toggle must not touch bitmap"
        );
    }

    #[test]
    fn hub_set_respects_toggle_and_empty_graphs() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2)]).build();
        assert!(EngineConfig::without_bitmap().hub_set(&g).is_none());
        let hubs = EngineConfig::default().hub_set(&g).expect("hubs");
        assert!(hubs.contains(1));
        let empty = GraphBuilder::new().vertex_count(3).build();
        assert!(EngineConfig::default().hub_set(&empty).is_none());
    }
}
