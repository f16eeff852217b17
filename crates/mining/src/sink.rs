//! Embedding sinks: what the mining engine does with each match.
//!
//! The seed executor threaded a `FnMut(&[VertexId])` closure through the
//! DFS, which forced every consumer — counting included — to materialize
//! each embedding. [`Sink`] generalizes that: listing sinks still see every
//! embedding, while counting sinks set [`Sink::COUNTS_ONLY`] and receive a
//! whole leaf-level candidate run as one [`Sink::leaf_count`] — the engine
//! subtracts the few already-mapped vertices the pattern allows there, or
//! never materializes the run at all.

use fingers_graph::VertexId;

/// Consumer of the embeddings produced by the plan interpreter.
///
/// The engine calls [`embedding`](Self::embedding) once per match with all
/// `k` mapped vertices in level order — unless the sink declares
/// [`COUNTS_ONLY`](Self::COUNTS_ONLY), in which case leaf levels arrive as
/// [`leaf_count`](Self::leaf_count) totals instead.
pub trait Sink {
    /// `true` when this sink only ever needs embedding *counts*, never the
    /// mapped vertices. The engine then reports leaf levels through
    /// [`leaf_count`](Self::leaf_count) and (together with
    /// `EngineConfig::fuse_terminal_counts`) routes terminal plan levels
    /// through fused count kernels that skip materializing the leaf
    /// candidate set entirely; reported totals are bit-identical either
    /// way. The default `false` keeps listing sinks on the materializing
    /// path: every embedding, in DFS order.
    const COUNTS_ONLY: bool = false;

    /// One complete embedding; `mapped[i]` is the vertex matched to pattern
    /// vertex `u_i`.
    fn embedding(&mut self, mapped: &[VertexId]);

    /// A leaf report: `n` embeddings completed whose leaf vertices were
    /// counted — by a fused kernel, or as the length of a candidate run —
    /// without being reported one by one. Only called when
    /// [`COUNTS_ONLY`](Self::COUNTS_ONLY) is `true`, so the default ignores
    /// the report (a listing sink never receives one).
    fn leaf_count(&mut self, n: u64) {
        let _ = n;
    }

    /// Heap bytes this sink currently retains, for the memory governor's
    /// root-boundary footprint poll. Counting sinks retain nothing (the
    /// default); accumulating sinks like [`ListSink`] report their buffer
    /// capacity so a runaway listing query trips its byte budget instead
    /// of OOM-ing the process.
    fn heap_bytes(&self) -> u64 {
        0
    }
}

/// Counts embeddings without materializing them: a leaf run of `n`
/// candidates arrives as one [`Sink::leaf_count`], not `n` embeddings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountSink {
    /// Embeddings seen so far.
    pub count: u64,
}

impl Sink for CountSink {
    const COUNTS_ONLY: bool = true;

    fn embedding(&mut self, _mapped: &[VertexId]) {
        self.count += 1;
    }

    fn leaf_count(&mut self, n: u64) {
        self.count += n;
    }
}

/// Adapts a `FnMut(&[VertexId])` closure into a [`Sink`], preserving the
/// seed executor's listing behavior (every embedding materialized, in DFS
/// order).
#[derive(Debug)]
pub struct FnSink<F> {
    f: F,
}

impl<F: FnMut(&[VertexId])> FnSink<F> {
    /// Wraps `f` so the engine invokes it once per embedding.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F: FnMut(&[VertexId])> Sink for FnSink<F> {
    fn embedding(&mut self, mapped: &[VertexId]) {
        (self.f)(mapped);
    }
}

/// Collects every embedding into a flat vertex buffer (`k` entries per
/// match, DFS order), reporting its retained capacity to the memory
/// governor. The listing counterpart of [`CountSink`]: the one sink whose
/// footprint grows with the *result*, not the plan, which is exactly what
/// a per-query byte budget exists to bound.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ListSink {
    /// Concatenated embeddings, `k` vertices each, in DFS order.
    pub flat: Vec<VertexId>,
    /// Vertices per embedding (0 until the first match arrives).
    pub arity: usize,
}

impl ListSink {
    /// Embeddings collected so far.
    pub fn len(&self) -> usize {
        self.flat.len().checked_div(self.arity).unwrap_or(0)
    }

    /// Whether no embedding has been collected.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }
}

impl Sink for ListSink {
    fn embedding(&mut self, mapped: &[VertexId]) {
        self.arity = mapped.len();
        // lint: allow-alloc(listing inherently accumulates its result; the
        // memory governor bounds it via heap_bytes)
        self.flat.extend_from_slice(mapped);
    }

    fn heap_bytes(&self) -> u64 {
        (self.flat.capacity() * std::mem::size_of::<VertexId>()) as u64
    }
}
