//! Units of mining work: contiguous runs of level-0 roots.
//!
//! Plan-driven DFS trees rooted at different level-0 vertices are fully
//! independent — no shared state, no cross-tree pruning. That makes "a
//! range of roots" the natural task granule for parallel mining (the same
//! decomposition the paper's accelerator uses to feed its PEs): seed each
//! worker with a contiguous block and let workers claim single roots from
//! it dynamically and steal from each other, so a block containing hub
//! vertices does not serialize the whole run.

use fingers_graph::{CsrGraph, VertexId};

/// A contiguous half-open range `[start, end)` of level-0 root vertices.
///
/// Executing a task means running the full plan DFS for every root in the
/// range. Tasks never overlap, so any partition of `[0, |V|)` into tasks
/// covers each embedding exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningTask {
    /// First root vertex (inclusive).
    pub start: VertexId,
    /// One past the last root vertex.
    pub end: VertexId,
}

impl MiningTask {
    /// The task covering every vertex of `graph` — sequential mining is
    /// "run this one task".
    pub fn all(graph: &CsrGraph) -> Self {
        Self {
            start: 0,
            end: graph.vertex_count() as VertexId,
        }
    }

    /// The roots in this task, in ascending order.
    pub fn roots(&self) -> impl Iterator<Item = VertexId> {
        self.start..self.end
    }

    /// Number of roots in the task.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the task contains no roots.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Splits `[0, vertex_count)` into at most `chunks` contiguous tasks of
    /// near-equal size (sizes differ by at most one). Returns fewer tasks
    /// when there are fewer vertices than requested chunks; covers every
    /// vertex exactly once.
    pub fn partition(vertex_count: usize, chunks: usize) -> Vec<MiningTask> {
        let chunks = chunks.max(1).min(vertex_count.max(1));
        if vertex_count == 0 {
            return Vec::new();
        }
        let base = vertex_count / chunks;
        let extra = vertex_count % chunks;
        let mut tasks = Vec::with_capacity(chunks);
        let mut start = 0usize;
        for i in 0..chunks {
            let len = base + usize::from(i < extra);
            tasks.push(MiningTask {
                start: start as VertexId,
                end: (start + len) as VertexId,
            });
            start += len;
        }
        tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_root_once() {
        for (n, chunks) in [(10, 3), (7, 7), (5, 16), (1, 4), (100, 8)] {
            let tasks = MiningTask::partition(n, chunks);
            let mut covered = Vec::new();
            for t in &tasks {
                assert!(!t.is_empty(), "no empty tasks for n={n}, chunks={chunks}");
                covered.extend(t.roots());
            }
            let expected: Vec<VertexId> = (0..n as VertexId).collect();
            assert_eq!(covered, expected, "n={n}, chunks={chunks}");
            // Near-equal sizes: max − min ≤ 1.
            let sizes: Vec<usize> = tasks.iter().map(MiningTask::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced sizes {sizes:?}");
        }
    }

    #[test]
    fn partition_of_empty_graph_is_empty() {
        assert!(MiningTask::partition(0, 4).is_empty());
    }
}
