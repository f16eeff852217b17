//! End-to-end segmented set-operation pipeline.
//!
//! Glues segmentation → head lists → task-divider pairing → IU execution →
//! result collection into one call, returning both the exact result (always
//! equal to the whole-list merge kernels — enforced by property tests) and
//! the statistics the accelerator timing model consumes: per-workload IU
//! cycles, divider cycles, and collector receive counts.

// lint: hot-path(alloc)

use serde::{Deserialize, Serialize};

use crate::bitvector::{iu_execute, SegBitvecs, SegmentSide};
use crate::collector::{collect_into, receive_count};
use crate::pairing::{pair_into, Pairing, Workload};
use crate::segment::Segments;
use crate::{Elem, SegmentedConfig, SetOpKind};

/// Outcome of one segmented set operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentedOutcome {
    /// The exact operation result (sorted, duplicate-free).
    pub result: Vec<Elem>,
    /// Busy cycles of each IU workload, in issue order. The PE timing model
    /// schedules these onto physical IUs.
    pub workload_cycles: Vec<u64>,
    /// The balanced workloads themselves (long segment + short run each).
    pub workloads: Vec<Workload>,
    /// Task-divider busy cycles (head-list streaming).
    pub divider_cycles: u64,
    /// Number of `(segment, bitvector)` results the collector received; the
    /// serial collection time is proportional to this.
    pub collector_receives: u64,
}

impl SegmentedOutcome {
    /// Total IU busy cycles across all workloads.
    pub fn total_iu_cycles(&self) -> u64 {
        self.workload_cycles.iter().sum()
    }
}

/// Reusable working storage of [`execute_into`]: head lists, the divider's
/// tables, per-workload cycles and the segment bitvectors. One `Scratch`
/// per PE makes the pipeline allocation-free once it has seen its largest
/// operands.
#[derive(Debug, Default)]
pub struct Scratch {
    long_heads: Vec<Elem>,
    short_heads: Vec<Elem>,
    short_lasts: Vec<Elem>,
    pairing: Pairing,
    bits: SegBitvecs,
    workload_cycles: Vec<u64>,
}

impl Scratch {
    /// Busy cycles of each IU workload of the last operation, in issue
    /// order.
    pub fn workload_cycles(&self) -> &[u64] {
        &self.workload_cycles
    }
}

/// The two serial-stage counts of one operation (the per-workload cycles
/// stay in the [`Scratch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    /// Task-divider busy cycles (head-list streaming).
    pub divider_cycles: u64,
    /// `(segment, bitvector)` results the collector received.
    pub collector_receives: u64,
}

/// Executes `kind` on `(short, long)` through the full segmented pipeline.
///
/// Both inputs must be sorted and duplicate-free. The result always equals
/// [`merge::apply`](crate::merge::apply) on the same inputs.
///
/// # Example
///
/// ```
/// use fingers_setops::{segmented, SetOpKind, SegmentedConfig};
/// let out = segmented::execute(
///     SetOpKind::Subtract,
///     &[1, 7, 11, 18],
///     &[1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 18, 22, 26, 28],
///     &SegmentedConfig { long_segment_len: 8, short_segment_len: 4, max_load: 2 },
/// );
/// assert_eq!(out.result, vec![11]); // the paper's Figure 8 answer
/// ```
pub fn execute(
    kind: SetOpKind,
    short: &[Elem],
    long: &[Elem],
    config: &SegmentedConfig,
) -> SegmentedOutcome {
    let mut scratch = Scratch::default();
    // lint: allow-alloc(allocating convenience wrapper; the PE model calls execute_into with its own scratch and pooled output)
    let mut result = Vec::new();
    let counts = execute_into(&mut scratch, kind, short, long, config, &mut result);
    SegmentedOutcome {
        result,
        workload_cycles: scratch.workload_cycles,
        workloads: scratch.pairing.workloads,
        divider_cycles: counts.divider_cycles,
        collector_receives: counts.collector_receives,
    }
}

/// [`execute`] with caller-owned working storage: the result replaces the
/// contents of `out`, the per-workload cycles and workloads are left in
/// `scratch`, and nothing is allocated once both have grown to fit.
pub fn execute_into(
    scratch: &mut Scratch,
    kind: SetOpKind,
    short: &[Elem],
    long: &[Elem],
    config: &SegmentedConfig,
    out: &mut Vec<Elem>,
) -> StageCounts {
    let Scratch {
        long_heads,
        short_heads,
        short_lasts,
        pairing,
        bits,
        workload_cycles,
    } = scratch;
    let long_segs = Segments::new(long, config.long_segment_len);
    let short_segs = Segments::new(short, config.short_segment_len);
    long_heads.clear();
    long_heads.extend(long_segs.iter().map(|seg| seg[0]));
    short_heads.clear();
    short_heads.extend(short_segs.iter().map(|seg| seg[0]));
    short_lasts.clear();
    short_lasts.extend((0..short_segs.count()).map(|i| short_segs.last_of(i)));
    pair_into(
        pairing,
        long_heads,
        short_heads,
        short_lasts,
        kind,
        config.max_load,
    );

    // Execute every workload on a (virtual) IU. All IUs mark the one
    // bitvector array of the annotated set, so results for the same
    // segment from several IUs arrive already OR-ed, and short segments
    // that overlapped no long segment keep their all-zero bitvectors (for
    // subtraction they pass through unchanged).
    let side = SegmentSide::annotated_by(kind);
    let annotated = match side {
        SegmentSide::Long => long,
        SegmentSide::Short => short,
    };
    bits.reset(annotated.len());
    workload_cycles.clear();
    for w in &pairing.workloads {
        let run_start = w.shorts.start * config.short_segment_len;
        let run_end = (w.shorts.end * config.short_segment_len).min(short.len());
        workload_cycles.push(iu_execute(
            side,
            long_segs.get(w.long_idx),
            w.long_idx * config.long_segment_len,
            &short[run_start..run_end],
            run_start,
            bits,
        ));
    }

    out.clear();
    collect_into(kind, annotated, bits, out);
    StageCounts {
        divider_cycles: pairing.divider_cycles,
        collector_receives: receive_count(kind, pairing),
    }
}

/// The literal pipeline this module used before it ran in place — one
/// heap bitvector per IU emission, emissions sorted by segment, a
/// streaming OR-ing collector — kept as the reference the in-place
/// pipeline is checked against on the whole [`SegmentedOutcome`].
#[cfg(test)]
mod reference {
    use super::*;
    use crate::pairing::pair;

    #[derive(Debug, Clone)]
    struct SegBitvec {
        words: Vec<u64>,
        len: usize,
    }

    impl SegBitvec {
        fn zeros(len: usize) -> Self {
            Self {
                words: vec![0; len.div_ceil(64)],
                len,
            }
        }

        fn set(&mut self, i: usize) {
            self.words[i / 64] |= 1 << (i % 64);
        }

        fn get(&self, i: usize) -> bool {
            self.words[i / 64] & (1 << (i % 64)) != 0
        }

        fn or_assign(&mut self, other: &SegBitvec) {
            assert_eq!(self.len, other.len, "OR across different segments");
            for (a, b) in self.words.iter_mut().zip(&other.words) {
                *a |= b;
            }
        }
    }

    /// `(side, segment index, bitvector)` sent by an IU to the collector.
    type Emission = (SegmentSide, usize, SegBitvec);

    fn iu_execute(
        kind: SetOpKind,
        long_idx: usize,
        long_seg: &[Elem],
        shorts: &[(usize, &[Elem])],
    ) -> (Vec<Emission>, u64) {
        let short_total: usize = shorts.iter().map(|(_, s)| s.len()).sum();
        let mut emissions = Vec::new();
        match kind {
            SetOpKind::Intersect | SetOpKind::AntiSubtract => {
                let mut bv = SegBitvec::zeros(long_seg.len());
                for (p, &x) in long_seg.iter().enumerate() {
                    if shorts.iter().any(|(_, s)| s.binary_search(&x).is_ok()) {
                        bv.set(p);
                    }
                }
                emissions.push((SegmentSide::Long, long_idx, bv));
            }
            SetOpKind::Subtract => {
                for &(short_idx, seg) in shorts {
                    let mut bv = SegBitvec::zeros(seg.len());
                    for (p, &x) in seg.iter().enumerate() {
                        if long_seg.binary_search(&x).is_ok() {
                            bv.set(p);
                        }
                    }
                    emissions.push((SegmentSide::Short, short_idx, bv));
                }
            }
        }
        (emissions, (long_seg.len() + short_total) as u64)
    }

    pub fn execute(
        kind: SetOpKind,
        short: &[Elem],
        long: &[Elem],
        config: &SegmentedConfig,
    ) -> SegmentedOutcome {
        let long_segs = Segments::new(long, config.long_segment_len);
        let short_segs = Segments::new(short, config.short_segment_len);
        let short_lasts: Vec<Elem> = (0..short_segs.count())
            .map(|i| short_segs.last_of(i))
            .collect();
        let pairing = pair(
            &long_segs.head_list(),
            &short_segs.head_list(),
            &short_lasts,
            kind,
            config.max_load,
        );

        let mut emissions: Vec<Emission> = Vec::new();
        let mut workload_cycles = Vec::new();
        for w in &pairing.workloads {
            let shorts: Vec<(usize, &[Elem])> =
                w.shorts.clone().map(|i| (i, short_segs.get(i))).collect();
            let (emitted, cycles) =
                iu_execute(kind, w.long_idx, long_segs.get(w.long_idx), &shorts);
            workload_cycles.push(cycles);
            emissions.extend(emitted);
        }
        if kind == SetOpKind::Subtract {
            for i in pairing.unpaired_shorts.clone() {
                let zeros = SegBitvec::zeros(short_segs.get(i).len());
                emissions.push((SegmentSide::Short, i, zeros));
            }
        }
        // Round-robin collection: results for one segment adjacent,
        // segments in increasing order.
        emissions.sort_by_key(|e| e.1);

        let keep_ones = kind == SetOpKind::Intersect;
        let mut result = Vec::new();
        let mut flush = |(side, idx, acc): Emission| {
            let elems = match side {
                SegmentSide::Long => long_segs.get(idx),
                SegmentSide::Short => short_segs.get(idx),
            };
            assert_eq!(elems.len(), acc.len);
            result.extend(
                elems
                    .iter()
                    .enumerate()
                    .filter(|&(p, _)| acc.get(p) == keep_ones)
                    .map(|(_, &x)| x),
            );
        };
        let collector_receives = emissions.len() as u64;
        let mut current: Option<Emission> = None;
        for e in emissions {
            match &mut current {
                Some(cur) if cur.1 == e.1 => cur.2.or_assign(&e.2),
                _ => {
                    if let Some(done) = current.replace(e) {
                        flush(done);
                    }
                }
            }
        }
        if let Some(done) = current {
            flush(done);
        }

        SegmentedOutcome {
            result,
            workload_cycles,
            workloads: pairing.workloads,
            divider_cycles: pairing.divider_cycles,
            collector_receives,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge;
    use proptest::prelude::*;

    fn small_config() -> SegmentedConfig {
        SegmentedConfig {
            long_segment_len: 4,
            short_segment_len: 2,
            max_load: 2,
        }
    }

    #[test]
    fn empty_inputs() {
        for kind in SetOpKind::ALL {
            let out = execute(kind, &[], &[], &SegmentedConfig::default());
            assert!(out.result.is_empty(), "{kind}");
        }
    }

    #[test]
    fn empty_short_set() {
        let long = [1, 2, 3, 4, 5];
        let cfg = SegmentedConfig::default();
        assert!(execute(SetOpKind::Intersect, &[], &long, &cfg)
            .result
            .is_empty());
        assert!(execute(SetOpKind::Subtract, &[], &long, &cfg)
            .result
            .is_empty());
        assert_eq!(
            execute(SetOpKind::AntiSubtract, &[], &long, &cfg).result,
            long.to_vec()
        );
    }

    #[test]
    fn empty_long_set() {
        let short = [1, 2, 3];
        let cfg = SegmentedConfig::default();
        assert!(execute(SetOpKind::Intersect, &short, &[], &cfg)
            .result
            .is_empty());
        assert_eq!(
            execute(SetOpKind::Subtract, &short, &[], &cfg).result,
            short.to_vec()
        );
        assert!(execute(SetOpKind::AntiSubtract, &short, &[], &cfg)
            .result
            .is_empty());
    }

    #[test]
    fn figure_8_full_pipeline() {
        // Figure 8: short [1, 7, 11, 18] minus the long list whose first two
        // segments are [1, 3, 4, 5, 7, 8, 9, 12] and [13, 15, 18, 22, ...].
        let short = [1, 7, 11, 18];
        let long = [1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 18, 22, 26, 28, 33, 34];
        let cfg = SegmentedConfig {
            long_segment_len: 8,
            short_segment_len: 4,
            max_load: 2,
        };
        let out = execute(SetOpKind::Subtract, &short, &long, &cfg);
        assert_eq!(out.result, vec![11]);
    }

    #[test]
    fn statistics_are_populated() {
        let short: Vec<Elem> = (0..20).map(|i| i * 3).collect();
        let long: Vec<Elem> = (0..50).collect();
        let out = execute(SetOpKind::Intersect, &short, &long, &small_config());
        assert!(!out.workloads.is_empty());
        assert_eq!(out.workload_cycles.len(), out.workloads.len());
        assert!(out.total_iu_cycles() > 0);
        assert!(out.divider_cycles > 0);
        assert!(out.collector_receives >= out.workloads.len() as u64);
    }

    #[test]
    fn identical_sets_intersect_to_themselves() {
        let set: Vec<Elem> = (0..40).map(|i| i * 2).collect();
        let cfg = SegmentedConfig::default();
        assert_eq!(execute(SetOpKind::Intersect, &set, &set, &cfg).result, set);
        assert!(execute(SetOpKind::Subtract, &set, &set, &cfg)
            .result
            .is_empty());
        assert!(execute(SetOpKind::AntiSubtract, &set, &set, &cfg)
            .result
            .is_empty());
    }

    #[test]
    fn single_element_sets() {
        let cfg = SegmentedConfig::default();
        assert_eq!(
            execute(SetOpKind::Intersect, &[5], &[5], &cfg).result,
            vec![5]
        );
        assert!(execute(SetOpKind::Intersect, &[5], &[6], &cfg)
            .result
            .is_empty());
        assert_eq!(
            execute(SetOpKind::Subtract, &[5], &[6], &cfg).result,
            vec![5]
        );
        assert_eq!(
            execute(SetOpKind::AntiSubtract, &[5], &[4, 6], &cfg).result,
            vec![4, 6]
        );
    }

    #[test]
    fn max_load_one_still_exact() {
        let short: Vec<Elem> = (0..30).collect();
        let long: Vec<Elem> = (10..60).collect();
        let cfg = SegmentedConfig {
            long_segment_len: 4,
            short_segment_len: 2,
            max_load: 1,
        };
        let out = execute(SetOpKind::Intersect, &short, &long, &cfg);
        let expected: Vec<Elem> = (10..30).collect();
        assert_eq!(out.result, expected);
        // max_load 1 forces many single-short workloads.
        assert!(out.workloads.iter().all(|w| w.load() <= 1));
    }

    #[test]
    fn disjoint_ranges_cost_little() {
        // Short set entirely below the long set: intersection pairs nothing.
        let short: Vec<Elem> = (0..50).collect();
        let long: Vec<Elem> = (1000..1200).collect();
        let out = execute(
            SetOpKind::Intersect,
            &short,
            &long,
            &SegmentedConfig::default(),
        );
        assert!(out.result.is_empty());
        assert!(out.workloads.is_empty(), "no overlapping segments to pair");
    }

    fn sorted_set(max_val: u32, max_len: usize) -> impl Strategy<Value = Vec<Elem>> {
        proptest::collection::btree_set(0..max_val, 0..max_len)
            .prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        /// The headline invariant: the segmented pipeline computes exactly
        /// the same set as the whole-list merge kernels, for every
        /// operation, every input shape, and every segmentation geometry.
        #[test]
        fn pipeline_matches_merge_reference(
            short in sorted_set(300, 60),
            long in sorted_set(300, 120),
            long_len in 1usize..20,
            short_len in 1usize..8,
            max_load in 1usize..5,
        ) {
            let cfg = SegmentedConfig {
                long_segment_len: long_len,
                short_segment_len: short_len,
                max_load,
            };
            for kind in SetOpKind::ALL {
                let expected = merge::apply(kind, &short, &long);
                let got = execute(kind, &short, &long, &cfg);
                prop_assert_eq!(&got.result, &expected, "kind {}", kind);
            }
        }

        /// Total IU work is bounded by a small multiple of the input sizes:
        /// over-pairing may re-stream segments, but never blows up.
        #[test]
        fn work_is_bounded(
            short in sorted_set(300, 60),
            long in sorted_set(300, 120),
        ) {
            let cfg = SegmentedConfig::default();
            for kind in SetOpKind::ALL {
                let out = execute(kind, &short, &long, &cfg);
                let bound = (4 * (short.len() + long.len()) + 64) as u64;
                prop_assert!(out.total_iu_cycles() <= bound,
                    "kind {}: {} > {}", kind, out.total_iu_cycles(), bound);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-place pipeline reproduces the literal one field for
        /// field — result, per-workload cycles, workloads, divider cycles
        /// and collector receives — including with a scratch that earlier
        /// operations of other shapes have already used.
        #[test]
        fn in_place_pipeline_matches_the_literal_reference(
            short in sorted_set(300, 60),
            long in sorted_set(300, 120),
            long_len in 1usize..80,
            short_len in 1usize..8,
            max_load in 1usize..5,
        ) {
            let cfg = SegmentedConfig {
                long_segment_len: long_len,
                short_segment_len: short_len,
                max_load,
            };
            let mut scratch = Scratch::default();
            let mut result = vec![7; 3];
            for kind in SetOpKind::ALL {
                let expected = reference::execute(kind, &short, &long, &cfg);
                prop_assert_eq!(&execute(kind, &short, &long, &cfg), &expected, "kind {}", kind);
                let counts = execute_into(&mut scratch, kind, &short, &long, &cfg, &mut result);
                prop_assert_eq!(&result, &expected.result, "kind {}", kind);
                prop_assert_eq!(scratch.workload_cycles(), &expected.workload_cycles[..]);
                prop_assert_eq!(&scratch.pairing.workloads, &expected.workloads);
                prop_assert_eq!(counts.divider_cycles, expected.divider_cycles);
                prop_assert_eq!(counts.collector_receives, expected.collector_receives);
            }
        }
    }
}
