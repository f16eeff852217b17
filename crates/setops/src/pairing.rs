//! The task-divider model: segment pairing, load table, load balancing.
//!
//! Paper Section 4.2 / Figure 7: the divider organizes the long head list as
//! a binary tree, streams each short head through it to find `pos_i` (the
//! index of the long head immediately larger than the short head), fills a
//! load table with the number and starting index of the short segments
//! paired with each long segment, and finally splits over-loaded long
//! segments across multiple intersect units using a maximum-load threshold.

// lint: hot-path(alloc)

use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::{Elem, SetOpKind};

/// One intersect-unit workload: one long segment plus a contiguous run of
/// paired short segments (possibly empty, for anti-subtraction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    /// Index of the long segment this IU streams.
    pub long_idx: usize,
    /// Half-open range of paired short-segment indices.
    pub shorts: Range<usize>,
}

impl Workload {
    /// Number of short segments in this workload.
    pub fn load(&self) -> usize {
        self.shorts.len()
    }
}

/// Complete output of one task-divider pass over a pair of head lists.
///
/// Reusable: [`pair_into`] clears and refills the tables in place, so a
/// long-lived `Pairing` stops allocating once it has seen its largest
/// operands.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pairing {
    /// Per-long-segment load (number of paired short segments): the load
    /// table of Figure 7.
    pub load_table: Vec<usize>,
    /// Per-long-segment starting short-segment index (meaningful when the
    /// load is non-zero).
    pub start_table: Vec<usize>,
    /// Balanced IU workloads (the task table of Figure 7), in long-segment
    /// order.
    pub workloads: Vec<Workload>,
    /// Prefix of short segments that overlap no long segment at all. For
    /// subtraction these pass through unmodified; for intersection they
    /// contribute nothing.
    pub unpaired_shorts: Range<usize>,
    /// Divider busy cycles: one per streamed short head plus one per long
    /// head scanned when emitting the task table. Head lists are shorter
    /// than the sets by `s_l`/`s_s`, which is why this never dominates the
    /// IU compute time (Section 4.2, "Overheads of task dividers").
    pub divider_cycles: u64,
}

/// Pairs the segments of a short and a long set from their head lists and
/// balances the loads onto IU workloads.
///
/// `short_lasts[i]` must be the largest element of short segment `i`; the
/// hardware equivalently uses the next short head as the exclusive bound,
/// with the real tail bound for the final segment.
///
/// For `SetOpKind::AntiSubtract`, long segments with zero paired short
/// segments still produce (empty) workloads, because their elements all
/// survive `long − short` (Figure 7's "omit... except for anti-subtraction").
///
/// # Panics
///
/// Panics if `max_load == 0` or if the head/last arrays disagree in length.
pub fn pair(
    long_heads: &[Elem],
    short_heads: &[Elem],
    short_lasts: &[Elem],
    kind: SetOpKind,
    max_load: usize,
) -> Pairing {
    let mut pairing = Pairing::default();
    pair_into(
        &mut pairing,
        long_heads,
        short_heads,
        short_lasts,
        kind,
        max_load,
    );
    pairing
}

/// [`pair`] into a caller-owned [`Pairing`] (overwritten): the
/// allocation-free entry point the segmented pipeline's scratch uses.
pub fn pair_into(
    pairing: &mut Pairing,
    long_heads: &[Elem],
    short_heads: &[Elem],
    short_lasts: &[Elem],
    kind: SetOpKind,
    max_load: usize,
) {
    assert!(max_load > 0, "max_load must be positive");
    assert_eq!(
        short_heads.len(),
        short_lasts.len(),
        "one last element per short segment"
    );

    let Pairing {
        load_table,
        start_table,
        workloads,
        ..
    } = pairing;
    let n_long = long_heads.len();
    load_table.clear();
    load_table.resize(n_long, 0);
    start_table.clear();
    start_table.resize(n_long, 0);
    let mut unpaired_end = 0usize;

    for (i, (&head, &last)) in short_heads.iter().zip(short_lasts).enumerate() {
        // First long head strictly greater than the short segment's bounds.
        let q = long_heads.partition_point(|&h| h <= last);
        if q == 0 {
            // The whole short segment lies before the first long segment.
            unpaired_end = i + 1;
            continue;
        }
        let pos = long_heads.partition_point(|&h| h <= head);
        for j in pos.saturating_sub(1)..q {
            if load_table[j] == 0 {
                start_table[j] = i;
            }
            load_table[j] += 1;
        }
    }

    workloads.clear();
    for (j, (&load, &start)) in load_table.iter().zip(start_table.iter()).enumerate() {
        if load == 0 {
            if kind == SetOpKind::AntiSubtract {
                workloads.push(Workload {
                    long_idx: j,
                    shorts: 0..0,
                });
            }
            continue;
        }
        let mut chunk_start = start;
        while chunk_start < start + load {
            let chunk_end = (chunk_start + max_load).min(start + load);
            workloads.push(Workload {
                long_idx: j,
                shorts: chunk_start..chunk_end,
            });
            chunk_start = chunk_end;
        }
    }

    pairing.unpaired_shorts = 0..unpaired_end;
    pairing.divider_cycles = (short_heads.len() + n_long) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The head lists of the paper's Figure 7: long heads 10, 25, 44, 57,
    /// 68, 80 (with a binary tree of 10/44/68 at the top) and short heads
    /// 26, 33, 47, 50, 76.
    #[test]
    fn figure_7_example() {
        let long_heads = [10, 25, 44, 57, 68, 80];
        let short_heads = [26, 33, 47, 50, 76];
        // Last elements: each short segment ends just before the next head.
        let short_lasts = [32, 46, 49, 75, 79];
        let p = pair(
            &long_heads,
            &short_heads,
            &short_lasts,
            SetOpKind::Intersect,
            2,
        );
        // Long segment 0 ([10, 25)) pairs nothing; segment 1 ([25, 44))
        // pairs shorts 0-1; segment 2 ([44, 57)) pairs shorts 1-3; segments
        // 3 and 4 pair the wide short segment 3 ([50, 75]) plus, for
        // segment 4, short 4. (Figure 7 bounds the last pairing by the next
        // short head; we use each short segment's true last element, which
        // pairs the wide segment 3 with every long segment it overlaps.)
        assert_eq!(p.load_table, vec![0, 2, 3, 1, 2, 0]);
        assert_eq!(p.start_table[1], 0);
        assert_eq!(p.start_table[2], 1);
        assert_eq!(p.start_table[3], 3);
        assert_eq!(p.start_table[4], 3);
        // With max load 2, long segment 2's load of 3 splits across two IUs
        // (the red box in Figure 7).
        let seg2: Vec<_> = p.workloads.iter().filter(|w| w.long_idx == 2).collect();
        assert_eq!(seg2.len(), 2);
        assert_eq!(seg2[0].shorts, 1..3);
        assert_eq!(seg2[1].shorts, 3..4);
        // Long segment 0 (load 0) is omitted for intersection.
        assert!(p.workloads.iter().all(|w| w.long_idx != 0));
    }

    #[test]
    fn anti_subtraction_keeps_empty_long_segments() {
        let p = pair(&[10, 20], &[], &[], SetOpKind::AntiSubtract, 2);
        assert_eq!(p.workloads.len(), 2);
        assert!(p.workloads.iter().all(|w| w.load() == 0));
    }

    #[test]
    fn intersection_drops_empty_long_segments() {
        let p = pair(&[10, 20], &[], &[], SetOpKind::Intersect, 2);
        assert!(p.workloads.is_empty());
    }

    #[test]
    fn shorts_before_all_longs_are_unpaired() {
        let p = pair(
            &[100],
            &[1, 50, 150],
            &[40, 99, 200],
            SetOpKind::Subtract,
            4,
        );
        assert_eq!(p.unpaired_shorts, 0..2);
        assert_eq!(p.load_table, vec![1]);
        assert_eq!(p.start_table, vec![2]);
    }

    #[test]
    fn empty_long_set_leaves_all_shorts_unpaired() {
        let p = pair(&[], &[1, 9], &[5, 20], SetOpKind::Subtract, 2);
        assert_eq!(p.unpaired_shorts, 0..2);
        assert!(p.workloads.is_empty());
    }

    #[test]
    fn max_load_one_gives_one_short_per_workload() {
        let long_heads = [0];
        let short_heads = [1, 5, 9, 13];
        let short_lasts = [4, 8, 12, 16];
        let p = pair(
            &long_heads,
            &short_heads,
            &short_lasts,
            SetOpKind::Intersect,
            1,
        );
        assert_eq!(p.workloads.len(), 4);
        for (i, w) in p.workloads.iter().enumerate() {
            assert_eq!(w.shorts, i..i + 1);
        }
    }

    #[test]
    fn workload_shorts_cover_exactly_the_load() {
        let long_heads = [0, 100, 200];
        let short_heads = [10, 20, 30, 40, 110];
        let short_lasts = [15, 25, 35, 45, 150];
        let p = pair(
            &long_heads,
            &short_heads,
            &short_lasts,
            SetOpKind::Intersect,
            2,
        );
        let covered: usize = p
            .workloads
            .iter()
            .filter(|w| w.long_idx == 0)
            .map(Workload::load)
            .sum();
        assert_eq!(covered, p.load_table[0]);
        assert_eq!(p.load_table[0], 4);
    }

    #[test]
    #[should_panic(expected = "max_load")]
    fn zero_max_load_rejected() {
        pair(&[1], &[1], &[1], SetOpKind::Intersect, 0);
    }

    #[test]
    fn divider_cycles_scale_with_head_counts() {
        let p = pair(&[1, 2, 3], &[1, 2], &[1, 2], SetOpKind::Intersect, 2);
        assert_eq!(p.divider_cycles, 5);
    }

    mod properties {
        use super::*;
        use crate::segment::Segments;
        use proptest::prelude::*;

        fn sorted_set(max: u32, len: usize) -> impl Strategy<Value = Vec<Elem>> {
            proptest::collection::btree_set(0..max, 1..len).prop_map(|s| s.into_iter().collect())
        }

        proptest! {
            /// Coverage: every (short, long) segment pair whose value
            /// ranges overlap is assigned to some workload — the property
            /// that makes the segmented pipeline exact.
            #[test]
            #[allow(clippy::needless_range_loop)] // i, j index several parallel collections
            fn overlapping_pairs_are_covered(
                short in sorted_set(500, 80),
                long in sorted_set(500, 160),
                sl in 2usize..20,
                ss in 1usize..8,
                max_load in 1usize..5,
            ) {
                let long_segs = Segments::new(&long, sl);
                let short_segs = Segments::new(&short, ss);
                let long_heads = long_segs.head_list();
                let short_heads = short_segs.head_list();
                let short_lasts: Vec<Elem> =
                    (0..short_segs.count()).map(|i| short_segs.last_of(i)).collect();
                let p = pair(&long_heads, &short_heads, &short_lasts, SetOpKind::Intersect, max_load);
                for i in 0..short_segs.count() {
                    for j in 0..long_segs.count() {
                        // Ranges overlap if some element could match:
                        // short seg i spans [head_i, last_i], long seg j
                        // spans [head_j, last_j].
                        let overlap = short_heads[i] <= long_segs.last_of(j)
                            && long_heads[j] <= short_lasts[i];
                        if overlap {
                            let covered = p
                                .workloads
                                .iter()
                                .any(|w| w.long_idx == j && w.shorts.contains(&i));
                            prop_assert!(covered, "short {i} x long {j} uncovered");
                        }
                    }
                }
            }

            /// No workload ever exceeds the max-load threshold.
            #[test]
            fn max_load_respected(
                short in sorted_set(500, 80),
                long in sorted_set(500, 160),
                max_load in 1usize..5,
            ) {
                let long_segs = Segments::new(&long, 16);
                let short_segs = Segments::new(&short, 4);
                let short_lasts: Vec<Elem> =
                    (0..short_segs.count()).map(|i| short_segs.last_of(i)).collect();
                let p = pair(
                    &long_segs.head_list(),
                    &short_segs.head_list(),
                    &short_lasts,
                    SetOpKind::Subtract,
                    max_load,
                );
                for w in &p.workloads {
                    prop_assert!(w.load() <= max_load);
                }
            }
        }
    }
}
