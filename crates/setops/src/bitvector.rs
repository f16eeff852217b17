//! The intersect-unit (IU) compute model.
//!
//! Paper Section 4.3: a single hardware unit type computes *every* set
//! operation as a segment intersection, exploiting `A − B = A − (A ∩ B)`.
//! The unit streams the long segment and its paired short segments through a
//! comparator and emits the result as a bitvector:
//!
//! - for intersection and anti-subtraction, one bit per element of the
//!   *long* segment (1 = present in the intersection);
//! - for subtraction, one bit per element of each *short* segment
//!   (1 = present in the intersection).
//!
//! The model keeps the bitvectors of all segments of the annotated set in
//! one reusable word array ([`SegBitvecs`]): an IU's emission is the run of
//! bits it sets, and the collector's bitwise OR of several IUs' results for
//! one segment is those IUs setting bits of the same words.

// lint: hot-path(alloc)

use crate::merge::merge_cycles;
use crate::Elem;
use crate::SetOpKind;

/// The result bitvectors of every segment of one set, back to back: bit
/// `p` annotates the set's `p`-th element, so segment `i` of length `s`
/// owns bits `[i·s, (i+1)·s)`. The paper's segments are 16 and 4 elements;
/// iso-area sweeps stretch segments to several hundred, and nothing here
/// depends on the segment length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegBitvecs {
    words: Vec<u64>,
    len: usize,
}

impl SegBitvecs {
    /// Resets to `len` zero bits, keeping the word storage.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Sets bit `i` (OR-ing into whatever other IUs already reported).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Length in bits (= elements of the annotated set).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words, 64 elements each (unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Identifies which side's segments the bitvectors annotate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentSide {
    /// Segments of the long set (neighbor list).
    Long,
    /// Segments of the short set (candidate vertex set).
    Short,
}

impl SegmentSide {
    /// The side `kind`'s results annotate: long for ∩ and anti−, short
    /// for −.
    pub fn annotated_by(kind: SetOpKind) -> Self {
        match kind {
            SetOpKind::Intersect | SetOpKind::AntiSubtract => SegmentSide::Long,
            SetOpKind::Subtract => SegmentSide::Short,
        }
    }
}

/// Executes one IU workload: one long segment against a run of consecutive
/// short segments, given concatenated as `shorts` (consecutive and in
/// order, so the concatenation is sorted). `long_base` and `short_base`
/// are the positions of `long_seg[0]` and `shorts[0]` within their sets.
///
/// Whatever the operation, the hardware computes the intersection; `side`
/// only selects whose bits mark it. Returns the busy cycles: one element
/// consumed per cycle over the long segment and all paired short segments
/// (the paper's `s_l + Σ s_s ≈ 28` estimate for a long segment with two or
/// three shorts).
pub fn iu_execute(
    side: SegmentSide,
    long_seg: &[Elem],
    long_base: usize,
    shorts: &[Elem],
    short_base: usize,
    bits: &mut SegBitvecs,
) -> u64 {
    let (mut i, mut j) = (0, 0);
    while let (Some(l), Some(s)) = (long_seg.get(i), shorts.get(j)) {
        match l.cmp(s) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                bits.set(match side {
                    SegmentSide::Long => long_base + i,
                    SegmentSide::Short => short_base + j,
                });
                i += 1;
                j += 1;
            }
        }
    }
    merge_cycles(long_seg.len(), shorts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(len: usize) -> SegBitvecs {
        let mut b = SegBitvecs::default();
        b.reset(len);
        b
    }

    #[test]
    fn bitvec_set_get_count() {
        let mut bv = bits(4);
        assert_eq!(bv.count_ones(), 0);
        bv.set(0);
        bv.set(3);
        assert!(bv.get(0) && !bv.get(1) && !bv.get(2) && bv.get(3));
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn reset_clears_and_resizes() {
        let mut bv = bits(70);
        bv.set(69);
        bv.reset(3);
        assert_eq!((bv.len(), bv.count_ones(), bv.words().len()), (3, 0, 1));
        assert!(!bv.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitvec_set_bounds_checked() {
        bits(2).set(2);
    }

    /// The paper's Figure 8 subtraction example: long segment
    /// [1, 3, 4, 5, 7, 8, 9, 12] against short segment [1, 7, 11, 18]
    /// produces bitvector 1 1 0 0 (1 and 7 present, 11 and 18 absent); the
    /// second long segment [13, 15, 18, 22] marks only 18 → 0 0 0 1 over
    /// the same short segment. Both IUs set bits of one word, which is the
    /// collector's OR: 1100 | 0001 = 1101, and the surviving (0-bit)
    /// element is 11 — the paper's final answer.
    #[test]
    fn figure_8_subtraction_bitvectors() {
        let short = [1, 7, 11, 18];
        let mut bv = bits(4);
        iu_execute(
            SegmentSide::Short,
            &[1, 3, 4, 5, 7, 8, 9, 12],
            0,
            &short,
            0,
            &mut bv,
        );
        assert!(bv.get(0) && bv.get(1) && !bv.get(2) && !bv.get(3));
        iu_execute(SegmentSide::Short, &[13, 15, 18, 22], 8, &short, 0, &mut bv);
        assert!(bv.get(0) && bv.get(1) && !bv.get(2) && bv.get(3));
    }

    #[test]
    fn intersect_marks_long_side_at_its_base() {
        let mut bv = bits(8);
        iu_execute(
            SegmentSide::Long,
            &[2, 4, 6, 8],
            4,
            &[4, 8, 10],
            12,
            &mut bv,
        );
        assert_eq!(bv.words(), &[0b1010_0000]);
    }

    #[test]
    fn anti_subtract_with_no_shorts_marks_nothing() {
        let mut bv = bits(3);
        let cycles = iu_execute(SegmentSide::Long, &[1, 2, 3], 0, &[], 0, &mut bv);
        assert_eq!((bv.count_ones(), cycles), (0, 3));
    }

    #[test]
    fn cycles_are_total_streamed_elements() {
        let mut bv = bits(3);
        let cycles = iu_execute(SegmentSide::Short, &[1, 2, 3, 4], 0, &[1, 2, 3], 0, &mut bv);
        assert_eq!(cycles, 7);
    }

    #[test]
    fn sides_follow_the_operation() {
        assert_eq!(
            SegmentSide::annotated_by(SetOpKind::Intersect),
            SegmentSide::Long
        );
        assert_eq!(
            SegmentSide::annotated_by(SetOpKind::AntiSubtract),
            SegmentSide::Long
        );
        assert_eq!(
            SegmentSide::annotated_by(SetOpKind::Subtract),
            SegmentSide::Short
        );
    }
}
