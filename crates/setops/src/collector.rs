//! The result collector: round-robin aggregation of IU bitvectors.
//!
//! Paper Section 4.3: results for the same segment arriving from multiple
//! IUs are merged with bitwise OR; when the incoming segment index changes,
//! the previous segment is complete, is translated back to list form, and is
//! concatenated onto the output set. For intersection the 1-bits survive;
//! for (anti-)subtraction the 0-bits survive (`A − B₁ − B₂ =
//! (A − B₁) ∩ (A − B₂)`, again a bitwise OR of the presence bitvectors).
//!
//! The OR has already happened by the time the collector runs — every IU
//! sets bits of the one [`SegBitvecs`] — so the model is the two things
//! the timing and the result need: how many `(segment, bitvector)` results
//! arrive ([`receive_count`]) and the translation back to list form
//! ([`collect_into`]).

// lint: hot-path(alloc)

use crate::bitvector::{SegBitvecs, SegmentSide};
use crate::pairing::{Pairing, Workload};
use crate::{Elem, SetOpKind};

/// Number of `(segment, bitvector)` results the collector receives for one
/// operation; its serial collection time is proportional to this. Each
/// workload reports its long segment (∩, anti−) or each of its short
/// segments (−); for subtraction the unpaired short segments are injected
/// with all-zero bitvectors so they pass through unchanged.
pub fn receive_count(kind: SetOpKind, pairing: &Pairing) -> u64 {
    let results = match SegmentSide::annotated_by(kind) {
        SegmentSide::Long => pairing.workloads.len(),
        SegmentSide::Short => {
            pairing.workloads.iter().map(Workload::load).sum::<usize>()
                + pairing.unpaired_shorts.len()
        }
    };
    results as u64
}

/// Translates the aggregated bitvectors over `elems` back to list form,
/// appending the survivors to `out` in order: the 1-bits for intersection,
/// the 0-bits for (anti-)subtraction.
///
/// # Panics
///
/// Panics if `bits` does not have one bit per element.
pub fn collect_into(kind: SetOpKind, elems: &[Elem], bits: &SegBitvecs, out: &mut Vec<Elem>) {
    assert_eq!(elems.len(), bits.len(), "bitvector/set length mismatch");
    let keep_ones = kind == SetOpKind::Intersect;
    for (chunk, &word) in elems.chunks(64).zip(bits.words()) {
        let mut keep = if keep_ones { word } else { !word };
        if chunk.len() < 64 {
            // The complement must not resurrect bits past the last element.
            keep &= (1 << chunk.len()) - 1;
        }
        while keep != 0 {
            out.push(chunk[keep.trailing_zeros() as usize]);
            keep &= keep - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::pair;

    fn bv(len: usize, ones: &[usize]) -> SegBitvecs {
        let mut b = SegBitvecs::default();
        b.reset(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    fn collect(kind: SetOpKind, elems: &[Elem], bits: &SegBitvecs) -> Vec<Elem> {
        let mut out = Vec::new();
        collect_into(kind, elems, bits, &mut out);
        out
    }

    /// The paper's Figure 8 end-to-end subtraction: short segment
    /// [1, 7, 11, 18], bitvectors 1100 and 0001 from two IUs → OR = 1101 →
    /// surviving element 11.
    #[test]
    fn figure_8_aggregation() {
        let bits = bv(4, &[0, 1, 3]);
        assert_eq!(
            collect(SetOpKind::Subtract, &[1, 7, 11, 18], &bits),
            vec![11]
        );
    }

    #[test]
    fn intersection_keeps_ones() {
        let bits = bv(4, &[1, 3]);
        assert_eq!(
            collect(SetOpKind::Intersect, &[2, 4, 6, 8], &bits),
            vec![4, 8]
        );
    }

    #[test]
    fn anti_subtraction_keeps_zeros() {
        let bits = bv(3, &[1]);
        assert_eq!(
            collect(SetOpKind::AntiSubtract, &[2, 4, 6], &bits),
            vec![2, 6]
        );
    }

    #[test]
    fn survivors_cross_word_boundaries_in_order() {
        let elems: Vec<Elem> = (0..130).collect();
        let bits = bv(130, &[0, 63, 64, 129]);
        assert_eq!(
            collect(SetOpKind::Intersect, &elems, &bits),
            vec![0, 63, 64, 129]
        );
        let kept = collect(SetOpKind::Subtract, &elems, &bits);
        assert_eq!(kept.len(), 126);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert!(!kept.contains(&129) && kept.contains(&128));
    }

    #[test]
    fn empty_set_collects_empty() {
        assert!(collect(SetOpKind::AntiSubtract, &[], &bv(0, &[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_rejected() {
        collect(SetOpKind::Intersect, &[1, 2], &bv(1, &[]));
    }

    /// One result per workload for the long-side operations; one per
    /// (workload, short segment) plus the unpaired prefix for subtraction.
    #[test]
    fn receive_count_tracks_emissions() {
        // Short segments [1..=40], [50..=99] lie before the only long
        // segment; [150..=200] pairs with it.
        let heads = (&[100], &[1, 50, 150], &[40, 99, 200]);
        let p = pair(heads.0, heads.1, heads.2, SetOpKind::Subtract, 4);
        assert_eq!(receive_count(SetOpKind::Subtract, &p), 3);
        let p = pair(heads.0, heads.1, heads.2, SetOpKind::Intersect, 4);
        assert_eq!(receive_count(SetOpKind::Intersect, &p), 1);
    }
}
