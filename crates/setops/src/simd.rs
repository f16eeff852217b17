//! Fourth kernel tier: explicit SIMD kernels for the three set operations
//! on sorted `u32` lists, plus a hardware-popcount word sweep for the
//! resident-bitmap count kernel.
//!
//! The list kernels use the shuffle-based block-compare scheme of
//! EmptyHeaded-style engines: load four elements of each operand, compare
//! all sixteen pairs with four cyclic-rotation `cmpeq` rounds, and reduce
//! the per-lane hit mask with `movemask`. The block whose maximum is
//! smaller advances (both advance on a tie), so every equal pair is
//! compared exactly once; a scalar merge finishes the sub-block tails.
//! Outputs and counts are bit-identical to [`crate::merge`] — the
//! property tests at the bottom of this module and the cross-tier suites
//! in `tests/properties.rs` pin that, so tier choice stays a pure
//! performance decision (DESIGN.md §14).
//!
//! **Guarding.** Intrinsics are triple-gated: the `simd` cargo feature
//! (off → this module is pure delegation to the scalar merge kernels),
//! the target architecture (`core::arch::x86_64`; other architectures,
//! including aarch64, currently take the mandatory scalar fallback), and
//! a cached runtime probe (`is_x86_feature_detected!`). Every public
//! entry point is safe and total on every target — [`available`] reports
//! which path actually runs.
// lint: hot-path(alloc)
// lint: hot-path(index)

// The only unsafe code in the workspace lives behind this module's
// runtime feature probe; the crate root denies unsafe_code everywhere
// else. Safety arguments are local `// SAFETY:` comments.
#![allow(unsafe_code)]

use crate::{bound, merge, Elem, SetOpKind};

/// Lane width of the block-compare kernels (four `u32`s per 128-bit
/// vector). Sub-block tails fall back to the scalar merge.
pub const SIMD_BLOCK: usize = 4;

/// Whether the vector list kernels actually run on this build + CPU:
/// the `simd` cargo feature is enabled, the target is x86_64, and the
/// runtime probe found SSE2. `false` means every entry point in this
/// module delegates to [`crate::merge`] — same results, scalar speed.
pub fn available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        detect().0
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Whether the word-AND sweep uses the hardware `popcnt` instruction
/// (feature + arch + runtime probe, like [`available`]). When `false`,
/// [`and_popcount`] uses the portable software popcount — still correct,
/// still branch-free.
pub fn popcount_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        detect().1
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect() -> (bool, bool) {
    use std::sync::OnceLock;
    static PROBE: OnceLock<(bool, bool)> = OnceLock::new();
    *PROBE.get_or_init(|| {
        (
            std::arch::is_x86_feature_detected!("sse2"),
            std::arch::is_x86_feature_detected!("popcnt"),
        )
    })
}

/// `a ∩ b` appended into `out` (cleared first), block-compared four lanes
/// at a time when [`available`]; the scalar merge otherwise. Operands
/// must be strictly increasing duplicate-free sets, like every kernel in
/// this crate.
pub fn intersect_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if detect().0 {
        // SAFETY: SSE2 presence was verified by the runtime probe above.
        unsafe { x86::intersect_into_sse2(a, b, out) };
        return;
    }
    merge::intersect_into(a, b, out);
}

/// `a − b` appended into `out` (cleared first); vector path when
/// [`available`], scalar merge otherwise.
pub fn subtract_into(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if detect().0 {
        // SAFETY: SSE2 presence was verified by the runtime probe above.
        unsafe { x86::subtract_into_sse2(a, b, out) };
        return;
    }
    merge::subtract_into(a, b, out);
}

/// Applies `kind` to the paper's `(short, long)` operand convention into a
/// caller-owned buffer — the SIMD-tier sibling of
/// [`crate::merge::apply_into`]. Anti-subtraction swaps the operands into
/// the same subtract kernel, exactly as the galloping tier does.
pub fn apply_into(kind: SetOpKind, short: &[Elem], long: &[Elem], out: &mut Vec<Elem>) {
    match kind {
        SetOpKind::Intersect => intersect_into(short, long, out),
        SetOpKind::Subtract => subtract_into(short, long, out),
        SetOpKind::AntiSubtract => subtract_into(long, short, out),
    }
}

/// Allocating convenience wrapper over [`apply_into`] for tests and
/// sweeps; mining loops use the `_into` form with a recycled buffer.
pub fn apply(kind: SetOpKind, short: &[Elem], long: &[Elem]) -> Vec<Elem> {
    // lint: allow-alloc(allocating convenience wrapper; hot loops call apply_into with a recycled buffer)
    let mut out = Vec::new();
    apply_into(kind, short, long, &mut out);
    out
}

/// `|a ∩ b|` with no output buffer: the block-compare loop accumulates
/// `movemask` popcounts instead of pushing elements. Scalar merge count
/// when the vector path is unavailable.
pub fn intersect_count(a: &[Elem], b: &[Elem]) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if detect().0 {
        // SAFETY: SSE2 presence was verified by the runtime probe above.
        return unsafe { x86::intersect_count_sse2(a, b) };
    }
    merge::intersect_count(a, b)
}

/// `|apply(kind, short, long)|` without materializing the result, via the
/// same count identity as [`crate::merge::count`]: every kind reduces to
/// `|short ∩ long|` plus operand-length arithmetic.
pub fn count(kind: SetOpKind, short: &[Elem], long: &[Elem]) -> u64 {
    let both = intersect_count(short, long);
    match kind {
        SetOpKind::Intersect => both,
        SetOpKind::Subtract => short.len() as u64 - both,
        SetOpKind::AntiSubtract => long.len() as u64 - both,
    }
}

/// Bound-pushed count: both operands are trimmed to elements strictly
/// greater than the optional symmetry-breaking bound *before* the block
/// loop, sharing [`crate::bound::trim`] with every other tier so the
/// `c <= bound` convention cannot drift.
pub fn count_bounded(kind: SetOpKind, short: &[Elem], long: &[Elem], bound: Option<Elem>) -> u64 {
    count(kind, bound::trim(short, bound), bound::trim(long, bound))
}

/// Zipped word-AND + popcount over two bitmap word slices — the sweep
/// behind the resident×resident intersection count
/// ([`crate::bitmap::intersect_count_resident`]). Uses the hardware
/// `popcnt` instruction when [`popcount_available`]; the portable
/// software popcount otherwise. Slices of unequal length are zipped to
/// the shorter one (bits past the shorter universe cannot intersect).
pub fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if detect().1 {
        // SAFETY: popcnt presence was verified by the runtime probe above.
        return unsafe { x86::and_popcount_popcnt(a, b) };
    }
    and_popcount_scalar(a, b)
}

/// Hints the cache hierarchy that `list` is about to be streamed, so a DFS
/// can overlap the next sibling's neighbour-list fetch with the current
/// sibling's compute (the software form of the paper's pseudo-DFS
/// overlap). Touches the first line and, for lists that span more than
/// one, the last. Purely a hint: results never depend on it, and it is a
/// no-op without the `simd` feature or off x86_64.
#[inline]
pub fn prefetch(list: &[Elem]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let (Some(first), Some(last)) = (list.first(), list.last()) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: prefetch is architecturally a hint — it never faults,
        // reads or writes memory visibly, whatever the address — and both
        // addresses come from live references into `list` anyway. It is
        // part of SSE, which every x86_64 CPU has, so no probe is needed.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(first).cast::<i8>());
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(last).cast::<i8>());
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = list;
}

fn and_popcount_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// The guarded x86_64 kernels. Everything here assumes the runtime SSE2
/// (resp. popcnt) probe already passed — the public dispatchers above are
/// the only callers.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use crate::Elem;
    use core::arch::x86_64::{
        __m128i, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_or_si128,
        _mm_shuffle_epi32,
    };

    /// 4-bit mask of `a`-lanes `a[i..i+4]` that occur anywhere in
    /// `b[j..j+4]`: four `cmpeq` rounds against cyclic rotations of the
    /// `b` block compare all sixteen pairs.
    ///
    /// # Safety
    ///
    /// Requires SSE2 and `i + 4 <= a.len() && j + 4 <= b.len()`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn block_match_mask(a: &[Elem], i: usize, b: &[Elem], j: usize) -> u32 {
        debug_assert!(i + 4 <= a.len() && j + 4 <= b.len());
        // SAFETY: the caller guarantees four readable elements at each
        // offset; `loadu` has no alignment requirement.
        let va = unsafe { _mm_loadu_si128(a.as_ptr().add(i).cast::<__m128i>()) };
        let vb = unsafe { _mm_loadu_si128(b.as_ptr().add(j).cast::<__m128i>()) };
        let m0 = _mm_cmpeq_epi32(va, vb);
        let m1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01)); // rotate 1
        let m2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10)); // rotate 2
        let m3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11)); // rotate 3
        let any = _mm_or_si128(_mm_or_si128(m0, m1), _mm_or_si128(m2, m3));
        _mm_movemask_ps(_mm_castsi128_ps(any)) as u32
    }

    /// Why the block loop is exhaustive: a block only advances when its
    /// maximum is `<=` the other block's maximum, so any element of the
    /// advancing block is `<` every element of the other operand beyond
    /// its current block — no equal pair is ever skipped. `seen`
    /// accumulates the hit mask of the *current* `a` block across rounds
    /// in which only `b` advances, so the scalar tail knows which lanes
    /// of a partially processed block were already resolved. Operands
    /// are strictly increasing duplicate-free sets, so a lane matches at
    /// most once and in-round lane order emission stays sorted.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (the dispatcher's runtime probe).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn intersect_into_sse2(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        out.clear();
        let (mut i, mut j) = (0usize, 0usize);
        let mut seen: u32 = 0;
        while i + 4 <= a.len() && j + 4 <= b.len() {
            // SAFETY: loop condition guarantees both blocks are in bounds.
            let hits = unsafe { block_match_mask(a, i, b, j) };
            let fresh = hits & !seen;
            for k in 0..4 {
                if fresh & (1 << k) != 0 {
                    out.push(a[i + k]); // lint: allow-index(i + 4 <= a.len() from the loop condition, k < 4)
                }
            }
            seen |= hits;
            let amax = a[i + 3]; // lint: allow-index(i + 4 <= a.len() from the loop condition)
            let bmax = b[j + 3]; // lint: allow-index(j + 4 <= b.len() from the loop condition)
            if bmax <= amax {
                j += 4;
            }
            if amax <= bmax {
                i += 4;
                seen = 0;
            }
        }
        // Partially processed a-block: lanes in `seen` are already
        // emitted; the rest rejoin the scalar tail below.
        if seen != 0 {
            debug_assert!(i + 4 <= a.len());
            for k in 0..4 {
                if seen & (1 << k) != 0 {
                    continue;
                }
                let x = a[i + k]; // lint: allow-index(seen != 0 implies i + 4 <= a.len(); see the debug_assert)
                                  // lint: allow-index(j < b.len() from the loop condition)
                while j < b.len() && b[j] < x {
                    j += 1;
                }
                // lint: allow-index(j < b.len() checked first in the conjunction)
                if j < b.len() && b[j] == x {
                    out.push(x);
                    j += 1;
                }
            }
            i += 4;
        }
        while i < a.len() && j < b.len() {
            // lint: allow-index(i and j are bounded by the loop condition)
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]); // lint: allow-index(i < a.len() from the loop condition)
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Count-only form of [`intersect_into_sse2`]: accumulates popcounts
    /// of the fresh hit masks instead of pushing elements.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (the dispatcher's runtime probe).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn intersect_count_sse2(a: &[Elem], b: &[Elem]) -> u64 {
        let mut n: u64 = 0;
        let (mut i, mut j) = (0usize, 0usize);
        let mut seen: u32 = 0;
        while i + 4 <= a.len() && j + 4 <= b.len() {
            // SAFETY: loop condition guarantees both blocks are in bounds.
            let hits = unsafe { block_match_mask(a, i, b, j) };
            n += u64::from((hits & !seen).count_ones());
            seen |= hits;
            let amax = a[i + 3]; // lint: allow-index(i + 4 <= a.len() from the loop condition)
            let bmax = b[j + 3]; // lint: allow-index(j + 4 <= b.len() from the loop condition)
            if bmax <= amax {
                j += 4;
            }
            if amax <= bmax {
                i += 4;
                seen = 0;
            }
        }
        if seen != 0 {
            debug_assert!(i + 4 <= a.len());
            for k in 0..4 {
                if seen & (1 << k) != 0 {
                    continue;
                }
                let x = a[i + k]; // lint: allow-index(seen != 0 implies i + 4 <= a.len(); see the debug_assert)
                                  // lint: allow-index(j < b.len() from the loop condition)
                while j < b.len() && b[j] < x {
                    j += 1;
                }
                // lint: allow-index(j < b.len() checked first in the conjunction)
                if j < b.len() && b[j] == x {
                    n += 1;
                    j += 1;
                }
            }
            i += 4;
        }
        while i < a.len() && j < b.len() {
            // lint: allow-index(i and j are bounded by the loop condition)
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// `a − b` via the same block compare: an `a` block's unmatched lanes
    /// are emitted only when the block advances (every `b` element that
    /// could still match has been compared by then — see
    /// [`intersect_into_sse2`]'s exhaustiveness argument).
    ///
    /// # Safety
    ///
    /// Requires SSE2 (the dispatcher's runtime probe).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn subtract_into_sse2(a: &[Elem], b: &[Elem], out: &mut Vec<Elem>) {
        out.clear();
        let (mut i, mut j) = (0usize, 0usize);
        let mut seen: u32 = 0;
        while i + 4 <= a.len() && j + 4 <= b.len() {
            // SAFETY: loop condition guarantees both blocks are in bounds.
            seen |= unsafe { block_match_mask(a, i, b, j) };
            let amax = a[i + 3]; // lint: allow-index(i + 4 <= a.len() from the loop condition)
            let bmax = b[j + 3]; // lint: allow-index(j + 4 <= b.len() from the loop condition)
            if amax <= bmax {
                for k in 0..4 {
                    if seen & (1 << k) == 0 {
                        out.push(a[i + k]); // lint: allow-index(i + 4 <= a.len() from the loop condition, k < 4)
                    }
                }
                i += 4;
                seen = 0;
            }
            if bmax <= amax {
                j += 4;
            }
        }
        // Partially processed a-block: matched lanes are excluded for
        // good; unmatched lanes still need the remaining b tail.
        if seen != 0 {
            debug_assert!(i + 4 <= a.len());
            for k in 0..4 {
                if seen & (1 << k) != 0 {
                    continue;
                }
                let x = a[i + k]; // lint: allow-index(seen != 0 implies i + 4 <= a.len(); see the debug_assert)
                                  // lint: allow-index(j < b.len() from the loop condition)
                while j < b.len() && b[j] < x {
                    j += 1;
                }
                // lint: allow-index(j < b.len() checked first in the conjunction)
                if j < b.len() && b[j] == x {
                    j += 1;
                } else {
                    out.push(x);
                }
            }
            i += 4;
        }
        while i < a.len() {
            // lint: allow-index(i < a.len() from the loop; j < b.len() is checked first in the disjunction)
            if j >= b.len() || a[i] < b[j] {
                out.push(a[i]); // lint: allow-index(i < a.len() from the loop condition)
                i += 1;
            // lint: allow-index(this branch is only reached when j < b.len())
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
    }

    /// Word-AND + popcount sweep with the hardware `popcnt` instruction
    /// (`count_ones` lowers to `popcnt` under this target feature).
    ///
    /// # Safety
    ///
    /// Requires popcnt (the dispatcher's runtime probe).
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn and_popcount_popcnt(a: &[u64], b: &[u64]) -> u64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_all_kinds(short: &[Elem], long: &[Elem]) {
        for kind in SetOpKind::ALL {
            let expected = merge::apply(kind, short, long);
            assert_eq!(apply(kind, short, long), expected, "{kind}");
            assert_eq!(
                count(kind, short, long),
                expected.len() as u64,
                "count {kind}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_operands() {
        assert_all_kinds(&[], &[]);
        assert_all_kinds(&[], &[1, 2, 3, 4, 5]);
        assert_all_kinds(&[1, 2, 3, 4, 5], &[]);
        assert_all_kinds(&[3], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_all_kinds(&[1, 2, 3, 4, 5, 6, 7, 8], &[9]);
    }

    #[test]
    fn aligned_tails_exactly_multiple_of_block() {
        // Both operands a multiple of the 4-lane block: no scalar tail.
        let a: Vec<Elem> = (0..32).map(|i| i * 3).collect();
        let b: Vec<Elem> = (0..16).map(|i| i * 6).collect();
        assert_all_kinds(&a, &b);
        // One element past the block boundary on each side.
        let a5: Vec<Elem> = (0..33).map(|i| i * 3).collect();
        let b5: Vec<Elem> = (0..17).map(|i| i * 6).collect();
        assert_all_kinds(&a5, &b5);
        assert_all_kinds(&a5, &b);
        assert_all_kinds(&a, &b5);
    }

    #[test]
    fn matches_straddling_block_boundaries() {
        // Equal runs that force a stationary a-block across several
        // b-block advances (exercises the `seen` accumulation) and vice
        // versa.
        let a: Vec<Elem> = vec![0, 1, 2, 3, 100, 101, 102, 103];
        let b: Vec<Elem> = (0..104).collect();
        assert_all_kinds(&a, &b);
        assert_all_kinds(&b, &a);
        let sparse: Vec<Elem> = (0..40).map(|i| i * 11).collect();
        let dense: Vec<Elem> = (0..440).collect();
        assert_all_kinds(&sparse, &dense);
        assert_all_kinds(&dense, &sparse);
    }

    #[test]
    fn identical_and_disjoint_operands() {
        let a: Vec<Elem> = (0..23).map(|i| i * 2).collect();
        let b: Vec<Elem> = (0..23).map(|i| i * 2 + 1).collect();
        assert_all_kinds(&a, &a);
        assert_all_kinds(&a, &b);
    }

    #[test]
    fn into_variants_clear_the_buffer() {
        let mut buf = vec![99, 98, 97];
        intersect_into(&[1, 2, 3, 4, 5], &[2, 4, 6, 8], &mut buf);
        assert_eq!(buf, vec![2, 4]);
        subtract_into(&[1, 2, 3, 4, 5], &[2, 4, 6, 8], &mut buf);
        assert_eq!(buf, vec![1, 3, 5]);
    }

    #[test]
    fn availability_is_consistent_with_build_gates() {
        // On x86_64 with the feature on, the probe must find SSE2 (it is
        // baseline for the architecture); elsewhere both report false.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        assert!(available());
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        {
            assert!(!available());
            assert!(!popcount_available());
        }
    }

    #[test]
    fn and_popcount_matches_scalar_and_zips_to_shorter() {
        let a = [u64::MAX, 0b1011, 0, 0xdead_beef_dead_beef];
        let b = [u64::MAX, 0b1101, u64::MAX];
        let expected = and_popcount_scalar(&a, &b);
        assert_eq!(and_popcount(&a, &b), expected);
        assert_eq!(and_popcount(&b, &a), expected);
        assert_eq!(and_popcount(&a[..3], &b), expected);
        assert_eq!(and_popcount(&[], &b), 0);
        assert_eq!(expected, 64 + 2);
    }

    fn sorted_set_strategy(max_len: usize) -> impl Strategy<Value = Vec<Elem>> {
        proptest::collection::btree_set(0u32..500, 0..max_len).prop_map(|s| s.into_iter().collect())
    }

    fn word_vec_strategy() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::btree_set(0u32..100_000, 0..64).prop_map(|s| {
            s.into_iter()
                .map(|x| u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect()
        })
    }

    proptest! {
        /// Every kernel form (plain / count / bounded × ∩ / − / anti−)
        /// is identical to the merge reference on random sorted sets.
        #[test]
        fn all_forms_match_merge_reference(
            a in sorted_set_strategy(128),
            b in sorted_set_strategy(128),
            bound in proptest::option::of(0u32..520),
        ) {
            let mut buf = Vec::new();
            for kind in SetOpKind::ALL {
                let expected = merge::apply(kind, &a, &b);
                apply_into(kind, &a, &b, &mut buf);
                prop_assert_eq!(&buf, &expected, "apply {}", kind);
                prop_assert_eq!(
                    count(kind, &a, &b),
                    expected.len() as u64,
                    "count {}", kind
                );
                prop_assert_eq!(
                    count_bounded(kind, &a, &b, bound),
                    merge::count_bounded(kind, &a, &b, bound),
                    "count_bounded {}", kind
                );
            }
        }

        /// The word sweep equals the software popcount for arbitrary
        /// word vectors (covers the popcnt-enabled path on x86_64).
        /// Words are derived from set draws via a mixing multiply so the
        /// bit patterns are dense and irregular.
        #[test]
        fn and_popcount_matches_software(
            a in word_vec_strategy(),
            b in word_vec_strategy(),
        ) {
            prop_assert_eq!(and_popcount(&a, &b), and_popcount_scalar(&a, &b));
        }

        /// Dense value ranges force many matches per block, including
        /// multi-round stationary blocks.
        #[test]
        fn dense_collisions_match_merge(
            a in proptest::collection::btree_set(0u32..64, 0..48)
                .prop_map(|s| s.into_iter().collect::<Vec<Elem>>()),
            b in proptest::collection::btree_set(0u32..64, 0..48)
                .prop_map(|s| s.into_iter().collect::<Vec<Elem>>()),
        ) {
            for kind in SetOpKind::ALL {
                prop_assert_eq!(
                    apply(kind, &a, &b),
                    merge::apply(kind, &a, &b),
                    "{}", kind
                );
            }
        }
    }
}
