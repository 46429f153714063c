//! Rectangle → Z-interval decomposition (the paper's `ZVconvert()`).
//!
//! A query rectangle, quantized to grid cells, covers a set of cells whose
//! Z-values form several runs of consecutive integers. The decomposition
//! recurses over the quadtree implied by the curve: a quad block fully
//! inside the rectangle contributes one whole interval, a disjoint block is
//! pruned, and a partially overlapping block is split into its four
//! children. Adjacent intervals are merged, so the result is the minimal
//! sorted set of maximal intervals exactly covering the rectangle.

use crate::morton::encode;

/// An inclusive interval `[lo, hi]` of consecutive Z-curve values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZRange {
    /// First Z-value covered.
    pub lo: u64,
    /// Last Z-value covered (inclusive).
    pub hi: u64,
}

impl ZRange {
    /// An inclusive range; `lo` must not exceed `hi` (debug-asserted).
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo <= hi);
        ZRange { lo, hi }
    }

    /// Whether `z` falls inside the range.
    pub fn contains(&self, z: u64) -> bool {
        z >= self.lo && z <= self.hi
    }

    /// Number of cells covered, saturating at `u64::MAX`.
    ///
    /// The full-domain range `[0, u64::MAX]` covers `2^64` cells — one
    /// more than `u64` can hold — so its length saturates instead of
    /// panicking in debug builds (or silently wrapping to `0` in
    /// release, which once made the widest possible range look empty):
    ///
    /// ```
    /// use peb_zorder::ZRange;
    ///
    /// assert_eq!(ZRange::new(10, 20).len(), 11);
    /// let full = ZRange::new(0, u64::MAX);
    /// assert_eq!(full.len(), u64::MAX, "saturated, not wrapped to 0");
    /// assert!(!full.is_empty());
    /// ```
    pub fn len(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Always `false`: an inclusive interval covers at least one cell.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Decompose the inclusive grid rectangle `[x0,x1] × [y0,y1]` on a
/// `2^grid_bits`-wide grid into sorted, maximal, non-overlapping Z-value
/// intervals.
///
/// # Panics
/// Panics if the rectangle is reversed or exceeds the grid.
pub fn decompose(x0: u32, x1: u32, y0: u32, y1: u32, grid_bits: u32) -> Vec<ZRange> {
    assert!(x0 <= x1 && y0 <= y1, "reversed grid rect");
    let cells = 1u64 << grid_bits;
    assert!((x1 as u64) < cells && (y1 as u64) < cells, "rect exceeds grid");

    let mut out = Vec::new();
    recurse(0, 0, grid_bits, x0, x1, y0, y1, &mut out);
    merge_adjacent(&mut out);
    out
}

/// Visit the quad block whose lower-left corner is `(bx, by)` and whose side
/// is `2^level` cells.
#[allow(clippy::too_many_arguments)]
fn recurse(
    bx: u32,
    by: u32,
    level: u32,
    x0: u32,
    x1: u32,
    y0: u32,
    y1: u32,
    out: &mut Vec<ZRange>,
) {
    let side = 1u32 << level;
    let (bx1, by1) = (bx + side - 1, by + side - 1);

    // Disjoint from the query rect: prune.
    if bx > x1 || bx1 < x0 || by > y1 || by1 < y0 {
        return;
    }
    // Fully contained: the block is one run of 4^level consecutive Z-values.
    if bx >= x0 && bx1 <= x1 && by >= y0 && by1 <= y1 {
        let lo = encode(bx, by);
        out.push(ZRange::new(lo, lo + (1u64 << (2 * level)) - 1));
        return;
    }
    // Partial overlap: split into the four children in Z-order so that the
    // output is generated already sorted.
    let h = side / 2;
    recurse(bx, by, level - 1, x0, x1, y0, y1, out);
    recurse(bx + h, by, level - 1, x0, x1, y0, y1, out);
    recurse(bx, by + h, level - 1, x0, x1, y0, y1, out);
    recurse(bx + h, by + h, level - 1, x0, x1, y0, y1, out);
}

/// Merge runs that touch (`prev.hi + 1 == next.lo`); input must be sorted.
fn merge_adjacent(ranges: &mut Vec<ZRange>) {
    let mut w = 0usize;
    for i in 0..ranges.len() {
        if w > 0 && ranges[w - 1].hi + 1 == ranges[i].lo {
            ranges[w - 1].hi = ranges[i].hi;
        } else {
            ranges[w] = ranges[i];
            w += 1;
        }
    }
    ranges.truncate(w);
}

/// Coarsen a decomposition down to at most `max_ranges` intervals by gluing
/// the pairs with the smallest gaps together. The result still *covers* the
/// rectangle but may include extra cells (a standard over-approximation
/// trade-off: fewer B+-tree probes, more false positives to refine away).
///
/// Gluing a pair changes no other gap, so "repeatedly glue the smallest gap
/// (leftmost on ties)" closes exactly the `len - max_ranges` smallest gaps
/// in `(gap, position)` order: select those once, then glue in one pass.
pub fn coarsen(mut ranges: Vec<ZRange>, max_ranges: usize) -> Vec<ZRange> {
    assert!(max_ranges >= 1);
    if ranges.len() <= max_ranges {
        return ranges;
    }
    let close = ranges.len() - max_ranges;
    // gaps[i] separates ranges[i] from ranges[i + 1].
    let mut gaps: Vec<(u64, usize)> =
        ranges.windows(2).enumerate().map(|(i, w)| (w[1].lo - w[0].hi, i)).collect();
    gaps.select_nth_unstable(close - 1);
    let mut glued = vec![false; ranges.len()];
    for &(_, i) in &gaps[..close] {
        glued[i + 1] = true; // ranges[i + 1] is absorbed into its left neighbour
    }
    let mut w = 0usize;
    for i in 0..ranges.len() {
        if glued[i] {
            ranges[w - 1].hi = ranges[i].hi;
        } else {
            ranges[w] = ranges[i];
            w += 1;
        }
    }
    ranges.truncate(w);
    ranges
}

/// The original quadratic formulation of [`coarsen`], kept as the test
/// reference: rescan every gap, glue the smallest, repeat.
#[cfg(test)]
fn coarsen_reference(mut ranges: Vec<ZRange>, max_ranges: usize) -> Vec<ZRange> {
    assert!(max_ranges >= 1);
    while ranges.len() > max_ranges {
        let mut best = 0;
        let mut best_gap = u64::MAX;
        for i in 0..ranges.len() - 1 {
            let gap = ranges[i + 1].lo - ranges[i].hi;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        ranges[best].hi = ranges[best + 1].hi;
        ranges.remove(best + 1);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::decode;

    /// Oracle: the exact cell set of a grid rect.
    fn cells_of_rect(x0: u32, x1: u32, y0: u32, y1: u32) -> std::collections::BTreeSet<u64> {
        let mut s = std::collections::BTreeSet::new();
        for gx in x0..=x1 {
            for gy in y0..=y1 {
                s.insert(encode(gx, gy));
            }
        }
        s
    }

    fn cells_of_ranges(rs: &[ZRange]) -> std::collections::BTreeSet<u64> {
        rs.iter().flat_map(|r| r.lo..=r.hi).collect()
    }

    #[test]
    fn full_grid_is_one_range() {
        let rs = decompose(0, 7, 0, 7, 3);
        assert_eq!(rs, vec![ZRange::new(0, 63)]);
    }

    #[test]
    fn single_cell() {
        let rs = decompose(5, 5, 3, 3, 3);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].lo, rs[0].hi);
        assert_eq!(decode(rs[0].lo), (5, 3));
    }

    #[test]
    fn paper_example_8x8_space() {
        // Sec 5.3's worked example: R = ([2,2],[4,6]) on an 8x8 space is
        // converted into a small number of one-dimensional intervals
        // ("[13;16] and [25;28]" under the paper's coordinate/interleaving
        // convention). Our convention yields a different but equally exact
        // run structure; the invariant that matters for the query algorithms
        // is exact coverage with few maximal runs.
        let rs = decompose(2, 2, 4, 6, 3);
        assert!(rs.len() <= 3, "a 1x3 column decomposes into at most 3 runs: {rs:?}");
        assert_eq!(cells_of_ranges(&rs), cells_of_rect(2, 2, 4, 6));
    }

    #[test]
    fn decomposition_is_exact_on_various_rects() {
        for &(x0, x1, y0, y1) in
            &[(0, 0, 0, 0), (1, 6, 2, 5), (0, 7, 3, 3), (2, 3, 2, 3), (1, 2, 5, 7), (0, 3, 0, 1)]
        {
            let rs = decompose(x0, x1, y0, y1, 3);
            assert_eq!(
                cells_of_ranges(&rs),
                cells_of_rect(x0, x1, y0, y1),
                "rect {x0}..{x1} x {y0}..{y1}"
            );
            // Maximality: no two output ranges touch or overlap.
            for w in rs.windows(2) {
                assert!(w[0].hi + 1 < w[1].lo, "ranges not maximal: {rs:?}");
            }
        }
    }

    #[test]
    fn aligned_block_is_single_range() {
        // A 4x4 block aligned at (4,4) is exactly one Z run.
        let rs = decompose(4, 7, 4, 7, 3);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].len(), 16);
    }

    #[test]
    fn coarsen_respects_cap_and_coverage() {
        let rs = decompose(1, 6, 1, 6, 3);
        let exact = cells_of_ranges(&rs);
        for cap in 1..=rs.len() {
            let coarse = coarsen(rs.clone(), cap);
            assert!(coarse.len() <= cap);
            let cov = cells_of_ranges(&coarse);
            assert!(cov.is_superset(&exact), "coarsened ranges must still cover");
        }
    }

    #[test]
    fn zrange_basics() {
        let r = ZRange::new(10, 20);
        assert!(r.contains(10) && r.contains(20) && !r.contains(21));
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
    }

    #[test]
    fn zrange_len_saturates_on_the_full_domain() {
        // Regression: `hi - lo + 1` overflowed for [0, u64::MAX] (panic in
        // debug, wrap-to-0 in release).
        assert_eq!(ZRange::new(0, u64::MAX).len(), u64::MAX);
        assert_eq!(ZRange::new(1, u64::MAX).len(), u64::MAX);
        assert_eq!(ZRange::new(u64::MAX, u64::MAX).len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn exact_cover_random_rects(
            bits in 2u32..7,
            xs in any::<(u16, u16)>(),
            ys in any::<(u16, u16)>(),
        ) {
            let m = (1u32 << bits) - 1;
            let (mut x0, mut x1) = (xs.0 as u32 & m, xs.1 as u32 & m);
            let (mut y0, mut y1) = (ys.0 as u32 & m, ys.1 as u32 & m);
            if x0 > x1 { std::mem::swap(&mut x0, &mut x1); }
            if y0 > y1 { std::mem::swap(&mut y0, &mut y1); }

            let rs = decompose(x0, x1, y0, y1, bits);
            // Exact coverage.
            let expected: u64 = (x1 - x0 + 1) as u64 * (y1 - y0 + 1) as u64;
            let total: u64 = rs.iter().map(|r| r.len()).sum();
            prop_assert_eq!(total, expected);
            // Sorted, disjoint, maximal.
            for w in rs.windows(2) {
                prop_assert!(w[0].hi + 1 < w[1].lo);
            }
            // Every covered z decodes inside the rect.
            for r in &rs {
                for z in [r.lo, r.hi, (r.lo + r.hi) / 2] {
                    let (gx, gy) = crate::morton::decode(z);
                    prop_assert!(gx >= x0 && gx <= x1 && gy >= y0 && gy <= y1);
                }
            }
        }

        /// The selection-based `coarsen` is the quadratic reference, output
        /// for output: random sorted disjoint range lists (small gap
        /// alphabet, so ties are common) under every kind of cap.
        #[test]
        fn coarsen_equals_the_quadratic_reference(
            steps in proptest::collection::vec((1u64..6, 0u64..4), 0..60),
            cap in 1usize..70,
        ) {
            let mut ranges = Vec::new();
            let mut next = 0u64;
            for (gap, len) in steps {
                let lo = next + gap;
                ranges.push(ZRange::new(lo, lo + len));
                next = lo + len + 1;
            }
            prop_assert_eq!(coarsen(ranges.clone(), cap), coarsen_reference(ranges, cap));
        }
    }
}
