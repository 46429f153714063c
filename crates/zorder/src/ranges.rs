//! Rectangle → Z-interval decomposition (the paper's `ZVconvert()`).
//!
//! A query rectangle, quantized to grid cells, covers a set of cells whose
//! Z-values form several runs of consecutive integers. The decomposition
//! recurses over the quadtree implied by the curve: a quad block fully
//! inside the rectangle contributes one whole interval, a disjoint block is
//! pruned, and a partially overlapping block is split into its four
//! children. Adjacent intervals are merged, so the result is the minimal
//! sorted set of maximal intervals exactly covering the rectangle.

use crate::morton::{decode, encode};

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

/// The budgeted `ZVconvert`: exactly `coarsen(decompose(x0, x1, y0, y1,
/// grid_bits), max_ranges)`, without materialising the raw decomposition.
///
/// The quadtree is walked level by level, keeping a Z-ordered list of
/// blocks. A block inside the rectangle is its exact run; a partially
/// covered block stands in as the one range `[encode(clipped lower-left),
/// encode(clipped upper-right)]` — the curve is monotone in each
/// coordinate, so those two corners are the block's first and last covered
/// cells, and the range hides only the gaps *between* them. A gap between
/// two list entries is therefore a true gap of the full decomposition,
/// while a gap hidden inside an unsplit block of side `2^level` is at most
/// `4^level − 2` wide (both ends lie in the block, and a block holding its
/// own first and last cell is fully covered). Splitting stops at the first
/// level where `max_ranges − 1` known gaps are each strictly wider than
/// that: every hidden gap is then one [`coarsen`] would have closed, the
/// gaps it keeps are all on the list in their original order, and running
/// it over the short list gives the identical output, ties included.
///
/// ```
/// use peb_zorder::{coarsen, cover, decompose};
///
/// let raw = decompose(101, 420, 203, 522, 10);
/// assert_eq!(raw.len(), 957);
/// assert_eq!(cover(101, 420, 203, 522, 10, 20), coarsen(raw, 20));
/// ```
///
/// # Panics
/// Panics if the rectangle is reversed or exceeds the grid, or if
/// `max_ranges` is zero.
pub fn cover(x0: u32, x1: u32, y0: u32, y1: u32, grid_bits: u32, max_ranges: usize) -> Vec<ZRange> {
    assert!(x0 <= x1 && y0 <= y1, "reversed grid rect");
    let cells = 1u64 << grid_bits;
    assert!((x1 as u64) < cells && (y1 as u64) < cells, "rect exceeds grid");
    assert!(max_ranges >= 1);

    // Classify the block at `(bx, by)` of side `2^level` against the
    // rectangle: `None` if disjoint, else its range and whether the range
    // is partial (hides gaps a split would reveal).
    let classify = |bx: u32, by: u32, level: u32| -> Option<(ZRange, bool)> {
        #[cfg(test)]
        BLOCKS_CLASSIFIED.with(|n| n.set(n.get() + 1));
        let last = ((1u64 << level) - 1) as u32;
        let (bx1, by1) = (bx + last, by + last);
        if bx > x1 || bx1 < x0 || by > y1 || by1 < y0 {
            return None;
        }
        let lo = encode(bx.max(x0), by.max(y0));
        let hi = encode(bx1.min(x1), by1.min(y1));
        Some((ZRange::new(lo, hi), hi - lo != (1u64 << (2 * level)) - 1))
    };

    let mut level = grid_bits;
    let mut blocks: Vec<(ZRange, bool)> = classify(0, 0, level).into_iter().collect();
    let mut split: Vec<(ZRange, bool)> = Vec::new();
    while level > 0 {
        let hidden = (1u64 << (2 * level)) - 2;
        let wide = blocks.windows(2).filter(|w| w[1].0.lo - w[0].0.hi > hidden).count();
        if wide + 1 >= max_ranges || blocks.iter().all(|(_, partial)| !partial) {
            break;
        }
        level -= 1;
        let (h, mask) = (1u32 << level, !((2u32 << level) - 1));
        for &(range, partial) in &blocks {
            if !partial {
                split.push((range, false));
                continue;
            }
            // The block's origin: any covered cell with the in-block bits
            // cleared. Children in Z-order keep the list sorted.
            let (cx, cy) = decode(range.lo);
            let (bx, by) = (cx & mask, cy & mask);
            for (dx, dy) in [(0, 0), (h, 0), (0, h), (h, h)] {
                split.extend(classify(bx + dx, by + dy, level));
            }
        }
        std::mem::swap(&mut blocks, &mut split);
        split.clear();
    }
    let mut ranges: Vec<ZRange> = blocks.into_iter().map(|(range, _)| range).collect();
    merge_adjacent(&mut ranges);
    coarsen(ranges, max_ranges)
}

#[cfg(test)]
thread_local! {
    /// Quadtree blocks [`cover`] has classified on this thread — the pin
    /// that the budget keeps pruning.
    static BLOCKS_CLASSIFIED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

    /// `cover` against its oracle, plus how many blocks it classified.
    fn check_cover(x0: u32, x1: u32, y0: u32, y1: u32, bits: u32, max: usize) -> usize {
        BLOCKS_CLASSIFIED.with(|n| n.set(0));
        let got = cover(x0, x1, y0, y1, bits, max);
        let want = coarsen(decompose(x0, x1, y0, y1, bits), max);
        assert_eq!(got, want, "rect {x0}..{x1} x {y0}..{y1}, bits {bits}, max {max}");
        BLOCKS_CLASSIFIED.with(|n| n.get())
    }

    #[test]
    fn cover_equals_the_reference_on_every_small_rect() {
        // Every rectangle of the 2x2, 4x4 and 8x8 grids under every cap
        // that can bite: gaps come from a tiny alphabet here, so ties —
        // among kept gaps and at the stopping threshold — are the rule.
        for bits in 1..=3u32 {
            let side = 1u32 << bits;
            for x0 in 0..side {
                for x1 in x0..side {
                    for y0 in 0..side {
                        for y1 in y0..side {
                            let raw = decompose(x0, x1, y0, y1, bits).len();
                            for max in 1..=raw + 1 {
                                check_cover(x0, x1, y0, y1, bits, max);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cover_handles_the_edge_shapes() {
        let m = (1u32 << 10) - 1;
        for max in [1usize, 2, 3, 20, 50, 70] {
            assert_eq!(check_cover(0, m, 0, m, 10, max), 1, "the full grid is its root block");
            check_cover(517, 517, 301, 301, 10, max); // a single cell
            check_cover(333, 333, 100, 900, 10, max); // a one-cell-wide column
            check_cover(100, 900, 333, 333, 10, max); // a one-cell-high row
            check_cover(0, 319, 401, 720, 10, max); // touching the left edge
            check_cover(m - 319, m, 401, 720, 10, max); // right
            check_cover(401, 720, 0, 319, 10, max); // bottom
            check_cover(401, 720, m - 319, m, 10, max); // top
            check_cover(0, 319, m - 319, m, 10, max); // a corner
            check_cover(0, (1 << 16) - 1, 7, (1 << 16) - 9, 16, max); // the widest grid
        }
    }

    #[test]
    fn the_budget_keeps_pruning() {
        // The benchmark's shape: a 320 x 320-cell window, odd-aligned, on
        // the 1024 grid. `decompose` classifies 5 125 blocks for it and
        // returns 957 ranges; the budgeted walk stops levels above the
        // cells, the sooner the smaller the budget.
        assert_eq!(decompose(101, 420, 203, 522, 10).len(), 957);
        let blocks = check_cover(101, 420, 203, 522, 10, 20);
        assert!(blocks <= 200, "cover classified {blocks} blocks for 20 ranges");
        let blocks = check_cover(101, 420, 203, 522, 10, 50);
        assert!(blocks <= 700, "cover classified {blocks} blocks for 50 ranges");
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

    /// A well-formed rectangle of the `2^bits` grid from two arbitrary
    /// coordinate pairs.
    fn grid_rect(bits: u32, xs: (u16, u16), ys: (u16, u16)) -> (u32, u32, u32, u32) {
        let m = (1u32 << bits) - 1;
        let (x0, x1) = (xs.0 as u32 & m, xs.1 as u32 & m);
        let (y0, y1) = (ys.0 as u32 & m, ys.1 as u32 & m);
        (x0.min(x1), x0.max(x1), y0.min(y1), y0.max(y1))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn exact_cover_random_rects(
            bits in 2u32..7,
            xs in any::<(u16, u16)>(),
            ys in any::<(u16, u16)>(),
        ) {
            let (x0, x1, y0, y1) = grid_rect(bits, xs, ys);

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

        /// The budgeted cover is the reference pipeline, output for
        /// output, on every grid `SpaceConfig` allows.
        #[test]
        fn cover_equals_coarsen_of_decompose(
            bits in 1u32..17,
            xs in any::<(u16, u16)>(),
            ys in any::<(u16, u16)>(),
            max in 1usize..71,
        ) {
            let (x0, x1, y0, y1) = grid_rect(bits, xs, ys);
            prop_assert_eq!(
                cover(x0, x1, y0, y1, bits, max),
                coarsen(decompose(x0, x1, y0, y1, bits), max)
            );
        }

        /// Small grids and small caps: few distinct gap widths, so the
        /// cap usually cuts through a run of equal gaps.
        #[test]
        fn cover_breaks_ties_like_the_reference(
            bits in 2u32..7,
            xs in any::<(u16, u16)>(),
            ys in any::<(u16, u16)>(),
            max in 1usize..13,
        ) {
            let (x0, x1, y0, y1) = grid_rect(bits, xs, ys);
            prop_assert_eq!(
                cover(x0, x1, y0, y1, bits, max),
                coarsen(decompose(x0, x1, y0, y1, bits), max)
            );
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
