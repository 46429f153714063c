//! Scan plans and scan-path counters for the fused multi-interval read
//! path ([`BTree::try_scan_plan`]).
//!
//! The Bx/PEB query algorithms decompose one query into many key
//! intervals — (partition × SV group × Z-range) — and the per-interval
//! path pays one root-to-leaf descent per interval. The fused path
//! descends once and walks the leaf sibling chain across intervals,
//! re-descending through a cached path only when the next interval lies
//! beyond the current leaf's fence key.
//!
//! A [`ScanPlan`] separates the two things an interval list used to mean:
//!
//! * **navigation runs** say which leaves get read — the sorted, coalesced
//!   intervals ([`coalesce_intervals`]); the walk reads exactly the pages
//!   a scan of the runs alone would read, never one more;
//! * **emission rows** say what a page that *was* read may answer for —
//!   sorted disjoint spans, each run inside exactly one row. Every entry
//!   of a page in hand that lies in a row goes to the visitor (ascending,
//!   exactly once), whether or not a run covers it. A PEB row is one
//!   `TID ⊕ SV` prefix: the leaf fetched for a friend's first Z-range
//!   usually holds the friend, wherever in space they are.
//!
//! The visitor steers with a [`Visit`]: `SkipRow` drops the rest of the
//! row it was just shown — its remaining runs are never navigated — so a
//! row that fits one leaf costs one page however many runs it carried.
//! Plain interval scans are plans with `rows == runs`
//! ([`ScanPlan::from_intervals`]); a plan whose rows all carry the same
//! runs keeps the two factors instead of their product
//! ([`ScanPlan::product`]). [`ScanStats`] is the deterministic
//! ledger: descents performed and branch pages served from the descent
//! cache instead of the buffer pool.
//!
//! [`BTree::try_scan_plan`]: crate::BTree::try_scan_plan

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a deadline-aware scan ended — the typed answer of
/// [`BTree::try_scan_plan`], which must distinguish "the
/// tree ran out of entries" from "the visitor had enough" from "the
/// budget ran out" (the caller's partial-result tagging depends on it).
///
/// [`BTree::try_scan_plan`]: crate::BTree::try_scan_plan
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTermination {
    /// Every in-union entry was visited.
    Complete,
    /// The visitor returned `false` — a voluntary early exit (enough
    /// candidates resolved), not an overload symptom.
    Stopped,
    /// The deadline expired at a checkpoint: a leaf-page boundary or an
    /// entry visit. Entries already emitted stand (the scan emits in key
    /// order, so the prefix is exact); everything beyond is unvisited.
    Expired,
}

impl ScanTermination {
    /// Whether the scan visited everything.
    pub fn is_complete(&self) -> bool {
        matches!(self, ScanTermination::Complete)
    }
}

/// Deterministic counters of a B+-tree's scan read path, the companion of
/// the buffer pool's [`peb_storage::IoStats`] for the fused-scan
/// experiment: `descents` tells how often the tree was entered by
/// fetching the **root page through the pool** (once per
/// [`BTree::range_scan`] call; on the fused path once per scan, when the
/// root is first read — a re-route served from the descent cache is not a
/// descent, it is the saving), and `cached_branch_pages` how many
/// branch-page consultations the fused path served from its descent cache
/// — page touches that never reached the pool and therefore never landed
/// on the I/O ledger.
///
/// [`BTree::range_scan`]: crate::BTree::range_scan
/// [`BTree::try_multi_range_scan`]: crate::BTree::try_multi_range_scan
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Root-to-leaf descents performed by the scan API.
    pub descents: u64,
    /// Branch-page consultations served from the fused path's descent
    /// cache (costing no pool traffic).
    pub cached_branch_pages: u64,
}

impl ScanStats {
    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &ScanStats) -> ScanStats {
        ScanStats {
            descents: self.descents + other.descents,
            cached_branch_pages: self.cached_branch_pages + other.cached_branch_pages,
        }
    }
}

/// The tree-resident atomic half of [`ScanStats`] (scans take `&self`).
#[derive(Default)]
pub(crate) struct ScanCounters {
    descents: AtomicU64,
    cached_pages: AtomicU64,
}

impl ScanCounters {
    pub(crate) fn bump_descent(&self) {
        self.descents.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_cached(&self) {
        self.cached_pages.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ScanStats {
        ScanStats {
            descents: self.descents.load(Ordering::Relaxed),
            cached_branch_pages: self.cached_pages.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn restore(&self, s: ScanStats) {
        self.descents.store(s.descents, Ordering::Relaxed);
        self.cached_pages.store(s.cached_branch_pages, Ordering::Relaxed);
    }
}

/// Sort an inclusive interval list and merge overlapping or adjacent
/// pairs; reversed pairs (`lo > hi`) are dropped. The result is the
/// canonical form [`BTree::try_multi_range_scan`] executes: sorted, pairwise
/// disjoint, non-adjacent intervals covering exactly the input's union —
/// so the fused scan visits every key of the union once, in ascending
/// order, no matter how redundantly the caller assembled the set.
///
/// [`BTree::try_multi_range_scan`]: crate::BTree::try_multi_range_scan
///
/// ```
/// use peb_btree::coalesce_intervals;
///
/// let runs = coalesce_intervals(&[(40, 50), (10, 20), (21, 30), (45, 60), (9, 3)]);
/// assert_eq!(runs, vec![(10, 30), (40, 60)]);
/// ```
pub fn coalesce_intervals(intervals: &[(u128, u128)]) -> Vec<(u128, u128)> {
    let mut runs = intervals.to_vec();
    merge_sorted(&mut runs, 1);
    runs
}

/// Canonicalize in place: drop reversed pairs, sort, and merge every pair
/// that overlaps or lies within `slack` of its predecessor's end (1 also
/// merges adjacent pairs, 0 only overlapping ones).
fn merge_sorted(v: &mut Vec<(u128, u128)>, slack: u128) {
    v.retain(|(lo, hi)| lo <= hi);
    v.sort_unstable(); // linear on the already-sorted lists planners build
    let mut w = 0usize;
    for i in 0..v.len() {
        let (lo, hi) = v[i];
        if w > 0 && lo <= v[w - 1].1.saturating_add(slack) {
            v[w - 1].1 = v[w - 1].1.max(hi);
        } else {
            v[w] = (lo, hi);
            w += 1;
        }
    }
    v.truncate(w);
}

/// A visitor's answer to one entry of a plan scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Keep going.
    Next,
    /// Nothing more is wanted from the emission row this entry lies in:
    /// its remaining entries are not emitted and its remaining navigation
    /// runs are dropped unread.
    SkipRow,
    /// End the scan (a voluntary early exit).
    Stop,
}

impl Visit {
    /// The plain interval scans' protocol: `true` continues, `false` stops.
    pub fn next_if(proceed: bool) -> Visit {
        if proceed {
            Visit::Next
        } else {
            Visit::Stop
        }
    }
}

/// What one fused scan reads and what it may answer — see the module
/// docs. The fields are private because the leaf walk relies on their
/// invariants: runs sorted, disjoint and non-adjacent unless split at a
/// row boundary; `rows` sorted and disjoint; every run inside one row.
///
/// The runs are either listed or kept as a **product**
/// ([`ScanPlan::product`]): one list of offsets that every row carries,
/// `rows + offsets` pairs standing for `rows × offsets` runs. The leaf
/// walk reads either form through [`ScanPlan::run`] and drops settled
/// runs through `next_run`, which steps over a whole row by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPlan {
    runs: Runs,
    rows: Vec<(u128, u128)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Runs {
    /// The runs themselves.
    Listed(Vec<(u128, u128)>),
    /// Non-empty offsets relative to a row's first key, the same for
    /// every row: run `n` is row `n / s` plus offset `n % s`.
    PerRow(Vec<(u128, u128)>),
}

impl ScanPlan {
    /// The plan of a plain multi-interval scan: the coalesced intervals
    /// are both what is read and all that is emitted.
    pub fn from_intervals(intervals: &[(u128, u128)]) -> ScanPlan {
        let runs = coalesce_intervals(intervals);
        ScanPlan { rows: runs.clone(), runs: Runs::Listed(runs) }
    }

    /// Build a plan from navigation `runs` and emission `rows` (inclusive
    /// pairs, any order, overlap allowed). Runs are coalesced, overlapping
    /// rows merged; a run crossing from one row into an adjacent one is
    /// cut at the boundary, and a run that pokes out of the rows widens
    /// them to hold it — so the result always satisfies the invariants,
    /// whatever the caller assembled.
    ///
    /// ```
    /// use peb_btree::ScanPlan;
    ///
    /// let plan = ScanPlan::new(vec![(40, 45), (10, 12), (13, 20)], vec![(0, 99)]);
    /// assert_eq!(plan.runs(), &[(10, 20), (40, 45)]);
    /// assert_eq!(plan.rows(), &[(0, 99)]);
    /// ```
    pub fn new(mut runs: Vec<(u128, u128)>, mut rows: Vec<(u128, u128)>) -> ScanPlan {
        merge_sorted(&mut runs, 1);
        merge_sorted(&mut rows, 0);
        // The planners' case — every run already inside one row — is
        // checked without copying anything.
        let mut r = 0usize;
        let fits = runs.iter().all(|&(lo, hi)| {
            while r < rows.len() && rows[r].1 < lo {
                r += 1;
            }
            r < rows.len() && rows[r].0 <= lo && hi <= rows[r].1
        });
        if !fits {
            runs = match Self::cut_at_rows(&runs, &rows) {
                Some(cut) => cut,
                None => {
                    rows.extend_from_slice(&runs);
                    merge_sorted(&mut rows, 0);
                    Self::cut_at_rows(&runs, &rows).expect("the rows now cover every run")
                }
            };
        }
        ScanPlan { runs: Runs::Listed(runs), rows }
    }

    /// The plan in which every row carries the same runs: `offsets` are
    /// relative to a row's first key, so run `n` of the plan is
    /// `rows[n / s].0 + offsets[n % s]` (`s = offsets.len()`). Run for run
    /// it is `ScanPlan::new` of the multiplied-out list, but it holds
    /// `rows + offsets` pairs instead of `rows × offsets`, nothing is
    /// sorted, and the walk steps over a skipped row by index. This is
    /// the PRQ shape — friend SV rows × the window's Z-ranges.
    ///
    /// The factors are kept as handed over when they are already
    /// canonical: rows ascending and disjoint, offsets ascending and
    /// non-adjacent, and the last offset inside the narrowest row.
    /// Anything else is multiplied out and goes through [`ScanPlan::new`].
    ///
    /// ```
    /// use peb_btree::ScanPlan;
    ///
    /// let plan = ScanPlan::product(vec![(100, 199), (300, 399)], vec![(5, 9), (40, 41)]);
    /// assert_eq!(plan.runs(), &[(105, 109), (140, 141), (305, 309), (340, 341)]);
    /// assert_eq!((plan.run_count(), plan.run(2)), (4, (305, 309)));
    /// ```
    pub fn product(rows: Vec<(u128, u128)>, offsets: Vec<(u128, u128)>) -> ScanPlan {
        let reach = offsets.last().map_or(0, |&(_, hi)| hi);
        let canonical = !offsets.is_empty()
            && offsets.iter().all(|&(lo, hi)| lo <= hi)
            && offsets.windows(2).all(|w| w[0].1 < w[1].0 && w[1].0 - w[0].1 > 1)
            && rows.iter().all(|&(lo, hi)| lo <= hi && hi - lo >= reach)
            && rows.windows(2).all(|w| w[0].1 < w[1].0);
        if canonical {
            return ScanPlan { runs: Runs::PerRow(offsets), rows };
        }
        let runs = rows
            .iter()
            .flat_map(|&(base, _)| {
                offsets
                    .iter()
                    .map(move |&(lo, hi)| (base.saturating_add(lo), base.saturating_add(hi)))
            })
            .collect();
        ScanPlan::new(runs, rows)
    }

    /// Cut each run where it crosses from one row into the adjacent next
    /// one; `None` if some run pokes out of the rows.
    fn cut_at_rows(runs: &[(u128, u128)], rows: &[(u128, u128)]) -> Option<Vec<(u128, u128)>> {
        let mut cut = Vec::with_capacity(runs.len());
        let mut r = 0usize;
        for &(mut lo, hi) in runs {
            while r < rows.len() && rows[r].1 < lo {
                r += 1;
            }
            loop {
                let &(row_lo, row_hi) = rows.get(r)?;
                if row_lo > lo {
                    return None;
                }
                if hi <= row_hi {
                    cut.push((lo, hi));
                    break;
                }
                cut.push((lo, row_hi));
                lo = row_hi + 1;
                r += 1;
            }
        }
        Some(cut)
    }

    /// The navigation runs, ascending, listed out — a product plan is
    /// multiplied out here (and nowhere on the scan path, which reads
    /// [`ScanPlan::run`]).
    pub fn runs(&self) -> Vec<(u128, u128)> {
        (0..self.run_count()).map(|n| self.run(n)).collect()
    }

    /// Number of navigation runs.
    pub fn run_count(&self) -> usize {
        match &self.runs {
            Runs::Listed(runs) => runs.len(),
            Runs::PerRow(offsets) => self.rows.len() * offsets.len(),
        }
    }

    /// Navigation run `n` (ascending in `n`).
    pub fn run(&self, n: usize) -> (u128, u128) {
        match &self.runs {
            Runs::Listed(runs) => runs[n],
            Runs::PerRow(offsets) => {
                let (base, (lo, hi)) = (self.rows[n / offsets.len()].0, offsets[n % offsets.len()]);
                (base + lo, base + hi)
            }
        }
    }

    /// The first run at or after `n` that ends at or beyond `frontier` —
    /// [`ScanPlan::run_count`] when none does. How the leaf walk drops the
    /// runs a leaf, or a skipped row, has settled; on a product plan a row
    /// wholly below the frontier is stepped over by index.
    pub(crate) fn next_run(&self, mut n: usize, frontier: u128) -> usize {
        match &self.runs {
            Runs::Listed(runs) => {
                while n < runs.len() && runs[n].1 < frontier {
                    n += 1;
                }
            }
            Runs::PerRow(offsets) => {
                let s = offsets.len();
                while n < self.rows.len() * s {
                    let (base, row_end) = self.rows[n / s];
                    if row_end < frontier {
                        n = (n / s + 1) * s;
                    } else if base + offsets[n % s].1 < frontier {
                        n += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        n
    }

    /// The emission rows, ascending.
    pub fn rows(&self) -> &[(u128, u128)] {
        &self.rows
    }

    /// Last key of the row `key` lies in (`key` itself when it lies in
    /// none): what a `SkipRow` answered at `key` rules out.
    pub fn row_end(&self, key: u128) -> u128 {
        match self.rows.get(self.rows.partition_point(|&(_, hi)| hi < key)) {
            Some(&(lo, hi)) if lo <= key => hi,
            _ => key,
        }
    }

    /// The part of the plan inside `[lo, hi]` — how the sharded index
    /// routes one plan to the partition trees it touches. `None` when no
    /// run reaches into the range (nothing would be read); borrowed when
    /// the whole plan already lies inside it (a product plan stays a
    /// product; one that straddles the range is listed out).
    pub fn clipped(&self, lo: u128, hi: u128) -> Option<Cow<'_, ScanPlan>> {
        let (first, last) = (self.rows.first()?, self.rows.last()?);
        if first.0 >= lo && last.1 <= hi {
            return (self.run_count() > 0).then_some(Cow::Borrowed(self));
        }
        let clip = |spans: &[(u128, u128)]| -> Vec<(u128, u128)> {
            spans
                .iter()
                .filter(|(l, h)| *h >= lo && *l <= hi)
                .map(|(l, h)| ((*l).max(lo), (*h).min(hi)))
                .collect()
        };
        let runs = clip(&self.runs());
        (!runs.is_empty())
            .then(|| Cow::Owned(ScanPlan { runs: Runs::Listed(runs), rows: clip(&self.rows) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_merges_overlap_adjacency_and_drops_reversed() {
        assert!(coalesce_intervals(&[]).is_empty());
        assert!(coalesce_intervals(&[(5, 1)]).is_empty());
        assert_eq!(coalesce_intervals(&[(1, 5)]), vec![(1, 5)]);
        // Overlap, containment, adjacency, and a genuine gap.
        assert_eq!(
            coalesce_intervals(&[(10, 20), (15, 18), (21, 25), (40, 41), (0, 0)]),
            vec![(0, 0), (10, 25), (40, 41)]
        );
        // Full-domain edge: no overflow at u128::MAX.
        assert_eq!(coalesce_intervals(&[(0, u128::MAX), (5, 10)]), vec![(0, u128::MAX)]);
        assert_eq!(
            coalesce_intervals(&[(u128::MAX, u128::MAX), (0, 1)]),
            vec![(0, 1), (u128::MAX, u128::MAX)]
        );
    }

    #[test]
    fn plan_construction_enforces_its_invariants() {
        // rows == runs.
        let p = ScanPlan::from_intervals(&[(40, 50), (10, 20), (21, 30)]);
        assert_eq!(p.runs(), &[(10, 30), (40, 50)]);
        assert_eq!(p.rows(), p.runs());
        // Overlapping rows merge, adjacent rows stay apart; a run crossing
        // from one row into the adjacent one is cut at the boundary.
        let p = ScanPlan::new(vec![(5, 25)], vec![(0, 9), (10, 19), (15, 30)]);
        assert_eq!(p.rows(), &[(0, 9), (10, 30)]);
        assert_eq!(p.runs(), &[(5, 9), (10, 25)]);
        // A run outside every row widens the rows to hold it.
        let p = ScanPlan::new(vec![(50, 60), (95, 120)], vec![(90, 100)]);
        assert_eq!(p.rows(), &[(50, 60), (90, 120)]);
        assert_eq!(p.runs(), &[(50, 60), (95, 120)]);
        // row_end: inside a row, between rows, past the last row.
        assert_eq!((p.row_end(55), p.row_end(70), p.row_end(500)), (60, 70, 500));
        // Degenerate inputs.
        let empty = ScanPlan::new(vec![(9, 3)], vec![(0, 10)]);
        assert!(empty.runs().is_empty());
        assert!(empty.clipped(0, u128::MAX).is_none(), "nothing to navigate, nothing to read");
        let full = ScanPlan::new(vec![(0, u128::MAX)], vec![]);
        assert_eq!(full.rows(), &[(0, u128::MAX)]);
    }

    #[test]
    fn clipping_keeps_runs_inside_rows() {
        let p = ScanPlan::new(vec![(12, 14), (18, 22), (40, 41)], vec![(10, 30), (35, 50)]);
        // Wholly inside: borrowed, untouched.
        assert!(matches!(p.clipped(0, 100), Some(Cow::Borrowed(_))));
        // Cut through a row and a run.
        let c = p.clipped(20, 38).expect("one run reaches in");
        assert_eq!(c.runs(), &[(20, 22)]);
        assert_eq!(c.rows(), &[(20, 30), (35, 38)]);
        // Rows reach in but no run does: nothing would be read.
        assert!(p.clipped(23, 39).is_none());
        assert!(p.clipped(60, 70).is_none());
    }

    #[test]
    fn a_product_plan_keeps_its_factors() {
        // g rows x s offsets: g + s pairs held, g * s runs read through
        // the accessors, run for run the listed plan of the same runs.
        let rows: Vec<(u128, u128)> = (0..7u128).map(|j| (j * 1_000, j * 1_000 + 999)).collect();
        let offsets: Vec<(u128, u128)> = vec![(0, 4), (10, 19), (400, 400), (990, 999)];
        let p = ScanPlan::product(rows.clone(), offsets.clone());
        let Runs::PerRow(held) = &p.runs else { panic!("canonical factors must stay factors") };
        assert_eq!(held.len() + p.rows.len(), 7 + 4);
        assert_eq!(p.run_count(), 7 * 4);
        let listed = ScanPlan::new(p.runs(), rows.clone());
        assert!(matches!(listed.runs, Runs::Listed(_)));
        assert_eq!((listed.runs(), listed.rows()), (p.runs(), p.rows()));
        assert_eq!(p.run(9), (2_010, 2_019));
        // Dropping settled runs agrees with the listed form from every
        // start and for frontiers on, between and past the runs — and a
        // row wholly below the frontier is one step, not s.
        for n in 0..=p.run_count() {
            for frontier in [0u128, 5, 20, 400, 401, 999, 1_000, 2_995, 3_000, 6_999, 7_000] {
                assert_eq!(p.next_run(n, frontier), listed.next_run(n, frontier), "{n} {frontier}");
            }
        }
        assert_eq!((p.next_run(0, 3_000), p.next_run(0, 7_000)), (12, 28));
        // Inside one partition the plan passes through borrowed, still a
        // product; straddling a boundary it is listed out and clipped.
        assert!(matches!(p.clipped(0, 6_999), Some(Cow::Borrowed(_))));
        let c = p.clipped(2_015, 3_402).expect("runs reach in");
        assert_eq!(
            c.runs(),
            &[
                (2_015, 2_019),
                (2_400, 2_400),
                (2_990, 2_999),
                (3_000, 3_004),
                (3_010, 3_019),
                (3_400, 3_400)
            ]
        );
        assert_eq!(c.rows(), &[(2_015, 2_999), (3_000, 3_402)]);
        assert_eq!(
            c.clipped(0, 10_000).unwrap().runs(),
            listed.clipped(2_015, 3_402).unwrap().runs()
        );
    }

    #[test]
    fn non_canonical_factors_are_multiplied_out() {
        let multiplied = |rows: &[(u128, u128)], offsets: &[(u128, u128)]| -> Vec<(u128, u128)> {
            rows.iter()
                .flat_map(|(base, _)| offsets.iter().map(move |(lo, hi)| (base + lo, base + hi)))
                .collect()
        };
        for (rows, offsets) in [
            (vec![(0u128, 99u128), (50, 149)], vec![(1u128, 2u128)]), // overlapping rows
            (vec![(200, 299), (0, 99)], vec![(1, 2)]),                // unsorted rows
            (vec![(0, 99), (200, 209)], vec![(1, 2), (50, 60)]),      // an offset past a row's end
            (vec![(0, 99)], vec![(1, 2), (3, 9)]),                    // adjacent offsets
            (vec![(0, 99)], vec![(5, 9), (1, 2)]),                    // unsorted offsets
            (vec![(0, 99)], vec![(9, 3)]),                            // a reversed offset
            (vec![(0, 99)], vec![]),                                  // nothing to read
        ] {
            let p = ScanPlan::product(rows.clone(), offsets.clone());
            assert!(matches!(p.runs, Runs::Listed(_)), "{rows:?} x {offsets:?}");
            assert_eq!(p, ScanPlan::new(multiplied(&rows, &offsets), rows.clone()));
        }
        // No rows: no runs, whatever the offsets.
        let empty = ScanPlan::product(vec![], vec![(1, 2)]);
        assert_eq!((empty.run_count(), empty.next_run(0, 0)), (0, 0));
        assert!(empty.clipped(0, u128::MAX).is_none());
    }

    #[test]
    fn scan_stats_merge_and_counters_roundtrip() {
        let a = ScanStats { descents: 3, cached_branch_pages: 7 };
        let b = ScanStats { descents: 1, cached_branch_pages: 2 };
        assert_eq!(a.merged(&b), ScanStats { descents: 4, cached_branch_pages: 9 });
        let c = ScanCounters::default();
        c.bump_descent();
        c.bump_cached();
        c.bump_cached();
        assert_eq!(c.snapshot(), ScanStats { descents: 1, cached_branch_pages: 2 });
        c.restore(a);
        assert_eq!(c.snapshot(), a);
    }
}

#[cfg(test)]
mod fused_tests {
    use super::*;
    use crate::BTree;
    use peb_storage::BufferPool;
    use std::sync::Arc;

    fn tree_with(cap: usize, n: u128) -> BTree<u64> {
        let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
        for i in 0..n {
            // Multiplicative shuffle, stride-3 keys: gaps everywhere.
            let k = ((i * 2_654_435_761) % (1 << 22)) * 3;
            t.insert(k, i as u64);
        }
        t
    }

    /// The per-interval reference: one `range_scan` per coalesced run.
    fn per_interval(t: &BTree<u64>, runs: &[(u128, u128)]) -> Vec<(u128, u64)> {
        let mut out = Vec::new();
        for (lo, hi) in runs {
            t.range_scan(*lo, *hi, |k, v| {
                out.push((k, v));
                true
            });
        }
        out
    }

    #[test]
    fn fused_matches_per_interval_and_spends_less_io() {
        // The deterministic acceptance check at unit scale: same visit
        // sequence, fewer logical page accesses, >= 2x fewer descents.
        let t = tree_with(4096, 30_000);
        assert!(t.height() >= 3, "height {}", t.height());
        // A realistic interval set: many short runs, some overlapping,
        // unsorted — like (SV group x Z-range) products.
        let intervals: Vec<(u128, u128)> = (0..120u128)
            .map(|j| {
                let base = (j * 97_003) % (3 << 22);
                (base, base + 400 + (j % 7) * 150)
            })
            .collect();
        let runs = coalesce_intervals(&intervals);
        assert!(runs.len() > 40, "coalescing must leave a real multi-interval set");

        // Warm both paths once so the measurement window is hit-only and
        // deterministic, then measure per-interval.
        let pool = Arc::clone(t.pool());
        per_interval(&t, &runs);
        pool.reset_stats();
        t.reset_scan_stats();
        let want = per_interval(&t, &runs);
        let per_io = pool.stats();
        let per_scans = t.scan_stats();
        assert_eq!(per_scans.descents as usize, runs.len(), "one descent per interval");

        // Measure fused on the identical warm pool.
        pool.reset_stats();
        t.reset_scan_stats();
        let mut got = Vec::new();
        assert!(t
            .try_multi_range_scan(&intervals, |k, v| {
                got.push((k, v));
                true
            })
            .unwrap());
        let fused_io = pool.stats();
        let fused_scans = t.scan_stats();

        assert_eq!(got, want, "fused scan must visit the identical (key, record) sequence");
        assert!(
            fused_io.logical_reads <= per_io.logical_reads,
            "fused logical I/O {} exceeds per-interval {}",
            fused_io.logical_reads,
            per_io.logical_reads
        );
        assert!(
            fused_io.total_io() <= per_io.total_io(),
            "fused physical I/O {} exceeds per-interval {}",
            fused_io.total_io(),
            per_io.total_io()
        );
        assert!(
            fused_scans.descents * 2 <= per_scans.descents,
            "descents {} not halved vs {}",
            fused_scans.descents,
            per_scans.descents
        );
        assert!(
            fused_scans.cached_branch_pages > 0,
            "re-routes must reuse the cached descent path"
        );
        // The headline claim: strictly fewer page touches, not a tie.
        assert!(
            fused_io.logical_reads < per_io.logical_reads,
            "fusing must actually shrink the ledger ({} vs {})",
            fused_io.logical_reads,
            per_io.logical_reads
        );
    }

    #[test]
    fn early_exit_and_degenerate_sets() {
        let t = tree_with(256, 2_000);
        // Empty set, reversed-only set: complete immediately.
        assert!(t.try_multi_range_scan(&[], |_, _| true).unwrap());
        assert!(t.try_multi_range_scan(&[(9, 3)], |_, _| true).unwrap());
        // Early exit propagates.
        let mut seen = 0usize;
        let completed = t
            .try_multi_range_scan(&[(0, u128::MAX)], |_, _| {
                seen += 1;
                seen < 5
            })
            .unwrap();
        assert!(!completed);
        assert_eq!(seen, 5);
        // Single interval behaves exactly like range_scan.
        let a = t.range(1_000, 500_000);
        let mut b = Vec::new();
        t.try_multi_range_scan(&[(1_000, 500_000)], |k, v| {
            b.push((k, v));
            true
        })
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_leaf_trees() {
        let empty: BTree<u64> = BTree::new(Arc::new(BufferPool::new(8)));
        assert!(empty.try_multi_range_scan(&[(0, u128::MAX), (5, 10)], |_, _| true).unwrap());
        let mut tiny: BTree<u64> = BTree::new(Arc::new(BufferPool::new(8)));
        for k in [4u128, 8, 15, 16, 23, 42] {
            tiny.insert(k, k as u64);
        }
        assert_eq!(tiny.height(), 1);
        let mut got = Vec::new();
        tiny.try_multi_range_scan(&[(40, 100), (0, 5), (15, 16)], |k, _| {
            got.push(k);
            true
        })
        .unwrap();
        assert_eq!(got, vec![4, 15, 16, 42]);
    }

    #[test]
    fn thrashing_pool_stays_correct_with_locked_fallbacks() {
        // A 2-frame pool cannot keep the descent path resident: the
        // cached branch copies outlive their evicted pages and every leaf
        // read misses. Results must not change.
        let t = tree_with(2, 8_000);
        let intervals: Vec<(u128, u128)> =
            (0..25u128).map(|j| (j * 480_007, j * 480_007 + 9_000)).collect();
        let runs = coalesce_intervals(&intervals);
        let want = per_interval(&t, &runs);
        let mut got = Vec::new();
        t.try_multi_range_scan(&intervals, |k, v| {
            got.push((k, v));
            true
        })
        .unwrap();
        assert_eq!(got, want);
        assert!(!want.is_empty());
    }
}

#[cfg(test)]
mod deadline_tests {
    use super::*;
    use crate::BTree;
    use peb_common::Deadline;
    use peb_storage::BufferPool;
    use std::sync::Arc;

    fn tree_with(cap: usize, n: u128) -> BTree<u64> {
        let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
        for i in 0..n {
            let k = ((i * 2_654_435_761) % (1 << 20)) * 3;
            t.insert(k, i as u64);
        }
        t
    }

    fn full(t: &BTree<u64>, intervals: &[(u128, u128)]) -> Vec<(u128, u64)> {
        let mut out = Vec::new();
        t.try_multi_range_scan(intervals, |k, v| {
            out.push((k, v));
            true
        })
        .unwrap();
        out
    }

    #[test]
    fn unbounded_deadline_is_a_complete_scan() {
        let t = tree_with(4096, 10_000);
        let intervals = [(0u128, 300_000), (900_000, 1_200_000)];
        let want = full(&t, &intervals);
        let clock = t.pool().clock().clone();
        let mut got = Vec::new();
        let term = t
            .try_scan_plan(
                &ScanPlan::from_intervals(&intervals),
                &Deadline::unbounded(&clock),
                |k, v| {
                    got.push((k, v));
                    Visit::Next
                },
            )
            .unwrap();
        assert_eq!(term, ScanTermination::Complete);
        assert!(term.is_complete());
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn voluntary_stop_is_not_an_expiry() {
        let t = tree_with(4096, 10_000);
        let clock = t.pool().clock().clone();
        let mut seen = 0usize;
        let term = t
            .try_scan_plan(
                &ScanPlan::from_intervals(&[(0, u128::MAX)]),
                &Deadline::unbounded(&clock),
                |_, _| {
                    seen += 1;
                    Visit::next_if(seen < 7)
                },
            )
            .unwrap();
        assert_eq!(term, ScanTermination::Stopped);
        assert_eq!(seen, 7);
    }

    #[test]
    fn expiry_yields_an_exact_prefix_with_bounded_overshoot() {
        let t = tree_with(4096, 10_000);
        let intervals = [(0u128, u128::MAX)];
        let want = full(&t, &intervals); // also warms the pool
        let clock = t.pool().clock().clone();
        let deadline = Deadline::after(&clock, 6);
        let mut got = Vec::new();
        let term = t
            .try_scan_plan(&ScanPlan::from_intervals(&intervals), &deadline, |k, v| {
                got.push((k, v));
                Visit::Next
            })
            .unwrap();
        assert_eq!(term, ScanTermination::Expired);
        assert!(deadline.expired());
        // The served prefix is exact: same order, same records, truncated.
        assert!(!got.is_empty(), "a 6-tick budget must visit some pages");
        assert!(got.len() < want.len(), "budget must bite before the scan ends");
        assert_eq!(got[..], want[..got.len()]);
        // Cooperative cancellation epsilon: checkpoints fire at every
        // leaf boundary and entry visit, so the clock runs at most a
        // couple of page reads past the deadline.
        assert!(deadline.overshoot() <= 2, "overshoot {} ticks", deadline.overshoot());
    }

    #[test]
    fn zero_budget_expires_before_any_page_is_read() {
        let t = tree_with(4096, 5_000);
        let clock = t.pool().clock().clone();
        let deadline = Deadline::after(&clock, 0);
        let before = t.pool().stats().logical_reads;
        let mut seen = 0usize;
        let term = t
            .try_scan_plan(&ScanPlan::from_intervals(&[(0, u128::MAX)]), &deadline, |_, _| {
                seen += 1;
                Visit::Next
            })
            .unwrap();
        assert_eq!(term, ScanTermination::Expired);
        assert_eq!(seen, 0);
        assert_eq!(t.pool().stats().logical_reads, before, "checkpoint precedes the first read");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn coalesced_union_matches_model(
            ivs in proptest::collection::vec((0u128..120, 0u128..120), 0..24)
        ) {
            let runs = coalesce_intervals(&ivs);
            // Sorted, disjoint, non-adjacent.
            for w in runs.windows(2) {
                prop_assert!(w[0].1 + 1 < w[1].0, "not maximal: {runs:?}");
            }
            // Exact same covered set as the naive union.
            let mut model = [false; 121];
            for (lo, hi) in &ivs {
                for v in (*lo)..=(*hi).min(120) {
                    if lo <= hi { model[v as usize] = true; }
                }
            }
            for v in 0u128..=120 {
                let covered = runs.iter().any(|(lo, hi)| v >= *lo && v <= *hi);
                prop_assert_eq!(covered, model[v as usize], "value {}", v);
            }
        }

        /// The tentpole equivalence property: over random trees and
        /// random interval sets, the fused scan visits exactly the
        /// (key, record) sequence the per-interval scans of the coalesced
        /// set visit — and never spends more logical page reads. Pools
        /// down to one frame (below a root-to-leaf path) evict the cached
        /// branch pages mid-scan; answers and [`ScanTermination`] must
        /// match a twin tree over a resident pool. A write between two
        /// scans is seen by the second.
        #[test]
        fn fused_equals_per_interval_over_random_trees(
            keys in proptest::collection::btree_set(0u128..6_000, 0..900),
            ivs in proptest::collection::vec((0u128..6_000, 0u128..400), 1..30),
            cap_pick in 0usize..8,
            stop_at in 0usize..200,
        ) {
            use crate::BTree;
            use peb_common::Deadline;
            use peb_storage::BufferPool;
            use std::sync::Arc;

            let cap = [1usize, 2, 3, 4, 8, 16, 32, 64][cap_pick];
            let build = |cap: usize| {
                let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
                for &k in &keys {
                    t.insert(k, (k as u64) ^ 0xABCD);
                }
                t
            };
            let mut t = build(cap);
            let twin = build(4_096);
            let intervals: Vec<(u128, u128)> =
                ivs.iter().map(|(lo, len)| (*lo, lo + len)).collect();
            let runs = coalesce_intervals(&intervals);

            t.pool().reset_stats();
            let mut want = Vec::new();
            for (lo, hi) in &runs {
                t.range_scan(*lo, *hi, |k, v| {
                    want.push((k, v));
                    true
                });
            }
            let per_logical = t.pool().stats().logical_reads;

            t.pool().reset_stats();
            let mut got = Vec::new();
            prop_assert!(t.try_multi_range_scan(&intervals, |k, v| {
                got.push((k, v));
                true
            }).unwrap());
            let fused_logical = t.pool().stats().logical_reads;

            prop_assert_eq!(&got, &want);
            // Warmth differs between the passes (per-interval ran first on
            // a colder pool), but logical reads are residency-independent:
            // the fused bound must hold for any tree, pool, interval set.
            prop_assert!(
                fused_logical <= per_logical,
                "fused {} > per-interval {} logical reads", fused_logical, per_logical
            );
            // Oracle cross-check against the key set itself.
            let oracle = |keys: &std::collections::BTreeSet<u128>| -> Vec<u128> {
                keys.iter()
                    .copied()
                    .filter(|k| runs.iter().any(|(lo, hi)| k >= lo && k <= hi))
                    .collect()
            };
            let got_keys: Vec<u128> = got.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(got_keys, oracle(&keys));

            // A visitor that stops early: the evicting pool and the
            // resident twin answer and terminate identically.
            let plan = ScanPlan::from_intervals(&intervals);
            let stopping = |t: &BTree<u64>| {
                let mut seen = Vec::new();
                let unbounded = Deadline::unbounded(t.pool().clock());
                let term = t
                    .try_scan_plan(&plan, &unbounded, |k, v| {
                        seen.push((k, v));
                        Visit::next_if(seen.len() < stop_at)
                    })
                    .unwrap();
                (seen, term)
            };
            prop_assert_eq!(stopping(&t), stopping(&twin));

            // A write between two scans is seen by the second.
            let mut keys = keys.clone();
            let toggled = runs[0].0;
            if keys.remove(&toggled) {
                prop_assert!(t.delete(toggled).is_some());
            } else {
                keys.insert(toggled);
                t.insert(toggled, 0);
            }
            let mut again = Vec::new();
            prop_assert!(t.try_multi_range_scan(&intervals, |k, _| {
                again.push(k);
                true
            }).unwrap());
            prop_assert_eq!(again, oracle(&keys));
        }

        /// Emission rows wider than the navigation runs: the visitor sees
        /// ascending keys, each once, all inside the rows, at least every
        /// in-run entry — and the scan reads exactly the pages the
        /// `rows == runs` scan reads (emission never costs a page).
        #[test]
        fn wider_rows_emit_more_from_the_same_pages(
            keys in proptest::collection::btree_set(0u128..6_000, 0..400),
            ivs in proptest::collection::vec((0u128..6_000, 0u128..120), 1..24),
            pad in proptest::collection::vec((0u128..500, 0u128..500), 24),
            cap in 2usize..64,
        ) {
            use crate::BTree;
            use peb_common::Deadline;
            use peb_storage::BufferPool;
            use std::sync::Arc;

            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
            for &k in &keys {
                t.insert(k, (k as u64) ^ 0xABCD);
            }
            let intervals: Vec<(u128, u128)> =
                ivs.iter().map(|(lo, len)| (*lo, lo + len)).collect();
            // Every interval padded outwards: rows ⊇ runs by construction.
            let rows: Vec<(u128, u128)> = intervals
                .iter()
                .zip(&pad)
                .map(|((lo, hi), (below, above))| (lo.saturating_sub(*below), hi + above))
                .collect();
            let plan = ScanPlan::new(intervals.clone(), rows);
            let unbounded = Deadline::unbounded(t.pool().clock());
            let scan = |plan: &ScanPlan| {
                t.pool().reset_stats();
                let mut got: Vec<u128> = Vec::new();
                let term = t
                    .try_scan_plan(plan, &unbounded, |k, v| {
                        assert_eq!(v, (k as u64) ^ 0xABCD);
                        got.push(k);
                        Visit::Next
                    })
                    .unwrap();
                assert_eq!(term, ScanTermination::Complete);
                (got, t.pool().stats().logical_reads)
            };

            // The reference navigates the very same runs, rows == runs.
            let (narrow, narrow_reads) = scan(&ScanPlan::new(plan.runs().to_vec(), Vec::new()));
            let in_runs: Vec<u128> = keys
                .iter()
                .copied()
                .filter(|k| plan.runs().iter().any(|(lo, hi)| k >= lo && k <= hi))
                .collect();
            prop_assert_eq!(&narrow, &in_runs, "rows == runs emits exactly the in-run entries");
            // ... and is the per-interval visit sequence.
            let mut per_interval = Vec::new();
            for (lo, hi) in coalesce_intervals(&intervals) {
                t.range_scan(lo, hi, |k, _| {
                    per_interval.push(k);
                    true
                });
            }
            prop_assert_eq!(&narrow, &per_interval);

            let (wide, wide_reads) = scan(&plan);
            prop_assert!(wide.windows(2).all(|w| w[0] < w[1]), "ascending, exactly once");
            prop_assert!(
                wide.iter().all(|k| plan.rows().iter().any(|(lo, hi)| k >= lo && k <= hi)),
                "every emitted key lies in a row"
            );
            prop_assert!(in_runs.iter().all(|k| wide.binary_search(k).is_ok()), "superset");
            prop_assert_eq!(wide_reads, narrow_reads, "emission must not cost a page");
        }

        /// `SkipRow` drops exactly that row's remainder: nothing more of a
        /// skipped row is emitted, every other row still delivers all its
        /// in-run entries, and the scan reads no more pages than the
        /// unskipped scan. (The pool holds the whole tree: past a skipped
        /// row the walk re-descends where it would have followed sibling
        /// links, which is free only while the cached branch pages are
        /// still resident.)
        #[test]
        fn skip_row_drops_that_row_and_nothing_else(
            keys in proptest::collection::btree_set(0u128..8_000, 50..500),
            starts in proptest::collection::btree_set(0u128..16, 2..8),
            windows in proptest::collection::vec((0u128..400, 1u128..60), 1..6),
            skip_mask in 0u32..256,
            cap in 32usize..64,
        ) {
            use crate::BTree;
            use peb_common::Deadline;
            use peb_storage::BufferPool;
            use std::sync::Arc;

            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
            for &k in &keys {
                t.insert(k, k as u64);
            }
            // rows × windows, like a PEB plan: row j spans [500 j, 500 j + 499].
            let rows: Vec<(u128, u128)> = starts.iter().map(|j| (j * 500, j * 500 + 499)).collect();
            let runs: Vec<(u128, u128)> = rows
                .iter()
                .flat_map(|(base, _)| {
                    windows.iter().map(move |(off, len)| (base + off, (base + off + len).min(base + 499)))
                })
                .collect();
            let plan = ScanPlan::new(runs, rows.clone());
            let skipped = |k: u128| {
                rows.iter().position(|(lo, hi)| k >= *lo && k <= *hi)
                    .is_some_and(|j| skip_mask & (1 << j) != 0)
            };
            let unbounded = Deadline::unbounded(t.pool().clock());

            t.pool().reset_stats();
            t.try_scan_plan(&plan, &unbounded, |_, _| Visit::Next).unwrap();
            let full_reads = t.pool().stats().logical_reads;

            t.pool().reset_stats();
            let mut got: Vec<u128> = Vec::new();
            let term = t
                .try_scan_plan(&plan, &unbounded, |k, _| {
                    got.push(k);
                    if skipped(k) { Visit::SkipRow } else { Visit::Next }
                })
                .unwrap();
            prop_assert_eq!(term, ScanTermination::Complete, "a skip is not a stop");
            prop_assert!(t.pool().stats().logical_reads <= full_reads);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
            for (lo, hi) in &rows {
                let of_row = got.iter().filter(|k| *k >= lo && *k <= hi).count();
                if skipped(*lo) {
                    prop_assert!(of_row <= 1, "a skipped row shows one entry at most");
                }
            }
            for k in keys.iter().filter(|k| !skipped(**k)) {
                if plan.runs().iter().any(|(lo, hi)| k >= lo && k <= hi) {
                    prop_assert!(got.binary_search(k).is_ok(), "kept row lost in-run key {}", k);
                }
            }
        }
        /// Move 3's oracle: a product plan and the listed plan of the same
        /// runs are one scan — same visit sequence, same termination,
        /// same page and descent ledger — whatever the visitor answers,
        /// under every deadline budget.
        #[test]
        fn a_product_plan_scans_like_its_listed_twin(
            keys in proptest::collection::btree_set(0u128..8_000, 50..600),
            starts in proptest::collection::btree_set(0u128..16, 1..9),
            windows in proptest::collection::btree_set(0u128..60, 1..8),
            lens in proptest::collection::vec(0u128..6, 8),
            verdicts in any::<u64>(),
        ) {
            use crate::BTree;
            use peb_common::Deadline;
            use peb_storage::BufferPool;
            use std::sync::Arc;

            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
            for &k in &keys {
                t.insert(k, k as u64);
            }
            // Row j spans [500 j, 500 j + 499]; window w is the offset
            // range [8 w, 8 w + len], so offsets never touch.
            let rows: Vec<(u128, u128)> = starts.iter().map(|j| (j * 500, j * 500 + 499)).collect();
            let offsets: Vec<(u128, u128)> =
                windows.iter().zip(&lens).map(|(w, len)| (w * 8, w * 8 + len)).collect();
            let product = ScanPlan::product(rows.clone(), offsets.clone());
            prop_assert!(matches!(product.runs, Runs::PerRow(_)));
            let listed = ScanPlan::new(product.runs(), rows.clone());
            prop_assert!(matches!(listed.runs, Runs::Listed(_)));
            prop_assert_eq!(listed.runs().len(), rows.len() * offsets.len());

            // Two bits of `verdicts` per key residue: mostly Next, some
            // SkipRow, a rare Stop.
            let verdict = |k: u128| match (verdicts >> (2 * (k % 29))) & 3 {
                0 if k.is_multiple_of(7) => Visit::Stop,
                1 => Visit::SkipRow,
                _ => Visit::Next,
            };
            let clock = t.pool().clock().clone();
            let scan = |plan: &ScanPlan, budget: Option<u64>, steer: bool| {
                let deadline = match budget {
                    Some(ticks) => Deadline::after(&clock, ticks),
                    None => Deadline::unbounded(&clock),
                };
                t.pool().reset_stats();
                t.reset_scan_stats();
                let mut seen: Vec<u128> = Vec::new();
                let term = t
                    .try_scan_plan(plan, &deadline, |k, _| {
                        seen.push(k);
                        if steer { verdict(k) } else { Visit::Next }
                    })
                    .unwrap();
                (seen, term, t.pool().stats().logical_reads, t.scan_stats())
            };
            scan(&listed, None, false); // warm: every page resident and published
            for steer in [false, true] {
                for budget in [None, Some(0), Some(1), Some(2), Some(3), Some(5), Some(8), Some(13)] {
                    prop_assert_eq!(
                        scan(&product, budget, steer),
                        scan(&listed, budget, steer),
                        "budget {:?}, steering {}", budget, steer
                    );
                }
            }
        }
    }
}
