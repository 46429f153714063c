//! The privacy-aware kNN query (PkNN) of Sec 5.4 / Figs 8–10.
//!
//! The search space in each time partition is an `m × n` matrix (Fig 8):
//! rows are the issuer's friends in ascending SV order, columns are rounds
//! of the incrementally enlarged query window. Per the paper's
//! modification, each round contributes a *single* Z-interval — the min and
//! max one-dimensional values of the (enlarged) window — and since windows
//! nest, each cell only scans the two fresh sub-intervals its round adds.
//!
//! Cells are visited in the triangular (anti-diagonal) order of Fig 9,
//! alternating between widening the spatial radius and descending the
//! friend list, until k policy-qualified candidates fall inside the
//! inscribed circle of the current round's window. A final vertical scan
//! (all rows, window shrunk to twice the current k'th candidate distance)
//! guarantees no closer qualified user was missed.
//!
//! The plan issues **one scan per anti-diagonal**: a [`ScanPlan`] whose
//! navigation runs are the fresh flanks of the diagonal's unresolved
//! cells and whose emission rows are those rows'
//! whole SV rows, so the leaf read for a row's first, smallest window
//! usually locates the row's friends outright and the row answers
//! `SkipRow` ever after. The paper's "k within this radius" test runs
//! over the diagonal's cells once its scan returns. Locating a friend
//! early only removes work: every candidate is refined and ranked exactly
//! as before and the vertical scan still closes the k'th distance, so the
//! answer is the same exact kNN.

use peb_btree::{ScanPlan, ScanTermination};
use peb_bx::estimated_knn_distance;
use peb_common::{Deadline, MovingPoint, Point, Rect, Timestamp, UserId};
use peb_index::{IndexError, ObjectRecord};

use crate::friends::Friends;
use crate::partial::Partial;
use crate::tree::PebTree;

/// The Z-interval already scanned per search-matrix row and live
/// partition, indexed `row × partitions + p`; round windows nest, so one
/// interval per slot suffices.
type Scanned = Vec<Option<(u64, u64)>>;

impl PebTree {
    /// Definition 3: the k users nearest to `q` at `tq` among those whose
    /// policy lets `issuer` see them there and then. Sorted by distance
    /// (ties by uid); fewer than k are returned when fewer qualify.
    pub fn pknn(
        &self,
        issuer: UserId,
        q: Point,
        k: usize,
        tq: Timestamp,
    ) -> Vec<(MovingPoint, f64)> {
        self.try_pknn(issuer, q, k, tq).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`PebTree::pknn`]: [`PebTree::try_pknn_deadline`]
    /// under a deadline that never expires, so an unresolvable media
    /// fault anywhere in the search-matrix scans surfaces as
    /// [`IndexError::Io`] instead of panicking.
    pub fn try_pknn(
        &self,
        issuer: UserId,
        q: Point,
        k: usize,
        tq: Timestamp,
    ) -> Result<Vec<(MovingPoint, f64)>, IndexError> {
        let unbounded = Deadline::unbounded(self.pool().clock());
        Ok(self.try_pknn_deadline(issuer, q, k, tq, &unbounded)?.value)
    }

    /// The round step `r_q = D_k / k` (Fig 10 line 2), floored at one grid
    /// cell so tiny estimates still make progress, and how many rounds
    /// reach the maximum search radius.
    fn pknn_rounds(&self, k: usize) -> (f64, usize) {
        let rq = (estimated_knn_distance(k, self.len(), self.space().side) / k as f64)
            .max(self.space().cell_size() * peb_bx::tree::KNN_STEP_FLOOR_CELLS);
        let max_radius = self.space().side * 4.0;
        (rq, (max_radius / rq).ceil() as usize)
    }

    /// Deadline-bounded PkNN: the query plan itself, and the
    /// graceful-degradation entry point of the serving layer.
    ///
    /// Walks the search matrix one anti-diagonal per scan (see the module
    /// docs) with `deadline` checked at every page visit and diagonal
    /// boundary. Expiry returns the best-`k`
    /// candidates refined so far — each one passed the same
    /// policy/distance checks as the unbounded query, but a closer
    /// qualified friend the budget never reached may be missing, so the
    /// ranking is a *candidate* ranking, not a proof. Because every
    /// diagonal's scan interleaves all live partitions, no single
    /// partition's coverage survives an expiry: a degraded PkNN tags
    /// **all** partitions incomplete, and a completed one tags all
    /// complete — the [`Partial::is_complete`] flag is the answer's
    /// integrity bit.
    pub fn try_pknn_deadline(
        &self,
        issuer: UserId,
        q: Point,
        k: usize,
        tq: Timestamp,
        deadline: &Deadline,
    ) -> Result<Partial<Vec<(MovingPoint, f64)>>, IndexError> {
        let partitions = self.live_partitions();
        let tids: Vec<u8> = partitions.iter().map(|(t, _)| *t).collect();
        let mut friends = Friends::new(&self.ctx().friends, issuer);
        // Nobody is at a defined distance from a NaN centre, and no policy
        // interval contains a NaN time.
        let well_formed = !(q.x.is_nan() || q.y.is_nan() || tq.is_nan());
        if friends.all_done() || k == 0 || self.is_empty() || !well_formed {
            // No qualifying candidate exists anywhere: complete, no I/O.
            return Ok(Partial::complete(Vec::new(), tids));
        }
        let m = friends.groups();
        let (rq, max_rounds) = self.pknn_rounds(k);
        let keys = *self.key_layout();

        let mut scanned: Scanned = vec![None; m * partitions.len()];
        let mut pool: Vec<(MovingPoint, f64)> = Vec::new();
        // One plan scan over `cells` = [(row, radius)]: the unresolved
        // cells' fresh flanks navigate, their whole SV rows answer.
        // Returns whether the deadline cut the scan short.
        let mut scan_cells = |cells: &[(usize, f64)],
                              friends: &mut Friends,
                              pool: &mut Vec<(MovingPoint, f64)>|
         -> Result<bool, IndexError> {
            let (mut runs, mut rows) = (Vec::new(), Vec::new());
            for &(row, radius) in cells {
                if friends.group_done(row) {
                    continue;
                }
                let sv_code = friends.sv_code(row);
                let slots = &mut scanned[row * partitions.len()..][..partitions.len()];
                self.cell_intervals(sv_code, q, tq, radius, &partitions, slots, &mut runs);
                rows.extend(partitions.iter().map(|(tid, _)| self.sv_row(*tid, sv_code)));
            }
            let plan = ScanPlan::new(runs, rows);
            let report = self.index().try_scan_plan(&plan, deadline, |key, rec| {
                self.pknn_refine(issuer, q, tq, rec, friends, pool);
                friends.verdict(keys.sv_of(key))
            })?;
            Ok(report.termination == ScanTermination::Expired)
        };

        // Triangular order over the search matrix, one anti-diagonal —
        // the cells (row, round) with row + (round − 1) = d — per scan.
        let mut done = false;
        let mut expired = false;
        let mut cells: Vec<(usize, f64)> = Vec::new();
        for d in 0..(m + max_rounds) {
            cells.clear();
            cells.extend(
                (0..=d.min(m - 1))
                    .filter(|row| d - row < max_rounds)
                    .map(|row| (row, (d - row + 1) as f64 * rq)),
            );
            expired = deadline.expired() || scan_cells(&cells, &mut friends, &mut pool)?;
            if expired {
                break;
            }
            // The paper's per-cell test, over the diagonal just scanned:
            // radii shrink down a diagonal, so its first cell decides.
            if cells.first().is_some_and(|&(_, widest)| {
                pool.iter().filter(|(_, dist)| *dist <= widest).count() >= k
            }) {
                done = true;
                break;
            }
            if friends.all_done() {
                // Every friend has been located: no further cell can add
                // candidates, so the matrix is effectively empty.
                break;
            }
        }

        pool.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
        if expired {
            pool.truncate(k);
            return Ok(Partial::degraded(pool, tids));
        }
        if !done {
            // The matrix is exhausted within budget: fewer than k users
            // qualify anywhere — a complete answer.
            pool.truncate(k);
            return Ok(Partial::complete(pool, tids));
        }

        // Vertical-scan refinement under the same deadline: every
        // unresolved row out to twice the current k'th candidate
        // distance, as one column scan, then re-rank.
        let kth_dist = pool[k - 1].1;
        let radius = kth_dist.max(self.space().cell_size() * 0.5);
        let column: Vec<(usize, f64)> = (0..m).map(|row| (row, radius)).collect();
        let expired = scan_cells(&column, &mut friends, &mut pool)?;
        pool.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
        pool.truncate(k);
        if expired {
            // k candidates exist but the closer-friend sweep was cut off:
            // the ranking is unverified, so the answer stays degraded.
            return Ok(Partial::degraded(pool, tids));
        }
        Ok(Partial::complete(pool, tids))
    }

    /// Append the fresh key intervals of one search-matrix cell to `out`:
    /// the single Z-interval of the window of half-side `radius` (the
    /// paper's modification — `[min ZV; max ZV]` of the enlarged window,
    /// i.e. its lower-left and upper-right cells), per live partition,
    /// minus whatever previous (smaller, nested) rounds already covered.
    /// `scanned` is the row's slot per partition; it is updated to record
    /// the coverage.
    #[allow(clippy::too_many_arguments)]
    fn cell_intervals(
        &self,
        sv_code: u64,
        q: Point,
        tq: Timestamp,
        radius: f64,
        partitions: &[(u8, Timestamp)],
        scanned: &mut [Option<(u64, u64)>],
        out: &mut Vec<(u128, u128)>,
    ) {
        let keys = *self.key_layout();
        let window = Rect::square(q, 2.0 * radius);
        for ((tid, t_lab), slot) in partitions.iter().zip(scanned) {
            let enlarged = self.enlarge(&window, *t_lab, tq);
            let (x0, x1, y0, y1) = self.space().to_grid_rect(&enlarged);
            let lo = peb_zorder::encode(x0, y0);
            let hi = peb_zorder::encode(x1, y1);
            let mut fresh = |zlo: u64, zhi: u64| {
                out.push((
                    keys.range_start(*tid, sv_code, zlo),
                    keys.range_end(*tid, sv_code, zhi),
                ));
            };
            // Subtract the nested interval scanned by earlier rounds.
            match *slot {
                None => fresh(lo, hi),
                Some((plo, phi)) => {
                    if lo < plo {
                        fresh(lo, plo - 1);
                    }
                    if hi > phi {
                        fresh(phi + 1, hi);
                    }
                }
            }
            let (plo, phi) = slot.unwrap_or((lo, hi));
            *slot = Some((plo.min(lo), phi.max(hi)));
        }
    }

    /// PkNN candidate refinement: resolve the friend (a user has only one
    /// location — `friends` records it, says whether it is news, and drops
    /// whoever is not on the issuer's list), check the policy on the live
    /// store, and rank the qualified candidate by predicted distance.
    fn pknn_refine(
        &self,
        issuer: UserId,
        q: Point,
        tq: Timestamp,
        rec: ObjectRecord,
        friends: &mut Friends,
        pool: &mut Vec<(MovingPoint, f64)>,
    ) {
        let uid = UserId(rec.uid);
        if !friends.locate(uid) {
            return;
        }
        let mp = rec.to_moving_point();
        let pos = mp.position_at(tq);
        if self.ctx().store.permits(uid, issuer, &pos, tq) {
            pool.push((mp, pos.dist(&q)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PrivacyContext;
    use crate::oracle::oracle_pknn;
    use peb_bx::TimePartitioning;
    use peb_common::{SpaceConfig, TimeInterval, Vec2};
    use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
    use peb_storage::BufferPool;
    use std::sync::Arc;

    const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
    const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };

    fn still(uid: u64, x: f64, y: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, 0.0)
    }

    fn build(store: PolicyStore, n: usize) -> PebTree {
        let space = SpaceConfig::default();
        let ctx = Arc::new(PrivacyContext::build(store, space, n, SvAssignmentParams::default()));
        PebTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::default(), 3.0, ctx)
    }

    #[test]
    fn running_example_only_willing_friend_wins() {
        // Fig 3: u1 queries for the nearest friend. Friends u12..u130 exist
        // but only u12 currently discloses; nearer non-friends and
        // unwilling friends must be passed over.
        let mut store = PolicyStore::new();
        let friends = [12u64, 30, 59, 100, 130];
        for f in friends {
            let (locr, tint) = if f == 12 {
                (WHOLE, ALWAYS)
            } else {
                // Policies that never apply at tq = 100.
                (WHOLE, TimeInterval::new(500.0, 600.0))
            };
            store.add(UserId(1), Policy::new(UserId(f), RoleId::FRIEND, locr, tint));
        }
        let t = build(store, 131);
        t.upsert(still(1, 500.0, 500.0));
        t.upsert(still(100, 505.0, 505.0)); // nearest friend, unwilling
        t.upsert(still(12, 600.0, 600.0)); // willing friend, farther
        t.upsert(still(30, 510.0, 510.0)); // unwilling
        t.upsert(still(59, 520.0, 520.0)); // unwilling
        t.upsert(still(130, 530.0, 530.0)); // unwilling
        t.upsert(still(77, 501.0, 501.0)); // non-friend right next door

        let res = t.pknn(UserId(1), Point::new(500.0, 500.0), 1, 100.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0.uid.0, 12, "only the willing friend qualifies");
    }

    #[test]
    fn k_results_sorted_by_distance() {
        let mut store = PolicyStore::new();
        for f in 1..=10u64 {
            store.add(UserId(0), Policy::new(UserId(f), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 11);
        for f in 1..=10u64 {
            t.upsert(still(f, 500.0 + 10.0 * f as f64, 500.0));
        }
        let res = t.pknn(UserId(0), Point::new(500.0, 500.0), 3, 10.0);
        assert_eq!(res.iter().map(|(m, _)| m.uid.0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(res.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn fewer_qualified_than_k() {
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        let t = build(store, 3);
        t.upsert(still(1, 100.0, 100.0));
        t.upsert(still(2, 105.0, 105.0)); // non-friend
        let res = t.pknn(UserId(0), Point::new(0.0, 0.0), 5, 10.0);
        assert_eq!(res.len(), 1, "only the single friend qualifies");
    }

    #[test]
    fn no_friends_no_io() {
        let t = build(PolicyStore::new(), 3);
        t.upsert(still(1, 100.0, 100.0));
        let pool = Arc::clone(t.pool());
        pool.clear();
        pool.reset_stats();
        assert!(t.pknn(UserId(0), Point::new(0.0, 0.0), 3, 10.0).is_empty());
        assert_eq!(pool.stats().physical_reads, 0);
    }

    #[test]
    fn warm_pknn_runs_lock_free() {
        // PkNN's incremental window enlargement issues many small
        // interval scans; warm, every one of them must ride the
        // optimistic read path instead of serializing on pool mutexes.
        let mut store = PolicyStore::new();
        for f in 1..=20u64 {
            store.add(UserId(0), Policy::new(UserId(f), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 21);
        for f in 1..=20u64 {
            t.upsert(still(f, 500.0 + 11.0 * f as f64, 480.0 + 7.0 * f as f64));
        }
        let pool = Arc::clone(t.pool());
        pool.flush_all();
        pool.clear();
        let cold = t.pknn(UserId(0), Point::new(500.0, 500.0), 3, 10.0);
        pool.reset_stats();
        let warm = t.pknn(UserId(0), Point::new(500.0, 500.0), 3, 10.0);
        assert_eq!(cold, warm, "read path must not change results");
        let locks = t.lock_stats();
        assert_eq!(locks.lock_acquisitions, 0, "warm PkNN must not touch a pool mutex");
        assert!(locks.optimistic_hits > 0);
    }

    #[test]
    fn fused_pknn_is_identical_and_cheaper() {
        // Provenance: the per-interval leg (one B+-tree scan per cell
        // flank) on this exact world and query, last measured at commit
        // 0b72065, debug and release, before the leg was deleted.
        const PER_INTERVAL_LOGICAL_READS: u64 = 18;
        const PER_INTERVAL_DESCENTS: u64 = 9;
        let mut store = PolicyStore::new();
        for f in 1..=40u64 {
            store.add(UserId(0), Policy::new(UserId(f), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 41);
        let mut indexed = Vec::new();
        for f in 1..=40u64 {
            let m = still(f, (f as f64 * 173.0) % 1000.0, (f as f64 * 59.0) % 1000.0);
            t.upsert(m);
            indexed.push(m);
        }
        let q = Point::new(480.0, 510.0);
        let pool = Arc::clone(t.pool());

        let _ = t.pknn(UserId(0), q, 5, 10.0); // warm
        pool.reset_stats();
        t.reset_scan_stats();
        let fused = t.pknn(UserId(0), q, 5, 10.0);
        let fused_logical = pool.stats().logical_reads;
        let fused_descents = t.scan_stats().descents;

        let want = oracle_pknn(&indexed, &t.context().store, UserId(0), q, 5, 10.0);
        assert_eq!(fused.iter().map(|(m, _)| m.uid).collect::<Vec<_>>(), want);
        assert_eq!(fused.len(), 5);
        assert!(
            fused_logical <= PER_INTERVAL_LOGICAL_READS,
            "logical reads {fused_logical} above the per-interval leg's"
        );
        // PkNN's incremental rounds keep one descent per visited diagonal,
        // so the reduction is bounded by the cell structure (the 2x bar is
        // PRQ's); it must still be a strict improvement.
        assert!(
            fused_descents < PER_INTERVAL_DESCENTS,
            "descents {fused_descents} vs the per-interval leg's"
        );
    }

    #[test]
    fn unbounded_deadline_pknn_is_the_plain_pknn() {
        let mut store = PolicyStore::new();
        for f in 1..=30u64 {
            store.add(UserId(0), Policy::new(UserId(f), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 31);
        for f in 1..=30u64 {
            t.upsert(still(f, (f as f64 * 173.0) % 1000.0, (f as f64 * 59.0) % 1000.0));
        }
        let q = Point::new(480.0, 510.0);
        let full = t.try_pknn(UserId(0), q, 5, 10.0).unwrap();
        assert_eq!(full.len(), 5);
        let clock = t.pool().clock().clone();
        let part =
            t.try_pknn_deadline(UserId(0), q, 5, 10.0, &Deadline::unbounded(&clock)).unwrap();
        assert!(part.is_complete());
        assert_eq!(part.partitions.len(), t.live_partitions().len());
        assert_eq!(part.value, full, "an unexpired deadline changes nothing");
    }

    #[test]
    fn expired_pknn_returns_refined_candidates_tagged_degraded() {
        // Policies of different extents: different compatibilities, hence
        // distinct SV rows — several diagonals, each paying its own page
        // read, so small budgets can die between them. (One shared SV row
        // in a one-leaf tree is located whole by the first page read.)
        let mut store = PolicyStore::new();
        for f in 1..=30u64 {
            let locr = Rect::new(0.0, 1000.0 - 20.0 * f as f64, 0.0, 1000.0);
            store.add(UserId(0), Policy::new(UserId(f), RoleId::FRIEND, locr, ALWAYS));
        }
        let t = build(store, 31);
        for f in 1..=30u64 {
            t.upsert(still(f, (f as f64 * 173.0) % 1000.0, (f as f64 * 59.0) % 1000.0));
        }
        let q = Point::new(480.0, 510.0);
        let _ = t.try_pknn(UserId(0), q, 5, 10.0).unwrap(); // warm the pool
        let clock = t.pool().clock().clone();

        // Zero budget: nothing served, every partition honestly incomplete.
        let p = t.try_pknn_deadline(UserId(0), q, 5, 10.0, &Deadline::after(&clock, 0)).unwrap();
        assert!(!p.is_complete());
        assert_eq!(p.complete_partitions(), 0);
        assert!(p.value.is_empty());

        // Small budgets: whatever is served is a genuinely qualified,
        // correctly ranked candidate set of at most k — never a guess.
        let mut saw_degraded_nonempty = false;
        let mut saw_complete = false;
        for budget in [1u64, 2, 4, 8, 16, 32, 64, 128, 1 << 20] {
            let p = t
                .try_pknn_deadline(UserId(0), q, 5, 10.0, &Deadline::after(&clock, budget))
                .unwrap();
            assert!(p.value.len() <= 5);
            assert!(p.value.windows(2).all(|w| w[0].1 <= w[1].1), "ranked by distance");
            for (m, d) in &p.value {
                assert!(m.uid.0 >= 1 && m.uid.0 <= 30, "only friends can appear");
                let pos = m.position_at(10.0);
                assert!((pos.dist(&q) - d).abs() < 1e-9, "distances are real, not guessed");
            }
            if p.is_complete() {
                saw_complete = true;
                assert_eq!(p.value, t.try_pknn(UserId(0), q, 5, 10.0).unwrap());
            } else if !p.value.is_empty() {
                saw_degraded_nonempty = true;
            }
        }
        assert!(saw_complete, "a generous budget must complete");
        assert!(saw_degraded_nonempty, "some budget must serve a nonempty degraded answer");
    }

    #[test]
    fn far_friend_beats_near_nonqualified_swarm() {
        // The scenario motivating the PEB-tree (Sec 4): many near users
        // that do not qualify must not drown out the one far friend.
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(999), RoleId::FRIEND, WHOLE, ALWAYS));
        let t = build(store, 1_001);
        for i in 1..400u64 {
            let angle = i as f64 * 0.1;
            t.upsert(still(i, 500.0 + 20.0 * angle.cos(), 500.0 + 20.0 * angle.sin()));
        }
        t.upsert(still(999, 900.0, 900.0));
        let res = t.pknn(UserId(0), Point::new(500.0, 500.0), 1, 10.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0.uid.0, 999);
    }
}
