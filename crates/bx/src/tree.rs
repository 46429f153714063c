//! The Bx-tree proper: a [`ShardedMovingIndex`] with the Bx key layout,
//! plus the privacy-unaware range and kNN query algorithms.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use peb_common::{MovingPoint, Point, Rect, SpaceConfig, Timestamp, UserId};
use peb_index::{IndexError, ShardedMovingIndex, TimePartitioning};
use peb_storage::BufferPool;
use peb_zorder::{cover, IntervalSet};

use crate::keys::BxKeyLayout;

/// A B+-tree based moving-object index: the shared [`ShardedMovingIndex`]
/// (one tree per rotating time partition) under the Bx key layout. Updates,
/// lookups, stats and scans are the index's own methods, reached through
/// `Deref` (immutably only: the layout is fixed at construction); this type
/// adds the layout-binding constructors and the Bx query algorithms.
pub struct BxTree {
    idx: ShardedMovingIndex<BxKeyLayout>,
}

impl std::ops::Deref for BxTree {
    type Target = ShardedMovingIndex<BxKeyLayout>;

    fn deref(&self) -> &Self::Target {
        &self.idx
    }
}

impl BxTree {
    /// An empty Bx-tree over the given space, partitioning and speed
    /// bound, performing all I/O through `pool`.
    pub fn new(
        pool: Arc<BufferPool>,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
    ) -> Self {
        let layout = BxKeyLayout::new(space.grid_bits);
        BxTree { idx: ShardedMovingIndex::new(pool, layout, space, part, max_speed) }
    }

    /// Bulk-load an initial user population (each user must appear once).
    /// Equivalent to upserting every user, but builds each partition's
    /// B+-tree bottom-up at the given fill factor.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
        users: &[MovingPoint],
        fill: f64,
    ) -> Self {
        let layout = BxKeyLayout::new(space.grid_bits);
        BxTree {
            idx: ShardedMovingIndex::bulk_load(pool, layout, space, part, max_speed, users, fill),
        }
    }

    /// Rebuild a Bx-tree from a recovered pool after a crash (see
    /// [`ShardedMovingIndex::recover`]).
    pub fn recover(
        pool: Arc<BufferPool>,
        recovery: &peb_storage::WalRecovery,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
    ) -> Self {
        let layout = BxKeyLayout::new(space.grid_bits);
        BxTree { idx: ShardedMovingIndex::recover(pool, recovery, layout, space, part, max_speed) }
    }

    /// Switch write-ahead logging on or off
    /// ([`ShardedMovingIndex::set_durable`]). Kept here because it needs
    /// `&mut self` and the handle derefs immutably only.
    pub fn set_durable(&mut self, on: bool) {
        self.idx.set_durable(on);
    }

    /// The shared moving-object index core (what the handle derefs to).
    pub fn index(&self) -> &ShardedMovingIndex<BxKeyLayout> {
        &self.idx
    }

    /// Privacy-unaware predictive range query: all objects whose predicted
    /// position at `tq` falls inside `r`.
    pub fn range_query(&self, r: &Rect, tq: Timestamp) -> Vec<MovingPoint> {
        self.try_range_query(r, tq).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`BxTree::range_query`]: an unresolvable media
    /// fault anywhere in the interval scans surfaces as
    /// [`IndexError::Io`] instead of panicking.
    pub fn try_range_query(&self, r: &Rect, tq: Timestamp) -> Result<Vec<MovingPoint>, IndexError> {
        let mut out = Vec::new();
        self.try_for_each_candidate(r, tq, |m| {
            if r.contains(&m.position_at(tq)) {
                out.push(m);
            }
        })?;
        Ok(out)
    }

    /// Walk the budgeted Z-cover ([`peb_zorder::cover`]) of `r`'s
    /// enlargement in every live partition — the shared front half of
    /// both interval builders.
    /// The coarsening budget clamps against the whole population: every
    /// object is a candidate for a privacy-unaware query (unlike the PEB
    /// side, whose candidates are the issuer's friends).
    fn for_each_fused_zrange(
        &self,
        r: &Rect,
        tq: Timestamp,
        mut f: impl FnMut(u8, peb_zorder::ZRange),
    ) {
        let space = self.space();
        let budget = peb_costmodel::interval_budget(self.len(), self.leaf_page_count());
        for (tid, t_lab) in self.live_partitions() {
            let enlarged = self.enlarge(r, t_lab, tq);
            let (x0, x1, y0, y1) = space.to_grid_rect(&enlarged);
            for zr in cover(x0, x1, y0, y1, space.grid_bits, budget) {
                f(tid, zr);
            }
        }
    }

    /// Run the Bx search (enlarge → Z-cover within
    /// [`peb_costmodel::interval_budget`] → B+-tree scan) and hand every
    /// *candidate* (pre-refinement) of the window `r` at `tq` to `f`: the
    /// raw retrieval step both query algorithms refine. The whole
    /// interval set — partitions × Z-ranges — executes as one coalesced
    /// multi-interval scan ([`ShardedMovingIndex::try_scan_keys_multi`]:
    /// one descent plus a leaf-chain walk per partition), so candidates
    /// include the coarsened-in extras every caller refines away. An
    /// unresolvable media fault surfaces as [`IndexError::Io`]
    /// (candidates already handed to `f` stay delivered).
    pub fn try_for_each_candidate(
        &self,
        r: &Rect,
        tq: Timestamp,
        mut f: impl FnMut(MovingPoint),
    ) -> Result<(), IndexError> {
        let layout = *self.layout();
        let mut intervals: Vec<(u128, u128)> = Vec::new();
        self.for_each_fused_zrange(r, tq, |tid, zr| {
            intervals.push((layout.range_start(tid, zr.lo), layout.range_end(tid, zr.hi)));
        });
        self.try_scan_keys_multi(&intervals, |_, rec| {
            f(rec.to_moving_point());
            true
        })?;
        Ok(())
    }

    /// Incremental variant for iterative enlargement (the kNN loop): scan
    /// only the Z-interval parts not yet covered by `scanned` (one
    /// [`IntervalSet`] per time partition), so consecutive rounds search
    /// `R'_qi − R'_q(i−1)` as in the paper instead of rescanning the whole
    /// window. An unresolvable media fault surfaces as [`IndexError::Io`];
    /// intervals recorded in `scanned` before the fault stay recorded — a
    /// retried round rescans only what the failed round had not yet
    /// covered.
    pub fn try_for_each_new_candidate(
        &self,
        r: &Rect,
        tq: Timestamp,
        scanned: &mut HashMap<u8, IntervalSet>,
        mut f: impl FnMut(MovingPoint),
    ) -> Result<(), IndexError> {
        let layout = *self.layout();
        // One multi-interval scan over every partition's fresh flanks
        // (coarsened like `try_for_each_candidate`; the covered bookkeeping
        // keeps later rounds from rescanning the extras).
        let mut intervals: Vec<(u128, u128)> = Vec::new();
        self.for_each_fused_zrange(r, tq, |tid, zr| {
            let set = scanned.entry(tid).or_default();
            for (zlo, zhi) in set.add_and_return_new(zr.lo, zr.hi) {
                intervals.push((layout.range_start(tid, zlo), layout.range_end(tid, zhi)));
            }
        });
        self.try_scan_keys_multi(&intervals, |_, rec| {
            f(rec.to_moving_point());
            true
        })?;
        Ok(())
    }

    /// Privacy-unaware predictive kNN: iteratively enlarged range queries
    /// until k objects fall inside the inscribed circle of the window.
    pub fn knn(&self, q: Point, k: usize, tq: Timestamp) -> Vec<(MovingPoint, f64)> {
        self.try_knn(q, k, tq).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`BxTree::knn`]: an unresolvable media fault
    /// anywhere in the enlargement rounds surfaces as [`IndexError::Io`]
    /// instead of panicking. Only objects inside the final circle count.
    pub fn try_knn(
        &self,
        q: Point,
        k: usize,
        tq: Timestamp,
    ) -> Result<Vec<(MovingPoint, f64)>, IndexError> {
        let (mut hits, radius) = self.try_knn_where(q, k, tq, |_, _| true)?;
        hits.retain(|(_, d)| *d <= radius);
        Ok(hits)
    }

    /// The kNN ring loop (Sec 2.1), shared by [`BxTree::try_knn`] and the
    /// filtering baseline's PkNN: enlarge the window ring by ring, scanning
    /// only the newly uncovered flanks, until `k` candidates that pass
    /// `keep(candidate, its position at tq)` fall inside the window's
    /// inscribed circle. `keep` runs once per object. Returns the `k`
    /// nearest kept candidates `(object, distance)`, nearest first, and the
    /// radius the search stopped at — results beyond it are possible only
    /// when the search ran out of space with fewer than `k` in the circle.
    pub fn try_knn_where(
        &self,
        q: Point,
        k: usize,
        tq: Timestamp,
        mut keep: impl FnMut(&MovingPoint, &Point) -> bool,
    ) -> Result<(Vec<(MovingPoint, f64)>, f64), IndexError> {
        if k == 0 || self.is_empty() {
            return Ok((Vec::new(), 0.0));
        }
        let space = self.space();
        // The ring step r_q = D_k/k of the paper can be a fraction of a grid
        // cell; flooring it at a few cells bounds the number of enlargement
        // rounds without affecting correctness (an implementation parameter
        // the paper leaves open).
        let rq = (estimated_knn_distance(k, self.len(), space.side) / k as f64)
            .max(space.cell_size() * KNN_STEP_FLOOR_CELLS);
        // Objects may drift past the space bounds between updates, so the
        // terminal radius allows a generous margin beyond the diagonal.
        let max_radius = space.side * 4.0;

        // Candidates and their `keep` verdicts accumulate across rounds;
        // each round only scans the newly uncovered ring.
        let mut scanned: HashMap<u8, IntervalSet> = HashMap::new();
        let mut seen: HashSet<UserId> = HashSet::new();
        let mut kept: Vec<(MovingPoint, f64)> = Vec::new();
        let mut radius = rq;
        loop {
            let window = Rect::square(q, 2.0 * radius);
            self.try_for_each_new_candidate(&window, tq, &mut scanned, |m| {
                let pos = m.position_at(tq);
                if seen.insert(m.uid) && keep(&m, &pos) {
                    kept.push((m, pos.dist(&q)));
                }
            })?;
            let in_circle = kept.iter().filter(|(_, d)| *d <= radius).count();
            if in_circle >= k || radius >= max_radius {
                kept.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
                kept.truncate(k);
                return Ok((kept, radius));
            }
            radius += rq;
        }
    }
}

/// Minimum kNN ring step, in grid cells (see `BxTree::knn`).
pub const KNN_STEP_FLOOR_CELLS: f64 = 12.0;

/// `Dk = (2/√π)·(1 − √(1 − √(k/n)))·L` (Tao, Zhang, Papadias, Mamoulis,
/// TKDE 2004), as used by the paper's PkNN initial radius.
pub fn estimated_knn_distance(k: usize, n: usize, side: f64) -> f64 {
    assert!(n > 0 && k > 0);
    let ratio = (k as f64 / n as f64).min(1.0);
    (2.0 / std::f64::consts::PI.sqrt()) * (1.0 - (1.0 - ratio.sqrt()).sqrt()) * side
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_common::Vec2;

    fn space() -> SpaceConfig {
        SpaceConfig::new(1000.0, 10, 1440.0)
    }

    fn tree(cap: usize) -> BxTree {
        BxTree::new(Arc::new(BufferPool::new(cap)), space(), TimePartitioning::default(), 3.0)
    }

    fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
    }

    #[test]
    fn insert_and_point_lookup() {
        let t = tree(64);
        t.upsert(still(1, 100.0, 100.0, 0.0));
        t.upsert(still(2, 500.0, 500.0, 0.0));
        assert_eq!(t.len(), 2);
        let m = t.get(UserId(1)).unwrap();
        assert_eq!(m.pos, Point::new(100.0, 100.0));
        assert!(t.get(UserId(3)).is_none());
    }

    #[test]
    fn upsert_replaces_old_position() {
        let t = tree(64);
        t.upsert(still(1, 100.0, 100.0, 0.0));
        t.upsert(still(1, 800.0, 800.0, 10.0));
        assert_eq!(t.len(), 1, "update must not duplicate the object");
        let r = t.range_query(&Rect::new(700.0, 900.0, 700.0, 900.0), 10.0);
        assert_eq!(r.len(), 1);
        let r = t.range_query(&Rect::new(0.0, 200.0, 0.0, 200.0), 10.0);
        assert!(r.is_empty(), "old position must be gone");
    }

    #[test]
    fn remove_deletes_object() {
        let t = tree(64);
        t.upsert(still(1, 100.0, 100.0, 0.0));
        assert!(t.remove(UserId(1)));
        assert!(!t.remove(UserId(1)));
        assert!(t.is_empty());
    }

    #[test]
    fn static_range_query_exact() {
        let t = tree(128);
        for i in 0..20u64 {
            t.upsert(still(i, 50.0 * i as f64 + 25.0, 500.0, 0.0));
        }
        // Window covering x in [100, 300].
        let r = t.range_query(&Rect::new(100.0, 300.0, 400.0, 600.0), 10.0);
        let mut ids: Vec<u64> = r.iter().map(|m| m.uid.0).collect();
        ids.sort_unstable();
        // Objects at x = 125, 175, 225, 275 (i = 2..=5).
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn moving_object_found_at_predicted_position() {
        let t = tree(64);
        // Moving right at speed 2 from x=100: at tq=50 it is at x=200.
        let m = MovingPoint::new(UserId(1), Point::new(100.0, 500.0), Vec2::new(2.0, 0.0), 0.0);
        t.upsert(m);
        let hit = t.range_query(&Rect::new(180.0, 220.0, 480.0, 520.0), 50.0);
        assert_eq!(hit.len(), 1);
        // And NOT at its update-time position once it has moved on.
        let miss = t.range_query(&Rect::new(80.0, 120.0, 480.0, 520.0), 50.0);
        assert!(miss.is_empty());
    }

    #[test]
    fn query_window_enlargement_matches_fig2() {
        let t = tree(64);
        let r = Rect::new(400.0, 500.0, 400.0, 500.0);
        // t_lab one time unit after tq, max speed 3 -> grow by 3 on each side.
        let e = t.enlarge(&r, 6.0, 5.0);
        assert_eq!(e, Rect::new(397.0, 503.0, 397.0, 503.0));
        // Symmetric for labels before the query time.
        assert_eq!(t.enlarge(&r, 4.0, 5.0), e);
    }

    #[test]
    fn objects_in_different_partitions_are_all_found() {
        let t = tree(128);
        // Updates in three different phases land in three partitions.
        t.upsert(still(1, 100.0, 100.0, 10.0));
        t.upsert(still(2, 110.0, 110.0, 70.0));
        t.upsert(still(3, 120.0, 120.0, 130.0));
        assert_eq!(t.live_partitions().len(), 3);
        let r = t.range_query(&Rect::new(90.0, 130.0, 90.0, 130.0), 130.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn knn_basics() {
        let t = tree(128);
        for i in 0..50u64 {
            t.upsert(still(i, 20.0 * i as f64 + 10.0, 500.0, 0.0));
        }
        let q = Point::new(500.0, 500.0);
        let res = t.knn(q, 3, 10.0);
        assert_eq!(res.len(), 3);
        // Nearest are at x=490 (i=24), then x=510 (i=25), then x=470 (i=23).
        assert_eq!(res[0].0.uid.0, 24);
        assert!(res.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by distance");
    }

    #[test]
    fn knn_with_fewer_objects_than_k() {
        let t = tree(64);
        t.upsert(still(1, 100.0, 100.0, 0.0));
        t.upsert(still(2, 200.0, 200.0, 0.0));
        let res = t.knn(Point::new(0.0, 0.0), 5, 1.0);
        assert_eq!(res.len(), 2, "returns all objects when k exceeds population");
    }

    #[test]
    fn knn_distance_estimate_monotone() {
        assert!(estimated_knn_distance(1, 1000, 1000.0) < estimated_knn_distance(5, 1000, 1000.0));
        assert!(
            estimated_knn_distance(5, 10_000, 1000.0) < estimated_knn_distance(5, 1000, 1000.0),
            "denser data -> closer neighbors"
        );
        // k = n degenerates to the full-space constant.
        let d = estimated_knn_distance(100, 100, 1000.0);
        assert!((d - 2.0 / std::f64::consts::PI.sqrt() * 1000.0).abs() < 1e-9);
    }

    #[test]
    fn query_io_is_measured_through_pool() {
        let t = tree(8);
        for i in 0..5_000u64 {
            t.upsert(still(i, (i % 100) as f64 * 10.0 + 5.0, (i / 100) as f64 * 19.0 + 5.0, 0.0));
        }
        let pool = Arc::clone(t.pool());
        pool.clear();
        pool.reset_stats();
        let _ = t.range_query(&Rect::new(0.0, 250.0, 0.0, 250.0), 10.0);
        let io = pool.stats().physical_reads;
        assert!(io > 0, "cold query must do I/O");
        assert!(
            (io as usize) < t.index().page_count(),
            "range query touches a fraction of the tree ({io} pages)"
        );
    }

    #[test]
    fn fused_range_query_and_knn_match_per_interval() {
        // Provenance: the per-interval leg (one descent per partition ×
        // Z-range, uncoarsened) on this exact world, window and query
        // point, last measured at commit 0b72065, debug and release,
        // before the leg was deleted.
        const PER_INTERVAL_LOGICAL_READS: u64 = 42_173;
        const PER_INTERVAL_DESCENTS: u64 = 14_041;
        let t = tree(256);
        let mut objs = Vec::new();
        for i in 0..600u64 {
            let tu = if i % 3 == 0 { 70.0 } else { 10.0 }; // two partitions
            let m = still(i, (i % 60) as f64 * 16.0 + 3.0, (i / 60) as f64 * 95.0 + 3.0, tu);
            t.upsert(m);
            objs.push(m);
        }
        let pool = Arc::clone(t.pool());
        let r = Rect::new(120.0, 640.0, 80.0, 700.0);
        let q = Point::new(500.0, 480.0);

        let _ = t.range_query(&r, 80.0); // warm
        let _ = t.knn(q, 7, 80.0);
        pool.reset_stats();
        t.reset_scan_stats();
        let mut got: Vec<u64> = t.range_query(&r, 80.0).iter().map(|m| m.uid.0).collect();
        let got_knn: Vec<u64> = t.knn(q, 7, 80.0).iter().map(|(m, _)| m.uid.0).collect();
        let logical = pool.stats().logical_reads;
        let descents = t.scan_stats().descents;

        got.sort_unstable();
        let want: Vec<u64> =
            objs.iter().filter(|m| r.contains(&m.position_at(80.0))).map(|m| m.uid.0).collect();
        assert!(!want.is_empty());
        assert_eq!(got, want, "range query must match the linear scan");
        let mut dists: Vec<(f64, u64)> =
            objs.iter().map(|m| (m.position_at(80.0).dist(&q), m.uid.0)).collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want_knn: Vec<u64> = dists.iter().take(7).map(|(_, id)| *id).collect();
        assert_eq!(got_knn, want_knn, "kNN must match the brute-force ranking");
        assert!(
            logical < PER_INTERVAL_LOGICAL_READS,
            "logical reads {logical} not below the per-interval leg's"
        );
        assert!(
            descents * 2 <= PER_INTERVAL_DESCENTS,
            "descents {descents} vs the per-interval leg's"
        );
    }

    #[test]
    fn expire_removes_only_stale_partitions() {
        let space = SpaceConfig::new(1000.0, 10, 1440.0);
        let t =
            BxTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::new(120.0, 2), 3.0);
        // u1 updated at t=10 -> label 120; u2 updated at t=130 -> label 240.
        t.upsert(MovingPoint::new(UserId(1), Point::new(100.0, 100.0), Vec2::ZERO, 10.0));
        t.upsert(MovingPoint::new(UserId(2), Point::new(200.0, 200.0), Vec2::ZERO, 130.0));
        assert_eq!(t.live_partitions().len(), 2);

        // At now=200 the label-120 partition has expired; u1 never updated.
        let dropped = t.expire_stale(200.0);
        assert_eq!(dropped, 1);
        assert_eq!(t.len(), 1);
        assert!(t.get(UserId(1)).is_none());
        assert!(t.get(UserId(2)).is_some());
        assert_eq!(t.live_partitions().len(), 1);

        // Nothing more to expire.
        assert_eq!(t.expire_stale(200.0), 0);
    }

    #[test]
    fn expiry_does_not_unlink_freshly_updated_objects() {
        let space = SpaceConfig::new(1000.0, 10, 1440.0);
        let t =
            BxTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::new(120.0, 2), 3.0);
        t.upsert(MovingPoint::new(UserId(1), Point::new(100.0, 100.0), Vec2::ZERO, 10.0));
        // u1 updates in time: moves to the label-240 partition.
        t.upsert(MovingPoint::new(UserId(1), Point::new(150.0, 150.0), Vec2::ZERO, 130.0));
        assert_eq!(t.expire_stale(200.0), 0, "old entry was already replaced by the update");
        assert!(t.get(UserId(1)).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use peb_common::Vec2;
    use proptest::prelude::*;

    /// f32-representable coordinates so the on-disk record is lossless.
    fn coord() -> impl Strategy<Value = f64> {
        (0u32..4000).prop_map(|v| v as f64 * 0.25)
    }

    fn vel() -> impl Strategy<Value = f64> {
        (-8i32..=8).prop_map(|v| v as f64 * 0.25)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn range_query_matches_linear_scan_oracle(
            objs in proptest::collection::vec((coord(), coord(), vel(), vel(), 0u32..100), 1..120),
            qx in coord(), qy in coord(),
            w in 10u32..400, h in 10u32..400,
            tq_off in 0u32..120,
        ) {
            let space = SpaceConfig::new(1000.0, 10, 1440.0);
            let t = BxTree::new(
                Arc::new(BufferPool::new(256)),
                space,
                TimePartitioning::default(),
                3.0,
            );
            let mut oracle = Vec::new();
            for (i, (x, y, vx, vy, tu)) in objs.iter().enumerate() {
                let m = MovingPoint::new(
                    UserId(i as u64),
                    Point::new(*x, *y),
                    Vec2::new(*vx, *vy),
                    *tu as f64,
                );
                t.upsert(m);
                oracle.push(m);
            }
            let tq = 100.0 + tq_off as f64;
            let r = Rect::new(qx, (qx + w as f64).min(1000.0), qy, (qy + h as f64).min(1000.0));

            let mut got: Vec<u64> = t.range_query(&r, tq).iter().map(|m| m.uid.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = oracle
                .iter()
                .filter(|m| r.contains(&m.position_at(tq)))
                .map(|m| m.uid.0)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn knn_matches_brute_force(
            objs in proptest::collection::vec((coord(), coord(), vel(), vel()), 5..80),
            qx in coord(), qy in coord(),
            k in 1usize..6,
        ) {
            let space = SpaceConfig::new(1000.0, 10, 1440.0);
            let t = BxTree::new(
                Arc::new(BufferPool::new(256)),
                space,
                TimePartitioning::default(),
                3.0,
            );
            let mut oracle = Vec::new();
            for (i, (x, y, vx, vy)) in objs.iter().enumerate() {
                let m = MovingPoint::new(UserId(i as u64), Point::new(*x, *y), Vec2::new(*vx, *vy), 0.0);
                t.upsert(m);
                oracle.push(m);
            }
            let tq = 30.0;
            let q = Point::new(qx, qy);
            let got: Vec<u64> = t.knn(q, k, tq).iter().map(|(m, _)| m.uid.0).collect();

            let mut dists: Vec<(f64, u64)> = oracle
                .iter()
                .map(|m| (m.position_at(tq).dist(&q), m.uid.0))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<u64> = dists.iter().take(k).map(|(_, id)| *id).collect();
            prop_assert_eq!(got, want);
        }
    }
}
