//! The spatial-index baseline of Sec 4: answer the query as if it were
//! privacy-unaware using a Bx-tree, then filter the candidates by their
//! location-privacy policies. This is the approach the PEB-tree is
//! evaluated against throughout Sec 7.

use std::sync::Arc;

use peb_bx::BxTree;
use peb_common::{MovingPoint, Point, Rect, Timestamp, UserId};
use peb_policy::PolicyStore;

/// A Bx-tree with post-hoc policy filtering ("the commonly used filtering
/// approach to handle peer-wise privacy concerns").
pub struct SpatialBaseline {
    bx: BxTree,
}

impl SpatialBaseline {
    pub fn new(bx: BxTree) -> Self {
        SpatialBaseline { bx }
    }

    /// Access the underlying Bx-tree (updates go straight through).
    pub fn bx(&self) -> &BxTree {
        &self.bx
    }

    pub fn bx_mut(&mut self) -> &mut BxTree {
        &mut self.bx
    }

    pub fn upsert(&mut self, m: MovingPoint) {
        self.bx.upsert(m);
    }

    /// Batched update path (see [`BxTree::upsert_batch`]).
    pub fn upsert_batch(&self, updates: &[MovingPoint]) -> usize {
        self.bx.upsert_batch(updates)
    }

    pub fn remove(&mut self, uid: UserId) -> bool {
        self.bx.remove(uid)
    }

    pub fn len(&self) -> usize {
        self.bx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bx.is_empty()
    }

    pub fn pool(&self) -> &Arc<peb_storage::BufferPool> {
        self.bx.pool()
    }

    /// Locking counters of the underlying pool: how much of the read path
    /// ran lock-free (see [`peb_storage::LockStats`]).
    pub fn lock_stats(&self) -> peb_storage::LockStats {
        self.bx.lock_stats()
    }

    /// Switch the underlying Bx-tree between whole-shard exclusion and
    /// optimistic-lock-coupling writes (see [`BxTree::set_olc_writes`]);
    /// results are identical, updaters overlap queries.
    pub fn set_olc_writes(&mut self, enabled: bool) {
        self.bx.set_olc_writes(enabled);
    }

    /// Whether OLC writes are active.
    pub fn olc_writes(&self) -> bool {
        self.bx.olc_writes()
    }

    /// OLC contention counters summed across partitions (restarts and
    /// gate escalations; see [`peb_btree::OlcStats`]).
    pub fn olc_stats(&self) -> peb_btree::OlcStats {
        self.bx.olc_stats()
    }

    /// Switch the underlying Bx-tree's write-ahead-log durability
    /// protocol (see [`BxTree::set_durable`]); query results and the
    /// logical ledger are identical, only log traffic is added.
    pub fn set_durable(&mut self, enabled: bool) {
        self.bx.set_durable(enabled);
    }

    /// Whether the durability protocol is active.
    pub fn is_durable(&self) -> bool {
        self.bx.is_durable()
    }

    /// Checkpoint the underlying Bx-tree (see [`BxTree::checkpoint`]).
    pub fn checkpoint(&self) -> usize {
        self.bx.checkpoint()
    }

    /// Privacy-aware range query, filtering style: spatial query first,
    /// policy evaluation on everything retrieved. Sorted by uid.
    pub fn prq(
        &self,
        store: &PolicyStore,
        issuer: UserId,
        r: &Rect,
        tq: Timestamp,
    ) -> Vec<MovingPoint> {
        let mut out: Vec<MovingPoint> = self
            .bx
            .range_query(r, tq)
            .into_iter()
            .filter(|m| m.uid != issuer && store.permits(m.uid, issuer, &m.position_at(tq), tq))
            .collect();
        out.sort_by_key(|m| m.uid);
        out
    }

    /// Privacy-aware kNN, filtering style: iteratively enlarged spatial
    /// range queries; after each round the candidates are policy-filtered,
    /// and the search widens until k *qualified* users fall inside the
    /// round's inscribed circle (mirroring the Bx kNN loop of Sec 2.1 with
    /// the filter applied to its intermediate results).
    pub fn pknn(
        &self,
        store: &PolicyStore,
        issuer: UserId,
        q: Point,
        k: usize,
        tq: Timestamp,
    ) -> Vec<(MovingPoint, f64)> {
        if k == 0 || self.bx.is_empty() {
            return Vec::new();
        }
        let n = self.bx.len();
        let rq = (self.bx.estimated_knn_distance(k, n) / k as f64)
            .max(self.bx.space().cell_size() * peb_bx::tree::KNN_STEP_FLOOR_CELLS);
        let max_radius = self.bx.space().side * 4.0;

        // Each round only scans the ring R'_qi − R'_q(i−1); candidates and
        // their policy verdicts accumulate across rounds.
        let mut scanned: std::collections::HashMap<u8, peb_zorder::IntervalSet> =
            std::collections::HashMap::new();
        let mut qualified: Vec<(MovingPoint, f64)> = Vec::new();
        let mut seen: std::collections::HashSet<UserId> = std::collections::HashSet::new();
        let mut radius = rq;
        loop {
            let window = Rect::square(q, 2.0 * radius);
            self.bx.for_each_new_candidate(&window, tq, &mut scanned, |m| {
                if m.uid == issuer || !seen.insert(m.uid) {
                    return;
                }
                let pos = m.position_at(tq);
                if store.permits(m.uid, issuer, &pos, tq) {
                    qualified.push((m, pos.dist(&q)));
                }
            });
            let in_circle = qualified.iter().filter(|(_, d)| *d <= radius).count();
            if in_circle >= k || radius >= max_radius {
                qualified.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
                qualified.truncate(k);
                return qualified;
            }
            radius += rq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_bx::TimePartitioning;
    use peb_common::{SpaceConfig, TimeInterval, Vec2};
    use peb_policy::{Policy, RoleId};
    use peb_storage::BufferPool;

    const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
    const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };

    fn still(uid: u64, x: f64, y: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, 0.0)
    }

    fn baseline() -> SpatialBaseline {
        SpatialBaseline::new(BxTree::new(
            Arc::new(BufferPool::new(64)),
            SpaceConfig::default(),
            TimePartitioning::default(),
            3.0,
        ))
    }

    #[test]
    fn prq_filters_after_spatial_retrieval() {
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        let mut b = baseline();
        b.upsert(still(1, 100.0, 100.0)); // friend in range
        b.upsert(still(2, 105.0, 105.0)); // stranger in range
        let got = b.prq(&store, UserId(0), &Rect::new(50.0, 150.0, 50.0, 150.0), 10.0);
        assert_eq!(got.iter().map(|m| m.uid.0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn pknn_keeps_searching_past_unqualified_neighbors() {
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(9), RoleId::FRIEND, WHOLE, ALWAYS));
        let mut b = baseline();
        for i in 1..=8u64 {
            b.upsert(still(i, 500.0 + i as f64, 500.0)); // strangers nearby
        }
        b.upsert(still(9, 800.0, 800.0)); // far friend
        let res = b.pknn(&store, UserId(0), Point::new(500.0, 500.0), 1, 10.0);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0.uid.0, 9);
    }

    #[test]
    fn pknn_empty_when_nobody_qualifies() {
        let store = PolicyStore::new();
        let mut b = baseline();
        b.upsert(still(1, 100.0, 100.0));
        assert!(b.pknn(&store, UserId(0), Point::new(0.0, 0.0), 2, 10.0).is_empty());
    }
}
