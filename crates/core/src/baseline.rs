//! The spatial-index baseline of Sec 4: answer the query as if it were
//! privacy-unaware using a Bx-tree, then filter the candidates by their
//! location-privacy policies. This is the approach the PEB-tree is
//! evaluated against throughout Sec 7.

use peb_bx::BxTree;
use peb_common::{MovingPoint, Point, Rect, Timestamp, UserId};
use peb_policy::PolicyStore;

/// A Bx-tree with post-hoc policy filtering ("the commonly used filtering
/// approach to handle peer-wise privacy concerns"). Derefs to the
/// [`BxTree`] (and through it to the shared index) for everything that is
/// not a privacy-aware query.
pub struct SpatialBaseline {
    bx: BxTree,
}

impl std::ops::Deref for SpatialBaseline {
    type Target = BxTree;

    fn deref(&self) -> &BxTree {
        &self.bx
    }
}

impl SpatialBaseline {
    pub fn new(bx: BxTree) -> Self {
        SpatialBaseline { bx }
    }

    /// Insert or update an object. The one forwarder with a narrower
    /// receiver than the index's `upsert(&self)`: the benchmark adapter
    /// (`e2e/`, not editable by engine PRs) holds its baseline as `let mut`.
    pub fn upsert(&mut self, m: MovingPoint) {
        self.bx.upsert(m);
    }

    /// Switch the underlying Bx-tree's write-ahead-log durability
    /// protocol (see [`BxTree::set_durable`]); `&mut self`, and the
    /// handle derefs immutably only.
    pub fn set_durable(&mut self, enabled: bool) {
        self.bx.set_durable(enabled);
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

    /// Privacy-aware kNN, filtering style: the Bx kNN ring loop of Sec 2.1
    /// ([`BxTree::try_knn_where`]) with the policy filter applied to its
    /// intermediate results — the search widens until k *qualified* users
    /// fall inside the round's inscribed circle.
    pub fn pknn(
        &self,
        store: &PolicyStore,
        issuer: UserId,
        q: Point,
        k: usize,
        tq: Timestamp,
    ) -> Vec<(MovingPoint, f64)> {
        self.bx
            .try_knn_where(q, k, tq, |m, pos| {
                m.uid != issuer && store.permits(m.uid, issuer, pos, tq)
            })
            .unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_bx::TimePartitioning;
    use peb_common::{SpaceConfig, TimeInterval, Vec2};
    use peb_policy::{Policy, RoleId};
    use peb_storage::BufferPool;
    use std::sync::Arc;

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
