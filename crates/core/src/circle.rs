//! Privacy-aware within-distance query (PWD) — one of the "other types of
//! location-based queries" the paper's conclusion calls for.
//!
//! `PWD = (qID, qLoc, radius, tq)` retrieves every user within `radius` of
//! `qLoc` at `tq` whose policy lets `qID` see them there and then. It is
//! the circular counterpart of PRQ and the building block of proximity
//! alerts ("tell me when a friend is within 500 m").
//!
//! Implementation: the circle's bounding square runs through the PRQ
//! machinery (friend-SV × Z-interval key ranges), and the refinement step
//! additionally checks the Euclidean distance — so the privacy-first
//! pruning of the PEB-tree carries over unchanged.

use peb_common::{MovingPoint, Point, Rect, Timestamp, UserId};
use peb_index::IndexError;
use peb_policy::PolicyStore;

use crate::baseline::SpatialBaseline;
use crate::tree::PebTree;

impl PebTree {
    /// All users within `radius` of `center` at `tq` that `issuer` may
    /// see, sorted by distance (ties by uid).
    pub fn pwd(
        &self,
        issuer: UserId,
        center: Point,
        radius: f64,
        tq: Timestamp,
    ) -> Vec<(MovingPoint, f64)> {
        self.try_pwd(issuer, center, radius, tq)
            .unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`PebTree::pwd`]: an unresolvable media fault in
    /// the underlying range query surfaces as [`IndexError::Io`] instead
    /// of panicking.
    pub fn try_pwd(
        &self,
        issuer: UserId,
        center: Point,
        radius: f64,
        tq: Timestamp,
    ) -> Result<Vec<(MovingPoint, f64)>, IndexError> {
        assert!(radius >= 0.0);
        let bbox = Rect::square(center, 2.0 * radius);
        let mut out: Vec<(MovingPoint, f64)> = self
            .try_prq(issuer, &bbox, tq)?
            .into_iter()
            .filter_map(|m| {
                let d = m.position_at(tq).dist(&center);
                (d <= radius).then_some((m, d))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
        Ok(out)
    }
}

impl SpatialBaseline {
    /// Filtering-style within-distance query, for comparison.
    pub fn pwd(
        &self,
        store: &PolicyStore,
        issuer: UserId,
        center: Point,
        radius: f64,
        tq: Timestamp,
    ) -> Vec<(MovingPoint, f64)> {
        assert!(radius >= 0.0);
        let bbox = Rect::square(center, 2.0 * radius);
        let mut out: Vec<(MovingPoint, f64)> = self
            .prq(store, issuer, &bbox, tq)
            .into_iter()
            .filter_map(|m| {
                let d = m.position_at(tq).dist(&center);
                (d <= radius).then_some((m, d))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.uid.cmp(&b.0.uid)));
        out
    }
}

/// Brute-force reference for PWD.
pub fn oracle_pwd(
    users: &[MovingPoint],
    store: &PolicyStore,
    issuer: UserId,
    center: Point,
    radius: f64,
    tq: Timestamp,
) -> Vec<UserId> {
    let mut hits: Vec<(f64, UserId)> = users
        .iter()
        .filter(|m| m.uid != issuer)
        .filter_map(|m| {
            let pos = m.position_at(tq);
            let d = pos.dist(&center);
            (d <= radius && store.permits(m.uid, issuer, &pos, tq)).then_some((d, m.uid))
        })
        .collect();
    hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    hits.into_iter().map(|(_, uid)| uid).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PrivacyContext;
    use peb_bx::TimePartitioning;
    use peb_common::{SpaceConfig, TimeInterval, Vec2};
    use peb_policy::{Policy, RoleId, SvAssignmentParams};
    use peb_storage::BufferPool;
    use std::sync::Arc;

    const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
    const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };

    fn still(uid: u64, x: f64, y: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, 0.0)
    }

    fn build(n_friends: u64) -> PebTree {
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        for o in 1..=n_friends {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let ctx = Arc::new(PrivacyContext::build(
            store,
            space,
            n_friends as usize + 2,
            SvAssignmentParams::default(),
        ));
        PebTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::default(), 3.0, ctx)
    }

    #[test]
    fn circle_excludes_bounding_square_corners() {
        let t = build(4);
        t.upsert(still(1, 500.0, 500.0)); // center
        t.upsert(still(2, 570.0, 500.0)); // inside circle (d = 70)
        t.upsert(still(3, 565.0, 565.0)); // corner of square, d ≈ 92 > 80
        t.upsert(still(4, 700.0, 700.0)); // far outside
        let got = t.pwd(UserId(0), Point::new(500.0, 500.0), 80.0, 10.0);
        let ids: Vec<u64> = got.iter().map(|(m, _)| m.uid.0).collect();
        assert_eq!(ids, vec![1, 2], "corner point must be filtered by the circle");
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn zero_radius_matches_exact_position_only() {
        let t = build(2);
        t.upsert(still(1, 500.0, 500.0));
        t.upsert(still(2, 500.25, 500.0));
        let got = t.pwd(UserId(0), Point::new(500.0, 500.0), 0.0, 10.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 0.0);
    }

    #[test]
    fn matches_oracle_on_small_world() {
        let t = build(30);
        let mut users = Vec::new();
        for i in 1..=30u64 {
            let m = MovingPoint::new(
                UserId(i),
                Point::new((i * 37 % 100) as f64 * 10.0, (i * 61 % 100) as f64 * 10.0),
                Vec2::new(0.5, -0.25),
                0.0,
            );
            t.upsert(m);
            users.push(m);
        }
        let center = Point::new(430.0, 510.0);
        for radius in [50.0, 150.0, 400.0] {
            let got: Vec<UserId> =
                t.pwd(UserId(0), center, radius, 25.0).iter().map(|(m, _)| m.uid).collect();
            let want = oracle_pwd(&users, &t.context().store, UserId(0), center, radius, 25.0);
            assert_eq!(got, want, "radius {radius}");
        }
    }
}
