//! The privacy-aware range query (PRQ) of Sec 5.3 / Fig 7.
//!
//! Three small things multiplied together, per live time partition:
//!
//! 1. **Location ranges** — enlarge the query rectangle Bx-style and
//!    convert it to Z-curve intervals (`ZVconvert`), kept to the cost
//!    model's interval budget: [`peb_zorder::cover`] walks the quadtree
//!    only until the budget's worth of gaps is known, so the hundreds of
//!    raw ranges of a window are never materialised.
//! 2. **Policy ranges** — the issuer's own friend list, i.e. the SV codes
//!    of users who have a policy toward the issuer, ascending, read
//!    straight off the sorted list into the query's friend table
//!    (`Friends`: SV groups with their missing counts, listed uids by
//!    bisection). Equal SV codes form one group, so no row is scanned
//!    twice.
//! 3. **One scan** — the key ranges are the cross product
//!    `[TID ⊕ SV ⊕ ZVs ; TID ⊕ SV ⊕ ZVe]` (the paper's worked example
//!    enumerates exactly these), and they stay factors:
//!    [`ScanPlan::product`] takes the unresolved groups' SV rows
//!    `[TID ⊕ SV ⊕ 0 ; TID ⊕ SV ⊕ max]` and the Z-ranges as offsets
//!    into a row, `groups + ranges` pairs for `groups × ranges` runs. The
//!    runs say which leaves are read; the rows say what a page in hand
//!    may answer for — a page read for one Z-range answers for every
//!    friend row it holds.
//!
//! Refinement runs inside the scan. The friend table drops a record that
//! is not on the issuer's list before anything else is asked. The moment
//! a friend is seen anywhere, its location is known ("a user has only one
//! location"), so a group whose friends are all located answers `SkipRow`
//! and its remaining Z-ranges are never navigated. A located friend is
//! returned only if the predicted position lies in `R` *and* the live
//! policy store permits the issuer to see them there and then.

use peb_btree::{ScanPlan, ScanTermination};
use peb_common::{Deadline, MovingPoint, Rect, Timestamp, UserId};
use peb_index::IndexError;
use peb_zorder::cover;

use crate::friends::Friends;
use crate::partial::Partial;
use crate::tree::PebTree;

impl PebTree {
    /// Definition 2: all users inside `r` at `tq` whose policy lets
    /// `issuer` see them there and then. Results are sorted by uid.
    ///
    /// One scan per live partition over all unresolved friend rows — see
    /// the module docs and docs/ARCHITECTURE.md, "Query execution".
    pub fn prq(&self, issuer: UserId, r: &Rect, tq: Timestamp) -> Vec<MovingPoint> {
        self.try_prq(issuer, r, tq).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`PebTree::prq`]: [`PebTree::try_prq_deadline`]
    /// under a deadline that never expires, so an unresolvable media
    /// fault anywhere in the scans surfaces as [`IndexError::Io`] instead
    /// of panicking.
    pub fn try_prq(
        &self,
        issuer: UserId,
        r: &Rect,
        tq: Timestamp,
    ) -> Result<Vec<MovingPoint>, IndexError> {
        let unbounded = Deadline::unbounded(self.pool().clock());
        Ok(self.try_prq_deadline(issuer, r, tq, &unbounded)?.value)
    }

    /// Deadline-bounded PRQ: the query plan itself, and the
    /// graceful-degradation entry point of the serving layer.
    ///
    /// Runs one plan scan per live partition with `deadline` checked at
    /// every page visit. Per partition the enlarged window is covered by
    /// at most the cost model's interval budget of Z-ranges
    /// ([`peb_costmodel::interval_budget`] — more ranges than the
    /// candidates' leaves cannot pay for themselves); a group located in
    /// an earlier partition contributes no row to a later one, and a
    /// partition with nobody left to find is not scanned at all.
    /// Refinement is the paper's — a candidate outside the window,
    /// whether it came from a coarsened-in cell or from the rest of its SV
    /// row on a page in hand, fails the `r.contains` check like any other
    /// enlargement false positive — so the result set is exactly
    /// Definition 2's.
    ///
    /// A query whose budget expires mid-flight returns early with
    /// whatever it has **proved**: [`Partial::value`] is always an exact
    /// subset of the unbounded answer, and the [`Partial::partitions`]
    /// tags say which rotating time partitions were fully covered before
    /// the budget died. With an unbounded (or unexpired-throughout)
    /// deadline every partition is tagged complete.
    ///
    /// A window no point can lie in — reversed or NaN bounds — and a NaN
    /// query time (no policy interval contains it) have the empty answer
    /// by Definition 2: complete, at zero I/O.
    pub fn try_prq_deadline(
        &self,
        issuer: UserId,
        r: &Rect,
        tq: Timestamp,
        deadline: &Deadline,
    ) -> Result<Partial<Vec<MovingPoint>>, IndexError> {
        let parts = self.live_partitions();
        let mut friends = Friends::new(&self.ctx().friends, issuer);
        let well_formed = r.xl <= r.xu && r.yl <= r.yu && !tq.is_nan();
        if friends.all_done() || !well_formed {
            // No friends (or no such place or time) means no I/O: the
            // empty answer is complete even on an already-expired budget.
            return Ok(Partial::complete(Vec::new(), parts.iter().map(|(t, _)| *t)));
        }
        let budget = self.query_interval_budget(friends.listed());
        let keys = *self.key_layout();

        let mut results: Vec<MovingPoint> = Vec::new();
        let mut partitions: Vec<(u8, bool)> = Vec::with_capacity(parts.len());
        for (tid, t_lab) in parts {
            if deadline.expired() {
                partitions.push((tid, false));
                continue;
            }
            if friends.all_done() {
                partitions.push((tid, true)); // nobody left to find here
                continue;
            }
            let enlarged = self.enlarge(r, t_lab, tq);
            let (x0, x1, y0, y1) = self.space().to_grid_rect(&enlarged);
            // Unresolved rows × the window's ranges, kept as factors: a
            // Z-range is the same offset into every SV row.
            let rows = (0..friends.groups())
                .filter(|&g| !friends.group_done(g))
                .map(|g| self.sv_row(tid, friends.sv_code(g)))
                .collect();
            let offsets = cover(x0, x1, y0, y1, self.space().grid_bits, budget)
                .iter()
                .map(|zr| (keys.range_start(0, 0, zr.lo), keys.range_end(0, 0, zr.hi)))
                .collect();
            let plan = ScanPlan::product(rows, offsets);
            let report = self.index().try_scan_plan(&plan, deadline, |key, rec| {
                let uid = UserId(rec.uid);
                // Only the issuer's listed friends can qualify; whoever
                // else shares the SV row is dropped by the table, and the
                // live store has the last word on the rest.
                if friends.locate(uid) {
                    let m = rec.to_moving_point();
                    let pos = m.position_at(tq);
                    if r.contains(&pos) && self.ctx().store.permits(uid, issuer, &pos, tq) {
                        results.push(m);
                    }
                }
                friends.verdict(keys.sv_of(key))
            })?;
            // A partition whose scan ran out (or stopped with everyone
            // located) is complete even if the budget expired on its very
            // last page.
            partitions.push((tid, report.termination != ScanTermination::Expired));
        }
        results.sort_by_key(|m| m.uid);
        Ok(Partial { value: results, partitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PrivacyContext;
    use crate::oracle::oracle_prq;
    use peb_bx::TimePartitioning;
    use peb_common::{Point, SpaceConfig, TimeInterval, Vec2};
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
    fn returns_only_policy_qualified_users_in_range() {
        let mut store = PolicyStore::new();
        // u1 and u2 grant issuer u0 everywhere/always; u3 does not.
        for o in [1u64, 2] {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 4);
        t.upsert(still(1, 100.0, 100.0)); // friend, in range
        t.upsert(still(2, 900.0, 900.0)); // friend, out of range
        t.upsert(still(3, 105.0, 105.0)); // non-friend, in range
        let got = t.prq(UserId(0), &Rect::new(50.0, 150.0, 50.0, 150.0), 10.0);
        assert_eq!(got.iter().map(|m| m.uid.0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn policy_region_and_interval_are_enforced() {
        let mut store = PolicyStore::new();
        // u1 only visible inside [0,200]^2 during [0,100].
        store.add(
            UserId(0),
            Policy::new(
                UserId(1),
                RoleId::FRIEND,
                Rect::new(0.0, 200.0, 0.0, 200.0),
                TimeInterval::new(0.0, 100.0),
            ),
        );
        let t = build(store, 2);
        t.upsert(still(1, 100.0, 100.0));
        let window = Rect::new(0.0, 300.0, 0.0, 300.0);
        assert_eq!(t.prq(UserId(0), &window, 50.0).len(), 1, "inside locr and tint");
        assert_eq!(t.prq(UserId(0), &window, 150.0).len(), 0, "outside tint");

        // Move u1 outside its own policy region but inside the window.
        t.upsert(MovingPoint::new(UserId(1), Point::new(250.0, 250.0), Vec2::ZERO, 60.0));
        assert_eq!(t.prq(UserId(0), &window, 70.0).len(), 0, "outside locr");
    }

    #[test]
    fn empty_friend_list_short_circuits() {
        let t = build(PolicyStore::new(), 3);
        t.upsert(still(1, 100.0, 100.0));
        t.upsert(still(2, 110.0, 110.0));
        let pool = Arc::clone(t.pool());
        pool.clear();
        pool.reset_stats();
        assert!(t.prq(UserId(0), &WHOLE, 10.0).is_empty());
        assert_eq!(pool.stats().physical_reads, 0, "no friends means zero index I/O");
    }

    #[test]
    fn moving_friend_found_at_predicted_position() {
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        let t = build(store, 2);
        // u1 moves right at speed 2 from x = 100; at tq = 50 it is at 200.
        t.upsert(MovingPoint::new(UserId(1), Point::new(100.0, 500.0), Vec2::new(2.0, 0.0), 0.0));
        let hit = t.prq(UserId(0), &Rect::new(180.0, 220.0, 480.0, 520.0), 50.0);
        assert_eq!(hit.len(), 1);
        let miss = t.prq(UserId(0), &Rect::new(80.0, 120.0, 480.0, 520.0), 50.0);
        assert!(miss.is_empty());
    }

    #[test]
    fn fused_prq_is_identical_and_cheaper() {
        // The plan returns the oracle's result set while spending fewer
        // logical page accesses and at most half the descents of the
        // paper's literal per-interval formulation.
        // Provenance: the per-interval leg (one descent per partition × SV
        // group × Z-range) on this exact world and window, last measured at
        // commit 0b72065, debug and release, before the leg was deleted.
        const PER_INTERVAL_LOGICAL_READS: u64 = 1254;
        const PER_INTERVAL_DESCENTS: u64 = 627;
        let mut store = PolicyStore::new();
        for o in 1..80u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 80);
        let mut indexed = Vec::new();
        for o in 1..80u64 {
            let m = still(o, (o as f64 * 131.0) % 1000.0, (o as f64 * 47.0) % 1000.0);
            t.upsert(m);
            indexed.push(m);
        }
        let window = Rect::new(150.0, 650.0, 100.0, 700.0);
        let pool = Arc::clone(t.pool());

        let _ = t.prq(UserId(0), &window, 10.0); // warm any coarsened-in pages
        pool.reset_stats();
        t.reset_scan_stats();
        let fused = t.prq(UserId(0), &window, 10.0);
        let fused_logical = pool.stats().logical_reads;
        let fused_scans = t.scan_stats();

        let want = oracle_prq(&indexed, &t.context().store, UserId(0), &window, 10.0);
        assert_eq!(fused.iter().map(|m| m.uid).collect::<Vec<_>>(), want);
        assert!(!fused.is_empty(), "the window must actually match friends");
        assert!(
            fused_logical < PER_INTERVAL_LOGICAL_READS,
            "logical reads {fused_logical} not below the per-interval leg's"
        );
        assert!(
            fused_scans.descents * 2 <= PER_INTERVAL_DESCENTS,
            "descents {} vs the per-interval leg's",
            fused_scans.descents
        );
    }

    #[test]
    fn fused_prq_skips_groups_resolved_in_earlier_partitions() {
        // Two friends with different policies (distinct SV groups), living
        // in different time partitions. The plan issues one scan — one
        // descent — per partition over the groups still unresolved; the
        // group located in the first partition contributes no runs to the
        // second, and once nobody is left to find a partition is not
        // entered at all.
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        store.add(
            UserId(0),
            Policy::new(
                UserId(2),
                RoleId::FRIEND,
                Rect::new(0.0, 900.0, 0.0, 900.0),
                TimeInterval::new(0.0, 1000.0),
            ),
        );
        let t = build(store, 4);
        let groups = t.context().friend_sv_groups(UserId(0));
        assert_eq!(groups.len(), 2, "distinct policies must map to distinct SV groups");
        // One friend per rotation phase → two live partitions.
        let mut indexed = vec![
            MovingPoint::new(UserId(1), Point::new(100.0, 100.0), Vec2::ZERO, 10.0),
            MovingPoint::new(UserId(2), Point::new(120.0, 120.0), Vec2::ZERO, 70.0),
        ];
        t.upsert(indexed[0]);
        t.upsert(indexed[1]);
        assert_eq!(t.live_partitions().len(), 2);

        let window = Rect::new(0.0, 300.0, 0.0, 300.0);
        let descents = |t: &PebTree, indexed: &[MovingPoint]| {
            let _ = t.prq(UserId(0), &window, 40.0); // warm the pool
            t.reset_scan_stats();
            let got: Vec<UserId> = t.prq(UserId(0), &window, 40.0).iter().map(|m| m.uid).collect();
            let want = oracle_prq(indexed, &t.context().store, UserId(0), &window, 40.0);
            assert_eq!(got, want, "the early exit must not change results");
            assert_eq!(got, vec![UserId(1), UserId(2)]);
            t.scan_stats().descents
        };
        // A friend in each partition: one descent per partition (the
        // per-group plan paid 2 × 2 − 1 = 3).
        assert_eq!(descents(&t, &indexed), 2, "one scan per live partition");

        // Both friends in the first partition, the second kept alive by a
        // stranger: everyone is located by the first scan, so the second
        // partition costs nothing.
        indexed[1] = MovingPoint::new(UserId(2), Point::new(120.0, 120.0), Vec2::ZERO, 10.0);
        indexed.push(MovingPoint::new(UserId(3), Point::new(130.0, 130.0), Vec2::ZERO, 70.0));
        t.upsert(indexed[1]);
        t.upsert(indexed[2]);
        assert_eq!(t.live_partitions().len(), 2);
        assert_eq!(descents(&t, &indexed), 1, "a partition with nobody left to find is skipped");
    }

    #[test]
    fn unbounded_deadline_prq_is_the_plain_prq() {
        let mut store = PolicyStore::new();
        for o in 1..60u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 60);
        for o in 1..60u64 {
            let tu = if o % 2 == 0 { 10.0 } else { 70.0 }; // two live partitions
            t.upsert(MovingPoint::new(
                UserId(o),
                Point::new((o as f64 * 131.0) % 1000.0, (o as f64 * 47.0) % 1000.0),
                Vec2::ZERO,
                tu,
            ));
        }
        let full = t.try_prq(UserId(0), &WHOLE, 80.0).unwrap();
        assert!(!full.is_empty());
        let clock = t.pool().clock().clone();
        let part =
            t.try_prq_deadline(UserId(0), &WHOLE, 80.0, &Deadline::unbounded(&clock)).unwrap();
        assert!(part.is_complete());
        assert_eq!(part.partitions.len(), t.live_partitions().len());
        assert_eq!(part.value, full, "an unexpired deadline changes nothing");
    }

    #[test]
    fn expired_prq_returns_an_exact_subset_tagged_incomplete() {
        let mut store = PolicyStore::new();
        for o in 1..60u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
        }
        let t = build(store, 60);
        for o in 1..60u64 {
            let tu = if o % 2 == 0 { 10.0 } else { 70.0 };
            t.upsert(MovingPoint::new(
                UserId(o),
                Point::new((o as f64 * 131.0) % 1000.0, (o as f64 * 47.0) % 1000.0),
                Vec2::ZERO,
                tu,
            ));
        }
        let full = t.try_prq(UserId(0), &WHOLE, 80.0).unwrap(); // also warms the pool
        assert!(full.len() > 10);
        let clock = t.pool().clock().clone();

        // Degradation is monotone in the budget: every partial answer is
        // an exact subset of the full one, and a complete tag means the
        // full answer verbatim.
        let mut prev_len = 0usize;
        let mut saw_incomplete = false;
        for budget in [0u64, 1, 2, 4, 8, 16, 32, 64, 128, 1 << 20] {
            let p = t
                .try_prq_deadline(UserId(0), &WHOLE, 80.0, &Deadline::after(&clock, budget))
                .unwrap();
            for m in &p.value {
                assert!(full.contains(m), "partial answers never fabricate: {:?}", m.uid);
            }
            if p.is_complete() {
                assert_eq!(p.value, full, "a complete tag must mean the complete answer");
            } else {
                saw_incomplete = true;
                assert!(p.complete_partitions() < p.partitions.len());
            }
            assert!(p.value.len() >= prev_len.min(full.len()), "more budget, no fewer answers");
            prev_len = p.value.len();
        }
        assert!(saw_incomplete, "tiny budgets must actually expire");

        // The generous budget at the end completed; zero budget serves
        // nothing but says so honestly.
        let p = t.try_prq_deadline(UserId(0), &WHOLE, 80.0, &Deadline::after(&clock, 0)).unwrap();
        assert!(!p.is_complete());
        assert!(p.value.is_empty());
        assert!(p.partitions.iter().all(|(_, c)| !*c));
    }

    #[test]
    fn issuer_never_appears_in_own_results() {
        let mut store = PolicyStore::new();
        // Mutual grants between 0 and 1 so both have friend lists.
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        store.add(UserId(1), Policy::new(UserId(0), RoleId::FRIEND, WHOLE, ALWAYS));
        let t = build(store, 2);
        t.upsert(still(0, 100.0, 100.0));
        t.upsert(still(1, 101.0, 101.0));
        let got = t.prq(UserId(0), &WHOLE, 10.0);
        assert_eq!(got.iter().map(|m| m.uid.0).collect::<Vec<_>>(), vec![1]);
    }
}
