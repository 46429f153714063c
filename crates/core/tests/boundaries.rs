//! Adversarial boundary cases for the PEB-tree query algorithms: values
//! exactly on window/policy/time edges, SV-code collisions, and grid-cell
//! straddling — the places where off-by-one bugs live.

use std::sync::Arc;

use pebtree::{PebTree, PrivacyContext};

use peb_index::IndexError;

use peb_bx::TimePartitioning;
use peb_common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_storage::BufferPool;

const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };

fn still(uid: u64, x: f64, y: f64) -> MovingPoint {
    MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, 0.0)
}

fn tree_with(store: PolicyStore, n: usize) -> PebTree {
    let space = SpaceConfig::default();
    let ctx = Arc::new(PrivacyContext::build(store, space, n, SvAssignmentParams::default()));
    PebTree::new(Arc::new(BufferPool::new(50)), space, TimePartitioning::default(), 3.0, ctx)
}

#[test]
fn user_exactly_on_window_edges_is_included() {
    let mut store = PolicyStore::new();
    for o in 1..=4u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 5);
    // Friends parked precisely on each edge of the closed query window.
    t.upsert(still(1, 200.0, 300.0)); // left edge
    t.upsert(still(2, 400.0, 500.0)); // right edge
    t.upsert(still(3, 300.0, 300.0)); // bottom edge
    t.upsert(still(4, 300.0, 500.0)); // top edge
    let w = Rect::new(200.0, 400.0, 300.0, 500.0);
    let got = t.prq(UserId(0), &w, 10.0);
    assert_eq!(got.len(), 4, "closed window must include all edge positions");
}

#[test]
fn policy_boundary_instants_and_positions() {
    let mut store = PolicyStore::new();
    let region = Rect::new(100.0, 200.0, 100.0, 200.0);
    store.add(
        UserId(0),
        Policy::new(UserId(1), RoleId::FRIEND, region, TimeInterval::new(50.0, 60.0)),
    );
    let t = tree_with(store, 2);
    // Exactly on the policy region's corner.
    t.upsert(still(1, 200.0, 200.0));
    let w = Rect::new(0.0, 500.0, 0.0, 500.0);
    assert_eq!(t.prq(UserId(0), &w, 60.0).len(), 1, "tint end instant is inclusive");
    assert_eq!(t.prq(UserId(0), &w, 60.0001).len(), 0, "just past tint end");
    assert_eq!(t.prq(UserId(0), &w, 50.0).len(), 1, "tint start instant");
}

#[test]
fn sv_code_collisions_do_not_hide_friends() {
    // Users in one tight group with identical pairwise compatibility get
    // identical sequence values; the uid suffix must keep them separable.
    let mut store = PolicyStore::new();
    for o in 1..=6u64 {
        // All six friends grant user 0 under identical full-volume policies
        // and also each other (mutual, C identical).
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 7);
    let ctx = Arc::clone(t.context());
    // Verify the collision actually exists (otherwise the test is vacuous).
    let codes: std::collections::HashSet<u64> =
        (1..=6u64).map(|o| ctx.sv_code(UserId(o))).collect();
    assert!(codes.len() < 6, "expected at least one shared SV code, got {codes:?}");

    for o in 1..=6u64 {
        t.upsert(still(o, 100.0 + 10.0 * o as f64, 400.0));
    }
    let got = t.prq(UserId(0), &Rect::new(0.0, 1000.0, 0.0, 1000.0), 10.0);
    assert_eq!(got.len(), 6, "every friend sharing an SV code must be found");
}

#[test]
fn friends_straddling_grid_cell_boundaries() {
    let mut store = PolicyStore::new();
    for o in 1..=2u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 3);
    // cell ≈ 0.9766: one friend just below a cell boundary, one just above.
    let cell = SpaceConfig::default().cell_size();
    t.upsert(still(1, cell * 512.0 - 1e-9, 500.0));
    t.upsert(still(2, cell * 512.0 + 1e-9, 500.0));
    let w = Rect::new(cell * 511.0, cell * 513.0, 400.0, 600.0);
    let got = t.prq(UserId(0), &w, 10.0);
    assert_eq!(got.len(), 2);
}

#[test]
fn pknn_with_k_equal_to_friend_count_and_beyond() {
    let mut store = PolicyStore::new();
    for o in 1..=3u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 4);
    for o in 1..=3u64 {
        t.upsert(still(o, 100.0 * o as f64, 500.0));
    }
    let q = Point::new(0.0, 500.0);
    assert_eq!(t.pknn(UserId(0), q, 3, 10.0).len(), 3, "k == qualified count");
    assert_eq!(t.pknn(UserId(0), q, 10, 10.0).len(), 3, "k > qualified count");
    assert_eq!(t.pknn(UserId(0), q, 0, 10.0).len(), 0, "k == 0");
}

#[test]
fn pknn_ties_break_deterministically() {
    let mut store = PolicyStore::new();
    for o in 1..=4u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 5);
    // Four friends at identical distance from the query point.
    t.upsert(still(1, 600.0, 500.0));
    t.upsert(still(2, 400.0, 500.0));
    t.upsert(still(3, 500.0, 600.0));
    t.upsert(still(4, 500.0, 400.0));
    let got: Vec<u64> =
        t.pknn(UserId(0), Point::new(500.0, 500.0), 2, 10.0).iter().map(|(m, _)| m.uid.0).collect();
    assert_eq!(got, vec![1, 2], "equal distances break ties by uid");
}

#[test]
fn query_window_larger_than_space() {
    let mut store = PolicyStore::new();
    store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
    let t = tree_with(store, 2);
    t.upsert(still(1, 999.0, 999.0));
    let w = Rect::new(-500.0, 1500.0, -500.0, 1500.0);
    assert_eq!(t.prq(UserId(0), &w, 10.0).len(), 1);
}

#[test]
fn issuer_present_in_multiple_partitions_is_never_returned() {
    let mut store = PolicyStore::new();
    store.add(UserId(1), Policy::new(UserId(0), RoleId::FRIEND, WHOLE, ALWAYS));
    store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
    let t = tree_with(store, 2);
    t.upsert(MovingPoint::new(UserId(0), Point::new(500.0, 500.0), Vec2::ZERO, 10.0));
    t.upsert(MovingPoint::new(UserId(1), Point::new(501.0, 501.0), Vec2::ZERO, 70.0));
    // Issuer and friend sit in different time partitions.
    let got = t.prq(UserId(0), &WHOLE, 80.0);
    assert_eq!(got.iter().map(|m| m.uid.0).collect::<Vec<_>>(), vec![1]);
    let knn = t.pknn(UserId(0), Point::new(500.0, 500.0), 2, 80.0);
    assert_eq!(knn.len(), 1);
    assert_eq!(knn[0].0.uid.0, 1);
}

/// A position report for a uid at or past the encoded population is input
/// from outside the program: it gets a typed refusal before any shard, the
/// pool or the log is touched, and the index keeps working.
#[test]
fn a_strangers_position_report_is_refused_and_touches_nothing() {
    const POPULATION: u64 = 3;
    for durable in [false, true] {
        let mut store = PolicyStore::new();
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, WHOLE, ALWAYS));
        let mut t = tree_with(store, POPULATION as usize);
        t.set_durable(durable);
        t.upsert(still(1, 100.0, 100.0));
        let ledger =
            |t: &PebTree| (t.len(), t.pool().stats(), t.committed_ops(), t.pool().wal_stats());
        let before = ledger(&t);
        for stranger in [POPULATION, u64::MAX >> 1] {
            assert_eq!(
                t.try_upsert(still(stranger, 500.0, 500.0)),
                Err(IndexError::UnknownUser { uid: stranger })
            );
            assert_eq!(ledger(&t), before, "a refused report (durable: {durable}) left a trace");
        }
        t.try_upsert(still(2, 300.0, 300.0)).expect("a well-formed report lands");
        assert_eq!(t.try_get(UserId(2)).unwrap().map(|m| m.uid), Some(UserId(2)));
        assert_eq!(t.len(), 2);
    }
}

/// Reports for user 2 with one NaN or infinite number each.
fn malformed_reports() -> Vec<MovingPoint> {
    let at = |pos: Point, vel: Vec2, t: f64| MovingPoint::new(UserId(2), pos, vel, t);
    let here = Point::new(300.0, 300.0);
    vec![
        at(here, Vec2::ZERO, f64::NAN),
        at(here, Vec2::ZERO, f64::INFINITY),
        at(Point::new(f64::NAN, 300.0), Vec2::ZERO, 0.0),
        at(Point::new(300.0, f64::NEG_INFINITY), Vec2::ZERO, 0.0),
        at(here, Vec2::new(f64::NAN, 0.0), 0.0),
        at(here, Vec2::new(0.0, f64::INFINITY), 0.0),
    ]
}

/// Issuer 0 befriended by 1..=3 in a population of 4, user 1 reported.
fn report_world(durable: bool) -> (PebTree, Vec<MovingPoint>) {
    let mut store = PolicyStore::new();
    for o in 1..=3u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let mut t = tree_with(store, 4);
    t.set_durable(durable);
    let users = vec![still(1, 100.0, 100.0)];
    t.upsert(users[0]);
    (t, users)
}

/// A position report is input from outside the program. One with a NaN
/// `t_update` used to be stored, its NaN became the partition's label, and
/// every PRQ and PkNN after it panicked in `enlarge`. Refused at the door,
/// it leaves no trace and the engine goes on answering like the oracle.
#[test]
fn a_malformed_position_report_is_refused_and_the_next_query_answers() {
    for durable in [false, true] {
        let (t, mut users) = report_world(durable);
        let ledger =
            |t: &PebTree| (t.len(), t.pool().stats(), t.committed_ops(), t.live_partitions());
        let before = ledger(&t);
        for m in malformed_reports() {
            assert_eq!(t.try_upsert(m), Err(IndexError::MalformedReport { uid: 2 }), "{m:?}");
            assert_eq!(ledger(&t), before, "a refused report (durable: {durable}) left a trace");
        }
        let m = still(2, 300.0, 300.0);
        t.try_upsert(m).expect("the next well-formed report lands");
        users.push(m);
        assert_eq!(t.try_get(UserId(2)).unwrap(), Some(m));
        assert_eq!(answers(&t), oracle_answers(&t, &users), "durable: {durable}");
    }
}

/// The batch door drops what the single door refuses — a stranger used to
/// panic in `placement` — and applies the rest.
#[test]
fn a_batch_drops_the_reports_the_single_door_refuses() {
    for durable in [false, true] {
        let (t, mut users) = report_world(durable);
        let live = t.live_partitions();
        let mut batch = malformed_reports();
        batch.push(still(4, 500.0, 500.0)); // outside the population of 4
        assert_eq!(t.upsert_batch(&batch), 0, "nothing in the batch is well-formed");
        assert_eq!((t.len(), t.live_partitions()), (1, live.clone()));
        let m = still(3, 400.0, 400.0);
        batch.push(m);
        assert_eq!(t.upsert_batch(&batch), 1, "only user 3's report is well-formed");
        users.push(m);
        assert_eq!((t.len(), t.live_partitions()), (2, live));
        assert_eq!(answers(&t), oracle_answers(&t, &users), "durable: {durable}");
    }
}

/// A query that names no place or no time — a reversed or NaN window, a
/// NaN query time, a NaN kNN centre — is input from outside the program
/// (`Rect` has public fields, requests carry raw floats). Definitions 2
/// and 3 give it the empty answer: complete, at zero I/O, and the engine
/// answers the next well-formed query in full.
#[test]
fn a_malformed_query_is_answered_empty_and_touches_nothing() {
    let mut store = PolicyStore::new();
    for o in 1..=3u64 {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let t = tree_with(store, 4);
    t.upsert(MovingPoint::new(UserId(1), Point::new(100.0, 100.0), Vec2::ZERO, 10.0));
    t.upsert(MovingPoint::new(UserId(2), Point::new(200.0, 200.0), Vec2::ZERO, 70.0));
    t.upsert(MovingPoint::new(UserId(3), Point::new(300.0, 300.0), Vec2::ZERO, 70.0));
    let live: Vec<(u8, bool)> = t.live_partitions().iter().map(|(tid, _)| (*tid, true)).collect();
    assert_eq!(live.len(), 2);
    let unbounded = peb_common::Deadline::unbounded(t.pool().clock());

    let windows = [
        (Rect { xl: 900.0, xu: 100.0, yl: 0.0, yu: 1000.0 }, 80.0), // xl > xu
        (Rect { xl: 0.0, xu: 1000.0, yl: 900.0, yu: 100.0 }, 80.0), // yl > yu
        (Rect { xl: f64::NAN, xu: 1000.0, yl: 0.0, yu: 1000.0 }, 80.0),
        (Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: f64::NAN }, 80.0),
        (WHOLE, f64::NAN),
    ];
    for (window, tq) in windows {
        let before = t.pool().stats();
        let answer = t.try_prq_deadline(UserId(0), &window, tq, &unbounded).unwrap();
        assert!(answer.value.is_empty(), "{window:?} at {tq}");
        assert_eq!(answer.partitions, live, "empty is the complete answer: {window:?} at {tq}");
        assert_eq!(t.pool().stats(), before, "{window:?} at {tq} read a page");
        assert_eq!(t.try_prq(UserId(0), &WHOLE, 80.0).unwrap().len(), 3);
    }

    let centre = Point::new(150.0, 150.0);
    let probes = [
        (centre, f64::NAN),
        (Point::new(f64::NAN, 150.0), 80.0),
        (Point::new(150.0, f64::NAN), 80.0),
    ];
    for (q, tq) in probes {
        let before = t.pool().stats();
        let answer = t.try_pknn_deadline(UserId(0), q, 2, tq, &unbounded).unwrap();
        assert!(answer.value.is_empty(), "{q:?} at {tq}");
        assert_eq!(answer.partitions, live, "empty is the complete answer: {q:?} at {tq}");
        assert_eq!(t.pool().stats(), before, "{q:?} at {tq} read a page");
        let next: Vec<u64> =
            t.try_pknn(UserId(0), centre, 2, 80.0).unwrap().iter().map(|(m, _)| m.uid.0).collect();
        assert_eq!(next, vec![1, 2]);
    }
}

/// Issuer 0 with listed friends 1 and 2, and user 3 in their SV row: the
/// issuer grants 3 the same full-volume policy 1 and 2 grant the issuer,
/// so all three are equally compatible with the group leader and share one
/// SV code — a page read for 1 or 2 holds 3's record too.
fn stale_list_world() -> (PebTree, Vec<MovingPoint>) {
    let mut store = PolicyStore::new();
    for o in [1u64, 2] {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    store.add(UserId(3), Policy::new(UserId(0), RoleId::FRIEND, WHOLE, ALWAYS));
    let t = tree_with(store, 4);
    let ctx = t.context();
    assert_eq!(ctx.sv_code(UserId(3)), ctx.sv_code(UserId(1)), "3 must share the friends' row");
    assert_eq!(ctx.friends.friends(UserId(0)).len(), 2);
    // 3 sits before the friends on the Z-curve, so the scan that locates
    // them meets its record first.
    let users = vec![still(3, 50.0, 50.0), still(1, 100.0, 100.0), still(2, 200.0, 200.0)];
    for m in &users {
        t.upsert(*m);
    }
    (t, users)
}

fn answers(t: &PebTree) -> (Vec<UserId>, Vec<UserId>) {
    let prq = t.try_prq(UserId(0), &WHOLE, 10.0).unwrap().iter().map(|m| m.uid).collect();
    let pknn = t
        .try_pknn(UserId(0), Point::new(0.0, 0.0), 3, 10.0)
        .unwrap()
        .iter()
        .map(|(m, _)| m.uid)
        .collect();
    (prq, pknn)
}

fn oracle_answers(t: &PebTree, users: &[MovingPoint]) -> (Vec<UserId>, Vec<UserId>) {
    let store = &t.context().store;
    (
        pebtree::oracle::oracle_prq(users, store, UserId(0), &WHOLE, 10.0),
        pebtree::oracle::oracle_pknn(users, store, UserId(0), Point::new(0.0, 0.0), 3, 10.0),
    )
}

/// Granted in the store, missing from a stale friend list: not seen —
/// even on a page read for a listed friend — until `refresh_user` runs.
#[test]
fn a_grant_after_the_list_was_built_shows_once_the_list_is_refreshed() {
    let (mut t, users) = stale_list_world();
    let listed = vec![UserId(1), UserId(2)];
    assert_eq!(answers(&t), (listed.clone(), listed.clone()));

    let ctx = Arc::get_mut(t.ctx_mut()).expect("the test holds the only handle");
    ctx.store.add(UserId(0), Policy::new(UserId(3), RoleId::FRIEND, WHOLE, ALWAYS));
    assert_eq!(answers(&t), (listed.clone(), listed), "3 is granted but not yet listed");

    let ctx = Arc::get_mut(t.ctx_mut()).expect("the test holds the only handle");
    ctx.friends.refresh_user(&ctx.store, &ctx.seqvals, UserId(0));
    let by_uid = vec![UserId(1), UserId(2), UserId(3)];
    let by_distance = vec![UserId(3), UserId(1), UserId(2)];
    assert_eq!(answers(&t), (by_uid, by_distance));
    assert_eq!(answers(&t), oracle_answers(&t, &users));
}

/// Revoked in the store, still on a stale friend list: located by the
/// plan, refused by the live store — before the refresh and after.
#[test]
fn a_revoked_friend_still_listed_is_refused_by_the_live_store() {
    let (mut t, users) = stale_list_world();
    let ctx = Arc::get_mut(t.ctx_mut()).expect("the test holds the only handle");
    assert!(ctx.store.remove(UserId(1), UserId(0)).is_some());
    assert_eq!(ctx.friends.friends(UserId(0)).len(), 2, "1 is still listed");
    let only_2 = vec![UserId(2)];
    assert_eq!(answers(&t), (only_2.clone(), only_2.clone()));
    assert_eq!(answers(&t), oracle_answers(&t, &users));

    let ctx = Arc::get_mut(t.ctx_mut()).expect("the test holds the only handle");
    ctx.friends.refresh_user(&ctx.store, &ctx.seqvals, UserId(0));
    assert_eq!(ctx.friends.friends(UserId(0)).len(), 1);
    assert_eq!(answers(&t), (only_2.clone(), only_2));
    assert_eq!(answers(&t), oracle_answers(&t, &users));
}
