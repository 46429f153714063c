//! Faulty media at the engine layer: both query engines degrade
//! gracefully instead of panicking.
//!
//! The PEB-tree (privacy-aware PRQ / PkNN / PWD) and the Bx baseline
//! (range / kNN) run their full query surface over a pool whose medium
//! is permanently unreadable: every operation must surface a typed
//! [`IndexError::Io`] — and once the media heals, the same handles must
//! answer every query exactly as a never-faulted run would.

use std::sync::Arc;

use peb_bx::{BxTree, TimePartitioning};
use peb_common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_index::IndexError;
use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_storage::{BufferPool, IoFault, PageId};
use pebtree::{PebTree, PrivacyContext};

const WHOLE: Rect = Rect { xl: 0.0, xu: 1000.0, yl: 0.0, yu: 1000.0 };
const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };
const USERS: u64 = 120;

fn still(uid: u64, x: f64, y: f64) -> MovingPoint {
    MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, 10.0)
}

fn grid_point(i: u64) -> MovingPoint {
    still(i, (i % 16) as f64 * 60.0 + 5.0, (i / 16) as f64 * 120.0 + 5.0)
}

/// Every sector (allocated or not) becomes permanently unreadable.
fn scorch(pool: &BufferPool) {
    pool.with_fault_injector(|f| {
        for p in 0..4096 {
            f.mark_bad_sector(PageId(p));
        }
    });
}

fn heal(pool: &BufferPool) {
    pool.with_fault_injector(|f| f.clear());
}

fn typed(e: IndexError) -> bool {
    matches!(e, IndexError::Io(IoFault::BadSector { .. }))
}

fn build_peb() -> PebTree {
    let space = SpaceConfig::default();
    let mut store = PolicyStore::new();
    for o in 1..=USERS {
        store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, WHOLE, ALWAYS));
    }
    let ctx = Arc::new(PrivacyContext::build(
        store,
        space,
        USERS as usize + 2,
        SvAssignmentParams::default(),
    ));
    let t =
        PebTree::new(Arc::new(BufferPool::new(64)), space, TimePartitioning::default(), 3.0, ctx);
    for i in 1..=USERS {
        t.upsert(grid_point(i));
    }
    t
}

#[test]
fn peb_tree_queries_surface_typed_errors_then_recover_exactly() {
    let t = build_peb();
    let issuer = UserId(0);
    let bbox = Rect { xl: 100.0, xu: 700.0, yl: 50.0, yu: 800.0 };

    // Fault-free answers, gathered cold (flush + clear first so the
    // faulted attempt below replays the identical fetch pattern).
    t.pool().flush_all();
    t.pool().clear();
    let want_prq = t.try_prq(issuer, &bbox, 20.0).expect("clean media");
    let want_knn = t.try_pknn(issuer, Point::new(420.0, 510.0), 7, 20.0).expect("clean media");
    let want_pwd = t.try_pwd(issuer, Point::new(500.0, 500.0), 250.0, 20.0).expect("clean media");
    let want_get = t.try_get(UserId(17)).expect("clean media");
    assert!(!want_prq.is_empty() && !want_knn.is_empty());

    t.pool().clear();
    scorch(t.pool());
    assert!(t.try_prq(issuer, &bbox, 20.0).is_err_and(typed));
    assert!(t.try_pknn(issuer, Point::new(420.0, 510.0), 7, 20.0).is_err_and(typed));
    assert!(t.try_pwd(issuer, Point::new(500.0, 500.0), 250.0, 20.0).is_err_and(typed));
    assert!(t.try_get(UserId(17)).is_err_and(typed));
    assert!(
        t.pool().fault_stats().surfaced_errors >= 4,
        "every failed query is on the fault ledger"
    );

    heal(t.pool());
    assert_eq!(t.try_prq(issuer, &bbox, 20.0).expect("healed"), want_prq);
    assert_eq!(t.try_pknn(issuer, Point::new(420.0, 510.0), 7, 20.0).expect("healed"), want_knn);
    assert_eq!(t.try_pwd(issuer, Point::new(500.0, 500.0), 250.0, 20.0).expect("healed"), want_pwd);
    assert_eq!(t.try_get(UserId(17)).expect("healed"), want_get);
}

#[test]
fn peb_tree_writes_fail_typed_on_dead_media() {
    let t = build_peb();
    t.pool().flush_all();
    t.pool().clear();
    scorch(t.pool());
    assert!(t.try_upsert(still(5, 321.0, 321.0)).is_err_and(typed));
    assert!(t.try_remove(UserId(9)).is_err_and(typed));
    // Heal and restore the two uids the failed calls may have unmapped
    // (documented partial state), then prove full service.
    heal(t.pool());
    t.try_upsert(grid_point(5)).expect("healed media accepts writes");
    t.try_upsert(grid_point(9)).expect("healed media accepts writes");
    assert!(t.try_get(UserId(5)).expect("healed").is_some());
    assert!(t.try_get(UserId(9)).expect("healed").is_some());
}

#[test]
fn bx_tree_queries_surface_typed_errors_then_recover_exactly() {
    let t = BxTree::new(
        Arc::new(BufferPool::new(64)),
        SpaceConfig::default(),
        TimePartitioning::default(),
        3.0,
    );
    for i in 1..=USERS {
        t.upsert(grid_point(i));
    }
    let bbox = Rect { xl: 100.0, xu: 700.0, yl: 50.0, yu: 800.0 };

    t.pool().flush_all();
    t.pool().clear();
    let want_range = t.try_range_query(&bbox, 20.0).expect("clean media");
    let want_knn = t.try_knn(Point::new(420.0, 510.0), 7, 20.0).expect("clean media");
    let want_get = t.try_get(UserId(17)).expect("clean media");
    assert!(!want_range.is_empty() && want_knn.len() == 7);

    t.pool().clear();
    scorch(t.pool());
    assert!(t.try_range_query(&bbox, 20.0).is_err_and(typed));
    assert!(t.try_knn(Point::new(420.0, 510.0), 7, 20.0).is_err_and(typed));
    assert!(t.try_get(UserId(17)).is_err_and(typed));
    assert!(t.try_upsert(still(3, 50.0, 50.0)).is_err_and(typed));

    heal(t.pool());
    t.try_upsert(grid_point(3)).expect("healed media accepts writes");
    assert_eq!(t.try_range_query(&bbox, 20.0).expect("healed"), want_range);
    assert_eq!(t.try_knn(Point::new(420.0, 510.0), 7, 20.0).expect("healed"), want_knn);
    assert_eq!(t.try_get(UserId(17)).expect("healed"), want_get);
}
