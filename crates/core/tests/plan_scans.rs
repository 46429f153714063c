//! The query plans — one [`peb_btree::ScanPlan`] scan per live partition
//! (PRQ) or per anti-diagonal (PkNN), SV rows answering from whatever
//! page is in hand — against the brute-force oracle.
//!
//! * Small random worlds built to hit the plan's corners: 1–3 live
//!   partitions, `k` below / at / above the friend count, friends that are
//!   not in the index at all, several friends sharing one SV code
//!   (identical policies ⇒ C = 1), and every deadline budget — a complete
//!   answer equals the oracle's, a partial one is a subset in which every
//!   user satisfies `permits`.
//! * One big SV row (600 friends under one code, spanning many leaves): a
//!   small window and a near query point touch no more leaf pages than
//!   the paper's literal per-interval formulation did.

use std::sync::Arc;

use pebtree::oracle::{oracle_pknn, oracle_prq};
use pebtree::{PebTree, PrivacyContext};

use peb_common::{Deadline, MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_index::TimePartitioning;
use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_storage::BufferPool;

use proptest::prelude::*;

const ISSUER: UserId = UserId(0);
const ALWAYS: TimeInterval = TimeInterval { start: 0.0, end: 1440.0 };

/// The policy a friend of `role` grants the issuer. Roles 1, 2 and 4 are
/// fixed shapes: friends drawn onto the same one get identical policies
/// and therefore one shared SV code. Role 3 varies with the user, so each
/// such friend tends to get an SV row of its own.
fn policy_of(role: u8, uid: u64) -> (Rect, TimeInterval) {
    match role {
        1 | 4 => (Rect::new(0.0, 1000.0, 0.0, 1000.0), ALWAYS),
        2 => (Rect::new(200.0, 1000.0, 100.0, 900.0), TimeInterval::new(0.0, 400.0)),
        _ => (Rect::new(0.0, 1000.0 - 15.0 * (uid % 40) as f64, 0.0, 1000.0), ALWAYS),
    }
}

/// x, y, vx, vy, phase, role: 0 = stranger, 1..=3 = friend (see
/// [`policy_of`]), 4 = friend that never reports (absent from the index).
type UserSpec = (f64, f64, f64, f64, u8, u8);

struct World {
    tree: PebTree,
    /// Everyone the index holds — what the oracle scans.
    indexed: Vec<MovingPoint>,
    friends: usize,
}

fn build_world(specs: &[UserSpec], phases: u8) -> World {
    let space = SpaceConfig::default();
    let n = specs.len() + 1; // user 0 is the issuer
    let mut store = PolicyStore::new();
    let mut friends = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let role = spec.5;
        if role > 0 {
            let (locr, tint) = policy_of(role, i as u64 + 1);
            store.add(ISSUER, Policy::new(UserId(i as u64 + 1), RoleId::FRIEND, locr, tint));
            friends += 1;
        }
    }
    let ctx = Arc::new(PrivacyContext::build(store, space, n, SvAssignmentParams::default()));
    let tree =
        PebTree::new(Arc::new(BufferPool::new(50)), space, TimePartitioning::default(), 3.0, ctx);
    let mut indexed = Vec::new();
    let issuer = MovingPoint::new(ISSUER, Point::new(500.0, 500.0), Vec2::ZERO, 10.0);
    tree.upsert(issuer);
    indexed.push(issuer);
    for (i, &(x, y, vx, vy, phase, role)) in specs.iter().enumerate() {
        if role == 4 {
            continue; // a friend the index has never heard from
        }
        // One update phase per live partition: 10, 70, 130.
        let tu = 10.0 + 60.0 * (phase % phases) as f64;
        let m = MovingPoint::new(UserId(i as u64 + 1), Point::new(x, y), Vec2::new(vx, vy), tu);
        tree.upsert(m);
        indexed.push(m);
    }
    World { tree, indexed, friends }
}

/// f32-representable values so the on-disk record is lossless.
fn coord() -> impl Strategy<Value = f64> {
    (0u32..4000).prop_map(|v| v as f64 * 0.25)
}

fn vel() -> impl Strategy<Value = f64> {
    (-8i32..=8).prop_map(|v| v as f64 * 0.25)
}

fn user_spec() -> impl Strategy<Value = UserSpec> {
    (coord(), coord(), vel(), vel(), 0u8..3, 0u8..5)
}

const BUDGETS: [u64; 12] = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 1 << 20];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_prq_matches_the_oracle_under_every_budget(
        specs in proptest::collection::vec(user_spec(), 1..90),
        phases in 1u8..=3,
        qx in coord(), qy in coord(),
        w in 20u32..900, h in 20u32..900,
        tq_off in 0u32..100,
    ) {
        let world = build_world(&specs, phases);
        prop_assert!(world.tree.live_partitions().len() <= phases as usize);
        let tq = 130.0 + tq_off as f64 * 0.5;
        let r = Rect::new(qx, (qx + w as f64).min(1000.0), qy, (qy + h as f64).min(1000.0));
        let store = &world.tree.context().store;
        let want = oracle_prq(&world.indexed, store, ISSUER, &r, tq);

        let fused: Vec<UserId> = world.tree.prq(ISSUER, &r, tq).iter().map(|m| m.uid).collect();
        prop_assert_eq!(&fused, &want, "fused PRQ vs oracle");

        let clock = world.tree.pool().clock().clone();
        for budget in BUDGETS {
            let deadline = Deadline::after(&clock, budget);
            let p = world.tree.try_prq_deadline(ISSUER, &r, tq, &deadline).unwrap();
            let got: Vec<UserId> = p.value.iter().map(|m| m.uid).collect();
            if p.is_complete() {
                prop_assert_eq!(&got, &want, "complete under budget {}", budget);
            } else {
                prop_assert!(got.iter().all(|u| want.contains(u)), "partial must be a subset");
            }
            for m in &p.value {
                let store = &world.tree.context().store;
                prop_assert!(store.permits(m.uid, ISSUER, &m.position_at(tq), tq));
            }
        }
    }

    #[test]
    fn fused_pknn_matches_the_oracle_under_every_budget(
        specs in proptest::collection::vec(user_spec(), 1..90),
        phases in 1u8..=3,
        qx in coord(), qy in coord(),
        k_pick in 0u8..3,
        tq_off in 0u32..100,
    ) {
        let world = build_world(&specs, phases);
        let tq = 130.0 + tq_off as f64 * 0.5;
        let q = Point::new(qx, qy);
        let k = [1, 5, world.friends + 3][k_pick as usize];
        let store = &world.tree.context().store;
        let want = oracle_pknn(&world.indexed, store, ISSUER, q, k, tq);

        let fused: Vec<UserId> =
            world.tree.pknn(ISSUER, q, k, tq).iter().map(|(m, _)| m.uid).collect();
        prop_assert_eq!(&fused, &want, "fused PkNN vs oracle (k = {})", k);

        let clock = world.tree.pool().clock().clone();
        for budget in BUDGETS {
            let deadline = Deadline::after(&clock, budget);
            let p = world.tree.try_pknn_deadline(ISSUER, q, k, tq, &deadline).unwrap();
            let got: Vec<UserId> = p.value.iter().map(|(m, _)| m.uid).collect();
            if p.is_complete() {
                prop_assert_eq!(&got, &want, "complete under budget {}", budget);
            }
            prop_assert!(got.len() <= k);
            for (m, d) in &p.value {
                let store = &world.tree.context().store;
                let pos = m.position_at(tq);
                prop_assert!(m.uid != ISSUER && store.permits(m.uid, ISSUER, &pos, tq));
                prop_assert!((pos.dist(&q) - d).abs() < 1e-9, "a real distance");
            }
        }
    }
}

/// Leaf pages a query touches (with multiplicity) on a height-2 tree:
/// every logical read that is not the root fetch of a descent.
fn leaf_touches(tree: &PebTree, query: impl FnOnce(&PebTree)) -> u64 {
    assert_eq!(tree.stats().tree.height, 2, "root plus leaves: a descent reads one branch page");
    tree.pool().reset_stats();
    tree.reset_scan_stats();
    query(tree);
    tree.pool().stats().logical_reads - tree.scan_stats().descents
}

#[test]
fn a_big_sv_row_costs_no_more_leaf_pages_than_the_per_interval_leg() {
    // Provenance: the per-interval leg (one descent per partition × SV
    // group × Z-range for PRQ, per cell flank for PkNN) on this exact
    // world, window and query point, last measured at commit 0b72065,
    // debug and release, before the leg was deleted.
    const PER_INTERVAL_PRQ_LEAF_TOUCHES: u64 = 2253;
    const PER_INTERVAL_PKNN_LEAF_TOUCHES: u64 = 25;
    // 600 friends with one identical policy: one SV code, one row, spread
    // over the whole space — the row spans many leaves, so a page in hand
    // cannot answer for it and the Z-ranges have to navigate.
    let space = SpaceConfig::default();
    let n = 601usize;
    let mut store = PolicyStore::new();
    for f in 1..n as u64 {
        store.add(
            ISSUER,
            Policy::new(UserId(f), RoleId::FRIEND, Rect::new(0.0, 1000.0, 0.0, 1000.0), ALWAYS),
        );
    }
    let ctx = Arc::new(PrivacyContext::build(store, space, n, SvAssignmentParams::default()));
    let groups = ctx.friend_sv_groups(ISSUER);
    assert_eq!(groups.len(), 1, "identical policies share one SV code");
    assert_eq!(groups[0].1.len(), 600);
    let tree =
        PebTree::new(Arc::new(BufferPool::new(256)), space, TimePartitioning::default(), 3.0, ctx);
    let mut indexed = Vec::new();
    for f in 1..n as u64 {
        let (x, y) = ((f as f64 * 173.0) % 1000.0, (f as f64 * 59.0) % 1000.0);
        let m = MovingPoint::new(UserId(f), Point::new(x, y), Vec2::ZERO, 10.0);
        tree.upsert(m);
        indexed.push(m);
    }
    assert!(tree.leaf_page_count() >= 4, "the row must span at least four leaves");

    let window = Rect::new(480.0, 540.0, 470.0, 530.0);
    let q = Point::new(505.0, 495.0);
    let prq = |t: &PebTree| {
        assert!(!t.prq(ISSUER, &window, 20.0).is_empty());
    };
    let pknn = |t: &PebTree| {
        assert_eq!(t.pknn(ISSUER, q, 5, 20.0).len(), 5);
    };
    let (fused_prq, fused_pknn) = (leaf_touches(&tree, prq), leaf_touches(&tree, pknn));

    let store = &tree.context().store;
    let got: Vec<UserId> = tree.prq(ISSUER, &window, 20.0).iter().map(|m| m.uid).collect();
    assert_eq!(got, oracle_prq(&indexed, store, ISSUER, &window, 20.0));
    let got: Vec<UserId> = tree.pknn(ISSUER, q, 5, 20.0).iter().map(|(m, _)| m.uid).collect();
    assert_eq!(got, oracle_pknn(&indexed, store, ISSUER, q, 5, 20.0));

    assert!(
        fused_prq <= PER_INTERVAL_PRQ_LEAF_TOUCHES,
        "PRQ leaf touches {fused_prq} above the per-interval leg's"
    );
    assert!(
        fused_pknn <= PER_INTERVAL_PKNN_LEAF_TOUCHES,
        "PkNN leaf touches {fused_pknn} above the per-interval leg's"
    );
}
