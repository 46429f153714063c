//! The reproduction's central correctness invariant: for every workload,
//! the PEB-tree's PRQ/PkNN, the spatial baseline's filter-style PRQ/PkNN,
//! and the brute-force oracle all return exactly the same users.

use std::sync::Arc;

use pebtree::oracle::{oracle_pknn, oracle_prq};
use pebtree::{PebTree, PrivacyContext, SpatialBaseline};

use peb_bx::{BxTree, TimePartitioning};
use peb_common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_storage::BufferPool;

use proptest::prelude::*;

const MAX_SPEED: f64 = 3.0;

struct World {
    users: Vec<MovingPoint>,
    peb: PebTree,
    baseline: SpatialBaseline,
}

/// owner, viewer, rect, interval
type PolicyTuple = (u64, u64, (f64, f64, f64, f64), (f64, f64));

fn build_world(
    positions: Vec<(f64, f64, f64, f64, f64)>, // x, y, vx, vy, tu
    policies: Vec<PolicyTuple>,
) -> World {
    let space = SpaceConfig::default();
    let n = positions.len();
    let mut store = PolicyStore::new();
    for (owner, viewer, (xl, xu, yl, yu), (ts, te)) in policies {
        let owner = owner % n as u64;
        let viewer = viewer % n as u64;
        if owner == viewer {
            continue;
        }
        store.add(
            UserId(viewer),
            Policy::new(
                UserId(owner),
                RoleId::FRIEND,
                Rect::new(xl.min(xu), xl.max(xu), yl.min(yu), yl.max(yu)),
                TimeInterval::new(ts.min(te), ts.max(te)),
            ),
        );
    }
    let ctx = Arc::new(PrivacyContext::build(store, space, n, SvAssignmentParams::default()));

    let peb = PebTree::new(
        Arc::new(BufferPool::new(50)),
        space,
        TimePartitioning::default(),
        MAX_SPEED,
        Arc::clone(&ctx),
    );
    let mut baseline = SpatialBaseline::new(BxTree::new(
        Arc::new(BufferPool::new(50)),
        space,
        TimePartitioning::default(),
        MAX_SPEED,
    ));

    let mut users = Vec::with_capacity(n);
    for (i, (x, y, vx, vy, tu)) in positions.into_iter().enumerate() {
        let m = MovingPoint::new(UserId(i as u64), Point::new(x, y), Vec2::new(vx, vy), tu);
        peb.upsert(m);
        baseline.upsert(m);
        users.push(m);
    }
    World { users, peb, baseline }
}

/// f32-representable values so the on-disk record is lossless.
fn coord() -> impl Strategy<Value = f64> {
    (0u32..4000).prop_map(|v| v as f64 * 0.25)
}

fn vel() -> impl Strategy<Value = f64> {
    (-8i32..=8).prop_map(|v| v as f64 * 0.25)
}

fn update_time() -> impl Strategy<Value = f64> {
    (0u32..480).prop_map(|v| v as f64 * 0.25) // 0 .. 120 (one ∆tmu)
}

fn arb_policy_tuple() -> impl Strategy<Value = PolicyTuple> {
    (
        any::<u64>(),
        any::<u64>(),
        (coord(), coord(), coord(), coord()),
        ((0u32..1440).prop_map(f64::from), (0u32..1440).prop_map(f64::from)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn prq_peb_equals_baseline_equals_oracle(
        positions in proptest::collection::vec((coord(), coord(), vel(), vel(), update_time()), 2..60),
        policies in proptest::collection::vec(arb_policy_tuple(), 0..120),
        issuer_pick in any::<u64>(),
        qx in coord(), qy in coord(),
        w in 20u32..800, h in 20u32..800,
        tq_off in 0u32..200,
    ) {
        let world = build_world(positions, policies);
        let issuer = UserId(issuer_pick % world.users.len() as u64);
        let tq = 120.0 + tq_off as f64 * 0.5;
        let r = Rect::new(qx, (qx + w as f64).min(1000.0), qy, (qy + h as f64).min(1000.0));

        let want = oracle_prq(&world.users, &world.peb.context().store, issuer, &r, tq);
        let peb: Vec<UserId> = world.peb.prq(issuer, &r, tq).iter().map(|m| m.uid).collect();
        let base: Vec<UserId> = world
            .baseline
            .prq(&world.peb.context().store, issuer, &r, tq)
            .iter()
            .map(|m| m.uid)
            .collect();
        prop_assert_eq!(&peb, &want, "PEB PRQ diverged from oracle");
        prop_assert_eq!(&base, &want, "baseline PRQ diverged from oracle");
    }

    #[test]
    fn pknn_peb_equals_baseline_equals_oracle(
        positions in proptest::collection::vec((coord(), coord(), vel(), vel(), update_time()), 2..60),
        policies in proptest::collection::vec(arb_policy_tuple(), 0..120),
        issuer_pick in any::<u64>(),
        qx in coord(), qy in coord(),
        k in 1usize..8,
        tq_off in 0u32..200,
    ) {
        let world = build_world(positions, policies);
        let issuer = UserId(issuer_pick % world.users.len() as u64);
        let tq = 120.0 + tq_off as f64 * 0.5;
        let q = Point::new(qx, qy);

        let want = oracle_pknn(&world.users, &world.peb.context().store, issuer, q, k, tq);
        let peb: Vec<UserId> =
            world.peb.pknn(issuer, q, k, tq).iter().map(|(m, _)| m.uid).collect();
        let base: Vec<UserId> = world
            .baseline
            .pknn(&world.peb.context().store, issuer, q, k, tq)
            .iter()
            .map(|(m, _)| m.uid)
            .collect();
        prop_assert_eq!(&peb, &want, "PEB PkNN diverged from oracle");
        prop_assert_eq!(&base, &want, "baseline PkNN diverged from oracle");
    }

    #[test]
    fn equivalence_survives_updates(
        positions in proptest::collection::vec((coord(), coord(), vel(), vel(), update_time()), 4..40),
        policies in proptest::collection::vec(arb_policy_tuple(), 10..80),
        moves in proptest::collection::vec((any::<u64>(), coord(), coord(), vel(), vel()), 1..60),
        issuer_pick in any::<u64>(),
        qx in coord(), qy in coord(),
    ) {
        let mut world = build_world(positions, policies);
        let n = world.users.len() as u64;
        // Apply a stream of position updates at increasing times.
        for (i, (pick, x, y, vx, vy)) in moves.into_iter().enumerate() {
            let uid = UserId(pick % n);
            let tu = 60.0 + i as f64; // strictly increasing update times
            let m = MovingPoint::new(uid, Point::new(x, y), Vec2::new(vx, vy), tu);
            world.peb.upsert(m);
            world.baseline.upsert(m);
            world.users[uid.as_index()] = m;
        }
        let issuer = UserId(issuer_pick % n);
        let tq = 200.0;
        let r = Rect::new(qx, (qx + 300.0).min(1000.0), qy, (qy + 300.0).min(1000.0));

        let want = oracle_prq(&world.users, &world.peb.context().store, issuer, &r, tq);
        let peb: Vec<UserId> = world.peb.prq(issuer, &r, tq).iter().map(|m| m.uid).collect();
        prop_assert_eq!(&peb, &want, "PEB PRQ diverged after updates");

        let want_knn = oracle_pknn(&world.users, &world.peb.context().store, issuer, Point::new(qx, qy), 3, tq);
        let got_knn: Vec<UserId> =
            world.peb.pknn(issuer, Point::new(qx, qy), 3, tq).iter().map(|(m, _)| m.uid).collect();
        prop_assert_eq!(&got_knn, &want_knn, "PEB PkNN diverged after updates");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multi-policy extension (several policies per ordered pair) must
    /// preserve the three-way agreement: `permits` is "any policy grants",
    /// used identically by the PEB refinement, the baseline filter and the
    /// oracle.
    #[test]
    fn equivalence_with_multi_policy_pairs(
        positions in proptest::collection::vec((coord(), coord(), vel(), vel(), update_time()), 2..40),
        policies in proptest::collection::vec(arb_policy_tuple(), 0..60),
        extras in proptest::collection::vec(arb_policy_tuple(), 0..40),
        issuer_pick in any::<u64>(),
        qx in coord(), qy in coord(),
        k in 1usize..6,
    ) {
        let n = positions.len();
        let mut world = build_world(positions, policies);
        // Layer additional policies onto (possibly existing) pairs in the
        // shared store used by all three engines.
        {
            let ctx = Arc::get_mut(world.peb.ctx_mut()).expect("unshared during setup");
            for (owner, viewer, (xl, xu, yl, yu), (ts, te)) in extras {
                let owner = owner % n as u64;
                let viewer = viewer % n as u64;
                if owner == viewer {
                    continue;
                }
                ctx.store.add_additional(
                    UserId(viewer),
                    Policy::new(
                        UserId(owner),
                        RoleId::FAMILY,
                        Rect::new(xl.min(xu), xl.max(xu), yl.min(yu), yl.max(yu)),
                        TimeInterval::new(ts.min(te), ts.max(te)),
                    ),
                );
                // Friend lists may gain members; refresh the viewer's list.
                let (store, seqvals, friends) = (&ctx.store, &ctx.seqvals, &mut ctx.friends);
                friends.refresh_user(store, seqvals, UserId(viewer));
            }
        }
        let tq = 150.0;
        let issuer = UserId(issuer_pick % n as u64);
        let r = Rect::new(qx, (qx + 400.0).min(1000.0), qy, (qy + 400.0).min(1000.0));

        let want = oracle_prq(&world.users, &world.peb.context().store, issuer, &r, tq);
        let got: Vec<UserId> = world.peb.prq(issuer, &r, tq).iter().map(|m| m.uid).collect();
        prop_assert_eq!(&got, &want, "multi-policy PRQ diverged");

        let want_knn = oracle_pknn(&world.users, &world.peb.context().store, issuer, Point::new(qx, qy), k, tq);
        let got_knn: Vec<UserId> =
            world.peb.pknn(issuer, Point::new(qx, qy), k, tq).iter().map(|(m, _)| m.uid).collect();
        prop_assert_eq!(&got_knn, &want_knn, "multi-policy PkNN diverged");
    }
}
