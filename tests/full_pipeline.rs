//! End-to-end integration: generated workloads flow through the full
//! pipeline (dataset → policy encoding → both indexes → queries → updates),
//! and every engine agrees with the brute-force oracle.

use std::sync::Arc;

use peb_repro::bx::{BxTree, TimePartitioning};
use peb_repro::common::{Point, Rect, UserId};
use peb_repro::pebtree::oracle::{oracle_pknn, oracle_prq};
use peb_repro::pebtree::{PebTree, PrivacyContext, SpatialBaseline};
use peb_repro::policy::SvAssignmentParams;
use peb_repro::storage::BufferPool;
use peb_repro::workload::{DatasetBuilder, Distribution, QueryGenerator, UpdateStream};

use rand::rngs::StdRng;
use rand::SeedableRng;

struct Rig {
    users: Vec<peb_repro::common::MovingPoint>,
    ctx: Arc<PrivacyContext>,
    peb: PebTree,
    baseline: SpatialBaseline,
}

fn rig(n: usize, np: usize, theta: f64, dist: Distribution, seed: u64) -> Rig {
    let ds = DatasetBuilder::default()
        .num_users(n)
        .policies_per_user(np)
        .grouping_factor(theta)
        .distribution(dist)
        .seed(seed)
        .build();
    let ctx = Arc::new(PrivacyContext::build(
        ds.store.clone(),
        ds.space,
        n,
        SvAssignmentParams::default(),
    ));
    let part = TimePartitioning::default();
    let peb =
        PebTree::new(Arc::new(BufferPool::new(50)), ds.space, part, ds.max_speed, Arc::clone(&ctx));
    let mut baseline = SpatialBaseline::new(BxTree::new(
        Arc::new(BufferPool::new(50)),
        ds.space,
        part,
        ds.max_speed,
    ));
    for m in &ds.users {
        peb.upsert(*m);
        baseline.upsert(*m);
    }
    Rig { users: ds.users, ctx, peb, baseline }
}

fn check_queries(rig: &Rig, seed: u64, tq: f64, label: &str) {
    let gen = QueryGenerator::new(*rig.peb.space(), rig.users.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for q in gen.range_batch(&mut rng, 30, 250.0, tq) {
        let want = oracle_prq(&rig.users, &rig.ctx.store, q.issuer, &q.window, q.tq);
        let got: Vec<UserId> =
            rig.peb.prq(q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
        let base: Vec<UserId> = rig
            .baseline
            .prq(&rig.ctx.store, q.issuer, &q.window, q.tq)
            .iter()
            .map(|m| m.uid)
            .collect();
        assert_eq!(got, want, "{label}: PEB PRQ mismatch for issuer {}", q.issuer);
        assert_eq!(base, want, "{label}: baseline PRQ mismatch for issuer {}", q.issuer);
    }
    for q in gen.knn_batch(&mut rng, 30, 5, tq) {
        let want = oracle_pknn(&rig.users, &rig.ctx.store, q.issuer, q.q, q.k, q.tq);
        let got: Vec<UserId> =
            rig.peb.pknn(q.issuer, q.q, q.k, q.tq).iter().map(|(m, _)| m.uid).collect();
        let base: Vec<UserId> = rig
            .baseline
            .pknn(&rig.ctx.store, q.issuer, q.q, q.k, q.tq)
            .iter()
            .map(|(m, _)| m.uid)
            .collect();
        assert_eq!(got, want, "{label}: PEB PkNN mismatch for issuer {}", q.issuer);
        assert_eq!(base, want, "{label}: baseline PkNN mismatch for issuer {}", q.issuer);
    }
}

#[test]
fn uniform_workload_all_engines_agree() {
    let rig = rig(2_000, 15, 0.7, Distribution::Uniform, 101);
    check_queries(&rig, 11, 30.0, "uniform");
}

#[test]
fn network_workload_all_engines_agree() {
    let rig = rig(1_500, 10, 0.8, Distribution::Network { hubs: 30 }, 102);
    check_queries(&rig, 12, 30.0, "network");
}

#[test]
fn extreme_grouping_factors_agree() {
    for theta in [0.0, 1.0] {
        let rig = rig(1_000, 10, theta, Distribution::Uniform, 103);
        check_queries(&rig, 13, 30.0, &format!("theta={theta}"));
    }
}

#[test]
fn agreement_survives_update_churn() {
    let mut r = rig(1_200, 10, 0.7, Distribution::Uniform, 104);
    let mut stream = UpdateStream::new(*r.peb.space(), 3.0, r.users.clone(), 20.0);
    let mut rng = StdRng::seed_from_u64(9);
    for round in 0..6 {
        for m in stream.next_round(&mut rng, 0.25) {
            r.peb.upsert(m);
            r.baseline.upsert(m);
        }
        r.users = stream.users().to_vec();
        check_queries(&r, 50 + round, stream.time() + 5.0, &format!("churn round {round}"));
    }
}

#[test]
fn peb_tree_beats_spatial_baseline_on_io() {
    // The paper's headline: with policy-sparse friend sets, the PEB-tree
    // answers privacy-aware queries with far fewer page I/Os. This is the
    // directional claim only (exact ratios belong to the bench harness).
    let rig = rig(12_000, 20, 0.8, Distribution::Uniform, 105);
    let gen = QueryGenerator::new(*rig.peb.space(), rig.users.len());
    let mut rng = StdRng::seed_from_u64(21);
    let queries = gen.range_batch(&mut rng, 40, 400.0, 30.0);

    let measure = |pool: &Arc<BufferPool>, run: &mut dyn FnMut()| {
        pool.flush_all();
        pool.clear();
        pool.reset_stats();
        run();
        pool.stats().total_io()
    };

    let peb_io = measure(&Arc::clone(rig.peb.pool()), &mut || {
        for q in &queries {
            let _ = rig.peb.prq(q.issuer, &q.window, q.tq);
        }
    });
    let base_io = measure(&Arc::clone(rig.baseline.pool()), &mut || {
        for q in &queries {
            let _ = rig.baseline.prq(&rig.ctx.store, q.issuer, &q.window, q.tq);
        }
    });
    assert!(
        peb_io < base_io,
        "PEB-tree should do less I/O than the spatial baseline: {peb_io} vs {base_io}"
    );
}

#[test]
fn issuer_without_policies_costs_nothing_on_peb() {
    // A fresh user with no friends: the PEB-tree short-circuits, the
    // baseline still pays for the spatial scan.
    let rig = rig(3_000, 10, 0.7, Distribution::Uniform, 106);
    // User ids are 0..n; policies target existing users, so invent an
    // issuer by using one with no granters if present, else skip.
    let issuer = (0..3_000u64).map(UserId).find(|u| rig.ctx.friends.friends(*u).is_empty());
    let Some(issuer) = issuer else {
        return; // dense policy graph: nothing to assert
    };
    let pool = Arc::clone(rig.peb.pool());
    pool.flush_all();
    pool.clear();
    pool.reset_stats();
    let got = rig.peb.prq(issuer, &Rect::new(0.0, 1000.0, 0.0, 1000.0), 30.0);
    assert!(got.is_empty());
    assert_eq!(pool.stats().physical_reads, 0);
    let knn = rig.peb.pknn(issuer, Point::new(500.0, 500.0), 5, 30.0);
    assert!(knn.is_empty());
}
