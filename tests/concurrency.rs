//! Concurrent read queries: the buffer pool is the only shared mutable
//! state (interior mutability behind a mutex), so `&PebTree` queries must
//! be safe and correct from many threads at once — the deployment shape of
//! a location-based service serving many issuers.

use std::sync::Arc;

use peb_repro::bx::TimePartitioning;
use peb_repro::common::{Point, Rect, UserId};
use peb_repro::pebtree::oracle::oracle_prq;
use peb_repro::pebtree::{PebTree, PrivacyContext};
use peb_repro::policy::{PolicyStore, SvAssignmentParams};
use peb_repro::storage::BufferPool;
use peb_repro::workload::{DatasetBuilder, QueryGenerator};

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parallel_queries_match_oracle() {
    let ds = DatasetBuilder::default()
        .num_users(3_000)
        .policies_per_user(12)
        .grouping_factor(0.7)
        .seed(321)
        .build();
    let n = ds.users.len();
    let mut store2 = PolicyStore::new();
    for (_, viewer, p) in ds.store.iter() {
        store2.add(viewer, p.clone());
    }
    let ctx = Arc::new(PrivacyContext::build(store2, ds.space, n, SvAssignmentParams::default()));
    let tree = PebTree::new(
        Arc::new(BufferPool::new(50)),
        ds.space,
        TimePartitioning::default(),
        ds.max_speed,
        Arc::clone(&ctx),
    );
    for m in &ds.users {
        tree.upsert(*m);
    }
    let tree = Arc::new(tree);
    let users = Arc::new(ds.users);

    let gen = QueryGenerator::new(ds.space, n);
    let mut rng = StdRng::seed_from_u64(77);
    let queries = Arc::new(gen.range_batch(&mut rng, 64, 300.0, 30.0));
    let knn_queries = Arc::new(gen.knn_batch(&mut rng, 32, 4, 30.0));

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let users = Arc::clone(&users);
            let queries = Arc::clone(&queries);
            let knn_queries = Arc::clone(&knn_queries);
            std::thread::spawn(move || {
                // Each thread walks the query list from a different offset.
                for (i, q) in queries.iter().enumerate().skip(t * 16).take(32) {
                    let got: Vec<UserId> =
                        tree.prq(q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
                    let want = oracle_prq(&users, &tree.context().store, q.issuer, &q.window, q.tq);
                    assert_eq!(got, want, "thread {t} query {i}");
                }
                for q in knn_queries.iter().skip(t * 8).take(16) {
                    let got = tree.pknn(q.issuer, q.q, q.k, q.tq);
                    assert!(got.len() <= q.k);
                    assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("query thread panicked");
    }

    // The pool stayed consistent: a final sanity query still works.
    let got = tree.prq(UserId(0), &Rect::new(0.0, 1000.0, 0.0, 1000.0), 30.0);
    let want = oracle_prq(
        &users,
        &tree.context().store,
        UserId(0),
        &Rect::new(0.0, 1000.0, 0.0, 1000.0),
        30.0,
    );
    assert_eq!(got.iter().map(|m| m.uid).collect::<Vec<_>>(), want);
    let _ = tree.pwd(UserId(0), Point::new(500.0, 500.0), 100.0, 30.0);
}
