//! Friend finder: the paper's running example (Fig 3) at city scale.
//!
//! u1 wants their nearest friend. Thousands of strangers and several
//! friends surround them, but only some friends' policies disclose their
//! location right now. The example shows both engines returning the same
//! answer while doing very different amounts of I/O — the paper's core
//! claim.
//!
//! ```bash
//! cargo run --release --example friend_finder
//! ```

use std::sync::Arc;

use peb_repro::bx::{BxTree, TimePartitioning};
use peb_repro::common::{SpaceConfig, UserId};
use peb_repro::pebtree::{PebTree, PrivacyContext, SpatialBaseline};
use peb_repro::policy::SvAssignmentParams;
use peb_repro::storage::BufferPool;
use peb_repro::workload::{DatasetBuilder, Distribution};

fn main() {
    // A 20K-user city with 30 policies per user, grouped communities.
    let dataset = DatasetBuilder::default()
        .num_users(20_000)
        .policies_per_user(30)
        .grouping_factor(0.7)
        .distribution(Distribution::Uniform)
        .seed(2011)
        .build();
    let space: SpaceConfig = dataset.space;

    println!("generated {} users, {} policies", dataset.users.len(), dataset.store.len());

    // Offline policy encoding.
    let t0 = std::time::Instant::now();
    let ctx = Arc::new(PrivacyContext::build(
        rebuild_store(&dataset.store),
        space,
        dataset.users.len(),
        SvAssignmentParams::default(),
    ));
    println!("policy encoding took {:.2}s", t0.elapsed().as_secs_f64());

    // Build both indexes.
    let part = TimePartitioning::default();
    let peb = PebTree::new(Arc::new(BufferPool::new(50)), space, part, 3.0, Arc::clone(&ctx));
    let mut spatial =
        SpatialBaseline::new(BxTree::new(Arc::new(BufferPool::new(50)), space, part, 3.0));
    for m in &dataset.users {
        peb.upsert(*m);
        spatial.upsert(*m);
    }

    // u1 asks: who are my 3 nearest visible friends?
    let issuer = UserId(1);
    let my_pos = dataset.users[1].pos;
    let tq = 30.0;
    println!(
        "\nissuer u1 at ({:.0}, {:.0}) with {} users who have policies toward them",
        my_pos.x,
        my_pos.y,
        ctx.friends.friends(issuer).len()
    );

    let peb_answer = measured(&peb, |t| t.pknn(issuer, my_pos, 3, tq));
    let spatial_answer = measured_baseline(&spatial, |b| b.pknn(&ctx.store, issuer, my_pos, 3, tq));

    println!("\nPEB-tree answer   ({} page I/Os):", peb_answer.1);
    for (m, d) in &peb_answer.0 {
        println!("  {} at distance {:.1}", m.uid, d);
    }
    println!("spatial baseline  ({} page I/Os):", spatial_answer.1);
    for (m, d) in &spatial_answer.0 {
        println!("  {} at distance {:.1}", m.uid, d);
    }

    let same = peb_answer.0.iter().map(|(m, _)| m.uid).collect::<Vec<_>>()
        == spatial_answer.0.iter().map(|(m, _)| m.uid).collect::<Vec<_>>();
    println!("\nanswers identical: {same}");
    if spatial_answer.1 > 0 {
        println!(
            "PEB-tree I/O advantage: {:.1}x fewer pages",
            spatial_answer.1 as f64 / peb_answer.1.max(1) as f64
        );
    }
}

fn measured<R>(peb: &PebTree, f: impl FnOnce(&PebTree) -> R) -> (R, u64) {
    let pool = Arc::clone(peb.pool());
    pool.flush_all();
    pool.clear();
    pool.reset_stats();
    let r = f(peb);
    (r, pool.stats().total_io())
}

fn measured_baseline<R>(b: &SpatialBaseline, f: impl FnOnce(&SpatialBaseline) -> R) -> (R, u64) {
    let pool = Arc::clone(b.pool());
    pool.flush_all();
    pool.clear();
    pool.reset_stats();
    let r = f(b);
    (r, pool.stats().total_io())
}

fn rebuild_store(store: &peb_repro::policy::PolicyStore) -> peb_repro::policy::PolicyStore {
    let mut out = peb_repro::policy::PolicyStore::new();
    for (_, viewer, p) in store.iter() {
        out.add(viewer, p.clone());
    }
    out
}
