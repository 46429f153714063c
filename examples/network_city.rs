//! Network city: users move on a road network between destination hubs
//! (the paper's network-based workload, Sec 7.7) while the system serves
//! privacy-aware range queries and absorbs location updates.
//!
//! Demonstrates the full update loop: simulate traffic → push updates into
//! the index → query → repeat, comparing I/O of the PEB-tree and the
//! spatial baseline as the city evolves.
//!
//! ```bash
//! cargo run --release --example network_city
//! ```

use std::sync::Arc;

use peb_repro::bx::{BxTree, TimePartitioning};
use peb_repro::common::{Rect, UserId};
use peb_repro::pebtree::{PebTree, PrivacyContext, SpatialBaseline};
use peb_repro::policy::SvAssignmentParams;
use peb_repro::storage::BufferPool;
use peb_repro::workload::{DatasetBuilder, Distribution, QueryGenerator};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 10K travelers on a sparse network of 50 destinations: positions are
    // heavily skewed along the roads.
    let mut dataset = DatasetBuilder::default()
        .num_users(10_000)
        .policies_per_user(20)
        .grouping_factor(0.8)
        .distribution(Distribution::Network { hubs: 50 })
        .seed(7)
        .build();
    let space = dataset.space;
    println!(
        "network city: {} travelers, {} destinations, {} policies",
        dataset.users.len(),
        dataset.network.as_ref().unwrap().network.num_hubs(),
        dataset.store.len()
    );

    let ctx = Arc::new(PrivacyContext::build(
        dataset.store.clone(),
        space,
        dataset.users.len(),
        SvAssignmentParams::default(),
    ));
    let part = TimePartitioning::default();
    let peb = PebTree::new(Arc::new(BufferPool::new(50)), space, part, 3.0, Arc::clone(&ctx));
    let mut spatial =
        SpatialBaseline::new(BxTree::new(Arc::new(BufferPool::new(50)), space, part, 3.0));
    for m in &dataset.users {
        peb.upsert(*m);
        spatial.upsert(*m);
    }

    let gen = QueryGenerator::new(space, dataset.users.len());
    let mut rng = StdRng::seed_from_u64(99);

    println!("\ntick\ttime\tpeb_prq_io\tspatial_prq_io\tresults_equal");
    let mut sim = dataset.network.take().unwrap();
    for tick in 0..6 {
        // Traffic moves for 15 time units, then everyone reports in.
        sim.step(&mut rng, 15.0);
        for m in sim.snapshot_all() {
            peb.upsert(m);
            spatial.upsert(m);
        }
        let tq = sim.time() + 5.0;

        // Measure a small batch of range queries on both engines.
        let queries = gen.range_batch(&mut rng, 25, 200.0, tq);
        let (peb_io, spatial_io, mut all_equal) = (reset(&peb), reset_b(&spatial), true);
        let mut peb_total = 0u64;
        let mut spatial_total = 0u64;
        for q in &queries {
            let a: Vec<UserId> = peb.prq(q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
            let b: Vec<UserId> =
                spatial.prq(&ctx.store, q.issuer, &q.window, q.tq).iter().map(|m| m.uid).collect();
            all_equal &= a == b;
        }
        peb_total += peb.pool().stats().total_io() - peb_io;
        spatial_total += spatial.pool().stats().total_io() - spatial_io;
        println!(
            "{tick}\t{:.0}\t{:.1}\t{:.1}\t{all_equal}",
            sim.time(),
            peb_total as f64 / queries.len() as f64,
            spatial_total as f64 / queries.len() as f64,
        );
    }

    // Spot check one named query against the policy store.
    let issuer = UserId(17);
    let window = Rect::new(300.0, 700.0, 300.0, 700.0);
    let visible = peb.prq(issuer, &window, sim.time() + 5.0);
    println!(
        "\nu17 sees {} user(s) in the central district; {} users have policies toward u17",
        visible.len(),
        ctx.friends.friends(issuer).len()
    );
}

fn reset(p: &PebTree) -> u64 {
    p.pool().stats().total_io()
}

fn reset_b(b: &SpatialBaseline) -> u64 {
    b.pool().stats().total_io()
}
