//! Cost model in action (Sec 6): calibrate Eq. 7 from two measurements,
//! then predict PEB-tree range-query I/O across a θ sweep and compare with
//! reality — a miniature version of the paper's Fig 19.
//!
//! ```bash
//! cargo run --release --example cost_model
//! ```

use std::sync::Arc;

use peb_repro::bx::TimePartitioning;
use peb_repro::common::SpaceConfig;
use peb_repro::costmodel::{calibrate, cost, CostInputs};
use peb_repro::pebtree::{PebTree, PrivacyContext};
use peb_repro::policy::SvAssignmentParams;
use peb_repro::storage::BufferPool;
use peb_repro::workload::{DatasetBuilder, QueryGenerator};

use rand::rngs::StdRng;
use rand::SeedableRng;

const NP: usize = 20;
const QUERIES: usize = 60;

fn measure(n: usize, theta: f64) -> (CostInputs, f64) {
    let ds = DatasetBuilder::default()
        .num_users(n)
        .policies_per_user(NP)
        .grouping_factor(theta)
        .seed(11)
        .build();
    let mut store2 = peb_repro::policy::PolicyStore::new();
    for (_, viewer, p) in ds.store.iter() {
        store2.add(viewer, p.clone());
    }
    let ctx = Arc::new(PrivacyContext::build(store2, ds.space, n, SvAssignmentParams::default()));
    let tree = PebTree::new(
        Arc::new(BufferPool::new(50)),
        ds.space,
        TimePartitioning::default(),
        ds.max_speed,
        ctx,
    );
    for m in &ds.users {
        tree.upsert(*m);
    }

    let gen = QueryGenerator::new(ds.space, n);
    let mut rng = StdRng::seed_from_u64(5);
    let queries = gen.range_batch(&mut rng, QUERIES, 200.0, 30.0);
    let pool = Arc::clone(tree.pool());
    pool.flush_all();
    pool.clear();
    pool.reset_stats();
    for q in &queries {
        let _ = tree.prq(q.issuer, &q.window, q.tq);
    }
    let io = pool.stats().total_io() as f64 / QUERIES as f64;

    let inputs = CostInputs {
        num_users: n,
        policies_per_user: NP,
        theta,
        leaf_pages: tree.leaf_page_count(),
        side: SpaceConfig::default().side,
    };
    (inputs, io)
}

fn main() {
    println!("calibrating a1/a2 from two user counts (theta = 0.7)…");
    let s1 = measure(5_000, 0.7);
    let s2 = measure(20_000, 0.7);
    let params = calibrate((&s1.0, s1.1), (&s2.0, s2.1)).expect("calibration");
    println!("calibrated: a1 = {:.3}, a2 = {:.3}\n", params.a1, params.a2);

    println!("theta\testimated_io\tactual_io");
    for theta in [0.0, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let (inputs, actual) = measure(12_000, theta);
        let est = cost(&inputs, &params);
        println!("{theta:.1}\t{est:.2}\t{actual:.2}");
    }
    println!("\nThe estimate should track the downward trend in θ (Fig 19(c)).");
}
