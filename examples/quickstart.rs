//! Quickstart: build a PEB-tree over a handful of users, define privacy
//! policies, and run a privacy-aware range query and kNN query.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use peb_repro::bx::TimePartitioning;
use peb_repro::common::{MovingPoint, Point, Rect, SpaceConfig, TimeInterval, UserId, Vec2};
use peb_repro::pebtree::{PebTree, PrivacyContext};
use peb_repro::policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};
use peb_repro::storage::BufferPool;

fn main() {
    let space = SpaceConfig::default(); // 1000 x 1000, one-day time domain

    // 1. Users define location-privacy policies: <role, locr, tint>.
    //    Alice (u1) lets Bob (u0) see her anywhere, any time; Carol (u2)
    //    only downtown during business hours; Dave (u3) grants nothing.
    let mut store = PolicyStore::new();
    let anywhere = Rect::new(0.0, 1000.0, 0.0, 1000.0);
    let downtown = Rect::new(400.0, 600.0, 400.0, 600.0);
    let always = TimeInterval::new(0.0, 1440.0);
    let business_hours = TimeInterval::new(480.0, 1020.0); // 8am - 5pm

    store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, anywhere, always));
    store.add(UserId(0), Policy::new(UserId(2), RoleId::COLLEAGUE, downtown, business_hours));

    // 2. The offline policy encoding: compatibility scores -> sequence
    //    values -> SV-sorted friend lists.
    let ctx = Arc::new(PrivacyContext::build(store, space, 4, SvAssignmentParams::default()));
    for u in 0..4u64 {
        println!("SV(u{u}) = {:.2}", ctx.seqvals.value(UserId(u)));
    }

    // 3. Build the index and insert moving users (position, velocity,
    //    update time). Phones report in every few minutes, so updates
    //    arrive shortly before queries.
    let tree = PebTree::new(
        Arc::new(BufferPool::new(50)),
        space,
        TimePartitioning::default(),
        3.0,
        Arc::clone(&ctx),
    );
    let morning_update = 595.0; // 9:55am, in minutes since midnight
    tree.upsert(MovingPoint::new(
        UserId(1),
        Point::new(480.0, 520.0),
        Vec2::new(1.0, 0.0),
        morning_update,
    ));
    tree.upsert(MovingPoint::new(
        UserId(2),
        Point::new(510.0, 490.0),
        Vec2::new(0.0, 1.0),
        morning_update,
    ));
    tree.upsert(MovingPoint::new(UserId(3), Point::new(505.0, 505.0), Vec2::ZERO, morning_update));

    // 4. Privacy-aware range query: who can Bob see downtown at 10am?
    let tq = 600.0; // 10am
    let found = tree.prq(UserId(0), &downtown, tq);
    println!("\nPRQ (downtown, 10am): Bob sees {:?}", ids(&found));

    // 5. Privacy-aware kNN: Bob's 2 nearest visible users at 10am.
    let knn = tree.pknn(UserId(0), Point::new(500.0, 500.0), 2, tq);
    println!("PkNN (k=2, 10am):");
    for (m, dist) in &knn {
        println!("  {} at distance {:.1}", m.uid, dist);
    }

    // 6. In the evening everyone reports in again; Carol's business-hours
    //    policy no longer applies, so only Alice stays visible.
    let evening_update = 1255.0; // 8:55pm
    tree.upsert(MovingPoint::new(UserId(1), Point::new(500.0, 510.0), Vec2::ZERO, evening_update));
    tree.upsert(MovingPoint::new(UserId(2), Point::new(520.0, 480.0), Vec2::ZERO, evening_update));
    let found_night = tree.prq(UserId(0), &downtown, 1260.0); // 9pm
    println!("PRQ (downtown, 9pm): Bob sees {:?}", ids(&found_night));

    // I/O accounting is built in:
    let io = tree.pool().stats();
    println!(
        "\nindex I/O so far: {} physical reads, {} writes, {:.0}% buffer hits",
        io.physical_reads,
        io.physical_writes,
        io.hit_ratio() * 100.0
    );
}

fn ids(ms: &[MovingPoint]) -> Vec<String> {
    ms.iter().map(|m| m.uid.to_string()).collect()
}
