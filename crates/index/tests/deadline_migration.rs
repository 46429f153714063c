//! Deadline-bounded scans at the index layer, and the seeded regression
//! for deadline expiry racing an in-flight migration.
//!
//! Two contracts under test:
//!
//! * [`ShardedMovingIndex::try_scan_plan`] of a plain interval delivers an
//!   exact prefix with an honest per-partition completeness tag — the
//!   partitions it finished are marked complete, the one the budget died
//!   in and everything after are not, and the records handed out match
//!   the unbounded scan record-for-record.
//! * A query whose deadline fires **while a migration span is in flight**
//!   (frozen between `mig_started` and `mig_done` via the seeded
//!   scheduler's `site:mig-span` gate) degrades to an all-incomplete
//!   answer instead of blocking on the writer — and once the writer is
//!   released, the epoch is balanced and the migrated uid exists exactly
//!   once. Cancellation can never strand the epoch or drop/duplicate an
//!   object, because cancellation is read-side only: the epoch belongs
//!   to writers, who rebalance it on every path (including errors).

use std::sync::Arc;

use peb_btree::{ScanPlan, ScanTermination, Visit};
use peb_common::{sched, Deadline, MovingPoint, Point, SpaceConfig, UserId, Vec2};
use peb_index::{KeyLayout, ShardedMovingIndex, TimePartitioning};
use peb_storage::BufferPool;

/// Same minimal layout as the unit tests: `[TID]₂ ⊕ [ZV]₂ ⊕ [UID]₂`.
#[derive(Debug, Clone, Copy)]
struct TestLayout;

const ZV_BITS: u32 = 20;
const UID_BITS: u32 = 32;

impl KeyLayout for TestLayout {
    fn zv_bits(&self) -> u32 {
        ZV_BITS
    }

    fn key(&self, tid: u8, zv: u64, uid: u64) -> u128 {
        ((tid as u128) << (ZV_BITS + UID_BITS)) | ((zv as u128) << UID_BITS) | uid as u128
    }

    fn partition_range(&self, tid: u8) -> (u128, u128) {
        (self.key(tid, 0, 0), self.key(tid, (1 << ZV_BITS) - 1, (1 << UID_BITS) - 1))
    }
}

fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
    MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
}

fn make() -> ShardedMovingIndex<TestLayout> {
    ShardedMovingIndex::new(
        Arc::new(BufferPool::new(64)),
        TestLayout,
        SpaceConfig::new(1000.0, 10, 1440.0),
        TimePartitioning::new(120.0, 2),
        3.0,
    )
}

/// Two live partitions: uids 0..200 updated at t=10 (partition of label
/// 120) and uids 200..400 at t=130 (label 240).
fn populate_two_partitions(idx: &ShardedMovingIndex<TestLayout>) {
    for i in 0..200u64 {
        idx.upsert(still(i, (i % 31) as f64 * 32.0 + 1.0, (i / 31) as f64 * 140.0 + 1.0, 10.0));
    }
    for i in 200..400u64 {
        idx.upsert(still(i, (i % 29) as f64 * 34.0 + 2.0, (i / 29) as f64 * 60.0 + 2.0, 130.0));
    }
}

fn collect_all(idx: &ShardedMovingIndex<TestLayout>) -> Vec<(u128, u64)> {
    let mut out = Vec::new();
    idx.scan_keys(0, u128::MAX, |k, r| {
        out.push((k, r.uid));
        true
    });
    out
}

#[test]
fn unbounded_deadline_scan_matches_the_plain_scan() {
    let idx = make();
    populate_two_partitions(&idx);
    let want = collect_all(&idx);
    assert_eq!(want.len(), 400);
    let clock = idx.pool().clock().clone();
    let mut got = Vec::new();
    let report = idx
        .try_scan_plan(
            &ScanPlan::from_intervals(&[(0, u128::MAX)]),
            &Deadline::unbounded(&clock),
            |k, r| {
                got.push((k, r.uid));
                Visit::Next
            },
        )
        .unwrap();
    assert_eq!(report.termination, ScanTermination::Complete);
    assert!(report.is_complete());
    assert_eq!(report.complete_partitions(), report.partitions.len());
    // All three rotating partitions intersect [0, MAX] — including the
    // empty one, which completes trivially.
    assert_eq!(report.partitions.len(), 3);
    assert!(report.partitions.iter().all(|(_, c)| *c));
    assert_eq!(got, want);
}

#[test]
fn expiry_tags_the_partitions_the_scan_never_finished() {
    let idx = make();
    populate_two_partitions(&idx);
    let want = collect_all(&idx); // also warms the pool
    let clock = idx.pool().clock().clone();

    // A budget that dies inside the first partition: the report must say
    // so, and the records delivered must be an exact prefix.
    let deadline = Deadline::after(&clock, 2);
    let mut got = Vec::new();
    let report = idx
        .try_scan_plan(&ScanPlan::from_intervals(&[(0, u128::MAX)]), &deadline, |k, r| {
            got.push((k, r.uid));
            Visit::Next
        })
        .unwrap();
    assert_eq!(report.termination, ScanTermination::Expired);
    assert!(!report.is_complete());
    assert_eq!(report.partitions.len(), 3);
    // Two ticks cannot finish either *live* partition (the empty one may
    // complete trivially).
    assert!(report.complete_partitions() <= 1);
    assert!(got.len() < want.len());
    assert_eq!(got[..], want[..got.len()], "partial answers are exact prefixes");

    // A budget that finishes every earlier partition but dies in the
    // last *live* one: per-partition honesty, not all-or-nothing.
    // Measure each partition's warm cost, then grant one tick more than
    // everything before the last live partition.
    let tids: Vec<u8> = report.partitions.iter().map(|(t, _)| *t).collect();
    let cost_of = |tid: u8| {
        let (plo, phi) = idx.layout().partition_range(tid);
        let t0 = clock.now();
        idx.try_scan_plan(
            &ScanPlan::from_intervals(&[(plo, phi)]),
            &Deadline::unbounded(&clock),
            |_, _| Visit::Next,
        )
        .unwrap();
        clock.now() - t0
    };
    let costs: Vec<u64> = tids.iter().map(|&t| cost_of(t)).collect();
    let last_live = costs.iter().rposition(|&c| c > 2).expect("a live partition exists");
    assert!(last_live > 0, "some partition precedes the last live one");
    let budget: u64 = costs[..last_live].iter().sum::<u64>() + 1;
    let (_, before_hi) = idx.layout().partition_range(tids[last_live - 1]);
    let full_before: usize = want.iter().filter(|(k, _)| *k <= before_hi).count();

    let deadline = Deadline::after(&clock, budget);
    let mut got = Vec::new();
    let report = idx
        .try_scan_plan(&ScanPlan::from_intervals(&[(0, u128::MAX)]), &deadline, |k, r| {
            got.push((k, r.uid));
            Visit::Next
        })
        .unwrap();
    assert_eq!(report.termination, ScanTermination::Expired);
    assert_eq!(
        report.complete_partitions(),
        last_live,
        "everything before it finished: {report:?}"
    );
    assert!(report.partitions[..last_live].iter().all(|(_, c)| *c));
    assert!(report.partitions[last_live..].iter().all(|(_, c)| !*c));
    assert!(got.len() >= full_before, "the complete partitions were fully delivered");
    assert!(got.len() < want.len());
    assert_eq!(got[..], want[..got.len()]);
}

#[test]
fn single_partition_deadline_scan_streams_with_early_exit() {
    let idx = make();
    populate_two_partitions(&idx);
    let clock = idx.pool().clock().clone();
    let (lo, hi) = idx.layout().partition_range(idx.live_partitions()[0].0);
    let mut n = 0usize;
    let report = idx
        .try_scan_plan(
            &ScanPlan::from_intervals(&[(lo, hi)]),
            &Deadline::unbounded(&clock),
            |_, _| {
                n += 1;
                Visit::next_if(n < 10)
            },
        )
        .unwrap();
    assert_eq!(report.termination, ScanTermination::Stopped);
    assert_eq!(n, 10);
    assert_eq!(report.partitions.len(), 1);
    assert!(!report.partitions[0].1, "a stopped partition is not complete");
}

/// The seeded mid-migration regression (the satellite): freeze a writer
/// inside its migration span, expire a multi-shard scan against the
/// frozen epoch, and prove (a) the expired scan returns all-incomplete
/// instead of waiting for the writer, (b) releasing the writer rebalances
/// the epoch, (c) the migrated uid is neither dropped nor duplicated.
#[test]
fn expired_scan_degrades_while_a_migration_is_in_flight() {
    let idx = Arc::new(make());
    populate_two_partitions(&idx);
    let clock = idx.pool().clock().clone();

    // Freeze the next migration span at `site:mig-span` (0 permits: the
    // first arrival parks). The guard wires disable-on-drop so a failing
    // assert cannot wedge the parked writer.
    let _sched = sched::SeededSection::new(0xD15C);
    sched::close(sched::site_name(sched::Site::MigSpan), 0);

    // uid 7 last reported at t=10 (label 120); reporting at t=70 rolls it
    // into the other partition — a cross-partition migration.
    let writer = {
        let idx = Arc::clone(&idx);
        std::thread::spawn(move || {
            idx.upsert(still(7, 110.0, 110.0, 70.0));
        })
    };
    while !sched::is_blocked(sched::site_name(sched::Site::MigSpan)) {
        std::thread::yield_now();
    }

    // The writer is parked mid-span: epoch unbalanced, uid 7 in no shard.
    // Expire a multi-shard scan's budget and issue it: it must return,
    // not block behind the frozen migration.
    let deadline = Deadline::after(&clock, 2);
    clock.advance(10);
    assert!(deadline.expired());
    let mut seen = 0usize;
    let report = idx
        .try_scan_plan(&ScanPlan::from_intervals(&[(0, u128::MAX)]), &deadline, |_, _| {
            seen += 1;
            Visit::Next
        })
        .unwrap();
    assert_eq!(report.termination, ScanTermination::Expired);
    assert_eq!(seen, 0, "an expired scan racing a migration serves nothing, explicitly");
    assert!(report.partitions.iter().all(|(_, c)| !*c));

    // Release the writer; the span must land and rebalance the epoch.
    sched::open(sched::site_name(sched::Site::MigSpan));
    writer.join().unwrap();

    // No strand: an unbounded scan completes (it would spin forever on an
    // unbalanced epoch), and uid 7 exists exactly once, at its new home.
    let all = collect_all(&idx);
    assert_eq!(all.iter().filter(|(_, uid)| *uid == 7).count(), 1, "no drop, no duplicate");
    assert_eq!(all.len(), 400);
    assert_eq!(idx.get(UserId(7)).unwrap().pos, Point::new(110.0, 110.0));
    let clock2 = idx.pool().clock().clone();
    let report = idx
        .try_scan_plan(
            &ScanPlan::from_intervals(&[(0, u128::MAX)]),
            &Deadline::unbounded(&clock2),
            |_, _| Visit::Next,
        )
        .unwrap();
    assert!(report.is_complete(), "the epoch is balanced: full scans complete again");
}
