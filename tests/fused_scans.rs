//! Migration consistency of the fused multi-interval scan path.
//!
//! `try_scan_keys_multi` shares `scan_keys`'s contract: a multi-shard scan
//! racing a cross-partition migration must never observe a moving object
//! twice (old and new entry) or not at all. These tests race fused scans
//! — whole-range and genuinely multi-interval sets — against migrating
//! batch traffic, in the style of `tests/snapshot_scans.rs`, and also
//! pin the quiesced equivalence between the fused and per-interval
//! paths.
//!
//! Run in `--release` by CI as well — interleavings shift under the
//! optimizer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use peb_repro::bx::{BxTree, TimePartitioning};
use peb_repro::common::{MovingPoint, Point, SpaceConfig, UserId, Vec2};
use peb_repro::storage::BufferPool;

fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
    MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
}

fn space() -> SpaceConfig {
    SpaceConfig::new(1000.0, 10, 1440.0)
}

/// A grid population updated at `t`.
fn population(n: u64, t: f64) -> Vec<MovingPoint> {
    (0..n)
        .map(|i| still(i, (i % 40) as f64 * 24.0 + 3.0, (i / 40) as f64 * 90.0 + 3.0, t))
        .collect()
}

/// An interval set covering every key of every partition in several
/// overlapping pieces — a genuinely multi-interval, multi-shard fused
/// scan whose union is the whole key space.
fn full_cover_intervals(tree: &BxTree) -> Vec<(u128, u128)> {
    let mut out = Vec::new();
    for tid in 0..tree.index().num_shards() as u8 {
        let (lo, hi) = {
            use peb_repro::index::KeyLayout;
            tree.index().layout().partition_range(tid)
        };
        let mid = lo + (hi - lo) / 2;
        // Overlapping halves plus a redundant whole, shuffled.
        out.push((mid, hi));
        out.push((lo, mid + 1));
        out.push((lo, hi));
    }
    out.push((0, u128::MAX));
    out
}

/// One fused scan over `intervals`: every live uid must appear exactly
/// once.
fn assert_fused_scan_consistent(tree: &BxTree, intervals: &[(u128, u128)], n: u64) {
    let mut seen = vec![0u32; n as usize];
    tree.index()
        .try_scan_keys_multi(intervals, |_, rec| {
            seen[rec.uid as usize] += 1;
            true
        })
        .unwrap();
    for (uid, count) in seen.iter().enumerate() {
        assert_eq!(
            *count, 1,
            "uid {uid} observed {count} times by a fused scan racing migrations \
             (0 = dropped, 2 = duplicated)"
        );
    }
}

#[test]
fn fused_scans_racing_migrating_batches_never_drop_or_duplicate() {
    let n = 600u64;
    let part = TimePartitioning::new(120.0, 2);
    let tree = Arc::new(BxTree::bulk_load(
        Arc::new(BufferPool::sharded(4_096)),
        space(),
        part,
        3.0,
        &population(n, 10.0),
        1.0,
    ));
    let stop = AtomicBool::new(false);
    let scans_done = AtomicU64::new(0);

    std::thread::scope(|s| {
        // Migrator: batches bounce every object between the label-120 and
        // label-240 partitions — each round is one big cross-shard
        // migration span.
        {
            let tree = Arc::clone(&tree);
            let stop = &stop;
            s.spawn(move || {
                let mut phase = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = if phase.is_multiple_of(2) { 70.0 } else { 10.0 };
                    tree.upsert_batch(&population(n, t));
                    phase += 1;
                }
            });
        }
        // Fused scanners: the multi-interval cover must always see each
        // uid exactly once, like a plain full-range scan would.
        for _ in 0..2 {
            let tree = Arc::clone(&tree);
            let (stop, scans_done) = (&stop, &scans_done);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let intervals = full_cover_intervals(&tree);
                    assert_fused_scan_consistent(&tree, &intervals, n);
                    scans_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(700));
        stop.store(true, Ordering::Relaxed);
    });

    assert!(scans_done.load(Ordering::Relaxed) > 0, "no fused scan completed during the race");
    assert!(tree.index().migration_epoch() > 0, "the migrator never migrated");
    // Quiesced: still exactly one entry per object, and the fused path
    // agrees entry-for-entry with the per-interval path.
    let intervals = full_cover_intervals(&tree);
    assert_fused_scan_consistent(&tree, &intervals, n);
    let mut per = Vec::new();
    tree.index().scan_keys(0, u128::MAX, |k, rec| {
        per.push((k, rec.uid));
        true
    });
    let mut fused = Vec::new();
    tree.index()
        .try_scan_keys_multi(&intervals, |k, rec| {
            fused.push((k, rec.uid));
            true
        })
        .unwrap();
    assert_eq!(per, fused, "quiesced fused scan must equal the per-interval scan");
    assert_eq!(tree.len(), n as usize);
}

#[test]
fn fused_single_shard_scans_race_single_object_migrations() {
    // Single-shard fused sets stream under one read lock (the hot query
    // path); race them against slow-path single-object migrations.
    let n = 400u64;
    let part = TimePartitioning::new(120.0, 2);
    let tree = Arc::new(BxTree::bulk_load(
        Arc::new(BufferPool::sharded(2_048)),
        space(),
        part,
        3.0,
        &population(n, 10.0),
        1.0,
    ));
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        {
            let tree = Arc::clone(&tree);
            let stop = &stop;
            s.spawn(move || {
                let mut phase = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let t = if phase.is_multiple_of(2) { 70.0 } else { 10.0 };
                    for uid in (0..n).step_by(7) {
                        tree.index().upsert(still(uid, 500.0, 500.0, t));
                    }
                    phase += 1;
                }
            });
        }
        {
            let tree = Arc::clone(&tree);
            let stop = &stop;
            s.spawn(move || {
                use peb_repro::index::KeyLayout;
                while !stop.load(Ordering::Relaxed) {
                    // Per partition: an overlapping in-shard interval set.
                    // Never-migrating uids (not divisible by 7) must each
                    // appear exactly once across the partitions.
                    let mut seen = vec![0u32; n as usize];
                    for tid in 0..tree.index().num_shards() as u8 {
                        let (lo, hi) = tree.index().layout().partition_range(tid);
                        let third = (hi - lo) / 3;
                        let set =
                            [(lo + third, hi), (lo, lo + 2 * third), (lo + third, lo + 2 * third)];
                        tree.index()
                            .try_scan_keys_multi(&set, |_, rec| {
                                seen[rec.uid as usize] += 1;
                                true
                            })
                            .unwrap();
                    }
                    for (uid, count) in seen.iter().enumerate() {
                        if uid % 7 != 0 {
                            assert_eq!(*count, 1, "stationary uid {uid} observed {count} times");
                        }
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
        stop.store(true, Ordering::Relaxed);
    });
    let intervals = full_cover_intervals(&tree);
    assert_fused_scan_consistent(&tree, &intervals, n);
}
