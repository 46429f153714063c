//! The read-repair source under logical redo: the image
//! [`Wal::latest_image`] serves a page is the image of what was last
//! written to that page on the data disk — whether a checkpoint flushed
//! it, an eviction stole it mid-interval, or a checkpoint had to carry it
//! in the log because its sector is quarantined — before a crash and
//! after recovery.
//!
//! Every write here runs the way a registered B+-tree's does: inside a
//! [`BufferPool::redo_scope`], described by a logical record and no page
//! image, so every image in the log is one the pool logged for repair or
//! undo.

use std::sync::Arc;

use peb_storage::{
    recover, BufferPool, DiskSim, FaultKind, PageId, TreeOpKind, Wal, WalRecord,
    TREE_OP_VALUE_BYTES,
};

fn durable_pool(frames: usize) -> Arc<BufferPool> {
    let pool = Arc::new(BufferPool::new(frames));
    pool.set_durable(true);
    pool
}

/// Write `v` into `pid` as one logged tree operation would.
fn stamp(pool: &Arc<BufferPool>, pid: PageId, v: u64) {
    let scope = pool.redo_scope().expect("durable pool");
    pool.write(pid, |p| p.put_u64(0, v));
    scope.log(&WalRecord::TreeOp {
        tree: 0,
        op: TreeOpKind::Insert,
        key: u128::from(v),
        value: [0; TREE_OP_VALUE_BYTES],
    });
}

/// The committed content every page read is compared with.
fn word(disk: &DiskSim, pid: PageId) -> u64 {
    disk.peek(pid).expect("allocated").get_u64(0)
}

/// Crash now and recover the platters: the recovered data disk and the
/// resumed log.
fn crash(pool: &BufferPool) -> (DiskSim, Wal) {
    let (mut data, log) = pool.harvest_crash_state();
    let rec = recover(&mut data, &log);
    (data, Wal::resume(log, &rec))
}

/// After recovery every page's repair image is what the disk holds.
fn assert_repair_images_match_the_disk(data: &DiskSim, wal: &Wal, pids: &[PageId]) {
    for &pid in pids {
        let image = wal.latest_image(pid).expect("every page was written back under the log");
        assert_eq!(
            image,
            *data.peek(pid).unwrap(),
            "repair image of page {} after recovery",
            pid.0
        );
    }
}

#[test]
fn a_page_a_checkpoint_flushed_repairs_to_what_the_checkpoint_wrote() {
    let pool = durable_pool(16);
    let pids: Vec<PageId> = (0..3).map(|_| pool.allocate()).collect();
    for (i, &pid) in pids.iter().enumerate() {
        stamp(&pool, pid, 100 + i as u64);
    }
    pool.wal_commit(1);
    assert_eq!(pool.checkpoint(&[]), 3);
    assert_eq!(
        pool.wal_stats().records,
        3 + 3 + 1 + 2 + 3 + 1,
        "allocations, tree ops (no post-images), commit, checkpoint begin and page count, \
         one write-back image per flushed page, checkpoint end"
    );

    let (disk, _) = pool.harvest_crash_state();
    pool.clear();
    pool.with_fault_injector(|f| f.arm_read(Some(pids[1]), 0, FaultKind::BitFlip { bits: 2 }));
    assert_eq!(pool.read(pids[1], |p| p.get_u64(0)), word(&disk, pids[1]));
    assert_eq!(word(&disk, pids[1]), 101);
    assert_eq!(pool.fault_stats().repairs_succeeded, 1);

    let (data, wal) = crash(&pool);
    assert_repair_images_match_the_disk(&data, &wal, &pids);
}

#[test]
fn a_page_stolen_mid_interval_repairs_to_what_the_eviction_wrote() {
    let pool = durable_pool(4);
    let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
    for &pid in &pids {
        stamp(&pool, pid, 1);
    }
    pool.wal_commit(1);
    pool.checkpoint(&[]);
    pool.clear();
    // Each stamp faults its page in (its first device read) and, the pool
    // holding 4 frames, steals the dirty frame 4 stamps back.
    for (i, &pid) in pids.iter().enumerate() {
        stamp(&pool, pid, 200 + i as u64);
    }
    pool.wal_commit(2);
    let (disk, _) = pool.harvest_crash_state();
    for (i, &pid) in pids[..4].iter().enumerate() {
        assert_eq!(word(&disk, pid), 200 + i as u64, "page {i} was stolen mid-interval");
    }
    // A sector that will not take the repair: the page is served straight
    // from its repair image.
    pool.with_fault_injector(|f| f.mark_bad_sector(pids[2]));
    assert_eq!(pool.read(pids[2], |p| p.get_u64(0)), 202, "served the stolen image");
    assert_eq!(pool.quarantined_pages(), vec![pids[2]]);

    // Recovery rolls every page back to its checkpoint image (the tree
    // operations are the index's to re-execute), and repair follows it.
    let (data, wal) = crash(&pool);
    assert!(pids.iter().all(|&pid| word(&data, pid) == 1), "undone to the checkpoint");
    assert_repair_images_match_the_disk(&data, &wal, &pids);
}

#[test]
fn a_quarantined_page_crosses_a_checkpoint_and_a_crash_with_its_committed_content() {
    let pool = durable_pool(8);
    let pids: Vec<PageId> = (0..2).map(|_| pool.allocate()).collect();
    stamp(&pool, pids[0], 7);
    stamp(&pool, pids[1], 8);
    pool.wal_commit(1);
    pool.checkpoint(&[]);
    pool.clear();
    // A grown defect: the next read quarantines the page, served from its
    // checkpoint image, and a committed write then dirties the pinned frame.
    pool.with_fault_injector(|f| f.mark_bad_sector(pids[0]));
    assert_eq!(pool.read(pids[0], |p| p.get_u64(0)), 7);
    assert_eq!(pool.quarantined_pages(), vec![pids[0]]);
    stamp(&pool, pids[0], 70);
    pool.wal_commit(2);
    // The checkpoint cannot flush the pinned frame; it logs its image.
    assert_eq!(pool.checkpoint(&[]), 0, "nothing else is dirty");
    assert_eq!(pool.dirty_page_count(), 1, "the quarantined frame stays dirty");

    let (data, wal) = crash(&pool);
    assert_eq!(word(&data, pids[0]), 70, "recovery restored the checkpoint's image");
    assert_eq!(wal.latest_image(pids[0]).unwrap().get_u64(0), 70);
    // The sector is still bad after the restart: read-repair serves the
    // committed content from the log and quarantines the page again.
    let back = BufferPool::from_recovered(8, 1, data.clone(), wal);
    assert_eq!(back.read(pids[0], |p| p.get_u64(0)), 70);
    assert_eq!(back.read(pids[1], |p| p.get_u64(0)), 8);
    assert_eq!(back.quarantined_pages(), vec![pids[0]]);
    // A replaced drive reads the committed content straight off the disk.
    let (mut healed, log) = pool.harvest_crash_state();
    healed.faults_mut().clear();
    let rec = recover(&mut healed, &log);
    let fresh = BufferPool::from_recovered(8, 1, healed, Wal::resume(log, &rec));
    assert_eq!(fresh.read(pids[0], |p| p.get_u64(0)), 70);
    assert_eq!(fresh.fault_stats().repairs_attempted, 0);
}
