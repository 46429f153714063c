//! Torn-read safety of the pool's read path.
//!
//! The contract under test: every read returns a **whole, consistent**
//! page image — never a mix of two writes — while writers and evictions
//! churn the very pages it reads. Writers stamp every word of a page with
//! the same value, so a single mixed-version image is detectable from any
//! one snapshot. Each thread runs a fixed number of iterations, so the
//! tests take the same work on any machine.
//!
//! These tests are also compiled and run in `--release` by CI: the
//! interesting interleavings surface under the optimizer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use peb_storage::{BufferPool, PageId, PAGE_WORDS};

/// Every word of the page gets `stamp`; readers assert uniformity.
fn stamp_page(pool: &BufferPool, pid: PageId, stamp: u64) {
    pool.write(pid, |p| {
        for i in 0..PAGE_WORDS {
            p.set_word(i, stamp);
        }
    });
}

/// A copy of every word of `pid`, read through the pool.
fn read_words(pool: &BufferPool, pid: PageId) -> Vec<u64> {
    pool.try_read(pid, |p| (0..PAGE_WORDS).map(|i| p.word(i)).collect())
        .expect("fault-free media: every read returns an image")
}

/// Assert a snapshot is single-stamped, returning the stamp.
fn uniform_stamp(words: &[u64]) -> u64 {
    let first = words[0];
    for (i, w) in words.iter().enumerate() {
        assert_eq!(*w, first, "torn page image: word {i} is {w:#x}, word 0 is {first:#x}");
    }
    first
}

#[test]
fn optimistic_readers_never_observe_torn_pages() {
    // 2 writers re-stamping 4 shared pages + 4 readers validating every
    // snapshot, on a pool large enough that the pages stay resident (the
    // race under test is reader-vs-writer, not eviction).
    const WRITER_ROUNDS: u64 = 10_000;
    const READS: u64 = 20_000;
    let pool = Arc::new(BufferPool::with_shards(16, 2));
    let pids: Vec<PageId> = (0..4).map(|_| pool.allocate()).collect();
    for (i, pid) in pids.iter().enumerate() {
        stamp_page(&pool, *pid, i as u64 + 1);
    }
    let images = AtomicU64::new(0);

    std::thread::scope(|s| {
        for w in 0..2u64 {
            let pool = Arc::clone(&pool);
            let pids = &pids;
            s.spawn(move || {
                let mut stamp = 1_000 * (w + 1);
                for _ in 0..WRITER_ROUNDS {
                    for pid in pids {
                        stamp_page(&pool, *pid, stamp);
                        stamp += 1;
                    }
                }
            });
        }
        for r in 0..4usize {
            let pool = Arc::clone(&pool);
            let (pids, images) = (&pids, &images);
            s.spawn(move || {
                for _ in 0..READS {
                    uniform_stamp(&read_words(&pool, pids[r % pids.len()]));
                    images.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(images.load(Ordering::Relaxed), 4 * READS, "every read returned an image");
}

#[test]
fn optimistic_readers_race_evictions_safely() {
    // A tiny pool (2 frames per shard) with a working set 8x larger:
    // every writer touch evicts something, so readers constantly race
    // write-backs and re-fetches, not just in-place rewrites. Snapshots
    // must still be uniform and carry a stamp the page actually had.
    const WRITER_ROUNDS: u64 = 1_000;
    const READS: u64 = 20_000;
    let pool = Arc::new(BufferPool::with_shards(4, 2));
    let pids: Vec<PageId> = (0..32).map(|_| pool.allocate()).collect();
    for pid in &pids {
        stamp_page(&pool, *pid, 7);
    }
    let images = AtomicU64::new(0);

    std::thread::scope(|s| {
        {
            let pool = Arc::clone(&pool);
            let pids = &pids;
            s.spawn(move || {
                for stamp in 10_000..10_000 + WRITER_ROUNDS {
                    for pid in pids {
                        stamp_page(&pool, *pid, stamp);
                    }
                }
            });
        }
        for _ in 0..3 {
            let pool = Arc::clone(&pool);
            let (pids, images) = (&pids, &images);
            s.spawn(move || {
                for i in 0..READS as usize {
                    let stamp = uniform_stamp(&read_words(&pool, pids[i % pids.len()]));
                    assert!(stamp == 7 || stamp >= 10_000, "stamp {stamp} never written");
                    images.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(images.load(Ordering::Relaxed), 3 * READS, "every read returned an image");
    // Liveness after the churn: every page is still readable and intact.
    for pid in &pids {
        let words = pool.read(*pid, |p| (0..PAGE_WORDS).map(|i| p.word(i)).collect::<Vec<u64>>());
        uniform_stamp(&words);
    }
}

#[test]
fn clear_under_concurrent_readers_never_poisons_slots() {
    // clear()/reset_stats() racing readers must leave the pool whole:
    // every racing read returns an image, and afterwards (quiesced) every
    // page reads back.
    const CLEAR_ROUNDS: usize = 2_000;
    const READS: usize = 50_000;
    let pool = Arc::new(BufferPool::with_shards(8, 2));
    let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();

    std::thread::scope(|s| {
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            let pids = &pids;
            s.spawn(move || {
                for i in 0..READS {
                    let read = pool.try_read(pids[i % pids.len()], |p| p.get_u64(0));
                    assert!(read.is_ok(), "a read racing clear() returned no image");
                }
            });
        }
        {
            let pool = Arc::clone(&pool);
            let pids = &pids;
            s.spawn(move || {
                for _ in 0..CLEAR_ROUNDS {
                    pool.clear();
                    pool.reset_stats();
                    for pid in pids {
                        pool.read(*pid, |_| ()); // fault back in
                    }
                }
            });
        }
    });

    // Quiesced: every page is readable again and the pool holds them all.
    pool.clear();
    pool.reset_stats();
    for pid in &pids {
        assert!(pool.try_read(*pid, |_| ()).is_ok(), "{pid:?} unreadable after clear/reset_stats");
    }
    assert_eq!(pool.stats().physical_reads, pids.len() as u64, "each page faulted in once");
    assert_eq!(pool.resident_pages(), pids.len());
}
