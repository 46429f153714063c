//! Concurrency suite for the optimistic-lock-coupling write path
//! ([`peb_btree::olc`]): a linearizability-style history checker over
//! racing writers and readers, plus deterministic seeded-schedule
//! regression tests that freeze a writer mid-structural-modification
//! (via [`peb_common::sched`] gates) and prove readers keep completing
//! against the half-published state.
//!
//! # History checking model
//!
//! Writers own disjoint key sets, so each key's writes are totally
//! ordered in real time and every written value is unique. Each
//! operation is stamped with invocation/response ticks from one global
//! clock. The checker then validates every *observation* (a point get,
//! or one key's presence/absence in a range or multi-range scan)
//! per key: key `k`'s state sequence is `None, v₁, v₂, …` where `vᵢ`
//! came from write `wᵢ`, state `i` is possibly-visible in the window
//! `[inv(wᵢ), resp(wᵢ₊₁)]` (it can take effect any time inside its
//! write, and must be gone once the *next* write has returned), and an
//! observation is legal iff its own `[inv, resp]` window overlaps the
//! window of some state carrying the observed value. Scans stamp one
//! window for the whole walk — a widening that only ever makes the
//! check more permissive, never unsound — and are checked key by key
//! (the documented relaxation: cross-key scan atomicity is not
//! asserted, matching the read-committed scan contract of the index
//! layer above).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use peb_btree::{BTree, OlcStats, ScanPlan, ScanTermination, Visit, OPT_MAX_RESTARTS};
use peb_common::{sched, Deadline};
use peb_storage::BufferPool;

/// The sched hooks (injector flag, gates) are process-global; every test
/// that enables them serializes here so a closed gate in one test can
/// never park a thread belonging to another.
static SCHED: Mutex<()> = Mutex::new(());

fn sched_lock() -> MutexGuard<'static, ()> {
    SCHED.lock().unwrap_or_else(|e| e.into_inner())
}

/// SplitMix64 — the tests' only randomness; a seed reproduces the whole
/// workload and decision stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---- linearizability-style history checking ----------------------------

#[derive(Clone, Copy, Debug)]
struct Event {
    key: u128,
    /// `Some(v)` for an upsert of the unique value `v`, `None` for a
    /// delete (writes) / an observed absence (observations).
    val: Option<u64>,
    inv: u64,
    resp: u64,
}

/// Check every observation of `key` against its (totally ordered) write
/// history; panics with the offending observation on a violation.
fn check_key(key: u128, writes: &mut [Event], obs: &[Event]) {
    writes.sort_by_key(|w| w.inv);
    // Per-key single-writer: write windows never overlap each other.
    for w in writes.windows(2) {
        assert!(w[0].resp <= w[1].inv, "key {key}: overlapping writes {w:?}");
    }
    // states[i] = (value, earliest it can take effect, latest it can
    // still be observed). State i is overwritten at the latest when
    // write i+1 returns.
    let mut states: Vec<(Option<u64>, u64, u64)> =
        vec![(None, 0, writes.first().map_or(u64::MAX, |w| w.resp))];
    for (i, w) in writes.iter().enumerate() {
        let end = writes.get(i + 1).map_or(u64::MAX, |n| n.resp);
        states.push((w.val, w.inv, end));
    }
    for o in obs {
        let legal =
            states.iter().any(|&(v, start, end)| v == o.val && start <= o.resp && o.inv <= end);
        assert!(
            legal,
            "key {key}: observation {o:?} matches no possibly-visible state\nstates: {states:?}"
        );
    }
}

/// The key universe: `writers` disjoint clusters of `per` keys each,
/// spread apart so range scans cross leaf boundaries.
fn universe(writers: u64, per: u64) -> Vec<u128> {
    (0..writers).flat_map(|w| (0..per).map(move |i| ((w * 1_000) + i * 7) as u128)).collect()
}

/// One seeded round of the stress: `writers` threads upsert / delete /
/// re-key inside their own clusters through the OLC write path while
/// `readers` threads issue point gets, range scans and multi-range scans;
/// every event lands in a shared history that is checked per key.
fn run_history_stress(seed: u64, writers: u64, per: u64, rounds: u64, readers: usize) {
    let _serial = sched_lock();
    let _sched = sched::SeededSection::new(seed);

    let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
    let clock = Arc::new(AtomicU64::new(1));
    let mut history: Vec<Event> = Vec::new();
    // Pre-populate half of each cluster through the locked path; these
    // are "writes" that completed before the clock started.
    for (n, &k) in universe(writers, per).iter().enumerate() {
        if n % 2 == 0 {
            let v = u64::MAX - n as u64; // unique, disjoint from runtime values
            tree.insert(k, v);
            history.push(Event { key: k, val: Some(v), inv: 0, resp: 0 });
        }
    }
    tree.set_olc_writes(true);
    let tree = Arc::new(tree);
    let done = Arc::new(AtomicBool::new(false));

    let writer_threads: Vec<_> = (0..writers)
        .map(|w| {
            let tree = Arc::clone(&tree);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let keys: Vec<u128> = (0..per).map(|i| ((w * 1_000) + i * 7) as u128).collect();
                let mut events = Vec::with_capacity((rounds * 2) as usize);
                let mut val = w << 32; // unique values per writer
                for r in 0..rounds {
                    let h = mix(seed ^ (w << 40) ^ r);
                    let k = keys[(h % per) as usize];
                    match h % 5 {
                        // upsert
                        0..=2 => {
                            val += 1;
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            tree.olc_insert(k, val);
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event { key: k, val: Some(val), inv, resp });
                        }
                        // delete
                        3 => {
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            tree.olc_delete(k);
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event { key: k, val: None, inv, resp });
                        }
                        // re-key: move whatever lives at k to another
                        // owned key k2 (a delete and an insert, each a
                        // linearizable op of its own).
                        _ => {
                            let k2 = keys[(mix(h) % per) as usize];
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            let moved = tree.olc_delete(k);
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            events.push(Event { key: k, val: None, inv, resp });
                            if let Some(v) = moved {
                                if k2 != k {
                                    let inv = clock.fetch_add(1, Ordering::SeqCst);
                                    tree.olc_insert(k2, v);
                                    let resp = clock.fetch_add(1, Ordering::SeqCst);
                                    events.push(Event { key: k2, val: Some(v), inv, resp });
                                }
                            }
                        }
                    }
                }
                events
            })
        })
        .collect();

    let keyspace = universe(writers, per);
    let reader_threads: Vec<_> = (0..readers)
        .map(|rid| {
            let tree = Arc::clone(&tree);
            let clock = Arc::clone(&clock);
            let done = Arc::clone(&done);
            let keyspace = keyspace.clone();
            std::thread::spawn(move || {
                // Readers loop as fast as they can while the writers work,
                // so an unbounded log can outgrow memory on a slow box (a
                // single range scan records every key it covers). Past the
                // cap the reader keeps reading — the race pressure is the
                // point — but stops logging.
                const OBS_CAP: usize = 200_000;
                let mut obs: Vec<Event> = Vec::new();
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) {
                    n += 1;
                    let log = obs.len() < OBS_CAP;
                    let h = mix(seed ^ ((rid as u64) << 48) ^ n);
                    match h % 3 {
                        // point get
                        0 => {
                            let k = keyspace[(h >> 8) as usize % keyspace.len()];
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            let v = tree.get(k);
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            if log {
                                obs.push(Event { key: k, val: v, inv, resp });
                            }
                        }
                        // range scan over one or more clusters
                        1 => {
                            let lo = ((h >> 8) % 3) * 1_000;
                            let hi = lo + 1_000 * (1 + (h >> 16) % 3) - 1;
                            let (lo, hi) = (lo as u128, hi as u128);
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            let mut found = std::collections::HashMap::new();
                            tree.range_scan(lo, hi, |k, v| {
                                found.insert(k, v);
                                true
                            });
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            if log {
                                for &k in keyspace.iter().filter(|&&k| (lo..=hi).contains(&k)) {
                                    obs.push(Event {
                                        key: k,
                                        val: found.get(&k).copied(),
                                        inv,
                                        resp,
                                    });
                                }
                            }
                        }
                        // multi-range scan across all clusters
                        _ => {
                            let ivs: Vec<(u128, u128)> =
                                (0..3).map(|w| (w * 1_000, w * 1_000 + 500)).collect();
                            let inv = clock.fetch_add(1, Ordering::SeqCst);
                            let mut found = std::collections::HashMap::new();
                            tree.try_multi_range_scan(&ivs, |k, v| {
                                found.insert(k, v);
                                true
                            })
                            .unwrap();
                            let resp = clock.fetch_add(1, Ordering::SeqCst);
                            if log {
                                for &k in keyspace
                                    .iter()
                                    .filter(|&&k| ivs.iter().any(|&(l, h)| (l..=h).contains(&k)))
                                {
                                    obs.push(Event {
                                        key: k,
                                        val: found.get(&k).copied(),
                                        inv,
                                        resp,
                                    });
                                }
                            }
                        }
                    }
                }
                obs
            })
        })
        .collect();

    for t in writer_threads {
        history.extend(t.join().unwrap());
    }
    done.store(true, Ordering::Relaxed);
    let mut observations: Vec<Event> = Vec::new();
    for t in reader_threads {
        observations.extend(t.join().unwrap());
    }

    // Quiesced checks first: the tree is structurally sound and the
    // final state equals the model's replay of the same history.
    tree.validate().expect("tree valid after churn");
    let mut model: std::collections::HashMap<u128, u64> = std::collections::HashMap::new();
    let mut ordered = history.clone();
    ordered.sort_by_key(|w| w.inv);
    for w in &ordered {
        match w.val {
            Some(v) => {
                model.insert(w.key, v);
            }
            None => {
                model.remove(&w.key);
            }
        }
    }
    for &k in &keyspace {
        assert_eq!(tree.get(k), model.get(&k).copied(), "seed {seed}: final state of key {k}");
    }

    // Per-key window check of every observation.
    for &k in &keyspace {
        let mut writes: Vec<Event> = history.iter().filter(|w| w.key == k).copied().collect();
        let obs: Vec<Event> = observations.iter().filter(|o| o.key == k).copied().collect();
        check_key(k, &mut writes, &obs);
    }
}

/// The headline suite: 8 fixed seeds, each a different deterministic
/// yield schedule over the same racing workload. Run in CI with the
/// thread count unconstrained; `--ignored` runs the long soak below.
#[test]
fn lin_history_stress_eight_seeds() {
    for seed in [3, 7, 0xB0, 0xC4FE, 0xDEAD, 0x5EED, 0x9_1917, 0xAB_CDEF] {
        run_history_stress(seed, 3, 20, 400, 2);
    }
}

/// Long soak (CI `--ignored` lane): fresh seeds, wider keyspace, deeper
/// histories than the eight-seed suite. Sized to stay in the minutes on
/// a single-core box — the reader observation cap bounds both memory
/// and the window checker's input.
#[test]
#[ignore = "long soak; run explicitly with --ignored"]
fn lin_history_soak() {
    for seed in 0..8u64 {
        run_history_stress(mix(seed), 3, 24, 1_500, 2);
    }
}

// ---- seeded-schedule regressions: frozen mid-SMO states ----------------

/// Run `reads` on a helper thread with a deadline, so a reader that
/// would block on a frozen writer fails the test instead of wedging it.
fn must_complete<T: Send + 'static>(label: &str, reads: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(reads());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(v) => v,
        Err(_) => {
            sched::disable(); // open every gate before unwinding
            panic!("{label}: readers blocked behind the frozen writer");
        }
    }
}

fn wait_blocked(name: &'static str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !sched::is_blocked(name) {
        assert!(std::time::Instant::now() < deadline, "writer never reached gate {name}");
        std::thread::yield_now();
    }
}

/// A leaf split's publish order is new-right → parent anchor → left
/// shrink. Freeze the writer after the anchor (two publish permits),
/// with the old left leaf still holding its pre-split image, and prove
/// every reader completes with pre-insert answers — while the writer
/// holds its whole latched scope. Also the tentpole's lock-ledger
/// acceptance check: the split acquires exactly its path scope (leaf +
/// parent = 2 latches), not whole-tree exclusion.
#[test]
fn split_publish_gate_readers_make_progress() {
    let _serial = sched_lock();
    let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
    // 255 ascending inserts: leaves of 85 + 170 under one root branch —
    // the rightmost leaf is exactly full, so the next ascending insert
    // splits it (safe node = the root branch).
    let leaf_cap = (4096 - 16) / 24;
    assert_eq!(leaf_cap, 170, "test layout assumes u64 leaves of 170");
    let n = 255u128;
    for k in 0..n {
        tree.insert(k * 2, k as u64);
    }
    assert_eq!(tree.height(), 2);
    assert_eq!(tree.leaf_page_count(), 2);
    tree.set_olc_writes(true);
    let tree = Arc::new(tree);

    let _sched = sched::SeededSection::new(0);
    let latches_before = tree.pool().lock_stats().latch_acquisitions;
    sched::close(sched::site_name(sched::Site::Publish), 2);
    let writer = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || tree.olc_insert(n * 2 + 1, 999_999))
    };
    wait_blocked(sched::site_name(sched::Site::Publish));

    // Frozen state: right leaf written and linked through the parent,
    // left leaf not yet shrunk. Readers must stream the pre-insert
    // answers without blocking.
    let t = Arc::clone(&tree);
    let seen = must_complete("split freeze", move || {
        let mut got = Vec::new();
        for k in 0..n {
            got.push(t.get(k * 2));
        }
        let mut scanned = Vec::new();
        t.range_scan(0, u128::MAX, |k, v| {
            scanned.push((k, v));
            true
        });
        (got, scanned)
    });
    for (k, v) in seen.0.iter().enumerate() {
        assert_eq!(*v, Some(k as u64), "key {} during frozen split", k * 2);
    }
    assert_eq!(seen.1.len(), n as usize, "scan during frozen split sees exactly the old keys");
    assert!(seen.1.windows(2).all(|w| w[0].0 < w[1].0), "scan stays sorted");

    sched::open(sched::site_name(sched::Site::Publish));
    writer.join().unwrap();
    sched::disable();

    // The split cost its path scope in latches — not whole-tree
    // exclusion over the dozens of resident pages.
    let latch_delta = tree.pool().lock_stats().latch_acquisitions - latches_before;
    assert_eq!(latch_delta, 2, "leaf split latches exactly leaf + safe parent");
    tree.validate().expect("valid after released split");
    assert_eq!(tree.get(n * 2 + 1), Some(999_999));
    assert_eq!(tree.len(), n as usize + 1);
}

/// A leaf merge publishes absorbing-left first, then the parent entry
/// removal. Freeze between the two: the parent still routes into the
/// absorbed (untouched, now-duplicated) leaf. Readers must answer every
/// surviving key correctly through both the stale and the fresh route.
#[test]
fn merge_publish_gate_readers_make_progress() {
    let _serial = sched_lock();
    let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
    // 256 ascending inserts → three leaves (85, 85, 86) under one root.
    let n = 256u128;
    for k in 0..n {
        tree.insert(k * 2, k as u64);
    }
    assert_eq!(tree.height(), 2);
    assert_eq!(tree.leaf_page_count(), 3);
    // Trim the rightmost leaf to the minimum so the middle leaf cannot
    // borrow from it, then delete from the middle leaf: 85-at-minimum on
    // both sides forces merge-left (absorb middle into left).
    tree.delete(510);
    tree.set_olc_writes(true);
    let tree = Arc::new(tree);

    let _sched = sched::SeededSection::new(0);
    sched::close(sched::site_name(sched::Site::Publish), 1);
    let victim = 85 * 2; // first key of the middle leaf
    let writer = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || tree.olc_delete(victim))
    };
    wait_blocked(sched::site_name(sched::Site::Publish));

    // Frozen state: left leaf already holds the merged image; the parent
    // still has the separator to the absorbed middle leaf. Every key but
    // the deleted one must be served; the scan must not duplicate keys.
    let t = Arc::clone(&tree);
    let seen = must_complete("merge freeze", move || {
        let mut got = Vec::new();
        for k in 0..n - 1 {
            got.push((k * 2, t.get(k * 2)));
        }
        let mut scanned = Vec::new();
        t.range_scan(0, u128::MAX, |k, v| {
            scanned.push((k, v));
            true
        });
        (got, scanned)
    });
    for (k, v) in seen.0 {
        if k != victim {
            assert_eq!(v, Some((k / 2) as u64), "key {k} during frozen merge");
        }
    }
    assert_eq!(seen.1.len(), n as usize - 2, "scan sees survivors exactly once");
    assert!(seen.1.windows(2).all(|w| w[0].0 < w[1].0), "no duplicates through the stale leaf");

    sched::open(sched::site_name(sched::Site::Publish));
    writer.join().unwrap();
    sched::disable();

    tree.validate().expect("valid after released merge");
    assert_eq!(tree.get(victim), None);
    assert_eq!(tree.leaf_page_count(), 2);
}

/// Two structural writers collide on their shared parent: writer A
/// freezes mid-split holding leaf1 + parent, writer B splitting leaf0
/// latches its own leaf, fails the try-latch on the parent every
/// attempt, burns the whole restart budget and escalates to the writer
/// gate (where A's shared guard parks it — no livelock, no deadlock).
/// Readers keep completing throughout; once the gate opens, both splits
/// land and the contention shows up in `OlcStats` and the pool's
/// latch-wait ledger.
#[test]
fn latch_conflict_escalates_and_both_writers_land() {
    let _serial = sched_lock();
    let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(256)));
    // 255 ascending inserts at stride 4 → leaves of 85 and 170 under one
    // root branch; then 85 offset keys refill the left leaf to exactly
    // full. Both leaves now split on their next insert.
    for k in 0..255u128 {
        tree.insert(k * 4, k as u64);
    }
    assert_eq!((tree.height(), tree.leaf_page_count()), (2, 2));
    for k in 0..85u128 {
        tree.insert(k * 4 + 2, 10_000 + k as u64);
    }
    assert_eq!(tree.leaf_page_count(), 2, "refill must not split yet");
    tree.set_olc_writes(true);
    let tree = Arc::new(tree);

    let _sched = sched::SeededSection::new(0);
    let waits_before = tree.pool().lock_stats().latch_waits;
    sched::close(sched::site_name(sched::Site::Publish), 0);
    // A: splits the right leaf; parks at its first publish still holding
    // the leaf + parent latches.
    let first = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || tree.olc_insert(2_000, 111))
    };
    wait_blocked(sched::site_name(sched::Site::Publish));

    // B: splits the left leaf; latches it, then try-latches the parent A
    // holds — every optimistic attempt restarts until B escalates and
    // blocks on the writer gate.
    let second = {
        let tree = Arc::clone(&tree);
        std::thread::spawn(move || tree.olc_insert(1, 333))
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while tree.olc_stats().write_escalations == 0 {
        assert!(std::time::Instant::now() < deadline, "second writer never escalated");
        std::thread::yield_now();
    }

    let t = Arc::clone(&tree);
    let got = must_complete("latch freeze", move || {
        (0..255u128).map(|k| t.get(k * 4)).collect::<Vec<_>>()
    });
    for (k, v) in got.iter().enumerate() {
        assert_eq!(*v, Some(k as u64), "key {} while both writers are stuck", k * 4);
    }

    sched::open(sched::site_name(sched::Site::Publish));
    assert_eq!(first.join().unwrap(), None);
    assert_eq!(second.join().unwrap(), None);
    sched::disable();

    assert_eq!(tree.get(2_000), Some(111));
    assert_eq!(tree.get(1), Some(333));
    let stats = tree.olc_stats();
    assert!(stats.write_restarts >= 8, "collisions must be counted: {stats:?}");
    assert_eq!(stats.write_escalations, 1, "exactly the blocked writer escalated");
    assert!(
        tree.pool().lock_stats().latch_waits > waits_before,
        "failed try-latches must land on the wait ledger"
    );
    tree.validate().expect("valid after contention");
    assert_eq!(tree.len(), 255 + 85 + 2);
}

/// The strict chain scan never faults a page in — an unpublished page is
/// a restart — so on a pool too small to keep the leaf chain published
/// it walks as far as the published pages reach, burns its restart
/// budget on the first unpublished sibling and escalates: writers are
/// drained and the relaxed walk finishes from the frontier.
/// Deterministic on one thread. The scan must emit exactly the model's
/// keys in order — nothing before the frontier twice, nothing after it
/// missed — for a range starting mid-leaf, and for a plan whose visitor
/// answers `SkipRow` from inside the escalated walk.
#[test]
fn chain_scan_escalates_once_and_resumes_exactly_at_its_frontier() {
    let model = |lo: u128, hi: u128| -> Vec<u128> {
        (0..900u128).map(|k| k * 4).filter(|k| (lo..=hi).contains(k)).collect()
    };
    for cap in 1..=4usize {
        let mut tree: BTree<u64> = BTree::new(Arc::new(BufferPool::new(cap)));
        for k in 0..900u128 {
            tree.insert(k * 4, k as u64);
        }
        assert_eq!((tree.height(), tree.leaf_page_count()), (2, 10));
        tree.set_olc_writes(true);
        let escalations = || tree.olc_stats().scan_escalations;
        // `(restarts, escalations)` spent since `since`.
        let spent = |since: OlcStats| {
            let now = tree.olc_stats();
            (now.scan_restarts - since.scan_restarts, now.scan_escalations - since.scan_escalations)
        };

        // A strict point read escalates too, and its gated locked read
        // publishes the root and the leaf holding 402 (which spans
        // 340..=676): with two frames or more the scan below starts on
        // published pages and gets stuck at that leaf's sibling.
        assert_eq!(tree.get(402), None);
        let before = tree.olc_stats();
        let (mut got, mut strict) = (Vec::new(), 0usize);
        let done = tree.try_range_scan(402, 3_001, |k, v| {
            assert_eq!(v as u128 * 4, k);
            strict += usize::from(escalations() == before.scan_escalations);
            got.push(k);
            true
        });
        assert!(done.unwrap());
        assert_eq!(got, model(402, 3_001), "cap {cap}");
        assert_eq!(spent(before), (OPT_MAX_RESTARTS as u64, 1), "cap {cap}");
        if cap >= 2 {
            assert_eq!(strict, model(402, 676).len(), "cap {cap}: the start leaf came strict");
        }

        // Two runs in one row; the visitor has enough at 800 — a key of
        // the third leaf, so the verdict is given to the escalated walk —
        // and the row's second run must be dropped unread.
        assert_eq!(tree.get(402), None);
        let before = tree.olc_stats();
        let plan = ScanPlan::new(vec![(402, 1_000), (2_000, 2_400)], vec![(0, 3_599)]);
        let unbounded = Deadline::unbounded(tree.pool().clock());
        let mut got = Vec::new();
        let term = tree.try_scan_plan(&plan, &unbounded, |k, _| {
            got.push(k);
            if k >= 800 {
                assert_eq!(escalations(), before.scan_escalations + 1);
                Visit::SkipRow
            } else {
                Visit::Next
            }
        });
        assert_eq!(term.unwrap(), ScanTermination::Complete, "a skip is not a stop");
        assert_eq!(got, model(402, 800), "cap {cap}");
        assert_eq!(spent(before), (OPT_MAX_RESTARTS as u64, 1), "cap {cap}");
    }
}
