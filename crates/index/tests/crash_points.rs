//! Deterministic crash-point matrix: kill the durable index at every
//! sampled disk-write site and prove recovery is exact.
//!
//! The harness runs one fixed mixed workload (batched inserts, updates,
//! removes, re-keys, partition expiry, checkpoints, pool flushes) in
//! **probe mode** first, collecting the ordered trace of crash-point
//! labels — one entry per counted disk-page write. It then
//! re-runs the workload once per sampled kill point with the injector
//! armed at that op index, catches the injected panic, harvests the two
//! simulated platters, replays the log tail, and rebuilds the index with
//! [`ShardedMovingIndex::recover`].
//!
//! Every recovered index must match a **never-crashed twin** that
//! replayed exactly the first `C` mutation calls, where `C` is the ops
//! payload of the last durable `Commit` record: same length, same live
//! partitions, same point lookups, same full scans, byte-identical data
//! pages over the twin's page range once both flush, and identical
//! physical-I/O counters for a cold read-only probe.
//!
//! Sampling is stratified per label so all three crash-point classes
//! (log-page writes, data-page flushes, checkpoint writes) are covered,
//! with ≥ 50 distinct kill points total.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use peb_common::{MovingPoint, Point, SpaceConfig, UserId, Vec2};
use peb_index::{KeyLayout, ShardedMovingIndex, TimePartitioning};
use peb_storage::{
    BufferPool, CrashPoint, DiskSim, IoStats, Wal, WalRecovery, CRASH_SENTINEL, PAGE_SIZE,
};

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

/// Small pool so the workload evicts constantly — evictions are exactly
/// the data-page kill points the matrix wants to hit.
const POOL_FRAMES: usize = 32;

/// Highest uid the workload touches, for exhaustive point-get compares.
const UID_CEILING: u64 = 1150;

fn make_index(pool: Arc<BufferPool>) -> ShardedMovingIndex<TestLayout> {
    ShardedMovingIndex::new(
        pool,
        TestLayout,
        SpaceConfig::new(1000.0, 10, 1440.0),
        TimePartitioning::new(120.0, 2),
        3.0,
    )
}

fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
    MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
}

/// One committed mutation call — the unit the WAL `Commit` counter names.
enum MutOp {
    Batch(Vec<MovingPoint>),
    Single(MovingPoint),
    Remove(u64),
    /// Flip ZV bit 0 of every uid divisible by 7 (stays in-partition).
    Rekey,
    Expire(f64),
}

/// A workload step: either one committed mutation or a pool-level action
/// that moves pages around without advancing the commit counter.
enum Action {
    Mut(MutOp),
    Checkpoint,
    FlushAll,
}

fn apply_mut(idx: &ShardedMovingIndex<TestLayout>, op: &MutOp) {
    match op {
        MutOp::Batch(pts) => {
            idx.upsert_batch(pts);
        }
        MutOp::Single(p) => idx.upsert(*p),
        MutOp::Remove(uid) => {
            idx.remove(UserId(*uid));
        }
        MutOp::Rekey => {
            idx.rekey_where(|uid, old| (uid.0 % 7 == 0).then_some(old ^ (1u128 << UID_BITS)));
        }
        MutOp::Expire(now) => {
            idx.expire_stale(*now);
        }
    }
}

/// The fixed mixed workload. Inserts are concentrated at `t = 10` (one
/// partition tree, several times the pool, so evictions flush data pages
/// all along); later phases add a second and third partition, point
/// updates, removes, a re-key pass, and a partition expiry, with
/// checkpoints and full pool flushes interleaved.
fn workload() -> Vec<Action> {
    let mut acts = Vec::new();
    // Phase 1: 720 users land in the t=10 partition in batches of 90.
    for b in 0..8u64 {
        let pts = (b * 90..(b + 1) * 90)
            .map(|i| still(i, (i % 48) as f64 * 20.0 + 3.0, (i / 48) as f64 * 60.0 + 3.0, 10.0))
            .collect();
        acts.push(Action::Mut(MutOp::Batch(pts)));
    }
    acts.push(Action::Checkpoint);
    // Phase 2: re-position the same users (same timestamp, new keys) —
    // each update is an exact delete plus an insert.
    for b in 0..6u64 {
        let pts = (b * 120..(b + 1) * 120)
            .map(|i| still(i, (i % 48) as f64 * 20.0 + 11.5, (i / 48) as f64 * 60.0 + 9.25, 10.0))
            .collect();
        acts.push(Action::Mut(MutOp::Batch(pts)));
    }
    acts.push(Action::FlushAll);
    // Phase 3: a second partition (t=70 → label 180), then re-key and
    // checkpoint while both partitions are live.
    for i in 800..820u64 {
        acts.push(Action::Mut(MutOp::Single(still(
            i,
            (i % 30) as f64 * 30.0 + 5.0,
            (i % 9) as f64 * 100.0 + 5.0,
            70.0,
        ))));
    }
    acts.push(Action::Mut(MutOp::Rekey));
    acts.push(Action::Checkpoint);
    // Phase 4: removes.
    for i in 0..10u64 {
        acts.push(Action::Mut(MutOp::Remove(i * 3)));
    }
    // Phase 5: a third partition (t=130 → label 240), then expire the
    // first two and keep committing afterwards.
    for b in 0..4u64 {
        let pts = (900 + b * 60..900 + (b + 1) * 60)
            .map(|i| still(i, (i % 45) as f64 * 22.0 + 1.0, (i / 45) as f64 * 40.0 + 1.0, 130.0))
            .collect();
        acts.push(Action::Mut(MutOp::Batch(pts)));
    }
    acts.push(Action::Mut(MutOp::Expire(190.0)));
    acts.push(Action::Checkpoint);
    for i in 820..830u64 {
        acts.push(Action::Mut(MutOp::Single(still(
            i,
            (i % 20) as f64 * 45.0 + 7.0,
            (i % 7) as f64 * 120.0 + 7.0,
            130.0,
        ))));
    }
    acts
}

fn mut_count(acts: &[Action]) -> u64 {
    acts.iter().filter(|a| matches!(a, Action::Mut(_))).count() as u64
}

fn run_workload(idx: &ShardedMovingIndex<TestLayout>, acts: &[Action]) {
    for a in acts {
        match a {
            Action::Mut(op) => apply_mut(idx, op),
            Action::Checkpoint => {
                idx.checkpoint();
            }
            Action::FlushAll => {
                idx.pool().flush_all();
            }
        }
    }
}

/// Run the workload in probe mode and return the full ordered trace of
/// crash-point labels (one per counted disk-page write).
fn probe_trace(acts: &[Action]) -> Vec<CrashPoint> {
    let pool = Arc::new(BufferPool::new(POOL_FRAMES));
    let inj = Arc::clone(pool.crash_injector());
    inj.set_probing(true);
    let mut idx = make_index(pool);
    idx.set_durable(true);
    run_workload(&idx, acts);
    inj.take_trace()
}

/// Never-crashed twin: a plain (non-durable) index that replays exactly
/// the first `c` committed mutation calls of the workload.
fn build_twin(acts: &[Action], c: u64) -> ShardedMovingIndex<TestLayout> {
    let idx = make_index(Arc::new(BufferPool::new(POOL_FRAMES)));
    let mut done = 0u64;
    for a in acts {
        if done >= c {
            break;
        }
        if let Action::Mut(op) = a {
            apply_mut(&idx, op);
            done += 1;
        }
    }
    assert_eq!(done, c, "log committed more ops than the workload contains");
    idx
}

/// Cold read-only probe: clear the pool, reset the ledgers, then do a
/// fixed sequence of scans and point gets. Returns the I/O counters —
/// identical structures must produce identical physical traffic.
fn cold_probe(idx: &ShardedMovingIndex<TestLayout>) -> (IoStats, usize) {
    idx.pool().clear();
    idx.pool().reset_stats();
    let mut seen = 0usize;
    idx.scan_keys(0, u128::MAX, |_, _| {
        seen += 1;
        true
    });
    for uid in (0..UID_CEILING).step_by(13) {
        let _ = idx.get(UserId(uid));
    }
    (idx.pool().stats(), seen)
}

/// Full equivalence check between a recovered index and its twin.
fn assert_matches_twin(
    back: &ShardedMovingIndex<TestLayout>,
    twin: &ShardedMovingIndex<TestLayout>,
    kill: u64,
) {
    assert_eq!(back.len(), twin.len(), "len @ kill {kill}");
    assert_eq!(back.live_partitions(), twin.live_partitions(), "partitions @ kill {kill}");
    for uid in 0..UID_CEILING {
        let (u, k) = (UserId(uid), kill);
        assert_eq!(back.current_key_of(u), twin.current_key_of(u), "key of {uid} @ kill {k}");
        assert_eq!(back.get(u), twin.get(u), "get {uid} @ kill {k}");
    }
    let collect = |x: &ShardedMovingIndex<TestLayout>| {
        let mut v = Vec::new();
        x.scan_keys(0, u128::MAX, |key, rec| {
            v.push((key, rec));
            true
        });
        v
    };
    assert_eq!(collect(back), collect(twin), "full scans @ kill {kill}");

    // Flush both sides and compare raw platters over the twin's page
    // range: committed state must be byte-identical. The recovered disk
    // may hold extra pages allocated by the op in flight at the crash.
    back.pool().flush_all();
    twin.pool().flush_all();
    let (back_disk, _) = back.pool().harvest_crash_state();
    let (twin_disk, _) = twin.pool().harvest_crash_state();
    assert!(
        back_disk.num_pages() >= twin_disk.num_pages(),
        "recovered disk lost pages @ kill {kill}"
    );
    for p in 0..twin_disk.num_pages() {
        let pid = peb_storage::PageId(p as u32);
        assert_eq!(
            back_disk.peek(pid).unwrap().bytes(0, PAGE_SIZE),
            twin_disk.peek(pid).unwrap().bytes(0, PAGE_SIZE),
            "data page {p} differs @ kill {kill}"
        );
    }

    // Cold-probe symmetry: same structure ⇒ same physical I/O.
    let (back_io, back_seen) = cold_probe(back);
    let (twin_io, twin_seen) = cold_probe(twin);
    assert_eq!(back_seen, twin_seen, "probe row count @ kill {kill}");
    assert_eq!(back_io, twin_io, "cold-probe IoStats @ kill {kill}");
}

/// Crash at disk-op `n`, harvest, recover, and return the rebuilt index
/// plus the committed-op count the log proved durable.
fn crash_and_recover(acts: &[Action], n: u64) -> (ShardedMovingIndex<TestLayout>, WalRecovery) {
    recover_platters(&crash_at(acts, n))
}

/// Run the workload with the injector armed at disk op `n`; returns the
/// pool the crash left behind.
fn crash_at(acts: &[Action], n: u64) -> Arc<BufferPool> {
    let pool = Arc::new(BufferPool::new(POOL_FRAMES));
    let inj = Arc::clone(pool.crash_injector());
    inj.arm(n);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut idx = make_index(Arc::clone(&pool));
        idx.set_durable(true);
        run_workload(&idx, acts);
    }));
    assert_injected(outcome.expect_err("armed run must crash"), &format!("kill {n}"));
    inj.disarm();
    pool
}

/// The storage half of a restart from two platters: recover the data
/// disk, resume the log, and open a pool of `frames` over both.
fn recovered_pool(
    mut data: DiskSim,
    log: DiskSim,
    frames: usize,
) -> (Arc<BufferPool>, WalRecovery) {
    let rec = peb_storage::recover(&mut data, &log);
    let wal = Wal::resume(log, &rec);
    (Arc::new(BufferPool::from_recovered(frames, 1, data, wal)), rec)
}

/// The index layer's half of a restart: reattach, replay, checkpoint.
fn restart(pool: Arc<BufferPool>, rec: &WalRecovery) -> ShardedMovingIndex<TestLayout> {
    ShardedMovingIndex::recover(
        pool,
        rec,
        TestLayout,
        SpaceConfig::new(1000.0, 10, 1440.0),
        TimePartitioning::new(120.0, 2),
        3.0,
    )
}

/// Recover the platters a crash left, as a fresh process would.
fn recover_platters(pool: &BufferPool) -> (ShardedMovingIndex<TestLayout>, WalRecovery) {
    let (data, log) = pool.harvest_crash_state();
    let (pool, rec) = recovered_pool(data, log, POOL_FRAMES);
    (restart(pool, &rec), rec)
}

/// Run the workload on from its `done`-th committed mutation call until
/// `more` further calls committed (or the workload ran out), with the
/// checkpoints and flushes in between; returns how many committed.
fn continue_workload(
    idx: &ShardedMovingIndex<TestLayout>,
    acts: &[Action],
    done: u64,
    more: u64,
) -> u64 {
    let mut seen = 0u64;
    let mut applied = 0u64;
    for a in acts {
        if applied == more {
            break;
        }
        match a {
            Action::Mut(op) => {
                seen += 1;
                if seen > done {
                    apply_mut(idx, op);
                    applied += 1;
                }
            }
            Action::Checkpoint if seen >= done => {
                idx.checkpoint();
            }
            Action::FlushAll if seen >= done => {
                idx.pool().flush_all();
            }
            _ => {}
        }
    }
    applied
}

/// The message a caught panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("")
}

/// A caught panic must be an injected crash.
fn assert_injected(payload: Box<dyn std::any::Any + Send>, what: &str) {
    let msg = panic_message(payload.as_ref());
    assert!(msg.contains(CRASH_SENTINEL), "{what} raised a real panic: {msg}");
}

/// Run `f` with the default panic hook silenced (injected crashes are
/// expected by the dozen), restoring it — and reporting what failed —
/// when an assertion fails.
fn quietly(f: impl FnOnce()) {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev_hook);
    if let Err(e) = result {
        panic!("{}", panic_message(e.as_ref()));
    }
}

/// The three crash-point classes the matrix stratifies over.
const LABELS: [CrashPoint; 3] =
    [CrashPoint::WalWrite, CrashPoint::PageFlush, CrashPoint::Checkpoint];

/// Stratified kill-point sample: up to 19 evenly spaced points per label
/// (every label must occur at least once), topped up with evenly spaced
/// global indices until at least 56 candidates are in the set.
fn sample_kill_points(trace: &[CrashPoint]) -> Vec<u64> {
    let mut set: BTreeSet<u64> = BTreeSet::new();
    for label in LABELS {
        let idxs: Vec<u64> =
            trace.iter().enumerate().filter(|&(_, l)| *l == label).map(|(i, _)| i as u64).collect();
        assert!(!idxs.is_empty(), "workload never reaches a {label:?} kill point");
        let take = idxs.len().min(19);
        for j in 0..take {
            set.insert(idxs[j * idxs.len() / take]);
        }
    }
    let step = (trace.len() / 60).max(1);
    for i in (0..trace.len()).step_by(step) {
        if set.len() >= 56 {
            break;
        }
        set.insert(i as u64);
    }
    set.into_iter().collect()
}

/// The probe trace is a pure function of the workload: two runs must see
/// the identical label sequence, or "crash at op N" would not name one
/// machine state.
#[test]
fn crash_point_trace_is_deterministic() {
    let acts = workload();
    let a = probe_trace(&acts);
    let b = probe_trace(&acts);
    assert!(!a.is_empty(), "durable workload must hit the injector");
    assert_eq!(a, b, "probe traces diverged between identical runs");
    for label in LABELS {
        assert!(a.contains(&label), "trace never hits {label:?}");
    }
}

/// The matrix itself: ≥ 50 distinct kill points across all three labels,
/// each recovering to a state indistinguishable from the never-crashed
/// twin at the same committed-op count.
#[test]
fn crash_matrix_recovers_at_every_kill_point() {
    let acts = workload();
    let total_muts = mut_count(&acts);
    let trace = probe_trace(&acts);
    let points = sample_kill_points(&trace);
    assert!(points.len() >= 50, "only {} kill points sampled", points.len());

    // Injected panics are expected here by the dozen; silence the
    // default hook so the run is not a wall of fake backtraces, but
    // restore it even when an assertion inside the loop fails.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut twins: Vec<(u64, ShardedMovingIndex<TestLayout>)> = Vec::new();
        for &n in &points {
            let (back, rec) = crash_and_recover(&acts, n);
            assert!(rec.commits <= total_muts, "log invented commits @ kill {n}");
            assert_eq!(back.committed_ops(), rec.commits, "ops counter @ kill {n}");
            if rec.commits == 0 {
                // Crash inside durability enrollment itself: the floor
                // is the documented pre-durable state — here, empty.
                // Structural compare only; the platters legitimately
                // differ (recovery re-registers fresh root pages).
                assert!(back.is_empty(), "pre-first-commit crash must recover empty @ kill {n}");
                assert!(back.live_partitions().is_empty(), "partition ghosts @ kill {n}");
                continue;
            }
            let twin = match twins.iter().position(|(c, _)| *c == rec.commits) {
                Some(i) => &twins[i].1,
                None => {
                    twins.push((rec.commits, build_twin(&acts, rec.commits)));
                    &twins.last().unwrap().1
                }
            };
            assert_matches_twin(&back, twin, n);
        }
    }));
    std::panic::set_hook(prev_hook);
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// Committed calls a recovered index makes before it crashes again.
const MORE_CALLS: u64 = 20;

/// Crash, recover, commit [`MORE_CALLS`] more calls on the recovered
/// index, crash again, recover again: the result is the never-crashed twin
/// of the whole committed prefix. The second recovery starts from the
/// checkpoint the first one ended with (or a later one), so this is what
/// catches a first recovery that left the log describing anything but the
/// state it handed back.
#[test]
fn a_second_crash_after_recovery_recovers_the_whole_committed_prefix() {
    let acts = workload();
    let points = sample_kill_points(&probe_trace(&acts));
    quietly(|| {
        let mut replayed = 0usize;
        for &n in points.iter().step_by(4) {
            let (back, rec) = crash_and_recover(&acts, n);
            if rec.commits == 0 {
                continue;
            }
            replayed += rec.tree_ops.len();
            let more = continue_workload(&back, &acts, rec.commits, MORE_CALLS);
            assert_eq!(back.committed_ops(), rec.commits + more, "ops counter @ kill {n}");
            let (again, rec2) = recover_platters(back.pool());
            assert_eq!(rec2.commits, rec.commits + more, "second recovery's commits @ kill {n}");
            assert_matches_twin(&again, &build_twin(&acts, rec2.commits), n);
        }
        assert!(replayed > 0, "no sampled kill point replayed a tree operation");
    });
}

/// Frames of the pool a killed recovery replays into: few enough that
/// replay evicts, so its write-backs are kill points too.
const REPLAY_FRAMES: usize = 4;

/// Up to `per_side` evenly spaced indices of `trace` inside a checkpoint
/// and as many outside one.
fn stratified(trace: &[CrashPoint], per_side: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    for in_checkpoint in [false, true] {
        let idxs: Vec<usize> = (0..trace.len())
            .filter(|&i| (trace[i] == CrashPoint::Checkpoint) == in_checkpoint)
            .collect();
        let take = idxs.len().min(per_side);
        picked.extend((0..take).map(|j| idxs[j * idxs.len() / take]));
    }
    picked
}

/// Kill a recovery inside its own replay and inside its closing
/// checkpoint, then recover the platters that second crash left: the
/// result is the twin of the first recovery's committed prefix — nothing
/// recovery itself logs is committed, and undo still reaches the
/// checkpoint through each page's first pre-image.
#[test]
fn a_crash_inside_recovery_recovers_again_to_the_same_state() {
    let acts = workload();
    let points: Vec<u64> = sample_kill_points(&probe_trace(&acts)).into_iter().step_by(5).collect();
    quietly(|| {
        let mut killed_in_checkpoint = BTreeSet::new();
        for &n in &points {
            let (data, log) = crash_at(&acts, n).harvest_crash_state();
            let committed = peb_storage::recover(&mut data.clone(), &log).commits;
            if committed == 0 {
                continue;
            }
            let twin = build_twin(&acts, committed);
            // Every disk write recovery itself makes, labelled.
            let trace = {
                let (pool, rec) = recovered_pool(data.clone(), log.clone(), REPLAY_FRAMES);
                pool.crash_injector().set_probing(true);
                restart(Arc::clone(&pool), &rec);
                pool.crash_injector().take_trace()
            };
            for m in stratified(&trace, 3) {
                killed_in_checkpoint.insert(trace[m] == CrashPoint::Checkpoint);
                let (pool, rec) = recovered_pool(data.clone(), log.clone(), REPLAY_FRAMES);
                pool.crash_injector().arm(m as u64);
                let killed = catch_unwind(AssertUnwindSafe(|| restart(Arc::clone(&pool), &rec)));
                assert_injected(killed.err().expect("armed recovery must crash"), "recovery");
                let (back, rec2) = recover_platters(&pool);
                assert_eq!(rec2.commits, committed, "recovery committed an op @ {n}/{m}");
                assert_matches_twin(&back, &twin, n);
            }
        }
        assert!(killed_in_checkpoint.contains(&false), "no kill point inside recovery's replay");
        assert!(killed_in_checkpoint.contains(&true), "no kill point inside its checkpoint");
    });
}
