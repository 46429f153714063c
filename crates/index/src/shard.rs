//! [`ShardedMovingIndex`]: the moving-object index core, sharded by time
//! partition for parallel batched updates.
//!
//! The Bx/PEB design already implies the sharding: the paper's rotating
//! time partitions (Fig 1) are disjoint key ranges that never exchange
//! entries except through an update's delete+insert pair. This type makes
//! the implication structural — **each live partition owns its own
//! B+-tree behind its own lock**, with the `current_key` map split into
//! per-shard maps — so that:
//!
//! * upserts targeting *different* partitions proceed in parallel instead
//!   of serializing on one `&mut` over the whole index;
//! * a batch of updates is applied per partition as one sorted merge into
//!   the leaves ([`ShardedMovingIndex::upsert_batch`], built on
//!   [`peb_btree::BTree::merge_sorted`]);
//! * partition expiry drops a whole shard tree in O(1) instead of deleting
//!   entries one key at a time.
//!
//! Every shard shares one [`BufferPool`], so the paper's I/O accounting
//! keeps flowing through a single set of counters:
//! [`ShardedMovingIndex::io_stats`] is still "the pool's numbers",
//! aggregated across shards by construction. The pool itself may be lock-
//! sharded too ([`BufferPool::sharded`]); its `stats()` sums its own
//! shard-local counters, so the aggregation here is unchanged either way.
//!
//! Lock ordering across the whole stack is strictly downward:
//! **index shard lock → pool shard lock → WAL lock → disk lock**, never
//! more than one lock of the same level at a time and never upward —
//! which is what makes the layered locking deadlock-free (see the
//! `peb_storage::pool` module docs for the pool's half of the contract).
//! Every write to a partition's tree runs under that shard's exclusive
//! lock: one write path.
//!
//! # Concurrency contract
//!
//! All update methods take `&self` (interior mutability through the
//! per-shard locks). Concurrent calls are safe for **disjoint objects**;
//! two threads upserting the *same* `uid` concurrently race shard-locally
//! (last writer wins per shard, and a cross-partition migration may
//! transiently duplicate the object). Partition the update stream by uid —
//! as [`ShardedMovingIndex::upsert_batch`] does internally — to get
//! deterministic results. Aggregating reads (`len`, `stats`,
//! `live_partitions`) lock shards one at a time and are therefore not
//! atomic snapshots.
//!
//! Multi-shard scans ([`ShardedMovingIndex::try_scan_plan`], the one
//! router under every scan entry point), however, **are
//! migration-consistent**: every update path that re-keys a live object
//! outside a single shard-lock critical section (a cross-partition
//! migration, or a batch's evict-then-merge within one partition) wraps
//! the re-key in a per-index *migration epoch* — a seqlock-style pair of
//! counters bumped when such a span starts and when it completes. A
//! multi-shard scan buffers its result while holding shard locks one at
//! a time, then revalidates the epoch: if a migration span overlapped
//! the scan, the scan retries, and after a bounded number of retries it
//! falls back to waiting out in-flight spans and acquiring **all**
//! intersecting shard locks (in ascending tid order, a superset of every
//! writer's single-lock order, so deadlock-free) for a true snapshot.
//! Such a scan therefore never observes a migrating object twice (old
//! and new entry) nor misses it entirely — the read-committed anomaly
//! documented in PR 2/PR 3 is closed. Two semantics notes: a
//! **single-shard** scan (every interval the query algorithms issue)
//! streams under its one read lock — atomic against cross-shard
//! migrations by construction, but a batch's *same-shard* evict→merge
//! gap can still transiently hide the re-keyed object from it
//! (read-committed, exactly as before this PR); and object *insertions*
//! and *removals* remain read-committed everywhere — a scan racing a
//! brand-new object or a genuine delete may or may not see it, as
//! before.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use peb_btree::{
    BTree, OlcStats, ScanPlan, ScanStats, ScanTermination, TreeStats, Visit, WriteStats,
};
use peb_common::{sched, Deadline, MovingPoint, Rect, SpaceConfig, Timestamp, UserId};
use peb_storage::{BufferPool, IoFault, IoStats, LockStats, PageId, WalRecovery};
use peb_zorder::encode;

use crate::error::IndexError;
use crate::layout::KeyLayout;
use crate::partition::TimePartitioning;
use crate::record::ObjectRecord;

/// One time partition's slice of the index: its own B+-tree, the current
/// keys of the objects living in it, and the label timestamp of the data
/// it stores (`None` while the partition is empty/expired).
struct Shard {
    btree: BTree<ObjectRecord>,
    current_key: HashMap<UserId, u128>,
    label: Option<Timestamp>,
}

impl Shard {
    fn new(pool: &Arc<BufferPool>) -> Self {
        Shard { btree: BTree::new(Arc::clone(pool)), current_key: HashMap::new(), label: None }
    }
}

/// A moving-object index sharded by rotating time partition (see the
/// module docs). The core of the Bx-tree and the PEB-tree: key placement,
/// the query surface, lock-per-partition updates and the batched update
/// path.
pub struct ShardedMovingIndex<L: KeyLayout> {
    /// One shard per partition id, indexed by `tid`.
    shards: Vec<RwLock<Shard>>,
    /// Migration spans *started*: bumped before the first stale-entry
    /// eviction of any re-keying span that is not atomic under a single
    /// shard lock (see the module docs). Together with `mig_done` it
    /// forms the index's migration epoch.
    mig_started: AtomicU64,
    /// Migration spans *completed*: bumped after the span's final insert.
    /// `mig_done == mig_started` means no migration is in flight.
    mig_done: AtomicU64,
    /// Cumulative count of committed mutation calls, the `ops` payload of
    /// every [`peb_storage::WalRecord::Commit`] this index logs. Each
    /// public mutation entry point commits exactly once (even when it
    /// changed nothing), so after a crash the count of the last durable
    /// commit identifies a *prefix of entry-point calls* — what the crash
    /// harness replays on a never-crashed twin. Always 0 while the pool is
    /// not durable.
    ops: AtomicU64,
    layout: L,
    space: SpaceConfig,
    part: TimePartitioning,
    max_speed: f64,
    pool: Arc<BufferPool>,
}

/// Buffered-scan attempts [`ShardedMovingIndex::try_scan_plan`] makes
/// against the migration epoch before falling back to locking every
/// intersecting shard at once.
const SCAN_EPOCH_RETRIES: usize = 3;

/// What a deadline-bounded scan actually delivered: the overall
/// [`ScanTermination`] plus one `(tid, complete)` entry per time partition
/// the interval set intersected, in the order the scan visited them
/// (ascending key order). A partition is `complete` when every record of
/// its clipped range was handed to the visitor; once the deadline expires
/// (or the visitor stops), the partition it fired in and every later
/// partition report `false`. This is the per-partition completeness tag
/// the serving layer attaches to degraded (partial) query answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// How the scan ended: ran to completion, visitor stopped it, or the
    /// deadline expired at a checkpoint.
    pub termination: ScanTermination,
    /// `(tid, complete)` per intersected partition, in visit order.
    pub partitions: Vec<(u8, bool)>,
}

impl ScanReport {
    /// Whether every intersected partition was fully delivered.
    pub fn is_complete(&self) -> bool {
        self.termination == ScanTermination::Complete
    }

    /// How many intersected partitions were fully delivered.
    pub fn complete_partitions(&self) -> usize {
        self.partitions.iter().filter(|(_, c)| *c).count()
    }
}

/// Operational summary of a [`ShardedMovingIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// B+-tree structure, aggregated over the shard trees.
    pub tree: TreeStats,
    /// Live `(partition id, label timestamp)` pairs.
    pub partitions: Vec<(u8, Timestamp)>,
    /// Objects currently indexed.
    pub objects: usize,
}

impl<L: KeyLayout> ShardedMovingIndex<L> {
    /// An empty index with one shard per rotating partition, all sharing
    /// `pool` for I/O accounting.
    pub fn new(
        pool: Arc<BufferPool>,
        layout: L,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
    ) -> Self {
        assert!(max_speed > 0.0);
        let shards = part.partition_ids().map(|_| RwLock::new(Shard::new(&pool))).collect();
        ShardedMovingIndex {
            shards,
            mig_started: AtomicU64::new(0),
            mig_done: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            layout,
            space,
            part,
            max_speed,
            pool,
        }
    }

    /// Bulk-load an initial population (each user must appear once): users
    /// are grouped by target partition and each shard tree is built
    /// bottom-up at the given fill factor.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        layout: L,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
        users: &[MovingPoint],
        fill: f64,
    ) -> Self {
        let shell = ShardedMovingIndex::new(pool, layout, space, part, max_speed);
        let mut groups: Vec<Vec<(u128, ObjectRecord, UserId)>> =
            (0..shell.shards.len()).map(|_| Vec::new()).collect();
        let mut labels: Vec<Option<Timestamp>> = vec![None; shell.shards.len()];
        for m in users {
            let (key, tid, t_lab) = shell.placement(m);
            groups[tid as usize].push((key, ObjectRecord::from_moving_point(m), m.uid));
            let lab = &mut labels[tid as usize];
            *lab = Some(lab.map_or(t_lab, |l: f64| l.max(t_lab)));
        }
        for (tid, mut group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            group.sort_unstable_by_key(|(k, _, _)| *k);
            let mut s = shell.shards[tid].write();
            s.current_key = group.iter().map(|(k, _, uid)| (*uid, *k)).collect();
            s.label = labels[tid];
            s.btree = BTree::bulk_load(
                Arc::clone(&shell.pool),
                group.into_iter().map(|(k, rec, _)| (k, rec)),
                fill,
            );
        }
        shell
    }

    /// The space configuration keys are quantized against.
    pub fn space(&self) -> &SpaceConfig {
        &self.space
    }

    /// The rotating time-partitioning parameters.
    pub fn partitioning(&self) -> &TimePartitioning {
        &self.part
    }

    /// The declared maximum object speed (drives query enlargement).
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// The key layout (the engine seam, shared by every shard).
    pub fn layout(&self) -> &L {
        &self.layout
    }

    /// Mutable access to the layout (e.g. to swap the PEB privacy
    /// context); requires exclusive access to the whole index.
    pub fn layout_mut(&mut self) -> &mut L {
        &mut self.layout
    }

    /// Number of shards (= `n + 1` rotating partitions).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Objects currently indexed, summed across shards. Counted from the
    /// per-shard `current_key` maps, which every update path maintains
    /// synchronously.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().current_key.len()).sum()
    }

    /// Whether no object is indexed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().current_key.is_empty())
    }

    /// The buffer pool all shards perform I/O through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Physical/logical I/O counters — the paper's Sec 7.1 metric. All
    /// index shards share one pool, so this aggregates across index
    /// shards for free; if the pool is itself lock-sharded,
    /// [`BufferPool::stats`] additionally sums the pool-shard counters,
    /// keeping this one ledger exact in every configuration.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Locking counters of the shared pool ([`BufferPool::lock_stats`]):
    /// how many shard mutexes the page touches took — the deterministic
    /// companion of [`ShardedMovingIndex::io_stats`].
    pub fn lock_stats(&self) -> LockStats {
        self.pool.lock_stats()
    }

    /// Switch write-ahead logging on or off ([`BufferPool::set_durable`]).
    ///
    /// Turning durability **on** registers every shard tree under its
    /// partition id (so recovery can reattach each tree to its logged
    /// root), seals the pre-durable state under an enrollment commit (the
    /// pool adopted every dirty frame into the log — the commit is what
    /// makes those images replayable), and takes an initial checkpoint,
    /// making the current state the recovery floor. A crash *during*
    /// enrollment — before its first log flush completes — recovers to
    /// the empty pre-durable floor: durability only protects state from
    /// the first durable commit onward. Requires exclusive access, like
    /// every other configuration knob; while durable, the single-writer
    /// contract of the pool's WAL applies — run mutations from one
    /// thread at a time.
    pub fn set_durable(&mut self, on: bool) {
        self.pool.set_durable(on);
        if on {
            for (tid, shard) in self.shards.iter().enumerate() {
                shard.write().btree.set_tree_id(tid as u32);
            }
            self.pool.wal_commit(self.ops.load(Ordering::SeqCst));
            self.checkpoint();
        }
    }

    /// Whether mutations are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        self.pool.is_durable()
    }

    /// Cumulative count of committed mutation calls (0 while not durable).
    pub fn committed_ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Take a fuzzy checkpoint: log every shard tree's `(id, root,
    /// height)`, flush all dirty pages (log-before-page per frame), and
    /// seal the checkpoint so recovery replays only the log tail after
    /// it. Returns the number of pages flushed; a no-op returning 0 when
    /// not durable.
    pub fn checkpoint(&self) -> usize {
        let metas: Vec<(u32, PageId, u32)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(tid, shard)| {
                let s = shard.read();
                (tid as u32, s.btree.root(), s.btree.height())
            })
            .collect();
        self.pool.checkpoint(&metas)
    }

    /// Seal one mutation entry-point call into the log: bump the
    /// cumulative op count and force a durable [`Commit`] record. Called
    /// exactly once per public mutation call — including calls that
    /// changed nothing — so the committed count always names a prefix of
    /// the caller's op sequence. A single relaxed load when not durable.
    ///
    /// [`Commit`]: peb_storage::WalRecord::Commit
    fn commit_op(&self) {
        if self.pool.is_durable() {
            let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
            self.pool.wal_commit(n);
        }
    }

    /// Rebuild an index from a recovered pool: the inverse of a crash.
    ///
    /// `recovery` is what [`peb_storage::recover`] returned after rolling
    /// the data disk back to the last complete checkpoint, and `pool` a
    /// [`BufferPool::from_recovered`] over that disk and the resumed log.
    /// Each shard tree is reattached at the `(root, height)` that
    /// checkpoint logged — walking the restored pages to recount entries —
    /// and the committed tree operations after it
    /// ([`WalRecovery::tree_ops`]) are re-executed in log order through
    /// the ordinary tree code ([`BTree::try_replay`]): the keys are in the
    /// log, so replay needs no layout, no placement and no privacy
    /// context. The in-memory `current_key` maps and partition labels are
    /// then rebuilt from one full scan per shard, and a checkpoint makes
    /// the recovered state the next recovery's starting point. The result
    /// answers every read exactly as the pre-crash index did as of its
    /// last durable commit, and its pages are the pages that index wrote.
    ///
    /// # Panics
    /// Panics on a media fault the pool cannot absorb while replaying.
    pub fn recover(
        pool: Arc<BufferPool>,
        recovery: &WalRecovery,
        layout: L,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
    ) -> Self {
        assert!(max_speed > 0.0);
        let meta: HashMap<u32, (PageId, u32)> =
            recovery.tree_meta.iter().map(|&(t, r, h)| (t, (r, h))).collect();
        let shards: Vec<RwLock<Shard>> = part
            .partition_ids()
            .map(|tid| {
                let btree = match meta.get(&(tid as u32)) {
                    Some(&(root, height)) => {
                        BTree::reattach(Arc::clone(&pool), tid as u32, root, height)
                    }
                    // No committed meta for this partition (durability was
                    // never enabled on it): start it empty, registered.
                    None => {
                        let mut t = BTree::new(Arc::clone(&pool));
                        t.set_tree_id(tid as u32);
                        t
                    }
                };
                RwLock::new(Shard { btree, current_key: HashMap::new(), label: None })
            })
            .collect();
        let idx = ShardedMovingIndex {
            shards,
            mig_started: AtomicU64::new(0),
            mig_done: AtomicU64::new(0),
            ops: AtomicU64::new(recovery.commits),
            layout,
            space,
            part,
            max_speed,
            pool,
        };
        debug_assert_eq!(
            recovery.physical_after_ops, 0,
            "a physical redo image follows a tree operation within one checkpoint interval"
        );
        for (tree, op) in &recovery.tree_ops {
            let Some(shard) = idx.shards.get(*tree as usize) else {
                debug_assert!(false, "the log names tree {tree}, which this index does not have");
                continue;
            };
            shard
                .write()
                .btree
                .try_replay(op)
                .unwrap_or_else(|e| panic!("unresolved I/O fault replaying the log: {e}"));
        }
        // Rebuild the volatile maps from the durable state: one scan per
        // shard. The label is the
        // newest record's label timestamp — exactly what the sequence of
        // upserts that built the shard left behind.
        for (tid, shard) in idx.shards.iter().enumerate() {
            let (plo, phi) = idx.layout.partition_range(tid as u8);
            let mut s = shard.write();
            let mut found: Vec<(UserId, u128, f64)> = Vec::new();
            s.btree.range_scan(plo, phi, |k, rec: ObjectRecord| {
                found.push((UserId(rec.uid), k, rec.t_update as f64));
                true
            });
            for (uid, k, tu) in found {
                s.current_key.insert(uid, k);
                let lab = idx.part.label_timestamp(tu);
                s.label = Some(s.label.map_or(lab, |l: Timestamp| l.max(lab)));
            }
        }
        idx.checkpoint();
        idx
    }

    /// Leaf pages across all shard trees, `Nl` in the paper's cost model.
    pub fn leaf_page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().btree.leaf_page_count()).sum()
    }

    /// Total live pages across all shard trees.
    pub fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().btree.page_count()).sum()
    }

    /// The key an object updated at `m.t_update` is indexed under:
    /// position forwarded to the label timestamp, grid-quantized,
    /// Z-encoded, packed by the layout.
    pub fn key_for(&self, m: &MovingPoint) -> u128 {
        self.placement(m).0
    }

    /// `(key, tid, t_lab)` for one object — the single derivation every
    /// update path shares.
    fn placement(&self, m: &MovingPoint) -> (u128, u8, Timestamp) {
        let t_lab = self.part.label_timestamp(m.t_update);
        let tid = self.part.partition_of_label(t_lab);
        let pos_at_label = m.position_at(t_lab);
        let (gx, gy) = self.space.to_grid(&pos_at_label);
        let zv = self.layout.mask_zv(encode(gx, gy));
        (self.layout.key(tid, zv, m.uid.0), tid, t_lab)
    }

    /// Why a position report is turned away at the door, if it is. Reports
    /// arrive from outside the program: the uid must be one the layout can
    /// compose a key for, and every number must be finite.
    fn refusal(&self, m: &MovingPoint) -> Option<IndexError> {
        let uid = m.uid.0;
        if !self.layout.admits(uid) {
            return Some(IndexError::UnknownUser { uid });
        }
        let finite = [m.pos.x, m.pos.y, m.vel.x, m.vel.y, m.t_update].iter().all(|v| v.is_finite());
        (!finite).then_some(IndexError::MalformedReport { uid })
    }

    /// Insert or update one object: the old entry (in whichever shard
    /// holds it) is deleted exactly, then the new entry is inserted into
    /// the target shard. Locks are taken one shard at a time, so
    /// concurrent upserts to different partitions only contend on the
    /// shards they actually touch; an update that stays within its
    /// partition (the common case — repeated reports in one phase) locks
    /// only that one shard.
    pub fn upsert(&self, m: MovingPoint) {
        self.try_upsert(m).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"));
    }

    /// Fallible twin of [`ShardedMovingIndex::upsert`]: an unresolvable
    /// media fault surfaces as [`IndexError::Io`] instead of panicking,
    /// and a failed call is not committed to the WAL. A report for a uid
    /// the layout does not admit is [`IndexError::UnknownUser`], and one
    /// whose position, velocity or `t_update` is NaN or infinite is
    /// [`IndexError::MalformedReport`] — a NaN `t_update` would become the
    /// partition's label and take every later query down. Both are returned
    /// before any shard, the pool or the log is touched. A finite but
    /// absurd timestamp (say 1e18) is a report like any other.
    ///
    /// On `Err` the object's previous entry may already have been
    /// deleted with the new one not yet inserted: the uid reads as
    /// absent until a retried upsert succeeds. The migration epoch is
    /// always rebalanced on the error path, so concurrent scans cannot
    /// be wedged by a failed migration.
    ///
    /// What the log holds of a failed call: a tree operation is logged if
    /// and only if it returned `Ok`, and the call is not committed. Once a
    /// later call commits, recovery re-executes exactly the logged
    /// operations — the delete that landed, not the insert that faulted —
    /// so the recovered index reads the uid as absent, as the live one
    /// does. (Structural work a fault interrupts mid-split is in the live
    /// tree but in no record; recovery rebuilds the tree without it.)
    pub fn try_upsert(&self, m: MovingPoint) -> Result<(), IndexError> {
        if let Some(refusal) = self.refusal(&m) {
            return Err(refusal);
        }
        debug_assert!(
            m.speed() <= self.max_speed + 1e-9,
            "object {} exceeds the declared max speed",
            m.uid
        );
        let (key, tid, t_lab) = self.placement(&m);
        // Fast path: the object already lives in the target shard — a uid
        // is in at most one shard, so no other shard needs to be touched.
        {
            let mut s = self.shards[tid as usize].write();
            if let Some(old) = s.current_key.remove(&m.uid) {
                s.btree.try_delete(old)?;
                s.btree.try_insert(key, ObjectRecord::from_moving_point(&m))?;
                s.current_key.insert(m.uid, key);
                s.label = Some(t_lab);
                drop(s);
                self.commit_op();
                return Ok(());
            }
        }
        // Slow path (migration or first sighting): evict the old entry
        // from any *other* shard, then insert into the target. A found
        // old entry makes this a cross-partition migration — the object
        // is briefly in no shard (or, interleaved badly, in two) — so the
        // span is bracketed by the migration epoch for scans to detect.
        // The body runs in a closure so a fault unwinds past the epoch
        // rebalance below instead of leaving `mig_started > mig_done`
        // forever (which would spin every multi-shard scan).
        let mut migrating = false;
        let result = (|| -> Result<(), IoFault> {
            for (i, shard) in self.shards.iter().enumerate() {
                if i == tid as usize {
                    continue;
                }
                if shard.read().current_key.contains_key(&m.uid) {
                    let mut s = shard.write();
                    if let Some(old) = s.current_key.remove(&m.uid) {
                        if !migrating {
                            migrating = true;
                            self.mig_started.fetch_add(1, Ordering::SeqCst);
                        }
                        s.btree.try_delete(old)?;
                        drop(s);
                        // The object is now in no shard: the exact window
                        // seeded schedules freeze to race scans and
                        // deadline cancellations against a migration.
                        sched::probe(sched::Site::MigSpan);
                    }
                }
            }
            let mut s = self.shards[tid as usize].write();
            if let Some(old) = s.current_key.remove(&m.uid) {
                // A concurrent same-uid upsert slipped in between the two
                // lock acquisitions; replace its entry exactly.
                s.btree.try_delete(old)?;
            }
            s.btree.try_insert(key, ObjectRecord::from_moving_point(&m))?;
            s.current_key.insert(m.uid, key);
            s.label = Some(t_lab);
            Ok(())
        })();
        if migrating {
            self.mig_done.fetch_add(1, Ordering::SeqCst);
        }
        result?;
        self.commit_op();
        Ok(())
    }

    /// Apply a batch of updates: group by target partition, delete stale
    /// entries shard by shard, then merge each partition's new entries
    /// into its tree as one sorted run
    /// ([`peb_btree::BTree::merge_sorted`]). When the same uid appears
    /// more than once in `updates`, the last occurrence wins. A report
    /// [`ShardedMovingIndex::try_upsert`] would refuse (a uid the layout
    /// does not admit, a non-finite position, velocity or `t_update`) is
    /// dropped. Returns the number of distinct objects applied.
    ///
    /// Batches bound for different partitions can be applied from
    /// different threads concurrently — this is the parallel update path
    /// the sharding exists for.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use peb_common::{MovingPoint, Point, SpaceConfig, UserId, Vec2};
    /// use peb_index::{KeyLayout, ShardedMovingIndex, TimePartitioning};
    /// use peb_storage::BufferPool;
    ///
    /// /// `[TID]₂ ⊕ [ZV]₂ ⊕ [UID]₂` with a 20-bit Z-value, 32-bit uid.
    /// struct DemoLayout;
    /// impl KeyLayout for DemoLayout {
    ///     fn zv_bits(&self) -> u32 {
    ///         20
    ///     }
    ///     fn key(&self, tid: u8, zv: u64, uid: u64) -> u128 {
    ///         ((tid as u128) << 52) | ((zv as u128) << 32) | uid as u128
    ///     }
    ///     fn partition_range(&self, tid: u8) -> (u128, u128) {
    ///         (self.key(tid, 0, 0), self.key(tid, (1 << 20) - 1, u64::from(u32::MAX)))
    ///     }
    /// }
    ///
    /// let idx = ShardedMovingIndex::new(
    ///     Arc::new(BufferPool::new(64)),
    ///     DemoLayout,
    ///     SpaceConfig::new(1000.0, 10, 1440.0),
    ///     TimePartitioning::new(120.0, 2),
    ///     3.0,
    /// );
    /// let updates: Vec<MovingPoint> = (0..100)
    ///     .map(|i| MovingPoint::new(UserId(i), Point::new(i as f64 * 9.0, 500.0), Vec2::ZERO, 10.0))
    ///     .collect();
    /// assert_eq!(idx.upsert_batch(&updates), 100);
    /// assert_eq!(idx.len(), 100);
    /// assert_eq!(idx.get(UserId(42)).unwrap().pos, Point::new(378.0, 500.0));
    /// ```
    pub fn upsert_batch(&self, updates: &[MovingPoint]) -> usize {
        // Last write per uid wins, as if the batch were applied in order.
        let mut latest: HashMap<UserId, MovingPoint> = HashMap::with_capacity(updates.len());
        for m in updates {
            if self.refusal(m).is_some() {
                continue;
            }
            debug_assert!(
                m.speed() <= self.max_speed + 1e-9,
                "object {} exceeds the declared max speed",
                m.uid
            );
            latest.insert(m.uid, *m);
        }

        // Placement for every survivor, grouped by target shard.
        let mut targets: HashMap<UserId, (u8, u128)> = HashMap::with_capacity(latest.len());
        let mut groups: Vec<Vec<(u128, ObjectRecord, UserId)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut labels: Vec<Option<Timestamp>> = vec![None; self.shards.len()];
        for m in latest.values() {
            let (key, tid, t_lab) = self.placement(m);
            targets.insert(m.uid, (tid, key));
            groups[tid as usize].push((key, ObjectRecord::from_moving_point(m), m.uid));
            let lab = &mut labels[tid as usize];
            *lab = Some(lab.map_or(t_lab, |l: f64| l.max(t_lab)));
        }

        // Phase 1a — find stale entries, one shard *read* lock at a time.
        // An entry survives in place only if it is already under its new
        // key in its new shard (then the merge just replaces the value).
        let stale: Vec<(usize, Vec<UserId>)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(tid, shard)| {
                let s = shard.read();
                if s.current_key.is_empty() {
                    return None;
                }
                let mut present: Vec<UserId> = targets
                    .iter()
                    .filter(|(uid, &(ttid, tkey))| {
                        s.current_key
                            .get(uid)
                            .is_some_and(|&old| ttid as usize != tid || tkey != old)
                    })
                    .map(|(uid, _)| *uid)
                    .collect();
                if present.is_empty() {
                    return None;
                }
                // `targets` iterates in HashMap order, which varies run
                // to run; deletes touch pages, so the order must be
                // pinned for the I/O ledger of a fixed workload to be
                // reproducible.
                present.sort_unstable();
                Some((tid, present))
            })
            .collect();

        // Any stale entry means this batch re-keys live objects across
        // two lock critical sections (evict now under one lock, merge
        // later under another — same shard or not), so the whole
        // evict→merge span is bracketed by the migration epoch: a
        // concurrent scan overlapping it retries instead of seeing a
        // re-keyed object twice or not at all.
        let migrating = !stale.is_empty();
        if migrating {
            self.mig_started.fetch_add(1, Ordering::SeqCst);
        }

        // Phase 1b — evict, one shard write lock at a time.
        for (tid, present) in stale {
            let mut s = self.shards[tid].write();
            for uid in present {
                // Re-check under the write lock (another batch may have
                // moved the object in between).
                if let Some(&old) = s.current_key.get(&uid) {
                    let (ttid, tkey) = targets[&uid];
                    if ttid as usize != tid || tkey != old {
                        s.current_key.remove(&uid);
                        s.btree.delete(old);
                    }
                }
            }
        }
        if migrating {
            // Evict→merge gap: re-keyed objects are in no shard until
            // phase 2 lands. Same seeded freeze point as the single-
            // object migration span.
            sched::probe(sched::Site::MigSpan);
        }

        // Phase 2 — merge each partition's run into its shard tree.
        for (tid, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut entries: Vec<(u128, ObjectRecord)> = Vec::with_capacity(group.len());
            let mut keys: Vec<(UserId, u128)> = Vec::with_capacity(group.len());
            let mut sorted = group;
            sorted.sort_unstable_by_key(|(k, _, _)| *k);
            for (k, rec, uid) in sorted {
                entries.push((k, rec));
                keys.push((uid, k));
            }
            let mut s = self.shards[tid].write();
            s.btree.merge_sorted(entries);
            for (uid, k) in keys {
                s.current_key.insert(uid, k);
            }
            if let Some(lab) = labels[tid] {
                s.label = Some(lab);
            }
        }
        if migrating {
            self.mig_done.fetch_add(1, Ordering::SeqCst);
        }
        self.commit_op();
        targets.len()
    }

    /// Remove an object entirely. Returns whether it was present.
    pub fn remove(&self, uid: UserId) -> bool {
        self.try_remove(uid).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`ShardedMovingIndex::remove`]: an unresolvable
    /// media fault surfaces as [`IndexError::Io`] instead of panicking,
    /// and a failed call is not committed. On `Err` the uid's map entry
    /// is already vacated while the leaf entry may survive as an orphan
    /// the next scan can still see. The delete that faulted is in no log
    /// record (a tree operation is logged if and only if it returned `Ok`;
    /// see [`ShardedMovingIndex::try_upsert`]), so recovery, which maps
    /// every leaf entry it finds, maps the uid to that entry again.
    pub fn try_remove(&self, uid: UserId) -> Result<bool, IndexError> {
        for shard in &self.shards {
            if shard.read().current_key.contains_key(&uid) {
                let mut s = shard.write();
                if let Some(old) = s.current_key.remove(&uid) {
                    let removed = s.btree.try_delete(old)?.is_some();
                    drop(s);
                    self.commit_op();
                    return Ok(removed);
                }
            }
        }
        self.commit_op();
        Ok(false)
    }

    /// Fetch an object's current record by id (point lookup through disk).
    pub fn get(&self, uid: UserId) -> Option<MovingPoint> {
        self.try_get(uid).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`ShardedMovingIndex::get`]: an unresolvable
    /// media fault during the point lookup surfaces as
    /// [`IndexError::Io`] instead of panicking.
    pub fn try_get(&self, uid: UserId) -> Result<Option<MovingPoint>, IndexError> {
        for shard in &self.shards {
            let s = shard.read();
            if let Some(&key) = s.current_key.get(&uid) {
                return Ok(s.btree.try_get(key)?.map(|r| r.to_moving_point()));
            }
        }
        Ok(None)
    }

    /// The current index key of a live object, if any.
    pub fn current_key_of(&self, uid: UserId) -> Option<u128> {
        self.shards.iter().find_map(|shard| shard.read().current_key.get(&uid).copied())
    }

    /// The live `(tid, label timestamp)` pairs, sorted by tid.
    pub fn live_partitions(&self) -> Vec<(u8, Timestamp)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(tid, shard)| shard.read().label.map(|l| (tid as u8, l)))
            .collect()
    }

    /// Bx query-window enlargement for one partition (Fig 2 of the paper).
    pub fn enlarge(&self, r: &Rect, t_lab: Timestamp, tq: Timestamp) -> Rect {
        let d = self.max_speed * (t_lab - tq).abs();
        Rect::new(r.xl - d, r.xu + d, r.yl - d, r.yu + d)
    }

    /// Scan the stored records with keys in `[lo, hi]`, in key order,
    /// stopping early if `visit` returns `false`; returns `false` if the
    /// scan was stopped. The one-interval case of
    /// [`ShardedMovingIndex::try_scan_keys_multi`]; routing and the
    /// migration-consistency contract are those of
    /// [`ShardedMovingIndex::try_scan_plan`].
    pub fn scan_keys(
        &self,
        lo: u128,
        hi: u128,
        visit: impl FnMut(u128, ObjectRecord) -> bool,
    ) -> bool {
        self.try_scan_keys(lo, hi, visit).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible twin of [`ShardedMovingIndex::scan_keys`]: an
    /// unresolvable media fault anywhere in the leaf walk surfaces as
    /// [`IndexError::Io`] instead of panicking. Records already handed to
    /// `visit` before the fault stay delivered; consistency guarantees
    /// are unchanged for scans that complete.
    pub fn try_scan_keys(
        &self,
        lo: u128,
        hi: u128,
        visit: impl FnMut(u128, ObjectRecord) -> bool,
    ) -> Result<bool, IndexError> {
        self.try_scan_keys_multi(&[(lo, hi)], visit)
    }

    /// Scan the stored records whose keys fall in the **union** of
    /// `intervals` (inclusive, any order, overlap allowed), each exactly
    /// once, in ascending key order. Returns `Ok(false)` if `visit`
    /// stopped the scan; an unresolvable media fault anywhere in the leaf
    /// walk surfaces as [`IndexError::Io`] (records already handed to
    /// `visit` stay delivered).
    ///
    /// A thin wrapper over [`ShardedMovingIndex::try_scan_plan`] with the
    /// plain-interval plan ([`ScanPlan::from_intervals`]: what is read is
    /// all that is emitted) and no deadline; routing, consistency and
    /// early-exit contract are documented there.
    pub fn try_scan_keys_multi(
        &self,
        intervals: &[(u128, u128)],
        mut visit: impl FnMut(u128, ObjectRecord) -> bool,
    ) -> Result<bool, IndexError> {
        let unbounded = Deadline::unbounded(self.pool.clock());
        let report =
            self.try_scan_plan(&ScanPlan::from_intervals(intervals), &unbounded, |k, rec| {
                Visit::next_if(visit(k, rec))
            })?;
        Ok(report.termination != ScanTermination::Stopped)
    }

    /// Execute one [`ScanPlan`] across the partition trees it touches:
    /// the single implementation behind every fused scan of the index.
    ///
    /// The plan is clipped to each shard's partition range (rows and runs
    /// alike — both carry the TID, so a PEB/Bx plan for one partition
    /// passes through untouched) and executed per shard by
    /// [`peb_btree::BTree::try_scan_plan`]: one descent per shard plus a
    /// leaf-chain walk across that shard's runs, every entry of a page
    /// read that lies in a plan row handed to `visit`, `SkipRow` dropping
    /// the rest of a row unread. Shards are visited in the order of their
    /// first clipped key: partition ranges are disjoint (the `KeyLayout`
    /// contract), so this preserves the global ascending key order even
    /// for layouts whose ranges do not ascend with tid.
    ///
    /// `deadline` is consulted at every page and entry checkpoint
    /// **inside** each shard tree and at every **shard boundary**, so an
    /// expiring query stops within one page visit wherever it happens to
    /// be. The [`ScanReport`] tags each intersected time partition with
    /// whether its range was fully delivered — the raw material for the
    /// serving layer's explicitly-partial query answers.
    ///
    /// The scan is **migration-consistent** (protocol in the module docs).
    /// A plan touching a **single** shard — every plan the query
    /// algorithms issue, since a PEB/Bx interval lives inside one
    /// partition — streams under that shard's read lock, and an early
    /// exit costs exactly the pages scanned until `visit` stops. A
    /// multi-shard plan takes the epoch-validated path — buffer,
    /// revalidate, retry — so the whole plan is read before the stop
    /// signal is consulted; each retry re-reads pages and therefore burns
    /// more of the deadline (degrading the answer rather than blocking
    /// it), and an expired buffer that passes revalidation is emitted as a
    /// *consistent prefix*. After `SCAN_EPOCH_RETRIES` failures it waits
    /// out in-flight migration spans and holds every intersecting shard
    /// lock for a true snapshot: persistent migration traffic delays but,
    /// with the cooperative yields, cannot permanently starve the scan.
    /// Records already handed to `visit` before a fault stay delivered.
    ///
    /// The visiting closure may run under shard read locks: it must not
    /// call update methods on this index, but concurrent scans are free.
    pub fn try_scan_plan(
        &self,
        plan: &ScanPlan,
        deadline: &Deadline,
        mut visit: impl FnMut(u128, ObjectRecord) -> Visit,
    ) -> Result<ScanReport, IndexError> {
        let mut spans: Vec<(usize, Cow<'_, ScanPlan>)> = (0..self.shards.len())
            .filter_map(|tid| {
                let (plo, phi) = self.layout.partition_range(tid as u8);
                plan.clipped(plo, phi).map(|clipped| (tid, clipped))
            })
            .collect();
        spans.sort_unstable_by_key(|(_, clipped)| clipped.run(0).0);
        if spans.is_empty() {
            return Ok(ScanReport {
                termination: ScanTermination::Complete,
                partitions: Vec::new(),
            });
        }

        // Single-shard fast path: stream under one read lock, deadline
        // checkpoints running inside the tree walk (the hot query path).
        if let [(tid, clipped)] = &spans[..] {
            let term =
                self.shards[*tid].read().btree.try_scan_plan(clipped, deadline, &mut visit)?;
            return Ok(ScanReport {
                termination: term,
                partitions: vec![(*tid as u8, term == ScanTermination::Complete)],
            });
        }

        // An expired deadline means "answer now with what you have" — and
        // what a scan that has not started has is nothing. Checked here
        // and in every wait below so a query whose budget ran out can
        // never be wedged behind migration traffic: it degrades to an
        // all-incomplete answer instead of blocking on writers.
        let expired_report = || ScanReport {
            termination: ScanTermination::Expired,
            partitions: spans.iter().map(|(tid, _)| (*tid as u8, false)).collect(),
        };
        for _ in 0..SCAN_EPOCH_RETRIES {
            if deadline.expired() {
                return Ok(expired_report());
            }
            // Valid start state: no migration in flight. (`mig_done` is
            // read first so a span completing in between reads as "in
            // flight" — conservative, never unsound.)
            let done = self.mig_done.load(Ordering::SeqCst);
            let started = self.mig_started.load(Ordering::SeqCst);
            if done != started {
                // Let the migrator finish its span instead of burning the
                // scheduling quantum (the CI box has one CPU).
                std::thread::yield_now();
                continue;
            }
            let mut buf: Vec<(u128, ObjectRecord)> = Vec::new();
            let mut parts: Vec<(u8, bool)> = Vec::with_capacity(spans.len());
            let mut termination = ScanTermination::Complete;
            for (tid, clipped) in &spans {
                // Shard-boundary checkpoint: partitions past the expiry
                // are not read at all — they report incomplete at zero
                // page cost.
                if termination != ScanTermination::Complete {
                    parts.push((*tid as u8, false));
                    continue;
                }
                let s = self.shards[*tid].read();
                let term = s.btree.try_scan_plan(clipped, deadline, |k, rec| {
                    buf.push((k, rec));
                    Visit::Next
                })?;
                parts.push((*tid as u8, term == ScanTermination::Complete));
                if term == ScanTermination::Expired {
                    termination = ScanTermination::Expired;
                }
            }
            // No migration started during the scan (and none was in
            // flight when it began) ⇒ no re-key overlapped any part of
            // it: the buffer is migration-consistent and can be emitted.
            if self.mig_started.load(Ordering::SeqCst) == started {
                // Last key of the row the visitor skipped most recently.
                let mut skipped: Option<u128> = None;
                for (k, rec) in buf {
                    if skipped.is_some_and(|end| k <= end) {
                        continue;
                    }
                    match visit(k, rec) {
                        Visit::Next => {}
                        Visit::SkipRow => skipped = Some(plan.row_end(k)),
                        Visit::Stop => {
                            termination = ScanTermination::Stopped;
                            break;
                        }
                    }
                }
                return Ok(ScanReport { termination, partitions: parts });
            }
        }

        // Persistent migration traffic: wait out in-flight spans and hold
        // every intersecting shard lock at once (ascending key order;
        // writers take one lock at a time, so any total order shared by
        // the scans is deadlock-free), re-verify the epoch *under* the
        // locks, then stream with the deadline intact. Holding all the
        // locks blocks any further re-key, and the under-lock check rules
        // out a span that slipped a delete in before we finished
        // acquiring — the mid-air case where the object is momentarily in
        // no shard and no locking alone could make the scan see it. Every
        // span is finite and each wait yields the CPU, so the scan makes
        // progress as soon as one lock-acquisition window passes
        // undisturbed. The waits burn wall time, never virtual ticks, so
        // waiting cannot by itself expire a query.
        loop {
            if deadline.expired() {
                return Ok(expired_report());
            }
            let done = self.mig_done.load(Ordering::SeqCst);
            let started = self.mig_started.load(Ordering::SeqCst);
            if done != started {
                std::thread::yield_now();
                continue;
            }
            let guards: Vec<_> = spans.iter().map(|(tid, _)| self.shards[*tid].read()).collect();
            if self.mig_started.load(Ordering::SeqCst) != started
                || self.mig_done.load(Ordering::SeqCst) != started
            {
                drop(guards);
                std::thread::yield_now();
                continue;
            }
            let mut parts: Vec<(u8, bool)> = Vec::with_capacity(spans.len());
            let mut termination = ScanTermination::Complete;
            for ((tid, clipped), s) in spans.iter().zip(guards.iter()) {
                if termination != ScanTermination::Complete {
                    parts.push((*tid as u8, false));
                    continue;
                }
                let term = s.btree.try_scan_plan(clipped, deadline, &mut visit)?;
                parts.push((*tid as u8, term == ScanTermination::Complete));
                if term != ScanTermination::Complete {
                    termination = term;
                }
            }
            return Ok(ScanReport { termination, partitions: parts });
        }
    }

    /// Deterministic scan-path counters summed across all shard trees:
    /// root descents performed and branch pages the fused scans served
    /// from their descent caches (see [`peb_btree::ScanStats`]). The
    /// companion of [`ShardedMovingIndex::io_stats`] for the fused-scan
    /// experiment.
    pub fn scan_stats(&self) -> ScanStats {
        self.shards
            .iter()
            .fold(ScanStats::default(), |acc, s| acc.merged(&s.read().btree.scan_stats()))
    }

    /// Zero every shard tree's scan-path counters (measurement windows).
    pub fn reset_scan_stats(&self) {
        for shard in &self.shards {
            shard.read().btree.reset_scan_stats();
        }
    }

    /// Deterministic write-path counters summed across all shard trees:
    /// leaf pages written (see [`peb_btree::WriteStats`]). The write-side
    /// companion of [`ShardedMovingIndex::scan_stats`].
    pub fn write_stats(&self) -> WriteStats {
        self.shards
            .iter()
            .fold(WriteStats::default(), |acc, s| acc.merged(&s.read().btree.write_stats()))
    }

    /// Shim, always zero: the latched write path is gone. `e2e/src/adapter.rs`
    /// is the only caller; the next `benchmark` PR deletes this with it.
    pub fn olc_stats(&self) -> OlcStats {
        OlcStats::default()
    }

    /// Re-key live objects in place: `f(uid, old_key)` returns the new
    /// key for an object, or `None` to leave it alone. Returns how many
    /// objects were re-keyed.
    ///
    /// Intended for maintenance passes that rewrite a key *component*
    /// without moving the object spatially or temporally — the PEB-tree's
    /// sequence-value refresh is the canonical caller — so the new key
    /// must stay inside the object's current partition range (debug-
    /// asserted). Each shard is processed under its own write lock with
    /// uids visited in ascending order (deterministic page touches), and
    /// the whole pass is therefore atomic per shard with no migration
    /// epoch: a re-key never crosses a shard boundary.
    pub fn rekey_where(&self, mut f: impl FnMut(UserId, u128) -> Option<u128>) -> usize {
        let mut moved = 0usize;
        for (tid, shard) in self.shards.iter().enumerate() {
            let mut s = shard.write();
            if s.current_key.is_empty() {
                continue;
            }
            let mut uids: Vec<UserId> = s.current_key.keys().copied().collect();
            uids.sort_unstable();
            for uid in uids {
                let old = s.current_key[&uid];
                let Some(new) = f(uid, old) else { continue };
                if new == old {
                    continue;
                }
                let (plo, phi) = self.layout.partition_range(tid as u8);
                debug_assert!(
                    (plo..=phi).contains(&new),
                    "rekey_where must not move object {uid} out of partition {tid}"
                );
                let present = s
                    .btree
                    .try_rekey(old, new)
                    .unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"));
                if !present {
                    continue;
                }
                s.current_key.insert(uid, new);
                moved += 1;
            }
        }
        self.commit_op();
        moved
    }

    /// The number of migration spans ever started on this index (the
    /// migration epoch's leading edge). Exposed for tests and diagnostics;
    /// `try_scan_plan` consumes it internally.
    pub fn migration_epoch(&self) -> u64 {
        self.mig_started.load(Ordering::SeqCst)
    }

    /// Garbage-collect expired partitions: a shard whose label timestamp
    /// has passed (`label < now`) holds only objects that broke the "update
    /// at least once per `∆tmu`" contract, so the **whole shard tree is
    /// dropped in O(1)** (its pages leak on the simulated disk, which has
    /// no free list) instead of deleting entries key by key. Returns the
    /// number of objects dropped.
    pub fn expire_stale(&self, now: Timestamp) -> usize {
        let mut dropped = 0usize;
        for shard in &self.shards {
            if !matches!(shard.read().label, Some(l) if l < now) {
                continue;
            }
            let mut s = shard.write();
            if matches!(s.label, Some(l) if l < now) {
                dropped += s.current_key.len();
                s.current_key = HashMap::new();
                s.btree.reset();
                s.label = None;
            }
        }
        self.commit_op();
        dropped
    }

    /// O(1)-per-shard diagnostics, aggregated: entry/page counts summed,
    /// height is the tallest shard, leaf fill weighted by leaf pages.
    pub fn stats(&self) -> IndexStats {
        let mut tree =
            TreeStats { entries: 0, height: 0, leaf_pages: 0, total_pages: 0, avg_leaf_fill: 0.0 };
        let mut objects = 0usize;
        let mut fill_weight = 0.0f64;
        for shard in &self.shards {
            let s = shard.read();
            let ts = s.btree.stats();
            tree.entries += ts.entries;
            tree.height = tree.height.max(ts.height);
            tree.leaf_pages += ts.leaf_pages;
            tree.total_pages += ts.total_pages;
            fill_weight += ts.avg_leaf_fill * ts.leaf_pages as f64;
            objects += s.current_key.len();
        }
        tree.avg_leaf_fill =
            if tree.leaf_pages == 0 { 0.0 } else { fill_weight / tree.leaf_pages as f64 };
        IndexStats { tree, partitions: self.live_partitions(), objects }
    }

    /// Per-shard tree shapes, for load-balance diagnostics: `(tid, stats)`
    /// for every shard, including empty ones.
    pub fn shard_stats(&self) -> Vec<(u8, TreeStats)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(tid, shard)| (tid as u8, shard.read().btree.stats()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_common::{Point, Vec2};

    /// A minimal layout for exercising the shared machinery in isolation:
    /// `[TID]₂ ⊕ [ZV]₂ ⊕ [UID]₂` with a fixed 20-bit ZV.
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

    fn index(cap: usize) -> ShardedMovingIndex<TestLayout> {
        ShardedMovingIndex::new(
            Arc::new(BufferPool::new(cap)),
            TestLayout,
            SpaceConfig::new(1000.0, 10, 1440.0),
            TimePartitioning::new(120.0, 2),
            3.0,
        )
    }

    fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
    }

    /// Crash-and-recover an index: harvest the (unflushed) disks, replay
    /// the log, resume, and rebuild. Returns the recovered twin.
    fn crash_recover(idx: &ShardedMovingIndex<TestLayout>) -> ShardedMovingIndex<TestLayout> {
        let (mut data, log) = idx.pool().harvest_crash_state();
        let rec = peb_storage::recover(&mut data, &log);
        let wal = peb_storage::Wal::resume(log, &rec);
        let pool = Arc::new(BufferPool::from_recovered(64, 1, data, wal));
        ShardedMovingIndex::recover(
            pool,
            &rec,
            TestLayout,
            SpaceConfig::new(1000.0, 10, 1440.0),
            TimePartitioning::new(120.0, 2),
            3.0,
        )
    }

    fn assert_same_index(
        back: &ShardedMovingIndex<TestLayout>,
        idx: &ShardedMovingIndex<TestLayout>,
        uids: impl Iterator<Item = u64>,
    ) {
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.live_partitions(), idx.live_partitions());
        for i in uids {
            assert_eq!(back.current_key_of(UserId(i)), idx.current_key_of(UserId(i)), "uid {i}");
            assert_eq!(back.get(UserId(i)), idx.get(UserId(i)), "uid {i}");
        }
        let collect = |x: &ShardedMovingIndex<TestLayout>| {
            let mut v = Vec::new();
            x.scan_keys(0, u128::MAX, |k, r| {
                v.push((k, r));
                true
            });
            v
        };
        assert_eq!(collect(back), collect(idx), "full scans must agree");
    }

    #[test]
    fn recover_rebuilds_index_from_unflushed_crash() {
        let mut idx = index(64);
        idx.set_durable(true);
        for i in 0..300u64 {
            idx.upsert(still(
                i,
                (i % 50) as f64 * 20.0 + 3.0,
                (i / 50) as f64 * 150.0 + 3.0,
                (i % 2) as f64 * 70.0,
            ));
        }
        assert!(idx.remove(UserId(5)));
        assert_eq!(idx.committed_ops(), 301);
        // No flush, no checkpoint: everything after `set_durable`'s
        // initial checkpoint must come back from the log alone.
        let back = crash_recover(&idx);
        assert_eq!(back.committed_ops(), 301);
        assert_same_index(&back, &idx, 0..300);
        // The recovered index keeps working — and keeps committing.
        back.upsert(still(700, 500.0, 500.0, 10.0));
        assert_eq!(back.committed_ops(), 302);
        assert!(back.get(UserId(700)).is_some());
    }

    #[test]
    fn upsert_get_remove_roundtrip() {
        let idx = index(64);
        idx.upsert(still(1, 100.0, 200.0, 0.0));
        idx.upsert(still(2, 300.0, 400.0, 0.0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(UserId(1)).unwrap().pos, Point::new(100.0, 200.0));
        idx.upsert(still(1, 111.0, 222.0, 5.0));
        assert_eq!(idx.len(), 2, "update must not duplicate");
        assert!(idx.remove(UserId(1)));
        assert!(!idx.remove(UserId(1)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn keys_and_partitions_match_the_unsharded_core() {
        // Sharding must not move anything: every object sits where the
        // paper's single-tree derivation puts it — in the partition of its
        // label timestamp, keyed by its position forwarded to that
        // timestamp — derived here from the layout and the partitioning
        // alone.
        let idx = index(64);
        let (space, part) = (*idx.space(), *idx.partitioning());
        let mut labels = std::collections::BTreeMap::new();
        let mut want = Vec::new();
        for i in 0..200u64 {
            let m = still(
                i,
                (i % 40) as f64 * 25.0 + 2.0,
                (i / 40) as f64 * 190.0 + 2.0,
                (i % 3) as f64 * 55.0,
            );
            idx.upsert(m);
            let t_lab = part.label_timestamp(m.t_update);
            let tid = part.partition_of_label(t_lab);
            let (gx, gy) = space.to_grid(&m.position_at(t_lab));
            labels.insert(tid, t_lab);
            want.push((m, TestLayout.key(tid, encode(gx, gy), i)));
        }
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.live_partitions(), labels.into_iter().collect::<Vec<_>>());
        for (m, key) in want {
            assert_eq!(idx.current_key_of(m.uid), Some(key));
            assert_eq!(idx.get(m.uid), Some(m));
        }
    }

    #[test]
    fn partition_migration_on_phase_rollover() {
        let idx = index(64);
        idx.upsert(still(7, 100.0, 100.0, 10.0));
        let k1 = idx.current_key_of(UserId(7)).unwrap();
        let parts1 = idx.live_partitions();
        assert_eq!(parts1.len(), 1);
        assert_eq!(parts1[0].1, 120.0);

        idx.upsert(still(7, 110.0, 110.0, 70.0));
        let k2 = idx.current_key_of(UserId(7)).unwrap();
        assert_ne!(k1, k2, "rollover must re-key the object");
        assert_eq!(idx.len(), 1, "migration is delete+insert, not copy");

        // The vacated partition's tree holds nothing.
        let (lo, hi) = idx.layout().partition_range(parts1[0].0);
        let mut leftovers = 0;
        idx.scan_keys(lo, hi, |_, _| {
            leftovers += 1;
            true
        });
        assert_eq!(leftovers, 0, "no ghost entry in the vacated shard");

        assert_eq!(idx.expire_stale(150.0), 0);
        assert_eq!(idx.live_partitions().len(), 1);
        assert!(idx.get(UserId(7)).is_some());
    }

    #[test]
    fn expire_drops_whole_shards() {
        let idx = index(64);
        for i in 0..500u64 {
            idx.upsert(still(i, (i % 50) as f64 * 20.0 + 3.0, (i / 50) as f64 * 95.0 + 3.0, 10.0));
        }
        idx.upsert(still(900, 200.0, 200.0, 130.0)); // label 240
        assert_eq!(idx.live_partitions().len(), 2);

        // Warm the scan ledger so the drop has counters to preserve.
        idx.scan_keys(0, u128::MAX, |_, _| true);
        let scans_before = idx.scan_stats();
        assert!(scans_before.descents > 0);

        // Expiry is an O(1) shard drop: no per-key page reads.
        idx.pool().reset_stats();
        let dropped = idx.expire_stale(200.0);
        assert_eq!(dropped, 500);
        assert_eq!(
            idx.scan_stats(),
            scans_before,
            "the scan ledger must survive the expiry swap like every other counter"
        );
        // Dropping the shard costs exactly one page touch (initializing
        // the replacement root leaf), not a walk over 500 entries.
        assert_eq!(idx.pool().stats().logical_reads, 1, "shard drop must not walk the tree");
        assert_eq!(idx.len(), 1);
        assert!(idx.get(UserId(0)).is_none());
        assert!(idx.get(UserId(900)).is_some());
        assert_eq!(idx.expire_stale(200.0), 0, "idempotent");
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let users: Vec<MovingPoint> = (0..300u64)
            .map(|i| {
                still(
                    i,
                    (i % 50) as f64 * 20.0 + 3.0,
                    (i / 50) as f64 * 150.0 + 3.0,
                    (i % 2) as f64 * 70.0,
                )
            })
            .collect();
        let bulk = ShardedMovingIndex::bulk_load(
            Arc::new(BufferPool::new(64)),
            TestLayout,
            SpaceConfig::new(1000.0, 10, 1440.0),
            TimePartitioning::new(120.0, 2),
            3.0,
            &users,
            1.0,
        );
        let inc = index(64);
        for m in &users {
            inc.upsert(*m);
        }
        assert_eq!(bulk.len(), inc.len());
        for m in &users {
            assert_eq!(bulk.current_key_of(m.uid), inc.current_key_of(m.uid));
            assert_eq!(bulk.get(m.uid), inc.get(m.uid));
        }
        assert_eq!(bulk.live_partitions(), inc.live_partitions());
    }

    #[test]
    fn batch_equals_single_object_path() {
        // Two phases of updates: the batch path must land the index in
        // exactly the same state as the one-at-a-time path, including
        // cross-partition migrations and same-uid-twice batches.
        let round1: Vec<MovingPoint> = (0..300u64)
            .map(|i| still(i, (i % 60) as f64 * 16.0 + 4.0, (i / 60) as f64 * 190.0 + 4.0, 10.0))
            .collect();
        let mut round2: Vec<MovingPoint> = (0..300u64)
            .map(|i| still(i, (i % 55) as f64 * 18.0 + 1.0, (i / 55) as f64 * 160.0 + 1.0, 70.0))
            .collect();
        // Duplicate a few uids in the second batch: last write must win.
        round2.push(still(5, 900.0, 900.0, 71.0));
        round2.push(still(6, 910.0, 910.0, 71.0));

        let batched = index(256);
        assert_eq!(batched.upsert_batch(&round1), 300);
        assert_eq!(batched.upsert_batch(&round2), 300);

        let single = index(256);
        for m in round1.iter().chain(round2.iter()) {
            single.upsert(*m);
        }

        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.live_partitions(), single.live_partitions());
        for i in 0..300u64 {
            assert_eq!(batched.current_key_of(UserId(i)), single.current_key_of(UserId(i)));
            assert_eq!(batched.get(UserId(i)), single.get(UserId(i)));
        }
        assert_eq!(batched.get(UserId(5)).unwrap().pos, Point::new(900.0, 900.0));
    }

    #[test]
    fn batch_within_one_partition_replaces_in_place() {
        // Same partition, same keys (unchanged positions): the merge must
        // replace values without growing the tree.
        let idx = index(64);
        let users: Vec<MovingPoint> =
            (0..100u64).map(|i| still(i, i as f64 * 9.0 + 2.0, 500.0, 10.0)).collect();
        idx.upsert_batch(&users);
        let keys_before: Vec<_> =
            (0..100u64).map(|i| idx.current_key_of(UserId(i)).unwrap()).collect();
        idx.upsert_batch(&users);
        assert_eq!(idx.len(), 100);
        for (i, k) in keys_before.iter().enumerate() {
            assert_eq!(idx.current_key_of(UserId(i as u64)), Some(*k));
        }
    }

    #[test]
    fn scan_keys_preserves_global_order_across_shards() {
        let idx = index(128);
        for i in 0..200u64 {
            // Spread over two partitions.
            let t = if i % 2 == 0 { 10.0 } else { 70.0 };
            idx.upsert(still(i, (i % 40) as f64 * 25.0 + 2.0, (i / 40) as f64 * 190.0 + 2.0, t));
        }
        let mut keys = Vec::new();
        idx.scan_keys(0, u128::MAX, |k, _| {
            keys.push(k);
            true
        });
        assert_eq!(keys.len(), 200);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "global key order across shards");

        // Early exit propagates across shard boundaries.
        let mut seen = 0;
        let completed = idx.scan_keys(0, u128::MAX, |_, _| {
            seen += 1;
            seen < 3
        });
        assert!(!completed);
        assert_eq!(seen, 3);
    }

    #[test]
    fn migration_epoch_tracks_rekeying_spans() {
        let idx = index(64);
        assert_eq!(idx.migration_epoch(), 0);
        // First sighting: an insert, not a migration.
        idx.upsert(still(1, 100.0, 100.0, 10.0));
        assert_eq!(idx.migration_epoch(), 0);
        // Same-partition update: atomic under one shard lock, no span.
        idx.upsert(still(1, 120.0, 120.0, 20.0));
        assert_eq!(idx.migration_epoch(), 0);
        // Phase rollover: the object crosses partitions — one span.
        idx.upsert(still(1, 130.0, 130.0, 70.0));
        assert_eq!(idx.migration_epoch(), 1);
        // A batch whose objects only re-key (same or cross shard) opens
        // exactly one span for the whole batch.
        let batch: Vec<MovingPoint> =
            (0..50u64).map(|i| still(i, i as f64 * 18.0 + 1.0, 400.0, 130.0)).collect();
        idx.upsert_batch(&batch);
        assert_eq!(idx.migration_epoch(), 2, "uid 1 re-keyed; one span per batch");
        // A batch that changes nothing (same keys) opens no span.
        idx.upsert_batch(&batch);
        assert_eq!(idx.migration_epoch(), 2);
        // Scans still work and see each object exactly once afterwards.
        let mut seen = std::collections::HashSet::new();
        idx.scan_keys(0, u128::MAX, |_, rec| {
            assert!(seen.insert(rec.uid), "duplicate uid {}", rec.uid);
            true
        });
        assert_eq!(seen.len(), idx.len());
    }

    #[test]
    fn scan_keys_multi_equals_per_interval_scan_keys() {
        let idx = index(256);
        for i in 0..400u64 {
            // Two partitions, spread positions.
            let t = if i % 2 == 0 { 10.0 } else { 70.0 };
            idx.upsert(still(i, (i % 40) as f64 * 25.0 + 2.0, (i / 40) as f64 * 95.0 + 2.0, t));
        }
        // Interval set spanning both partitions, unsorted, overlapping.
        let (lo0, hi0) = idx.layout().partition_range(0);
        let (lo1, hi1) = idx.layout().partition_range(1);
        let mid0 = lo0 + (hi0 - lo0) / 2;
        let mid1 = lo1 + (hi1 - lo1) / 2;
        let intervals =
            vec![(mid1, hi1), (lo0, mid0), (lo1, mid1), (mid0 / 2, mid0), (hi1, hi0.max(hi1))];
        let runs = peb_btree::coalesce_intervals(&intervals);

        let mut want = Vec::new();
        for (lo, hi) in &runs {
            idx.scan_keys(*lo, *hi, |k, rec| {
                want.push((k, rec.uid));
                true
            });
        }
        let mut got = Vec::new();
        assert!(idx
            .try_scan_keys_multi(&intervals, |k, rec| {
                got.push((k, rec.uid));
                true
            })
            .unwrap());
        assert!(!got.is_empty());
        assert_eq!(got, want, "fused multi-shard scan must match per-interval scans");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "global key order across shards");

        // Early exit propagates on the multi-shard path too.
        let mut seen = 0;
        let completed = idx
            .try_scan_keys_multi(&intervals, |_, _| {
                seen += 1;
                seen < 3
            })
            .unwrap();
        assert!(!completed);
        assert_eq!(seen, 3);

        // Degenerate sets.
        assert!(idx.try_scan_keys_multi(&[], |_, _| true).unwrap());
        assert!(idx.try_scan_keys_multi(&[(5, 1)], |_, _| true).unwrap());
    }

    #[test]
    fn scan_keys_multi_single_shard_uses_fused_descents() {
        let idx = index(256);
        for i in 0..600u64 {
            idx.upsert(still(i, (i % 60) as f64 * 16.0 + 1.0, (i / 60) as f64 * 95.0 + 1.0, 10.0));
        }
        let tid = idx.live_partitions()[0].0;
        let l = *idx.layout();
        // Many small single-partition intervals (one per slice of ZV space).
        let intervals: Vec<(u128, u128)> = (0..30u64)
            .map(|j| {
                let zlo = j * 30_000;
                (l.key(tid, zlo, 0), l.key(tid, zlo + 500, (1 << UID_BITS) - 1))
            })
            .collect();
        let runs = peb_btree::coalesce_intervals(&intervals);
        assert!(runs.len() > 1);

        idx.reset_scan_stats();
        let mut want = Vec::new();
        for (lo, hi) in &runs {
            idx.scan_keys(*lo, *hi, |k, rec| {
                want.push((k, rec.uid));
                true
            });
        }
        let per = idx.scan_stats();
        assert_eq!(per.descents as usize, runs.len());

        idx.reset_scan_stats();
        let mut got = Vec::new();
        idx.try_scan_keys_multi(&intervals, |k, rec| {
            got.push((k, rec.uid));
            true
        })
        .unwrap();
        let fused = idx.scan_stats();
        assert_eq!(got, want);
        assert!(
            fused.descents * 2 <= per.descents,
            "fused descents {} vs per-interval {}",
            fused.descents,
            per.descents
        );
    }

    #[test]
    fn io_accounting_flows_through_the_shared_pool() {
        let idx = index(8);
        for i in 0..2_000u64 {
            idx.upsert(still(i, (i % 100) as f64 * 10.0 + 5.0, (i / 100) as f64 * 45.0 + 5.0, 0.0));
        }
        let pool = Arc::clone(idx.pool());
        pool.clear();
        pool.reset_stats();
        let (lo, hi) = idx.layout().partition_range(idx.live_partitions()[0].0);
        let mut n = 0;
        idx.scan_keys(lo, hi, |_, _| {
            n += 1;
            true
        });
        assert_eq!(n, 2_000);
        assert!(idx.io_stats().physical_reads > 0, "cold scan must do I/O");
        assert_eq!(idx.io_stats(), pool.stats(), "io_stats is the shared pool's counters");
    }

    #[test]
    fn rekey_where_rewrites_keys_without_moving_objects() {
        let idx = index(128);
        for i in 0..200u64 {
            idx.upsert(still(i, (i % 40) as f64 * 25.0 + 2.0, (i / 40) as f64 * 190.0 + 2.0, 10.0));
        }
        let before: Vec<_> = (0..200u64).map(|i| idx.get(UserId(i)).unwrap()).collect();
        // Flip one ZV bit for even uids: stays in the partition, keys
        // remain unique (uid bits are untouched).
        let moved = idx.rekey_where(|uid, old| (uid.0 % 2 == 0).then_some(old ^ (1u128 << 40)));
        assert_eq!(moved, 100);
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.rekey_where(|_, _| None), 0, "None leaves everything alone");
        for i in 0..200u64 {
            assert_eq!(idx.get(UserId(i)).unwrap(), before[i as usize], "records unchanged");
        }
        let mut seen = std::collections::HashSet::new();
        idx.scan_keys(0, u128::MAX, |_, rec| {
            assert!(seen.insert(rec.uid));
            true
        });
        assert_eq!(seen.len(), 200, "every object visible exactly once after the re-key");
    }

    #[test]
    fn expire_preserves_write_ledger() {
        let idx = index(64);
        for i in 0..200u64 {
            idx.upsert(still(i, (i % 40) as f64 * 25.0 + 2.0, (i / 40) as f64 * 95.0 + 2.0, 10.0));
        }
        idx.upsert(still(900, 200.0, 200.0, 130.0));
        let before = idx.write_stats();
        assert!(before.leaf_pages_written > 0);

        let dropped = idx.expire_stale(200.0);
        assert_eq!(dropped, 200);
        // The swap's only leaf write is the replacement root's format.
        assert_eq!(
            idx.write_stats().leaf_pages_written,
            before.leaf_pages_written + 1,
            "the write ledger must survive the expiry swap like every other counter"
        );
        assert!(idx.get(UserId(0)).is_none());
        assert!(idx.get(UserId(900)).is_some());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let idx = index(64);
        for i in 0..100u64 {
            let t = if i % 2 == 0 { 10.0 } else { 70.0 };
            idx.upsert(still(i, i as f64 * 9.0 + 2.0, 500.0, t));
        }
        let s = idx.stats();
        assert_eq!(s.objects, 100);
        assert_eq!(s.tree.entries, 100);
        assert_eq!(s.partitions.len(), 2);
        assert!(s.tree.avg_leaf_fill > 0.0);
        assert_eq!(idx.shard_stats().len(), idx.num_shards());
        let per_shard: usize = idx.shard_stats().iter().map(|(_, t)| t.entries).sum();
        assert_eq!(per_shard, 100);
    }
}
