//! B+-tree operations: search, insert with split propagation, delete with
//! borrow/merge rebalancing, and sibling-chain range scans.
//!
//! # Read path
//!
//! Every page read goes through the buffer pool's shard-locked
//! [`BufferPool::try_read`]: [`BTree::try_get`] is one root-to-leaf
//! descent. The write path ([`BTree::insert`], [`BTree::delete`], bulk
//! loading) requires `&mut self`, so no reader ever races a *tree* writer
//! — Rust's borrow rules (and, one level up, the index's partition locks)
//! exclude it. That is also what lets a scan keep private copies of the
//! branch pages it routed through and reuse them for the rest of its walk
//! ([`BTree::try_scan_plan`]).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use peb_common::Deadline;
use peb_storage::{
    BufferPool, IoFault, Page, PageId, PageSnapshot, RedoScope, TreeOpKind, TreeRedo, WalRecord,
    TREE_OP_VALUE_BYTES,
};

use crate::multiscan::{ScanCounters, ScanPlan, ScanStats, ScanTermination, Visit};
use crate::node::{self, branch_capacity, leaf_capacity, HEADER};
use crate::value::RecordValue;

/// A disk-based B+-tree mapping unique `u128` keys to fixed-size records.
pub struct BTree<V: RecordValue> {
    pub(crate) pool: Arc<BufferPool>,
    /// The root page (changes on root split and collapse).
    root: PageId,
    /// Tree height in levels (1 = the root is a leaf).
    height: u32,
    /// Stored entries.
    len: usize,
    leaf_pages: usize,
    total_pages: usize,
    /// Deterministic scan-path counters (descents, cached branch pages).
    scans: ScanCounters,
    /// Deterministic write-path counter (leaf pages written).
    pub(crate) writes: WriteCounters,
    /// Identity of this tree in the write-ahead log (`u32::MAX` =
    /// unregistered: on a durable pool its writes log physical page
    /// images). Set by the index layer when durability is on; survives
    /// wholesale rebuilds (merges, resets).
    pub(crate) tree_id: u32,
    _values: PhantomData<V>,
}

impl<V: RecordValue> BTree<V> {
    /// Create an empty tree whose pages live in `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        let root = pool.allocate();
        pool.write(root, node::init_leaf);
        let t = BTree::from_raw(pool, root, 1, 0, 1, 1);
        t.writes.bump_leaf_writes(1);
        t
    }

    /// Every value of a registered tree must fit one log record
    /// (checked when the logging code is instantiated for `V`).
    const LOGGABLE: () =
        assert!(V::SIZE <= TREE_OP_VALUE_BYTES, "record value too wide for the log");

    const fn vsize() -> usize {
        V::SIZE
    }

    const fn stride() -> usize {
        16 + V::SIZE
    }

    pub(crate) const fn leaf_cap() -> usize {
        leaf_capacity(V::SIZE)
    }

    const fn leaf_min() -> usize {
        leaf_capacity(V::SIZE) / 2
    }

    const fn branch_min() -> usize {
        branch_capacity() / 2
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height in levels (1 = root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of live leaf pages (`Nl` in the paper's cost model).
    pub fn leaf_page_count(&self) -> usize {
        self.leaf_pages
    }

    /// Number of live pages across all levels.
    pub fn page_count(&self) -> usize {
        self.total_pages
    }

    /// The buffer pool this tree performs I/O through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Internal constructor used by the bulk loader; the caller is
    /// responsible for every structural invariant.
    pub(crate) fn from_raw(
        pool: Arc<BufferPool>,
        root: PageId,
        height: u32,
        len: usize,
        leaf_pages: usize,
        total_pages: usize,
    ) -> Self {
        BTree {
            pool,
            root,
            height,
            len,
            leaf_pages,
            total_pages,
            scans: ScanCounters::default(),
            writes: WriteCounters::default(),
            tree_id: u32::MAX,
            _values: PhantomData,
        }
    }

    /// The root page of this tree (changes on root split/collapse and on
    /// wholesale rebuilds).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Register this tree under `id` in the write-ahead log and log its
    /// current root and height, so recovery can locate it. Called by the
    /// index layer when durability is enabled. From then on, on a durable
    /// pool, every successful mutation logs one logical record —
    /// [`peb_storage::WalRecord::TreeOp`] or
    /// [`peb_storage::WalRecord::Rekey`] — instead of the pages it wrote,
    /// and recovery re-executes it ([`BTree::try_replay`]).
    pub fn set_tree_id(&mut self, id: u32) {
        self.tree_id = id;
        self.pool.wal_tree_meta(self.tree_id, self.root, self.height);
    }

    /// The redo scope one mutation runs in: `None` unless the pool is
    /// durable and this tree is registered, in which case its page writes
    /// log no post-images — the mutation's own record describes them.
    pub(crate) fn redo_scope(&self) -> Option<RedoScope> {
        if self.tree_id == u32::MAX {
            return None;
        }
        self.pool.redo_scope()
    }

    /// The logical record of one mutation of this tree: `value`, if any,
    /// is stored zero-padded.
    pub(crate) fn op_record(&self, op: TreeOpKind, key: u128, value: Option<&V>) -> WalRecord {
        let () = Self::LOGGABLE;
        let mut bytes = [0u8; TREE_OP_VALUE_BYTES];
        if let Some(v) = value {
            v.write(&mut bytes[..V::SIZE]);
        }
        WalRecord::TreeOp { tree: self.tree_id, op, key, value: bytes }
    }

    /// Re-execute one logged mutation through the code its entry point
    /// ran — recovery's redo step. The record is already in the log, so
    /// the page writes run in a redo scope and log nothing new. The
    /// result is the tree the original call left, page for page, given
    /// the tree it started from.
    pub fn try_replay(&mut self, op: &TreeRedo) -> Result<(), IoFault> {
        let () = Self::LOGGABLE;
        let _scope = self.redo_scope();
        let value = |bytes: &[u8; TREE_OP_VALUE_BYTES]| V::read(&bytes[..V::SIZE]);
        match op {
            TreeRedo::Insert { key, value: v } => {
                self.insert_core(*key, &value(v))?;
            }
            TreeRedo::Delete { key } => {
                self.delete_core(*key)?;
            }
            TreeRedo::Rekey { old, new } => {
                self.rekey_core(*old, *new)?;
            }
            TreeRedo::Merge { entries } => {
                self.merge_core(entries.iter().map(|(k, v)| (*k, value(v))).collect());
            }
            TreeRedo::Reset => self.reset_core(),
        }
        Ok(())
    }

    /// Reconstruct a tree from its recovered on-disk pages: `root` and
    /// `height` come from the `TreeMeta` record the last complete
    /// checkpoint logged for `tree_id`. One breadth-first structural walk
    /// rebuilds the in-memory bookkeeping the crash destroyed — entry
    /// count and page counts — after which the tree answers exactly like
    /// one that never crashed, as of that checkpoint.
    pub fn reattach(pool: Arc<BufferPool>, tree_id: u32, root: PageId, height: u32) -> Self {
        let mut t: BTree<V> = BTree::from_raw(pool, root, height, 0, 0, 0);
        t.tree_id = tree_id;
        let mut frontier = vec![root];
        for _ in 0..height {
            let mut next = Vec::new();
            for &pid in &frontier {
                t.total_pages += 1;
                let (n, leaf, children) = t.pool.read(pid, |p| {
                    let n = node::count(p);
                    let leaf = node::is_leaf(p);
                    let children: Vec<PageId> = if leaf {
                        Vec::new()
                    } else {
                        (0..=n).map(|j| node::child_at(p, j)).collect()
                    };
                    (n, leaf, children)
                });
                if leaf {
                    t.leaf_pages += 1;
                    t.len += n;
                } else {
                    next.extend(children);
                }
            }
            frontier = next;
        }
        t
    }

    /// Deterministic scan-path counters: root-to-leaf descents performed
    /// by [`BTree::range_scan`]/[`BTree::try_multi_range_scan`] and branch
    /// pages the fused path served from its descent cache. The companion
    /// of the pool's I/O ledger for the fused-scan experiment.
    pub fn scan_stats(&self) -> ScanStats {
        self.scans.snapshot()
    }

    /// Zero the scan-path counters (measurement windows).
    pub fn reset_scan_stats(&self) {
        self.scans.restore(ScanStats::default());
    }

    /// Overwrite the scan-path counters — the carry half of the
    /// "the scan ledger outlives structural maintenance" contract: code
    /// that replaces a tree wholesale (`merge_sorted`'s rebuild, a
    /// shard's O(1) expiry swap) snapshots [`BTree::scan_stats`] first
    /// and restores it onto the replacement.
    pub fn restore_scan_stats(&self, s: ScanStats) {
        self.scans.restore(s);
    }

    // ---- leaf byte helpers -------------------------------------------------

    fn leaf_value_at(&self, pid: PageId, i: usize) -> Result<V, IoFault> {
        self.pool.try_read(pid, |p| {
            V::read(p.bytes(node::leaf_entry_off(i, Self::vsize()) + 16, Self::vsize()))
        })
    }

    // ---- point lookup ------------------------------------------------------

    /// Exact-key lookup: one root-to-leaf descent, one page read per
    /// level.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use peb_btree::BTree;
    /// use peb_storage::BufferPool;
    ///
    /// let pool = Arc::new(BufferPool::new(32));
    /// let mut t: BTree<u64> = BTree::new(Arc::clone(&pool));
    /// for k in 0..2_000u128 {
    ///     t.insert(k * 3, k as u64);
    /// }
    /// assert_eq!(t.get(2_997), Some(999));
    /// assert_eq!(t.get(2_998), None);
    /// // A lookup costs one logical page read per level.
    /// pool.reset_stats();
    /// t.get(5_997);
    /// assert_eq!(pool.stats().logical_reads, u64::from(t.height()));
    /// ```
    pub fn get(&self, key: u128) -> Option<V> {
        self.try_get(key).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BTree::get`]: identical descent and I/O accounting, but
    /// an unresolvable media fault (transient retries exhausted, permanent
    /// bad sector, unrepairable corruption) comes back as a typed
    /// [`IoFault`] instead of a panic.
    pub fn try_get(&self, key: u128) -> Result<Option<V>, IoFault> {
        let vsize = Self::vsize();
        let mut pid = self.root;
        for _ in 1..self.height {
            pid =
                self.pool.try_read(pid, |p| node::child_at(p, node::branch_child_index(p, key)))?;
        }
        self.pool.try_read(pid, |p| {
            let i = node::leaf_lower_bound(p, key, vsize);
            if i < node::count(p) && node::leaf_key(p, i, vsize) == key {
                Some(V::read(p.bytes(node::leaf_entry_off(i, vsize) + 16, vsize)))
            } else {
                None
            }
        })
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u128) -> bool {
        self.get(key).is_some()
    }

    // ---- insertion ---------------------------------------------------------

    /// Insert a new entry. Returns the previous value if `key` was already
    /// present (the entry is replaced in place; no structural change).
    pub fn insert(&mut self, key: u128, value: V) -> Option<V> {
        self.try_insert(key, value).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BTree::insert`]: an unresolvable media fault while
    /// faulting a path page in surfaces as a typed [`IoFault`] instead of
    /// a panic. A fault mid-split can leave structural work half-applied
    /// (like a panic would); durable pools repair and recover, non-durable
    /// pools should treat the tree as suspect after an error. On a
    /// registered tree of a durable pool a call that returns `Ok` logs one
    /// [`TreeOpKind::Insert`] record; a failed call logs nothing.
    pub fn try_insert(&mut self, key: u128, value: V) -> Result<Option<V>, IoFault> {
        let Some(scope) = self.redo_scope() else { return self.insert_core(key, &value) };
        let old = self.insert_core(key, &value)?;
        scope.log(&self.op_record(TreeOpKind::Insert, key, Some(&value)));
        Ok(old)
    }

    /// [`BTree::try_insert`] without the log record.
    pub(crate) fn insert_core(&mut self, key: u128, value: &V) -> Result<Option<V>, IoFault> {
        let (root, height) = (self.root, self.height);
        Ok(match self.insert_rec(root, height - 1, key, value)? {
            InsertOutcome::Replaced(old) => Some(old),
            InsertOutcome::Done => {
                self.len += 1;
                None
            }
            InsertOutcome::Split(sep, right) => {
                // Grow a new root above the old one.
                let new_root = self.pool.allocate();
                self.total_pages += 1;
                self.pool.try_write(new_root, |p| {
                    node::init_branch(p, root);
                    node::branch_insert_entry(p, 0, sep, right);
                })?;
                (self.root, self.height) = (new_root, height + 1);
                self.len += 1;
                None
            }
        })
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        level: u32,
        key: u128,
        value: &V,
    ) -> Result<InsertOutcome<V>, IoFault> {
        if level == 0 {
            return self.leaf_insert(pid, key, value);
        }
        let j = self.pool.try_read(pid, |p| node::branch_child_index(p, key))?;
        let child = self.pool.try_read(pid, |p| node::child_at(p, j))?;
        match self.insert_rec(child, level - 1, key, value)? {
            InsertOutcome::Split(sep, right) => {
                let n = self.pool.try_read(pid, node::count)?;
                if n < branch_capacity() {
                    self.pool.try_write(pid, |p| node::branch_insert_entry(p, j, sep, right))?;
                    Ok(InsertOutcome::Done)
                } else {
                    self.branch_split_insert(pid, j, sep, right)
                }
            }
            other => Ok(other),
        }
    }

    fn leaf_insert(
        &mut self,
        pid: PageId,
        key: u128,
        value: &V,
    ) -> Result<InsertOutcome<V>, IoFault> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        enum Slot<V> {
            Replace(usize, V),
            Insert(usize, usize), // (index, count)
        }
        let slot = self.pool.try_read(pid, |p| {
            let i = node::leaf_lower_bound(p, key, vsize);
            let n = node::count(p);
            if i < n && node::leaf_key(p, i, vsize) == key {
                Slot::Replace(i, V::read(p.bytes(node::leaf_entry_off(i, vsize) + 16, vsize)))
            } else {
                Slot::Insert(i, n)
            }
        })?;
        match slot {
            Slot::Replace(i, old) => {
                self.pool.try_write(pid, |p| {
                    value.write(p.bytes_mut(node::leaf_entry_off(i, vsize) + 16, vsize));
                })?;
                self.writes.bump_leaf_writes(1);
                Ok(InsertOutcome::Replaced(old))
            }
            Slot::Insert(i, n) if n < Self::leaf_cap() => {
                self.pool.try_write(pid, |p| {
                    let off = node::leaf_entry_off(i, vsize);
                    p.shift(off, off + stride, (n - i) * stride);
                    p.put_u128(off, key);
                    value.write(p.bytes_mut(off + 16, vsize));
                    node::set_count(p, n + 1);
                })?;
                self.writes.bump_leaf_writes(1);
                Ok(InsertOutcome::Done)
            }
            Slot::Insert(i, n) => {
                // Full leaf: split, then insert into the proper half.
                let mid = n / 2;
                let right = self.pool.allocate();
                self.total_pages += 1;
                self.leaf_pages += 1;

                // Move entries [mid..n) into the new right leaf.
                let moved: Vec<u8> = self.pool.try_read(pid, |p| {
                    p.bytes(node::leaf_entry_off(mid, vsize), (n - mid) * stride).to_vec()
                })?;
                let old_sibling = self.pool.try_read(pid, node::right_sibling)?;
                self.pool.try_write(right, |p| {
                    node::init_leaf(p);
                    p.bytes_mut(HEADER, moved.len()).copy_from_slice(&moved);
                    node::set_count(p, n - mid);
                    node::set_right_sibling(p, old_sibling);
                })?;
                self.pool.try_write(pid, |p| {
                    node::set_count(p, mid);
                    node::set_right_sibling(p, right);
                })?;

                // Insert the pending entry on the side it belongs to.
                let (target, ti, tn) =
                    if i <= mid { (pid, i, mid) } else { (right, i - mid, n - mid) };
                self.pool.try_write(target, |p| {
                    let off = node::leaf_entry_off(ti, vsize);
                    p.shift(off, off + stride, (tn - ti) * stride);
                    p.put_u128(off, key);
                    value.write(p.bytes_mut(off + 16, vsize));
                    node::set_count(p, tn + 1);
                })?;

                self.writes.bump_leaf_writes(3);
                let sep = self.pool.try_read(right, |p| node::leaf_key(p, 0, vsize))?;
                Ok(InsertOutcome::Split(sep, right))
            }
        }
    }

    /// Split a full branch while inserting `(sep, child)` at entry index `j`.
    fn branch_split_insert(
        &mut self,
        pid: PageId,
        j: usize,
        sep: u128,
        child: PageId,
    ) -> Result<InsertOutcome<V>, IoFault> {
        // Materialize all entries plus the pending one, split around the
        // median, and push the median up.
        let mut entries: Vec<(u128, PageId)> = self.pool.try_read(pid, |p| {
            (0..node::count(p))
                .map(|i| (node::branch_key(p, i), node::branch_entry_child(p, i)))
                .collect()
        })?;
        entries.insert(j, (sep, child));

        let m = entries.len() / 2;
        let (up_key, up_child) = entries[m];
        let right = self.pool.allocate();
        self.total_pages += 1;

        self.pool.try_write(right, |p| {
            node::init_branch(p, up_child);
            for (i, (k, c)) in entries[m + 1..].iter().enumerate() {
                node::branch_insert_entry(p, i, *k, *c);
            }
        })?;
        self.pool.try_write(pid, |p| {
            node::set_count(p, 0);
            for (i, (k, c)) in entries[..m].iter().enumerate() {
                node::branch_insert_entry(p, i, *k, *c);
            }
        })?;
        Ok(InsertOutcome::Split(up_key, right))
    }

    // ---- deletion ----------------------------------------------------------

    /// Remove `key`, returning its value if present.
    pub fn delete(&mut self, key: u128) -> Option<V> {
        self.try_delete(key).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BTree::delete`]: an unresolvable media fault surfaces as
    /// a typed [`IoFault`] instead of a panic. A fault mid-rebalance can
    /// leave structural work half-applied, exactly like a panic would —
    /// see [`BTree::try_insert`], also for what is logged.
    pub fn try_delete(&mut self, key: u128) -> Result<Option<V>, IoFault> {
        let Some(scope) = self.redo_scope() else { return self.delete_core(key) };
        let removed = self.delete_core(key)?;
        scope.log(&self.op_record(TreeOpKind::Delete, key, None));
        Ok(removed)
    }

    /// [`BTree::try_delete`] without the log record.
    fn delete_core(&mut self, key: u128) -> Result<Option<V>, IoFault> {
        let (root, height) = (self.root, self.height);
        let removed = self.delete_rec(root, height - 1, key)?;
        if removed.is_some() {
            self.len -= 1;
            // Collapse the root if it is an empty branch.
            if height > 1 {
                let (n, first_child) =
                    self.pool.try_read(root, |p| (node::count(p), node::leftmost_child(p)))?;
                if n == 0 {
                    (self.root, self.height) = (first_child, height - 1);
                    self.total_pages -= 1;
                }
            }
        }
        Ok(removed)
    }

    /// Move the record stored under `old` to key `new` (the record itself
    /// is unchanged); returns whether `old` was present. One exact delete
    /// plus one insert, logged as one [`peb_storage::WalRecord::Rekey`]
    /// record when the call returns `Ok` (see [`BTree::try_insert`]).
    pub fn try_rekey(&mut self, old: u128, new: u128) -> Result<bool, IoFault> {
        let Some(scope) = self.redo_scope() else { return self.rekey_core(old, new) };
        let moved = self.rekey_core(old, new)?;
        scope.log(&WalRecord::Rekey { tree: self.tree_id, old, new });
        Ok(moved)
    }

    /// [`BTree::try_rekey`] without the log record.
    fn rekey_core(&mut self, old: u128, new: u128) -> Result<bool, IoFault> {
        let Some(rec) = self.try_get(old)? else { return Ok(false) };
        self.delete_core(old)?;
        self.insert_core(new, &rec)?;
        Ok(true)
    }

    /// Replace the tree with an empty one — a fresh root leaf; the old
    /// pages leak on the simulated disk, which has no free list — in O(1).
    /// The replacement keeps this tree's log identity and its scan and
    /// write ledgers (structural maintenance is not a measurement reset),
    /// and a registered tree of a durable pool logs one
    /// [`TreeOpKind::Reset`] record.
    pub fn reset(&mut self) {
        let scope = self.redo_scope();
        self.reset_core();
        if let Some(scope) = scope {
            scope.log(&self.op_record(TreeOpKind::Reset, 0, None));
        }
    }

    /// [`BTree::reset`] without the log record.
    fn reset_core(&mut self) {
        let (scans, writes, tree_id) = (self.scan_stats(), self.write_stats(), self.tree_id);
        *self = BTree::new(Arc::clone(&self.pool));
        self.restore_scan_stats(scans);
        self.restore_write_stats(writes.merged(&self.write_stats()));
        self.tree_id = tree_id;
    }

    fn delete_rec(&mut self, pid: PageId, level: u32, key: u128) -> Result<Option<V>, IoFault> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        if level == 0 {
            let found = self.pool.try_read(pid, |p| {
                let i = node::leaf_lower_bound(p, key, vsize);
                if i < node::count(p) && node::leaf_key(p, i, vsize) == key {
                    Some(i)
                } else {
                    None
                }
            })?;
            let Some(i) = found else { return Ok(None) };
            let old = self.leaf_value_at(pid, i)?;
            self.pool.try_write(pid, |p| {
                let n = node::count(p);
                let off = node::leaf_entry_off(i, vsize);
                p.shift(off + stride, off, (n - 1 - i) * stride);
                node::set_count(p, n - 1);
            })?;
            self.writes.bump_leaf_writes(1);
            return Ok(Some(old));
        }

        let j = self.pool.try_read(pid, |p| node::branch_child_index(p, key))?;
        let child = self.pool.try_read(pid, |p| node::child_at(p, j))?;
        let Some(removed) = self.delete_rec(child, level - 1, key)? else { return Ok(None) };

        let child_min = if level - 1 == 0 { Self::leaf_min() } else { Self::branch_min() };
        let child_count = self.pool.try_read(child, node::count)?;
        if child_count < child_min {
            self.fix_child(pid, j, level - 1)?;
        }
        Ok(Some(removed))
    }

    /// Restore occupancy of child pointer `j` of branch `pid` by borrowing
    /// from a sibling or merging with one. `child_level == 0` means the
    /// children are leaves.
    fn fix_child(&mut self, pid: PageId, j: usize, child_level: u32) -> Result<(), IoFault> {
        let parent_count = self.pool.try_read(pid, node::count)?;
        let child = self.pool.try_read(pid, |p| node::child_at(p, j))?;
        let left =
            if j > 0 { Some(self.pool.try_read(pid, |p| node::child_at(p, j - 1))?) } else { None };
        let right = if j < parent_count {
            Some(self.pool.try_read(pid, |p| node::child_at(p, j + 1))?)
        } else {
            None
        };
        let min = if child_level == 0 { Self::leaf_min() } else { Self::branch_min() };

        if let Some(l) = left {
            if self.pool.try_read(l, node::count)? > min {
                return self.borrow_from_left(pid, j, l, child, child_level);
            }
        }
        if let Some(r) = right {
            if self.pool.try_read(r, node::count)? > min {
                return self.borrow_from_right(pid, j, child, r, child_level);
            }
        }
        if let Some(l) = left {
            self.merge_children(pid, j - 1, l, child, child_level)?;
        } else if let Some(r) = right {
            self.merge_children(pid, j, child, r, child_level)?;
        }
        // A root child with no siblings cannot underflow structurally; the
        // root itself shrinks via `delete`.
        Ok(())
    }

    fn borrow_from_left(
        &mut self,
        pid: PageId,
        j: usize,
        l: PageId,
        c: PageId,
        level: u32,
    ) -> Result<(), IoFault> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        if level == 0 {
            // Move left's last entry to the front of c.
            let ln = self.pool.try_read(l, node::count)?;
            let entry: Vec<u8> = self
                .pool
                .try_read(l, |p| p.bytes(node::leaf_entry_off(ln - 1, vsize), stride).to_vec())?;
            self.pool.try_write(l, |p| node::set_count(p, ln - 1))?;
            self.pool.try_write(c, |p| {
                let n = node::count(p);
                p.shift(HEADER, HEADER + stride, n * stride);
                p.bytes_mut(HEADER, stride).copy_from_slice(&entry);
                node::set_count(p, n + 1);
            })?;
            let new_sep = u128::from_le_bytes(entry[..16].try_into().unwrap());
            self.pool.try_write(pid, |p| node::set_branch_key(p, j - 1, new_sep))?;
            self.writes.bump_leaf_writes(2);
        } else {
            // Rotate through the parent separator.
            let ln = self.pool.try_read(l, node::count)?;
            let (l_last_key, l_last_child) = self.pool.try_read(l, |p| {
                (node::branch_key(p, ln - 1), node::branch_entry_child(p, ln - 1))
            })?;
            let sep = self.pool.try_read(pid, |p| node::branch_key(p, j - 1))?;
            let c_leftmost = self.pool.try_read(c, node::leftmost_child)?;
            self.pool.try_write(c, |p| {
                node::branch_insert_entry(p, 0, sep, c_leftmost);
                node::set_leftmost_child(p, l_last_child);
            })?;
            self.pool.try_write(l, |p| node::branch_remove_entry(p, ln - 1))?;
            self.pool.try_write(pid, |p| node::set_branch_key(p, j - 1, l_last_key))?;
        }
        Ok(())
    }

    fn borrow_from_right(
        &mut self,
        pid: PageId,
        j: usize,
        c: PageId,
        r: PageId,
        level: u32,
    ) -> Result<(), IoFault> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        if level == 0 {
            // Move right's first entry to the end of c.
            let entry: Vec<u8> = self.pool.try_read(r, |p| p.bytes(HEADER, stride).to_vec())?;
            self.pool.try_write(r, |p| {
                let n = node::count(p);
                p.shift(HEADER + stride, HEADER, (n - 1) * stride);
                node::set_count(p, n - 1);
            })?;
            self.pool.try_write(c, |p| {
                let n = node::count(p);
                p.bytes_mut(node::leaf_entry_off(n, vsize), stride).copy_from_slice(&entry);
                node::set_count(p, n + 1);
            })?;
            let new_sep = self.pool.try_read(r, |p| node::leaf_key(p, 0, vsize))?;
            self.pool.try_write(pid, |p| node::set_branch_key(p, j, new_sep))?;
            self.writes.bump_leaf_writes(2);
        } else {
            let sep = self.pool.try_read(pid, |p| node::branch_key(p, j))?;
            let (r_first_key, r_leftmost) =
                self.pool.try_read(r, |p| (node::branch_key(p, 0), node::leftmost_child(p)))?;
            let r_first_child = self.pool.try_read(r, |p| node::branch_entry_child(p, 0))?;
            self.pool.try_write(c, |p| {
                let n = node::count(p);
                node::branch_insert_entry(p, n, sep, r_leftmost);
            })?;
            self.pool.try_write(r, |p| {
                node::set_leftmost_child(p, r_first_child);
                node::branch_remove_entry(p, 0);
            })?;
            self.pool.try_write(pid, |p| node::set_branch_key(p, j, r_first_key))?;
        }
        Ok(())
    }

    /// Merge the right node of the pair `(child j, child j+1)` into the
    /// left one and drop parent entry `sep_idx` (`== j`).
    fn merge_children(
        &mut self,
        pid: PageId,
        sep_idx: usize,
        l: PageId,
        r: PageId,
        level: u32,
    ) -> Result<(), IoFault> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        if level == 0 {
            let (rn, r_sibling) =
                self.pool.try_read(r, |p| (node::count(p), node::right_sibling(p)))?;
            let bytes: Vec<u8> =
                self.pool.try_read(r, |p| p.bytes(HEADER, rn * stride).to_vec())?;
            self.pool.try_write(l, |p| {
                let n = node::count(p);
                p.bytes_mut(node::leaf_entry_off(n, vsize), bytes.len()).copy_from_slice(&bytes);
                node::set_count(p, n + rn);
                node::set_right_sibling(p, r_sibling);
            })?;
            self.writes.bump_leaf_writes(1);
            self.leaf_pages -= 1;
        } else {
            let sep = self.pool.try_read(pid, |p| node::branch_key(p, sep_idx))?;
            let r_leftmost = self.pool.try_read(r, node::leftmost_child)?;
            let r_entries: Vec<(u128, PageId)> = self.pool.try_read(r, |p| {
                (0..node::count(p))
                    .map(|i| (node::branch_key(p, i), node::branch_entry_child(p, i)))
                    .collect()
            })?;
            self.pool.try_write(l, |p| {
                let mut n = node::count(p);
                node::branch_insert_entry(p, n, sep, r_leftmost);
                n += 1;
                for (k, c) in r_entries {
                    node::branch_insert_entry(p, n, k, c);
                    n += 1;
                }
            })?;
        }
        self.pool.try_write(pid, |p| node::branch_remove_entry(p, sep_idx))?;
        self.total_pages -= 1;
        // The page of `r` is leaked on the simulated disk; the simulator has
        // no free list, and leaked pages cost no I/O.
        Ok(())
    }

    // ---- range scans -------------------------------------------------------

    /// Visit all entries with `lo <= key <= hi` in key order. The callback
    /// returns `false` to stop early; `range_scan` returns whether the scan
    /// ran to completion.
    pub fn range_scan(&self, lo: u128, hi: u128, visit: impl FnMut(u128, V) -> bool) -> bool {
        self.try_range_scan(lo, hi, visit).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BTree::range_scan`]: an unresolvable media fault surfaces
    /// as a typed [`IoFault`] instead of a panic. Entries already handed to
    /// `visit` before the fault stand (the scan emits in key order, so the
    /// prefix is exact); the scan stops at the fault. The plan of one run
    /// on the one leaf walk: [`BTree::try_multi_range_scan`] of `[(lo, hi)]`.
    pub fn try_range_scan(
        &self,
        lo: u128,
        hi: u128,
        visit: impl FnMut(u128, V) -> bool,
    ) -> Result<bool, IoFault> {
        self.try_multi_range_scan(&[(lo, hi)], visit)
    }

    /// Collect all `(key, value)` pairs in `[lo, hi]`.
    pub fn range(&self, lo: u128, hi: u128) -> Vec<(u128, V)> {
        let mut out = Vec::new();
        self.range_scan(lo, hi, |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    // ---- fused multi-interval scans -----------------------------------------

    /// Route from the root to the leaf that would contain `key`, reusing
    /// the branch pages cached in `path` (one copy per branch level, root
    /// first). Returns the leaf's page id and its **fence key** — the
    /// exclusive upper bound of keys the leaf can hold, derived from the
    /// tightest separator along the path (`u128::MAX` when the leaf tops
    /// the key space).
    ///
    /// A level is served from its copy whenever the copy names the page
    /// the route wants, at no pool traffic at all; any other level is
    /// re-read through [`BufferPool::try_read_snapshot`] (one logical
    /// read). No pool check is needed: the copies live only as long as one
    /// [`BTree::scan_plan_leaves`] call, which holds `&self` throughout,
    /// and page contents of this tree change only under `&mut self`. A
    /// copy is therefore bit-identical to its page for its whole life,
    /// whether or not the pool has evicted the page since.
    fn descend_cached(
        &self,
        key: u128,
        path: &mut [PageSnapshot],
    ) -> Result<(PageId, u128), IoFault> {
        let mut pid = self.root;
        let mut fence = u128::MAX;
        for (depth, level) in path.iter_mut().enumerate() {
            if level.pid() == pid {
                self.scans.bump_cached();
            } else {
                self.pool.try_read_snapshot(pid, level)?;
                if depth == 0 {
                    // Only a route that had to fetch the root through the
                    // pool counts as a descent; a re-route served from the
                    // cache is the saving the counter exists to expose.
                    self.scans.bump_descent();
                }
            }
            let p = level.page();
            let j = node::branch_child_index(p, key);
            if j < node::count(p) {
                fence = node::branch_key(p, j);
            }
            pid = node::child_at(p, j);
        }
        if path.is_empty() {
            // Single-leaf tree: every route lands straight on the root.
            self.scans.bump_descent();
        }
        Ok((pid, fence))
    }

    /// Visit every entry whose key falls in the union of `intervals`
    /// (inclusive `(lo, hi)` pairs, in any order, overlap allowed),
    /// exactly once, in ascending key order. The callback returns `false`
    /// to stop early; `Ok(true)` means the scan ran to completion.
    ///
    /// This is the fused counterpart of issuing one [`BTree::range_scan`]
    /// per interval (itself this scan of a single interval): the set is
    /// sorted and coalesced once
    /// ([`crate::coalesce_intervals`]), the tree descends to the first
    /// interval, and the scan then walks the leaf sibling chain across
    /// intervals — re-descending **only when the next interval lies
    /// beyond the current leaf's fence key**, and then through a cached
    /// descent path whose still-valid upper-level pages cost no pool
    /// traffic (see [`BTree::scan_stats`]). Page for page it touches a
    /// subset of what the per-interval scans touch, so its I/O ledger is
    /// bounded by theirs; the visit sequence is identical to per-interval
    /// scans over the coalesced set.
    ///
    /// An unresolvable media fault surfaces as a typed [`IoFault`];
    /// entries already emitted stand, in order. A thin wrapper: the plan
    /// with `rows == runs` ([`ScanPlan::from_intervals`]) under an
    /// unbounded deadline, run by [`BTree::try_scan_plan`].
    pub fn try_multi_range_scan(
        &self,
        intervals: &[(u128, u128)],
        mut visit: impl FnMut(u128, V) -> bool,
    ) -> Result<bool, IoFault> {
        let unbounded = Deadline::unbounded(self.pool.clock());
        let term =
            self.try_scan_plan(&ScanPlan::from_intervals(intervals), &unbounded, |k, v| {
                Visit::next_if(visit(k, v))
            })?;
        Ok(term.is_complete())
    }

    /// Execute a [`ScanPlan`]: read the leaves its navigation runs name
    /// (one descent, then the sibling chain, re-descending through the
    /// cached path only past a fence key) and hand `visit` every entry of
    /// every page read that lies in one of the plan's emission rows —
    /// ascending, exactly once. That is every in-run entry, plus whatever
    /// else of the rows the pages in hand happen to hold. `visit` steers
    /// with a [`Visit`]; `SkipRow` drops the rest of that row, including
    /// its runs not yet navigated, so the scan never reads a page the
    /// runs alone would not have read, and often fewer.
    ///
    /// The deadline is consulted at every **leaf-page boundary** and
    /// before every entry visit — so once it expires, the scan stops
    /// within one page visit (the cooperative-cancellation epsilon the
    /// chaos harness asserts). The prefix already emitted is exact and in
    /// order; the typed [`ScanTermination`] tells the caller whether the
    /// plan ran out, the visitor stopped it, or the budget did.
    ///
    /// Entries are handed to `visit` with no page borrow or lock held.
    pub fn try_scan_plan(
        &self,
        plan: &ScanPlan,
        deadline: &Deadline,
        mut visit: impl FnMut(u128, V) -> Visit,
    ) -> Result<ScanTermination, IoFault> {
        let mut stopped = false;
        let mut wrapped = |k: u128, v: V| {
            if deadline.expired() {
                return Visit::Stop;
            }
            let verdict = visit(k, v);
            stopped |= verdict == Visit::Stop;
            verdict
        };
        // The leaf-boundary checkpoint also fires on leaves that
        // contribute *no* entries (gaps), which the per-entry check alone
        // would walk past.
        let mut checkpoint = || !deadline.expired();
        let done = self.scan_plan_leaves(plan, &mut wrapped, &mut checkpoint)?;
        Ok(if done {
            ScanTermination::Complete
        } else if stopped {
            ScanTermination::Stopped
        } else {
            // The visitor wrapper or a leaf-boundary checkpoint saw the
            // expiry.
            debug_assert!(deadline.expired());
            ScanTermination::Expired
        })
    }

    /// The leaf walk of [`BTree::try_scan_plan`]. `checkpoint` is
    /// consulted before every descent and once per leaf-page iteration;
    /// returning `false` ends the scan like a visitor's `Stop`. Returns
    /// whether the plan ran out.
    ///
    /// Leaves are read through the pool, and once entries have reached
    /// the visitor the walk never restarts. Exact because writers
    /// are excluded (`&mut self` / the shard lock) — which is also what
    /// keeps the branch copies of the descent cache current for the whole
    /// walk ([`BTree::descend_cached`]).
    fn scan_plan_leaves(
        &self,
        plan: &ScanPlan,
        visit: &mut dyn FnMut(u128, V) -> Visit,
        checkpoint: &mut dyn FnMut() -> bool,
    ) -> Result<bool, IoFault> {
        let (runs, rows) = (plan.run_count(), plan.rows());
        let vsize = Self::vsize();
        let mut path: Vec<PageSnapshot> = (1..self.height).map(|_| PageSnapshot::new()).collect();
        // `i`: first run not yet consumed; `r`: first row reaching the
        // frontier; `frontier`: smallest key not yet dealt with —
        // everything below was emitted, lies in no row, or was skipped.
        let (mut i, mut r) = (0usize, 0usize);
        let mut frontier = 0u128;
        'runs: while i < runs {
            // Checked before the descent too: a freshly expired deadline
            // must not pay height-many branch reads for a run it will
            // never emit from.
            if !checkpoint() {
                return Ok(false);
            }
            let (mut pid, fence) = self.descend_cached(plan.run(i).0, &mut path)?;
            // The fence is exact for the descended leaf; once the walk
            // moves along the sibling chain the new leaves' fences are
            // unknown (`None`) and the skip rule falls back to the last
            // key actually seen.
            let mut fence = Some(fence);
            loop {
                if !checkpoint() {
                    return Ok(false);
                }
                // Collect this leaf's in-row entries from the frontier on
                // out of one consistent page image, then emit with no
                // page borrow (and no lock) held across the callback.
                let read_leaf = |p: &Page| {
                    let n = node::count(p);
                    let mut batch: Vec<(u128, V)> = Vec::new();
                    let mut ri = r;
                    let mut idx = node::leaf_lower_bound(p, frontier.max(rows[ri].0), vsize);
                    while idx < n {
                        let k = node::leaf_key(p, idx, vsize);
                        while ri < rows.len() && rows[ri].1 < k {
                            ri += 1;
                        }
                        if ri == rows.len() {
                            break;
                        }
                        if k >= rows[ri].0 {
                            batch.push((
                                k,
                                V::read(p.bytes(node::leaf_entry_off(idx, vsize) + 16, vsize)),
                            ));
                            idx += 1;
                        } else {
                            // Jump over the intra-leaf gap to the next
                            // row's first possible entry.
                            idx = node::leaf_lower_bound(p, rows[ri].0, vsize);
                        }
                    }
                    let last_key = if n > 0 { Some(node::leaf_key(p, n - 1, vsize)) } else { None };
                    (batch, node::right_sibling(p), last_key)
                };
                let (batch, next, last_key) = self.pool.try_read(pid, read_leaf)?;
                for (k, v) in batch {
                    if k < frontier {
                        continue; // the rest of a row the visitor skipped
                    }
                    match visit(k, v) {
                        Visit::Next => {}
                        Visit::Stop => return Ok(false),
                        Visit::SkipRow => {
                            while rows[r].1 < k {
                                r += 1;
                            }
                            match rows[r].1.checked_add(1) {
                                Some(past_row) => frontier = past_row,
                                None => return Ok(true),
                            }
                        }
                    }
                }
                // This leaf settles everything up to the last key seen,
                // plus — when the fence is known — everything below it
                // (keys in the gap between the last entry and the fence
                // exist nowhere else in the tree).
                let covered = match (fence, last_key) {
                    // `f - 1` is safe: f == u128::MAX means "unbounded",
                    // already excluded by the match guard.
                    (Some(f), _) if f != u128::MAX => f - 1,
                    (_, Some(k)) => k,
                    // An empty rightmost leaf (only the root can be
                    // empty): nothing exists at all.
                    _ => u128::MAX,
                };
                let Some(past_leaf) = covered.checked_add(1) else {
                    return Ok(true);
                };
                frontier = frontier.max(past_leaf);
                // Drop the runs this leaf (or a skipped row) consumed.
                i = plan.next_run(i, frontier);
                if i == runs || !next.is_valid() {
                    // Plan exhausted — or the rightmost leaf: no key
                    // beyond it, the remaining runs are empty.
                    return Ok(true);
                }
                // Run `i` ends at or past the frontier, so its row does.
                while rows[r].1 < frontier {
                    r += 1;
                }
                // The next needed run starts at or beyond this leaf's
                // coverage. If it starts within coverage (it straddles
                // into the next leaf) or right at its edge (whatever it
                // holds begins on the very next leaf — a run cut at a row
                // boundary walks on like the uncut one), follow the
                // sibling pointer; otherwise the gap is of unknown width
                // — re-descend through the cached path (upper levels are
                // normally still valid, so the re-route costs one leaf
                // read, like a sibling step).
                if plan.run(i).0 <= past_leaf {
                    pid = next;
                    fence = None;
                } else {
                    continue 'runs;
                }
            }
        }
        Ok(true)
    }

    // ---- diagnostics -------------------------------------------------------

    /// Check every structural invariant; returns a description of the first
    /// violation. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let (root, height) = (self.root, self.height);
        let mut leaves_seen = 0usize;
        let mut entries_seen = 0usize;
        self.validate_node(
            root,
            height - 1,
            None,
            None,
            true,
            &mut leaves_seen,
            &mut entries_seen,
        )?;
        if entries_seen != self.len() {
            return Err(format!("len {} != entries found {}", self.len(), entries_seen));
        }
        if leaves_seen != self.leaf_page_count() {
            return Err(format!(
                "leaf_pages {} != leaves found {}",
                self.leaf_page_count(),
                leaves_seen
            ));
        }
        // The sibling chain must enumerate all entries in sorted order.
        let mut pid = root;
        for _ in 1..height {
            pid = self.pool.read(pid, node::leftmost_child);
        }
        let mut prev: Option<u128> = None;
        let mut chained = 0usize;
        while pid.is_valid() {
            let (keys, next) = self.pool.read(pid, |p| {
                let ks: Vec<u128> =
                    (0..node::count(p)).map(|i| node::leaf_key(p, i, Self::vsize())).collect();
                (ks, node::right_sibling(p))
            });
            for k in keys {
                if let Some(pv) = prev {
                    if pv >= k {
                        return Err(format!("sibling chain out of order: {pv} >= {k}"));
                    }
                }
                prev = Some(k);
                chained += 1;
            }
            pid = next;
        }
        if chained != self.len() {
            return Err(format!("sibling chain covers {} of {} entries", chained, self.len()));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_node(
        &self,
        pid: PageId,
        level: u32,
        lo: Option<u128>,
        hi: Option<u128>,
        is_root: bool,
        leaves: &mut usize,
        entries: &mut usize,
    ) -> Result<(), String> {
        let vsize = Self::vsize();
        let n = self.pool.read(pid, node::count);
        let leaf = self.pool.read(pid, node::is_leaf);
        if leaf != (level == 0) {
            return Err(format!("page {pid:?}: leaf flag does not match level {level}"));
        }
        let min = if is_root {
            if level == 0 {
                0
            } else {
                1
            }
        } else if level == 0 {
            Self::leaf_min()
        } else {
            Self::branch_min()
        };
        if n < min {
            return Err(format!("page {pid:?} underflow: {n} < {min}"));
        }

        let key_at = |i: usize| {
            if level == 0 {
                self.pool.read(pid, |p| node::leaf_key(p, i, vsize))
            } else {
                self.pool.read(pid, |p| node::branch_key(p, i))
            }
        };
        for i in 0..n {
            let k = key_at(i);
            if i > 0 && key_at(i - 1) >= k {
                return Err(format!("page {pid:?}: keys not strictly increasing at {i}"));
            }
            if let Some(l) = lo {
                if k < l {
                    return Err(format!("page {pid:?}: key {k} below lower bound {l}"));
                }
            }
            if let Some(h) = hi {
                if k >= h {
                    return Err(format!("page {pid:?}: key {k} not below upper bound {h}"));
                }
            }
        }

        if level == 0 {
            *leaves += 1;
            *entries += n;
            return Ok(());
        }
        for j in 0..=n {
            let child = self.pool.read(pid, |p| node::child_at(p, j));
            let clo = if j == 0 { lo } else { Some(key_at(j - 1)) };
            let chi = if j == n { hi } else { Some(key_at(j)) };
            self.validate_node(child, level - 1, clo, chi, false, leaves, entries)?;
        }
        Ok(())
    }
}

enum InsertOutcome<V> {
    /// Entry stored without structural change.
    Done,
    /// Key already existed; the old value is returned.
    Replaced(V),
    /// The child split: insert `(separator, new right page)` in the parent.
    Split(u128, PageId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> BTree<u64> {
        BTree::new(Arc::new(BufferPool::new(64)))
    }

    #[test]
    fn empty_tree() {
        let t = tree();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert_eq!(t.get(5), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn insert_get_small() {
        let mut t = tree();
        for k in [5u128, 1, 9, 3, 7] {
            assert_eq!(t.insert(k, k as u64 * 10), None);
        }
        assert_eq!(t.len(), 5);
        for k in [1u128, 3, 5, 7, 9] {
            assert_eq!(t.get(k), Some(k as u64 * 10));
        }
        assert_eq!(t.get(2), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut t = tree();
        assert_eq!(t.insert(42, 1), None);
        assert_eq!(t.insert(42, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(42), Some(2));
    }

    #[test]
    fn grows_past_many_splits() {
        let mut t = tree();
        let n = 20_000u128;
        // Insert in a shuffled-ish order (multiplicative hashing).
        for i in 0..n {
            let k = (i * 2_654_435_761) % (1 << 30);
            t.insert(k, i as u64);
        }
        assert!(t.height() >= 2, "tree must have split");
        t.validate().expect("valid after bulk insert");
        for i in 0..n {
            let k = (i * 2_654_435_761) % (1 << 30);
            assert_eq!(t.get(k), Some(i as u64));
        }
    }

    #[test]
    fn sequential_and_reverse_insertion() {
        for rev in [false, true] {
            let mut t = tree();
            let keys: Vec<u128> = if rev { (0..5000).rev().collect() } else { (0..5000).collect() };
            for &k in &keys {
                t.insert(k, k as u64);
            }
            t.validate().expect("valid");
            assert_eq!(t.len(), 5000);
            assert_eq!(t.range(0, 4999).len(), 5000);
        }
    }

    #[test]
    fn delete_simple() {
        let mut t = tree();
        for k in 0..10u128 {
            t.insert(k, k as u64);
        }
        assert_eq!(t.delete(5), Some(5));
        assert_eq!(t.delete(5), None);
        assert_eq!(t.len(), 9);
        assert_eq!(t.get(5), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn delete_everything_collapses_root() {
        let mut t = tree();
        let n = 10_000u128;
        for k in 0..n {
            t.insert(k, k as u64);
        }
        assert!(t.height() > 1);
        for k in 0..n {
            assert_eq!(t.delete(k), Some(k as u64), "key {k}");
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1, "root collapsed back to a leaf");
        t.validate().expect("valid after full deletion");
    }

    #[test]
    fn delete_reverse_order_exercises_left_merges() {
        let mut t = tree();
        let n = 10_000u128;
        for k in 0..n {
            t.insert(k, k as u64);
        }
        for k in (0..n).rev() {
            assert_eq!(t.delete(k), Some(k as u64));
            if k % 977 == 0 {
                t.validate().expect("valid during reverse deletion");
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn range_scan_inclusive_bounds_and_early_exit() {
        let mut t = tree();
        for k in (0..100u128).map(|i| i * 2) {
            t.insert(k, k as u64);
        }
        let got = t.range(10, 20);
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10, 12, 14, 16, 18, 20]);
        // Early exit after 3 entries.
        let mut seen = 0;
        let completed = t.range_scan(0, u128::MAX, |_, _| {
            seen += 1;
            seen < 3
        });
        assert!(!completed);
        assert_eq!(seen, 3);
        // Empty and reversed ranges.
        assert!(t.range(11, 11).is_empty());
        assert!(t.range(20, 10).is_empty());
    }

    #[test]
    fn range_scan_crosses_leaf_boundaries() {
        let mut t = tree();
        let n = 3_000u128;
        for k in 0..n {
            t.insert(k, k as u64);
        }
        assert!(t.leaf_page_count() > 1);
        let got = t.range(100, 2_899);
        assert_eq!(got.len(), 2_800);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn interleaved_insert_delete_stays_valid() {
        let mut t = tree();
        // Churn: insert 2 keys, delete 1, repeatedly.
        let mut next = 0u128;
        let mut alive = std::collections::BTreeSet::new();
        for round in 0..4_000 {
            t.insert(next, next as u64);
            alive.insert(next);
            next += 1;
            t.insert(next, next as u64);
            alive.insert(next);
            next += 1;
            let victim = (round * 7919) as u128 % next;
            if alive.remove(&victim) {
                assert!(t.delete(victim).is_some());
            }
        }
        assert_eq!(t.len(), alive.len());
        t.validate().expect("valid after churn");
        let all = t.range(0, u128::MAX);
        assert_eq!(all.len(), alive.len());
    }

    #[test]
    fn io_is_counted_through_the_pool() {
        let pool = Arc::new(BufferPool::new(8));
        let mut t: BTree<u64> = BTree::new(Arc::clone(&pool));
        for k in 0..20_000u128 {
            t.insert(k, 0);
        }
        pool.clear();
        pool.reset_stats();
        t.get(12_345);
        let s = pool.stats();
        // A cold point lookup reads exactly one page per level.
        assert_eq!(s.physical_reads as u32, t.height());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn behaves_like_btreemap(ops in proptest::collection::vec(
            (any::<bool>(), 0u128..500, any::<u64>()), 1..600)) {
            let mut model = BTreeMap::new();
            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(32)));
            for (is_insert, key, val) in ops {
                if is_insert {
                    prop_assert_eq!(t.insert(key, val), model.insert(key, val));
                } else {
                    prop_assert_eq!(t.delete(key), model.remove(&key));
                }
            }
            t.validate().map_err(TestCaseError::fail)?;
            prop_assert_eq!(t.len(), model.len());
            let got = t.range(0, u128::MAX);
            let want: Vec<(u128, u64)> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn range_queries_match_model(
            keys in proptest::collection::btree_set(0u128..2_000, 1..300),
            lo in 0u128..2_000,
            len in 0u128..500,
        ) {
            let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(32)));
            for &k in &keys {
                t.insert(k, k as u64);
            }
            let hi = lo.saturating_add(len);
            let got: Vec<u128> = t.range(lo, hi).into_iter().map(|(k, _)| k).collect();
            let want: Vec<u128> = keys.range(lo..=hi).copied().collect();
            prop_assert_eq!(got, want);
        }
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    #[test]
    fn works_with_single_frame_buffer() {
        // Every page access evicts the previous page: correctness must not
        // depend on residency, only performance does.
        let pool = Arc::new(BufferPool::new(1));
        let mut t: BTree<u64> = BTree::new(Arc::clone(&pool));
        for k in 0..5_000u128 {
            t.insert(k * 3, k as u64);
        }
        t.validate().expect("valid under constant eviction");
        for k in (0..5_000u128).step_by(97) {
            assert_eq!(t.get(k * 3), Some(k as u64));
        }
        for k in 0..5_000u128 {
            assert_eq!(t.delete(k * 3), Some(k as u64));
        }
        assert!(t.is_empty());
        assert!(pool.stats().physical_reads > 0, "tiny buffer must thrash");
    }

    #[test]
    fn buffer_smaller_than_height_still_correct() {
        // Height grows to >= 3 with enough keys; a 2-frame pool cannot hold
        // a full root-to-leaf path.
        let pool = Arc::new(BufferPool::new(2));
        let mut t: BTree<u64> = BTree::new(Arc::clone(&pool));
        let n = 60_000u128;
        for k in 0..n {
            t.insert(k, (k % 1_000) as u64);
        }
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.get(n / 2), Some(((n / 2) % 1_000) as u64));
        assert_eq!(t.range(100, 200).len(), 101);
    }

    #[test]
    fn dense_then_sparse_key_space() {
        // Mix a dense cluster with far-apart keys: exercises splits at both
        // ends and separator routing across magnitudes.
        let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        for k in 0..2_000u128 {
            t.insert(k, 1);
        }
        for k in 0..2_000u128 {
            t.insert(k << 100, 2); // astronomically sparse high keys
        }
        t.validate().expect("valid with mixed densities");
        assert_eq!(t.len(), 3_999, "key 0 overlaps between the two sets");
        assert_eq!(t.range(0, 1_999).len(), 2_000);
    }
}

/// Structural summary of a tree, for diagnostics and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeStats {
    /// Stored entries.
    pub entries: usize,
    /// Tree height in levels (1 = the root is a leaf).
    pub height: u32,
    /// Live leaf pages (`Nl` in the paper's cost model).
    pub leaf_pages: usize,
    /// Live pages across all levels.
    pub total_pages: usize,
    /// Average leaf occupancy in `[0, 1]`.
    pub avg_leaf_fill: f64,
}

impl<V: RecordValue> BTree<V> {
    /// O(1) structural statistics.
    pub fn stats(&self) -> TreeStats {
        let cap = Self::leaf_cap();
        let (len, leaf_pages) = (self.len(), self.leaf_page_count());
        TreeStats {
            entries: len,
            height: self.height(),
            leaf_pages,
            total_pages: self.page_count(),
            avg_leaf_fill: if leaf_pages == 0 {
                0.0
            } else {
                len as f64 / (leaf_pages * cap) as f64
            },
        }
    }
}

/// Deterministic counter of the write path — the companion of
/// [`crate::ScanStats`]: every leaf-page write of insert, delete,
/// rebalancing and bulk loading, so two runs of the same workload can be
/// compared write for write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Leaf pages written, by any path (the per-upsert write
    /// amplification metric).
    pub leaf_pages_written: u64,
}

impl WriteStats {
    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &WriteStats) -> WriteStats {
        WriteStats { leaf_pages_written: self.leaf_pages_written + other.leaf_pages_written }
    }
}

/// Shim: the four counters of the deleted latched write path, always 0.
/// `e2e/src/adapter.rs` is the only reader; the next `benchmark` PR deletes
/// this with `btree.olc_restarts` / `btree.olc_escalations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct OlcStats {
    pub write_restarts: u64,
    pub write_escalations: u64,
    pub scan_restarts: u64,
    pub scan_escalations: u64,
}

/// The tree-resident atomic half of [`WriteStats`] (snapshots take
/// `&self`, like [`crate::multiscan::ScanCounters`]).
#[derive(Default)]
pub(crate) struct WriteCounters {
    leaf_writes: AtomicU64,
}

impl WriteCounters {
    pub(crate) fn bump_leaf_writes(&self, n: u64) {
        self.leaf_writes.fetch_add(n, Ordering::Relaxed);
    }
}

impl<V: RecordValue> BTree<V> {
    /// Deterministic write-path counters (see [`WriteStats`]).
    pub fn write_stats(&self) -> WriteStats {
        WriteStats { leaf_pages_written: self.writes.leaf_writes.load(Ordering::Relaxed) }
    }

    /// Overwrite the write-path counters — the carry half of the
    /// ledger-outlives-maintenance contract, like
    /// [`BTree::restore_scan_stats`].
    pub fn restore_write_stats(&self, s: WriteStats) {
        self.writes.leaf_writes.store(s.leaf_pages_written, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    #[test]
    fn stats_reflect_structure() {
        let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        for k in 0..10_000u128 {
            t.insert(k, 0);
        }
        let s = t.stats();
        assert_eq!(s.entries, 10_000);
        assert_eq!(s.height, t.height());
        assert_eq!(s.leaf_pages, t.leaf_page_count());
        assert!(s.avg_leaf_fill > 0.4 && s.avg_leaf_fill <= 1.0, "fill {}", s.avg_leaf_fill);
    }

    #[test]
    fn bulk_loaded_tree_is_denser() {
        let keys: Vec<(u128, u64)> = (0..10_000u128).map(|k| (k, 0u64)).collect();
        let bulk = BTree::bulk_load(Arc::new(BufferPool::new(64)), keys.clone(), 1.0);
        let mut inc: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        for (k, v) in keys {
            inc.insert(k, v);
        }
        assert!(bulk.stats().avg_leaf_fill > inc.stats().avg_leaf_fill);
        assert!(bulk.stats().avg_leaf_fill > 0.95);
    }
}
