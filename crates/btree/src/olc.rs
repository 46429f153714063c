//! Optimistic-lock-coupling write path: inserts and deletes through
//! `&self`, overlapping optimistic readers instead of excluding them.
//!
//! # Protocol
//!
//! A write attempt descends exactly like an optimistic read
//! ([`crate::tree`]'s versioned descent), but records a full copy of
//! every page on the path together with its publication version. The
//! operation is then *classified* from the copies — in-place update,
//! simple insert/remove, or a structural modification (SMO) — and only
//! the pages the SMO actually rewrites are latched: the leaf first
//! (blocking, while zero latches are held), every further page try-only
//! bottom-up, releasing everything and restarting on any conflict. After
//! latching, every recorded `(page, version)` on the path is
//! re-validated; the latches then freeze the write scope, because *any*
//! concurrent operation that would move keys into or out of it must
//! write one of the latched pages.
//!
//! Readers are never blocked; they are protected by **publish order**
//! within each SMO:
//!
//! - **Split**: new right pages are written bottom-up while unreachable,
//!   then one anchor write links them (the safe node's new separator, or
//!   a new root + top swap), then the split pages shrink top-down. A
//!   reader that sees a shrunk page necessarily finds its parent — or
//!   the packed `(root, height)` top word — already changed, and
//!   restarts.
//! - **Borrow**: receiver, then parent separator, then donor shrink. The
//!   only lossy combination (old parent routing into the shrunk donor)
//!   is detected by the parent's version having changed first.
//! - **Merge**: the absorbing page first, then the parent entry removal.
//!   The absorbed page is never touched — its stale content remains
//!   correct for any reader still routed to it, and the page leaks like
//!   the locked path's merged pages do.
//!
//! An attempt that exhausts [`OLC_WRITE_RESTARTS`] escalates: it takes
//! the exclusive side of the tree's writer gate (draining every in-flight
//! writer, which all hold the shared side) and re-runs the same code with
//! validation off and blocking latches — conflict-free by construction,
//! and immune to the livelock where a tiny pool's own descent evictions
//! invalidate versions faster than they can be validated.
//!
//! # Ledger contract
//!
//! The OLC path reproduces the locked write path's
//! [`crate::WriteStats`] exactly (same `leaf_pages_written` bumps per
//! replace/insert/remove/split/borrow/merge) and the same structural
//! counters, so quiesced [`BTree::stats`]/[`BTree::validate`] agree with
//! a locked twin. The pool's [`peb_storage::IoStats`] differs by design:
//! an SMO publishes each rewritten page once from a finished image
//! (e.g. two writes for a leaf split where the locked path issues
//! three), which is why frozen-ledger benchmarks run with OLC off.

use std::sync::atomic::{AtomicU64, Ordering};

use peb_common::sched;
use peb_storage::{BufferPool, OptimisticRead, Page, PageId, PageLatch};

use crate::node::{self, branch_capacity, HEADER};
use crate::tree::{BTree, Restart};
use crate::value::RecordValue;

/// Restart budget of one OLC write operation before it escalates to the
/// exclusive side of the writer gate. Wider than the read path's budget:
/// a writer restart also releases latches other writers may be spinning
/// on, so backing off too early serializes the whole write side.
pub const OLC_WRITE_RESTARTS: usize = 8;

/// Contention counters of the OLC paths (all zero while the knob is off
/// or the tree is uncontended): restarts are optimistic attempts that
/// conflicted and retried; escalations are operations that exhausted
/// their restart budget and drained the writer gate. Relaxed atomics —
/// statistics, not synchronization.
#[derive(Default)]
pub(crate) struct OlcCounters {
    write_restarts: AtomicU64,
    write_escalations: AtomicU64,
    scan_restarts: AtomicU64,
    scan_escalations: AtomicU64,
}

impl OlcCounters {
    pub(crate) fn bump_write_restarts(&self) {
        self.write_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_write_escalations(&self) {
        self.write_escalations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_scan_restarts(&self) {
        self.scan_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_scan_escalations(&self) {
        self.scan_escalations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> OlcStats {
        OlcStats {
            write_restarts: self.write_restarts.load(Ordering::Relaxed),
            write_escalations: self.write_escalations.load(Ordering::Relaxed),
            scan_restarts: self.scan_restarts.load(Ordering::Relaxed),
            scan_escalations: self.scan_escalations.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.write_restarts.store(0, Ordering::Relaxed);
        self.write_escalations.store(0, Ordering::Relaxed);
        self.scan_restarts.store(0, Ordering::Relaxed);
        self.scan_escalations.store(0, Ordering::Relaxed);
    }
}

/// Snapshot of one tree's OLC contention counters
/// ([`BTree::olc_stats`]): how often optimistic write attempts and
/// strict chain scans conflicted and retried, and how often an operation
/// gave up and drained the writer gate. The concurrency experiment's
/// companion to [`peb_storage::LockStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OlcStats {
    /// Optimistic write attempts aborted by a version or latch conflict.
    pub write_restarts: u64,
    /// Writes that exhausted [`OLC_WRITE_RESTARTS`] and ran gated.
    pub write_escalations: u64,
    /// Strict leaf-chain scan attempts aborted by a version conflict.
    pub scan_restarts: u64,
    /// Scans that exhausted their budget and ran locked under the gate.
    pub scan_escalations: u64,
}

impl OlcStats {
    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &OlcStats) -> OlcStats {
        OlcStats {
            write_restarts: self.write_restarts + other.write_restarts,
            write_escalations: self.write_escalations + other.write_escalations,
            scan_restarts: self.scan_restarts + other.scan_restarts,
            scan_escalations: self.scan_escalations + other.scan_escalations,
        }
    }
}

/// One recorded level of a writer's descent: the page image the
/// classification ran on, the publication version that image must still
/// have when the write executes, and the child index the route took.
struct Step {
    pid: PageId,
    page: Page,
    version: u64,
    /// Child index taken at this (branch) level; 0 at the leaf.
    j: usize,
}

/// Latches held by one write attempt, deduplicated by latch-table slot:
/// two pages hashing to the same slot share one mutex, and re-locking it
/// would self-deadlock. Dropping the set releases everything (restart
/// path and success path alike).
struct LatchSet<'a> {
    pool: &'a BufferPool,
    held: Vec<PageLatch<'a>>,
}

impl<'a> LatchSet<'a> {
    fn new(pool: &'a BufferPool) -> Self {
        LatchSet { pool, held: Vec::new() }
    }

    fn holds_slot(&self, slot: usize) -> bool {
        self.held.iter().any(|l| l.slot() == slot)
    }

    /// Blocking acquire. Safe only while this set is empty (the "first
    /// latch may block, the rest must try" discipline: a thread holding
    /// latches never waits, so the thread being waited on always runs to
    /// release) — or in gated mode, where no competing latcher exists.
    fn lock(&mut self, pid: PageId) {
        if !self.holds_slot(self.pool.latch_slot(pid)) {
            self.held.push(self.pool.latch(pid));
        }
    }

    /// Try-acquire; `false` means the caller must release everything and
    /// restart.
    fn try_lock(&mut self, pid: PageId) -> bool {
        if self.holds_slot(self.pool.latch_slot(pid)) {
            return true;
        }
        match self.pool.try_latch(pid) {
            Some(l) => {
                self.held.push(l);
                true
            }
            None => false,
        }
    }

    /// Acquire `pid` in the mode of this attempt: try-only under
    /// validation (optimistic attempt), blocking under the exclusive
    /// gate.
    fn acquire(&mut self, pid: PageId, validate: bool) -> Result<(), Restart> {
        if validate {
            if !self.try_lock(pid) {
                return Err(Restart);
            }
        } else {
            self.lock(pid);
        }
        Ok(())
    }
}

/// The per-level rebalance a structural delete planned from validated
/// copies; executed as ordered page publishes only after the whole
/// cascade is latched and validated.
struct DeletePlan {
    /// `(page, image)` publishes in reader-safe order.
    ops: Vec<(PageId, Page)>,
    /// `(new_root, new_height)` when the root collapsed.
    new_top: Option<(PageId, u32)>,
    leaf_write_bumps: u64,
    leaf_pages_delta: isize,
    total_pages_delta: isize,
}

impl<V: RecordValue> BTree<V> {
    /// Switch the optimistic-lock-coupling write path on or off.
    ///
    /// With it on, [`BTree::olc_insert`] and [`BTree::olc_delete`] may be
    /// called through `&self` from many threads while readers run, and
    /// the read path flips to strict validation (see
    /// [`BTree::olc_enabled`]).
    pub fn set_olc_writes(&mut self, on: bool) {
        self.olc.store(on, Ordering::Relaxed);
    }

    /// Snapshot of this tree's OLC contention counters (restarts and
    /// gate escalations on the write and strict-scan paths).
    pub fn olc_stats(&self) -> OlcStats {
        self.olc_stats.snapshot()
    }

    /// Zero the OLC contention counters (measurement windows).
    pub fn reset_olc_stats(&self) {
        self.olc_stats.reset()
    }

    /// Insert through the OLC write path (requires
    /// [`BTree::set_olc_writes`]). Same contract as [`BTree::insert`]:
    /// returns the previous value if `key` was present.
    pub fn olc_insert(&self, key: u128, value: V) -> Option<V> {
        debug_assert!(self.olc_enabled(), "olc_insert without set_olc_writes(true)");
        for _ in 0..OLC_WRITE_RESTARTS {
            let _share = self.gate.read();
            if let Ok(prev) = self.try_olc_insert(key, &value, true) {
                return prev;
            }
            self.olc_stats.bump_write_restarts();
        }
        self.olc_stats.bump_write_escalations();
        let _drain = self.gate.write();
        match self.try_olc_insert(key, &value, false) {
            Ok(prev) => prev,
            Err(Restart) => unreachable!("gated write attempt cannot conflict"),
        }
    }

    /// Delete through the OLC write path (requires
    /// [`BTree::set_olc_writes`]). Same contract as [`BTree::delete`]:
    /// returns the removed value if `key` was present.
    pub fn olc_delete(&self, key: u128) -> Option<V> {
        debug_assert!(self.olc_enabled(), "olc_delete without set_olc_writes(true)");
        for _ in 0..OLC_WRITE_RESTARTS {
            let _share = self.gate.read();
            if let Ok(removed) = self.try_olc_delete(key, true) {
                return removed;
            }
            self.olc_stats.bump_write_restarts();
        }
        self.olc_stats.bump_write_escalations();
        let _drain = self.gate.write();
        match self.try_olc_delete(key, false) {
            Ok(removed) => removed,
            Err(Restart) => unreachable!("gated write attempt cannot conflict"),
        }
    }

    /// Root-to-leaf descent recording `(page copy, version, child index)`
    /// per level. In validating mode every read is optimistic (strict:
    /// unpublished pages restart) with the parent re-checked after each
    /// child read and the packed top re-checked after the root read; in
    /// gated mode plain locked reads suffice (no concurrent writer).
    fn descend_record(&self, key: u128, top: u64, validate: bool) -> Result<Vec<Step>, Restart> {
        let (mut pid, height) = Self::unpack_top(top);
        let mut path: Vec<Step> = Vec::with_capacity(height as usize);
        let mut prev: Option<(PageId, u64)> = None;
        for level in (0..height).rev() {
            let (page, version) = if validate {
                match self.pool.read_versioned(pid, |p| p.clone()) {
                    OptimisticRead::Hit(p, v) => (p, v),
                    OptimisticRead::Unpublished | OptimisticRead::Conflict => return Err(Restart),
                }
            } else {
                (self.pool.read(pid, |p| p.clone()), 0)
            };
            if validate {
                if let Some((ppid, pv)) = prev {
                    match self.pool.read_version(ppid) {
                        Some(v) if v == pv => {}
                        _ => return Err(Restart),
                    }
                }
                if path.is_empty() && self.top_raw() != top {
                    return Err(Restart);
                }
                prev = Some((pid, version));
            }
            let j = if level > 0 { node::branch_child_index(&page, key) } else { 0 };
            let next = if level > 0 { node::child_at(&page, j) } else { PageId::INVALID };
            path.push(Step { pid, page, version, j });
            pid = next;
        }
        Ok(path)
    }

    /// Whether every recorded `(page, version)` on the path — and the
    /// packed top — is still current. Called after latching; the latched
    /// subset is frozen from here on. Always true in gated mode.
    fn path_current(&self, path: &[Step], top: u64, validate: bool) -> bool {
        if !validate {
            return true;
        }
        if self.top_raw() != top {
            return false;
        }
        path.iter().all(|s| self.pool.read_version(s.pid) == Some(s.version))
    }

    /// Re-validate one path page right after latching it (it was checked
    /// by [`BTree::path_current`] once, but could have changed between
    /// that check and this latch; from now on the latch freezes it).
    fn latch_validated(
        &self,
        latches: &mut LatchSet<'_>,
        step: &Step,
        validate: bool,
    ) -> Result<(), Restart> {
        latches.acquire(step.pid, validate)?;
        if validate && self.pool.read_version(step.pid) != Some(step.version) {
            return Err(Restart);
        }
        Ok(())
    }

    fn try_olc_insert(&self, key: u128, value: &V, validate: bool) -> Result<Option<V>, Restart> {
        sched::probe(sched::Site::Descend);
        let vsize = Self::vsize();
        let stride = Self::stride();
        let top = self.top_raw();
        let path = self.descend_record(key, top, validate)?;
        let leaf = path.last().expect("height >= 1");
        let lp = &leaf.page;
        let n = node::count(lp);
        let i = node::leaf_lower_bound(lp, key, vsize);
        let exists = i < n && node::leaf_key(lp, i, vsize) == key;
        let mut latches = LatchSet::new(&self.pool);

        if exists {
            let old = V::read(lp.bytes(node::leaf_entry_off(i, vsize) + 16, vsize));
            latches.lock(leaf.pid);
            if !self.path_current(&path, top, validate) {
                return Err(Restart);
            }
            self.pool.write(leaf.pid, |p| {
                value.write(p.bytes_mut(node::leaf_entry_off(i, vsize) + 16, vsize));
            });
            self.writes.bump_leaf_writes(1);
            return Ok(Some(old));
        }

        if n < Self::leaf_cap() {
            latches.lock(leaf.pid);
            if !self.path_current(&path, top, validate) {
                return Err(Restart);
            }
            self.pool.write(leaf.pid, |p| {
                let off = node::leaf_entry_off(i, vsize);
                p.shift(off, off + stride, (n - i) * stride);
                p.put_u128(off, key);
                value.write(p.bytes_mut(off + 16, vsize));
                node::set_count(p, n + 1);
            });
            self.writes.bump_leaf_writes(1);
            self.add_len(1);
            return Ok(None);
        }

        // Structural: the split scope is the maximal run of full nodes
        // from the leaf upward; the first non-full ancestor (if any) is
        // the safe node that absorbs the final separator. `scope_top` is
        // the path index of the highest splitting node.
        let mut scope_top = path.len() - 1;
        while scope_top > 0 && node::count(&path[scope_top - 1].page) >= branch_capacity() {
            scope_top -= 1;
        }
        let safe = if scope_top == 0 { None } else { Some(&path[scope_top - 1]) };

        // Leaf first (blocking — zero latches held), then every ancestor
        // in scope plus the safe node, bottom-up and try-only.
        latches.lock(leaf.pid);
        for idx in (scope_top.saturating_sub(1)..path.len() - 1).rev() {
            latches.acquire(path[idx].pid, validate)?;
        }
        if !self.path_current(&path, top, validate) {
            return Err(Restart);
        }

        // Build result images bottom-up from the (now frozen) copies,
        // with the locked path's exact geometry. Leaf split first.
        let mid = n / 2;
        let right_pid = self.pool.allocate();
        let mut right_img = Page::new();
        node::init_leaf(&mut right_img);
        right_img
            .bytes_mut(HEADER, (n - mid) * stride)
            .copy_from_slice(lp.bytes(node::leaf_entry_off(mid, vsize), (n - mid) * stride));
        node::set_count(&mut right_img, n - mid);
        node::set_right_sibling(&mut right_img, node::right_sibling(lp));
        let mut left_img = lp.clone();
        node::set_count(&mut left_img, mid);
        node::set_right_sibling(&mut left_img, right_pid);
        {
            let (timg, ti, tn) =
                if i <= mid { (&mut left_img, i, mid) } else { (&mut right_img, i - mid, n - mid) };
            let off = node::leaf_entry_off(ti, vsize);
            timg.shift(off, off + stride, (tn - ti) * stride);
            timg.put_u128(off, key);
            value.write(timg.bytes_mut(off + 16, vsize));
            node::set_count(timg, tn + 1);
        }
        let mut sep = node::leaf_key(&right_img, 0, vsize);
        let mut new_right = right_pid;
        // Unreachable new pages, published bottom-up.
        let mut new_pages: Vec<(PageId, Page)> = vec![(right_pid, right_img)];
        // Shrinks of the split pages, published top-down (reverse order).
        let mut shrinks: Vec<(PageId, Page)> = vec![(leaf.pid, left_img)];
        let mut branch_splits = 0usize;

        for idx in (scope_top..path.len() - 1).rev() {
            let step = &path[idx];
            let bp = &step.page;
            let bn = node::count(bp);
            let mut entries: Vec<(u128, PageId)> = (0..bn)
                .map(|x| (node::branch_key(bp, x), node::branch_entry_child(bp, x)))
                .collect();
            entries.insert(step.j, (sep, new_right));
            let m = entries.len() / 2;
            let (up_key, up_child) = entries[m];
            let rp = self.pool.allocate();
            let mut rimg = Page::new();
            node::init_branch(&mut rimg, up_child);
            for (x, (k, c)) in entries[m + 1..].iter().enumerate() {
                node::branch_insert_entry(&mut rimg, x, *k, *c);
            }
            let mut limg = bp.clone();
            node::set_count(&mut limg, 0);
            for (x, (k, c)) in entries[..m].iter().enumerate() {
                node::branch_insert_entry(&mut limg, x, *k, *c);
            }
            new_pages.push((rp, rimg));
            shrinks.push((step.pid, limg));
            sep = up_key;
            new_right = rp;
            branch_splits += 1;
        }

        // Publish: new pages (unreachable), one anchor, shrinks top-down.
        for (pid, img) in &new_pages {
            self.pool.write(*pid, |p| p.clone_from(img));
        }
        match safe {
            Some(s) => {
                let (sj, anchor_sep, anchor_right) = (s.j, sep, new_right);
                self.pool
                    .write(s.pid, |p| node::branch_insert_entry(p, sj, anchor_sep, anchor_right));
            }
            None => {
                let (_, height) = Self::unpack_top(top);
                let old_root = path[0].pid;
                let grown = self.pool.allocate();
                self.pool.write(grown, |p| {
                    node::init_branch(p, old_root);
                    node::branch_insert_entry(p, 0, sep, new_right);
                });
                self.set_top(grown, height + 1);
                self.add_total_pages(1);
                self.log_meta();
            }
        }
        for (pid, img) in shrinks.iter().rev() {
            self.pool.write(*pid, |p| p.clone_from(img));
        }

        self.add_len(1);
        self.add_total_pages((1 + branch_splits) as isize);
        self.add_leaf_pages(1);
        self.writes.bump_leaf_writes(3);
        Ok(None)
    }

    fn try_olc_delete(&self, key: u128, validate: bool) -> Result<Option<V>, Restart> {
        sched::probe(sched::Site::Descend);
        let vsize = Self::vsize();
        let stride = Self::stride();
        let top = self.top_raw();
        let path = self.descend_record(key, top, validate)?;
        let leaf_idx = path.len() - 1;
        let leaf = &path[leaf_idx];
        let lp = &leaf.page;
        let n = node::count(lp);
        let i = node::leaf_lower_bound(lp, key, vsize);
        if !(i < n && node::leaf_key(lp, i, vsize) == key) {
            // Absence concluded from a route-validated consistent image:
            // linearizes at the leaf read, exactly like a miss of `get`.
            return Ok(None);
        }
        let old = V::read(lp.bytes(node::leaf_entry_off(i, vsize) + 16, vsize));
        let mut latches = LatchSet::new(&self.pool);

        if n > Self::leaf_min() || path.len() == 1 {
            latches.lock(leaf.pid);
            if !self.path_current(&path, top, validate) {
                return Err(Restart);
            }
            self.pool.write(leaf.pid, |p| {
                let off = node::leaf_entry_off(i, vsize);
                p.shift(off + stride, off, (n - 1 - i) * stride);
                node::set_count(p, n - 1);
            });
            self.writes.bump_leaf_writes(1);
            self.add_len(-1);
            return Ok(Some(old));
        }

        // Structural: the removal underflows the leaf. Plan the whole
        // rebalance cascade from validated copies and fresh latched
        // sibling reads, then execute the publishes in order.
        latches.lock(leaf.pid);
        if !self.path_current(&path, top, validate) {
            return Err(Restart);
        }
        let mut child_img = lp.clone();
        {
            let off = node::leaf_entry_off(i, vsize);
            child_img.shift(off + stride, off, (n - 1 - i) * stride);
            node::set_count(&mut child_img, n - 1);
        }
        let plan = self.plan_rebalance(&path, leaf_idx, child_img, top, &mut latches, validate)?;

        for (pid, img) in &plan.ops {
            self.pool.write(*pid, |p| p.clone_from(img));
        }
        if let Some((new_root, new_height)) = plan.new_top {
            self.set_top(new_root, new_height);
            self.log_meta();
        }
        self.writes.bump_leaf_writes(plan.leaf_write_bumps);
        self.add_len(-1);
        self.add_leaf_pages(plan.leaf_pages_delta);
        self.add_total_pages(plan.total_pages_delta);
        Ok(Some(old))
    }

    /// Plan the borrow/merge cascade for a delete whose leaf underflowed.
    /// `child_img` is the latched, validated child's post-removal image;
    /// `level_idx` its path index. Latches the parent and the siblings it
    /// needs level by level (try-only under validation), re-validating
    /// each path page as it is latched; sibling content is read fresh
    /// under its latch (it was never on the descent path). Decision order
    /// matches the locked `fix_child` exactly: borrow-left, borrow-right,
    /// merge-left, merge-right.
    fn plan_rebalance(
        &self,
        path: &[Step],
        leaf_level: usize,
        mut child_img: Page,
        top: u64,
        latches: &mut LatchSet<'_>,
        validate: bool,
    ) -> Result<DeletePlan, Restart> {
        let vsize = Self::vsize();
        let stride = Self::stride();
        let (_, height) = Self::unpack_top(top);
        let mut plan = DeletePlan {
            ops: Vec::new(),
            new_top: None,
            leaf_write_bumps: 1, // the removal itself
            leaf_pages_delta: 0,
            total_pages_delta: 0,
        };
        let mut level_idx = leaf_level;
        loop {
            let child = &path[level_idx];
            let parent = &path[level_idx - 1];
            self.latch_validated(latches, parent, validate)?;
            let pp = &parent.page;
            let pj = parent.j;
            let pcount = node::count(pp);
            let at_leaf = level_idx == leaf_level;
            let min = if at_leaf { Self::leaf_min() } else { Self::branch_min() };

            // Sibling ids come from the frozen parent image; their
            // content is only authoritative once latched.
            let fresh =
                |pid: PageId, latches: &mut LatchSet<'_>| -> Result<Option<Page>, Restart> {
                    latches.acquire(pid, validate)?;
                    Ok(Some(self.pool.read(pid, |p| p.clone())))
                };
            let left = if pj > 0 {
                let lpid = node::child_at(pp, pj - 1);
                fresh(lpid, latches)?.map(|img| (lpid, img))
            } else {
                None
            };
            let right = if pj < pcount {
                let rpid = node::child_at(pp, pj + 1);
                fresh(rpid, latches)?.map(|img| (rpid, img))
            } else {
                None
            };

            if let Some((lpid, limg)) = &left {
                if node::count(limg) > min {
                    let (receiver, parent_img, donor) = if at_leaf {
                        borrow_leaf_left(&child_img, limg, pp, pj, vsize, stride)
                    } else {
                        borrow_branch_left(&child_img, limg, pp, pj)
                    };
                    plan.ops.push((child.pid, receiver));
                    plan.ops.push((parent.pid, parent_img));
                    plan.ops.push((*lpid, donor));
                    if at_leaf {
                        plan.leaf_write_bumps += 2;
                    }
                    return Ok(plan);
                }
            }
            if let Some((rpid, rimg)) = &right {
                if node::count(rimg) > min {
                    let (receiver, parent_img, donor) = if at_leaf {
                        borrow_leaf_right(&child_img, rimg, pp, pj, vsize, stride)
                    } else {
                        borrow_branch_right(&child_img, rimg, pp, pj)
                    };
                    plan.ops.push((child.pid, receiver));
                    plan.ops.push((parent.pid, parent_img));
                    plan.ops.push((*rpid, donor));
                    if at_leaf {
                        plan.leaf_write_bumps += 2;
                    }
                    return Ok(plan);
                }
            }

            // Merge. Left-preferring like `fix_child`; the pair's left
            // page absorbs and the right page leaks untouched.
            let (absorb_pid, absorb_img, sep_idx) = if let Some((lpid, limg)) = &left {
                let img = if at_leaf {
                    merge_leaf(limg, &child_img, vsize, stride)
                } else {
                    merge_branch(limg, &child_img, node::branch_key(pp, pj - 1))
                };
                (*lpid, img, pj - 1)
            } else if let Some((_rpid, rimg)) = &right {
                let img = if at_leaf {
                    merge_leaf(&child_img, rimg, vsize, stride)
                } else {
                    merge_branch(&child_img, rimg, node::branch_key(pp, pj))
                };
                (child.pid, img, pj)
            } else {
                // A root child with no siblings cannot underflow
                // structurally; the root collapse below handles it.
                unreachable!("non-root child with no siblings");
            };
            let mut parent_img = pp.clone();
            node::branch_remove_entry(&mut parent_img, sep_idx);
            plan.ops.push((absorb_pid, absorb_img.clone()));
            plan.ops.push((parent.pid, parent_img.clone()));
            if at_leaf {
                plan.leaf_write_bumps += 1;
                plan.leaf_pages_delta -= 1;
            }
            plan.total_pages_delta -= 1;

            if level_idx - 1 == 0 {
                // Parent is the root: collapse it once it holds no
                // separator (its sole remaining child is the absorber).
                if pcount - 1 == 0 {
                    plan.new_top = Some((absorb_pid, height - 1));
                    plan.total_pages_delta -= 1;
                }
                return Ok(plan);
            }
            if pcount > Self::branch_min() {
                return Ok(plan);
            }
            // The parent itself underflowed: it becomes the child of the
            // next round, starting from its post-removal image.
            child_img = parent_img;
            level_idx -= 1;
        }
    }
}

// ---- rebalance image builders (mirror the locked write sequences) ------

/// Leaf borrow from the left sibling: `(receiver, parent, donor)` images,
/// published in that order.
fn borrow_leaf_left(
    child: &Page,
    l: &Page,
    parent: &Page,
    pj: usize,
    vsize: usize,
    stride: usize,
) -> (Page, Page, Page) {
    let ln = node::count(l);
    let entry = l.bytes(node::leaf_entry_off(ln - 1, vsize), stride).to_vec();
    let mut receiver = child.clone();
    let cn = node::count(&receiver);
    receiver.shift(HEADER, HEADER + stride, cn * stride);
    receiver.bytes_mut(HEADER, stride).copy_from_slice(&entry);
    node::set_count(&mut receiver, cn + 1);
    let mut pimg = parent.clone();
    let new_sep = u128::from_le_bytes(entry[..16].try_into().unwrap());
    node::set_branch_key(&mut pimg, pj - 1, new_sep);
    let mut donor = l.clone();
    node::set_count(&mut donor, ln - 1);
    (receiver, pimg, donor)
}

/// Leaf borrow from the right sibling.
fn borrow_leaf_right(
    child: &Page,
    r: &Page,
    parent: &Page,
    pj: usize,
    vsize: usize,
    stride: usize,
) -> (Page, Page, Page) {
    let rn = node::count(r);
    let entry = r.bytes(HEADER, stride).to_vec();
    let mut receiver = child.clone();
    let cn = node::count(&receiver);
    receiver.bytes_mut(node::leaf_entry_off(cn, vsize), stride).copy_from_slice(&entry);
    node::set_count(&mut receiver, cn + 1);
    let mut pimg = parent.clone();
    // The donor's post-removal first key: its current second entry.
    node::set_branch_key(&mut pimg, pj, node::leaf_key(r, 1, vsize));
    let mut donor = r.clone();
    donor.shift(HEADER + stride, HEADER, (rn - 1) * stride);
    node::set_count(&mut donor, rn - 1);
    (receiver, pimg, donor)
}

/// Branch borrow from the left sibling (rotation through the parent
/// separator).
fn borrow_branch_left(child: &Page, l: &Page, parent: &Page, pj: usize) -> (Page, Page, Page) {
    let ln = node::count(l);
    let (l_last_key, l_last_child) =
        (node::branch_key(l, ln - 1), node::branch_entry_child(l, ln - 1));
    let sep = node::branch_key(parent, pj - 1);
    let mut receiver = child.clone();
    let c_leftmost = node::leftmost_child(&receiver);
    node::branch_insert_entry(&mut receiver, 0, sep, c_leftmost);
    node::set_leftmost_child(&mut receiver, l_last_child);
    let mut pimg = parent.clone();
    node::set_branch_key(&mut pimg, pj - 1, l_last_key);
    let mut donor = l.clone();
    node::branch_remove_entry(&mut donor, ln - 1);
    (receiver, pimg, donor)
}

/// Branch borrow from the right sibling.
fn borrow_branch_right(child: &Page, r: &Page, parent: &Page, pj: usize) -> (Page, Page, Page) {
    let sep = node::branch_key(parent, pj);
    let (r_first_key, r_leftmost) = (node::branch_key(r, 0), node::leftmost_child(r));
    let r_first_child = node::branch_entry_child(r, 0);
    let mut receiver = child.clone();
    let cn = node::count(&receiver);
    node::branch_insert_entry(&mut receiver, cn, sep, r_leftmost);
    let mut pimg = parent.clone();
    node::set_branch_key(&mut pimg, pj, r_first_key);
    let mut donor = r.clone();
    node::set_leftmost_child(&mut donor, r_first_child);
    node::branch_remove_entry(&mut donor, 0);
    (receiver, pimg, donor)
}

/// Left leaf of a merging pair absorbing the right one.
fn merge_leaf(l: &Page, r: &Page, vsize: usize, stride: usize) -> Page {
    let rn = node::count(r);
    let mut img = l.clone();
    let ln = node::count(&img);
    img.bytes_mut(node::leaf_entry_off(ln, vsize), rn * stride)
        .copy_from_slice(r.bytes(HEADER, rn * stride));
    node::set_count(&mut img, ln + rn);
    node::set_right_sibling(&mut img, node::right_sibling(r));
    img
}

/// Left branch of a merging pair absorbing the right one through the
/// parent separator.
fn merge_branch(l: &Page, r: &Page, sep: u128) -> Page {
    let mut img = l.clone();
    let mut n = node::count(&img);
    node::branch_insert_entry(&mut img, n, sep, node::leftmost_child(r));
    n += 1;
    for x in 0..node::count(r) {
        node::branch_insert_entry(
            &mut img,
            n,
            node::branch_key(r, x),
            node::branch_entry_child(r, x),
        );
        n += 1;
    }
    img
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use peb_storage::BufferPool;

    use super::*;

    /// A fat record shrinking leaves to 15 entries, so small key ranges
    /// already force splits, borrows, merges, and root transitions.
    #[derive(Clone, Debug, PartialEq)]
    pub(super) struct Fat(pub(super) u64);

    impl RecordValue for Fat {
        const SIZE: usize = 240;

        fn write(&self, buf: &mut [u8]) {
            buf[..8].copy_from_slice(&self.0.to_le_bytes());
            buf[8..].fill(0xAB);
        }

        fn read(buf: &[u8]) -> Self {
            Fat(u64::from_le_bytes(buf[..8].try_into().unwrap()))
        }
    }

    fn olc_tree<V: RecordValue>() -> BTree<V> {
        let mut t = BTree::new(Arc::new(BufferPool::new(64)));
        t.set_olc_writes(true);
        t
    }

    #[test]
    fn olc_insert_get_delete_roundtrip() {
        let t: BTree<u64> = olc_tree();
        assert_eq!(t.olc_insert(7, 70), None);
        assert_eq!(t.olc_insert(7, 71), Some(70));
        assert_eq!(t.get(7), Some(71));
        assert_eq!(t.olc_delete(7), Some(71));
        assert_eq!(t.olc_delete(7), None);
        assert!(t.is_empty());
        t.validate().expect("valid");
    }

    #[test]
    fn olc_split_merge_small_leaves_match_locked_twin() {
        // Fat records: leaves split after 15 entries, so 120 keys walk
        // through plenty of leaf splits; the deletions then run borrows,
        // merges, and the root collapse. The locked twin defines every
        // answer and every ledger value.
        let olc: BTree<Fat> = olc_tree();
        let mut locked: BTree<Fat> = BTree::new(Arc::new(BufferPool::new(64)));
        for i in 0..120u128 {
            let k = (i * 37) % 120;
            assert_eq!(olc.olc_insert(k, Fat(i as u64)), locked.insert(k, Fat(i as u64)));
        }
        assert!(olc.height() >= 2, "must have split");
        olc.validate().expect("valid after inserts");
        assert_eq!(olc.len(), locked.len());
        assert_eq!(olc.height(), locked.height());
        assert_eq!(olc.leaf_page_count(), locked.leaf_page_count());
        assert_eq!(olc.page_count(), locked.page_count());
        assert_eq!(olc.write_stats(), locked.write_stats());
        for i in 0..120u128 {
            let k = (i * 53) % 150;
            assert_eq!(olc.olc_delete(k), locked.delete(k), "delete({k})");
            if i % 13 == 0 {
                olc.validate().expect("valid during deletions");
            }
        }
        assert_eq!(olc.len(), locked.len());
        assert_eq!(olc.height(), locked.height());
        assert_eq!(olc.write_stats(), locked.write_stats());
        olc.validate().expect("valid after deletions");
    }

    #[test]
    fn olc_deep_tree_cascaded_splits_and_collapse() {
        // 4000 fat records push past 200 leaves: the tree grows to
        // height 3 through cascaded branch splits (root grow twice), and
        // full deletion walks it back down through branch merges and two
        // root collapses.
        let olc: BTree<Fat> = olc_tree();
        let mut locked: BTree<Fat> = BTree::new(Arc::new(BufferPool::new(64)));
        let n = 4000u128;
        for i in 0..n {
            let k = (i * 2_654_435_761) % (1 << 20);
            assert_eq!(
                olc.olc_insert(k, Fat(i as u64)).is_some(),
                locked.insert(k, Fat(i as u64)).is_some()
            );
        }
        assert!(olc.height() >= 3, "height {}", olc.height());
        assert_eq!(olc.height(), locked.height());
        assert_eq!(olc.leaf_page_count(), locked.leaf_page_count());
        assert_eq!(olc.page_count(), locked.page_count());
        assert_eq!(olc.write_stats(), locked.write_stats());
        olc.validate().expect("valid at full size");
        for i in 0..n {
            let k = (i * 2_654_435_761) % (1 << 20);
            assert_eq!(olc.olc_delete(k).is_some(), locked.delete(k).is_some());
        }
        assert!(olc.is_empty());
        assert_eq!(olc.height(), 1, "root collapsed back to a leaf");
        assert_eq!(olc.height(), locked.height());
        assert_eq!(olc.write_stats(), locked.write_stats());
        olc.validate().expect("valid after full deletion");
    }

    #[test]
    fn olc_scans_match_locked_scans_descent_for_descent() {
        let olc: BTree<u64> = olc_tree();
        let mut locked: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        for k in 0..5_000u128 {
            olc.olc_insert(k * 3, k as u64);
            locked.insert(k * 3, k as u64);
        }
        for (lo, hi) in [(0u128, 14_997), (1_000, 2_000), (14_000, 20_000), (9, 9)] {
            assert_eq!(olc.range(lo, hi), locked.range(lo, hi), "range({lo},{hi})");
        }
        // The strict chain scan costs exactly one descent per range_scan,
        // like the relaxed walk.
        assert_eq!(olc.scan_stats().descents, locked.scan_stats().descents);
        // Multi-range results agree too (the OLC side forgoes the fused
        // descent cache, so only the emission is compared).
        let ivs = [(0u128, 300), (600, 900), (7_000, 7_600), (14_900, 15_000)];
        let mut a = Vec::new();
        let mut b = Vec::new();
        olc.try_multi_range_scan(&ivs, |k, v| {
            a.push((k, v));
            true
        })
        .unwrap();
        locked
            .try_multi_range_scan(&ivs, |k, v| {
                b.push((k, v));
                true
            })
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn olc_concurrent_writers_and_readers_smoke() {
        // 4 writers insert interleaved key ranges while 2 readers issue
        // gets and range scans; afterwards the quiesced tree must agree
        // with a locked twin and validate structurally.
        use std::sync::atomic::{AtomicBool, Ordering};
        let t: Arc<BTree<u64>> = Arc::new(olc_tree());
        let done = Arc::new(AtomicBool::new(false));
        let n_per = 2_000u128;
        let writers: Vec<_> = (0..4u128)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..n_per {
                        let k = (i * 4 + w) * 7;
                        t.olc_insert(k, (w * 1_000_000 + i) as u64);
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u128)
            .map(|r| {
                let t = Arc::clone(&t);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        t.get((r * 997) % (n_per * 28));
                        t.range_scan(r * 100, r * 100 + 5_000, |_, v| {
                            sum = sum.wrapping_add(v);
                            true
                        });
                    }
                    sum
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(t.len(), (n_per * 4) as usize);
        t.validate().expect("valid after concurrent churn");
        let mut locked: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        for w in 0..4u128 {
            for i in 0..n_per {
                locked.insert((i * 4 + w) * 7, (w * 1_000_000 + i) as u64);
            }
        }
        assert_eq!(t.range(0, u128::MAX), locked.range(0, u128::MAX));
        assert_eq!(t.height(), locked.height());
    }
}

#[cfg(test)]
mod proptests {
    use std::sync::Arc;

    use peb_storage::BufferPool;
    use proptest::prelude::*;

    use super::tests::Fat;
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Random op sequences through the OLC write path against the
        /// locked `&mut` reference: identical answers, identical
        /// structure, identical write ledger, and scan parity — on fat
        /// records whose 15-entry leaves make every sequence structural.
        #[test]
        fn olc_random_ops_match_locked_reference(ops in proptest::collection::vec(
            (any::<bool>(), 0u128..120, any::<u64>()), 1..400)) {
            let mut olc: BTree<Fat> = BTree::new(Arc::new(BufferPool::new(64)));
            olc.set_olc_writes(true);
            let mut locked: BTree<Fat> = BTree::new(Arc::new(BufferPool::new(64)));
            for (is_insert, key, val) in ops {
                if is_insert {
                    prop_assert_eq!(olc.olc_insert(key, Fat(val)), locked.insert(key, Fat(val)));
                } else {
                    prop_assert_eq!(olc.olc_delete(key), locked.delete(key));
                }
            }
            olc.validate().expect("valid");
            prop_assert_eq!(olc.len(), locked.len());
            prop_assert_eq!(olc.height(), locked.height());
            prop_assert_eq!(olc.leaf_page_count(), locked.leaf_page_count());
            prop_assert_eq!(olc.page_count(), locked.page_count());
            prop_assert_eq!(olc.write_stats(), locked.write_stats());
            for probe in 0..120u128 {
                prop_assert_eq!(olc.get(probe), locked.get(probe));
            }
            prop_assert_eq!(olc.range(0, u128::MAX), locked.range(0, u128::MAX));
            prop_assert_eq!(olc.scan_stats(), locked.scan_stats());
        }
    }
}
