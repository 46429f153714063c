//! B-epsilon-style message buffering for the write path.
//!
//! With buffered writes enabled ([`BTree::set_buffered_writes`]), upserts
//! and deletes no longer descend to a leaf. Each becomes a *message* —
//! `(key, sequence number, op, payload)` — appended to a **chain of
//! sidecar message pages** hung off the root node (the highest buffered
//! level). When the root chain fills, its messages are either pushed one
//! level down into per-child chains of the root's children (`height >= 3`,
//! a *spill*) or applied to the leaves in one batched *flush* that reuses
//! the sorted-merge machinery of [`BTree::merge_sorted`]: drain every
//! chain, compact to the newest message per key (last-write-wins by
//! sequence number), and either apply per key (small residue) or rebuild
//! the leaf level bottom-up (large residue).
//!
//! Message pages live in the same buffer pool as tree pages, so buffering
//! is measured in exactly the same unit as the rest of the tree: logical
//! and physical page accesses. The saving is structural — appending costs
//! one page write to the chain tail instead of a root-to-leaf descent plus
//! a leaf read-modify-write, and a flush writes each leaf once for many
//! messages instead of once per message.
//!
//! # Reads
//!
//! Point and range reads stay correct while messages are in flight:
//! [`BTree::get`], [`BTree::range_scan`] and [`BTree::multi_range_scan`]
//! overlay the buffered messages (newest per key) on the leaf contents —
//! puts interleave in key order, deletes suppress leaf entries. With no
//! pending messages the overlay machinery is completely bypassed, so the
//! unbuffered read path (and its frozen I/O ledger) is untouched.
//!
//! # Contract
//!
//! While buffering is on, writers must use the `buffered_*` entry points
//! (plain [`BTree::insert`]/[`BTree::delete`] would be ordered *before*
//! in-flight messages for the same key; both debug-assert an empty
//! buffer). [`BTree::set_buffered_writes`]`(false)` flushes everything
//! pending, after which the tree is byte-for-byte an ordinary B+-tree.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use peb_storage::{CrashPoint, PageId, PAGE_SIZE};

use crate::bulk::{MERGE_FILL, MERGE_REBUILD_RATIO};
use crate::multiscan::{coalesce_intervals, ScanPlan, Visit};
use crate::node;
use crate::tree::BTree;
use crate::value::RecordValue;

/// Message op: insert-or-replace the key's record.
pub const OP_PUT: u8 = 0;
/// Message op: remove the key.
pub const OP_DEL: u8 = 1;
/// Message op: a put that re-homes a record under a new key (the cheap
/// carrier of a sequence-value re-key; behaves exactly like [`OP_PUT`],
/// tallied separately in [`WriteStats::rekey_messages`]).
pub const OP_REKEY: u8 = 2;

/// Byte offset of a message page's entry count (`u16`).
const OFF_MSG_COUNT: usize = 0;
/// Byte offset of a message page's next-page link (`u32`, stored as
/// `pid + 1` so zero means "end of chain").
const OFF_MSG_NEXT: usize = 4;
/// First byte of a message page's entry array.
const MSG_HEADER: usize = 8;

/// Pages a single chain may grow to before the buffer overflows (spill or
/// flush). Sixteen 4 KB pages hold ~1200 moving-object messages — enough
/// to amortize a flush over a whole shard's leaf level (a flush that
/// touches every leaf once costs roughly the same no matter how many
/// messages it drains, so deeper chains buy a proportionally cheaper
/// per-message flush; past the point where a flush touches every leaf
/// anyway, deeper chains only add overlay-scan cost to reads).
const MAX_CHAIN_PAGES: usize = 16;

/// One buffered message, decoded.
#[derive(Clone)]
struct Msg<V> {
    key: u128,
    seq: u64,
    op: u8,
    /// `None` exactly when `op == OP_DEL`.
    val: Option<V>,
}

/// In-memory metadata of one sidecar message chain (the pages themselves
/// live in the buffer pool; the owning node stores the head pointer at
/// [`node::OFF_CHAIN`]).
#[derive(Clone, Copy)]
pub(crate) struct Chain {
    head: PageId,
    tail: PageId,
    /// Messages in the tail page (earlier pages are full).
    tail_count: usize,
    /// Pages in the chain.
    pages: usize,
}

/// The message-buffer half of a [`BTree`]: per-node chain metadata plus
/// the monotonic sequence counter that makes last-write-wins total.
#[derive(Default)]
pub(crate) struct MsgState {
    pub(crate) buffered: bool,
    pub(crate) chains: HashMap<PageId, Chain>,
    /// Buffered messages across all chains.
    pub(crate) pending: usize,
    /// Next message sequence number (never reset; survives rebuilds).
    pub(crate) seq: u64,
}

/// Deterministic counters of the buffered write path — the companion of
/// [`crate::ScanStats`] for the ingestion experiment. `leaf_pages_written`
/// is counted in **both** modes (every leaf-page write of insert, delete,
/// rebalancing, bulk loading and flushing), so a buffered and an
/// unbuffered run of the same workload can be compared write for write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Messages appended to a buffer chain (puts, deletes and re-keys).
    pub messages_buffered: u64,
    /// The subset of `messages_buffered` that were [`OP_REKEY`] puts.
    pub rekey_messages: u64,
    /// Full buffer flushes (every chain drained and applied to leaves).
    pub buffer_flushes: u64,
    /// Root-chain spills into per-child chains one level down.
    pub buffer_spills: u64,
    /// Leaf pages written, by any path (the per-upsert write
    /// amplification metric of the ingest benchmark).
    pub leaf_pages_written: u64,
}

impl WriteStats {
    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &WriteStats) -> WriteStats {
        WriteStats {
            messages_buffered: self.messages_buffered + other.messages_buffered,
            rekey_messages: self.rekey_messages + other.rekey_messages,
            buffer_flushes: self.buffer_flushes + other.buffer_flushes,
            buffer_spills: self.buffer_spills + other.buffer_spills,
            leaf_pages_written: self.leaf_pages_written + other.leaf_pages_written,
        }
    }
}

/// The tree-resident atomic half of [`WriteStats`] (snapshots take
/// `&self`, like [`crate::multiscan::ScanCounters`]).
#[derive(Default)]
pub(crate) struct WriteCounters {
    messages: AtomicU64,
    rekeys: AtomicU64,
    flushes: AtomicU64,
    spills: AtomicU64,
    leaf_writes: AtomicU64,
}

impl WriteCounters {
    pub(crate) fn bump_msg(&self, op: u8) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        if op == OP_REKEY {
            self.rekeys.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn bump_flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_spill(&self) {
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_leaf_writes(&self, n: u64) {
        self.leaf_writes.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> WriteStats {
        WriteStats {
            messages_buffered: self.messages.load(Ordering::Relaxed),
            rekey_messages: self.rekeys.load(Ordering::Relaxed),
            buffer_flushes: self.flushes.load(Ordering::Relaxed),
            buffer_spills: self.spills.load(Ordering::Relaxed),
            leaf_pages_written: self.leaf_writes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn restore(&self, s: WriteStats) {
        self.messages.store(s.messages_buffered, Ordering::Relaxed);
        self.rekeys.store(s.rekey_messages, Ordering::Relaxed);
        self.flushes.store(s.buffer_flushes, Ordering::Relaxed);
        self.spills.store(s.buffer_spills, Ordering::Relaxed);
        self.leaf_writes.store(s.leaf_pages_written, Ordering::Relaxed);
    }
}

impl<V: RecordValue> BTree<V> {
    /// Bytes of one encoded message: key, sequence number, op tag, value.
    const fn msg_stride() -> usize {
        16 + 8 + 1 + V::SIZE
    }

    /// Messages one 4 KB chain page holds.
    const fn chain_page_cap() -> usize {
        (PAGE_SIZE - MSG_HEADER) / Self::msg_stride()
    }

    // ---- knob and ledger ---------------------------------------------------

    /// Turn buffered writes on or off. Turning them **off** first flushes
    /// every pending message, so the tree afterwards is an ordinary
    /// B+-tree with nothing in flight. Turning them on costs nothing
    /// until the first `buffered_*` call.
    pub fn set_buffered_writes(&mut self, on: bool) {
        if on {
            assert!(!self.olc_enabled(), "buffered writes and OLC writes are mutually exclusive");
        }
        if !on {
            self.flush_messages();
        }
        self.msgs.buffered = on;
    }

    /// Whether `buffered_*` writes append messages instead of descending.
    pub fn buffered_writes(&self) -> bool {
        self.msgs.buffered
    }

    /// Buffered messages currently awaiting a flush.
    pub fn pending_messages(&self) -> usize {
        self.msgs.pending
    }

    /// Deterministic write-path counters (see [`WriteStats`]).
    pub fn write_stats(&self) -> WriteStats {
        self.writes.snapshot()
    }

    /// Zero the write-path counters (measurement windows).
    pub fn reset_write_stats(&self) {
        self.writes.restore(WriteStats::default());
    }

    /// Overwrite the write-path counters — the carry half of the
    /// ledger-outlives-maintenance contract, like
    /// [`BTree::restore_scan_stats`].
    pub fn restore_write_stats(&self, s: WriteStats) {
        self.writes.restore(s);
    }

    // ---- buffered write entry points ---------------------------------------

    /// Insert-or-replace through the message buffer: one page write to the
    /// root chain's tail instead of a root-to-leaf descent. Falls through
    /// to [`BTree::insert`] when buffering is off.
    pub fn buffered_insert(&mut self, key: u128, value: V) {
        if !self.msgs.buffered {
            self.insert(key, value);
            return;
        }
        self.append_message(key, OP_PUT, Some(value));
    }

    /// Delete through the message buffer (a tombstone message). Falls
    /// through to [`BTree::delete`] when buffering is off.
    pub fn buffered_delete(&mut self, key: u128) {
        if !self.msgs.buffered {
            self.delete(key);
            return;
        }
        self.append_message(key, OP_DEL, None);
    }

    /// Move a record from `old_key` to `new_key` through the message
    /// buffer: a tombstone plus an [`OP_REKEY`] put, appended **as one
    /// batch** — one page touch instead of a delete descent plus an
    /// insert descent. Falls through to delete + insert when buffering is
    /// off.
    pub fn buffered_rekey(&mut self, old_key: u128, new_key: u128, value: V) {
        if !self.msgs.buffered {
            self.delete(old_key);
            self.insert(new_key, value);
            return;
        }
        self.append_message_pair(old_key, (new_key, OP_REKEY, value));
    }

    /// Move-and-replace through the message buffer: the tombstone for
    /// `old_key` and the put for `key` land in **one** chain append — one
    /// page touch for the whole upsert, which is where the buffered
    /// ingestion path earns its throughput (the index's single-upsert
    /// fast path calls this whenever an object stays in its shard). Falls
    /// through to delete + insert when buffering is off.
    pub fn buffered_upsert(&mut self, old_key: u128, key: u128, value: V) {
        if !self.msgs.buffered {
            self.delete(old_key);
            self.insert(key, value);
            return;
        }
        self.append_message_pair(old_key, (key, OP_PUT, value));
    }

    /// Insert-or-replace a whole sorted run through the message buffer in
    /// as few page touches as the chain's tail pages allow (the buffered
    /// counterpart of [`BTree::merge_sorted`]'s batched entry). Falls
    /// through to `merge_sorted` when buffering is off.
    pub fn buffered_insert_batch(&mut self, entries: Vec<(u128, V)>) {
        if !self.msgs.buffered {
            self.merge_sorted(entries);
            return;
        }
        self.maybe_overflow();
        let root = self.root();
        let msgs: Vec<Msg<V>> = entries
            .into_iter()
            .map(|(key, v)| {
                let seq = self.msgs.seq;
                self.msgs.seq += 1;
                self.writes.bump_msg(OP_PUT);
                Msg { key, seq, op: OP_PUT, val: Some(v) }
            })
            .collect();
        self.chain_append_batch(root, &msgs);
    }

    fn append_message(&mut self, key: u128, op: u8, val: Option<V>) {
        self.maybe_overflow();
        let seq = self.msgs.seq;
        self.msgs.seq += 1;
        self.writes.bump_msg(op);
        let root = self.root();
        self.chain_append_batch(root, &[Msg { key, seq, op, val }]);
    }

    /// Append a tombstone and a put with consecutive sequence numbers in
    /// one chain write (the tombstone first, so last-write-wins keeps the
    /// put even when both name the same key).
    fn append_message_pair(&mut self, del_key: u128, put: (u128, u8, V)) {
        self.maybe_overflow();
        let seq = self.msgs.seq;
        self.msgs.seq += 2;
        self.writes.bump_msg(OP_DEL);
        self.writes.bump_msg(put.1);
        let root = self.root();
        self.chain_append_batch(
            root,
            &[
                Msg { key: del_key, seq, op: OP_DEL, val: None },
                Msg { key: put.0, seq: seq + 1, op: put.1, val: Some(put.2) },
            ],
        );
    }

    // ---- chain plumbing ----------------------------------------------------

    /// Append messages to `owner`'s chain, filling the tail page and
    /// growing the chain as needed. One page write per (partially) filled
    /// page, not per message.
    fn chain_append_batch(&mut self, owner: PageId, msgs: &[Msg<V>]) {
        let cap = Self::chain_page_cap();
        let stride = Self::msg_stride();
        let mut i = 0usize;
        while i < msgs.len() {
            let room = match self.msgs.chains.get(&owner) {
                Some(c) => cap - c.tail_count,
                None => 0,
            };
            if room == 0 {
                self.chain_new_tail(owner);
                continue;
            }
            let take = room.min(msgs.len() - i);
            let (tail, start) = {
                let c = &self.msgs.chains[&owner];
                (c.tail, c.tail_count)
            };
            self.pool.write_chain(tail, |p| {
                for (j, m) in msgs[i..i + take].iter().enumerate() {
                    let off = MSG_HEADER + (start + j) * stride;
                    p.put_u128(off, m.key);
                    p.put_u64(off + 16, m.seq);
                    p.put_u8(off + 24, m.op);
                    if let Some(v) = &m.val {
                        v.write(p.bytes_mut(off + 25, V::SIZE));
                    }
                }
                p.put_u16(OFF_MSG_COUNT, (start + take) as u16);
            });
            let c = self.msgs.chains.get_mut(&owner).expect("chain exists");
            c.tail_count += take;
            i += take;
        }
        self.msgs.pending += msgs.len();
    }

    /// Start `owner`'s chain, or link a fresh tail page onto it.
    fn chain_new_tail(&mut self, owner: PageId) {
        let pid = self.pool.allocate();
        self.add_total_pages(1);
        self.pool.write_chain(pid, |p| {
            p.put_u16(OFF_MSG_COUNT, 0);
            p.put_u32(OFF_MSG_NEXT, 0);
        });
        if let std::collections::hash_map::Entry::Vacant(e) = self.msgs.chains.entry(owner) {
            e.insert(Chain { head: pid, tail: pid, tail_count: 0, pages: 1 });
            self.pool.write(owner, |p| node::set_chain_head(p, pid));
        } else {
            let prev = {
                let c = self.msgs.chains.get_mut(&owner).expect("checked");
                let prev = c.tail;
                c.tail = pid;
                c.tail_count = 0;
                c.pages += 1;
                prev
            };
            self.pool.write_chain(prev, |p| p.put_u32(OFF_MSG_NEXT, pid.0 + 1));
        }
    }

    /// Decode every message of the chain starting at `head` into `out`.
    fn read_chain_msgs(&self, head: PageId, out: &mut Vec<Msg<V>>) {
        let stride = Self::msg_stride();
        let mut pid = head;
        while pid.is_valid() {
            let (mut msgs, next) = self.pool.read(pid, |p| {
                let n = p.get_u16(OFF_MSG_COUNT) as usize;
                let mut v: Vec<Msg<V>> = Vec::with_capacity(n);
                for i in 0..n {
                    let off = MSG_HEADER + i * stride;
                    let op = p.get_u8(off + 24);
                    v.push(Msg {
                        key: p.get_u128(off),
                        seq: p.get_u64(off + 16),
                        op,
                        val: if op == OP_DEL {
                            None
                        } else {
                            Some(V::read(p.bytes(off + 25, V::SIZE)))
                        },
                    });
                }
                let raw = p.get_u32(OFF_MSG_NEXT);
                (v, if raw == 0 { PageId::INVALID } else { PageId(raw - 1) })
            });
            out.append(&mut msgs);
            pid = next;
        }
    }

    /// Chain owners in deterministic (page id) order — `HashMap` iteration
    /// order must never leak into the I/O ledger.
    fn chain_owners(&self) -> Vec<PageId> {
        let mut owners: Vec<PageId> = self.msgs.chains.keys().copied().collect();
        owners.sort_unstable_by_key(|p| p.0);
        owners
    }

    // ---- overflow: spill down, then flush ----------------------------------

    /// Called before each append: when the root chain is at capacity,
    /// either spill it one level down (tall trees) or flush everything.
    fn maybe_overflow(&mut self) {
        let cap = Self::chain_page_cap();
        let root_full = self
            .msgs
            .chains
            .get(&self.root())
            .is_some_and(|c| c.pages >= MAX_CHAIN_PAGES && c.tail_count == cap);
        if !root_full {
            return;
        }
        // Spills and flushes are the buffer's bulk page traffic: attribute
        // every disk write inside to the chain-spill crash-point category
        // so the kill-point matrix can target this region specifically.
        let pool = Arc::clone(&self.pool);
        pool.with_crash_scope(CrashPoint::ChainSpill, || {
            if self.height() >= 3 {
                self.spill_root_chain();
                let child_over = self
                    .msgs
                    .chains
                    .iter()
                    .any(|(pid, c)| *pid != self.root() && c.pages > MAX_CHAIN_PAGES);
                if child_over {
                    self.flush_messages();
                }
            } else {
                self.flush_messages();
            }
            // The overflow is one unit of structural work: force its log
            // records durable at the boundary so the unforced-log window
            // stays bounded. The forced log pages are the spill's own
            // crash-injection points (an uncommitted tail rolls back to
            // the last commit on recovery). No-op with durability off.
            pool.wal_force();
        });
    }

    /// Push the root chain's messages into per-child chains of the root's
    /// children, routed by the root's separators. Messages only ever move
    /// downward, so sequence-number order is preserved across levels.
    fn spill_root_chain(&mut self) {
        let Some(chain) = self.msgs.chains.remove(&self.root()) else { return };
        let mut msgs: Vec<Msg<V>> = Vec::new();
        self.read_chain_msgs(chain.head, &mut msgs);
        self.msgs.pending -= msgs.len();
        self.add_total_pages(-(chain.pages as isize));
        // The chain pages leak on the simulated disk like merged tree
        // pages do; clear the on-page head so the format stays honest.
        let root = self.root();
        self.pool.write(root, |p| node::set_chain_head(p, PageId::INVALID));

        // Route every message through the root page once.
        let groups: BTreeMap<u32, Vec<Msg<V>>> = self.pool.read(root, |p| {
            let mut g: BTreeMap<u32, Vec<Msg<V>>> = BTreeMap::new();
            for m in msgs.drain(..) {
                let child = node::child_at(p, node::branch_child_index(p, m.key));
                g.entry(child.0).or_default().push(m);
            }
            g
        });
        self.writes.bump_spill();
        for (child, group) in groups {
            self.chain_append_batch(PageId(child), &group);
        }
    }

    /// Drain **every** chain, compact to the newest message per key, and
    /// apply the residue to the leaves — leaf-batched when it is small
    /// relative to the tree, otherwise by the same sequential-scan,
    /// two-way-merge, bulk-rebuild strategy as [`BTree::merge_sorted`],
    /// honoring tombstones. A no-op with nothing pending.
    pub fn flush_messages(&mut self) {
        if self.msgs.pending == 0 {
            return;
        }
        let mut all: Vec<Msg<V>> = Vec::with_capacity(self.msgs.pending);
        for owner in self.chain_owners() {
            let chain = self.msgs.chains.remove(&owner).expect("listed owner");
            self.read_chain_msgs(chain.head, &mut all);
            self.add_total_pages(-(chain.pages as isize));
            self.pool.write(owner, |p| node::set_chain_head(p, PageId::INVALID));
        }
        self.msgs.pending = 0;
        self.writes.bump_flush();

        // Last write wins per key; BTreeMap gives the sorted order the
        // merge needs.
        let mut best: BTreeMap<u128, Msg<V>> = BTreeMap::new();
        for m in all {
            match best.get(&m.key) {
                Some(b) if b.seq >= m.seq => {}
                _ => {
                    best.insert(m.key, m);
                }
            }
        }

        if best.len() * MERGE_REBUILD_RATIO < self.len() {
            // Small residue: apply leaf by leaf — one write per touched
            // leaf — instead of one descent-and-write per message.
            self.apply_messages_by_leaf(best.into_values().collect());
            return;
        }

        // Large residue: one sequential leaf scan, two-way merge with the
        // messages (puts replace, tombstones drop), bottom-up rebuild.
        let old = self.range(0, u128::MAX);
        let mut merged: Vec<(u128, V)> = Vec::with_capacity(old.len() + best.len());
        let mut it = best.into_iter().peekable();
        for (k, v) in old {
            while it.peek().is_some_and(|(mk, _)| *mk < k) {
                let (mk, m) = it.next().expect("peeked");
                if m.op != OP_DEL {
                    merged.push((mk, m.val.expect("puts carry a value")));
                }
            }
            if it.peek().is_some_and(|(mk, _)| *mk == k) {
                let (mk, m) = it.next().expect("peeked");
                if m.op != OP_DEL {
                    merged.push((mk, m.val.expect("puts carry a value")));
                }
            } else {
                merged.push((k, v));
            }
        }
        for (mk, m) in it {
            if m.op != OP_DEL {
                merged.push((mk, m.val.expect("puts carry a value")));
            }
        }

        let scans = self.scan_stats();
        let prior_writes = self.write_stats();
        let buffered = self.msgs.buffered;
        let seq = self.msgs.seq;
        let tree_id = self.tree_id;
        *self = BTree::bulk_load(Arc::clone(&self.pool), merged, MERGE_FILL);
        self.restore_scan_stats(scans);
        // The rebuild's own leaf writes are part of this flush's cost.
        self.restore_write_stats(prior_writes.merged(&self.write_stats()));
        self.msgs.buffered = buffered;
        self.msgs.seq = seq;
        // The rebuild is a new tree value with a new root; it keeps the
        // old WAL identity, and recovery must learn the root moved.
        self.tree_id = tree_id;
        self.log_meta();
    }

    /// Locked root-to-leaf descent for `key`, also returning the leaf's
    /// **fence key** — the exclusive upper bound of keys it can hold
    /// (`u128::MAX` when the leaf tops the key space). The fence is what
    /// lets the flush assign a whole run of sorted messages to one leaf.
    fn descend_to_leaf_locked(&self, key: u128) -> (PageId, u128) {
        let mut pid = self.root();
        let mut fence = u128::MAX;
        for _ in 1..self.height() {
            let (child, f) = self.pool.read(pid, |p| {
                let j = node::branch_child_index(p, key);
                let f = if j < node::count(p) { node::branch_key(p, j) } else { u128::MAX };
                (node::child_at(p, j), f)
            });
            fence = fence.min(f);
            pid = child;
        }
        (pid, fence)
    }

    /// The leaf-batched half of a flush: walk the compacted messages in
    /// key order, group every run that routes to the same leaf, and apply
    /// each group with **one** read-merge-write of that leaf. This is the
    /// write saving the buffer exists for — `m` messages into one leaf
    /// cost one leaf write, not `m`. A group whose merged contents would
    /// overflow the leaf (or underflow below the rebalancing minimum)
    /// falls back to ordinary per-key inserts/deletes, which split and
    /// rebalance as usual.
    fn apply_messages_by_leaf(&mut self, msgs: Vec<Msg<V>>) {
        let vsize = V::SIZE;
        let mut i = 0usize;
        while i < msgs.len() {
            let (leaf, fence) = self.descend_to_leaf_locked(msgs[i].key);
            let mut j = i + 1;
            while j < msgs.len() && msgs[j].key < fence {
                j += 1;
            }
            let group = &msgs[i..j];

            let entries: Vec<(u128, V)> = self.pool.read(leaf, |p| {
                (0..node::count(p))
                    .map(|s| {
                        (
                            node::leaf_key(p, s, vsize),
                            V::read(p.bytes(node::leaf_entry_off(s, vsize) + 16, vsize)),
                        )
                    })
                    .collect()
            });
            // Two-way merge: messages are sorted, unique and newer.
            let mut merged: Vec<(u128, &V)> = Vec::with_capacity(entries.len() + group.len());
            let mut g = group.iter().peekable();
            for (k, v) in &entries {
                while g.peek().is_some_and(|m| m.key < *k) {
                    let m = g.next().expect("peeked");
                    if m.op != OP_DEL {
                        merged.push((m.key, m.val.as_ref().expect("puts carry a value")));
                    }
                }
                if g.peek().is_some_and(|m| m.key == *k) {
                    let m = g.next().expect("peeked");
                    if m.op != OP_DEL {
                        merged.push((m.key, m.val.as_ref().expect("puts carry a value")));
                    }
                } else {
                    merged.push((*k, v));
                }
            }
            for m in g {
                if m.op != OP_DEL {
                    merged.push((m.key, m.val.as_ref().expect("puts carry a value")));
                }
            }

            // Every group key routes to this leaf, so an in-place rewrite
            // preserves separators and the sibling chain as long as the
            // occupancy bounds hold.
            let fits = merged.len() <= Self::leaf_cap()
                && (self.height() == 1 || merged.len() >= Self::leaf_min());
            if fits {
                self.pool.write(leaf, |p| {
                    for (s, (k, v)) in merged.iter().enumerate() {
                        let off = node::leaf_entry_off(s, vsize);
                        p.put_u128(off, *k);
                        v.write(p.bytes_mut(off + 16, vsize));
                    }
                    node::set_count(p, merged.len());
                });
                self.writes.bump_leaf_writes(1);
                self.set_len(self.len() + merged.len() - entries.len());
            } else {
                drop(merged);
                for m in group.iter().cloned() {
                    if m.op == OP_DEL {
                        self.delete(m.key);
                    } else {
                        self.insert(m.key, m.val.expect("puts carry a value"));
                    }
                }
            }
            i = j;
        }
    }

    // ---- recovery ----------------------------------------------------------

    /// Rebuild the in-memory chain registry from on-page chain heads
    /// (recovery: the pages came back byte-exact, only the in-memory
    /// metadata died with the process). Each `(owner, head)` pair names a
    /// node whose [`node::chain_head`] slot was found valid; the chain is
    /// walked once through the pool to restore head/tail/page counts, the
    /// pending-message total, and the sequence counter — advanced past
    /// the newest message seen, so post-recovery messages keep winning
    /// last-write-wins.
    pub(crate) fn reattach_chains(&mut self, owners: &[(PageId, PageId)]) {
        for &(owner, head) in owners {
            let mut pages = 0usize;
            let mut tail = head;
            let mut tail_count = 0usize;
            let mut pid = head;
            while pid.is_valid() {
                let (n, next) = self.pool.read(pid, |p| {
                    let raw = p.get_u32(OFF_MSG_NEXT);
                    (
                        p.get_u16(OFF_MSG_COUNT) as usize,
                        if raw == 0 { PageId::INVALID } else { PageId(raw - 1) },
                    )
                });
                pages += 1;
                tail = pid;
                tail_count = n;
                self.msgs.pending += n;
                pid = next;
            }
            self.add_total_pages(pages as isize);
            self.msgs.chains.insert(owner, Chain { head, tail, tail_count, pages });
            let mut msgs: Vec<Msg<V>> = Vec::new();
            self.read_chain_msgs(head, &mut msgs);
            for m in &msgs {
                self.msgs.seq = self.msgs.seq.max(m.seq + 1);
            }
        }
        if self.msgs.pending > 0 {
            self.msgs.buffered = true;
        }
    }

    // ---- read-side overlay -------------------------------------------------

    /// The newest in-flight message per key within the union of `ranges`:
    /// `Some(value)` for a put, `None` for a tombstone. Reads every chain
    /// page through the pool (honest I/O); callers gate on
    /// [`BTree::pending_messages`] so the unbuffered path never pays this.
    pub(crate) fn collect_overlay(&self, ranges: &[(u128, u128)]) -> BTreeMap<u128, Option<V>> {
        let runs = coalesce_intervals(ranges);
        let mut best: BTreeMap<u128, (u64, Option<V>)> = BTreeMap::new();
        let mut msgs: Vec<Msg<V>> = Vec::new();
        for owner in self.chain_owners() {
            self.read_chain_msgs(self.msgs.chains[&owner].head, &mut msgs);
        }
        for m in msgs {
            // First run whose end reaches the key, then check its start.
            let i = runs.partition_point(|&(_, hi)| hi < m.key);
            if i == runs.len() || runs[i].0 > m.key {
                continue;
            }
            match best.get(&m.key) {
                Some((seq, _)) if *seq >= m.seq => {}
                _ => {
                    best.insert(m.key, (m.seq, m.val));
                }
            }
        }
        best.into_iter().map(|(k, (_, v))| (k, v)).collect()
    }

    /// Merge an overlay into an ordered leaf-scan emission: overlay puts
    /// interleave by key, overlay entries matching a leaf key win (the
    /// message is newer by construction), tombstones suppress. A
    /// `SkipRow` verdict drops the rest of that row of `plan` from both
    /// streams. Returns whether the merged scan ran to completion.
    pub(crate) fn scan_with_overlay(
        &self,
        overlay: BTreeMap<u128, Option<V>>,
        plan: &ScanPlan,
        inner: impl FnOnce(&mut dyn FnMut(u128, V) -> Visit) -> bool,
        visit: &mut dyn FnMut(u128, V) -> Visit,
    ) -> bool {
        let mut ov = overlay.into_iter().peekable();
        let mut stopped = false;
        // Last key of the row most recently skipped, if any.
        let mut skipped: Option<u128> = None;
        // Hand one merged entry to the visitor unless its row was skipped;
        // returns whether the merge goes on.
        let mut emit = |k: u128, v: V, skipped: &mut Option<u128>| {
            if skipped.is_some_and(|end| k <= end) {
                return true;
            }
            match visit(k, v) {
                Visit::Next => {}
                Visit::SkipRow => *skipped = Some(plan.row_end(k)),
                Visit::Stop => return false,
            }
            true
        };
        let completed = inner(&mut |k: u128, v: V| {
            while ov.peek().is_some_and(|(ok, _)| *ok < k) {
                let (okk, mv) = ov.next().expect("peeked");
                if mv.is_some_and(|val| !emit(okk, val, &mut skipped)) {
                    stopped = true;
                    return Visit::Stop;
                }
            }
            // An overlay entry for this very key wins: a put replaces the
            // leaf value, a tombstone suppresses it.
            let v = match ov.next_if(|(ok, _)| *ok == k) {
                Some((_, None)) => return Visit::Next,
                Some((_, Some(val))) => val,
                None => v,
            };
            if !emit(k, v, &mut skipped) {
                stopped = true;
                return Visit::Stop;
            }
            if skipped.is_some_and(|end| k <= end) {
                Visit::SkipRow // the leaf walk drops the row's runs too
            } else {
                Visit::Next
            }
        });
        if stopped || !completed {
            return false;
        }
        for (k, mv) in ov {
            if mv.is_some_and(|val| !emit(k, val, &mut skipped)) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_storage::BufferPool;
    use std::collections::BTreeMap as Model;

    fn tree() -> BTree<u64> {
        BTree::new(Arc::new(BufferPool::new(64)))
    }

    #[test]
    fn buffered_ops_match_model_after_flush() {
        let mut t = tree();
        t.set_buffered_writes(true);
        let mut model: Model<u128, u64> = Model::new();
        // A deterministic interleaving of puts, overwrites and deletes.
        for i in 0..5_000u128 {
            let k = (i * 2_654_435_761) % 2_048;
            if i % 5 == 4 {
                t.buffered_delete(k);
                model.remove(&k);
            } else {
                t.buffered_insert(k, i as u64);
                model.insert(k, i as u64);
            }
        }
        t.set_buffered_writes(false);
        assert_eq!(t.pending_messages(), 0, "off flushes everything");
        t.validate().expect("valid after flush");
        let got: Model<u128, u64> = t.range(0, u128::MAX).into_iter().collect();
        assert_eq!(got, model);
        let s = t.write_stats();
        assert_eq!(s.messages_buffered, 5_000);
        assert!(s.buffer_flushes >= 1, "the workload overflowed the buffer");
    }

    #[test]
    fn reads_overlay_pending_messages() {
        let mut t = tree();
        for k in 0..500u128 {
            t.insert(k * 2, 1);
        }
        t.set_buffered_writes(true);
        t.buffered_insert(11, 7); // new key between leaf keys
        t.buffered_insert(20, 8); // overwrites a leaf entry
        t.buffered_delete(40); // tombstones a leaf entry
        assert!(t.pending_messages() > 0, "nothing flushed yet");
        // Point lookups see messages first.
        assert_eq!(t.get(11), Some(7));
        assert_eq!(t.get(20), Some(8));
        assert_eq!(t.get(40), None);
        assert_eq!(t.get(42), Some(1), "untouched key");
        // Range scan interleaves, replaces and suppresses.
        let got: Vec<(u128, u64)> = t.range(10, 44);
        let want: Vec<(u128, u64)> = vec![
            (10, 1),
            (11, 7),
            (12, 1),
            (14, 1),
            (16, 1),
            (18, 1),
            (20, 8),
            (22, 1),
            (24, 1),
            (26, 1),
            (28, 1),
            (30, 1),
            (32, 1),
            (34, 1),
            (36, 1),
            (38, 1),
            (42, 1),
            (44, 1),
        ];
        assert_eq!(got, want);
        // Fused multi-interval scans see the same overlay.
        let mut keys = Vec::new();
        t.multi_range_scan(&[(38, 44), (10, 12)], |k, _| {
            keys.push(k);
            true
        });
        assert_eq!(keys, vec![10, 11, 12, 38, 42, 44]);
        // Early exit propagates through the overlay merge.
        let mut seen = 0;
        assert!(!t.range_scan(0, u128::MAX, |_, _| {
            seen += 1;
            seen < 3
        }));
        assert_eq!(seen, 3);
    }

    #[test]
    fn buffered_ingest_writes_fewer_leaf_pages() {
        let n = 6_000u128;
        let build =
            || BTree::bulk_load(Arc::new(BufferPool::new(64)), (0..n).map(|k| (k * 2, 0u64)), 1.0);
        let workload: Vec<u128> = (0..n).map(|i| (i * 2_654_435_761) % (n * 2)).collect();

        let mut plain = build();
        plain.reset_write_stats();
        for &k in &workload {
            plain.insert(k, 1);
        }
        let plain_writes = plain.write_stats().leaf_pages_written;

        let mut buffered = build();
        buffered.set_buffered_writes(true);
        buffered.reset_write_stats();
        for &k in &workload {
            buffered.buffered_insert(k, 1);
        }
        buffered.set_buffered_writes(false);
        let buf_writes = buffered.write_stats().leaf_pages_written;

        assert_eq!(plain.range(0, u128::MAX), buffered.range(0, u128::MAX), "same final contents");
        assert!(
            buf_writes * 2 <= plain_writes,
            "buffered {buf_writes} leaf writes vs plain {plain_writes}: batching must at least halve them"
        );
    }

    #[test]
    fn tall_trees_spill_before_flushing() {
        // Enough keys for height >= 3 so the root chain distributes into
        // child chains before any full flush.
        let n = 40_000u128;
        let mut t =
            BTree::bulk_load(Arc::new(BufferPool::new(256)), (0..n).map(|k| (k * 2, 0u64)), 1.0);
        assert!(t.height() >= 3, "height {}", t.height());
        t.set_buffered_writes(true);
        for i in 0..4_000u128 {
            t.buffered_insert((i * 40_503) % (n * 2), 9);
        }
        let mid = t.write_stats();
        assert!(mid.buffer_spills >= 1, "root chain must have spilled: {mid:?}");
        t.set_buffered_writes(false);
        t.validate().expect("valid after spills and final flush");
    }

    #[test]
    fn rekey_moves_the_record() {
        let mut t = tree();
        for k in 0..1_000u128 {
            t.insert(k, k as u64);
        }
        t.set_buffered_writes(true);
        let v = t.get(77).unwrap();
        t.buffered_rekey(77, 5_077, v);
        assert_eq!(t.get(77), None, "old home tombstoned while pending");
        assert_eq!(t.get(5_077), Some(77), "new home visible while pending");
        t.flush_messages();
        assert_eq!(t.get(77), None);
        assert_eq!(t.get(5_077), Some(77));
        assert_eq!(t.write_stats().rekey_messages, 1);
        t.validate().expect("valid after re-key flush");
    }

    #[test]
    fn merge_sorted_flushes_pending_first() {
        let mut t = tree();
        t.set_buffered_writes(true);
        t.buffered_insert(10, 1);
        t.buffered_delete(10);
        t.buffered_insert(12, 2);
        // The merge must order its batch after the in-flight messages.
        t.merge_sorted(vec![(10u128, 9u64), (11, 9)]);
        assert_eq!(t.pending_messages(), 0);
        assert_eq!(t.get(10), Some(9), "batch lands after the tombstone");
        assert_eq!(t.get(11), Some(9));
        assert_eq!(t.get(12), Some(2));
        assert!(t.buffered_writes(), "knob survives the merge rebuild");
    }

    #[test]
    fn unbuffered_trees_never_touch_the_message_path() {
        let mut t = tree();
        for k in 0..3_000u128 {
            t.insert(k, k as u64);
        }
        assert_eq!(t.pending_messages(), 0);
        assert_eq!(t.write_stats().messages_buffered, 0);
        // buffered_* entry points degrade to the plain ones.
        t.buffered_insert(9_001, 5);
        t.buffered_delete(100);
        assert_eq!(t.pending_messages(), 0);
        assert_eq!(t.get(9_001), Some(5));
        assert_eq!(t.get(100), None);
        t.validate().expect("plain ops through the buffered API");
    }
}
