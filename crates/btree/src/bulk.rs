//! Bottom-up bulk loading.
//!
//! Building an index over an existing user base one insert at a time costs
//! `O(n log n)` page touches and leaves pages ~69% full. Bulk loading packs
//! sorted entries into leaves at a chosen fill factor and builds the branch
//! levels bottom-up in one pass — the standard way real systems create an
//! index over existing data.
//!
//! The loader keeps every B+-tree invariant that [`crate::tree::BTree::validate`]
//! checks, including minimum occupancy of the rightmost node at each level
//! (fixed up by rebalancing the last two nodes when the tail would
//! underflow).

use std::sync::Arc;

use peb_storage::{BufferPool, PageId, TreeOpKind, WalRecord};

use crate::node::{self, branch_capacity, leaf_capacity};
use crate::tree::BTree;
use crate::value::RecordValue;

impl<V: RecordValue> BTree<V> {
    /// Build a tree from entries **sorted by strictly increasing key**.
    ///
    /// `fill` is the target fraction of each node's capacity (clamped to
    /// `[0.5, 1.0]`); the paper-era default of 1.0 maximizes leaf density,
    /// while lower values leave room for subsequent inserts.
    ///
    /// # Panics
    /// Panics if keys are not strictly increasing.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        entries: impl IntoIterator<Item = (u128, V)>,
        fill: f64,
    ) -> Self {
        let fill = fill.clamp(0.5, 1.0);
        let leaf_cap = leaf_capacity(V::SIZE);
        let leaf_target = ((leaf_cap as f64 * fill).floor() as usize).max(1);
        let vsize = V::SIZE;
        let stride = 16 + vsize;
        // Leaf-page writes of this load, carried onto the finished tree's
        // write ledger (a Cell because `seal` borrows it immutably).
        let leaf_writes = std::cell::Cell::new(0u64);

        // ---- leaf level ----
        // Entries for the leaf being assembled are buffered in memory and
        // written with a single page access when the leaf seals, so bulk
        // loading costs O(1) page touches per page, not per entry.
        let mut leaves: Vec<(u128, PageId)> = Vec::new(); // (first key, pid)
        let mut len = 0usize;
        let mut buf: Vec<(u128, V)> = Vec::with_capacity(leaf_target);
        let mut prev_key: Option<u128> = None;

        let seal = |buf: &mut Vec<(u128, V)>, leaves: &mut Vec<(u128, PageId)>| {
            if buf.is_empty() {
                return;
            }
            let pid = pool.allocate();
            pool.write(pid, |p| {
                node::init_leaf(p);
                for (i, (key, value)) in buf.iter().enumerate() {
                    let off = node::leaf_entry_off(i, vsize);
                    p.put_u128(off, *key);
                    value.write(p.bytes_mut(off + 16, vsize));
                }
                node::set_count(p, buf.len());
            });
            leaf_writes.set(leaf_writes.get() + 1);
            if let Some(&(_, prev_pid)) = leaves.last() {
                pool.write(prev_pid, |p| node::set_right_sibling(p, pid));
                leaf_writes.set(leaf_writes.get() + 1);
            }
            leaves.push((buf[0].0, pid));
            buf.clear();
        };

        for (key, value) in entries {
            if let Some(pk) = prev_key {
                assert!(pk < key, "bulk_load requires strictly increasing keys");
            }
            prev_key = Some(key);
            buf.push((key, value));
            len += 1;
            if buf.len() == leaf_target {
                seal(&mut buf, &mut leaves);
            }
        }
        seal(&mut buf, &mut leaves);

        // An empty input still needs a root leaf.
        if leaves.is_empty() {
            let root = pool.allocate();
            pool.write(root, node::init_leaf);
            let t = BTree::from_raw(pool, root, 1, 0, 1, 1);
            t.writes.bump_leaf_writes(1);
            return t;
        }

        // Fix a potentially underfull last leaf: merge it into its left
        // neighbor when both fit in one page, otherwise split the pair
        // evenly (total > capacity, so each half reaches the minimum).
        if leaves.len() > 1 {
            let last_count = pool.read(leaves[leaves.len() - 1].1, node::count);
            let min = leaf_cap / 2;
            if last_count < min {
                let (l_pid, r_pid) = (leaves[leaves.len() - 2].1, leaves[leaves.len() - 1].1);
                let l_count = pool.read(l_pid, node::count);
                let total = l_count + last_count;
                if total <= leaf_cap {
                    // Absorb the tail into the left leaf; drop the last one.
                    let bytes: Vec<u8> =
                        pool.read(r_pid, |p| p.bytes(node::HEADER, last_count * stride).to_vec());
                    pool.write(l_pid, |p| {
                        p.bytes_mut(node::leaf_entry_off(l_count, vsize), bytes.len())
                            .copy_from_slice(&bytes);
                        node::set_count(p, total);
                        node::set_right_sibling(p, PageId::INVALID);
                    });
                    leaf_writes.set(leaf_writes.get() + 1);
                    leaves.pop(); // r_pid leaks on the simulated disk
                } else {
                    // Even split: both halves are >= leaf_cap / 2.
                    let keep = total / 2 + (total % 2);
                    let move_n = l_count - keep;
                    let bytes: Vec<u8> = pool.read(l_pid, |p| {
                        p.bytes(node::leaf_entry_off(keep, vsize), move_n * stride).to_vec()
                    });
                    pool.write(r_pid, |p| {
                        p.shift(node::HEADER, node::HEADER + move_n * stride, last_count * stride);
                        p.bytes_mut(node::HEADER, bytes.len()).copy_from_slice(&bytes);
                        node::set_count(p, last_count + move_n);
                    });
                    pool.write(l_pid, |p| node::set_count(p, keep));
                    leaf_writes.set(leaf_writes.get() + 2);
                    let new_first = pool.read(r_pid, |p| node::leaf_key(p, 0, vsize));
                    let last = leaves.len() - 1;
                    leaves[last].0 = new_first;
                }
            }
        }

        // ---- branch levels ----
        let leaf_pages = leaves.len();
        let mut total_pages = leaf_pages;
        let mut level: Vec<(u128, PageId)> = leaves;
        let mut height = 1u32;
        let branch_target = ((branch_capacity() as f64 * fill).floor() as usize).max(2);

        while level.len() > 1 {
            height += 1;
            let mut next: Vec<(u128, PageId)> = Vec::new();
            let mut i = 0usize;
            // A branch with `c` entries has `c + 1` children; non-root
            // nodes need at least `min_children`.
            let max_children = branch_capacity() + 1;
            let min_children = branch_capacity() / 2 + 1;
            while i < level.len() {
                let rest = level.len() - i;
                let take = if rest <= branch_target + 1 {
                    rest // final node
                } else if rest - (branch_target + 1) >= min_children {
                    branch_target + 1 // a full-target node leaves a healthy tail
                } else if rest <= max_children {
                    rest // absorb the awkward tail into one over-target node
                } else {
                    rest - min_children // leave the tail exactly the minimum
                };
                debug_assert!(take <= max_children);
                let group = &level[i..i + take];
                let pid = pool.allocate();
                total_pages += 1;
                pool.write(pid, |p| {
                    node::init_branch(p, group[0].1);
                    for (slot, (key, child)) in group[1..].iter().enumerate() {
                        node::branch_insert_entry(p, slot, *key, *child);
                    }
                });
                next.push((group[0].0, pid));
                i += take;
            }
            level = next;
        }

        let root = level[0].1;
        let t = BTree::from_raw(pool, root, height, len, leaf_pages, total_pages);
        t.writes.bump_leaf_writes(leaf_writes.get());
        t
    }
}

/// Batches at least this fraction of the tree's size are merged by
/// rebuilding the tree through [`BTree::bulk_load`] instead of one
/// root-to-leaf descent per entry (see [`BTree::merge_sorted`]).
const MERGE_REBUILD_RATIO: usize = 4;

/// Leaf fill factor used when a merge rebuilds the tree: slightly below
/// full so the next few single-key inserts do not split immediately.
const MERGE_FILL: f64 = 0.9;

impl<V: RecordValue> BTree<V> {
    /// Merge a batch of entries **sorted by strictly increasing key** into
    /// the tree, replacing the values of keys already present. Returns the
    /// number of *new* keys inserted (replacements are not counted).
    ///
    /// This is the batched-update entry point the sharded moving index
    /// builds on. Two regimes:
    ///
    /// * **Small batch** (less than `1/4` of the tree): one ordinary
    ///   insert per entry — the batch is too small for a rebuild to pay
    ///   off.
    /// * **Large batch**: the existing entries are read out in one
    ///   sequential leaf scan, two-way merged with the batch, and the tree
    ///   is rebuilt bottom-up with [`BTree::bulk_load`]. This touches each
    ///   leaf page once instead of doing `O(batch · height)` descents, and
    ///   leaves the tree densely packed. The old pages leak on the
    ///   simulated disk (it has no free list); leaked pages cost no I/O.
    ///
    /// On a registered tree of a durable pool the batch is logged as one
    /// run — a [`TreeOpKind::Merge`] record followed by one
    /// [`TreeOpKind::MergeEntry`] per entry — and recovery merges it as one
    /// run again: inserting the entries one by one would build a
    /// different tree.
    ///
    /// # Panics
    /// Panics if the batch keys are not strictly increasing, or on an
    /// unresolvable media fault.
    pub fn merge_sorted(&mut self, entries: Vec<(u128, V)>) -> usize {
        if entries.is_empty() {
            return 0;
        }
        let scope = self.redo_scope();
        let mut records: Vec<WalRecord> = Vec::new();
        if scope.is_some() {
            records.push(self.op_record(TreeOpKind::Merge, entries.len() as u128, None));
            for (k, v) in &entries {
                records.push(self.op_record(TreeOpKind::MergeEntry, *k, Some(v)));
            }
        }
        let added = self.merge_core(entries);
        if let Some(scope) = scope {
            records.iter().for_each(|rec| scope.log(rec));
        }
        added
    }

    /// [`BTree::merge_sorted`] without the log records.
    pub(crate) fn merge_core(&mut self, entries: Vec<(u128, V)>) -> usize {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "merge_sorted requires strictly increasing keys"
        );

        if entries.len() * MERGE_REBUILD_RATIO < self.len() {
            let mut added = 0usize;
            for (k, v) in entries {
                let old =
                    self.insert_core(k, &v).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"));
                if old.is_none() {
                    added += 1;
                }
            }
            return added;
        }

        // Rebuild regime: sequential scan + two-way merge + bulk load.
        let old = self.range(0, u128::MAX);
        let old_len = old.len();
        let mut merged: Vec<(u128, V)> = Vec::with_capacity(old_len + entries.len());
        let mut new_it = entries.into_iter().peekable();
        for (k, v) in old {
            while let Some(&(nk, _)) = new_it.peek() {
                if nk < k {
                    merged.push(new_it.next().unwrap());
                } else {
                    break;
                }
            }
            if let Some(&(nk, _)) = new_it.peek() {
                if nk == k {
                    // Batch wins on a duplicate key: value replacement.
                    merged.push(new_it.next().unwrap());
                    continue;
                }
            }
            merged.push((k, v));
        }
        merged.extend(new_it);
        let added = merged.len() - old_len;
        let scans = self.scan_stats();
        let writes = self.write_stats();
        let tree_id = self.tree_id;
        *self = BTree::bulk_load(Arc::clone(self.pool()), merged, MERGE_FILL);
        // The rebuild replaced `self` wholesale; the scan and write
        // ledgers outlive structural maintenance like every other counter
        // does (the rebuild's own leaf writes are part of this merge's
        // cost), and the WAL identity carries over.
        self.restore_scan_stats(scans);
        self.restore_write_stats(writes.merged(&self.write_stats()));
        self.tree_id = tree_id;
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(n: u128, fill: f64) -> BTree<u64> {
        BTree::bulk_load(Arc::new(BufferPool::new(128)), (0..n).map(|k| (k * 3, k as u64)), fill)
    }

    #[test]
    fn empty_input_gives_empty_tree() {
        let t = load(0, 1.0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.validate().expect("empty bulk-loaded tree valid");
    }

    #[test]
    fn single_leaf_worth_of_entries() {
        let t = load(100, 1.0);
        assert_eq!(t.len(), 100);
        assert_eq!(t.height(), 1);
        t.validate().expect("valid");
        assert_eq!(t.get(3 * 42), Some(42));
    }

    #[test]
    fn multi_level_loads_are_valid_and_complete() {
        for n in [171u128, 1_000, 50_000] {
            for fill in [0.6, 0.9, 1.0] {
                let t = load(n, fill);
                t.validate().unwrap_or_else(|e| panic!("n={n} fill={fill}: {e}"));
                assert_eq!(t.len(), n as usize);
                assert_eq!(t.range(0, u128::MAX).len(), n as usize);
                // Spot lookups.
                for k in (0..n).step_by((n as usize / 17).max(1)) {
                    assert_eq!(t.get(k * 3), Some(k as u64));
                    assert_eq!(t.get(k * 3 + 1), None);
                }
            }
        }
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts_and_deletes() {
        let mut t = load(10_000, 1.0);
        for k in 0..10_000u128 {
            t.insert(k * 3 + 1, 999);
        }
        t.validate().expect("valid after post-load inserts");
        assert_eq!(t.len(), 20_000);
        for k in 0..10_000u128 {
            assert_eq!(t.delete(k * 3), Some(k as u64));
        }
        t.validate().expect("valid after interleaved deletes");
        assert_eq!(t.len(), 10_000);
    }

    #[test]
    fn full_fill_uses_fewer_pages_than_incremental_build() {
        let n = 30_000u128;
        let bulk = load(n, 1.0);
        let mut incremental: BTree<u64> = BTree::new(Arc::new(BufferPool::new(128)));
        for k in 0..n {
            incremental.insert(k * 3, k as u64);
        }
        assert!(
            bulk.leaf_page_count() < incremental.leaf_page_count(),
            "bulk {} vs incremental {}",
            bulk.leaf_page_count(),
            incremental.leaf_page_count()
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_input_panics() {
        let _ = BTree::<u64>::bulk_load(
            Arc::new(BufferPool::new(16)),
            vec![(5u128, 0u64), (3, 0)],
            1.0,
        );
    }

    #[test]
    fn sibling_chain_is_complete_after_bulk_load() {
        let t = load(20_000, 0.8);
        // validate() already walks the chain; assert the count again via a
        // full range scan that must traverse only sibling links.
        let mut seen = 0usize;
        t.range_scan(0, u128::MAX, |_, _| {
            seen += 1;
            true
        });
        assert_eq!(seen, 20_000);
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn merge_into_empty_tree() {
        let mut t: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
        let added = t.merge_sorted((0..500u128).map(|k| (k * 2, k as u64)).collect());
        assert_eq!(added, 500);
        assert_eq!(t.len(), 500);
        t.validate().expect("valid after merge into empty tree");
        assert_eq!(t.get(400), Some(200));
    }

    #[test]
    fn merge_interleaves_and_replaces() {
        // Evens pre-loaded; merge a mix of odds (new) and evens (replaced).
        let mut t = BTree::bulk_load(
            Arc::new(BufferPool::new(64)),
            (0..2_000u128).map(|k| (k * 2, 1u64)),
            1.0,
        );
        let batch: Vec<(u128, u64)> = (0..2_000u128).map(|k| (k * 2 + k % 2, 2u64)).collect();
        let news = batch.iter().filter(|(k, _)| k % 2 == 1).count();
        let added = t.merge_sorted(batch);
        assert_eq!(added, news);
        assert_eq!(t.len(), 2_000 + news);
        t.validate().expect("valid after interleaved merge");
        assert_eq!(t.get(0), Some(2), "replaced value");
        assert_eq!(t.get(3), Some(2), "inserted value");
        assert_eq!(t.get(2), Some(1), "untouched value");
    }

    #[test]
    fn small_batch_takes_insert_path_large_batch_rebuilds() {
        let mut t = BTree::bulk_load(
            Arc::new(BufferPool::new(64)),
            (0..10_000u128).map(|k| (k * 3, 0u64)),
            1.0,
        );
        // Small batch: < len/4 -> per-key inserts, tree stays valid.
        assert_eq!(t.merge_sorted((0..100u128).map(|k| (k * 3 + 1, 1u64)).collect()), 100);
        t.validate().expect("valid after small merge");
        // Large batch: rebuild path.
        let before_pages = t.leaf_page_count();
        assert_eq!(t.merge_sorted((0..9_000u128).map(|k| (k * 3 + 2, 2u64)).collect()), 9_000);
        t.validate().expect("valid after rebuild merge");
        assert_eq!(t.len(), 19_100);
        assert!(t.leaf_page_count() > before_pages);
        assert!(t.stats().avg_leaf_fill > 0.8, "rebuild packs leaves densely");
    }

    #[test]
    fn merge_equals_insert_loop() {
        let keys: Vec<u128> = (0..4_000u128).map(|k| (k * 2_654_435_761) % 100_000).collect();
        let sorted: Vec<(u128, u64)> = {
            let mut s: Vec<u128> = keys.clone();
            s.sort_unstable();
            s.dedup();
            s.into_iter().map(|k| (k, (k % 97) as u64)).collect()
        };
        let mut merged = BTree::bulk_load(
            Arc::new(BufferPool::new(64)),
            (0..1_000u128).map(|k| (k * 7, 5u64)),
            1.0,
        );
        let mut looped = BTree::bulk_load(
            Arc::new(BufferPool::new(64)),
            (0..1_000u128).map(|k| (k * 7, 5u64)),
            1.0,
        );
        merged.merge_sorted(sorted.clone());
        for (k, v) in sorted {
            looped.insert(k, v);
        }
        assert_eq!(merged.len(), looped.len());
        assert_eq!(merged.range(0, u128::MAX), looped.range(0, u128::MAX));
    }

    #[test]
    fn merge_costs_fewer_page_touches_than_insert_loop() {
        // The whole point of the batched path: same final contents, fewer
        // logical page accesses (deterministic, unlike wall-clock).
        let n = 8_000u128;
        let build = |cap| {
            BTree::bulk_load(Arc::new(BufferPool::new(cap)), (0..n).map(|k| (k * 2, 0u64)), 1.0)
        };
        let batch: Vec<(u128, u64)> = (0..n).map(|k| (k * 2 + 1, 1u64)).collect();

        let mut merged = build(64);
        merged.pool().reset_stats();
        merged.merge_sorted(batch.clone());
        let merged_io = merged.pool().stats().logical_reads;

        let mut looped = build(64);
        looped.pool().reset_stats();
        for (k, v) in batch {
            looped.insert(k, v);
        }
        let looped_io = looped.pool().stats().logical_reads;
        assert!(
            merged_io < looped_io / 2,
            "merge {merged_io} accesses vs loop {looped_io}: batched path must be cheaper"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn bulk_load_equals_incremental(
            keys in proptest::collection::btree_set(0u128..100_000, 0..800),
            fill in 0.5f64..1.0,
        ) {
            let sorted: Vec<(u128, u64)> =
                keys.iter().map(|&k| (k, (k % 251) as u64)).collect();
            let bulk = BTree::bulk_load(
                Arc::new(BufferPool::new(64)),
                sorted.clone(),
                fill,
            );
            bulk.validate().map_err(TestCaseError::fail)?;
            let mut inc: BTree<u64> = BTree::new(Arc::new(BufferPool::new(64)));
            for (k, v) in &sorted {
                inc.insert(*k, *v);
            }
            prop_assert_eq!(bulk.range(0, u128::MAX), inc.range(0, u128::MAX));
        }
    }
}
