//! A disk-based B+-tree over `u128` keys.
//!
//! This is the base structure shared by the Bx-tree and the PEB-tree: "the
//! PEB-tree is based on the widely implemented B+-tree, which promises easy
//! integration into existing commercial database systems" (Sec 1). Every
//! node is one 4 KB page accessed through the [`peb_storage::BufferPool`],
//! so all tree operations are measured in exactly the unit the paper
//! reports: physical page I/Os behind an LRU buffer.
//!
//! Design points:
//!
//! * **Unique keys.** Index keys embed the user id in their low bits (see
//!   `peb-bx`/`pebtree` key layouts), so the tree never stores duplicate
//!   keys and deletion is an exact-key operation.
//! * **Fixed-size records.** Leaf values implement [`RecordValue`] with a
//!   compile-time size; a leaf holds `⌊(4096 − 16) / (16 + SIZE)⌋` entries.
//! * **Full delete rebalancing.** Underflowing nodes borrow from or merge
//!   with siblings, and the root collapses when it loses its last
//!   separator, as in textbook B+-trees.
//! * **Sibling-linked leaves.** Range scans descend once and then walk the
//!   leaf chain, which is what makes the Bx/PEB interval probes cheap.
//! * **Lock-free optimistic reads.** [`BTree::get`] and every scan
//!   traverse via the pool's versioned page snapshots (`get` by
//!   optimistic lock coupling: validate each parent's version after
//!   following its child pointer, restart from the root on a mismatch)
//!   and fall back to the locked read path per page or — after bounded
//!   restarts — wholesale; see the [`tree`] module docs.
//! * **One write path.** [`BTree::try_insert`] / [`BTree::try_delete`]
//!   take `&mut self`; the index layer serialises writers per partition
//!   under its shard lock. The per-page-latch alternative lost by number
//!   and was removed (docs/BENCHMARKS.md, "Decided by number (PR 24)").

#![warn(missing_docs)]

pub mod bulk;
pub mod multiscan;
pub mod node;
pub mod tree;
pub mod value;

pub use multiscan::{coalesce_intervals, ScanPlan, ScanStats, ScanTermination, Visit};
pub use tree::{BTree, OlcStats, TreeStats, WriteStats, OPT_MAX_RESTARTS};
pub use value::RecordValue;
