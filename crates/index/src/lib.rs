//! The generic moving-object index core shared by the Bx-tree and the
//! PEB-tree.
//!
//! Both indexes of the paper are the *same machine* — a B+-tree over `u128`
//! keys whose high bits select a rotating time partition (Fig 1), with a
//! per-object current-key map for exact update/delete and a label-timestamp
//! map per live partition — differing **only** in how a key is composed
//! from a partition id, a Z-curve value and a user id:
//!
//! ```text
//! Bx  key = [TID]₂ ⊕ [ZV]₂ ⊕ [UID]₂
//! PEB key = [TID]₂ ⊕ [SV]₂ ⊕ [ZV]₂ ⊕ [UID]₂
//! ```
//!
//! The shared machinery (space config, time partitioning, `current_key`
//! tracking, partition labels, insert/update/delete, bulk load, partition
//! expiry/rollover, I/O accounting through the
//! [`peb_storage::BufferPool`]) lives in [`ShardedMovingIndex`]: one
//! B+-tree per rotating time partition, each behind its own lock, so
//! updates to different partitions run in parallel and a batch of updates
//! merges into each partition's leaves as one sorted run
//! ([`ShardedMovingIndex::upsert_batch`]). Partition expiry drops a whole
//! shard tree in O(1). The [`KeyLayout`] trait is the single seam where
//! the two engines differ.
//!
//! `BxTree` is `ShardedMovingIndex<BxKeyLayout>` and `PebTree` is
//! `ShardedMovingIndex<PebIndexLayout>` plus the privacy context — neither
//! re-implements any of the shared paths.

#![warn(missing_docs)]

pub mod error;
pub mod layout;
pub mod partition;
pub mod record;
pub mod shard;

pub use error::IndexError;
pub use layout::KeyLayout;
pub use partition::TimePartitioning;
pub use record::ObjectRecord;
pub use shard::{IndexStats, ScanReport, ShardedMovingIndex};
