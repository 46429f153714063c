//! Shard-local state of the sharded buffer pool: the frame table and its
//! LRU bookkeeping.
//!
//! One [`PoolShard`] lives behind each of the pool's lock shards. Nothing
//! in this module takes a lock — [`super::BufferPool`] owns all locking
//! and the shard ↔ disk interplay — so the types here are plain mutable
//! state and their methods are trivially deterministic: given the same
//! sequence of calls, a shard makes the same eviction decisions.
//!
//! The shard's LRU *clock* does not live here: it is an atomic beside the
//! mutex (see `ShardState` in the parent module) because optimistic reads
//! advance it without taking the lock. A frame's `last_used` records only
//! the page's most recent **locked** touch; optimistic touches land in
//! the shard's lock-free mirror and are folded in by
//! [`FrameTable::take_victim_by`]'s caller-supplied recency function.

use std::collections::HashMap;

use crate::page::{Page, PageId};
use crate::pool::IoStats;

/// One resident page plus its buffer-management metadata.
pub(super) struct Frame {
    /// The cached page contents.
    pub(super) page: Page,
    /// Whether the cached contents differ from the disk copy. A dirty
    /// frame is written back (and counted) on eviction, flush, or clear.
    pub(super) dirty: bool,
    /// Shard clock value of the frame's most recent *locked* touch (see
    /// the module docs for where optimistic touches live).
    pub(super) last_used: u64,
    /// LSN the log must be durable up to before the frame may reach the
    /// data disk — the log-before-page rule: its pre-image, or its
    /// post-image when the write was logged physically (0 when the frame
    /// was never written under durability).
    pub(super) lsn: u64,
    /// Whether the log already holds this exact content as a full image
    /// (a physical post-image or the allocation record), so a write-back
    /// needs no image of its own. A write a logical record describes
    /// clears it.
    pub(super) imaged: bool,
    /// Whether the frame is pinned resident: its disk sector is
    /// quarantined (read-repair failed twice), so the frame — backed by
    /// the WAL's image of it — is the page's only trustworthy copy and must
    /// never be evicted or flushed back to the bad sector.
    pub(super) pinned: bool,
}

/// A bounded `PageId → Frame` map with least-recently-used victim
/// selection.
///
/// The table never holds more than `capacity` frames: callers evict via
/// [`FrameTable::take_victim_by`] while [`FrameTable::is_full`] before
/// inserting. Victim selection is deterministic because every resident
/// frame carries a distinct effective recency (the owning shard's clock
/// advances on every touch, locked or optimistic), so the minimum is
/// unique.
pub(super) struct FrameTable {
    frames: HashMap<PageId, Frame>,
    capacity: usize,
}

impl FrameTable {
    /// An empty table that will hold at most `capacity` frames.
    pub(super) fn new(capacity: usize) -> Self {
        debug_assert!(capacity >= 1, "every pool shard owns at least one frame");
        FrameTable { frames: HashMap::with_capacity(capacity + 1), capacity }
    }

    /// Number of resident frames.
    pub(super) fn len(&self) -> usize {
        self.frames.len()
    }

    /// Maximum number of resident frames.
    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether an insert must be preceded by an eviction.
    pub(super) fn is_full(&self) -> bool {
        self.frames.len() >= self.capacity
    }

    /// Whether `pid` is resident.
    pub(super) fn contains(&self, pid: PageId) -> bool {
        self.frames.contains_key(&pid)
    }

    /// Shared access to a resident frame.
    pub(super) fn get(&self, pid: PageId) -> Option<&Frame> {
        self.frames.get(&pid)
    }

    /// Mutable access to a resident frame.
    pub(super) fn get_mut(&mut self, pid: PageId) -> Option<&mut Frame> {
        self.frames.get_mut(&pid)
    }

    /// Make `pid` resident. The caller must have evicted first if the
    /// table was full — unless eviction found no victim because every
    /// frame is pinned (quarantined), in which case the table may
    /// transiently exceed its budget rather than lose a page whose only
    /// good copy is in memory.
    pub(super) fn insert(&mut self, pid: PageId, frame: Frame) {
        debug_assert!(
            self.frames.len() < self.capacity + self.pinned_count(),
            "insert without eviction on a full shard with no pinned frames"
        );
        self.frames.insert(pid, frame);
    }

    /// Remove and return the unpinned frame with the lowest recency as
    /// computed by `recency` (the caller folds in optimistic touches from
    /// the mirror). Pinned (quarantined) frames are never victims. The
    /// caller writes the victim back to disk when dirty.
    pub(super) fn take_victim_by(
        &mut self,
        recency: impl Fn(PageId, &Frame) -> u64,
    ) -> Option<(PageId, Frame)> {
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| !f.pinned)
            .min_by_key(|(pid, f)| recency(**pid, f))
            .map(|(pid, _)| *pid)?;
        let frame = self.frames.remove(&victim).expect("victim resident");
        Some((victim, frame))
    }

    /// Remove every unpinned frame, returning them for write-back. Pinned
    /// (quarantined) frames stay resident: their disk sector holds bad
    /// bytes, so dropping the in-memory copy would lose the page.
    pub(super) fn drain_evictable(&mut self) -> Vec<(PageId, Frame)> {
        let evictable: Vec<PageId> =
            self.frames.iter().filter(|(_, f)| !f.pinned).map(|(pid, _)| *pid).collect();
        evictable
            .into_iter()
            .map(|pid| {
                let frame = self.frames.remove(&pid).expect("listed frame resident");
                (pid, frame)
            })
            .collect()
    }

    /// Number of pinned (quarantined) resident frames.
    pub(super) fn pinned_count(&self) -> usize {
        self.frames.values().filter(|f| f.pinned).count()
    }

    /// Page ids of the pinned (quarantined) resident frames, ascending.
    pub(super) fn pinned_pids(&self) -> Vec<PageId> {
        let mut pids: Vec<PageId> =
            self.frames.iter().filter(|(_, f)| f.pinned).map(|(pid, _)| *pid).collect();
        pids.sort_unstable();
        pids
    }

    /// All resident page ids in ascending order. The flush paths iterate
    /// in this order so the sequence of disk writes — and therefore every
    /// crash-injection op index — is deterministic (the map itself
    /// iterates in arbitrary order).
    pub(super) fn sorted_pids(&self) -> Vec<PageId> {
        let mut pids: Vec<PageId> = self.frames.keys().copied().collect();
        pids.sort_unstable();
        pids
    }

    /// Number of resident frames whose content differs from disk.
    pub(super) fn dirty_count(&self) -> usize {
        self.frames.values().filter(|f| f.dirty).count()
    }
}

/// Everything one lock shard's **mutex** protects: its slice of the frame
/// budget and its local slice of the I/O ledger. (The shard clock, the
/// versioned page mirror, and the lock-statistics counters sit beside the
/// mutex as atomics — see `ShardState` in the parent module.)
///
/// Keeping the counters shard-local is what makes the buffer-hit locked
/// path touch *only* this shard's lock; [`super::BufferPool::stats`]
/// reconstitutes the pool-wide ledger by summing the per-shard counters.
pub(super) struct PoolShard {
    /// The shard's resident pages.
    pub(super) table: FrameTable,
    /// Shard-local I/O counters for *locked* accesses (summed with the
    /// shard's atomic optimistic counters by `stats()`).
    pub(super) stats: IoStats,
}

impl PoolShard {
    /// An empty shard owning `capacity` frames of the pool's budget.
    pub(super) fn new(capacity: usize) -> Self {
        PoolShard { table: FrameTable::new(capacity), stats: IoStats::default() }
    }
}
