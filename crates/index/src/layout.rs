//! The key-composition seam between the shared
//! [`crate::ShardedMovingIndex`] machinery and a concrete engine (Bx or PEB).

/// How a concrete engine packs `(partition, Z-value, user)` into the one
/// `u128` index key of an object.
///
/// The layout may fold in additional per-user components — the PEB-tree's
/// layout inserts the policy sequence value `SV` between `TID` and `ZV`,
/// looked up from its privacy context by `uid` — as long as two invariants
/// hold, which the index's update/expiry paths rely on:
///
/// 1. **Partition dominance**: for fixed layout state, keys of partition
///    `tid` all sort inside `partition_range(tid)`, and ranges of distinct
///    partitions are disjoint.
/// 2. **Uid injectivity**: for fixed `(tid, zv)` and layout state, distinct
///    uids yield distinct keys (keys are unique in the B+-tree).
pub trait KeyLayout {
    /// Bits of the Z-curve value carried by a key (2 × grid bits per axis).
    fn zv_bits(&self) -> u32;

    /// Compose the full key of object `uid`, whose predicted position at
    /// the partition's label timestamp encodes to `zv`, in partition `tid`.
    fn key(&self, tid: u8, zv: u64, uid: u64) -> u128;

    /// Whether `uid` is an object this layout can compose a key for. Position
    /// reports arrive from outside the program; a layout whose keys depend
    /// on per-user state (the PEB layout's sequence values) answers `false`
    /// for a uid it has no state for, and the fallible upsert refuses the
    /// report instead of calling [`KeyLayout::key`] with it.
    #[inline]
    fn admits(&self, _uid: u64) -> bool {
        true
    }

    /// Inclusive `(lowest, highest)` key bounds of partition `tid`, over
    /// every other key component. Used for partition-wide scans (expiry /
    /// rollover migration).
    fn partition_range(&self, tid: u8) -> (u128, u128);

    /// Mask `zv` to the bits the key can carry. Positions are grid-clamped
    /// upstream, so this is a safety net for out-of-domain encodes.
    #[inline]
    fn mask_zv(&self, zv: u64) -> u64 {
        zv & ((1u64 << self.zv_bits()) - 1)
    }
}
