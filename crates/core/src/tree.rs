//! The PEB-tree structure: a B+-tree over PEB keys with Bx-style time
//! partitioning (Sec 5.2).
//!
//! Leaf records are identical to the Bx-tree's (`⟨key, UID, x, y, vx, vy,
//! t⟩`, with the policy pointer `Pntp` implied by the dense uid). Insertion
//! and deletion are single-path B+-tree operations, so the PEB-tree keeps
//! the update performance that motivated building on the B+-tree.
//!
//! All engine-independent machinery is the shared
//! [`peb_index::ShardedMovingIndex`] (one B+-tree per rotating time
//! partition, each behind its own lock); this module contributes the PEB
//! key layout (which folds the privacy-policy sequence value into every
//! key) and the handle the privacy-aware query algorithms ([`crate::prq`],
//! [`crate::pknn`], [`crate::circle`]) hang off.

use std::sync::Arc;

use peb_common::{MovingPoint, SpaceConfig, UserId};
use peb_index::{IndexStats, KeyLayout, ShardedMovingIndex, TimePartitioning};
use peb_storage::BufferPool;

use crate::context::PrivacyContext;
use crate::keys::{PebKeyLayout, SV_BITS};

/// The PEB key layout *bound to a privacy context*: key composition needs
/// the owner's sequence value, which [`PrivacyContext`] maps from the uid.
/// This is the [`KeyLayout`] the shared [`ShardedMovingIndex`] machinery
/// calls into; the pure bit packing lives in [`PebKeyLayout`].
pub struct PebIndexLayout {
    pub keys: PebKeyLayout,
    pub ctx: Arc<PrivacyContext>,
}

impl KeyLayout for PebIndexLayout {
    fn zv_bits(&self) -> u32 {
        self.keys.zv_bits
    }

    fn key(&self, tid: u8, zv: u64, uid: u64) -> u128 {
        self.keys.key(tid, self.ctx.sv_code(UserId(uid)), zv, uid)
    }

    fn admits(&self, uid: u64) -> bool {
        uid < self.ctx.seqvals.num_users() as u64
    }

    fn partition_range(&self, tid: u8) -> (u128, u128) {
        let max_sv = (1u64 << SV_BITS) - 1;
        let max_zv = (1u64 << self.keys.zv_bits) - 1;
        (self.keys.range_start(tid, 0, 0), self.keys.range_end(tid, max_sv, max_zv))
    }
}

/// The Policy-Embedded Bx-tree: the shared index under the PEB key layout.
/// Updates, lookups, stats and scans are the index's own methods, reached
/// through `Deref`; this type adds the layout-binding constructors, the
/// privacy context and the query algorithms. The deref is immutable only:
/// [`ShardedMovingIndex::layout_mut`] stays unreachable from outside, so
/// the context can only change through [`PebTree::ctx_mut`] and
/// [`PebTree::refresh_sequence_values`].
pub struct PebTree {
    idx: ShardedMovingIndex<PebIndexLayout>,
}

impl std::ops::Deref for PebTree {
    type Target = ShardedMovingIndex<PebIndexLayout>;

    fn deref(&self) -> &Self::Target {
        &self.idx
    }
}

impl PebTree {
    pub fn new(
        pool: Arc<BufferPool>,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
        ctx: Arc<PrivacyContext>,
    ) -> Self {
        let layout = PebIndexLayout { keys: PebKeyLayout::new(space.grid_bits), ctx };
        PebTree { idx: ShardedMovingIndex::new(pool, layout, space, part, max_speed) }
    }

    /// Bulk-load an initial user population (each user must appear once).
    /// Builds each partition's B+-tree bottom-up at the given fill factor;
    /// equivalent to upserting every user one by one.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
        ctx: Arc<PrivacyContext>,
        users: &[MovingPoint],
        fill: f64,
    ) -> Self {
        let layout = PebIndexLayout { keys: PebKeyLayout::new(space.grid_bits), ctx };
        PebTree {
            idx: ShardedMovingIndex::bulk_load(pool, layout, space, part, max_speed, users, fill),
        }
    }

    /// Switch write-ahead logging on or off
    /// ([`ShardedMovingIndex::set_durable`]). Kept here because it needs
    /// `&mut self` and the handle deliberately derefs immutably only.
    pub fn set_durable(&mut self, on: bool) {
        self.idx.set_durable(on);
    }

    /// Rebuild a PEB-tree from a recovered pool after a crash (see
    /// [`peb_index::ShardedMovingIndex::recover`]). The privacy context
    /// is not persisted by the index — the caller supplies the same
    /// context (or a rebuilt equivalent) that was live before the crash;
    /// a context whose SV codes drifted is tolerated exactly like any
    /// other stale-SV state (queries stay correct, keys refresh on the
    /// next [`PebTree::refresh_sequence_values`] pass).
    pub fn recover(
        pool: Arc<BufferPool>,
        recovery: &peb_storage::WalRecovery,
        space: SpaceConfig,
        part: TimePartitioning,
        max_speed: f64,
        ctx: Arc<PrivacyContext>,
    ) -> Self {
        let layout = PebIndexLayout { keys: PebKeyLayout::new(space.grid_bits), ctx };
        PebTree { idx: ShardedMovingIndex::recover(pool, recovery, layout, space, part, max_speed) }
    }

    /// Swap in a rebuilt privacy context and re-key every live object
    /// whose sequence value changed, returning how many moved. This is
    /// the policy-churn maintenance pass: a policy grant/revoke reshuffles
    /// SV codes, and since the SV sits above ZV in every PEB key (Eq. 5),
    /// affected objects must move to new leaf neighborhoods. Only the SV
    /// component is rewritten — TID, ZV and UID are preserved — so the
    /// pass never crosses partition boundaries and runs shard-atomically
    /// ([`peb_index::ShardedMovingIndex::rekey_where`]).
    pub fn refresh_sequence_values(&mut self, ctx: Arc<PrivacyContext>) -> usize {
        self.idx.layout_mut().ctx = ctx;
        let keys = self.idx.layout().keys;
        let ctx = Arc::clone(&self.idx.layout().ctx);
        self.idx.rekey_where(|uid, old| {
            let sv = ctx.sv_code(uid);
            (sv != keys.sv_of(old))
                .then(|| keys.key(keys.tid_of(old), sv, keys.zv_of(old), keys.uid_of(old)))
        })
    }

    /// The shared moving-object index core (what the handle derefs to).
    pub fn index(&self) -> &ShardedMovingIndex<PebIndexLayout> {
        &self.idx
    }

    pub fn context(&self) -> &Arc<PrivacyContext> {
        &self.idx.layout().ctx
    }

    /// Mutable access to the privacy context for runtime policy updates.
    /// Callers use `Arc::get_mut` (exclusive contexts) or rebuild the
    /// context; stale sequence values are tolerated by design (DESIGN.md
    /// §11) — queries stay correct because refinement consults the live
    /// policy store.
    pub fn ctx_mut(&mut self) -> &mut Arc<PrivacyContext> {
        &mut self.idx.layout_mut().ctx
    }

    /// Shorthand used by the query algorithms in this crate.
    pub(crate) fn ctx(&self) -> &PrivacyContext {
        &self.idx.layout().ctx
    }

    /// The pure PEB key bit packing (for key introspection).
    pub fn key_layout(&self) -> &PebKeyLayout {
        &self.idx.layout().keys
    }

    /// The whole SV row `[TID ⊕ SV ⊕ 0 ; TID ⊕ SV ⊕ max]` of one partition:
    /// the emission row of every query plan (a page in hand answers for
    /// all of a friend group, wherever in space its members are).
    pub(crate) fn sv_row(&self, tid: u8, sv_code: u64) -> (u128, u128) {
        let keys = &self.idx.layout().keys;
        let max_zv = (1u64 << keys.zv_bits) - 1;
        (keys.range_start(tid, sv_code, 0), keys.range_end(tid, sv_code, max_zv))
    }

    /// The cost-model interval budget for this tree's current shape: how
    /// many Z-ranges per partition a query keeps
    /// ([`peb_costmodel::interval_budget`] over the issuer's friend count
    /// and the live leaf count).
    pub(crate) fn query_interval_budget(&self, candidates: usize) -> usize {
        peb_costmodel::interval_budget(candidates, self.leaf_page_count())
    }
}

/// Operational summary of a PEB-tree (the shared core's stats).
pub type PebTreeStats = IndexStats;

#[cfg(test)]
mod tests {
    use super::*;
    use peb_common::{Point, Rect, TimeInterval, Vec2};
    use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};

    fn simple_ctx(num_users: usize) -> Arc<PrivacyContext> {
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let always = TimeInterval::new(0.0, 1440.0);
        // Everyone grants user 0.
        for o in 1..num_users as u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, whole, always));
        }
        Arc::new(PrivacyContext::build(store, space, num_users, SvAssignmentParams::default()))
    }

    fn tree(ctx: Arc<PrivacyContext>) -> PebTree {
        PebTree::new(
            Arc::new(BufferPool::new(64)),
            SpaceConfig::default(),
            TimePartitioning::default(),
            3.0,
            ctx,
        )
    }

    fn still(uid: u64, x: f64, y: f64, t: f64) -> MovingPoint {
        MovingPoint::new(UserId(uid), Point::new(x, y), Vec2::ZERO, t)
    }

    #[test]
    fn upsert_get_remove_roundtrip() {
        let t = tree(simple_ctx(4));
        t.upsert(still(1, 100.0, 200.0, 0.0));
        t.upsert(still(2, 300.0, 400.0, 0.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(UserId(1)).unwrap().pos, Point::new(100.0, 200.0));
        t.upsert(still(1, 111.0, 222.0, 5.0));
        assert_eq!(t.len(), 2, "update must not duplicate");
        assert_eq!(t.get(UserId(1)).unwrap().pos, Point::new(111.0, 222.0));
        assert!(t.remove(UserId(1)));
        assert_eq!(t.len(), 1);
        assert!(t.get(UserId(1)).is_none());
    }

    #[test]
    fn key_embeds_sequence_value() {
        let ctx = simple_ctx(4);
        let t = tree(Arc::clone(&ctx));
        let m = still(2, 500.0, 500.0, 0.0);
        let key = t.key_for(&m);
        assert_eq!(t.key_layout().sv_of(key), ctx.sv_code(UserId(2)));
        assert_eq!(t.key_layout().uid_of(key), 2);
    }

    #[test]
    fn policy_compatible_users_cluster_on_disk() {
        // Two mutually-visible users far apart in space must still receive
        // adjacent keys, while an unrelated user between them sorts away —
        // the core claim behind Fig 6 vs Fig 4.
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let always = TimeInterval::new(0.0, 1440.0);
        store.add(UserId(1), Policy::new(UserId(0), RoleId::FRIEND, whole, always));
        store.add(UserId(0), Policy::new(UserId(1), RoleId::FRIEND, whole, always));
        let ctx = Arc::new(PrivacyContext::build(store, space, 3, SvAssignmentParams::default()));
        let t = tree(Arc::clone(&ctx));
        let k0 = t.key_for(&still(0, 10.0, 10.0, 0.0));
        let k1 = t.key_for(&still(1, 990.0, 990.0, 0.0)); // same SV (C = 1)
        let k2 = t.key_for(&still(2, 500.0, 500.0, 0.0)); // unrelated
        let d01 = k0.abs_diff(k1);
        let d02 = k0.abs_diff(k2);
        assert!(d01 < d02, "related users must be closer in key space: d01 = {d01}, d02 = {d02}");
    }

    #[test]
    fn scan_interval_filters_by_sv_and_zv() {
        let ctx = simple_ctx(8);
        let t = tree(Arc::clone(&ctx));
        for i in 0..8u64 {
            t.upsert(still(i, 100.0 + i as f64, 100.0, 0.0));
        }
        // Scanning the full ZV range of user 3's SV group must find user 3.
        let sv3 = ctx.sv_code(UserId(3));
        let (lo, hi) = t.sv_row(t.live_partitions()[0].0, sv3);
        let mut seen = Vec::new();
        t.index().scan_keys(lo, hi, |_, rec| {
            seen.push(rec.uid);
            true
        });
        assert!(seen.contains(&3));
        // And must not include users with different SV codes.
        for uid in &seen {
            assert_eq!(ctx.sv_code(UserId(*uid)), sv3);
        }
    }

    #[test]
    fn refresh_sequence_values_rekeys_changed_objects() {
        // A policy churn reshuffles SV codes; the refresh pass must move
        // exactly the affected objects to their new key neighborhoods
        // without disturbing the records.
        let space = SpaceConfig::default();
        let empty_ctx = Arc::new(PrivacyContext::build(
            PolicyStore::new(),
            space,
            8,
            SvAssignmentParams::default(),
        ));
        let friendly_ctx = simple_ctx(8);
        let changed: usize = (0..8u64)
            .filter(|&i| empty_ctx.sv_code(UserId(i)) != friendly_ctx.sv_code(UserId(i)))
            .count();
        assert!(changed > 0, "the two contexts must disagree for the test to bite");

        let mut t = tree(Arc::clone(&empty_ctx));
        for i in 0..8u64 {
            t.upsert(still(i, 100.0 + i as f64, 100.0, 0.0));
        }
        let before: Vec<_> = (0..8u64).map(|i| t.get(UserId(i)).unwrap()).collect();

        let moved = t.refresh_sequence_values(Arc::clone(&friendly_ctx));
        assert_eq!(moved, changed);
        for i in 0..8u64 {
            let k = t.index().current_key_of(UserId(i)).unwrap();
            assert_eq!(
                t.key_layout().sv_of(k),
                friendly_ctx.sv_code(UserId(i)),
                "key must embed the refreshed SV"
            );
            assert_eq!(t.get(UserId(i)).unwrap(), before[i as usize], "records unchanged");
        }
        assert_eq!(t.refresh_sequence_values(Arc::clone(&friendly_ctx)), 0, "idempotent");
        // The refreshed tree answers queries with the new context.
        let got = t.prq(UserId(0), &Rect::new(0.0, 1000.0, 0.0, 1000.0), 10.0);
        assert_eq!(got.len(), 7, "all friends visible after the re-key");
    }

    #[test]
    fn stats_track_population_and_partitions() {
        let space = SpaceConfig::default();
        let ctx = Arc::new(PrivacyContext::build(
            PolicyStore::new(),
            space,
            100,
            SvAssignmentParams::default(),
        ));
        let t = PebTree::new(
            Arc::new(BufferPool::new(64)),
            space,
            TimePartitioning::default(),
            3.0,
            ctx,
        );
        for i in 0..100u64 {
            let tu = if i % 2 == 0 { 10.0 } else { 70.0 }; // two phases
            t.upsert(MovingPoint::new(
                UserId(i),
                Point::new(i as f64 * 9.0, 500.0),
                Vec2::ZERO,
                tu,
            ));
        }
        let s = t.stats();
        assert_eq!(s.objects, 100);
        assert_eq!(s.tree.entries, 100);
        assert_eq!(s.partitions.len(), 2);
        assert!(s.tree.avg_leaf_fill > 0.0);
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;
    use peb_common::{Point, Rect, TimeInterval, Vec2};
    use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};

    #[test]
    fn bulk_load_matches_incremental_build() {
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let always = TimeInterval::new(0.0, 1440.0);
        for o in 1..200u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, whole, always));
        }
        let ctx = Arc::new(PrivacyContext::build(store, space, 200, SvAssignmentParams::default()));
        let users: Vec<MovingPoint> = (0..200u64)
            .map(|i| {
                MovingPoint::new(
                    UserId(i),
                    Point::new((i % 40) as f64 * 25.0 + 5.0, (i / 40) as f64 * 190.0 + 10.0),
                    Vec2::new(0.5, -0.5),
                    0.0,
                )
            })
            .collect();

        let part = TimePartitioning::default();
        let bulk = PebTree::bulk_load(
            Arc::new(BufferPool::new(64)),
            space,
            part,
            3.0,
            Arc::clone(&ctx),
            &users,
            1.0,
        );
        let inc = PebTree::new(Arc::new(BufferPool::new(64)), space, part, 3.0, Arc::clone(&ctx));
        for m in &users {
            inc.upsert(*m);
        }
        assert_eq!(bulk.len(), inc.len());
        let window = Rect::new(0.0, 600.0, 0.0, 600.0);
        let a: Vec<UserId> = bulk.prq(UserId(0), &window, 20.0).iter().map(|m| m.uid).collect();
        let b: Vec<UserId> = inc.prq(UserId(0), &window, 20.0).iter().map(|m| m.uid).collect();
        assert_eq!(a, b, "bulk-loaded PEB-tree answers queries identically");
        // Updates keep working on a bulk-loaded tree.
        bulk.upsert(MovingPoint::new(UserId(5), Point::new(900.0, 900.0), Vec2::ZERO, 10.0));
        assert!(bulk.remove(UserId(7)));
        assert_eq!(bulk.len(), users.len() - 1);
    }
}

#[cfg(test)]
mod expiry_tests {
    use super::*;
    use peb_common::{Point, Rect, TimeInterval, Vec2};
    use peb_policy::{Policy, PolicyStore, RoleId, SvAssignmentParams};

    #[test]
    fn stale_users_disappear_from_queries_after_expiry() {
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let always = TimeInterval::new(0.0, 1440.0);
        for o in [1u64, 2] {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, whole, always));
        }
        let ctx = Arc::new(PrivacyContext::build(store, space, 3, SvAssignmentParams::default()));
        let t = PebTree::new(
            Arc::new(BufferPool::new(64)),
            space,
            TimePartitioning::new(120.0, 2),
            3.0,
            ctx,
        );
        t.upsert(MovingPoint::new(UserId(1), Point::new(100.0, 100.0), Vec2::ZERO, 10.0));
        t.upsert(MovingPoint::new(UserId(2), Point::new(110.0, 110.0), Vec2::ZERO, 130.0));

        let dropped = t.expire_stale(200.0);
        assert_eq!(dropped, 1);
        let got = t.prq(UserId(0), &Rect::new(0.0, 300.0, 0.0, 300.0), 200.0);
        assert_eq!(got.iter().map(|m| m.uid.0).collect::<Vec<_>>(), vec![2]);
    }
}
