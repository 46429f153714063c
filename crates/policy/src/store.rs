//! Policy storage: one owner-sorted row of policies per viewer.
//!
//! The engine needs two lookups: *"which policies does `owner` grant
//! `viewer`?"* (query refinement) and *"who grants `viewer` anything?"*
//! (the friend list driving PRQ/PkNN search ranges). Both read one row:
//! every policy granted to a viewer sits in one contiguous `Vec`, sorted
//! by owner, so a pair's policies are a bisection away and a viewer's
//! granters are the row itself. Each policy is held exactly once; there is
//! no per-pair allocation and no reverse index. Policy updates are rare in
//! the paper's setting ("updated only rarely, e.g., when a user is blocked
//! by a previous friend") and cost one row's worth of shifting.
//!
//! The rows are keyed by viewer id in a map rather than in an array
//! indexed by it: ids are supplied by callers, and an array would let one
//! absurd id size an allocation.

use std::collections::HashMap;

use peb_common::{Point, Timestamp, UserId};

use crate::lpp::Policy;

/// All location-privacy policies in the system, one row per viewer.
///
/// The paper's experiments assume one policy per ordered pair, but Sec 8
/// names multi-policy pairs as future work; this store supports both
/// ([`PolicyStore::add`] replaces, [`PolicyStore::add_additional`] appends,
/// and [`PolicyStore::permits`] grants if *any* of the pair's policies
/// does).
#[derive(Debug, Default, Clone)]
pub struct PolicyStore {
    /// `viewer → policies granted to viewer`, sorted by owner; a pair's
    /// policies are adjacent, in the order they were added. No row is
    /// empty.
    rows: HashMap<UserId, Vec<Policy>>,
}

impl PolicyStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// A store from finished rows: `rows[v]` holds the policies granted to
    /// viewer `v`. Each row is sorted by owner (stably, so a pair keeps
    /// its policies' order); a policy toward its own owner is dropped, as
    /// [`PolicyStore::add`] would refuse it.
    pub fn from_rows(rows: Vec<Vec<Policy>>) -> Self {
        let mut store = PolicyStore::new();
        for (viewer, mut row) in rows.into_iter().enumerate() {
            let viewer = UserId(viewer as u64);
            row.retain(|p| p.owner != viewer);
            if !row.is_empty() {
                row.sort_by_key(|p| p.owner);
                store.rows.insert(viewer, row);
            }
        }
        store
    }

    /// Register `policy` as governing what `viewer` may see of
    /// `policy.owner`, replacing any previous policies for the pair.
    /// Returns whether it was stored: a policy toward oneself is
    /// meaningless and is refused.
    pub fn add(&mut self, viewer: UserId, policy: Policy) -> bool {
        if policy.owner == viewer {
            return false;
        }
        let row = self.rows.entry(viewer).or_default();
        let run = run_of(row, policy.owner);
        row.splice(run, [policy]);
        true
    }

    /// Append an additional policy for the pair (Sec 8's multi-policy
    /// extension): the owner is visible whenever *any* of the pair's
    /// policies permits. Returns whether it was stored, as for
    /// [`PolicyStore::add`].
    pub fn add_additional(&mut self, viewer: UserId, policy: Policy) -> bool {
        if policy.owner == viewer {
            return false;
        }
        let row = self.rows.entry(viewer).or_default();
        let end = run_of(row, policy.owner).end;
        row.insert(end, policy);
        true
    }

    /// Remove every policy of `owner` toward `viewer` ("blocking a
    /// previous friend").
    pub fn remove(&mut self, owner: UserId, viewer: UserId) -> Option<Vec<Policy>> {
        let row = self.rows.get_mut(&viewer)?;
        let removed: Vec<Policy> = row.drain(run_of(row, owner)).collect();
        if row.is_empty() {
            self.rows.remove(&viewer);
        }
        (!removed.is_empty()).then_some(removed)
    }

    /// The first policy `owner` has toward `viewer`, if any (the paper's
    /// one-policy-per-pair view).
    pub fn policy(&self, owner: UserId, viewer: UserId) -> Option<&Policy> {
        self.policies(owner, viewer).first()
    }

    /// All policies `owner` has toward `viewer` (multi-policy extension).
    pub fn policies(&self, owner: UserId, viewer: UserId) -> &[Policy] {
        let row = self.row(viewer);
        &row[run_of(row, owner)]
    }

    /// Definition 2's full policy check: may `viewer` see `owner`, located
    /// at `owner_pos`, at time `t`? With multiple policies for the pair,
    /// any one of them suffices.
    pub fn permits(&self, owner: UserId, viewer: UserId, owner_pos: &Point, t: Timestamp) -> bool {
        self.policies(owner, viewer).iter().any(|p| p.permits(owner_pos, t))
    }

    /// Every policy granted to `viewer`, sorted by owner: the raw friend
    /// list of a query issuer, with each friend's policies inline.
    pub fn row(&self, viewer: UserId) -> &[Policy] {
        self.rows.get(&viewer).map_or(&[], Vec::as_slice)
    }

    /// Every non-empty row with its viewer, in no particular order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (UserId, &[Policy])> {
        self.rows.iter().map(|(v, row)| (*v, row.as_slice()))
    }

    /// Total number of (directed) policies across all pairs.
    pub fn len(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over every `(owner, viewer, policy)` triple.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserId, &Policy)> {
        self.rows().flat_map(|(v, row)| row.iter().map(move |p| (p.owner, v, p)))
    }
}

/// The index range of `owner`'s policies in an owner-sorted row (empty, at
/// the insertion point, when there are none).
fn run_of(row: &[Policy], owner: UserId) -> std::ops::Range<usize> {
    let start = row.partition_point(|p| p.owner < owner);
    let len = row[start..].partition_point(|p| p.owner == owner);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpp::RoleId;
    use peb_common::{Rect, TimeInterval};

    fn policy(owner: u64) -> Policy {
        Policy::new(
            UserId(owner),
            RoleId::FRIEND,
            Rect::new(0.0, 100.0, 0.0, 100.0),
            TimeInterval::new(0.0, 100.0),
        )
    }

    fn lasting(owner: u64, end: f64) -> Policy {
        Policy { tint: TimeInterval::new(0.0, end), ..policy(owner) }
    }

    fn owners(s: &PolicyStore, viewer: u64) -> Vec<u64> {
        s.row(UserId(viewer)).iter().map(|p| p.owner.0).collect()
    }

    #[test]
    fn add_and_lookup() {
        let mut s = PolicyStore::new();
        assert!(s.add(UserId(2), policy(1)));
        assert!(s.policy(UserId(1), UserId(2)).is_some());
        assert!(s.policy(UserId(2), UserId(1)).is_none(), "policies are directed");
        assert_eq!(owners(&s, 2), vec![1]);
        assert!(s.row(UserId(1)).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn replace_does_not_duplicate_indexes() {
        let mut s = PolicyStore::new();
        s.add(UserId(2), policy(1));
        s.add(UserId(2), lasting(1, 50.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.policies(UserId(1), UserId(2)), &[lasting(1, 50.0)]);
    }

    #[test]
    fn rows_stay_owner_sorted_under_any_insertion_order() {
        let mut s = PolicyStore::new();
        for o in [7u64, 3, 9, 1, 5] {
            s.add(UserId(0), policy(o));
        }
        s.add_additional(UserId(0), lasting(3, 10.0));
        s.add_additional(UserId(0), lasting(3, 20.0));
        assert_eq!(owners(&s, 0), vec![1, 3, 3, 3, 5, 7, 9]);
        let ends: Vec<f64> = s.policies(UserId(3), UserId(0)).iter().map(|p| p.tint.end).collect();
        assert_eq!(ends, vec![100.0, 10.0, 20.0], "a pair keeps its policies in added order");
        assert!(s.policies(UserId(4), UserId(0)).is_empty());
    }

    #[test]
    fn remove_unlinks_both_indexes() {
        let mut s = PolicyStore::new();
        s.add(UserId(2), policy(1));
        assert!(s.remove(UserId(1), UserId(2)).is_some());
        assert!(s.remove(UserId(1), UserId(2)).is_none());
        assert!(s.remove(UserId(5), UserId(9)).is_none(), "no row, nothing removed");
        assert!(s.row(UserId(2)).is_empty());
        assert!(s.is_empty(), "an emptied row goes");
    }

    #[test]
    fn permits_applies_policy_conditions() {
        let mut s = PolicyStore::new();
        s.add(UserId(2), policy(1));
        let inside = peb_common::Point::new(50.0, 50.0);
        let outside = peb_common::Point::new(500.0, 50.0);
        assert!(s.permits(UserId(1), UserId(2), &inside, 50.0));
        assert!(!s.permits(UserId(1), UserId(2), &outside, 50.0));
        assert!(!s.permits(UserId(1), UserId(2), &inside, 500.0));
        assert!(!s.permits(UserId(1), UserId(3), &inside, 50.0), "no policy, no access");
    }

    #[test]
    fn a_self_policy_is_refused() {
        let mut s = PolicyStore::new();
        assert!(!s.add(UserId(1), policy(1)));
        assert!(!s.add_additional(UserId(1), policy(1)));
        assert!(s.is_empty());
        let from_rows = PolicyStore::from_rows(vec![vec![], vec![policy(1), policy(0)]]);
        assert_eq!(owners(&from_rows, 1), vec![0], "from_rows drops it too");
    }

    #[test]
    fn absurd_ids_are_stored_without_sizing_anything() {
        let mut s = PolicyStore::new();
        assert!(s.add(UserId(u64::MAX), policy(u64::MAX - 1)));
        assert!(s.add(UserId(3), policy(u64::MAX)));
        assert!(s.policy(UserId(u64::MAX - 1), UserId(u64::MAX)).is_some());
        assert_eq!(owners(&s, 3), vec![u64::MAX]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn a_clone_keeps_every_policy_of_a_multi_policy_pair() {
        let mut s = PolicyStore::new();
        s.add(UserId(2), policy(1));
        s.add_additional(UserId(2), lasting(1, 10.0));
        s.add_additional(UserId(2), lasting(1, 20.0));
        s.add(UserId(1), policy(2));
        let copy = s.clone();
        assert_eq!(copy.len(), 4);
        assert_eq!(copy.policies(UserId(1), UserId(2)), s.policies(UserId(1), UserId(2)));
        assert_eq!(copy.policies(UserId(1), UserId(2)).len(), 3);
        assert_eq!(copy.policies(UserId(2), UserId(1)), &[policy(2)]);
    }

    #[test]
    fn from_rows_sorts_each_row_stably() {
        let rows = vec![vec![lasting(4, 1.0), policy(2), lasting(4, 2.0)], vec![], vec![policy(0)]];
        let s = PolicyStore::from_rows(rows);
        assert_eq!(owners(&s, 0), vec![2, 4, 4]);
        let ends: Vec<f64> = s.policies(UserId(4), UserId(0)).iter().map(|p| p.tint.end).collect();
        assert_eq!(ends, vec![1.0, 2.0]);
        assert_eq!(s.rows().count(), 2, "no empty rows");
        assert_eq!(s.len(), 4);
    }
}
