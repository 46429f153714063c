//! Per-user friend lists sorted by sequence value.
//!
//! Sec 5.3: "we maintain a list for each user that stores the SV values of
//! users who have policies with respect to the list owner … in ascending
//! order of their SV values". These lists drive both query algorithms: PRQ
//! crosses every friend SV with the query's Z-intervals, and PkNN walks the
//! search matrix column-by-friend. They change only on policy updates, not
//! on location updates.

use peb_common::UserId;

use crate::lpp::Policy;
use crate::seqval::SequenceValues;
use crate::store::PolicyStore;

/// One friend of a list owner: a user who has a policy mentioning the
/// owner, keyed by the friend's fixed-point SV code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FriendEntry {
    pub sv_code: u64,
    pub uid: UserId,
}

/// All friend lists, indexed by the dense user id space.
#[derive(Debug, Clone)]
pub struct FriendIndex {
    lists: Vec<Vec<FriendEntry>>,
}

impl FriendIndex {
    /// Build every user's friend list from the policy store: the friends of
    /// `q` are the *owners* of policies toward `q` (only they can ever
    /// appear in `q`'s query results), read off `q`'s row. Users outside
    /// `0..num_users` have no list and are on none.
    pub fn build(store: &PolicyStore, sv: &SequenceValues, num_users: usize) -> Self {
        let mut lists: Vec<Vec<FriendEntry>> = vec![Vec::new(); num_users];
        for (viewer, row) in store.rows() {
            if let Some(list) = lists.get_mut(viewer.as_index()) {
                *list = entries(row, sv);
            }
        }
        FriendIndex { lists }
    }

    /// The SV-ascending friend list of `uid`. Empty for a uid outside the
    /// encoded population: query issuers arrive from outside the program,
    /// and nobody has a policy toward a stranger.
    pub fn friends(&self, uid: UserId) -> &[FriendEntry] {
        self.lists.get(uid.as_index()).map_or(&[], Vec::as_slice)
    }

    /// The friend list of `uid` cut into its **SV groups**: maximal runs of
    /// equal SV code, ascending. This is the one definition of "group" —
    /// the rows of the PkNN search matrix, the SV ranges of PRQ, and the
    /// unit a query plan skips once all its members are located.
    pub fn sv_groups(&self, uid: UserId) -> impl Iterator<Item = &[FriendEntry]> {
        self.friends(uid).chunk_by(|a, b| a.sv_code == b.sv_code)
    }

    /// `SVmin`/`SVmax` over the friend list, if non-empty.
    pub fn sv_bounds(&self, uid: UserId) -> Option<(u64, u64)> {
        let l = self.friends(uid);
        Some((l.first()?.sv_code, l.last()?.sv_code))
    }

    /// Re-derive one user's list after a policy update ("a user is blocked
    /// by a previous friend or adds a new friend"). Returns whether `uid`
    /// has a list to refresh: a uid outside the population has none.
    pub fn refresh_user(&mut self, store: &PolicyStore, sv: &SequenceValues, uid: UserId) -> bool {
        let Some(list) = self.lists.get_mut(uid.as_index()) else { return false };
        *list = entries(store.row(uid), sv);
        true
    }
}

/// A viewer's friend list from its owner-sorted row: one entry per owner
/// inside the encoded population, SV-ascending.
fn entries(row: &[Policy], sv: &SequenceValues) -> Vec<FriendEntry> {
    let mut list: Vec<FriendEntry> = row
        .chunk_by(|a, b| a.owner == b.owner)
        .map(|run| run[0].owner)
        .filter(|owner| owner.as_index() < sv.num_users())
        .map(|owner| FriendEntry { sv_code: sv.code(owner), uid: owner })
        .collect();
    list.sort_unstable_by_key(|e| (e.sv_code, e.uid));
    list
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpp::{Policy, RoleId};
    use crate::seqval::SvAssignmentParams;
    use peb_common::{Rect, SpaceConfig, TimeInterval};

    fn fixture() -> (PolicyStore, SequenceValues) {
        let space = SpaceConfig::new(1000.0, 10, 1000.0);
        let mut store = PolicyStore::new();
        let region = Rect::new(0.0, 500.0, 0.0, 500.0);
        let when = TimeInterval::new(0.0, 500.0);
        // Owners 1, 2, 3 grant viewer 0; owner 3 also grants viewer 1.
        for owner in [1u64, 2, 3] {
            store.add(UserId(0), Policy::new(UserId(owner), RoleId::FRIEND, region, when));
        }
        store.add(UserId(1), Policy::new(UserId(3), RoleId::FRIEND, region, when));
        let sv = SequenceValues::assign(&store, &space, 4, SvAssignmentParams::default());
        (store, sv)
    }

    #[test]
    fn friends_are_policy_owners_sorted_by_sv() {
        let (store, sv) = fixture();
        let idx = FriendIndex::build(&store, &sv, 4);
        let f0 = idx.friends(UserId(0));
        assert_eq!(f0.len(), 3);
        let mut ids: Vec<u64> = f0.iter().map(|e| e.uid.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(f0.windows(2).all(|w| w[0].sv_code <= w[1].sv_code), "ascending SV");
        // Viewer 1's only granter is owner 3.
        assert_eq!(idx.friends(UserId(1)).iter().map(|e| e.uid.0).collect::<Vec<_>>(), vec![3]);
        // Owners don't gain friends by granting.
        assert!(idx.friends(UserId(2)).is_empty());
    }

    #[test]
    fn sv_groups_are_the_runs_of_equal_code() {
        let list = |codes: &[u64]| FriendIndex {
            lists: vec![codes
                .iter()
                .enumerate()
                .map(|(i, &sv_code)| FriendEntry { sv_code, uid: UserId(i as u64 + 1) })
                .collect()],
        };
        let sizes = |idx: &FriendIndex| -> Vec<(u64, usize)> {
            idx.sv_groups(UserId(0)).map(|g| (g[0].sv_code, g.len())).collect()
        };
        assert_eq!(sizes(&list(&[3, 3, 7, 9, 9, 9])), vec![(3, 2), (7, 1), (9, 3)]);
        assert_eq!(sizes(&list(&[5])), vec![(5, 1)]);
        assert!(sizes(&list(&[])).is_empty());
        assert!(list(&[1]).sv_groups(UserId(44)).next().is_none(), "a stranger has no groups");
    }

    #[test]
    fn sv_bounds() {
        let (store, sv) = fixture();
        let idx = FriendIndex::build(&store, &sv, 4);
        let (lo, hi) = idx.sv_bounds(UserId(0)).unwrap();
        assert!(lo <= hi);
        assert_eq!(idx.sv_bounds(UserId(2)), None);
    }

    #[test]
    fn refreshing_a_uid_outside_the_population_is_refused() {
        let (store, sv) = fixture();
        let mut idx = FriendIndex::build(&store, &sv, 4);
        assert!(!idx.refresh_user(&store, &sv, UserId(4)));
        assert!(!idx.refresh_user(&store, &sv, UserId(u64::MAX)));
        assert!(idx.friends(UserId(u64::MAX)).is_empty());
        assert!(idx.refresh_user(&store, &sv, UserId(0)));
        assert_eq!(idx.friends(UserId(0)).len(), 3);
    }

    #[test]
    fn owners_outside_the_population_are_on_no_list() {
        let (mut store, sv) = fixture();
        let region = Rect::new(0.0, 500.0, 0.0, 500.0);
        let when = TimeInterval::new(0.0, 500.0);
        store.add(UserId(1), Policy::new(UserId(9), RoleId::FRIEND, region, when));
        store.add(UserId(1), Policy::new(UserId(u64::MAX), RoleId::FRIEND, region, when));
        let mut idx = FriendIndex::build(&store, &sv, 4);
        let ids = |idx: &FriendIndex| -> Vec<u64> {
            idx.friends(UserId(1)).iter().map(|e| e.uid.0).collect()
        };
        assert_eq!(ids(&idx), vec![3]);
        assert!(idx.refresh_user(&store, &sv, UserId(1)));
        assert_eq!(ids(&idx), vec![3]);
    }

    #[test]
    fn refresh_after_block() {
        let (mut store, sv) = fixture();
        let mut idx = FriendIndex::build(&store, &sv, 4);
        store.remove(UserId(3), UserId(0)); // u3 blocks u0
        idx.refresh_user(&store, &sv, UserId(0));
        let ids: Vec<u64> = idx.friends(UserId(0)).iter().map(|e| e.uid.0).collect();
        assert!(!ids.contains(&3));
        assert_eq!(ids.len(), 2);
    }
}
