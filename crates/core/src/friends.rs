//! Which of the issuer's friends a query still has to locate.
//!
//! "A user has only one location": once a friend's record has been seen —
//! in any partition, inside a scanned window or merely on a page read for
//! another reason — no other key interval can hold them. The query plans
//! run one scan per partition (PRQ) or anti-diagonal (PkNN) over many SV
//! rows, so the bookkeeping is shared here, and turned into the scan's
//! steering verdict.

use peb_btree::Visit;
use peb_common::UserId;
use peb_policy::FriendIndex;

/// The issuer's own friend table: the SV groups of their list
/// ([`FriendIndex::sv_groups`]) with how many members each still misses,
/// and every listed friend by uid. Built per query from the sorted list
/// alone — two flat arrays, no hashing.
///
/// The table is the candidate **pre-filter** of both query plans: a record
/// whose uid is not on the issuer's list is dropped here, by bisection,
/// without touching the policy store. It never admits anyone —
/// `PolicyStore::permits` on the live store stays the last word on every
/// result, so a friend who revoked the grant but is still listed is
/// located and then refused.
///
/// **Granted but not listed.** The list is as fresh as its last
/// [`FriendIndex::refresh_user`]. A user who granted the issuer a policy
/// after that is not on it: their SV row is not planned, and a page read
/// for someone else that happens to hold them no longer surfaces them
/// either. They appear in answers once `refresh_user` has run for the
/// issuer — which completeness required all along.
pub(crate) struct Friends {
    /// Per SV group, ascending: its code and how many listed members are
    /// not yet located.
    groups: Vec<(u64, usize)>,
    /// Every listed friend, ascending uid: `(uid, group, located)`.
    by_uid: Vec<(UserId, usize, bool)>,
    missing_total: usize,
}

impl Friends {
    pub(crate) fn new(index: &FriendIndex, issuer: UserId) -> Self {
        let listed = index.friends(issuer).len();
        let mut groups = Vec::new();
        let mut by_uid = Vec::with_capacity(listed);
        for group in index.sv_groups(issuer) {
            by_uid.extend(group.iter().map(|f| (f.uid, groups.len(), false)));
            groups.push((group[0].sv_code, group.len()));
        }
        by_uid.sort_unstable_by_key(|&(uid, _, _)| uid);
        Friends { groups, by_uid, missing_total: listed }
    }

    /// Number of SV groups (plan rows).
    pub(crate) fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of listed friends.
    pub(crate) fn listed(&self) -> usize {
        self.by_uid.len()
    }

    /// SV code of group `g`.
    pub(crate) fn sv_code(&self, g: usize) -> u64 {
        self.groups[g].0
    }

    /// Record a sighting of `uid`: `true` for a listed friend seen for the
    /// first time, `false` for a repeat sighting or somebody not on the
    /// list. The count that moves is the one of the group the friend is
    /// *listed* in, whatever row the record was met under (a stale SV code
    /// files a record under a row that is not its group's).
    pub(crate) fn locate(&mut self, uid: UserId) -> bool {
        let Ok(i) = self.by_uid.binary_search_by_key(&uid, |&(uid, _, _)| uid) else {
            return false;
        };
        let (_, g, located) = &mut self.by_uid[i];
        if std::mem::replace(located, true) {
            return false;
        }
        self.groups[*g].1 -= 1;
        self.missing_total -= 1;
        true
    }

    /// Whether every listed friend of group `g` has been located.
    pub(crate) fn group_done(&self, g: usize) -> bool {
        self.groups[g].1 == 0
    }

    /// Whether every listed friend has been located.
    pub(crate) fn all_done(&self) -> bool {
        self.missing_total == 0
    }

    /// How a plan scan proceeds after an entry of SV row `sv_code`: stop
    /// when nobody is left to find, skip the row when its group is done.
    pub(crate) fn verdict(&self, sv_code: u64) -> Visit {
        if self.all_done() {
            return Visit::Stop;
        }
        match self.groups.binary_search_by_key(&sv_code, |&(sv, _)| sv) {
            Ok(g) if self.group_done(g) => Visit::SkipRow,
            _ => Visit::Next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_common::{Point, Rect, SpaceConfig, TimeInterval};
    use peb_policy::{Policy, PolicyStore, RoleId, SequenceValues, SvAssignmentParams};

    /// Issuer 0 with two SV groups: friends 1 and 2 share a policy shape
    /// (one group), friend 3 has its own.
    fn table() -> (Friends, PolicyStore) {
        let space = SpaceConfig::default();
        let always = TimeInterval::new(0.0, 1440.0);
        let mut store = PolicyStore::new();
        for o in [1u64, 2] {
            let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, whole, always));
        }
        let corner = Rect::new(0.0, 100.0, 0.0, 100.0);
        store.add(UserId(0), Policy::new(UserId(3), RoleId::FRIEND, corner, always));
        let sv = SequenceValues::assign(&store, &space, 6, SvAssignmentParams::default());
        let index = FriendIndex::build(&store, &sv, 6);
        let friends = Friends::new(&index, UserId(0));
        assert_eq!((friends.groups(), friends.listed()), (2, 3), "fixture: two groups of 2 + 1");
        (friends, store)
    }

    /// Group index of the pair {1, 2} and of the singleton {3}.
    fn pair_and_single(f: &Friends) -> (usize, usize) {
        if f.groups[0].1 == 2 {
            (0, 1)
        } else {
            (1, 0)
        }
    }

    #[test]
    fn a_duplicate_sighting_counts_once() {
        let (mut f, _) = table();
        let (pair, single) = pair_and_single(&f);
        assert!(f.locate(UserId(1)));
        assert!(!f.locate(UserId(1)), "the same record met again is not news");
        assert!(!f.group_done(pair), "friend 2 is still missing");
        assert!(f.locate(UserId(2)));
        assert!(f.group_done(pair) && !f.group_done(single) && !f.all_done());
        assert_eq!(f.verdict(f.sv_code(pair)), Visit::SkipRow);
        assert_eq!(f.verdict(f.sv_code(single)), Visit::Next);
        assert!(f.locate(UserId(3)));
        assert!(f.all_done());
        assert_eq!(f.verdict(f.sv_code(pair)), Visit::Stop);
    }

    #[test]
    fn a_record_under_a_foreign_row_moves_its_own_groups_count() {
        // Friend 3's record is met while the scan is in the pair's row (its
        // key carries a stale SV code). `locate` never sees the row: the
        // count that moves is the listed group's, so the pair's row is not
        // skipped while 1 and 2 are still out there.
        let (mut f, _) = table();
        let (pair, single) = pair_and_single(&f);
        assert!(f.locate(UserId(3)));
        assert!(f.group_done(single));
        assert!(!f.group_done(pair));
        assert_eq!(f.verdict(f.sv_code(pair)), Visit::Next);
        // A row that is nobody's group is never skipped either.
        assert_eq!(f.verdict(u64::MAX), Visit::Next);
    }

    #[test]
    fn an_unlisted_uid_is_never_located_and_never_reaches_permits() {
        // Users 4 and 5 share rows with the friends but are not on the
        // list; the query visitors evaluate `locate(..) && .. permits(..)`,
        // so a `false` here is what keeps the policy store untouched.
        let (mut f, store) = table();
        let mut permits_calls = 0;
        for uid in [4u64, 5, 0, 99, 4] {
            let qualified = f.locate(UserId(uid)) && {
                permits_calls += 1;
                store.permits(UserId(uid), UserId(0), &Point::new(1.0, 1.0), 10.0)
            };
            assert!(!qualified);
        }
        assert_eq!(permits_calls, 0);
        assert_eq!(f.missing_total, 3, "strangers move no count");
        assert!(f.locate(UserId(2)), "and the listed are still found");
    }

    #[test]
    fn a_stranger_issuer_has_an_empty_table() {
        let (_, store) = table();
        let sv = SequenceValues::assign(
            &store,
            &SpaceConfig::default(),
            6,
            SvAssignmentParams::default(),
        );
        let index = FriendIndex::build(&store, &sv, 6);
        let f = Friends::new(&index, UserId(1_000_000));
        assert_eq!((f.groups(), f.listed()), (0, 0));
        assert!(f.all_done());
    }
}
