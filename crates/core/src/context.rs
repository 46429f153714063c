//! The privacy context: everything the offline policy-encoding phase
//! produces, bundled for the index and the query algorithms.

use peb_common::{SpaceConfig, UserId};
use peb_policy::{FriendIndex, PolicyStore, SequenceValues, SvAssignmentParams};

/// Offline policy-encoding artifacts shared by the PEB-tree and its query
/// algorithms: the policy store itself, the sequence values of Fig 5, and
/// the SV-sorted per-user friend lists.
pub struct PrivacyContext {
    pub store: PolicyStore,
    pub seqvals: SequenceValues,
    pub friends: FriendIndex,
    pub space: SpaceConfig,
}

impl PrivacyContext {
    /// Run the full offline encoding pipeline (the preprocessing measured
    /// in Fig 11 of the paper).
    pub fn build(
        store: PolicyStore,
        space: SpaceConfig,
        num_users: usize,
        params: SvAssignmentParams,
    ) -> Self {
        let seqvals = SequenceValues::assign(&store, &space, num_users, params);
        let friends = FriendIndex::build(&store, &seqvals, num_users);
        PrivacyContext { store, seqvals, friends, space }
    }

    /// The fixed-point SV code of a user, as embedded in PEB keys.
    pub fn sv_code(&self, uid: UserId) -> u64 {
        self.seqvals.code(uid)
    }

    /// The query issuer's friend list grouped by distinct SV code, in
    /// ascending SV order — [`FriendIndex::sv_groups`], materialised. The
    /// query plans read the groups straight off the list; this owned form
    /// is for callers outside the engine.
    pub fn friend_sv_groups(&self, issuer: UserId) -> Vec<(u64, Vec<UserId>)> {
        self.friends
            .sv_groups(issuer)
            .map(|group| (group[0].sv_code, group.iter().map(|f| f.uid).collect()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_common::{Rect, TimeInterval};
    use peb_policy::{Policy, RoleId};

    #[test]
    fn groups_are_ascending_and_merge_equal_codes() {
        let space = SpaceConfig::default();
        let mut store = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        let always = TimeInterval::new(0.0, 1440.0);
        // Owners 1..=4 all grant user 0.
        for o in 1..=4u64 {
            store.add(UserId(0), Policy::new(UserId(o), RoleId::FRIEND, whole, always));
        }
        let ctx = PrivacyContext::build(store, space, 5, SvAssignmentParams::default());
        let groups = ctx.friend_sv_groups(UserId(0));
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 4);
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending SV codes");
        // No group is empty.
        assert!(groups.iter().all(|(_, m)| !m.is_empty()));
    }

    #[test]
    fn empty_friend_list_yields_no_groups() {
        let ctx = PrivacyContext::build(
            PolicyStore::new(),
            SpaceConfig::default(),
            3,
            SvAssignmentParams::default(),
        );
        assert!(ctx.friend_sv_groups(UserId(1)).is_empty());
    }
}
