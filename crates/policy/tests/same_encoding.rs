//! The encoder's one sorted pass over the store's rows gives the same
//! sequence values and friend lists as Fig. 5 run pair by pair: every
//! unordered pair of the population scored with [`compatibility`], fed to
//! [`SequenceValues::assign_from_graph`], and every friend list gathered
//! by asking the store about each possible owner.

use peb_common::{Rect, SpaceConfig, TimeInterval, UserId};
use peb_policy::friends::FriendEntry;
use peb_policy::{
    compatibility, FriendIndex, Policy, PolicyStore, RoleId, SequenceValues, SvAssignmentParams,
};
use proptest::prelude::*;

/// Ids the store may name: `0..IDS`, with a population of at most `IDS`,
/// so some ids are unused (gaps) and some fall outside the population.
/// Few ids and many edits make multi-policy pairs, replacements and
/// removals of live pairs common.
const IDS: u64 = 16;

#[derive(Debug, Clone)]
enum Edit {
    Add(u64, Policy),
    AddAdditional(u64, Policy),
    Remove(u64, u64),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    (
        0u8..4,
        0u64..IDS,
        0u64..IDS,
        (0.0f64..900.0, 1.0f64..500.0, 0.0f64..900.0, 1.0f64..500.0),
        (0.0f64..900.0, 1.0f64..500.0),
    )
        .prop_map(|(kind, owner, viewer, (x, w, y, h), (t, d))| {
            let policy = Policy::new(
                UserId(owner),
                RoleId::FRIEND,
                Rect::new(x, (x + w).min(1000.0), y, (y + h).min(1000.0)),
                TimeInterval::new(t, (t + d).min(1000.0)),
            );
            match kind {
                0 | 1 => Edit::Add(viewer, policy),
                2 => Edit::AddAdditional(viewer, policy),
                _ => Edit::Remove(owner, viewer),
            }
        })
}

fn reference(
    store: &PolicyStore,
    space: &SpaceConfig,
    n: usize,
) -> (SequenceValues, Vec<Vec<FriendEntry>>) {
    let mut graph: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in a + 1..n {
            let c = compatibility(store, space, UserId(a as u64), UserId(b as u64));
            if c > 0.0 {
                graph[a].push((b, c));
                graph[b].push((a, c));
            }
        }
    }
    let sv = SequenceValues::assign_from_graph(&graph, SvAssignmentParams::default());
    let lists = (0..n as u64)
        .map(|v| {
            let mut list: Vec<FriendEntry> = (0..n as u64)
                .filter(|&o| !store.policies(UserId(o), UserId(v)).is_empty())
                .map(|o| FriendEntry { sv_code: sv.code(UserId(o)), uid: UserId(o) })
                .collect();
            list.sort_by_key(|e| (e.sv_code, e.uid));
            list
        })
        .collect();
    (sv, lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn sorted_pass_equals_pairwise_fig5(
        edits in proptest::collection::vec(arb_edit(), 0..160),
        n in 1usize..(IDS as usize + 1),
    ) {
        let space = SpaceConfig::new(1000.0, 10, 1000.0);
        let mut store = PolicyStore::new();
        for edit in edits {
            match edit {
                Edit::Add(v, p) => {
                    store.add(UserId(v), p);
                }
                Edit::AddAdditional(v, p) => {
                    store.add_additional(UserId(v), p);
                }
                Edit::Remove(o, v) => {
                    store.remove(UserId(o), UserId(v));
                }
            }
        }
        let sv = SequenceValues::assign(&store, &space, n, SvAssignmentParams::default());
        let friends = FriendIndex::build(&store, &sv, n);
        let (want_sv, want_lists) = reference(&store, &space, n);
        prop_assert_eq!(sv.num_users(), n);
        for u in 0..n as u64 {
            let uid = UserId(u);
            prop_assert_eq!(sv.value(uid).to_bits(), want_sv.value(uid).to_bits(), "SV of {}", uid);
            prop_assert_eq!(friends.friends(uid), want_lists[u as usize].as_slice(), "friends of {}", uid);
        }
        for u in n as u64..IDS {
            prop_assert!(sv.value(UserId(u)).is_nan(), "{} is outside the population", u);
            prop_assert_eq!(sv.code(UserId(u)), 0);
            prop_assert!(friends.friends(UserId(u)).is_empty());
        }
    }
}
