//! Which of the issuer's friends a query still has to locate.
//!
//! "A user has only one location": once a friend's record has been seen —
//! in any partition, inside a scanned window or merely on a page read for
//! another reason — no other key interval can hold them. The query plans
//! run one scan per partition (PRQ) or anti-diagonal (PkNN) over many SV
//! rows, so the bookkeeping is shared here, and turned into the scan's
//! steering verdict.

use std::collections::{HashMap, HashSet};

use peb_btree::Visit;
use peb_common::UserId;

/// Location bookkeeping over the issuer's friend-SV groups
/// ([`crate::PrivacyContext::friend_sv_groups`], ascending SV codes).
pub(crate) struct Friends<'a> {
    groups: &'a [(u64, Vec<UserId>)],
    /// Group index of every listed friend. Counts move only for listed
    /// friends: a record found under a stale SV code, or a friend granted
    /// after the context was built, is located without touching a group
    /// it is not a member of.
    group_of: HashMap<UserId, usize>,
    /// Listed friends not yet located, per group and in total.
    missing: Vec<usize>,
    missing_total: usize,
    /// Everyone located so far.
    located: HashSet<UserId>,
}

impl<'a> Friends<'a> {
    pub(crate) fn new(groups: &'a [(u64, Vec<UserId>)]) -> Self {
        let group_of: HashMap<UserId, usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, (_, members))| members.iter().map(move |u| (*u, g)))
            .collect();
        let missing: Vec<usize> = groups.iter().map(|(_, members)| members.len()).collect();
        Friends {
            groups,
            group_of,
            missing_total: missing.iter().sum(),
            missing,
            located: HashSet::new(),
        }
    }

    /// Record a sighting of `uid`; `false` if they were located before.
    pub(crate) fn locate(&mut self, uid: UserId) -> bool {
        if !self.located.insert(uid) {
            return false;
        }
        if let Some(&g) = self.group_of.get(&uid) {
            self.missing[g] -= 1;
            self.missing_total -= 1;
        }
        true
    }

    /// Whether every listed friend of group `g` has been located.
    pub(crate) fn group_done(&self, g: usize) -> bool {
        self.missing[g] == 0
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
        match self.groups.binary_search_by_key(&sv_code, |(sv, _)| *sv) {
            Ok(g) if self.group_done(g) => Visit::SkipRow,
            _ => Visit::Next,
        }
    }
}
