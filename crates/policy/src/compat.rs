//! Policy comparison: the α score and the compatibility degree `C(u1, u2)`
//! of Eq. 4.
//!
//! Two cases (Sec 5.1):
//!
//! * **Mutual** (`P1→2 ↔ P2→1`): both policies exist and their `locr`/`tint`
//!   overlap, i.e. the users can sometimes see each other *simultaneously*.
//!   `α = O(locr1, locr2)/S · D(tint1, tint2)/T`, and `C = (1 + α)/2 > 0.5`.
//! * **Non-mutual** (`P1→2 = P2→1`): disjoint conditions, or only one
//!   policy exists. `α = ½(|locr1|/S·|tint1|/T + |locr2|/S·|tint2|/T)`
//!   (missing terms omitted), never exceeding 0.5, and `C = α`.
//!
//! With no policy at all, `α = 0` and `C = 0`: the users are *unrelated*.

use peb_common::{SpaceConfig, UserId};

use crate::lpp::Policy;
use crate::store::PolicyStore;

/// Multi-policy classification (Sec 8's extension): the pair is mutual if
/// *any* cross pair of their policies overlaps in both region and time.
fn classify_multi(p12: &[Policy], p21: &[Policy]) -> Relation {
    if p12.is_empty() && p21.is_empty() {
        return Relation::Unrelated;
    }
    for a in p12 {
        for b in p21 {
            if a.locr.overlap_area(&b.locr) > 0.0 && a.tint.overlap(&b.tint) > 0.0 {
                return Relation::Mutual;
            }
        }
    }
    Relation::NonMutual
}

/// The α score over multi-policy pairs: mutual pairs take the largest
/// simultaneous-disclosure overlap across policy combinations; non-mutual
/// pairs take half the sum of each side's largest normalized volume, so the
/// ≤ 0.5 bound of the single-policy case carries over.
pub fn alpha_multi(p12: &[Policy], p21: &[Policy], space: &SpaceConfig) -> f64 {
    let s = space.area();
    let t = space.time_domain;
    match classify_multi(p12, p21) {
        Relation::Mutual => {
            let mut best = 0.0f64;
            for a in p12 {
                for b in p21 {
                    let o = (a.locr.overlap_area(&b.locr) / s) * (a.tint.overlap(&b.tint) / t);
                    best = best.max(o);
                }
            }
            best
        }
        Relation::NonMutual => {
            let va = p12.iter().map(|p| p.normalized_volume(s, t)).fold(0.0, f64::max);
            let vb = p21.iter().map(|p| p.normalized_volume(s, t)).fold(0.0, f64::max);
            0.5 * (va + vb)
        }
        Relation::Unrelated => 0.0,
    }
}

/// How a pair of users relates through their policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// Policies in both directions with overlapping region and interval.
    Mutual,
    /// Some policy exists but never discloses both users simultaneously.
    NonMutual,
    /// No policy in either direction.
    Unrelated,
}

fn classify(p12: Option<&Policy>, p21: Option<&Policy>) -> Relation {
    match (p12, p21) {
        (Some(a), Some(b))
            if a.locr.overlap_area(&b.locr) > 0.0 && a.tint.overlap(&b.tint) > 0.0 =>
        {
            Relation::Mutual
        }
        (None, None) => Relation::Unrelated,
        _ => Relation::NonMutual,
    }
}

/// The α score for a pair of (optional) directed policies.
pub fn alpha(p12: Option<&Policy>, p21: Option<&Policy>, space: &SpaceConfig) -> f64 {
    let s = space.area();
    let t = space.time_domain;
    match classify(p12, p21) {
        Relation::Mutual => {
            let (a, b) = (p12.unwrap(), p21.unwrap());
            (a.locr.overlap_area(&b.locr) / s) * (a.tint.overlap(&b.tint) / t)
        }
        Relation::NonMutual => {
            let va = p12.map_or(0.0, |p| p.normalized_volume(s, t));
            let vb = p21.map_or(0.0, |p| p.normalized_volume(s, t));
            0.5 * (va + vb)
        }
        Relation::Unrelated => 0.0,
    }
}

/// Eq. 4: the degree of compatibility `C(u1, u2) ∈ [0, 1]`.
///
/// Mutual pairs land strictly above 0.5 (they are "more likely to be
/// included in each other's query results"); non-mutual pairs at or below
/// 0.5; unrelated pairs at exactly 0.
pub fn compatibility(store: &PolicyStore, space: &SpaceConfig, u1: UserId, u2: UserId) -> f64 {
    compatibility_of(store.policies(u1, u2), store.policies(u2, u1), space)
}

/// Eq. 4 over a pair's policies in each direction: `p12` are u1's
/// policies toward u2, `p21` u2's toward u1.
pub(crate) fn compatibility_of(p12: &[Policy], p21: &[Policy], space: &SpaceConfig) -> f64 {
    let a = alpha_multi(p12, p21, space);
    match classify_multi(p12, p21) {
        Relation::Mutual => 0.5 * (1.0 + a),
        Relation::NonMutual => a,
        Relation::Unrelated => 0.0,
    }
}

/// The relation classification for a pair, exposed for diagnostics.
pub fn relation(store: &PolicyStore, u1: UserId, u2: UserId) -> Relation {
    classify_multi(store.policies(u1, u2), store.policies(u2, u1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpp::RoleId;
    use peb_common::{Rect, TimeInterval};

    fn space() -> SpaceConfig {
        SpaceConfig::new(1000.0, 10, 1000.0)
    }

    fn pol(owner: u64, locr: Rect, tint: TimeInterval) -> Policy {
        Policy::new(UserId(owner), RoleId::FRIEND, locr, tint)
    }

    #[test]
    fn mutual_pair_scores_above_half() {
        let mut s = PolicyStore::new();
        // Overlap area 100x100 of 1000x1000 => 0.01; time overlap 100/1000 => 0.1.
        s.add(UserId(2), pol(1, Rect::new(0.0, 200.0, 0.0, 200.0), TimeInterval::new(0.0, 200.0)));
        s.add(
            UserId(1),
            pol(2, Rect::new(100.0, 300.0, 100.0, 300.0), TimeInterval::new(100.0, 300.0)),
        );
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::Mutual);
        let a = alpha(s.policy(UserId(1), UserId(2)), s.policy(UserId(2), UserId(1)), &space());
        assert!((a - 0.01 * 0.1).abs() < 1e-12);
        let c = compatibility(&s, &space(), UserId(1), UserId(2));
        assert!((c - 0.5 * (1.0 + 0.001)).abs() < 1e-12);
        assert!(c > 0.5);
        // Symmetric.
        assert_eq!(c, compatibility(&s, &space(), UserId(2), UserId(1)));
    }

    #[test]
    fn disjoint_policies_are_non_mutual() {
        let mut s = PolicyStore::new();
        // Regions overlap but intervals do not -> non-mutual.
        s.add(UserId(2), pol(1, Rect::new(0.0, 100.0, 0.0, 100.0), TimeInterval::new(0.0, 100.0)));
        s.add(
            UserId(1),
            pol(2, Rect::new(0.0, 100.0, 0.0, 100.0), TimeInterval::new(200.0, 300.0)),
        );
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::NonMutual);
        let c = compatibility(&s, &space(), UserId(1), UserId(2));
        // Each volume: 0.01 * 0.1 = 0.001; alpha = (0.001+0.001)/2 = 0.001.
        assert!((c - 0.001).abs() < 1e-12);
        assert!(c <= 0.5);
    }

    #[test]
    fn one_sided_policy_halves_the_volume() {
        let mut s = PolicyStore::new();
        s.add(
            UserId(2),
            pol(1, Rect::new(0.0, 1000.0, 0.0, 1000.0), TimeInterval::new(0.0, 1000.0)),
        );
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::NonMutual);
        let c = compatibility(&s, &space(), UserId(1), UserId(2));
        // "If P2→1 does not exist, the second term is omitted": α = 1/2 · 1.
        assert!((c - 0.5).abs() < 1e-12, "non-mutual never exceeds 0.5, got {c}");
    }

    #[test]
    fn unrelated_users_score_zero() {
        let s = PolicyStore::new();
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::Unrelated);
        assert_eq!(compatibility(&s, &space(), UserId(1), UserId(2)), 0.0);
    }

    #[test]
    fn mutual_dominates_non_mutual_priority() {
        // "Users who can sometimes see each other simultaneously" must rank
        // above any pair that cannot, whatever the volumes involved.
        let mut s1 = PolicyStore::new();
        let tiny = Rect::new(0.0, 10.0, 0.0, 10.0);
        s1.add(UserId(2), pol(1, tiny, TimeInterval::new(0.0, 10.0)));
        s1.add(UserId(1), pol(2, tiny, TimeInterval::new(5.0, 15.0)));
        let mutual_c = compatibility(&s1, &space(), UserId(1), UserId(2));

        let mut s2 = PolicyStore::new();
        let huge = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        s2.add(UserId(2), pol(1, huge, TimeInterval::new(0.0, 1000.0)));
        s2.add(UserId(1), pol(2, huge, TimeInterval::new(0.0, 0.0)));
        // Second policy has zero duration -> no simultaneous disclosure.
        let nonmutual_c = compatibility(&s2, &space(), UserId(1), UserId(2));

        assert!(mutual_c > 0.5);
        assert!(nonmutual_c <= 0.5);
        assert!(mutual_c > nonmutual_c);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::lpp::RoleId;
    use peb_common::{Rect, TimeInterval};
    use proptest::prelude::*;

    fn arb_policy(owner: u64) -> impl Strategy<Value = Policy> {
        (0.0f64..900.0, 1.0f64..100.0, 0.0f64..900.0, 1.0f64..100.0, 0.0f64..900.0, 1.0f64..100.0)
            .prop_map(move |(x, w, y, h, t, d)| {
                Policy::new(
                    UserId(owner),
                    RoleId::FRIEND,
                    Rect::new(x, x + w, y, y + h),
                    TimeInterval::new(t, t + d),
                )
            })
    }

    proptest! {
        #[test]
        fn compatibility_bounded_and_symmetric(p12 in arb_policy(1), p21 in arb_policy(2)) {
            let mut s = PolicyStore::new();
            s.add(UserId(2), p12);
            s.add(UserId(1), p21);
            let space = SpaceConfig::new(1000.0, 10, 1000.0);
            let c12 = compatibility(&s, &space, UserId(1), UserId(2));
            let c21 = compatibility(&s, &space, UserId(2), UserId(1));
            prop_assert!((0.0..=1.0).contains(&c12));
            prop_assert_eq!(c12, c21);
            // Case separation around 0.5.
            match relation(&s, UserId(1), UserId(2)) {
                Relation::Mutual => prop_assert!(c12 > 0.5),
                Relation::NonMutual => prop_assert!(c12 <= 0.5),
                Relation::Unrelated => prop_assert_eq!(c12, 0.0),
            }
        }
    }
}

#[cfg(test)]
mod multi_policy_tests {
    use super::*;
    use crate::lpp::RoleId;
    use peb_common::{Rect, TimeInterval};

    fn space() -> SpaceConfig {
        SpaceConfig::new(1000.0, 10, 1000.0)
    }

    fn pol(owner: u64, locr: Rect, tint: TimeInterval) -> Policy {
        Policy::new(UserId(owner), RoleId::FRIEND, locr, tint)
    }

    #[test]
    fn additional_policy_can_upgrade_to_mutual() {
        let mut s = PolicyStore::new();
        let region = Rect::new(0.0, 200.0, 0.0, 200.0);
        // First policies: disjoint times -> non-mutual.
        s.add(UserId(2), pol(1, region, TimeInterval::new(0.0, 100.0)));
        s.add(UserId(1), pol(2, region, TimeInterval::new(200.0, 300.0)));
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::NonMutual);
        let c_before = compatibility(&s, &space(), UserId(1), UserId(2));
        // u1 adds a second, overlapping policy -> pair becomes mutual.
        s.add_additional(UserId(2), pol(1, region, TimeInterval::new(250.0, 350.0)));
        assert_eq!(relation(&s, UserId(1), UserId(2)), Relation::Mutual);
        let c_after = compatibility(&s, &space(), UserId(1), UserId(2));
        assert!(c_after > 0.5 && c_after > c_before);
    }

    #[test]
    fn mutual_alpha_takes_best_combination() {
        let mut s = PolicyStore::new();
        let big = Rect::new(0.0, 500.0, 0.0, 500.0);
        let small = Rect::new(0.0, 50.0, 0.0, 50.0);
        let when = TimeInterval::new(0.0, 500.0);
        s.add(UserId(2), pol(1, small, when));
        s.add_additional(UserId(2), pol(1, big, when));
        s.add(UserId(1), pol(2, big, when));
        let a = alpha_multi(
            s.policies(UserId(1), UserId(2)),
            s.policies(UserId(2), UserId(1)),
            &space(),
        );
        // Best combination is big x big: (0.25) * (0.5) = 0.125.
        assert!((a - 0.125).abs() < 1e-12);
    }

    #[test]
    fn non_mutual_alpha_stays_bounded_with_many_policies() {
        let mut s = PolicyStore::new();
        let whole = Rect::new(0.0, 1000.0, 0.0, 1000.0);
        for i in 0..5 {
            let start = i as f64 * 10.0;
            let p = pol(1, whole, TimeInterval::new(start, start + 5.0));
            if i == 0 {
                s.add(UserId(2), p);
            } else {
                s.add_additional(UserId(2), p);
            }
        }
        let c = compatibility(&s, &space(), UserId(1), UserId(2));
        assert!(c <= 0.5, "non-mutual compatibility must stay at or below 0.5, got {c}");
        assert!(c > 0.0);
    }

    #[test]
    fn permits_accepts_any_of_the_pairs_policies() {
        let mut s = PolicyStore::new();
        let region = Rect::new(0.0, 100.0, 0.0, 100.0);
        s.add(UserId(2), pol(1, region, TimeInterval::new(0.0, 100.0)));
        s.add_additional(UserId(2), pol(1, region, TimeInterval::new(500.0, 600.0)));
        let inside = peb_common::Point::new(50.0, 50.0);
        assert!(s.permits(UserId(1), UserId(2), &inside, 50.0), "first policy window");
        assert!(s.permits(UserId(1), UserId(2), &inside, 550.0), "second policy window");
        assert!(!s.permits(UserId(1), UserId(2), &inside, 300.0), "between windows");
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(UserId(2)).len(), 2, "both in the one row");
    }

    #[test]
    fn single_policy_semantics_unchanged() {
        // With exactly one policy per direction, the multi-policy formulas
        // reduce to the paper's originals.
        let mut s = PolicyStore::new();
        let r1 = Rect::new(0.0, 200.0, 0.0, 200.0);
        let r2 = Rect::new(100.0, 300.0, 100.0, 300.0);
        s.add(UserId(2), pol(1, r1, TimeInterval::new(0.0, 200.0)));
        s.add(UserId(1), pol(2, r2, TimeInterval::new(100.0, 300.0)));
        let single =
            alpha(s.policy(UserId(1), UserId(2)), s.policy(UserId(2), UserId(1)), &space());
        let multi = alpha_multi(
            s.policies(UserId(1), UserId(2)),
            s.policies(UserId(2), UserId(1)),
            &space(),
        );
        assert_eq!(single, multi);
    }
}
