//! Policy generation with the grouping factor θ (Sec 6 / Sec 7.1).
//!
//! Users are randomly divided into groups; each user then receives `Np`
//! policies whose targets are same-group users with probability θ and
//! uniformly random users otherwise. θ = 1 means purely intra-group
//! relationships; θ = 0 means no group structure at all. Policy regions
//! and time intervals are drawn uniformly within configurable size ranges
//! ("we generate a given number of random policies by varying the spatial
//! ranges and time intervals").

use peb_common::{Rect, SpaceConfig, TimeInterval, UserId};
use peb_policy::{Policy, PolicyStore, RoleId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Knobs of the policy generator.
#[derive(Debug, Clone, Copy)]
pub struct PolicyGenConfig {
    /// `Np`: policies per user (paper default 50).
    pub policies_per_user: usize,
    /// θ ∈ [0, 1]: fraction of a user's policies that stay inside the
    /// user's group (paper default 0.7).
    pub grouping_factor: f64,
    /// Group size; must exceed `θ · Np` so intra-group targets exist.
    pub group_size: usize,
    /// Policy region side lengths are drawn from this range.
    pub region_side: (f64, f64),
    /// Policy interval durations are drawn from this range (time units).
    pub interval_len: (f64, f64),
}

impl Default for PolicyGenConfig {
    fn default() -> Self {
        PolicyGenConfig {
            policies_per_user: 50,
            grouping_factor: 0.7,
            group_size: 128,
            region_side: (500.0, 1000.0),
            interval_len: (720.0, 1440.0),
        }
    }
}

impl PolicyGenConfig {
    /// Adjust the group size so that θ·Np intra-group targets always exist.
    pub fn with_policies(mut self, np: usize) -> Self {
        self.policies_per_user = np;
        self.group_size = self.group_size.max(np + 1);
        self
    }
}

/// Generate the full policy store for `n` users.
///
/// Each user owns `Np` policies toward distinct viewers ("each user has
/// only one location privacy policy with respect to a particular user").
pub fn generate<R: Rng + Clone>(
    rng: &mut R,
    space: &SpaceConfig,
    n: usize,
    cfg: &PolicyGenConfig,
) -> PolicyStore {
    assert!((0.0..=1.0).contains(&cfg.grouping_factor), "grouping factor must be in [0, 1]");
    assert!(cfg.group_size >= 2);

    // Random group assignment: shuffle ids, then chunk.
    let mut ids: Vec<u64> = (0..n as u64).collect();
    ids.shuffle(rng);
    let mut group_of: Vec<usize> = vec![0; n];
    let mut groups: Vec<Vec<u64>> = Vec::new();
    for (g, chunk) in ids.chunks(cfg.group_size).enumerate() {
        for &u in chunk {
            group_of[u as usize] = g;
        }
        groups.push(chunk.to_vec());
    }

    // Every owner's targets, then one policy per target, in owner order.
    let draw = |rng: &mut R, grant: &mut dyn FnMut(usize, Policy)| {
        for owner in 0..n as u64 {
            let my_group = &groups[group_of[owner as usize]];
            let np = cfg.policies_per_user.min(n - 1);
            let mut targets: Vec<u64> = Vec::with_capacity(np);
            let mut attempts = 0;
            while targets.len() < np && attempts < np * 20 {
                attempts += 1;
                let in_group = rng.gen_bool(cfg.grouping_factor);
                let candidate = if in_group && my_group.len() > 1 {
                    my_group[rng.gen_range(0..my_group.len())]
                } else {
                    rng.gen_range(0..n as u64)
                };
                if candidate != owner && !targets.contains(&candidate) {
                    targets.push(candidate);
                }
            }
            for viewer in targets {
                grant(viewer as usize, random_policy(rng, space, UserId(owner), cfg));
            }
        }
    };
    // A dry run on a copy of the generator counts each viewer's grants, so
    // every row is allocated once at its final size; owners draw in
    // ascending order, so each row fills owner-sorted.
    let mut in_degree = vec![0usize; n];
    draw(&mut rng.clone(), &mut |viewer, _| in_degree[viewer] += 1);
    let mut rows: Vec<Vec<Policy>> = in_degree.into_iter().map(Vec::with_capacity).collect();
    draw(rng, &mut |viewer, policy| rows[viewer].push(policy));
    PolicyStore::from_rows(rows)
}

/// One random policy: a region with side in `cfg.region_side` placed
/// uniformly, and an interval with duration in `cfg.interval_len` placed
/// uniformly in the time domain.
pub fn random_policy(
    rng: &mut impl Rng,
    space: &SpaceConfig,
    owner: UserId,
    cfg: &PolicyGenConfig,
) -> Policy {
    let side_x = rng.gen_range(cfg.region_side.0..=cfg.region_side.1).min(space.side);
    let side_y = rng.gen_range(cfg.region_side.0..=cfg.region_side.1).min(space.side);
    let xl = rng.gen_range(0.0..=(space.side - side_x));
    let yl = rng.gen_range(0.0..=(space.side - side_y));
    let dur = rng.gen_range(cfg.interval_len.0..=cfg.interval_len.1).min(space.time_domain);
    let start = rng.gen_range(0.0..=(space.time_domain - dur));
    Policy::new(
        owner,
        RoleId::FRIEND,
        Rect::new(xl, xl + side_x, yl, yl + side_y),
        TimeInterval::new(start, start + dur),
    )
}

/// Measure the *achieved* grouping factor of a store given the group map —
/// used by tests to validate the generator against its θ parameter.
pub fn measured_theta(store: &PolicyStore, group_of: impl Fn(UserId) -> usize) -> f64 {
    let mut total = 0usize;
    let mut in_group = 0usize;
    for (owner, viewer, _) in store.iter() {
        total += 1;
        if group_of(owner) == group_of(viewer) {
            in_group += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        in_group as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_user_gets_np_policies() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PolicyGenConfig { policies_per_user: 10, group_size: 32, ..Default::default() };
        let store = generate(&mut rng, &SpaceConfig::default(), 200, &cfg);
        assert_eq!(store.len(), 200 * 10);
        let mut granted = vec![0usize; 200];
        for (owner, _, _) in store.iter() {
            granted[owner.as_index()] += 1;
        }
        assert!(granted.iter().all(|&g| g == 10), "every owner grants 10: {granted:?}");
    }

    #[test]
    fn theta_one_keeps_policies_inside_groups() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = PolicyGenConfig {
            policies_per_user: 8,
            grouping_factor: 1.0,
            group_size: 16,
            ..Default::default()
        };
        let n = 160;
        // Re-derive the group map the generator used by reproducing its
        // shuffle: instead, verify structurally — with θ=1 every connected
        // pair must share a group, so the relation graph splits into
        // components of at most group_size users.
        let store = generate(&mut rng, &SpaceConfig::default(), n, &cfg);
        // Union-find over policy edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for (o, v, _) in store.iter() {
            let (a, b) = (find(&mut parent, o.as_index()), find(&mut parent, v.as_index()));
            parent[a] = b;
        }
        let mut sizes = std::collections::HashMap::new();
        for i in 0..n {
            *sizes.entry(find(&mut parent, i)).or_insert(0usize) += 1;
        }
        for (_, s) in sizes {
            assert!(s <= cfg.group_size, "component of size {s} exceeds the group size");
        }
    }

    #[test]
    fn theta_zero_spreads_policies_widely() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = PolicyGenConfig {
            policies_per_user: 10,
            grouping_factor: 0.0,
            group_size: 16,
            ..Default::default()
        };
        let n = 320;
        let store = generate(&mut rng, &SpaceConfig::default(), n, &cfg);
        // With random targets, the share of same-group pairs is ~ 16/320 = 5%.
        // (We cannot recover the exact shuffle, so check the weaker property
        // that distinct viewer groups are touched broadly.)
        let mut distinct_viewers = std::collections::HashSet::new();
        for (_, v, _) in store.iter() {
            distinct_viewers.insert(v);
        }
        assert!(distinct_viewers.len() > n * 3 / 4, "policies concentrated unexpectedly");
    }

    #[test]
    fn policies_fit_domain() {
        let mut rng = StdRng::seed_from_u64(5);
        let space = SpaceConfig::default();
        let cfg = PolicyGenConfig::default();
        for _ in 0..100 {
            let p = random_policy(&mut rng, &space, UserId(0), &cfg);
            assert!(p.locr.xl >= 0.0 && p.locr.xu <= space.side);
            assert!(p.locr.yl >= 0.0 && p.locr.yu <= space.side);
            assert!(p.tint.start >= 0.0 && p.tint.end <= space.time_domain);
            let w = p.locr.width();
            assert!(w >= cfg.region_side.0 && w <= cfg.region_side.1);
        }
    }

    #[test]
    fn with_policies_keeps_groups_large_enough() {
        let cfg = PolicyGenConfig::default().with_policies(200);
        assert!(cfg.group_size > 200);
    }

    #[test]
    fn measured_theta_math() {
        let mut store = PolicyStore::new();
        let space = SpaceConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = PolicyGenConfig::default();
        // 0 and 1 in group A; 2 in group B.
        store.add(UserId(1), random_policy(&mut rng, &space, UserId(0), &cfg)); // in-group
        store.add(UserId(2), random_policy(&mut rng, &space, UserId(0), &cfg)); // cross
        let theta = measured_theta(&store, |u| if u.0 <= 1 { 0 } else { 1 });
        assert_eq!(theta, 0.5);
    }
}
