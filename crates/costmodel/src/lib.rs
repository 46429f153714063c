//! The query I/O cost model of Sec 6 (Eq. 6 and Eq. 7).
//!
//! The model focuses on the sequence-value assignment, the dominant factor
//! of PEB-tree query cost. With `Np` policies per user, grouping factor θ,
//! `Nl` leaf pages, `N` users and space side `L`:
//!
//! ```text
//! C1 = 1 + min(Np, Nl) − Np^θ                                   (Eq. 6)
//! C  = 1 + (a1·N/L² + a2) · (min(Np, Nl) − Np^θ)                (Eq. 7)
//! ```
//!
//! `Np^θ` captures the benefit of grouping: at θ = 1 the friends of any
//! issuer live in a handful of co-located leaves, while at θ = 0 each of
//! the `Np` related users may cost its own leaf access. The linear density
//! term `(a1·N/L² + a2)` captures how larger populations spread related
//! users across more leaves. `a1`/`a2` are obtained from two sample
//! measurements on datasets with the same location distribution
//! ("for example, a1 = 10 and a2 = 0.3 for uniform data").

#![warn(missing_docs)]

/// Calibrated linear-density coefficients of Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModelParams {
    /// Density slope `a1`: how fast cost grows with users per unit area.
    pub a1: f64,
    /// Density intercept `a2`: the residual per-leaf spread at density 0.
    pub a2: f64,
}

impl Default for CostModelParams {
    /// The paper's example calibration for uniform data.
    fn default() -> Self {
        CostModelParams { a1: 10.0, a2: 0.3 }
    }
}

/// Inputs of the cost model for one workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct CostInputs {
    /// Total number of users `N`.
    pub num_users: usize,
    /// Policies per user `Np`.
    pub policies_per_user: usize,
    /// Grouping factor θ ∈ [0, 1].
    pub theta: f64,
    /// Number of leaf pages `Nl` in the index.
    pub leaf_pages: usize,
    /// Side length `L` of the space.
    pub side: f64,
}

/// Eq. 6: the grouping-only estimate `C1`.
pub fn c1(inputs: &CostInputs) -> f64 {
    let np = inputs.policies_per_user as f64;
    let nl = inputs.leaf_pages as f64;
    let benefit = np.powf(inputs.theta);
    1.0 + np.min(nl) - benefit
}

/// Eq. 7: the full estimate `C`, with the density-scaled linear term.
pub fn cost(inputs: &CostInputs, params: &CostModelParams) -> f64 {
    let np = inputs.policies_per_user as f64;
    let nl = inputs.leaf_pages as f64;
    let density = inputs.num_users as f64 / (inputs.side * inputs.side);
    let benefit = np.powf(inputs.theta);
    1.0 + (params.a1 * density + params.a2) * (np.min(nl) - benefit)
}

/// Fewest Z-intervals a fused query keeps per partition regardless of the
/// cost-model estimate (very coarse decompositions over-approximate the
/// window too aggressively).
pub const MIN_QUERY_INTERVALS: usize = 4;

/// Most Z-intervals a fused query keeps per partition: beyond this the
/// interval set itself (candidates × SV groups × partitions) dominates
/// query setup cost without adding distinct candidate leaves.
pub const MAX_QUERY_INTERVALS: usize = 64;

/// The cost-model pick for how many Z-intervals a fused query scan
/// should keep per partition (the `max_ranges` handed to
/// `peb_zorder::cover`).
///
/// Eq. 6's `min(Np, Nl)` clamp is the rationale: a query's candidates
/// occupy at most `min(candidates, leaf_pages)` distinct leaves, so
/// probing more intervals than that adds interval bookkeeping and leaf
/// probes without ever adding a candidate leaf — coarsening down to the
/// clamp trades those extra probes for a few false-positive records that
/// refinement discards anyway. The result is clamped to
/// [[`MIN_QUERY_INTERVALS`], [`MAX_QUERY_INTERVALS`]].
///
/// ```
/// use peb_costmodel::interval_budget;
///
/// // 20 friends over a 130-leaf tree: the friends bound the budget.
/// assert_eq!(interval_budget(20, 130), 20);
/// // A tiny tree bounds it the other way (floored at the minimum).
/// assert_eq!(interval_budget(500, 2), 4);
/// // Huge on both axes: capped.
/// assert_eq!(interval_budget(10_000, 9_000), 64);
/// ```
pub fn interval_budget(candidates: usize, leaf_pages: usize) -> usize {
    candidates.min(leaf_pages).clamp(MIN_QUERY_INTERVALS, MAX_QUERY_INTERVALS)
}

/// Calibrate `a1`/`a2` from two measured sample points `(inputs, observed
/// I/O)` that share `Np`, θ and the location distribution but differ in `N`
/// (the procedure the paper describes). Returns `None` if the system is
/// degenerate (same density or zero base term).
pub fn calibrate(
    (in1, c1_obs): (&CostInputs, f64),
    (in2, c2_obs): (&CostInputs, f64),
) -> Option<CostModelParams> {
    let base = |i: &CostInputs| {
        let np = i.policies_per_user as f64;
        (np.min(i.leaf_pages as f64)) - np.powf(i.theta)
    };
    let (b1, b2) = (base(in1), base(in2));
    if b1 == 0.0 || b2 == 0.0 {
        return None;
    }
    let d1 = in1.num_users as f64 / (in1.side * in1.side);
    let d2 = in2.num_users as f64 / (in2.side * in2.side);
    if (d1 - d2).abs() < f64::EPSILON {
        return None;
    }
    // (c_obs − 1) / b = a1·d + a2 — two linear equations in (a1, a2).
    let y1 = (c1_obs - 1.0) / b1;
    let y2 = (c2_obs - 1.0) / b2;
    let a1 = (y1 - y2) / (d1 - d2);
    let a2 = y1 - a1 * d1;
    Some(CostModelParams { a1, a2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(n: usize, np: usize, theta: f64) -> CostInputs {
        CostInputs { num_users: n, policies_per_user: np, theta, leaf_pages: 800, side: 1000.0 }
    }

    #[test]
    fn c1_perfect_grouping_costs_one_page() {
        // θ = 1: Np − Np^1 = 0, so the model predicts the minimum cost of a
        // single leaf access.
        assert_eq!(c1(&inputs(60_000, 50, 1.0)), 1.0);
    }

    #[test]
    fn c1_no_grouping_upper_bounds_at_np() {
        // θ = 0: Np^0 = 1 -> C1 = Np, every related user in its own leaf.
        assert_eq!(c1(&inputs(60_000, 50, 0.0)), 50.0);
    }

    #[test]
    fn c1_clamps_by_leaf_count() {
        // More policies than leaves: the index itself bounds the cost.
        let mut i = inputs(60_000, 5_000, 0.0);
        i.leaf_pages = 700;
        assert_eq!(c1(&i), 1.0 + 700.0 - 1.0);
    }

    #[test]
    fn cost_decreases_with_theta() {
        let p = CostModelParams::default();
        let costs: Vec<f64> =
            [0.0, 0.3, 0.5, 0.7, 1.0].iter().map(|t| cost(&inputs(60_000, 50, *t), &p)).collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]), "θ up ⇒ cost down: {costs:?}");
    }

    #[test]
    fn cost_increases_linearly_with_n() {
        let p = CostModelParams::default();
        let c10 = cost(&inputs(10_000, 50, 0.7), &p);
        let c50 = cost(&inputs(50_000, 50, 0.7), &p);
        let c90 = cost(&inputs(90_000, 50, 0.7), &p);
        assert!(c10 < c50 && c50 < c90);
        // Linear: equal N-steps give equal cost-steps.
        assert!(((c50 - c10) - (c90 - c50)).abs() < 1e-9);
    }

    #[test]
    fn cost_increases_with_np() {
        let p = CostModelParams::default();
        let a = cost(&inputs(60_000, 10, 0.7), &p);
        let b = cost(&inputs(60_000, 100, 0.7), &p);
        assert!(a < b);
    }

    #[test]
    fn calibration_recovers_known_coefficients() {
        let truth = CostModelParams { a1: 7.5, a2: 0.42 };
        let i1 = inputs(20_000, 50, 0.7);
        let i2 = inputs(80_000, 50, 0.7);
        let c1_obs = cost(&i1, &truth);
        let c2_obs = cost(&i2, &truth);
        let got = calibrate((&i1, c1_obs), (&i2, c2_obs)).unwrap();
        assert!((got.a1 - truth.a1).abs() < 1e-9);
        assert!((got.a2 - truth.a2).abs() < 1e-9);
    }

    #[test]
    fn interval_budget_follows_the_eq6_clamp() {
        // Monotone in both axes inside the clamp window...
        assert!(interval_budget(10, 800) <= interval_budget(30, 800));
        assert!(interval_budget(200, 10) <= interval_budget(200, 40));
        // ...equal to min(candidates, leaves) there...
        assert_eq!(interval_budget(33, 800), 33);
        assert_eq!(interval_budget(800, 33), 33);
        // ...and clamped outside it.
        assert_eq!(interval_budget(0, 0), MIN_QUERY_INTERVALS);
        assert_eq!(interval_budget(usize::MAX, usize::MAX), MAX_QUERY_INTERVALS);
    }

    #[test]
    fn calibration_rejects_degenerate_samples() {
        let i1 = inputs(60_000, 50, 0.7);
        assert!(calibrate((&i1, 5.0), (&i1, 5.0)).is_none(), "same density");
        let j1 = inputs(10_000, 1, 0.0); // Np − Np^0 = 0
        let j2 = inputs(20_000, 1, 0.0);
        assert!(calibrate((&j1, 5.0), (&j2, 6.0)).is_none(), "zero base term");
    }
}
