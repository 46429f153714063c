//! Z-order (Morton) space-filling curve.
//!
//! The Bx-tree and PEB-tree both map a (grid-quantized) position to a
//! one-dimensional value `ZV` with a proximity-preserving space-filling
//! curve; the paper uses the Z-curve [Moon et al., TKDE 2001]. This crate
//! provides:
//!
//! * [`morton::encode`] / [`morton::decode`] — bit interleaving between
//!   grid coordinates and curve values, and
//! * [`ranges::decompose`] — the `ZVconvert()` step of the paper's query
//!   algorithms: turning a grid-aligned query rectangle into the minimal
//!   set of maximal intervals of consecutive Z-values that exactly cover it;
//!   [`ranges::cover`] is the same step kept to an interval budget, which
//!   is what the query plans call.

#![warn(missing_docs)]

pub mod intervals;
pub mod morton;
pub mod ranges;

pub use intervals::IntervalSet;
pub use morton::{decode, encode};
pub use ranges::{coarsen, cover, decompose, ZRange};
