//! The PEB-tree (Policy-Embedded Bx-tree): the paper's primary contribution.
//!
//! The PEB-tree indexes moving users by a composite key
//!
//! ```text
//! PEB_key = [TID]₂ ⊕ [SV]₂ ⊕ [ZV]₂   (⊕ = bit concatenation)
//! ```
//!
//! where `TID` is the Bx time partition, `SV` the privacy-policy sequence
//! value of Sec 5.1 (fixed-point encoded), and `ZV` the Z-curve value of
//! the user's position as of the partition's label timestamp. Giving `SV`
//! priority over `ZV` clusters users by *policy compatibility first,
//! location second*: "users related to the query issuer are usually much
//! fewer than the unrelated users within the vicinity of a query".
//!
//! On top of the key layout this crate implements:
//!
//! * [`tree::PebTree`] — insert/update/delete with B+-tree efficiency;
//! * [`prq`] — the privacy-aware range query of Fig 7 (per-friend SV × ZV
//!   key intervals, skip-once-found);
//! * [`pknn`] — the privacy-aware kNN query of Figs 8–10 (search matrix,
//!   triangular order, vertical-scan refinement);
//! * [`baseline::SpatialBaseline`] — Sec 4's compare-against approach: a
//!   plain Bx-tree plus post-hoc policy filtering;
//! * [`oracle`] — brute-force reference implementations used by tests and
//!   benches to assert all engines agree.

pub mod baseline;
pub mod circle;
pub mod context;
mod friends;
pub mod keys;
pub mod oracle;
pub mod partial;
pub mod pknn;
pub mod prq;
pub mod tree;

pub use baseline::SpatialBaseline;
pub use context::PrivacyContext;
pub use keys::PebKeyLayout;
pub use partial::Partial;
pub use tree::{PebIndexLayout, PebTree, PebTreeStats};
