//! Location-privacy policies (LPPs) and the paper's policy encoding.
//!
//! Section 5.1 of the paper proceeds in three phases, all implemented here:
//!
//! 1. **Policy translation** — semantic locations become Euclidean regions.
//!    Our [`Policy`] already stores a [`peb_common::Rect`] region plus a
//!    closed [`peb_common::TimeInterval`], together with the `role` label.
//! 2. **Policy comparison** — a score `α ∈ [0, 1]` quantifies how two
//!    users' policies relate, and Eq. 4 turns it into the compatibility
//!    degree `C(u1, u2)` ([`compat`]).
//! 3. **Policy encoding** — the sequence-value assignment of Fig. 5 maps
//!    every user to a *sequence value* `SV` such that users with compatible
//!    policies receive nearby values ([`seqval`]).
//!
//! [`store::PolicyStore`] holds the policies, one owner-sorted row per
//! viewer (the paper's experiments assume one policy per ordered user
//! pair), and
//! [`friends::FriendIndex`] materializes, per user, the SV-sorted list of
//! users who have a policy mentioning them — the "friend list" every query
//! starts from.

pub mod compat;
pub mod friends;
pub mod lpp;
pub mod seqval;
pub mod store;

pub use compat::{alpha, alpha_multi, compatibility, Relation};
pub use friends::FriendIndex;
pub use lpp::{Policy, RoleId};
pub use seqval::{SequenceValues, SvAssignmentParams};
pub use store::PolicyStore;
