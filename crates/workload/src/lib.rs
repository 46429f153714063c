//! Workload generation for the paper's empirical study (Sec 7.1).
//!
//! Two position distributions:
//!
//! * **Uniform** — positions chosen uniformly at random in the 1000 × 1000
//!   space, directions random, speeds uniform in `[0, max_speed]`.
//! * **Network-based** — a synthetic equivalent of the generator of
//!   Šaltenis et al. \[27\] (see DESIGN.md): objects move in a network of
//!   two-way routes connecting `H` destination hubs, are assigned to three
//!   groups with maximum speeds 0.75 / 1.5 / 3, pick random target
//!   destinations, and accelerate leaving / decelerate approaching a
//!   destination. Fewer hubs ⇒ more spatial skew.
//!
//! Policies are generated per user with the **grouping factor θ** of Sec 6:
//! users are partitioned into groups, and each of a user's `Np` policies
//! targets a same-group user with probability θ and a random user
//! otherwise (θ = 1: pure intra-group; θ = 0: no group structure).
//!
//! [`dataset::Dataset`] bundles everything an experiment needs, and
//! [`updates`] produces the update streams of Sec 7.9.

pub mod dataset;
pub mod network;
pub mod policies;
pub mod queries;
pub mod uniform;
pub mod updates;

pub use dataset::{Dataset, DatasetBuilder, Distribution};
pub use policies::PolicyGenConfig;
pub use queries::QueryGenerator;
pub use updates::UpdateStream;
