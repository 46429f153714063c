//! Experiment harness reproducing every figure of the paper's empirical
//! study (Sec 7). The `figures <id|all>` binary in `src/bin/` prints the
//! series of one figure (or all) as tab-separated tables; this library
//! holds the shared plumbing.
//!
//! Measurement protocol (matching Sec 7.1): 4 KB pages, a 50-page LRU
//! buffer, the average I/O of 200 queries per point. The buffer starts cold
//! for each measured batch and stays warm across the queries within it.
//!
//! Environment knobs for quick runs:
//! * `PEB_SCALE`   — multiplies every user count (default 1.0)
//! * `PEB_QUERIES` — queries per measurement (default 200)

pub mod baseline;
pub mod experiments;
pub mod faults;
pub mod harness;
pub mod optreads;
pub mod overload;
pub mod recovery;
pub mod report;
pub mod scans;
pub mod updates;

pub use harness::{Measured, RunConfig};
