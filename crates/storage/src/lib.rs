//! Simulated disk storage with a sharded LRU buffer pool and I/O
//! accounting.
//!
//! The paper evaluates every query algorithm by **I/O cost**: the number of
//! 4 KB disk pages physically read/written while a 50-page LRU buffer is in
//! front of the disk (Sec 7.1). This crate reproduces exactly that metric
//! without real disks: [`disk::DiskSim`] is an in-memory array of pages that
//! counts physical accesses, and [`pool::BufferPool`] is the LRU cache both
//! indexes run through. A buffer hit is free; a miss costs one physical
//! read (plus one write if the evicted frame was dirty).
//!
//! The pool is sharded by page id so that concurrent readers only contend
//! on the shard they touch, while [`pool::BufferPool::stats`] keeps
//! summing one exact pool-wide ledger; [`pool::BufferPool::new`] pins a
//! single shard — the paper-exact configuration every frozen benchmark
//! uses — and [`pool::BufferPool::sharded`] enables the concurrent
//! configuration. Every page access takes its shard's mutex, and the
//! [`pool::LockStats`] ledger counts them. See the [`pool`] module docs
//! for the lock ordering and determinism contract.
//!
//! The device itself is allowed to lie: every physical write seals the
//! page with a checksum ([`page::Page::seal`]), every physical read
//! verifies it, and [`disk::FaultInjector`] replays deterministic media-
//! fault schedules (transient errors, bad sectors, bit flips, torn and
//! dropped writes). The pool's fetch path retries transients, read-
//! repairs detected corruption from the WAL's page images in durable
//! mode, quarantines sectors that refuse repair, and otherwise surfaces
//! a typed [`disk::IoFault`] — never silent corruption, never a panic on
//! the fallible (`try_*`) entry points. The [`pool::FaultStats`] ledger
//! accounts for all of it.

#![warn(missing_docs)]

pub mod disk;
pub mod page;
pub mod pool;
pub mod wal;

pub use disk::{
    DiskSim, FaultEvent, FaultInjector, FaultKind, IoFault, LatencyEvent, LatencyInjector,
};
pub use page::{seal64, Page, PageId, ReadOutcome, PAGE_SIZE, PAGE_WORDS};
pub use pool::{
    default_shard_count, BufferPool, FaultStats, IoStats, LockStats, PageSnapshot, RedoScope,
    TRANSIENT_RETRIES,
};
pub use wal::{
    recover, CrashInjector, CrashPoint, TreeOpKind, TreeRedo, Wal, WalRecord, WalRecovery,
    WalStats, CRASH_SENTINEL, TREE_OP_VALUE_BYTES,
};
