//! Sharded LRU buffer pool in front of the simulated disk.
//!
//! The pool is the unit both indexes talk to: every page touch, even a
//! buffer hit, updates LRU recency and the I/O counters. **Lock sharding**
//! keeps that off a global critical path: a [`PageId`] hashes to one of N
//! lock shards (N a power of two), each owning its own frame table (its
//! slice of the frame budget), its own LRU clock, and its own slice of the
//! [`IoStats`] ledger. Every page access — hit or miss, read or write —
//! takes exactly one mutex, the owning shard's, and accesses to different
//! shards never contend. [`LockStats`] counts the acquisitions.
//!
//! Only a **miss** (or a dirty eviction) additionally takes the shared
//! disk lock, mirroring the real-world cost structure where hits are
//! memory-speed and misses pay for I/O anyway.
//!
//! # Lock ordering
//!
//! `shard lock → wal lock → disk lock`, and never more than one shard
//! lock at a time. The disk lock is only ever acquired while holding at
//! most one shard lock, no code path acquires a shard lock while holding
//! the disk or wal lock, and the wal lock is taken while holding at most
//! one shard lock (the log owns its own disk region and never touches
//! shards or the data disk), so the hierarchy is acyclic and
//! deadlock-free. (Index-level locks sit *above* all three: index shard →
//! pool shard → wal → disk.)
//!
//! # Determinism and the paper's I/O ledger
//!
//! [`BufferPool::stats`] sums the per-shard counters, so the paper's
//! single I/O ledger stays exact regardless of the shard count. Every
//! touch takes a distinct tick of its shard's LRU clock, so the
//! single-shard default configuration makes byte-for-byte the same
//! eviction decisions as the seed single-mutex pool
//! (`crates/bench/tests/frozen_io.rs` pins this). Across *different*
//! shard counts the counters legitimately differ — N shards are N
//! independent LRU domains — which is why the frozen benchmark
//! configurations pin `shards = 1` via [`BufferPool::new`];
//! [`BufferPool::sharded`] is the concurrent-serving configuration.
//!
//! # Capacity split
//!
//! A total budget of `capacity` frames over `n` shards gives shard `i`
//! `capacity / n` frames plus one extra if `i < capacity % n` (the
//! remainder goes to the lowest-numbered shards). The shard count is
//! clamped so every shard owns at least one frame.

mod shard;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use peb_common::clock::TickClock;

use crate::disk::{DiskSim, FaultInjector, IoFault, LatencyInjector};
use crate::page::{Page, PageId};
use crate::wal::{CrashInjector, CrashPoint, Wal, WalRecord, WalStats};
use shard::{Frame, PoolShard};

/// How many times a transient device error is retried before it surfaces
/// as a typed [`IoFault::Transient`]. Retry `k` (1-based) adds `2^k`
/// deterministic backoff ticks to [`FaultStats::backoff_ticks`] — a
/// simulated-time ledger, not a wall-clock sleep, so faulty runs stay
/// exactly reproducible.
pub const TRANSIENT_RETRIES: u32 = 3;

/// I/O counters accumulated by a [`BufferPool`].
///
/// `physical_reads` is the paper's "I/O cost" for read-only workloads;
/// queries report `physical_reads + physical_writes` (writes only occur for
/// dirty evictions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Buffer misses that had to go to disk.
    pub physical_reads: u64,
    /// Dirty pages written back on eviction or flush.
    pub physical_writes: u64,
    /// All page requests, hits included.
    pub logical_reads: u64,
}

impl IoStats {
    /// Total physical page accesses — the paper's I/O cost metric.
    pub fn total_io(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Buffer hit ratio over the logical accesses seen so far.
    ///
    /// An untouched pool (zero logical reads) reports `1.0`: no access
    /// has ever missed, so "all hits so far" is the truthful reading —
    /// returning `0.0` would make a fresh pool look like it thrashes.
    ///
    /// ```
    /// use peb_storage::IoStats;
    ///
    /// let untouched = IoStats::default();
    /// assert_eq!(untouched.hit_ratio(), 1.0);
    ///
    /// let warm = IoStats { physical_reads: 3, physical_writes: 0, logical_reads: 10 };
    /// assert_eq!(warm.hit_ratio(), 0.7);
    /// ```
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            return 1.0;
        }
        1.0 - self.physical_reads as f64 / self.logical_reads as f64
    }

    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &IoStats) -> IoStats {
        IoStats {
            physical_reads: self.physical_reads + other.physical_reads,
            physical_writes: self.physical_writes + other.physical_writes,
            logical_reads: self.logical_reads + other.logical_reads,
        }
    }
}

/// Locking counters accumulated by a [`BufferPool`]: how many shard
/// mutexes the data path took (exact on any box, unlike wall-clock
/// contention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Shim, always 0: the lock-free read path is gone.
    /// `e2e/src/adapter.rs` is the only reader; the next `benchmark` PR
    /// deletes this field.
    pub optimistic_hits: u64,
    /// Shim, always 0, as above.
    pub optimistic_retries: u64,
    /// Shim, always 0, as above.
    pub locked_fallbacks: u64,
    /// Shard-mutex acquisitions by the data path ([`BufferPool::read`],
    /// [`BufferPool::write`], [`BufferPool::allocate`],
    /// [`BufferPool::try_read_snapshot`]); administrative sweeps (`stats`,
    /// `flush_all`, `clear`, …) are not counted.
    pub lock_acquisitions: u64,
    /// Shim, always 0: the page latches are gone. `e2e/src/adapter.rs` is
    /// the only reader; the next `benchmark` PR deletes this field.
    pub latch_acquisitions: u64,
    /// Shim, always 0, as above (deleted together with `pool.latch_waits`).
    pub latch_waits: u64,
}

impl LockStats {
    /// Element-wise sum of two counter sets (shard aggregation).
    pub fn merged(&self, other: &LockStats) -> LockStats {
        LockStats {
            lock_acquisitions: self.lock_acquisitions + other.lock_acquisitions,
            ..LockStats::default()
        }
    }
}

/// The pool's fault ledger: everything the retry / read-repair /
/// quarantine machinery did, deterministic for a fixed fault schedule.
///
/// These counters sit *beside* [`IoStats`], not inside it: a fetch that
/// needed three transient retries and a repair still lands on the I/O
/// ledger as exactly one physical read — identical to the fault-free twin
/// of the same run — while the extra device traffic is visible here (and
/// on the [`DiskSim`]'s own device-level counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient read errors absorbed by an immediate bounded retry.
    pub transient_retries: u64,
    /// Deterministic backoff units accrued across retries (`2^attempt`
    /// per retry — a simulated clock, no wall time is spent).
    pub backoff_ticks: u64,
    /// Fetches that exhausted the retry budget and surfaced the
    /// transient error.
    pub transient_exhausted: u64,
    /// Physical reads whose content failed seal verification.
    pub checksum_mismatches: u64,
    /// Physical reads that hit a permanently unreadable sector.
    pub bad_sector_reads: u64,
    /// Read-repairs attempted (the WAL held an image of the page).
    pub repairs_attempted: u64,
    /// Read-repairs whose rewrite re-verified against the image's seal.
    pub repairs_succeeded: u64,
    /// Device reads issued by the repair loop's re-verification.
    pub repair_reads: u64,
    /// Device writes issued by the repair loop's rewrite.
    pub repair_writes: u64,
    /// Pages quarantined after repair failed twice (served from a pinned
    /// frame backed by the WAL image from then on).
    pub quarantines: u64,
    /// Faults returned to the caller as typed errors (non-durable pool,
    /// unrepairable page, or retry budget exhausted).
    pub surfaced_errors: u64,
}

/// Atomic backing store of [`FaultStats`] (relaxed counters — exact once
/// accesses quiesce, like every other pool ledger).
#[derive(Default)]
struct FaultCounters {
    transient_retries: AtomicU64,
    backoff_ticks: AtomicU64,
    transient_exhausted: AtomicU64,
    checksum_mismatches: AtomicU64,
    bad_sector_reads: AtomicU64,
    repairs_attempted: AtomicU64,
    repairs_succeeded: AtomicU64,
    repair_reads: AtomicU64,
    repair_writes: AtomicU64,
    quarantines: AtomicU64,
    surfaced_errors: AtomicU64,
}

impl FaultCounters {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            transient_retries: self.transient_retries.load(Ordering::Relaxed),
            backoff_ticks: self.backoff_ticks.load(Ordering::Relaxed),
            transient_exhausted: self.transient_exhausted.load(Ordering::Relaxed),
            checksum_mismatches: self.checksum_mismatches.load(Ordering::Relaxed),
            bad_sector_reads: self.bad_sector_reads.load(Ordering::Relaxed),
            repairs_attempted: self.repairs_attempted.load(Ordering::Relaxed),
            repairs_succeeded: self.repairs_succeeded.load(Ordering::Relaxed),
            repair_reads: self.repair_reads.load(Ordering::Relaxed),
            repair_writes: self.repair_writes.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            surfaced_errors: self.surfaced_errors.load(Ordering::Relaxed),
        }
    }
}

/// A private copy of one page — the unit a descent-path cursor caches
/// ([`BufferPool::try_read_snapshot`]).
///
/// Fused multi-interval scans keep one snapshot per B+-tree level so that
/// re-routing to a nearby key can reuse the upper-level pages already in
/// hand: consulting the copy costs no pool traffic at all (no lock, no
/// logical read). The pool never revalidates a copy; the caller decides
/// how long one stays current (a scan's copies do for as long as the scan
/// excludes the tree's writers).
pub struct PageSnapshot {
    pid: PageId,
    page: Page,
}

impl PageSnapshot {
    /// An empty snapshot (refers to no page until filled by
    /// [`BufferPool::try_read_snapshot`]).
    pub fn new() -> Self {
        PageSnapshot { pid: PageId::INVALID, page: Page::new() }
    }

    /// The page this snapshot copied (`PageId::INVALID` before first use).
    pub fn pid(&self) -> PageId {
        self.pid
    }

    /// The cached page image. Only meaningful after a successful
    /// [`BufferPool::try_read_snapshot`].
    pub fn page(&self) -> &Page {
        &self.page
    }
}

impl Default for PageSnapshot {
    fn default() -> Self {
        PageSnapshot::new()
    }
}

/// An open logical-redo scope of a durable [`BufferPool`]
/// ([`BufferPool::redo_scope`]): the page writes made while it lives are
/// re-executed at recovery from the records logged through it, so they
/// log no post-image of their own.
pub struct RedoScope {
    pool: Arc<BufferPool>,
    /// Whether an enclosing scope was open already (it stays open when
    /// this one closes).
    outer: bool,
}

impl RedoScope {
    /// Append `rec` — a logical record describing this scope's writes —
    /// to the log, unforced (the caller's commit forces it).
    pub fn log(&self, rec: &WalRecord) {
        if let Some(wal) = self.pool.wal.lock().as_mut() {
            wal.append(rec);
        }
    }
}

impl Drop for RedoScope {
    fn drop(&mut self) {
        self.pool.in_redo.store(self.outer, Ordering::Relaxed);
    }
}

/// The shared buffer manager: a sharded LRU page cache over a
/// [`DiskSim`]. See the [module docs](self) for the sharding, locking
/// and determinism contract.
pub struct BufferPool {
    /// The lock shards; length is always a power of two.
    shards: Box<[Mutex<PoolShard>]>,
    /// `shards.len() - 1`, used to mask a page id onto its shard.
    shard_mask: usize,
    /// Total frame budget across all shards.
    total_capacity: usize,
    /// The simulated disk, behind its own lock **below** every shard lock.
    disk: Mutex<DiskSim>,
    /// Whether the write-ahead-log protocol is active. An atomic flag so
    /// the default (non-durable) hot path pays one relaxed load and never
    /// touches the `wal` mutex — the frozen I/O ledgers are bit-identical
    /// with durability off.
    durable: AtomicBool,
    /// The write-ahead log, present once durability was ever enabled.
    /// Lock order: a shard lock may be held when taking this, and this may
    /// be held when taking nothing — the log never touches shards or the
    /// data disk (it owns its own disk region).
    wal: Mutex<Option<Wal>>,
    /// Crash-point injector counting every simulated disk-page write in
    /// durable mode (shared with the test harness via
    /// [`BufferPool::crash_injector`]).
    injector: Arc<CrashInjector>,
    /// Whether a checkpoint is running: every injection point that fires
    /// inside one is labelled [`CrashPoint::Checkpoint`]. Plain atomic
    /// (not thread-local) because the durable write path is specified
    /// single-threaded — see [`BufferPool::set_durable`].
    in_checkpoint: AtomicBool,
    /// Whether a [`RedoScope`] is open: the page writes in progress are
    /// described by a logical record their caller logs, so they log no
    /// post-image. Plain atomic for the same single-writer reason.
    in_redo: AtomicBool,
    /// The retry / read-repair / quarantine ledger ([`FaultStats`]).
    faults: FaultCounters,
    /// The virtual clock: one tick per logical page access, plus
    /// whatever the disk's [`LatencyInjector`] arms on physical reads.
    /// Shared with the disk (and, via [`BufferPool::clock`], with the
    /// serving layer's deadlines).
    clock: TickClock,
}

/// The default shard count: the next power of two at or above the
/// machine's available parallelism (1 if parallelism cannot be queried).
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).next_power_of_two()
}

impl BufferPool {
    /// A single-shard pool holding at most `capacity` pages (the paper
    /// uses 50).
    ///
    /// One shard means one LRU domain over the whole budget — exactly the
    /// original single-mutex pool, byte-identical counters included. This
    /// is the right configuration for reproducing the paper's I/O numbers
    /// and is what every frozen benchmark configuration uses; use
    /// [`BufferPool::sharded`] when serving concurrent readers.
    pub fn new(capacity: usize) -> Self {
        BufferPool::with_shards(capacity, 1)
    }

    /// A pool sharded for concurrent access: [`default_shard_count`] lock
    /// shards (clamped so each owns at least one of the `capacity`
    /// frames).
    pub fn sharded(capacity: usize) -> Self {
        BufferPool::with_shards(capacity, default_shard_count())
    }

    /// A pool with an explicit shard count.
    ///
    /// `shards` is rounded up to a power of two, then halved until every
    /// shard owns at least one frame. The `capacity` budget is split per
    /// the remainder rule: shard `i` of `n` gets `capacity / n + 1` frames
    /// if `i < capacity % n`, else `capacity / n`.
    ///
    /// ```
    /// use peb_storage::BufferPool;
    ///
    /// let pool = BufferPool::with_shards(10, 4);
    /// assert_eq!(pool.num_shards(), 4);
    /// assert_eq!(pool.shard_capacities(), vec![3, 3, 2, 2]);
    ///
    /// // Clamped: 8 shards cannot each own a frame of a 2-frame budget.
    /// assert_eq!(BufferPool::with_shards(2, 8).num_shards(), 2);
    /// ```
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        assert!(shards >= 1, "buffer pool needs at least one shard");
        let mut n = shards.next_power_of_two();
        while n > capacity {
            n >>= 1;
        }
        let (base, rem) = (capacity / n, capacity % n);
        let shards: Box<[Mutex<PoolShard>]> =
            (0..n).map(|i| Mutex::new(PoolShard::new(base + usize::from(i < rem)))).collect();
        let clock = TickClock::new();
        let mut disk = DiskSim::new();
        disk.set_clock(clock.clone());
        BufferPool {
            shards,
            shard_mask: n - 1,
            total_capacity: capacity,
            disk: Mutex::new(disk),
            durable: AtomicBool::new(false),
            wal: Mutex::new(None),
            injector: Arc::new(CrashInjector::new()),
            in_checkpoint: AtomicBool::new(false),
            in_redo: AtomicBool::new(false),
            faults: FaultCounters::default(),
            clock,
        }
    }

    /// The shard a page id maps to: the id's low bits. Pages are
    /// allocated sequentially, so consecutive pages (e.g. neighboring
    /// B+-tree leaves) round-robin across shards.
    pub fn shard_of(&self, pid: PageId) -> usize {
        pid.0 as usize & self.shard_mask
    }

    /// Allocate a fresh zeroed page; it becomes resident and dirty so the
    /// first write-back is counted like any other.
    pub fn allocate(&self) -> PageId {
        // Disk lock first for the id, *released* before the shard lock —
        // the ordering shard → disk must never be inverted.
        let pid = self.disk.lock().allocate();
        let mut imaged = false;
        if self.durable.load(Ordering::Relaxed) {
            // A fresh page has no committed content to roll back, so it
            // never needs a pre-image this checkpoint interval: an
            // uncommitted alloc is unreferenced garbage, a committed one is
            // covered by redo — the logical record that re-executes it, or
            // else this allocation record (no other lock held).
            let mut wal = self.wal.lock();
            if let Some(wal) = wal.as_mut() {
                if !self.in_redo.load(Ordering::Relaxed) {
                    wal.append(&WalRecord::Alloc { pid });
                    imaged = true;
                }
                wal.mark_preimaged(pid);
            }
        }
        let s = &mut *self.lock_shard(pid);
        if s.table.is_full() {
            self.evict_one(s);
        }
        let tick = s.next_tick();
        s.table.insert(
            pid,
            Frame {
                page: Page::new(),
                dirty: true,
                last_used: tick,
                lsn: 0,
                imaged,
                pinned: false,
            },
        );
        pid
    }

    /// Lock `pid`'s shard for a data-path access, counting the
    /// acquisition in [`LockStats::lock_acquisitions`].
    fn lock_shard(&self, pid: PageId) -> MutexGuard<'_, PoolShard> {
        let mut s = self.shards[self.shard_of(pid)].lock();
        s.lock_acquisitions += 1;
        s
    }

    /// Read access to a page through the buffer, taking the owning
    /// shard's lock (a hit touches nothing else); a miss faults the page
    /// in from disk.
    ///
    /// Panics if the fetch hits a media fault the retry/repair machinery
    /// cannot resolve — use [`BufferPool::try_read`] where a typed error
    /// should propagate instead. On fault-free media the two are
    /// identical.
    pub fn read<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> R {
        self.try_read(pid, f).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BufferPool::read`]: a transient device error is retried
    /// (bounded), a detected corruption is read-repaired from the WAL in
    /// durable mode, and anything unresolvable comes back as a typed
    /// [`IoFault`] instead of a panic.
    pub fn try_read<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, IoFault> {
        Ok(self.try_with_page(pid, false, |page| f(page))?.0)
    }

    /// Write access to a page through the buffer; marks the frame dirty.
    ///
    /// Panics on an unresolvable media fault (see [`BufferPool::read`]);
    /// [`BufferPool::try_write`] is the fallible form.
    pub fn write<R>(&self, pid: PageId, f: impl FnOnce(&mut Page) -> R) -> R {
        self.try_write(pid, f).unwrap_or_else(|e| panic!("unresolved I/O fault: {e}"))
    }

    /// Fallible [`BufferPool::write`] (the fault can only arise while
    /// faulting the page *in* — the write-back itself is asynchronous).
    pub fn try_write<R>(&self, pid: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R, IoFault> {
        Ok(self.try_with_page(pid, true, f)?.0)
    }

    /// Fill `snap` with a copy of `pid`, taken under the shard lock — the
    /// read primitive of descent-path cursors. The touch lands on the I/O
    /// ledger exactly like any other page read; reusing the copy later
    /// costs nothing. Returns whether the read was a buffer hit (`false`:
    /// the page was faulted in from the device).
    ///
    /// ```
    /// use peb_storage::{BufferPool, PageSnapshot};
    ///
    /// let pool = BufferPool::new(4);
    /// let pid = pool.allocate();
    /// pool.write(pid, |p| p.put_u64(0, 7));
    ///
    /// let mut snap = PageSnapshot::new();
    /// assert!(pool.try_read_snapshot(pid, &mut snap).unwrap(), "resident: a hit");
    /// assert_eq!((snap.pid(), snap.page().get_u64(0)), (pid, 7));
    /// pool.write(pid, |p| p.put_u64(0, 8));
    /// assert_eq!(snap.page().get_u64(0), 7, "a private copy: writes do not reach it");
    /// ```
    pub fn try_read_snapshot(&self, pid: PageId, snap: &mut PageSnapshot) -> Result<bool, IoFault> {
        let copy = &mut snap.page;
        let (_, hit) = self.try_with_page(pid, false, |p| copy.clone_from(p))?;
        snap.pid = pid;
        Ok(hit)
    }

    /// Fetch one page from the device, absorbing what the fault layer can:
    /// transient errors are retried up to [`TRANSIENT_RETRIES`] times with
    /// a deterministic exponential backoff ledger (simulated ticks, no
    /// wall time), and detected corruption or a bad sector goes through
    /// [`BufferPool::repair_or_surface`]. Returns the verified page plus
    /// whether it must be pinned resident (quarantined sector).
    ///
    /// Called with the owning shard lock held; takes the wal and disk
    /// locks below it, never both at once with another shard lock — the
    /// lock hierarchy is unchanged.
    fn fetch_verified(&self, pid: PageId) -> Result<(Page, bool), IoFault> {
        let mut attempt = 0u32;
        loop {
            // Bind before matching: a guard in the scrutinee would live
            // across the arms, and the repair arm re-locks the disk.
            let result = self.disk.lock().read(pid);
            match result {
                Ok(page) => return Ok((page, false)),
                Err(IoFault::Transient { .. }) if attempt < TRANSIENT_RETRIES => {
                    attempt += 1;
                    self.faults.transient_retries.fetch_add(1, Ordering::Relaxed);
                    self.faults.backoff_ticks.fetch_add(1 << attempt, Ordering::Relaxed);
                }
                Err(fault @ IoFault::Transient { .. }) => {
                    self.faults.transient_exhausted.fetch_add(1, Ordering::Relaxed);
                    self.faults.surfaced_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(fault);
                }
                Err(fault) => return self.repair_or_surface(pid, fault),
            }
        }
    }

    /// Handle a non-transient fetch failure: in durable mode, read-repair
    /// the page from the WAL's image of what was last written to it
    /// ([`Wal::latest_image`]: rewrite, re-read, re-verify, twice); if
    /// both rounds fail, quarantine the sector and
    /// serve the WAL image from a pinned frame. Outside durable mode —
    /// or when the page was never logged — the fault surfaces typed.
    ///
    /// Repair traffic deliberately bypasses the crash injector and the
    /// pool's [`IoStats`]: a repair write is an idempotent replay of an
    /// already-logged image (a crash mid-repair just re-repairs on the
    /// next read), and keeping it off the pool ledger is what lets a
    /// repaired run's I/O counters stay identical to its fault-free
    /// twin's. The traffic is visible on [`FaultStats`] and the device's
    /// own counters instead.
    fn repair_or_surface(&self, pid: PageId, fault: IoFault) -> Result<(Page, bool), IoFault> {
        match fault {
            IoFault::Corrupt { .. } => {
                self.faults.checksum_mismatches.fetch_add(1, Ordering::Relaxed);
            }
            IoFault::BadSector { .. } => {
                self.faults.bad_sector_reads.fetch_add(1, Ordering::Relaxed);
            }
            IoFault::Transient { .. } => unreachable!("transients are retried, not repaired"),
        }
        if !self.durable.load(Ordering::Relaxed) {
            self.faults.surfaced_errors.fetch_add(1, Ordering::Relaxed);
            return Err(fault);
        }
        let image = self.wal.lock().as_ref().and_then(|w| w.latest_image(pid));
        let Some(image) = image else {
            // Durable, but this page was never logged (enrolled into
            // durability and untouched since): nothing to repair from.
            self.faults.surfaced_errors.fetch_add(1, Ordering::Relaxed);
            return Err(fault);
        };
        self.faults.repairs_attempted.fetch_add(1, Ordering::Relaxed);
        let seal = image.seal();
        for _ in 0..2 {
            let mut disk = self.disk.lock();
            self.faults.repair_writes.fetch_add(1, Ordering::Relaxed);
            disk.write(pid, &image);
            self.faults.repair_reads.fetch_add(1, Ordering::Relaxed);
            if let Ok(back) = disk.read(pid) {
                if back.verify(seal) {
                    self.faults.repairs_succeeded.fetch_add(1, Ordering::Relaxed);
                    return Ok((back, false));
                }
            }
        }
        // The sector will not hold the image (grown defect): quarantine.
        // The WAL image is exact, so serving it is correct — it just must
        // never be evicted to (or re-fetched from) the bad sector again.
        self.faults.quarantines.fetch_add(1, Ordering::Relaxed);
        Ok((image, true))
    }

    /// Fetch `pid` into its shard (counting a hit or a miss), bump LRU
    /// recency, and run `f` on the frame under the shard lock. In durable
    /// mode a dirtying access logs the page's pre-image (first write since
    /// the last checkpoint only) before `f` and, unless a
    /// [`RedoScope`] is open, its full post-image after, stamping the
    /// frame with the LSN the log must reach before the frame may be
    /// written back. Returns `f`'s result and whether the access was a
    /// buffer hit.
    ///
    /// A miss goes through [`BufferPool::fetch_verified`]; an
    /// unresolvable media fault aborts before any frame state changes
    /// (only the logical-read count and a possible eviction happened) and
    /// surfaces as `Err`.
    fn try_with_page<R>(
        &self,
        pid: PageId,
        mark_dirty: bool,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<(R, bool), IoFault> {
        let s = &mut *self.lock_shard(pid);
        let tick = s.next_tick();
        s.stats.logical_reads += 1;
        self.clock.advance(1);
        let hit = s.table.contains(pid);
        if !hit {
            if s.table.is_full() {
                self.evict_one(s);
            }
            let (page, pinned) = self.fetch_verified(pid)?;
            // One physical read on the pool ledger regardless of how many
            // device attempts the fault layer needed — see [`FaultStats`].
            s.stats.physical_reads += 1;
            s.table.insert(
                pid,
                Frame { page, dirty: false, last_used: 0, lsn: 0, imaged: false, pinned },
            );
        }
        let frame = s
            .table
            .get_mut(pid)
            .expect("invariant: fetch_verified inserted the frame under this shard lock");
        frame.last_used = tick;
        if mark_dirty {
            frame.dirty = true;
        }
        let r = if mark_dirty && self.durable.load(Ordering::Relaxed) {
            // Shard lock is held; the wal lock nests under it (see the
            // field docs). Log-before-page: the pre-image (and a physical
            // post-image) are in the log stream before the frame can ever
            // be flushed at this LSN.
            let mut wal = self.wal.lock();
            // Invariant, not fault-reachable: `set_durable(true)` creates
            // the wal before the flag is ever observable as set.
            let wal = wal.as_mut().expect("durable pool always has a wal");
            if !wal.is_preimaged(pid) {
                let image = Box::new(frame.page.clone());
                frame.lsn = wal.append(&WalRecord::PreImage { pid, image });
                wal.mark_preimaged(pid);
            }
            let r = f(&mut frame.page);
            // A write inside a redo scope is re-executed from its caller's
            // logical record; any other logs its full post-image.
            frame.imaged = !self.in_redo.load(Ordering::Relaxed);
            if frame.imaged {
                let image = Box::new(frame.page.clone());
                frame.lsn = wal.append(&WalRecord::PageWrite { pid, image });
            }
            r
        } else {
            f(&mut frame.page)
        };
        Ok((r, hit))
    }

    /// Evict the shard's LRU frame, writing it back (counted) if dirty.
    /// Caller holds the shard lock; the wal and disk locks are taken
    /// below it ([`BufferPool::write_back`]).
    fn evict_one(&self, s: &mut PoolShard) {
        let Some((vpid, mut frame)) = s.table.take_victim() else {
            // Reachable under faults: every resident frame is pinned
            // (quarantined), so there is nothing safe to evict — the
            // caller's insert transiently exceeds the shard budget
            // instead of dropping a page whose disk sector is bad.
            return;
        };
        if frame.dirty {
            self.write_back(&mut s.stats, vpid, &mut frame);
        }
    }

    /// Write a dirty frame back to the data disk (counted on `stats`).
    /// In durable mode, log-before-page first: the image of the bytes
    /// about to be written is logged unless the log already holds them
    /// (the read-repair source), and the log is forced durable up to the
    /// frame's LSN, so its pre-image is durable before the page can be
    /// overwritten. Each log page written on the way is a crash-injection
    /// point, and so is the data write.
    fn write_back(&self, stats: &mut IoStats, pid: PageId, frame: &mut Frame) {
        if self.durable.load(Ordering::Relaxed) {
            let label = self.scope_label(CrashPoint::WalWrite);
            if let Some(wal) = self.wal.lock().as_mut() {
                if !frame.imaged {
                    let image = Box::new(frame.page.clone());
                    wal.append(&WalRecord::WriteBack { pid, image });
                    frame.imaged = true;
                }
                wal.flush_up_to(frame.lsn, &mut || self.injector.hit(label));
            }
            self.injector.hit(self.scope_label(CrashPoint::PageFlush));
        }
        stats.physical_writes += 1;
        self.disk.lock().write(pid, &frame.page);
        frame.dirty = false;
    }

    /// Write every dirty frame back to disk (counted), keeping residency;
    /// returns how many pages were flushed. Frames flush in ascending
    /// page-id order per shard, so
    /// the write sequence is deterministic. In durable mode each data
    /// write is preceded by forcing the log durable up to the frame's LSN.
    ///
    /// ```
    /// use peb_storage::BufferPool;
    ///
    /// let pool = BufferPool::new(4);
    /// let a = pool.allocate();
    /// let b = pool.allocate();
    /// pool.write(a, |p| p.put_u64(0, 1));
    /// assert_eq!(pool.dirty_page_count(), 2, "fresh allocations start dirty");
    /// assert_eq!(pool.flush_all(), 2);
    /// assert_eq!(pool.dirty_page_count(), 0);
    /// assert_eq!(pool.flush_all(), 0, "a clean pool flushes nothing");
    /// pool.write(b, |p| p.put_u64(0, 2));
    /// assert_eq!((pool.dirty_page_count(), pool.flush_all()), (1, 1));
    /// ```
    pub fn flush_all(&self) -> usize {
        let mut flushed = 0;
        for shard in self.shards.iter() {
            let s = &mut *shard.lock();
            for pid in s.table.sorted_pids() {
                // Invariant, not fault-reachable: sorted_pids listed this
                // pid under the same shard lock we still hold.
                let frame = s.table.get_mut(pid).expect("listed frame resident");
                // A pinned frame's sector is quarantined: writing it back
                // would be lost. (A checkpoint logs its image instead.)
                if !frame.dirty || frame.pinned {
                    continue;
                }
                self.write_back(&mut s.stats, pid, frame);
                flushed += 1;
            }
        }
        flushed
    }

    /// Number of resident frames whose content has not reached the data
    /// disk yet, across all shards — the work [`BufferPool::flush_all`]
    /// (and therefore a checkpoint) would have to do right now.
    pub fn dirty_page_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.dirty_count()).sum()
    }

    /// Drop every unpinned frame (writing back dirty ones, in ascending
    /// page-id order). Used by experiments to cold-start the buffer
    /// between measurement rounds. Quarantined (pinned) frames stay
    /// resident: their disk sector holds bad bytes, so the
    /// in-memory copy is the page.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let s = &mut *shard.lock();
            let mut frames = s.table.drain_evictable();
            frames.sort_unstable_by_key(|(pid, _)| *pid);
            for (pid, mut frame) in frames {
                if frame.dirty {
                    self.write_back(&mut s.stats, pid, &mut frame);
                }
            }
        }
    }

    /// The crash-point label for a disk write: `Checkpoint` inside a
    /// checkpoint, else `base`.
    fn scope_label(&self, base: CrashPoint) -> CrashPoint {
        if self.in_checkpoint.load(Ordering::Relaxed) {
            CrashPoint::Checkpoint
        } else {
            base
        }
    }

    /// Switch the write-ahead-log protocol on (or off). Turning it on
    /// creates the log on first use; turning it off stops logging but
    /// keeps the log contents (the pool can be re-enabled).
    ///
    /// **Contract:** the durable write path is single-threaded — the
    /// simulated crash/recovery harness drives one mutator, matching how
    /// the frozen benchmarks drive updates. Readers may still run
    /// concurrently (they take no WAL path). Enabling durability does not
    /// checkpoint; the index layer decides checkpoint boundaries.
    ///
    /// Enabling **adopts** every dirty resident frame into the log as a
    /// full page image: content written *before* enrollment has no log
    /// coverage (the log-before-page rule only protects writes made while
    /// durable), so without these images a crash between enrollment and
    /// the end of the first checkpoint would lose it. Adoption is pure
    /// log appends — no disk traffic, so no crash-injection point fires
    /// inside. The images become recoverable once the caller seals them
    /// under a commit or a completed checkpoint.
    pub fn set_durable(&self, on: bool) {
        if on {
            {
                let mut wal = self.wal.lock();
                if wal.is_none() {
                    *wal = Some(Wal::new());
                }
            }
            for shard in self.shards.iter() {
                let s = &mut *shard.lock();
                for pid in s.table.sorted_pids() {
                    let frame = s.table.get_mut(pid).expect("listed frame resident");
                    if !frame.dirty {
                        continue;
                    }
                    let rec = WalRecord::PageWrite { pid, image: Box::new(frame.page.clone()) };
                    let lsn = {
                        let mut guard = self.wal.lock();
                        let wal = guard.as_mut().expect("created above");
                        let lsn = wal.append(&rec);
                        // The adoption image doubles as the page's
                        // pre-image floor: an undo of a later uncommitted
                        // write may restore stale disk content, but the
                        // committed adoption image is replayed over it by
                        // redo.
                        wal.mark_preimaged(pid);
                        lsn
                    };
                    frame.lsn = lsn;
                    frame.imaged = true;
                }
            }
        }
        self.durable.store(on, Ordering::Relaxed);
    }

    /// Open a redo scope, or `None` with durability off (one relaxed
    /// load). While the returned guard lives, durable page writes — and
    /// allocations — log no image: the caller describes them with the
    /// logical record it appends through [`RedoScope::log`] once its
    /// operation succeeded, and recovery re-executes that record instead.
    /// A caller whose operation failed drops the scope unlogged: what it
    /// changed is then described by nothing but the write-back images
    /// read-repair needs. Scopes nest (the outer one stays open).
    pub fn redo_scope(self: &Arc<Self>) -> Option<RedoScope> {
        if !self.durable.load(Ordering::Relaxed) {
            return None;
        }
        let outer = self.in_redo.swap(true, Ordering::Relaxed);
        Some(RedoScope { pool: Arc::clone(self), outer })
    }

    /// Whether the write-ahead-log protocol is currently active.
    pub fn is_durable(&self) -> bool {
        self.durable.load(Ordering::Relaxed)
    }

    /// The crash-point injector shared with the test harness. Arming it
    /// makes the N-th durable-mode disk-page write panic (see
    /// [`CrashInjector`]); probing records the label sequence instead.
    pub fn crash_injector(&self) -> &Arc<CrashInjector> {
        &self.injector
    }

    /// The retry / read-repair / quarantine ledger. All zeros on fault-
    /// free media — the subsystem costs nothing when nothing fails.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.snapshot()
    }

    /// Run `f` on the data disk's [`FaultInjector`] (arm schedules, read
    /// the fired-fault trace). Takes the disk lock; never call while
    /// inside a pool callback.
    pub fn with_fault_injector<R>(&self, f: impl FnOnce(&mut FaultInjector) -> R) -> R {
        f(self.disk.lock().faults_mut())
    }

    /// Run `f` on the data disk's [`LatencyInjector`] (arm slow-read
    /// schedules, read the fired-latency trace). Takes the disk lock;
    /// never call while inside a pool callback.
    pub fn with_latency_injector<R>(&self, f: impl FnOnce(&mut LatencyInjector) -> R) -> R {
        f(self.disk.lock().latency_mut())
    }

    /// The pool's virtual clock: one tick per logical page access, plus
    /// armed slow-read latency. Deadlines ([`peb_common::clock::Deadline`])
    /// built on this clock expire from *work done*, never wall time, so
    /// overload behavior is deterministic. Lock-free.
    pub fn clock(&self) -> &TickClock {
        &self.clock
    }

    /// Page ids currently quarantined (pinned resident after a failed
    /// read-repair), ascending across shards.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        let mut pids: Vec<PageId> =
            self.shards.iter().flat_map(|s| s.lock().table.pinned_pids()).collect();
        pids.sort_unstable();
        pids
    }

    /// Take a fuzzy checkpoint: log `CkptBegin`, one `TreeMeta` per entry
    /// of `trees` (tree id, root, height) and the data disk's page count
    /// (`DiskPages`, the allocator floor recovery resets to), flush every
    /// dirty frame (log-before-page per frame), log the image of every
    /// quarantined dirty frame the flush must skip (recovery restores it
    /// as part of the checkpoint state), then log `CkptEnd` and force the
    /// whole log durable. Afterwards the pre-image ledger restarts: the
    /// next write to any page logs a fresh pre-image. Returns the number
    /// of pages flushed. No-op (returning 0) with durability off.
    ///
    /// Recovery honors a checkpoint only once its `CkptEnd` is durable, so
    /// a crash anywhere inside falls back to the previous checkpoint —
    /// whose pre-images are still intact because the ledger is only
    /// cleared after the end record is on disk.
    pub fn checkpoint(&self, trees: &[(u32, PageId, u32)]) -> usize {
        if !self.durable.load(Ordering::Relaxed) {
            return 0;
        }
        // Cleared on unwind too: an injected crash inside the checkpoint
        // must not leak the label into the harvested pool.
        struct Clear<'a>(&'a AtomicBool);
        impl Drop for Clear<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Relaxed);
            }
        }
        self.in_checkpoint.store(true, Ordering::Relaxed);
        let _clear = Clear(&self.in_checkpoint);
        let pages = self.disk.lock().num_pages() as u32;
        let begin_seq = {
            let mut wal = self.wal.lock();
            let wal = wal.as_mut().expect("durable pool always has a wal");
            let begin_seq = wal.next_seq();
            wal.append(&WalRecord::CkptBegin);
            for &(tree, root, height) in trees {
                wal.append(&WalRecord::TreeMeta { tree, root, height });
            }
            wal.append(&WalRecord::DiskPages { pages });
            begin_seq
        };
        let flushed = self.flush_all();
        for shard in self.shards.iter() {
            let s = &mut *shard.lock();
            for pid in s.table.pinned_pids() {
                let frame = s.table.get_mut(pid).expect("listed frame resident");
                if frame.dirty {
                    let image = Box::new(frame.page.clone());
                    let mut wal = self.wal.lock();
                    let wal = wal.as_mut().expect("durable pool always has a wal");
                    frame.lsn = wal.append(&WalRecord::PageWrite { pid, image });
                    frame.imaged = true;
                }
            }
        }
        let mut wal = self.wal.lock();
        let wal = wal.as_mut().expect("durable pool always has a wal");
        wal.append(&WalRecord::CkptEnd { begin_seq });
        let label = self.scope_label(CrashPoint::WalWrite);
        wal.flush(&mut || self.injector.hit(label));
        wal.clear_preimaged();
        flushed
    }

    /// Log a commit record covering `ops` completed index operations and
    /// force the log durable — the boundary recovery rolls forward to.
    /// No-op with durability off.
    pub fn wal_commit(&self, ops: u64) {
        if !self.durable.load(Ordering::Relaxed) {
            return;
        }
        let label = self.scope_label(CrashPoint::WalWrite);
        let mut wal = self.wal.lock();
        if let Some(wal) = wal.as_mut() {
            wal.append(&WalRecord::Commit { ops });
            wal.flush(&mut || self.injector.hit(label));
        }
    }

    /// Force the whole log durable without committing anything: every
    /// log-page write on the way is a counted crash-injection point under
    /// the ambient scope label. Callers use this at the boundary of bulk
    /// structural work so the committed-but-unforced log window stays
    /// bounded — recovery still rolls the forced-but-uncommitted tail back
    /// to the last commit.
    /// No-op with durability off.
    pub fn wal_force(&self) {
        if !self.durable.load(Ordering::Relaxed) {
            return;
        }
        let label = self.scope_label(CrashPoint::WalWrite);
        let mut wal = self.wal.lock();
        if let Some(wal) = wal.as_mut() {
            wal.flush(&mut || self.injector.hit(label));
        }
    }

    /// Log a tree-metadata record (root page and height of tree `tree`)
    /// without forcing the log. Called when a tree registers, so that a
    /// crash before the first checkpoint still finds its root (every
    /// checkpoint logs all of them again). Ignored with durability off or
    /// for an unregistered tree (`u32::MAX`).
    pub fn wal_tree_meta(&self, tree: u32, root: PageId, height: u32) {
        if tree == u32::MAX || !self.durable.load(Ordering::Relaxed) {
            return;
        }
        let mut wal = self.wal.lock();
        if let Some(wal) = wal.as_mut() {
            wal.append(&WalRecord::TreeMeta { tree, root, height });
        }
    }

    /// The write-ahead log's counters (records/bytes appended, log pages
    /// written, flushes) — zeroes if durability was never enabled.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.lock().as_ref().map(Wal::stats).unwrap_or_default()
    }

    /// Clone the durable state a crash would leave behind: the data disk
    /// and the log disk, exactly as the simulated platters stand right
    /// now. Buffered frames and the in-memory log tail are — correctly —
    /// not part of it. The crash harness calls this after catching the
    /// injected panic, then feeds both to [`crate::wal::recover`].
    pub fn harvest_crash_state(&self) -> (DiskSim, DiskSim) {
        let data = self.disk.lock().clone();
        let log = self.wal.lock().as_ref().map(|w| w.disk().clone()).unwrap_or_default();
        (data, log)
    }

    /// A durable pool resuming from recovered state: `data` is the data
    /// disk after [`crate::wal::recover`] replayed the log tail, `wal` is
    /// the resumed log ([`Wal::resume`]). The pool starts cold (no
    /// resident frames) with durability on.
    pub fn from_recovered(capacity: usize, shards: usize, data: DiskSim, wal: Wal) -> Self {
        let pool = BufferPool::with_shards(capacity, shards);
        let mut data = data;
        data.set_clock(pool.clock.clone());
        *pool.disk.lock() = data;
        *pool.wal.lock() = Some(wal);
        pool.durable.store(true, Ordering::Relaxed);
        pool
    }

    /// The pool-wide I/O ledger: the element-wise sum of every shard's
    /// counters, so the paper's single set of numbers survives sharding.
    /// Shards are read one lock at a time, so under concurrent traffic
    /// this is a read-committed aggregate, exact once accesses quiesce
    /// (any single-threaded measurement reads exact totals).
    ///
    /// ```
    /// use peb_storage::BufferPool;
    ///
    /// let pool = BufferPool::new(4);
    /// let pid = pool.allocate();
    /// pool.clear(); // evict, so the next read must go to disk
    /// pool.reset_stats();
    ///
    /// pool.read(pid, |_| ()); // miss: 1 physical read
    /// pool.read(pid, |_| ()); // hit: free
    ///
    /// let s = pool.stats();
    /// assert_eq!(s.logical_reads, 2);
    /// assert_eq!(s.physical_reads, 1);
    /// assert_eq!(s.total_io(), 1); // physical reads + writes — the paper's metric
    /// assert_eq!(s.hit_ratio(), 0.5); // 1 hit out of 2 logical reads
    /// ```
    pub fn stats(&self) -> IoStats {
        self.shard_stats().iter().fold(IoStats::default(), |acc, s| acc.merged(s))
    }

    /// Each shard's local I/O counters, in shard order. `stats()` is
    /// exactly the element-wise sum of these.
    pub fn shard_stats(&self) -> Vec<IoStats> {
        self.shards.iter().map(|s| s.lock().stats).collect()
    }

    /// The pool-wide locking ledger: shard-mutex acquisitions summed
    /// across shards. Deterministic for a fixed single-threaded workload.
    ///
    /// ```
    /// use peb_storage::BufferPool;
    ///
    /// let pool = BufferPool::new(4);
    /// let pid = pool.allocate();
    /// pool.reset_stats();
    /// pool.read(pid, |_| ());
    /// pool.write(pid, |p| p.put_u64(0, 1));
    /// assert_eq!(pool.lock_stats().lock_acquisitions, 2, "one shard mutex per access");
    /// ```
    pub fn lock_stats(&self) -> LockStats {
        self.shard_lock_stats().iter().fold(LockStats::default(), |acc, s| acc.merged(s))
    }

    /// Each shard's locking counters, in shard order ([`BufferPool::lock_stats`]
    /// is the element-wise sum). The per-shard `lock_acquisitions` column
    /// is what the acquired-lock hot-share metric is computed from.
    pub fn shard_lock_stats(&self) -> Vec<LockStats> {
        let acquisitions = |s: &Mutex<PoolShard>| s.lock().lock_acquisitions;
        self.shards
            .iter()
            .map(|s| LockStats { lock_acquisitions: acquisitions(s), ..LockStats::default() })
            .collect()
    }

    /// Zero every shard's I/O and locking counters. Resident pages stay
    /// resident: resetting counters must not cool the cache.
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            let s = &mut *shard.lock();
            s.stats = IoStats::default();
            s.lock_acquisitions = 0;
        }
    }

    /// Total frame budget across all shards.
    pub fn capacity(&self) -> usize {
        self.total_capacity
    }

    /// Number of lock shards (always a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's frame budget, in shard order; sums to
    /// [`BufferPool::capacity`] (see the remainder rule in the module
    /// docs).
    pub fn shard_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().table.capacity()).collect()
    }

    /// Frames currently resident across all shards; never exceeds
    /// [`BufferPool::capacity`].
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_are_free_misses_cost_one_read() {
        let pool = BufferPool::new(4);
        let pid = pool.allocate();
        pool.reset_stats();
        for _ in 0..10 {
            pool.read(pid, |p| p.get_u64(0));
        }
        let s = pool.stats();
        assert_eq!(s.physical_reads, 0, "resident page never touches disk");
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.hit_ratio(), 1.0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::new(2);
        let a = pool.allocate();
        let b = pool.allocate(); // pool now holds {a, b}
        pool.read(a, |_| ()); // a is now more recent than b
        let c = pool.allocate(); // must evict b
        pool.reset_stats();
        pool.read(a, |_| ());
        pool.read(c, |_| ());
        assert_eq!(pool.stats().physical_reads, 0, "a and c stayed resident");
        pool.read(b, |_| ());
        assert_eq!(pool.stats().physical_reads, 1, "b was the LRU victim");
    }

    #[test]
    fn dirty_eviction_writes_back_and_preserves_data() {
        let pool = BufferPool::new(1);
        let a = pool.allocate();
        pool.write(a, |p| p.put_u64(0, 77));
        let _b = pool.allocate(); // evicts dirty a -> physical write
        assert!(pool.stats().physical_writes >= 1);
        // Reading a again must see the written value (via disk).
        assert_eq!(pool.read(a, |p| p.get_u64(0)), 77);
    }

    #[test]
    fn flush_and_clear_round_trip() {
        let pool = BufferPool::new(8);
        let pids: Vec<PageId> = (0..5).map(|_| pool.allocate()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.write(*pid, |p| p.put_u32(0, i as u32));
        }
        pool.flush_all();
        pool.clear();
        pool.reset_stats();
        for (i, pid) in pids.iter().enumerate() {
            assert_eq!(pool.read(*pid, |p| p.get_u32(0)), i as u32);
        }
        // All 5 were cold: exactly 5 physical reads.
        assert_eq!(pool.stats().physical_reads, 5);
    }

    #[test]
    fn total_io_combines_reads_and_writes() {
        let s = IoStats { physical_reads: 3, physical_writes: 2, logical_reads: 10 };
        assert_eq!(s.total_io(), 5);
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn untouched_pool_reports_perfect_hit_ratio() {
        // Documented choice: zero logical reads means nothing ever missed.
        assert_eq!(IoStats::default().hit_ratio(), 1.0);
        let pool = BufferPool::new(4);
        assert_eq!(pool.stats().hit_ratio(), 1.0);
        // One miss drops it to 0.0; a subsequent hit brings it to 0.5.
        let pid = pool.allocate();
        pool.clear();
        pool.reset_stats();
        pool.read(pid, |_| ());
        assert_eq!(pool.stats().hit_ratio(), 0.0);
        pool.read(pid, |_| ());
        assert_eq!(pool.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn workload_larger_than_pool_thrashes() {
        let pool = BufferPool::new(4);
        let pids: Vec<PageId> = (0..16).map(|_| pool.allocate()).collect();
        pool.clear();
        pool.reset_stats();
        // Sequential scan twice: with only 4 frames over 16 pages every
        // access misses.
        for _ in 0..2 {
            for pid in &pids {
                pool.read(*pid, |_| ());
            }
        }
        assert_eq!(pool.stats().physical_reads, 32);
    }

    #[test]
    fn capacity_splits_with_remainder_to_low_shards() {
        let pool = BufferPool::with_shards(11, 4);
        assert_eq!(pool.num_shards(), 4);
        assert_eq!(pool.shard_capacities(), vec![3, 3, 3, 2]);
        assert_eq!(pool.capacity(), 11);

        // Power-of-two rounding (3 -> 4) and clamping (each shard >= 1).
        assert_eq!(BufferPool::with_shards(12, 3).num_shards(), 4);
        assert_eq!(BufferPool::with_shards(3, 16).num_shards(), 2);
        assert_eq!(BufferPool::with_shards(1, 16).num_shards(), 1);
    }

    #[test]
    fn sharded_pool_preserves_data_and_sums_stats() {
        let pool = BufferPool::with_shards(8, 4);
        let pids: Vec<PageId> = (0..32).map(|_| pool.allocate()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.write(*pid, |p| p.put_u64(0, i as u64 * 7));
        }
        pool.clear();
        pool.reset_stats();
        for (i, pid) in pids.iter().enumerate() {
            assert_eq!(pool.read(*pid, |p| p.get_u64(0)), i as u64 * 7);
        }
        let total = pool.stats();
        assert_eq!(total.logical_reads, 32);
        assert_eq!(total.physical_reads, 32, "all cold after clear");
        let summed = pool.shard_stats().iter().fold(IoStats::default(), |acc, s| acc.merged(s));
        assert_eq!(total, summed, "stats() is the sum of per-shard counters");
        assert!(pool.resident_pages() <= pool.capacity());
    }

    #[test]
    fn shard_of_uses_low_bits_round_robin() {
        let pool = BufferPool::with_shards(16, 4);
        let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
        let shards: Vec<usize> = pids.iter().map(|p| pool.shard_of(*p)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn eviction_is_per_shard_and_respects_budgets() {
        // 2 shards x 2 frames. Four pages of shard 0 thrash its 2 frames
        // while shard 1's residents survive untouched.
        let pool = BufferPool::with_shards(4, 2);
        let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
        let s0: Vec<PageId> = pids.iter().copied().filter(|p| pool.shard_of(*p) == 0).collect();
        let s1: Vec<PageId> = pids.iter().copied().filter(|p| pool.shard_of(*p) == 1).collect();
        pool.clear();
        // Warm shard 1 with its first two pages.
        pool.read(s1[0], |_| ());
        pool.read(s1[1], |_| ());
        pool.reset_stats();
        // Cycle all four shard-0 pages twice: every access misses.
        for _ in 0..2 {
            for pid in &s0 {
                pool.read(*pid, |_| ());
            }
        }
        assert_eq!(pool.stats().physical_reads, 8, "shard 0 thrashes");
        pool.read(s1[0], |_| ());
        pool.read(s1[1], |_| ());
        assert_eq!(
            pool.stats().physical_reads,
            8,
            "shard 1 residents were never evicted by shard 0 pressure"
        );
    }

    #[test]
    fn snapshot_reads_count_like_any_other_touch() {
        let pool = BufferPool::new(4);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 99));
        pool.reset_stats();
        let mut snap = PageSnapshot::new();
        assert!(pool.try_read_snapshot(pid, &mut snap).unwrap(), "resident page: a hit");
        assert_eq!(snap.pid(), pid);
        assert_eq!(snap.page().get_u64(0), 99);
        let io = pool.stats();
        assert_eq!(io.logical_reads, 1, "one snapshot = one logical read");
        assert_eq!(pool.lock_stats().lock_acquisitions, 1, "taken under the shard mutex");
        // Consulting the copy costs nothing further.
        assert_eq!(snap.page().get_u64(0), 99);
        assert_eq!(pool.stats(), io, "reuse is free on the ledger");
    }

    #[test]
    fn snapshot_falls_back_locked_and_never_revalidates() {
        let pool = BufferPool::new(2);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 123));
        pool.flush_all();
        pool.clear(); // cold: the snapshot must fault the page in
        pool.reset_stats();
        let mut snap = PageSnapshot::new();
        assert!(!pool.try_read_snapshot(pid, &mut snap).unwrap(), "cold page: a miss");
        assert_eq!(snap.page().get_u64(0), 123, "the copy is exact");
        let io = pool.stats();
        assert_eq!(io.logical_reads, 1);
        assert_eq!(io.physical_reads, 1, "faulted in once");
        // Nothing revalidates a copy: eviction and writes leave it as taken.
        pool.write(pid, |p| p.put_u64(0, 124));
        pool.clear();
        assert_eq!(snap.page().get_u64(0), 123);
        assert!(pool.try_read_snapshot(pid, &mut snap).is_ok());
        assert_eq!(snap.page().get_u64(0), 124, "a fresh snapshot sees the write");
    }

    #[test]
    fn identical_traces_give_identical_lock_stats() {
        // LockStats is deterministic for a fixed single-threaded trace.
        let run = || {
            let pool = BufferPool::new(4);
            let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
            for round in 0..3 {
                for (i, pid) in pids.iter().enumerate() {
                    if (i + round) % 3 == 0 {
                        pool.write(*pid, |p| p.put_u64(0, round as u64));
                    } else {
                        pool.read(*pid, |_| ());
                    }
                }
            }
            (pool.lock_stats(), pool.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transient_faults_are_retried_invisibly() {
        use crate::disk::FaultKind;
        let pool = BufferPool::new(2);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 5));
        pool.flush_all();
        pool.clear();
        pool.reset_stats();
        // The next physical read of `pid` is its first ever (allocation
        // reads nothing); it fails once and the fetch must absorb it.
        pool.with_fault_injector(|f| f.arm_read(Some(pid), 0, FaultKind::TransientRead));
        assert_eq!(pool.read(pid, |p| p.get_u64(0)), 5);
        let io = pool.stats();
        assert_eq!(io.physical_reads, 1, "one pool-ledger read despite the retry");
        let fs = pool.fault_stats();
        assert_eq!(fs.transient_retries, 1);
        assert_eq!(fs.backoff_ticks, 2, "first retry accrues 2^1 ticks");
        assert_eq!(fs.surfaced_errors, 0);
    }

    #[test]
    fn exhausted_transients_surface_typed() {
        use crate::disk::FaultKind;
        let pool = BufferPool::new(2);
        let pid = pool.allocate();
        pool.flush_all();
        pool.clear();
        pool.with_fault_injector(|f| {
            // Fail the fetch attempt and all TRANSIENT_RETRIES retries.
            for nth in 0..=u64::from(TRANSIENT_RETRIES) {
                f.arm_read(Some(pid), nth, FaultKind::TransientRead);
            }
        });
        let err = pool.try_read(pid, |_| ()).unwrap_err();
        assert_eq!(err, IoFault::Transient { pid });
        let fs = pool.fault_stats();
        assert_eq!(fs.transient_retries, u64::from(TRANSIENT_RETRIES));
        assert_eq!(fs.transient_exhausted, 1);
        assert_eq!(fs.surfaced_errors, 1);
        // The medium is intact: the next fetch succeeds.
        assert!(pool.try_read(pid, |_| ()).is_ok());
    }

    #[test]
    fn non_durable_corruption_surfaces_typed() {
        use crate::disk::FaultKind;
        let pool = BufferPool::new(2);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 9));
        pool.flush_all();
        pool.clear();
        pool.with_fault_injector(|f| f.arm_read(Some(pid), 0, FaultKind::BitFlip { bits: 1 }));
        assert!(matches!(pool.try_read(pid, |_| ()), Err(IoFault::Corrupt { .. })));
        let fs = pool.fault_stats();
        assert_eq!(fs.checksum_mismatches, 1);
        assert_eq!(fs.repairs_attempted, 0, "no wal, nothing to repair from");
        assert_eq!(fs.surfaced_errors, 1);
    }

    #[test]
    fn durable_corruption_is_read_repaired_from_the_wal() {
        use crate::disk::FaultKind;
        let pool = BufferPool::new(2);
        pool.set_durable(true);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 77));
        pool.wal_commit(1);
        pool.flush_all();
        pool.clear();
        pool.reset_stats();
        pool.with_fault_injector(|f| f.arm_read(Some(pid), 0, FaultKind::BitFlip { bits: 2 }));
        assert_eq!(pool.read(pid, |p| p.get_u64(0)), 77, "repaired content is exact");
        let fs = pool.fault_stats();
        assert_eq!(fs.checksum_mismatches, 1);
        assert_eq!(fs.repairs_attempted, 1);
        assert_eq!(fs.repairs_succeeded, 1);
        assert_eq!(fs.quarantines, 0);
        assert_eq!(pool.stats().physical_reads, 1, "repair traffic stays off the pool ledger");
        // The rewrite healed the medium: a cold re-read needs no repair.
        pool.flush_all();
        pool.clear();
        assert_eq!(pool.read(pid, |p| p.get_u64(0)), 77);
        assert_eq!(pool.fault_stats().repairs_attempted, 1);
    }

    #[test]
    fn failed_repair_quarantines_and_serves_the_wal_image() {
        let pool = BufferPool::new(2);
        pool.set_durable(true);
        let pid = pool.allocate();
        pool.write(pid, |p| p.put_u64(0, 123));
        pool.wal_commit(1);
        pool.flush_all();
        pool.clear();
        // A grown defect: the sector is permanently unreadable, so the
        // repair rewrites can never re-verify.
        pool.with_fault_injector(|f| f.mark_bad_sector(pid));
        assert_eq!(pool.read(pid, |p| p.get_u64(0)), 123, "served from the WAL image");
        let fs = pool.fault_stats();
        assert_eq!(fs.bad_sector_reads, 1);
        assert_eq!(fs.repairs_attempted, 1);
        assert_eq!(fs.repairs_succeeded, 0);
        assert_eq!(fs.quarantines, 1);
        assert_eq!(pool.quarantined_pages(), vec![pid]);
        // The pinned frame survives clear() — it is the only good copy —
        // and keeps serving reads without touching the bad sector.
        pool.clear();
        pool.reset_stats();
        assert_eq!(pool.read(pid, |p| p.get_u64(0)), 123);
        assert_eq!(pool.stats().physical_reads, 0, "quarantined page reads are buffer hits");
        assert_eq!(pool.fault_stats().quarantines, 1, "no re-quarantine");
    }

    #[test]
    fn quarantined_frames_do_not_starve_the_shard() {
        // Capacity 1: the quarantined frame occupies the only slot, and
        // the shard must transiently exceed its budget rather than evict
        // it or deadlock.
        let pool = BufferPool::new(1);
        pool.set_durable(true);
        let a = pool.allocate();
        pool.write(a, |p| p.put_u64(0, 1));
        pool.wal_commit(1);
        let b = pool.allocate(); // evicts dirty a
        pool.write(b, |p| p.put_u64(0, 2));
        pool.wal_commit(2);
        pool.flush_all();
        pool.clear();
        pool.with_fault_injector(|f| f.mark_bad_sector(a));
        assert_eq!(pool.read(a, |p| p.get_u64(0)), 1, "quarantined");
        assert_eq!(pool.quarantined_pages(), vec![a]);
        // Both pages stay readable even though the budget is 1 frame.
        assert_eq!(pool.read(b, |p| p.get_u64(0)), 2);
        assert_eq!(pool.read(a, |p| p.get_u64(0)), 1);
        assert_eq!(pool.read(b, |p| p.get_u64(0)), 2);
    }

    #[test]
    fn fault_stats_are_zero_on_clean_media() {
        let pool = BufferPool::new(4);
        let pids: Vec<PageId> = (0..8).map(|_| pool.allocate()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.write(*pid, |p| p.put_u64(0, i as u64));
        }
        pool.flush_all();
        pool.clear();
        for pid in &pids {
            pool.read(*pid, |_| ());
        }
        assert_eq!(pool.fault_stats(), FaultStats::default());
        assert!(pool.quarantined_pages().is_empty());
    }
}
