//! The simulated disk: an append-allocated array of pages that counts every
//! physical access, seals every written page with a checksum, and can
//! replay deterministic media-fault schedules.
//!
//! Substitution note (see DESIGN.md): the paper ran on a real PC and
//! reported page I/Os; we count the same events on an in-memory "disk",
//! which preserves the metric while keeping experiments deterministic.
//!
//! # Checksums
//!
//! Every physical write seals the page: its 64-bit checksum
//! ([`crate::page::Page::seal`], the [`crate::page::seal64`] kernel) is
//! recorded in a catalog stored *beside* the data array, not inside the
//! sector it covers — the ZFS / T10-DIF placement. That placement is what
//! makes the two write-side fault kinds detectable at all: a dropped or
//! torn write leaves the medium holding stale or mixed bytes while the
//! catalog already carries the seal of the *intended* content, so the next
//! physical read reports [`ReadOutcome::Mismatch`]. A checksum stored
//! inside the sector would validate the stale sector perfectly.
//!
//! The device hashes exactly what its command needs: a write seals the
//! intended image once, a read verifies the platter copy once, in place,
//! and an allocation hashes nothing (the seal of a zero page is a
//! constant).
//!
//! # Faults
//!
//! [`FaultInjector`] arms the five media-fault kinds of the fault matrix
//! (transient read error, permanent bad sector, bit flips, torn write,
//! dropped write) at exact access counts — globally or per page — in the
//! style of the WAL's [`crate::wal::CrashInjector`]. Faults fire
//! deterministically and append to a trace, so a faulty run can be
//! replayed and asserted byte-for-byte. With nothing armed the injector
//! is two branch tests per access.
//!
//! # Latency
//!
//! [`LatencyInjector`] is the same arming discipline applied to *time*
//! instead of failure: armed points add ticks to a shared virtual
//! [`TickClock`] when the matching physical read fires, so a "slow
//! platter" is a seeded, replayable schedule rather than a `sleep`. The
//! serving layer's deadlines read the same clock, which is what makes
//! overload experiments deterministic (see `peb_serve`).

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use peb_common::clock::TickClock;

use crate::page::{Page, PageId, ReadOutcome};

/// A typed physical-I/O failure, as surfaced by [`DiskSim::read`] and
/// propagated (after retry/repair) by the buffer pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// The device failed this read transiently; a retry may succeed.
    Transient {
        /// The page whose read failed.
        pid: PageId,
    },
    /// The sector is permanently unreadable (marked bad by the fault
    /// schedule, or never allocated at all).
    BadSector {
        /// The unreadable page.
        pid: PageId,
    },
    /// The device returned bytes whose checksum does not match the seal
    /// taken at the last write — silent corruption, detected.
    Corrupt {
        /// The corrupt page.
        pid: PageId,
        /// The seal recorded when the page was last written.
        expected: u64,
        /// The checksum of the bytes the device actually returned.
        found: u64,
    },
}

impl IoFault {
    /// The page the fault occurred on.
    pub fn pid(&self) -> PageId {
        match self {
            IoFault::Transient { pid } | IoFault::BadSector { pid } => *pid,
            IoFault::Corrupt { pid, .. } => *pid,
        }
    }
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFault::Transient { pid } => write!(f, "transient read error on page {}", pid.0),
            IoFault::BadSector { pid } => write!(f, "bad sector at page {}", pid.0),
            IoFault::Corrupt { pid, expected, found } => write!(
                f,
                "checksum mismatch on page {} (expected {expected:#018x}, found {found:#018x})",
                pid.0
            ),
        }
    }
}

impl std::error::Error for IoFault {}

/// The five media-fault kinds the injector can arm — the rows of the
/// fault matrix. Read-side kinds fire on [`DiskSim::read`], write-side
/// kinds on [`DiskSim::write`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Read-side: this one read attempt fails; the medium is intact and
    /// the next attempt (no other fault armed) succeeds.
    TransientRead,
    /// Read-side: the sector becomes permanently unreadable from this
    /// access on — rewrites do not heal it (a grown defect, not rot).
    BadSector,
    /// Read-side: `bits` stored bits flip in place before the read is
    /// served (1 = classic single-bit rot; >1 = a burst). The corruption
    /// persists on the medium until something rewrites the page.
    BitFlip {
        /// How many distinct bits to flip (clamped to at least 1).
        bits: u8,
    },
    /// Write-side: only the first half of the written bytes reaches the
    /// medium; the tail keeps the previous content (a torn write across
    /// a power cut). The seal catalog still records the intended
    /// content's checksum, so the tear is detectable on the next read.
    TornWrite,
    /// Write-side: the write is acknowledged but never reaches the
    /// medium (a lost write absorbed by a lying drive cache). Detectable
    /// like a torn write: the catalog seal no longer matches the stale
    /// sector.
    DroppedWrite,
}

/// One fired fault, for trace-asserting deterministic schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// What fired.
    pub kind: FaultKind,
    /// The page it fired on.
    pub pid: PageId,
    /// The global access ordinal it fired at (reads and writes counted
    /// separately; see [`FaultInjector::arm_read`] /
    /// [`FaultInjector::arm_write`]).
    pub access: u64,
    /// Whether the access was a write.
    pub write: bool,
}

/// Deterministic media-fault schedule for one [`DiskSim`].
///
/// Faults are armed at exact access ordinals, either globally (the n-th
/// physical read/write overall) or per page (the n-th physical read/write
/// *of that page*), counted from the creation of the disk. Each armed
/// point fires exactly once (bad sectors persist afterwards in the bad-
/// sector set); fired events append to a trace in firing order.
#[derive(Clone, Default)]
pub struct FaultInjector {
    /// Armed read-side points: `(scope, nth) -> kind`, where `scope` is
    /// `Some(pid)` for per-page ordinals and `None` for global ones.
    read_points: HashMap<(Option<u32>, u64), FaultKind>,
    /// Armed write-side points, same keying.
    write_points: HashMap<(Option<u32>, u64), FaultKind>,
    /// Permanently unreadable pages.
    bad: HashSet<u32>,
    /// Global read/write ordinals (next access gets the current value).
    reads_seen: u64,
    writes_seen: u64,
    /// Per-page ordinals, tracked only once something is armed.
    pid_reads: HashMap<u32, u64>,
    pid_writes: HashMap<u32, u64>,
    /// Seed for deriving deterministic bit/byte offsets of flips.
    seed: u64,
    /// Fired events, in firing order.
    trace: Vec<FaultEvent>,
}

/// splitmix64 — the deterministic offset/schedule derivation everywhere
/// in the fault layer (no external RNG crates).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// An empty (idle) injector.
    pub fn new() -> Self {
        FaultInjector { seed: 0xfa017_u64, ..Default::default() }
    }

    /// Set the seed that derives bit/byte offsets for [`FaultKind::BitFlip`]
    /// faults (and nothing else — arming is always explicit).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Arm a read-side fault at the `nth` physical read (0-based, counted
    /// from disk creation): of page `pid` when `Some`, of any page when
    /// `None`. Write-side kinds are rejected.
    pub fn arm_read(&mut self, pid: Option<PageId>, nth: u64, kind: FaultKind) {
        assert!(
            matches!(
                kind,
                FaultKind::TransientRead | FaultKind::BadSector | FaultKind::BitFlip { .. }
            ),
            "{kind:?} is a write-side fault; arm it with arm_write"
        );
        self.read_points.insert((pid.map(|p| p.0), nth), kind);
    }

    /// Arm a write-side fault at the `nth` physical write (0-based,
    /// counted from disk creation): of page `pid` when `Some`, of any
    /// page when `None`. Read-side kinds other than
    /// [`FaultKind::BitFlip`] (corruption during transfer) are rejected.
    pub fn arm_write(&mut self, pid: Option<PageId>, nth: u64, kind: FaultKind) {
        assert!(
            matches!(
                kind,
                FaultKind::TornWrite | FaultKind::DroppedWrite | FaultKind::BitFlip { .. }
            ),
            "{kind:?} is a read-side fault; arm it with arm_read"
        );
        self.write_points.insert((pid.map(|p| p.0), nth), kind);
    }

    /// Mark a sector permanently unreadable right now (the schedule-free
    /// form of [`FaultKind::BadSector`]).
    pub fn mark_bad_sector(&mut self, pid: PageId) {
        self.bad.insert(pid.0);
    }

    /// Whether `pid` is currently in the bad-sector set.
    pub fn is_bad_sector(&self, pid: PageId) -> bool {
        self.bad.contains(&pid.0)
    }

    /// Arm a seeded schedule of `points` read-side faults spread over the
    /// next `window` global read ordinals — the soak-test generator.
    /// Deterministic in `(seed, points, window)`; duplicate ordinals
    /// collapse (last arm wins), so up to `points` faults fire. The kind
    /// mix cycles transient / flip / transient / bad-sector, weighting
    /// the recoverable kinds.
    pub fn arm_seeded_read_schedule(&mut self, seed: u64, points: u64, window: u64) {
        self.seed = seed;
        let base = self.reads_seen;
        for i in 0..points {
            let h = splitmix64(seed ^ (i.wrapping_mul(0x9e37_79b9)));
            let nth = base + h % window.max(1);
            let kind = match i % 4 {
                0 | 2 => FaultKind::TransientRead,
                1 => FaultKind::BitFlip { bits: (h >> 32) as u8 % 3 + 1 },
                _ => FaultKind::BadSector,
            };
            self.read_points.insert((None, nth), kind);
        }
    }

    /// The fired-fault trace, in firing order.
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Total faults fired so far.
    pub fn injected(&self) -> u64 {
        self.trace.len() as u64
    }

    /// Disarm everything: armed points, the bad-sector set, and the
    /// trace. Access ordinals keep counting (they are the disk's clock).
    pub fn clear(&mut self) {
        self.read_points.clear();
        self.write_points.clear();
        self.bad.clear();
        self.trace.clear();
    }

    /// Look up and consume the armed point for this read, advancing the
    /// ordinals (ordinals tick on *every* access, armed or not, so "the
    /// nth read" always means "since disk creation"). Returns the fault
    /// to apply, if any.
    fn on_read(&mut self, pid: PageId) -> Option<FaultKind> {
        let n = self.reads_seen;
        self.reads_seen += 1;
        let pn = {
            let c = self.pid_reads.entry(pid.0).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        if self.read_points.is_empty() {
            return None;
        }
        let kind = self
            .read_points
            .remove(&(Some(pid.0), pn))
            .or_else(|| self.read_points.remove(&(None, n)))?;
        if let FaultKind::BadSector = kind {
            self.bad.insert(pid.0);
        }
        self.trace.push(FaultEvent { kind, pid, access: n, write: false });
        Some(kind)
    }

    /// Look up and consume the armed point for this write (same ordinal
    /// contract as [`FaultInjector::on_read`]). Returns the fault to
    /// apply, if any.
    fn on_write(&mut self, pid: PageId) -> Option<FaultKind> {
        let n = self.writes_seen;
        self.writes_seen += 1;
        let pn = {
            let c = self.pid_writes.entry(pid.0).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        if self.write_points.is_empty() {
            return None;
        }
        let kind = self
            .write_points
            .remove(&(Some(pid.0), pn))
            .or_else(|| self.write_points.remove(&(None, n)))?;
        self.trace.push(FaultEvent { kind, pid, access: n, write: true });
        Some(kind)
    }

    /// Deterministic distinct byte/bit offsets for a flip burst.
    fn flip_offsets(&self, pid: PageId, access: u64, bits: u8) -> Vec<(usize, u8)> {
        let bits = bits.max(1) as usize;
        let mut out = Vec::with_capacity(bits);
        let mut x = self.seed ^ (u64::from(pid.0) << 32) ^ access;
        while out.len() < bits {
            x = splitmix64(x);
            let byte = (x as usize) % crate::page::PAGE_SIZE;
            let mask = 1u8 << ((x >> 13) % 8);
            if !out.contains(&(byte, mask)) {
                out.push((byte, mask));
            }
        }
        out
    }
}

/// One fired latency point, for trace-asserting deterministic slow-read
/// schedules (the latency twin of [`FaultEvent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyEvent {
    /// The page whose read was slowed.
    pub pid: PageId,
    /// The global read ordinal it fired at.
    pub access: u64,
    /// How many virtual ticks the point added to the clock.
    pub ticks: u64,
}

/// Deterministic slow-read schedule for one [`DiskSim`] — the latency
/// counterpart of [`FaultInjector`], with the same arm/ordinal/trace
/// discipline. Armed points add virtual ticks to the disk's
/// [`TickClock`] when the matching physical read happens; nothing
/// sleeps, so "slow media" is reproducible on any machine and a loaded
/// CI runner cannot change the measured overload behavior.
///
/// Unlike fault points, latency points can be armed at the same ordinal
/// repeatedly across [`LatencyInjector::clear`] cycles; within one
/// schedule each armed point fires exactly once.
#[derive(Clone, Default)]
pub struct LatencyInjector {
    /// Armed points: `(scope, nth) -> ticks`, where `scope` is
    /// `Some(pid)` for per-page read ordinals and `None` for global ones
    /// (same keying as [`FaultInjector`]).
    points: HashMap<(Option<u32>, u64), u64>,
    /// Global read ordinal (next read gets the current value).
    reads_seen: u64,
    /// Per-page read ordinals, tracked only once something is armed.
    pid_reads: HashMap<u32, u64>,
    /// Fired events, in firing order.
    trace: Vec<LatencyEvent>,
    /// Total ticks injected so far.
    injected_ticks: u64,
}

impl LatencyInjector {
    /// An empty (idle) injector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `ticks` of extra latency at the `nth` physical read (0-based,
    /// counted from disk creation): of page `pid` when `Some`, of any
    /// page when `None`. Zero-tick points are ignored.
    pub fn arm_slow_read(&mut self, pid: Option<PageId>, nth: u64, ticks: u64) {
        if ticks > 0 {
            self.points.insert((pid.map(|p| p.0), nth), ticks);
        }
    }

    /// Arm a seeded burst of `points` slow reads spread over the next
    /// `window` global read ordinals, each adding between 1 and
    /// `max_ticks` ticks — the chaos-harness generator. Deterministic in
    /// `(seed, points, window, max_ticks)`; duplicate ordinals collapse
    /// (last arm wins), so up to `points` spikes fire.
    pub fn arm_seeded_read_burst(&mut self, seed: u64, points: u64, window: u64, max_ticks: u64) {
        let base = self.reads_seen;
        for i in 0..points {
            let h = splitmix64(seed ^ (i.wrapping_mul(0x517c_c1b7)));
            let nth = base + h % window.max(1);
            let ticks = 1 + (h >> 32) % max_ticks.max(1);
            self.points.insert((None, nth), ticks);
        }
    }

    /// The fired-latency trace, in firing order.
    pub fn trace(&self) -> &[LatencyEvent] {
        &self.trace
    }

    /// Total ticks injected so far.
    pub fn injected_ticks(&self) -> u64 {
        self.injected_ticks
    }

    /// Disarm everything and clear the trace. Read ordinals keep
    /// counting (they are the disk's clock), and the injected-tick total
    /// is preserved — it mirrors ticks already on the [`TickClock`].
    pub fn clear(&mut self) {
        self.points.clear();
        self.trace.clear();
    }

    /// Look up and consume the armed point for this read, advancing the
    /// ordinals (same contract as [`FaultInjector::on_read`]). Returns
    /// the ticks to add to the clock.
    fn on_read(&mut self, pid: PageId) -> u64 {
        let n = self.reads_seen;
        self.reads_seen += 1;
        let pn = {
            let c = self.pid_reads.entry(pid.0).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        if self.points.is_empty() {
            return 0;
        }
        let Some(ticks) =
            self.points.remove(&(Some(pid.0), pn)).or_else(|| self.points.remove(&(None, n)))
        else {
            return 0;
        };
        self.trace.push(LatencyEvent { pid, access: n, ticks });
        self.injected_ticks += ticks;
        ticks
    }
}

/// Physical page store with access counters, a seal catalog, and a fault
/// injector.
///
/// `Clone` copies the entire page array, the seals, the counters, and the
/// fault state — the crash-point harness uses it to harvest the durable
/// state of a "crashed" pool.
#[derive(Clone)]
pub struct DiskSim {
    pages: Vec<Page>,
    /// Seal (checksum) of each page as of its last write, stored apart
    /// from the data (see the module docs on placement).
    seals: Vec<u64>,
    reads: u64,
    writes: u64,
    faults: FaultInjector,
    latency: LatencyInjector,
    /// Virtual clock the latency injector advances. The buffer pool
    /// replaces the default with its own shared clock so query deadlines
    /// observe injected device latency.
    clock: TickClock,
}

impl Default for DiskSim {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskSim {
    /// An empty disk with zeroed access counters and an idle injector.
    pub fn new() -> Self {
        DiskSim {
            pages: Vec::new(),
            seals: Vec::new(),
            reads: 0,
            writes: 0,
            faults: FaultInjector::new(),
            latency: LatencyInjector::new(),
            clock: TickClock::new(),
        }
    }

    /// Replace the clock injected latency advances (the buffer pool
    /// shares its own clock this way). Ticks already injected stay on
    /// the old clock.
    pub fn set_clock(&mut self, clock: TickClock) {
        self.clock = clock;
    }

    /// The virtual clock this disk's latency schedule advances.
    pub fn clock(&self) -> &TickClock {
        &self.clock
    }

    /// Allocate a fresh zeroed page and return its id. Its catalog entry
    /// is the seal of a zero page, computed once per process.
    pub fn allocate(&mut self) -> PageId {
        static ZERO_PAGE_SEAL: OnceLock<u64> = OnceLock::new();
        let pid = PageId(self.pages.len() as u32);
        self.seals.push(*ZERO_PAGE_SEAL.get_or_init(|| Page::new().seal()));
        self.pages.push(Page::new());
        pid
    }

    /// Physically read a page (counted), applying any armed fault and
    /// verifying the stored bytes against the seal catalog — in place, so
    /// only a page that verified is copied out. This is the outcome-typed
    /// form [`DiskSim::read`] adapts into a `Result`.
    pub fn read_outcome(&mut self, pid: PageId) -> ReadOutcome {
        self.reads += 1;
        let slow = self.latency.on_read(pid);
        if slow > 0 {
            self.clock.advance(slow);
        }
        let idx = pid.0 as usize;
        if !pid.is_valid() || idx >= self.pages.len() {
            // Unallocated ids are addressable but were never written:
            // nothing to serve, typed as a bad sector (not a panic).
            return ReadOutcome::BadSector;
        }
        match self.faults.on_read(pid) {
            Some(FaultKind::TransientRead) => return ReadOutcome::Transient,
            Some(FaultKind::BadSector) => return ReadOutcome::BadSector,
            Some(FaultKind::BitFlip { bits }) => {
                // Corrupt the *medium*: the flip persists for later reads
                // until something rewrites the page.
                let access = self.faults.reads_seen.wrapping_sub(1);
                for (byte, mask) in self.faults.flip_offsets(pid, access, bits) {
                    self.pages[idx].bytes_mut(byte, 1)[0] ^= mask;
                }
            }
            Some(FaultKind::TornWrite | FaultKind::DroppedWrite) | None => {}
        }
        if self.faults.is_bad_sector(pid) {
            return ReadOutcome::BadSector;
        }
        let expected = self.seals[idx];
        let found = self.pages[idx].seal();
        if found != expected {
            ReadOutcome::Mismatch { expected, found }
        } else {
            ReadOutcome::Clean(self.pages[idx].clone())
        }
    }

    /// Physically read a page (counted). Every failure is typed — an
    /// unallocated id reads as [`IoFault::BadSector`], never a panic.
    pub fn read(&mut self, pid: PageId) -> Result<Page, IoFault> {
        match self.read_outcome(pid) {
            ReadOutcome::Clean(page) => Ok(page),
            ReadOutcome::Transient => Err(IoFault::Transient { pid }),
            ReadOutcome::BadSector => Err(IoFault::BadSector { pid }),
            ReadOutcome::Mismatch { expected, found } => {
                Err(IoFault::Corrupt { pid, expected, found })
            }
        }
    }

    /// Physically write a page (counted). The seal catalog records the
    /// checksum of the *intended* content unconditionally; an armed
    /// write-side fault then decides what actually reaches the medium
    /// (all of it, half of it, or none of it). Writing an unallocated id
    /// is a caller bug — the pool only writes pages it allocated — and
    /// still panics by contract.
    pub fn write(&mut self, pid: PageId, page: &Page) {
        self.writes += 1;
        let idx = pid.0 as usize;
        self.seals[idx] = page.seal();
        match self.faults.on_write(pid) {
            Some(FaultKind::TornWrite) => {
                // Half-new/half-old: the first half lands, the tail keeps
                // the previous sector content.
                let half = crate::page::PAGE_SIZE / 2;
                self.pages[idx].bytes_mut(0, half).copy_from_slice(page.bytes(0, half));
            }
            Some(FaultKind::DroppedWrite) => {}
            Some(FaultKind::BitFlip { bits }) => {
                // Corruption during transfer: the write lands with bits
                // flipped relative to what was acknowledged (and sealed).
                let mut stored = page.clone();
                let access = self.faults.writes_seen.wrapping_sub(1);
                for (byte, mask) in self.faults.flip_offsets(pid, access, bits) {
                    stored.bytes_mut(byte, 1)[0] ^= mask;
                }
                self.pages[idx] = stored;
            }
            Some(FaultKind::TransientRead | FaultKind::BadSector) | None => {
                self.pages[idx] = page.clone();
            }
        }
    }

    /// Number of pages allocated so far.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// The allocator floor: forget every page at or above `pages`, so the
    /// next [`DiskSim::allocate`] returns `PageId(pages)` again, zeroed.
    /// Recovery resets the data disk to the page count its checkpoint
    /// logged, so re-executed operations allocate the very page ids they
    /// did before the crash. A disk already at or below `pages` is left
    /// alone.
    pub fn truncate(&mut self, pages: usize) {
        self.pages.truncate(pages);
        self.seals.truncate(pages);
    }

    /// Borrow a page image without counting an access (and without fault
    /// injection — this is the harness's view of the platter, not a
    /// device command). Recovery uses it to scan the log region and to
    /// compare disks byte-for-byte; it is **not** part of the measured
    /// I/O path. An unallocated id is a typed error, never a panic.
    pub fn peek(&self, pid: PageId) -> Result<&Page, IoFault> {
        let idx = pid.0 as usize;
        if !pid.is_valid() || idx >= self.pages.len() {
            return Err(IoFault::BadSector { pid });
        }
        Ok(&self.pages[idx])
    }

    /// The cataloged seal of `pid` (the checksum of its last write), or a
    /// typed error for an unallocated id.
    pub fn seal_of(&self, pid: PageId) -> Result<u64, IoFault> {
        let idx = pid.0 as usize;
        if !pid.is_valid() || idx >= self.seals.len() {
            return Err(IoFault::BadSector { pid });
        }
        Ok(self.seals[idx])
    }

    /// The fault injector, for arming schedules and reading the trace.
    pub fn faults_mut(&mut self) -> &mut FaultInjector {
        &mut self.faults
    }

    /// Read-only view of the fault injector (trace, bad-sector set).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// The latency injector, for arming slow-read schedules and reading
    /// the trace.
    pub fn latency_mut(&mut self) -> &mut LatencyInjector {
        &mut self.latency
    }

    /// Read-only view of the latency injector (trace, injected ticks).
    pub fn latency(&self) -> &LatencyInjector {
        &self.latency
    }

    /// Physical page reads since the last counter reset.
    pub fn physical_reads(&self) -> u64 {
        self.reads
    }

    /// Physical page writes since the last counter reset.
    pub fn physical_writes(&self) -> u64 {
        self.writes
    }

    /// Zero both access counters.
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential() {
        let mut d = DiskSim::new();
        assert_eq!(d.allocate(), PageId(0));
        assert_eq!(d.allocate(), PageId(1));
        assert_eq!(d.num_pages(), 2);
    }

    #[test]
    fn reads_and_writes_are_counted() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        let mut p = d.read(pid).unwrap();
        p.put_u64(0, 7);
        d.write(pid, &p);
        assert_eq!(d.physical_reads(), 1);
        assert_eq!(d.physical_writes(), 1);
        assert_eq!(d.read(pid).unwrap().get_u64(0), 7);
        d.reset_counters();
        assert_eq!(d.physical_reads(), 0);
        assert_eq!(d.physical_writes(), 0);
    }

    #[test]
    fn reading_unallocated_page_is_a_typed_error() {
        // The pre-fault-layer behavior was an index panic; an unreadable
        // address is device business, so it is a typed bad sector now.
        let mut d = DiskSim::new();
        assert_eq!(d.read(PageId(3)), Err(IoFault::BadSector { pid: PageId(3) }));
        assert!(d.peek(PageId(3)).is_err());
        assert_eq!(
            d.read(PageId::INVALID),
            Err(IoFault::BadSector { pid: PageId::INVALID }),
            "the sentinel id is never readable"
        );
        // The failed attempts still counted as device accesses.
        assert_eq!(d.physical_reads(), 2);
    }

    #[test]
    fn transient_fault_fails_once_then_recovers() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u64(0, 9);
        d.write(pid, &p);
        d.faults_mut().arm_read(Some(pid), 1, FaultKind::TransientRead);
        assert_eq!(d.read(pid).unwrap().get_u64(0), 9, "read 0 is clean");
        assert_eq!(d.read(pid), Err(IoFault::Transient { pid }), "read 1 faults");
        assert_eq!(d.read(pid).unwrap().get_u64(0), 9, "read 2 recovers");
        assert_eq!(d.faults().injected(), 1);
    }

    #[test]
    fn bad_sector_is_permanent() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        d.faults_mut().arm_read(Some(pid), 0, FaultKind::BadSector);
        assert_eq!(d.read(pid), Err(IoFault::BadSector { pid }));
        // Rewriting does not heal a grown defect.
        d.write(pid, &Page::new());
        assert_eq!(d.read(pid), Err(IoFault::BadSector { pid }));
    }

    #[test]
    fn bit_flip_is_detected_by_the_seal() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u64(128, 0xfeed);
        d.write(pid, &p);
        d.faults_mut().arm_read(Some(pid), 0, FaultKind::BitFlip { bits: 1 });
        match d.read(pid) {
            Err(IoFault::Corrupt { pid: got, expected, found }) => {
                assert_eq!(got, pid);
                assert_ne!(expected, found);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The rot persists until rewritten...
        assert!(matches!(d.read(pid), Err(IoFault::Corrupt { .. })));
        // ...and a rewrite heals it.
        d.write(pid, &p);
        assert_eq!(d.read(pid).unwrap().get_u64(128), 0xfeed);
    }

    #[test]
    fn a_never_written_page_reads_clean_with_the_zero_seal() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        assert_eq!(d.seal_of(pid), Ok(Page::new().seal()));
        assert!(matches!(d.read_outcome(pid), ReadOutcome::Clean(p) if p == Page::new()));
    }

    #[test]
    fn a_mismatch_names_the_catalog_seal_and_the_platter_seal() {
        let mut d = DiskSim::new();
        let pid = d.allocate();
        let mut p = Page::new();
        p.put_u64(128, 0xfeed);
        d.write(pid, &p);
        d.faults_mut().arm_read(Some(pid), 0, FaultKind::BitFlip { bits: 3 });
        match d.read_outcome(pid) {
            ReadOutcome::Mismatch { expected, found } => {
                assert_eq!(expected, d.seal_of(pid).unwrap());
                assert_eq!(expected, p.seal(), "the catalog holds the intended image's seal");
                assert_eq!(found, d.peek(pid).unwrap().seal());
            }
            _ => panic!("an armed flip must read as a mismatch"),
        }
    }

    #[test]
    fn torn_and_dropped_writes_are_detected_on_read() {
        let mut d = DiskSim::new();
        let a = d.allocate();
        let b = d.allocate();
        let mut old = Page::new();
        old.put_u64(0, 1);
        old.put_u64(4088, 1);
        d.write(a, &old);
        d.write(b, &old);

        let mut new = Page::new();
        new.put_u64(0, 2);
        new.put_u64(4088, 2);
        d.faults_mut().arm_write(Some(a), 1, FaultKind::TornWrite);
        d.faults_mut().arm_write(Some(b), 1, FaultKind::DroppedWrite);
        d.write(a, &new); // half lands
        d.write(b, &new); // nothing lands
        assert!(matches!(d.read(a), Err(IoFault::Corrupt { .. })), "torn write detected");
        assert!(matches!(d.read(b), Err(IoFault::Corrupt { .. })), "dropped write detected");
        // The stale halves really are what the medium holds.
        assert_eq!(d.peek(a).unwrap().get_u64(0), 2, "head of the torn write landed");
        assert_eq!(d.peek(a).unwrap().get_u64(4088), 1, "tail kept the old content");
        assert_eq!(d.peek(b).unwrap().get_u64(0), 1, "dropped write left the page alone");
    }

    #[test]
    fn global_and_per_pid_ordinals_both_fire() {
        let mut d = DiskSim::new();
        let a = d.allocate();
        let b = d.allocate();
        d.faults_mut().arm_read(None, 2, FaultKind::TransientRead); // 3rd read overall
        d.faults_mut().arm_read(Some(b), 0, FaultKind::TransientRead); // 1st read of b
        assert!(d.read(a).is_ok()); // global #0
        assert!(d.read(b).is_err()); // global #1, b's #0 -> per-pid point
        assert!(d.read(a).is_err()); // global #2 -> global point
        assert!(d.read(a).is_ok());
        assert!(d.read(b).is_ok());
        let trace = d.faults().trace().to_vec();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].pid, b);
        assert_eq!(trace[1].pid, a);
    }

    #[test]
    fn latency_points_advance_the_clock_and_trace() {
        let mut d = DiskSim::new();
        let a = d.allocate();
        let b = d.allocate();
        d.latency_mut().arm_slow_read(Some(a), 1, 5); // a's 2nd read
        d.latency_mut().arm_slow_read(None, 2, 3); // 3rd read overall
        let clock = d.clock().clone();
        assert_eq!(clock.now(), 0);
        assert!(d.read(a).is_ok()); // global #0, a's #0: clean
        assert_eq!(clock.now(), 0);
        assert!(d.read(a).is_ok()); // a's #1 -> +5
        assert_eq!(clock.now(), 5);
        assert!(d.read(b).is_ok()); // global #2 -> +3
        assert_eq!(clock.now(), 8);
        assert!(d.read(b).is_ok()); // nothing armed
        assert_eq!(clock.now(), 8);
        let trace = d.latency().trace();
        assert_eq!(trace.len(), 2);
        assert_eq!((trace[0].pid, trace[0].ticks), (a, 5));
        assert_eq!((trace[1].pid, trace[1].ticks), (b, 3));
        assert_eq!(d.latency().injected_ticks(), 8);
    }

    #[test]
    fn latency_and_faults_compose_on_one_read() {
        // A read can be both slow and failing: the ticks land before the
        // outcome is decided, so a deadline sees the stall either way.
        let mut d = DiskSim::new();
        let pid = d.allocate();
        d.faults_mut().arm_read(Some(pid), 0, FaultKind::TransientRead);
        d.latency_mut().arm_slow_read(Some(pid), 0, 7);
        let clock = d.clock().clone();
        assert_eq!(d.read(pid), Err(IoFault::Transient { pid }));
        assert_eq!(clock.now(), 7, "the stall precedes the typed failure");
    }

    #[test]
    fn seeded_latency_burst_is_deterministic() {
        let run = || {
            let mut d = DiskSim::new();
            let pids: Vec<PageId> = (0..4).map(|_| d.allocate()).collect();
            d.latency_mut().arm_seeded_read_burst(99, 6, 16, 10);
            for r in 0..16u64 {
                let _ = d.read(pids[(r % 4) as usize]);
            }
            (d.clock().now(), d.latency().trace().to_vec())
        };
        let (t1, e1) = run();
        let (t2, e2) = run();
        assert_eq!(t1, t2, "injected ticks must be reproducible");
        assert_eq!(e1, e2, "latency trace must be reproducible");
        assert!(!e1.is_empty(), "the seeded burst must actually fire");
        assert!(e1.iter().all(|e| e.ticks >= 1 && e.ticks <= 10));
    }

    #[test]
    fn fault_trace_is_deterministic() {
        let run = || {
            let mut d = DiskSim::new();
            let pids: Vec<PageId> = (0..4).map(|_| d.allocate()).collect();
            let mut p = Page::new();
            for (i, pid) in pids.iter().enumerate() {
                p.put_u64(0, i as u64);
                d.write(*pid, &p);
            }
            d.faults_mut().arm_seeded_read_schedule(42, 6, 16);
            let mut outcomes = Vec::new();
            for r in 0..16u64 {
                let pid = pids[(r % 4) as usize];
                outcomes.push(d.read(pid).map(|p| p.get_u64(0)));
            }
            (outcomes, d.faults().trace().to_vec())
        };
        let (o1, t1) = run();
        let (o2, t2) = run();
        assert_eq!(o1, o2, "outcome sequence must be reproducible");
        assert_eq!(t1, t2, "fault trace must be reproducible");
        assert!(!t1.is_empty(), "the seeded schedule must actually fire");
    }
}
