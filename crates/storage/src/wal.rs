//! Write-ahead log, fuzzy checkpoints, and crash recovery for the buffer
//! pool, plus the deterministic crash-point injector the durability tests
//! are built on.
//!
//! The log is an append-only byte stream of fixed-stride records (one
//! stride per record type) forced onto a **second** [`DiskSim`] region,
//! so log I/O is simulated with exactly the same machinery as data I/O
//! and log-write amplification is measurable; memory holds only the tail
//! that region does not have yet. Each record carries a
//! monotonically increasing sequence number and a 64-bit checksum — the
//! page seal's kernel, [`crate::page::seal64`], whose value covers the
//! record's length and the position of every word; recovery stops at the
//! first record that fails validation, which is what makes torn log
//! tails safe.
//!
//! ## The protocol
//!
//! * **Logical redo.** Every committed B+-tree mutation appends one small
//!   record naming the entry point and its arguments —
//!   [`WalRecord::TreeOp`] or [`WalRecord::Rekey`] — not the pages it
//!   wrote. Recovery re-executes those operations through the ordinary
//!   tree entry points. A page write that no such record describes
//!   (enrollment adoption, a direct pool client) logs its full
//!   [`WalRecord::PageWrite`] post-image instead: physical redo.
//! * **First-write pre-images.** The first time a page is dirtied after
//!   a checkpoint, its *current* content is logged as a
//!   [`WalRecord::PreImage`] so recovery can roll it back to the
//!   checkpoint (the pool evicts dirty pages freely — a steal policy — so
//!   the data disk may hold later content at a crash).
//! * **Log-before-page.** Every data-page write is preceded by a logged
//!   image of the bytes it writes — a [`WalRecord::WriteBack`], unless a
//!   `PageWrite` already holds them — which is the read-repair source
//!   ([`Wal::latest_image`]), and by forcing the log up to the frame's
//!   LSN ([`Wal::flush_up_to`]), so a page's pre-image is durable before
//!   the page can be overwritten. An LSN is the byte end-offset of a
//!   record in the log stream, so "flushed up to LSN" has the usual
//!   meaning of a durable log prefix.
//! * **Commit.** Each index-level mutation ends with a
//!   [`WalRecord::Commit`] followed by a full log flush.
//! * **Fuzzy checkpoints.** A checkpoint (always taken at a committed
//!   op boundary) logs [`WalRecord::CkptBegin`], the root/height of every
//!   tree ([`WalRecord::TreeMeta`]) and the data disk's page count
//!   ([`WalRecord::DiskPages`]), flushes every dirty frame, logs the image
//!   of every quarantined dirty frame it cannot flush, then logs
//!   [`WalRecord::CkptEnd`] and flushes the log. A `CkptEnd` is only
//!   honored by recovery if it is durable, which bounds replay at the last
//!   *complete* checkpoint.
//! * **Recovery** ([`recover`]) puts the data disk back in the state of
//!   the last complete checkpoint — the *first* pre-image of each page
//!   logged after it, the images logged inside it, and the allocator reset
//!   to its page count — redoes the committed physical images, and hands
//!   the committed tree operations after the checkpoint back to the index
//!   ([`WalRecovery::tree_ops`]), which re-executes them on the trees as
//!   the checkpoint left them. Every recovery starts from that same
//!   state, so recovering twice is recovering once.
//!
//! ## Crash points
//!
//! [`CrashInjector`] counts every simulated disk-page write (data and
//! log) while durability is on and can panic — "crash" — exactly at op
//! N, which makes every kill point reproducible. In-memory log appends
//! are *not* injection points: a crash can cut the log at a page
//! boundary mid-flush but never mid-record, so torn records only arise
//! from explicit truncation (tested separately). Each op carries a
//! [`CrashPoint`] label (WAL append flush, data-page flush, checkpoint)
//! so the test matrix can cover every category.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::disk::DiskSim;
use crate::page::{seal64, Page, PageId, PAGE_SIZE};

/// First byte of every log record; a zeroed tail never looks like one.
pub const WAL_MAGIC: u8 = 0xA5;

/// Value bytes a [`WalRecord::TreeOp`] carries: enough for every record
/// value a logged tree stores (the moving-object record is 28 bytes);
/// shorter values are zero-padded.
pub const TREE_OP_VALUE_BYTES: usize = 32;

const TAG_ALLOC: u8 = 1;
const TAG_PAGE_WRITE: u8 = 2;
// Tag 3 is retired (it carried message-chain page images); it decodes as
// an unknown tag, like any other invalid record.
const TAG_PRE_IMAGE: u8 = 4;
const TAG_TREE_META: u8 = 5;
const TAG_REKEY: u8 = 6;
const TAG_COMMIT: u8 = 7;
const TAG_CKPT_BEGIN: u8 = 8;
const TAG_CKPT_END: u8 = 9;
const TAG_WRITE_BACK: u8 = 10;
const TAG_TREE_OP: u8 = 11;
const TAG_DISK_PAGES: u8 = 12;

/// `[magic][tag]` prefix in front of every record's payload.
const HEADER: usize = 2;
/// `[seq: u64][crc: u64]` trailer behind every record's payload.
const TRAILER: usize = 16;

const fn stride_of(tag: u8) -> Option<usize> {
    match tag {
        TAG_ALLOC | TAG_DISK_PAGES => Some(HEADER + 4 + TRAILER),
        TAG_PAGE_WRITE | TAG_PRE_IMAGE | TAG_WRITE_BACK => Some(IMAGE_STRIDE),
        TAG_TREE_META => Some(HEADER + 12 + TRAILER),
        TAG_REKEY => Some(HEADER + 36 + TRAILER),
        TAG_COMMIT => Some(HEADER + 8 + TRAILER),
        TAG_CKPT_BEGIN => Some(HEADER + TRAILER),
        TAG_CKPT_END => Some(HEADER + 8 + TRAILER),
        TAG_TREE_OP => Some(HEADER + 4 + 1 + 16 + TREE_OP_VALUE_BYTES + TRAILER),
        _ => None,
    }
}

/// Stride of a full-image record ([`WalRecord::PageWrite`],
/// [`WalRecord::PreImage`], [`WalRecord::WriteBack`]).
const IMAGE_STRIDE: usize = HEADER + 4 + PAGE_SIZE + TRAILER;

/// Which B+-tree entry point a [`WalRecord::TreeOp`] re-executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeOpKind {
    /// Insert or replace `key` with `value`.
    Insert = 1,
    /// Delete `key`.
    Delete = 2,
    /// Replace the tree with an empty one (partition expiry).
    Reset = 3,
    /// Open one sorted-merge run: `key` is the number of
    /// [`TreeOpKind::MergeEntry`] records that follow, which recovery
    /// merges as one run (re-inserting them one by one would build a
    /// different tree).
    Merge = 4,
    /// One `(key, value)` entry of the run the preceding `Merge` opened.
    MergeEntry = 5,
}

impl TreeOpKind {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => TreeOpKind::Insert,
            2 => TreeOpKind::Delete,
            3 => TreeOpKind::Reset,
            4 => TreeOpKind::Merge,
            5 => TreeOpKind::MergeEntry,
            _ => return None,
        })
    }
}

/// One log record. Every variant encodes to a fixed stride for its tag:
/// `[magic][tag][payload][seq: u64][crc: u64]`, checksum over everything
/// before the crc, all integers little-endian.
#[derive(Clone, PartialEq)]
pub enum WalRecord {
    /// A fresh page was allocated on the data disk by a write no logical
    /// record describes (a tree operation's allocations are re-executed
    /// with it).
    Alloc {
        /// The allocated page.
        pid: PageId,
    },
    /// Full post-image of a page write that no logical record describes —
    /// enrollment adoption, a direct pool client, or a quarantined frame
    /// a checkpoint could not flush: physical redo.
    PageWrite {
        /// The written page.
        pid: PageId,
        /// Its complete content after the write.
        image: Box<Page>,
    },
    /// Full content of a page *before* its first write since the last
    /// checkpoint — the undo record.
    PreImage {
        /// The page about to be dirtied.
        pid: PageId,
        /// Its content as of the last checkpoint.
        image: Box<Page>,
    },
    /// Root pointer and height of one tree, logged when a tree registers
    /// and at every checkpoint; recovery reattaches each tree at its
    /// checkpoint record.
    TreeMeta {
        /// Index-assigned tree (shard) id.
        tree: u32,
        /// Root page of the tree.
        root: PageId,
        /// Height of the tree (1 = root is a leaf).
        height: u32,
    },
    /// One committed re-key inside tree `tree` (the record under `old`
    /// moves to `new`) — logical redo.
    Rekey {
        /// Tree the re-key happened in.
        tree: u32,
        /// Key being retired.
        old: u128,
        /// Key replacing it.
        new: u128,
    },
    /// One index-level mutation completed; `ops` is the cumulative count.
    Commit {
        /// Total committed mutations including this one.
        ops: u64,
    },
    /// A fuzzy checkpoint started.
    CkptBegin,
    /// A fuzzy checkpoint finished flushing; only honored by recovery
    /// once durable.
    CkptEnd {
        /// Sequence number of the matching [`WalRecord::CkptBegin`].
        begin_seq: u64,
    },
    /// The bytes a data-page write is about to put on the platter, logged
    /// just before it — the read-repair source. Recovery never replays it.
    WriteBack {
        /// The page being written back.
        pid: PageId,
        /// The content written.
        image: Box<Page>,
    },
    /// One committed B+-tree mutation — logical redo: which entry point
    /// ran on tree `tree`, with which key and value.
    TreeOp {
        /// Index-assigned tree (shard) id.
        tree: u32,
        /// The entry point.
        op: TreeOpKind,
        /// Its key (the run length for [`TreeOpKind::Merge`]).
        key: u128,
        /// Its value, zero-padded (all zeros where the entry point takes
        /// none).
        value: [u8; TREE_OP_VALUE_BYTES],
    },
    /// Pages on the data disk when a checkpoint started — the allocator
    /// floor recovery resets to.
    DiskPages {
        /// Allocated data pages.
        pages: u32,
    },
}

impl std::fmt::Debug for WalRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalRecord::Alloc { pid } => write!(f, "Alloc({})", pid.0),
            WalRecord::PageWrite { pid, .. } => write!(f, "PageWrite({})", pid.0),
            WalRecord::PreImage { pid, .. } => write!(f, "PreImage({})", pid.0),
            WalRecord::TreeMeta { tree, root, height } => {
                write!(f, "TreeMeta(tree={tree}, root={}, height={height})", root.0)
            }
            WalRecord::Rekey { tree, old, new } => {
                write!(f, "Rekey(tree={tree}, {old:#x} -> {new:#x})")
            }
            WalRecord::Commit { ops } => write!(f, "Commit({ops})"),
            WalRecord::CkptBegin => write!(f, "CkptBegin"),
            WalRecord::CkptEnd { begin_seq } => write!(f, "CkptEnd(begin={begin_seq})"),
            WalRecord::WriteBack { pid, .. } => write!(f, "WriteBack({})", pid.0),
            WalRecord::TreeOp { tree, op, key, .. } => {
                write!(f, "TreeOp(tree={tree}, {op:?}, {key:#x})")
            }
            WalRecord::DiskPages { pages } => write!(f, "DiskPages({pages})"),
        }
    }
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::Alloc { .. } => TAG_ALLOC,
            WalRecord::PageWrite { .. } => TAG_PAGE_WRITE,
            WalRecord::PreImage { .. } => TAG_PRE_IMAGE,
            WalRecord::TreeMeta { .. } => TAG_TREE_META,
            WalRecord::Rekey { .. } => TAG_REKEY,
            WalRecord::Commit { .. } => TAG_COMMIT,
            WalRecord::CkptBegin => TAG_CKPT_BEGIN,
            WalRecord::CkptEnd { .. } => TAG_CKPT_END,
            WalRecord::WriteBack { .. } => TAG_WRITE_BACK,
            WalRecord::TreeOp { .. } => TAG_TREE_OP,
            WalRecord::DiskPages { .. } => TAG_DISK_PAGES,
        }
    }

    /// Serialize with sequence number `seq` into `out`. Returns the
    /// record's stride.
    pub fn encode_into(&self, seq: u64, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.push(WAL_MAGIC);
        out.push(self.tag());
        match self {
            WalRecord::Alloc { pid } => out.extend_from_slice(&pid.0.to_le_bytes()),
            WalRecord::PageWrite { pid, image }
            | WalRecord::PreImage { pid, image }
            | WalRecord::WriteBack { pid, image } => {
                out.extend_from_slice(&pid.0.to_le_bytes());
                out.extend_from_slice(image.bytes(0, PAGE_SIZE));
            }
            WalRecord::TreeMeta { tree, root, height } => {
                out.extend_from_slice(&tree.to_le_bytes());
                out.extend_from_slice(&root.0.to_le_bytes());
                out.extend_from_slice(&height.to_le_bytes());
            }
            WalRecord::Rekey { tree, old, new } => {
                out.extend_from_slice(&tree.to_le_bytes());
                out.extend_from_slice(&old.to_le_bytes());
                out.extend_from_slice(&new.to_le_bytes());
            }
            WalRecord::Commit { ops } => out.extend_from_slice(&ops.to_le_bytes()),
            WalRecord::CkptBegin => {}
            WalRecord::CkptEnd { begin_seq } => out.extend_from_slice(&begin_seq.to_le_bytes()),
            WalRecord::TreeOp { tree, op, key, value } => {
                out.extend_from_slice(&tree.to_le_bytes());
                out.push(*op as u8);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(value);
            }
            WalRecord::DiskPages { pages } => out.extend_from_slice(&pages.to_le_bytes()),
        }
        out.extend_from_slice(&seq.to_le_bytes());
        let crc = seal64(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len() - start, stride_of(self.tag()).unwrap());
        out.len() - start
    }

    /// Serialize with sequence number `seq` into a fresh buffer.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(seq, &mut out);
        out
    }

    /// Parse the record at the front of `buf`. Returns the record, its
    /// sequence number, and its stride — or `None` if the bytes do not
    /// form a complete record with a valid checksum (wrong magic,
    /// unknown tag or tree-op kind, short buffer, or crc mismatch).
    pub fn decode(buf: &[u8]) -> Option<(WalRecord, u64, usize)> {
        if buf.len() < HEADER || buf[0] != WAL_MAGIC {
            return None;
        }
        let tag = buf[1];
        let stride = stride_of(tag)?;
        if buf.len() < stride {
            return None;
        }
        let crc = u64::from_le_bytes(buf[stride - 8..stride].try_into().unwrap());
        if seal64(&buf[..stride - 8]) != crc {
            return None;
        }
        let seq = u64::from_le_bytes(buf[stride - 16..stride - 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let u128_at = |o: usize| u128::from_le_bytes(buf[o..o + 16].try_into().unwrap());
        let image_at = |o: usize| {
            let mut p = Box::new(Page::new());
            p.bytes_mut(0, PAGE_SIZE).copy_from_slice(&buf[o..o + PAGE_SIZE]);
            p
        };
        let rec = match tag {
            TAG_ALLOC => WalRecord::Alloc { pid: PageId(u32_at(2)) },
            TAG_PAGE_WRITE => WalRecord::PageWrite { pid: PageId(u32_at(2)), image: image_at(6) },
            TAG_PRE_IMAGE => WalRecord::PreImage { pid: PageId(u32_at(2)), image: image_at(6) },
            TAG_WRITE_BACK => WalRecord::WriteBack { pid: PageId(u32_at(2)), image: image_at(6) },
            TAG_TREE_META => {
                WalRecord::TreeMeta { tree: u32_at(2), root: PageId(u32_at(6)), height: u32_at(10) }
            }
            TAG_REKEY => WalRecord::Rekey { tree: u32_at(2), old: u128_at(6), new: u128_at(22) },
            TAG_COMMIT => WalRecord::Commit { ops: u64_at(2) },
            TAG_CKPT_BEGIN => WalRecord::CkptBegin,
            TAG_CKPT_END => WalRecord::CkptEnd { begin_seq: u64_at(2) },
            TAG_TREE_OP => WalRecord::TreeOp {
                tree: u32_at(2),
                op: TreeOpKind::from_byte(buf[6])?,
                key: u128_at(7),
                value: buf[23..23 + TREE_OP_VALUE_BYTES].try_into().unwrap(),
            },
            TAG_DISK_PAGES => WalRecord::DiskPages { pages: u32_at(2) },
            _ => unreachable!("stride_of filtered unknown tags"),
        };
        Some((rec, seq, stride))
    }
}

/// Where in the storage stack a counted disk op happened — the label of
/// one crash-injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// A log-page write forced by an append/commit flush.
    WalWrite,
    /// A data-page write (dirty eviction or flush).
    PageFlush,
    /// Any disk write performed inside a checkpoint.
    Checkpoint,
}

/// Panic-message marker of an injected crash; the harness matches on it
/// to tell injected crashes from real bugs.
pub const CRASH_SENTINEL: &str = "crash-injector";

/// Deterministic crash-point injector: counts every simulated disk-page
/// write while durability is on, records a [`CrashPoint`] label trace in
/// probe mode, and panics exactly at the armed op index in crash mode.
///
/// The workload between two counted ops is deterministic, so "crash at
/// op N" reproduces the same machine state every run.
#[derive(Default)]
pub struct CrashInjector {
    /// Op index to crash at; `u64::MAX` = disarmed.
    armed: AtomicU64,
    /// Ops counted so far.
    counter: AtomicU64,
    /// Probe mode: record labels instead of crashing.
    probing: AtomicBool,
    trace: Mutex<Vec<CrashPoint>>,
}

impl CrashInjector {
    /// A disarmed injector (counts nothing until armed or probing).
    pub fn new() -> Self {
        CrashInjector {
            armed: AtomicU64::new(u64::MAX),
            counter: AtomicU64::new(0),
            probing: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Crash (panic with [`CRASH_SENTINEL`]) when op `n` is reached.
    pub fn arm(&self, n: u64) {
        self.armed.store(n, Ordering::SeqCst);
    }

    /// Stop crashing.
    pub fn disarm(&self) {
        self.armed.store(u64::MAX, Ordering::SeqCst);
    }

    /// Toggle probe mode: ops are counted and labeled but never crash.
    pub fn set_probing(&self, on: bool) {
        self.probing.store(on, Ordering::SeqCst);
    }

    /// Reset the op counter and clear the recorded trace.
    pub fn reset(&self) {
        self.counter.store(0, Ordering::SeqCst);
        self.trace.lock().clear();
    }

    /// Take the probe-mode label trace (op index -> label).
    pub fn take_trace(&self) -> Vec<CrashPoint> {
        std::mem::take(&mut self.trace.lock())
    }

    /// Count one disk op with label `point`; panics if this is the armed
    /// op (before the write takes effect — op N never completes).
    pub fn hit(&self, point: CrashPoint) {
        let armed = self.armed.load(Ordering::Relaxed);
        if armed == u64::MAX && !self.probing.load(Ordering::Relaxed) {
            return;
        }
        let n = self.counter.fetch_add(1, Ordering::SeqCst);
        if self.probing.load(Ordering::Relaxed) {
            self.trace.lock().push(point);
        }
        if n == armed {
            panic!("{CRASH_SENTINEL}: injected crash at disk op {n} ({point:?})");
        }
    }
}

/// Deterministic counters of log activity (all exact for a fixed seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Log pages physically written (a partially filled tail page is
    /// rewritten by each flush that extends it — real-log write
    /// amplification, measured, not hidden).
    pub page_writes: u64,
    /// Flush calls that wrote at least one page.
    pub flushes: u64,
}

/// Sentinel offset in the image index meaning "allocated and never
/// rewritten: the image is a zeroed page".
const IMAGE_ZEROED: usize = usize::MAX;

/// The append-only write-ahead log: the [`DiskSim`] log region holding
/// the durable prefix of the record stream, plus the in-memory tail that
/// has not been forced yet. A full, forced page lives on the log region
/// only: a second copy in memory doubles the fresh memory a committed op
/// touches (two 4 KB first-touch page faults per logged image), and with
/// the seal at 0.2 µs a page that, not hashing, is what a durable write
/// costs — and what makes its cost vary from run to run.
pub struct Wal {
    disk: DiskSim,
    /// The stream from byte `tail_start` on: the partly filled last log
    /// page and everything appended since the last force. Appends land
    /// here first.
    tail: Vec<u8>,
    /// Stream offset of `tail[0]`: the start of the log page that holds
    /// `durable_bytes` (every page before it is full and durable).
    tail_start: usize,
    /// Length of the prefix forced to the log disk.
    durable_bytes: usize,
    next_seq: u64,
    /// Pages whose pre-image is already logged this checkpoint interval.
    preimaged: HashSet<u32>,
    /// Stream offset of the record holding each page's repair image: the
    /// newest image of the bytes written to the data disk. [`IMAGE_ZEROED`]
    /// marks a page whose newest state-defining record is its allocation
    /// (content = zeroed page). On a live log pre-images never feed this
    /// index — they are *older* content by definition; after a resume, a
    /// page recovery rolled back points at the pre-image it applied.
    images: HashMap<u32, usize>,
    stats: WalStats,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// An empty log (sequence numbers start at 1).
    pub fn new() -> Self {
        Wal {
            disk: DiskSim::new(),
            tail: Vec::new(),
            tail_start: 0,
            durable_bytes: 0,
            next_seq: 1,
            preimaged: HashSet::new(),
            images: HashMap::new(),
            stats: WalStats::default(),
        }
    }

    /// Append `rec` with the next sequence number; returns the record's
    /// LSN (its byte end-offset in the stream). The append is in-memory
    /// only — durability requires a flush.
    pub fn append(&mut self, rec: &WalRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let start = self.end();
        let stride = rec.encode_into(seq, &mut self.tail);
        match rec {
            WalRecord::Alloc { pid } => {
                self.images.insert(pid.0, IMAGE_ZEROED);
            }
            WalRecord::PageWrite { pid, .. } | WalRecord::WriteBack { pid, .. } => {
                self.images.insert(pid.0, start);
            }
            _ => {}
        }
        self.stats.records += 1;
        self.stats.bytes += stride as u64;
        self.end() as u64
    }

    /// Byte length of the whole stream, forced or not.
    fn end(&self) -> usize {
        self.tail_start + self.tail.len()
    }

    /// Copy `len` stream bytes starting at `off`: forced pages come from
    /// the log region (uncounted — this is not a device command), the
    /// rest from the in-memory tail.
    fn stream_bytes(&self, off: usize, len: usize) -> Vec<u8> {
        let end = off + len;
        let mut out = Vec::with_capacity(len);
        let mut at = off;
        while at < end.min(self.tail_start) {
            let page = self
                .disk
                .peek(PageId((at / PAGE_SIZE) as u32))
                .expect("every page before the tail was forced, hence allocated");
            let n = (PAGE_SIZE - at % PAGE_SIZE).min(end - at);
            out.extend_from_slice(page.bytes(at % PAGE_SIZE, n));
            at += n;
        }
        if at < end {
            out.extend_from_slice(&self.tail[at - self.tail_start..end - self.tail_start]);
        }
        out
    }

    /// The logged content of `pid` the data disk is supposed to hold —
    /// the read-repair source.
    ///
    /// Every durable-mode data-page write is preceded by a logged image
    /// of the bytes it writes (a [`WalRecord::WriteBack`], or the
    /// [`WalRecord::PageWrite`] that already holds them), so for any page
    /// that is **not** dirty in the pool the newest such image (or a
    /// zeroed page, if the newest record is the allocation) is exactly what
    /// the data disk holds. After [`Wal::resume`], a page recovery rolled
    /// back serves the pre-image it was rolled back to. `None` means the
    /// page was never logged — enrolled into durability but not written
    /// since — and cannot be repaired from this log.
    pub fn latest_image(&self, pid: PageId) -> Option<Page> {
        match *self.images.get(&pid.0)? {
            IMAGE_ZEROED => Some(Page::new()),
            off => match WalRecord::decode(&self.stream_bytes(off, IMAGE_STRIDE)) {
                Some((
                    WalRecord::PageWrite { image, .. }
                    | WalRecord::WriteBack { image, .. }
                    | WalRecord::PreImage { image, .. },
                    _,
                    _,
                )) => Some(*image),
                _ => unreachable!("image index points at an image record"),
            },
        }
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// LSN of the stream end (= the last appended record).
    pub fn end_lsn(&self) -> u64 {
        self.end() as u64
    }

    /// LSN up to which the log is durable on the log disk.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_bytes as u64
    }

    /// Whether `pid`'s pre-image is already logged this interval.
    pub fn is_preimaged(&self, pid: PageId) -> bool {
        self.preimaged.contains(&pid.0)
    }

    /// Mark `pid` as covered by a pre-image (or as never needing one —
    /// pages allocated after the last checkpoint have no committed
    /// content to restore).
    pub fn mark_preimaged(&mut self, pid: PageId) {
        self.preimaged.insert(pid.0);
    }

    /// Forget all pre-image marks (a checkpoint completed: the next
    /// write of any page must log a fresh pre-image).
    pub fn clear_preimaged(&mut self) {
        self.preimaged.clear();
    }

    /// Force the log durable up to `lsn`, writing every log page from
    /// the durable frontier through the page covering `lsn`. `hit` is
    /// invoked once *before* each page write (the crash-injection hook).
    /// Pages that are full and forced leave the in-memory tail.
    pub fn flush_up_to(&mut self, lsn: u64, hit: &mut dyn FnMut()) {
        let target = (lsn as usize).min(self.end());
        if target <= self.durable_bytes {
            return;
        }
        let first = self.durable_bytes / PAGE_SIZE;
        let last = (target - 1) / PAGE_SIZE;
        for p in first..=last {
            while self.disk.num_pages() <= p {
                self.disk.allocate();
            }
            let start = p * PAGE_SIZE - self.tail_start;
            let end = (start + PAGE_SIZE).min(self.tail.len());
            let mut page = Page::new();
            page.bytes_mut(0, end - start).copy_from_slice(&self.tail[start..end]);
            hit();
            self.disk.write(PageId(p as u32), &page);
            self.stats.page_writes += 1;
        }
        self.durable_bytes = target;
        self.stats.flushes += 1;
        let keep_from = target / PAGE_SIZE * PAGE_SIZE;
        self.tail.drain(..keep_from - self.tail_start);
        self.tail_start = keep_from;
    }

    /// Force the entire log durable.
    pub fn flush(&mut self, hit: &mut dyn FnMut()) {
        self.flush_up_to(self.end() as u64, hit);
    }

    /// Log-activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The simulated log region (harvested by the crash harness).
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// Rebuild a live log over a recovered log region: the valid prefix
    /// identified by `rec` is kept (and the torn tail, if any, zeroed so
    /// it can never resurface), and sequence numbers continue after the
    /// last valid record.
    ///
    /// The resumed log continues the checkpoint interval [`recover`]
    /// rolled back to: every page with a pre-image or an allocation after
    /// that checkpoint stays pre-imaged (its first pre-image is the one
    /// undo uses, however many recoveries run before the next checkpoint),
    /// and the read-repair index names the image of what recovery left on
    /// the data disk — the undo pre-image or the redone image of a page
    /// recovery rewrote, the newest written-back image of every other.
    pub fn resume(log: DiskSim, rec: &WalRecovery) -> Wal {
        let mut buf = read_stream(&log);
        buf.truncate(rec.valid_bytes as usize);
        let heads = headers(&buf);
        let pid_at = |off: usize| u32::from_le_bytes(buf[off + 2..off + 6].try_into().unwrap());
        let committed = rec.last_commit_seq.max(rec.checkpoint_seq);
        let begin = heads
            .iter()
            .find(|&&(tag, seq, _)| tag == TAG_CKPT_END && seq == rec.checkpoint_seq)
            .map_or(0, |&(_, _, off)| {
                u64::from_le_bytes(buf[off + 2..off + 10].try_into().unwrap())
            });
        let mut images = HashMap::new();
        let mut undone = HashSet::new();
        let mut preimaged = HashSet::new();
        for &(tag, seq, off) in &heads {
            let pid = pid_at(off);
            match tag {
                TAG_ALLOC => {
                    images.insert(pid, IMAGE_ZEROED);
                    if seq > rec.checkpoint_seq {
                        preimaged.insert(pid);
                    }
                }
                // Undo rolled the page back past anything written after
                // its first pre-image.
                TAG_PAGE_WRITE | TAG_WRITE_BACK if !undone.contains(&pid) => {
                    images.insert(pid, off);
                }
                TAG_PRE_IMAGE if seq > rec.checkpoint_seq => {
                    if undone.insert(pid) {
                        images.insert(pid, off);
                    }
                    preimaged.insert(pid);
                }
                _ => {}
            }
        }
        // Redo rewrote these after undo: what they hold is on the disk.
        for &(tag, seq, off) in &heads {
            if tag == TAG_PAGE_WRITE && seq > begin && seq <= committed {
                images.insert(pid_at(off), off);
            }
        }
        let valid = rec.valid_bytes as usize;
        let tail_start = valid / PAGE_SIZE * PAGE_SIZE;
        let mut wal = Wal {
            disk: log,
            tail: buf.split_off(tail_start),
            tail_start,
            durable_bytes: valid,
            next_seq: rec.next_seq,
            preimaged,
            images,
            stats: WalStats::default(),
        };
        // Zero the log disk beyond the valid prefix (a torn record must
        // not survive next to freshly appended ones): the page holding the
        // end of the prefix keeps exactly the tail, every later page nothing.
        if valid < wal.disk.num_pages() * PAGE_SIZE {
            for p in tail_start / PAGE_SIZE..wal.disk.num_pages() {
                let mut page = Page::new();
                if p * PAGE_SIZE == tail_start {
                    page.bytes_mut(0, wal.tail.len()).copy_from_slice(&wal.tail);
                }
                wal.disk.write(PageId(p as u32), &page);
            }
        }
        wal
    }
}

/// Concatenate the log region's pages back into one byte stream.
fn read_stream(log: &DiskSim) -> Vec<u8> {
    let mut buf = Vec::with_capacity(log.num_pages() * PAGE_SIZE);
    for p in 0..log.num_pages() {
        let page = log
            .peek(PageId(p as u32))
            .expect("log region pages are enumerated from num_pages, hence allocated");
        buf.extend_from_slice(page.bytes(0, PAGE_SIZE));
    }
    buf
}

/// `(tag, seq, offset)` of every record of a prefix [`recover`] already
/// validated, read from the fixed header and trailer positions without
/// decoding (or copying) a single image.
fn headers(buf: &[u8]) -> Vec<(u8, u64, usize)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + HEADER <= buf.len() {
        let Some(stride) = stride_of(buf[off + 1]).filter(|s| off + s <= buf.len()) else {
            break;
        };
        let seq = u64::from_le_bytes(buf[off + stride - 16..off + stride - 8].try_into().unwrap());
        out.push((buf[off + 1], seq, off));
        off += stride;
    }
    out
}

/// One committed B+-tree mutation recovery hands back for re-execution
/// ([`WalRecovery::tree_ops`]): the entry point and its arguments, as the
/// log recorded them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeRedo {
    /// Insert or replace `key` with `value` (zero-padded record bytes).
    Insert {
        /// The key.
        key: u128,
        /// The record value, zero-padded to [`TREE_OP_VALUE_BYTES`].
        value: [u8; TREE_OP_VALUE_BYTES],
    },
    /// Delete `key`.
    Delete {
        /// The key.
        key: u128,
    },
    /// Move the record under `old` to `new`.
    Rekey {
        /// Key being retired.
        old: u128,
        /// Key replacing it.
        new: u128,
    },
    /// Merge one sorted run, in one call.
    Merge {
        /// The run's `(key, value)` entries, ascending.
        entries: Vec<(u128, [u8; TREE_OP_VALUE_BYTES])>,
    },
    /// Replace the tree with an empty one.
    Reset,
}

/// Everything [`recover`] learned and did, returned to the caller so the
/// index layer can reattach its trees and the harness can assert on it.
#[derive(Debug, Clone)]
pub struct WalRecovery {
    /// Cumulative mutation count of the last durable commit (0 = none).
    pub commits: u64,
    /// Sequence number of the last durable commit (0 = none).
    pub last_commit_seq: u64,
    /// Sequence number of the last durable complete checkpoint's
    /// [`WalRecord::CkptEnd`] (0 = none).
    pub checkpoint_seq: u64,
    /// `(tree, root, height)` per tree id, ascending: the trees as the
    /// last complete checkpoint logged them — where [`WalRecovery::tree_ops`]
    /// resume from — or, with no complete checkpoint, the newest
    /// committed registration of each tree.
    pub tree_meta: Vec<(u32, PageId, u32)>,
    /// The committed tree operations after that checkpoint, `(tree, op)`
    /// in log order: what the index re-executes on the reattached trees.
    pub tree_ops: Vec<(u32, TreeRedo)>,
    /// Committed [`WalRecord::Rekey`] records seen.
    pub rekeys_noted: u64,
    /// Valid records scanned (before the torn tail, if any).
    pub records_scanned: u64,
    /// Redo records replayed: physical images and allocations applied to
    /// the data disk, plus the tree-operation records in
    /// [`WalRecovery::tree_ops`].
    pub records_replayed: u64,
    /// Physical redo records (`Alloc`, `PageWrite`) logged after a tree
    /// operation of the replayed interval. Replay applies physical redo
    /// first, so it assumes there are none (the index debug-asserts it).
    pub physical_after_ops: u64,
    /// Undo pre-images applied to the data disk (one per page).
    pub preimages_applied: u64,
    /// Physical data-disk writes recovery performed (undo + redo).
    pub data_writes: u64,
    /// Whether the log ended in an incomplete/corrupt record.
    pub torn_tail: bool,
    /// Byte length of the valid log prefix.
    pub valid_bytes: u64,
    /// Sequence number the resumed log should continue from.
    pub next_seq: u64,
}

/// Replay the log region `log` against the data disk `data`, restoring
/// the state of the last complete checkpoint plus the committed physical
/// redo after it, and returning the committed tree operations the index
/// must re-execute on top ([`WalRecovery::tree_ops`]).
///
/// The scan validates magic, tag, checksum, and sequence continuity of
/// every record and stops cleanly at the first failure (torn tail) or at
/// the zeroed end of the stream. Undo writes the *first* pre-image each
/// page logged after the checkpoint (later ones, logged after an earlier
/// recovery resumed the same interval, hold later content); the images a
/// checkpoint logged for frames it could not flush are redone with the
/// committed `PageWrite`s after it; and the data disk is cut back to the
/// page count the checkpoint logged, so re-executed operations allocate
/// the page ids they allocated before. Every pass writes full page
/// images from the same checkpoint, so running `recover` twice over the
/// same inputs leaves `data` byte-identical to running it once.
pub fn recover(data: &mut DiskSim, log: &DiskSim) -> WalRecovery {
    let stream = read_stream(log);
    let mut records: Vec<(WalRecord, u64)> = Vec::new();
    let mut off = 0usize;
    let mut torn = false;
    let mut expect_seq = 1u64;
    while off < stream.len() {
        if stream[off] != WAL_MAGIC {
            // A zeroed remainder is the clean end of the stream; anything
            // else is a torn/corrupt tail.
            torn = stream[off..].iter().any(|&b| b != 0);
            break;
        }
        match WalRecord::decode(&stream[off..]) {
            Some((rec, seq, stride)) if seq == expect_seq => {
                records.push((rec, seq));
                expect_seq += 1;
                off += stride;
            }
            _ => {
                torn = true;
                break;
            }
        }
    }
    let valid_bytes = off as u64;
    drop(stream);

    let mut last_commit_seq = 0u64;
    let mut commits = 0u64;
    let mut checkpoint_seq = 0u64;
    let mut begin_seq = 0u64;
    for (rec, seq) in &records {
        match rec {
            WalRecord::Commit { ops } => {
                last_commit_seq = *seq;
                commits = *ops;
            }
            WalRecord::CkptEnd { begin_seq: b } => {
                checkpoint_seq = *seq;
                begin_seq = *b;
            }
            _ => {}
        }
    }
    // A checkpoint only runs at a committed op boundary, so everything up
    // to a durable CkptEnd is committed state even without a later Commit.
    let committed_seq = last_commit_seq.max(checkpoint_seq);
    let inside_checkpoint = |seq: u64| seq > begin_seq && seq < checkpoint_seq;

    let writes_before = data.physical_writes();
    let ensure = |data: &mut DiskSim, pid: PageId| {
        while data.num_pages() <= pid.0 as usize {
            data.allocate();
        }
    };

    // Undo: roll every page first-dirtied after the last complete
    // checkpoint back to its checkpointed content (the data disk may hold
    // later images — the pool steals dirty frames).
    let mut undone: HashSet<u32> = HashSet::new();
    let mut preimages_applied = 0u64;
    for (rec, seq) in &records {
        if let WalRecord::PreImage { pid, image } = rec {
            if *seq > checkpoint_seq && undone.insert(pid.0) {
                ensure(data, *pid);
                data.write(*pid, image);
                preimages_applied += 1;
            }
        }
    }
    // The allocator floor: pages allocated after the checkpoint are
    // allocated again, in the same order, by the operations that replay.
    let floor = records.iter().find_map(|(rec, seq)| match rec {
        WalRecord::DiskPages { pages } if inside_checkpoint(*seq) => Some(*pages as usize),
        _ => None,
    });
    if let Some(pages) = floor {
        data.truncate(pages);
    }

    // Redo: physical images from the checkpoint on (its own images of
    // frames it could not flush included), and the committed tree
    // operations after it, in log order.
    let mut records_replayed = 0u64;
    let mut rekeys_noted = 0u64;
    let mut physical_after_ops = 0u64;
    let mut tree_ops: Vec<(u32, TreeRedo)> = Vec::new();
    let mut meta: HashMap<u32, (PageId, u32)> = HashMap::new();
    for (rec, seq) in records.iter().take_while(|(_, seq)| *seq <= committed_seq) {
        let (seq, after_checkpoint) = (*seq, *seq > checkpoint_seq);
        match rec {
            WalRecord::Alloc { pid } if seq > begin_seq => {
                ensure(data, *pid);
                records_replayed += 1;
                physical_after_ops += u64::from(!tree_ops.is_empty());
            }
            WalRecord::PageWrite { pid, image } if seq > begin_seq => {
                ensure(data, *pid);
                data.write(*pid, image);
                records_replayed += 1;
                physical_after_ops += u64::from(!tree_ops.is_empty());
            }
            WalRecord::Rekey { tree, old, new } => {
                rekeys_noted += 1;
                if after_checkpoint {
                    tree_ops.push((*tree, TreeRedo::Rekey { old: *old, new: *new }));
                    records_replayed += 1;
                }
            }
            WalRecord::TreeOp { tree, op, key, value } if after_checkpoint => {
                records_replayed += 1;
                let redo = match op {
                    TreeOpKind::Insert => TreeRedo::Insert { key: *key, value: *value },
                    TreeOpKind::Delete => TreeRedo::Delete { key: *key },
                    TreeOpKind::Reset => TreeRedo::Reset,
                    TreeOpKind::Merge => TreeRedo::Merge { entries: Vec::new() },
                    TreeOpKind::MergeEntry => {
                        match tree_ops.last_mut() {
                            Some((t, TreeRedo::Merge { entries })) if t == tree => {
                                entries.push((*key, *value));
                            }
                            _ => debug_assert!(false, "merge entry outside its run at seq {seq}"),
                        }
                        continue;
                    }
                };
                tree_ops.push((*tree, redo));
            }
            WalRecord::TreeMeta { tree, root, height }
                if checkpoint_seq == 0 || inside_checkpoint(seq) =>
            {
                meta.insert(*tree, (*root, *height));
            }
            _ => {}
        }
    }

    let mut tree_meta: Vec<(u32, PageId, u32)> =
        meta.into_iter().map(|(t, (r, h))| (t, r, h)).collect();
    tree_meta.sort_unstable_by_key(|&(t, _, _)| t);

    WalRecovery {
        commits,
        last_commit_seq,
        checkpoint_seq,
        tree_meta,
        tree_ops,
        rekeys_noted,
        records_scanned: records.len() as u64,
        records_replayed,
        physical_after_ops,
        preimages_applied,
        data_writes: data.physical_writes() - writes_before,
        torn_tail: torn,
        valid_bytes,
        next_seq: expect_seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(v: u64) -> Box<Page> {
        let mut p = Box::new(Page::new());
        p.put_u64(0, v);
        p
    }

    #[test]
    fn records_round_trip_bytewise() {
        let recs = [
            WalRecord::Alloc { pid: PageId(7) },
            WalRecord::PageWrite { pid: PageId(3), image: page_with(0xDEAD) },
            WalRecord::PreImage { pid: PageId(3), image: page_with(0xF00D) },
            WalRecord::TreeMeta { tree: 2, root: PageId(9), height: 3 },
            WalRecord::Rekey { tree: 1, old: 42, new: u128::MAX / 3 },
            WalRecord::Commit { ops: 17 },
            WalRecord::CkptBegin,
            WalRecord::CkptEnd { begin_seq: 5 },
            WalRecord::WriteBack { pid: PageId(4), image: page_with(0xBEEF) },
            WalRecord::TreeOp {
                tree: 2,
                op: TreeOpKind::Insert,
                key: u128::MAX - 1,
                value: [0x5A; TREE_OP_VALUE_BYTES],
            },
            WalRecord::DiskPages { pages: 1234 },
        ];
        for (i, rec) in recs.iter().enumerate() {
            let seq = i as u64 + 1;
            let bytes = rec.encode(seq);
            let (back, got_seq, stride) = WalRecord::decode(&bytes).expect("decodes");
            assert_eq!(got_seq, seq);
            assert_eq!(stride, bytes.len());
            assert_eq!(back.encode(seq), bytes, "re-encode must be identical");
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let bytes = WalRecord::Commit { ops: 9 }.encode(1);
        assert!(WalRecord::decode(&bytes).is_some());
        // Short buffer.
        assert!(WalRecord::decode(&bytes[..bytes.len() - 1]).is_none());
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = 0;
        assert!(WalRecord::decode(&bad).is_none());
        // Flipped payload bit fails the checksum.
        let mut bad = bytes.clone();
        bad[3] ^= 1;
        assert!(WalRecord::decode(&bad).is_none());
        // Unknown tag (3 is the retired message-chain image tag).
        for tag in [3, 0xEE] {
            let mut bad = bytes.clone();
            bad[1] = tag;
            assert!(WalRecord::decode(&bad).is_none());
        }
    }

    #[test]
    fn an_unknown_tree_op_kind_does_not_decode_even_when_sealed() {
        let rec = WalRecord::TreeOp {
            tree: 0,
            op: TreeOpKind::Delete,
            key: 9,
            value: [0; TREE_OP_VALUE_BYTES],
        };
        let mut bytes = rec.encode(1);
        bytes[6] = 0x77;
        let n = bytes.len();
        let crc = seal64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
        assert!(WalRecord::decode(&bytes).is_none());
    }

    #[test]
    fn flush_makes_prefix_durable_and_replayable() {
        let mut wal = Wal::new();
        let mut data = DiskSim::new();
        let pid = data.allocate();
        wal.append(&WalRecord::PageWrite { pid, image: page_with(11) });
        wal.append(&WalRecord::Commit { ops: 1 });
        wal.flush(&mut || {});
        // A second committed write that never reaches the log disk.
        wal.append(&WalRecord::PageWrite { pid, image: page_with(22) });
        wal.append(&WalRecord::Commit { ops: 2 });

        let rec = recover(&mut data, wal.disk());
        assert_eq!(rec.commits, 1, "unflushed tail must not replay");
        assert!(!rec.torn_tail);
        assert_eq!(data.peek(pid).unwrap().get_u64(0), 11);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut wal = Wal::new();
        let mut data = DiskSim::new();
        let a = data.allocate();
        wal.append(&WalRecord::PreImage { pid: a, image: page_with(0) });
        wal.append(&WalRecord::PageWrite { pid: a, image: page_with(5) });
        wal.append(&WalRecord::Commit { ops: 1 });
        wal.flush(&mut || {});

        let mut once = data.clone();
        let r1 = recover(&mut once, wal.disk());
        let mut twice = data.clone();
        recover(&mut twice, wal.disk());
        let r2 = recover(&mut twice, wal.disk());
        assert_eq!(r1.commits, r2.commits);
        for p in 0..once.num_pages() {
            let pid = PageId(p as u32);
            assert_eq!(
                once.peek(pid).unwrap().bytes(0, PAGE_SIZE),
                twice.peek(pid).unwrap().bytes(0, PAGE_SIZE)
            );
        }
    }

    #[test]
    fn latest_image_tracks_the_newest_post_image() {
        let mut wal = Wal::new();
        assert!(wal.latest_image(PageId(3)).is_none(), "never logged: unrepairable");

        wal.append(&WalRecord::Alloc { pid: PageId(3) });
        let img = wal.latest_image(PageId(3)).expect("alloc implies zeroed image");
        assert_eq!(img.bytes(0, PAGE_SIZE), Page::new().bytes(0, PAGE_SIZE));

        wal.append(&WalRecord::PageWrite { pid: PageId(3), image: page_with(7) });
        wal.append(&WalRecord::PreImage { pid: PageId(3), image: page_with(999) });
        wal.append(&WalRecord::PageWrite { pid: PageId(3), image: page_with(8) });
        wal.append(&WalRecord::Commit { ops: 1 });
        assert_eq!(wal.latest_image(PageId(3)).unwrap().get_u64(0), 8);

        // The index survives a flush + resume round trip.
        wal.flush(&mut || {});
        let mut scratch = DiskSim::new();
        let rec = recover(&mut scratch, wal.disk());
        let resumed = Wal::resume(wal.disk().clone(), &rec);
        assert_eq!(resumed.latest_image(PageId(3)).unwrap().get_u64(0), 8);
        assert!(resumed.latest_image(PageId(9)).is_none());
    }

    #[test]
    fn write_back_images_feed_repair_and_are_never_replayed() {
        let mut wal = Wal::new();
        let mut data = DiskSim::new();
        let pid = data.allocate();
        wal.append(&WalRecord::PreImage { pid, image: page_with(1) });
        wal.append(&WalRecord::WriteBack { pid, image: page_with(2) });
        assert_eq!(wal.latest_image(pid).unwrap().get_u64(0), 2, "what was written back");
        wal.append(&WalRecord::Commit { ops: 1 });
        wal.flush(&mut || {});
        data.write(pid, &page_with(2));
        let rec = recover(&mut data, wal.disk());
        assert_eq!(rec.records_replayed, 0, "a write-back image is not redo");
        assert_eq!(data.peek(pid).unwrap().get_u64(0), 1, "undone to the pre-image");
        let resumed = Wal::resume(wal.disk().clone(), &rec);
        assert_eq!(resumed.latest_image(pid).unwrap().get_u64(0), 1, "repair serves the undo");
        assert!(resumed.is_preimaged(pid), "the resumed interval keeps its first pre-image");
    }

    #[test]
    fn undo_uses_the_first_pre_image_after_the_checkpoint() {
        let mut wal = Wal::new();
        let mut data = DiskSim::new();
        let pid = data.allocate();
        let begin_seq = wal.next_seq();
        wal.append(&WalRecord::CkptBegin);
        wal.append(&WalRecord::CkptEnd { begin_seq });
        wal.append(&WalRecord::PreImage { pid, image: page_with(10) });
        // A later pre-image of the same page (logged after a resume)
        // holds later content; undo must not stop there.
        wal.append(&WalRecord::PreImage { pid, image: page_with(20) });
        wal.flush(&mut || {});
        let rec = recover(&mut data, wal.disk());
        assert_eq!(rec.preimages_applied, 1);
        assert_eq!(data.peek(pid).unwrap().get_u64(0), 10);
    }

    #[test]
    fn recovery_cuts_the_disk_back_and_returns_the_committed_tree_ops() {
        let mut wal = Wal::new();
        let mut data = DiskSim::new();
        for _ in 0..3 {
            data.allocate();
        }
        let begin_seq = wal.next_seq();
        wal.append(&WalRecord::CkptBegin);
        wal.append(&WalRecord::TreeMeta { tree: 0, root: PageId(1), height: 1 });
        wal.append(&WalRecord::DiskPages { pages: 3 });
        wal.append(&WalRecord::CkptEnd { begin_seq });
        let op = |op, key| WalRecord::TreeOp { tree: 0, op, key, value: [key as u8; 32] };
        wal.append(&op(TreeOpKind::Delete, 4));
        wal.append(&op(TreeOpKind::Merge, 2));
        wal.append(&op(TreeOpKind::MergeEntry, 5));
        wal.append(&op(TreeOpKind::MergeEntry, 6));
        wal.append(&WalRecord::Rekey { tree: 0, old: 5, new: 7 });
        wal.append(&WalRecord::Commit { ops: 1 });
        wal.append(&op(TreeOpKind::Reset, 0));
        wal.flush(&mut || {});
        // The crashed run allocated two more pages after the checkpoint.
        data.allocate();
        data.allocate();

        let rec = recover(&mut data, wal.disk());
        assert_eq!(data.num_pages(), 3, "cut back to the checkpoint's page count");
        assert_eq!(rec.tree_meta, vec![(0, PageId(1), 1)]);
        assert_eq!(
            rec.tree_ops,
            vec![
                (0, TreeRedo::Delete { key: 4 }),
                (0, TreeRedo::Merge { entries: vec![(5, [5; 32]), (6, [6; 32])] }),
                (0, TreeRedo::Rekey { old: 5, new: 7 }),
            ],
            "the uncommitted reset is not replayed"
        );
        assert_eq!((rec.records_replayed, rec.physical_after_ops), (5, 0));
    }

    #[test]
    fn forced_pages_leave_memory_and_images_read_back_from_the_log_region() {
        let mut wal = Wal::new();
        // Images of odd sizes apart, so records straddle log pages.
        for i in 0..9u32 {
            wal.append(&WalRecord::PageWrite { pid: PageId(i), image: page_with(100 + i as u64) });
            wal.append(&WalRecord::Commit { ops: i as u64 + 1 });
        }
        let end = wal.end_lsn();
        // Force up to the middle of the stream: only whole forced pages go.
        wal.flush_up_to(end / 2, &mut || {});
        assert_eq!(wal.durable_lsn(), end / 2);
        assert_eq!(wal.tail_start, (end / 2) as usize / PAGE_SIZE * PAGE_SIZE);
        assert_eq!(wal.end_lsn(), end, "the stream's length does not change");
        for i in 0..9u32 {
            assert_eq!(wal.latest_image(PageId(i)).unwrap().get_u64(0), 100 + i as u64);
        }
        // Force everything: less than one page stays, and a later append
        // continues the stream where it ended.
        wal.flush(&mut || {});
        assert!(wal.tail.len() < PAGE_SIZE);
        wal.append(&WalRecord::PageWrite { pid: PageId(4), image: page_with(7) });
        assert_eq!(wal.end_lsn(), end + IMAGE_STRIDE as u64);
        assert_eq!(wal.latest_image(PageId(4)).unwrap().get_u64(0), 7, "unforced: from the tail");
        assert_eq!(wal.latest_image(PageId(8)).unwrap().get_u64(0), 108, "forced: from the region");
        // The region holds the same stream a full in-memory copy would.
        wal.flush(&mut || {});
        let rec = recover(&mut DiskSim::new(), wal.disk());
        assert_eq!(
            (rec.valid_bytes, rec.records_scanned, rec.torn_tail),
            (wal.end_lsn(), 19, false)
        );
        let resumed = Wal::resume(wal.disk().clone(), &rec);
        assert!(resumed.tail.len() < PAGE_SIZE);
        assert_eq!(resumed.end_lsn(), wal.end_lsn());
        // The last image of page 4 was never committed: recovery redid the
        // committed one, and that is what the resumed log repairs from.
        assert_eq!(resumed.latest_image(PageId(4)).unwrap().get_u64(0), 104);
    }

    #[test]
    fn injector_probe_and_crash_are_aligned() {
        let inj = CrashInjector::new();
        inj.set_probing(true);
        inj.hit(CrashPoint::WalWrite);
        inj.hit(CrashPoint::PageFlush);
        inj.hit(CrashPoint::Checkpoint);
        inj.set_probing(false);
        assert_eq!(
            inj.take_trace(),
            vec![CrashPoint::WalWrite, CrashPoint::PageFlush, CrashPoint::Checkpoint]
        );
        inj.reset();
        inj.arm(1);
        inj.hit(CrashPoint::WalWrite);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.hit(CrashPoint::PageFlush)
        }))
        .expect_err("armed op must crash");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains(CRASH_SENTINEL));
        inj.disarm();
        inj.hit(CrashPoint::PageFlush); // disarmed: no crash
    }
}
