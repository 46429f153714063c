//! Property tests for the write-ahead log: record codec round-trips,
//! recovery is idempotent (replaying the log twice leaves the data disk
//! and every ledger exactly where one replay left them), and a torn tail
//! truncated at **every** byte offset of the last record is detected,
//! never panics, and always recovers to the last complete record. Fixed
//! known-answer vectors pin the byte format of every record tag.

use peb_storage::{
    recover, DiskSim, Page, PageId, TreeOpKind, Wal, WalRecord, PAGE_SIZE, TREE_OP_VALUE_BYTES,
};
use proptest::prelude::*;

/// A page image with recognizable content: `fill` everywhere plus a
/// counter stripe so two images with different fills never collide.
fn image(fill: u8) -> Box<Page> {
    let mut p = Box::new(Page::new());
    p.bytes_mut(0, PAGE_SIZE).fill(fill);
    for i in 0..16 {
        p.bytes_mut(i * 8, 1)[0] = fill.wrapping_add(i as u8);
    }
    p
}

/// Script step for building an arbitrary — but structurally valid — log.
/// `Ckpt` expands to a `CkptBegin`/`CkptEnd` pair with a correct
/// `begin_seq` backlink, like the pool's checkpoint writes it.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u8),
    Write(u8, u8),
    Pre(u8, u8),
    Meta(u8, u8, u8),
    Rekey(u8, u64, u64),
    Commit,
    Ckpt,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Alloc),
        (0u8..12, any::<u8>()).prop_map(|(p, f)| Op::Write(p, f)),
        (0u8..12, any::<u8>()).prop_map(|(p, f)| Op::Pre(p, f)),
        (0u8..4, 0u8..12, 1u8..4).prop_map(|(t, r, h)| Op::Meta(t, r, h)),
        (0u8..4, any::<u64>(), any::<u64>()).prop_map(|(t, o, n)| Op::Rekey(t, o, n)),
        Just(Op::Commit),
        Just(Op::Ckpt),
    ]
}

/// Expand a script into concrete records, numbering commits cumulatively
/// and wiring each `CkptEnd` to its `CkptBegin`'s sequence number.
fn build_records(ops: &[Op]) -> Vec<WalRecord> {
    let mut recs = Vec::new();
    let mut committed = 0u64;
    for op in ops {
        match op {
            Op::Alloc(p) => recs.push(WalRecord::Alloc { pid: PageId(*p as u32) }),
            Op::Write(p, f) => {
                recs.push(WalRecord::PageWrite { pid: PageId(*p as u32), image: image(*f) })
            }
            Op::Pre(p, f) => {
                recs.push(WalRecord::PreImage { pid: PageId(*p as u32), image: image(*f) })
            }
            Op::Meta(t, r, h) => recs.push(WalRecord::TreeMeta {
                tree: *t as u32,
                root: PageId(*r as u32),
                height: *h as u32,
            }),
            Op::Rekey(t, o, n) => {
                recs.push(WalRecord::Rekey { tree: *t as u32, old: *o as u128, new: *n as u128 })
            }
            Op::Commit => {
                committed += 1;
                recs.push(WalRecord::Commit { ops: committed });
            }
            Op::Ckpt => {
                let begin_seq = recs.len() as u64 + 1;
                recs.push(WalRecord::CkptBegin);
                recs.push(WalRecord::CkptEnd { begin_seq });
            }
        }
    }
    recs
}

/// Encode `records` as the byte stream a flushed log holds, with each
/// record's stride alongside. Sequence numbers run 1, 2, 3, … exactly as
/// [`Wal::append`] assigns them.
fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut stream = Vec::new();
    let mut strides = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        strides.push(rec.encode_into(i as u64 + 1, &mut stream));
    }
    (stream, strides)
}

/// Materialize a byte stream onto a fresh simulated log disk (trailing
/// bytes of the last page stay zero — the clean end-of-stream marker).
fn disk_from_stream(bytes: &[u8]) -> DiskSim {
    let mut d = DiskSim::new();
    let pages = bytes.len().div_ceil(PAGE_SIZE).max(1);
    for p in 0..pages {
        let pid = d.allocate();
        let start = p * PAGE_SIZE;
        if start < bytes.len() {
            let n = (bytes.len() - start).min(PAGE_SIZE);
            let mut page = Page::new();
            page.bytes_mut(0, n).copy_from_slice(&bytes[start..start + n]);
            d.write(pid, &page);
        }
    }
    d
}

/// A data disk whose pages hold arbitrary junk — the "dirty-frame steal"
/// state recovery must be able to overwrite.
fn junk_data_disk(pages: usize) -> DiskSim {
    let mut d = DiskSim::new();
    for p in 0..pages {
        let pid = d.allocate();
        d.write(pid, &image(0xC0u8.wrapping_add(p as u8)));
    }
    d
}

/// The record checksum covers the length. One record of every kind: no
/// proper prefix decodes — bare (a short read) or zero-padded back to the
/// stride and past it (what a torn flush leaves on a zeroed log page) —
/// and the record itself still decodes, to its own stride, when zeros or
/// another record follow it (a record's extent is its tag's stride, never
/// the buffer's).
#[test]
fn no_prefix_of_any_record_kind_decodes_and_trailing_bytes_are_not_part_of_it() {
    let kinds = build_records(&[
        Op::Alloc(3),
        Op::Write(4, 0x5A),
        Op::Pre(5, 0),
        Op::Meta(1, 2, 3),
        Op::Rekey(2, 7, u64::MAX),
        Op::Commit,
        Op::Ckpt,
    ]);
    assert_eq!(kinds.len(), 8, "one record per tag");
    for (i, rec) in kinds.iter().enumerate() {
        let bytes = rec.encode(i as u64 + 1);
        let stride = bytes.len();
        for cut in 0..stride {
            assert!(WalRecord::decode(&bytes[..cut]).is_none(), "{rec:?}: bare prefix {cut}");
            let mut padded = bytes[..cut].to_vec();
            padded.resize(stride + 8, 0);
            if padded[..stride] == bytes[..] {
                continue; // the cut bytes were zeros (a crc ending in 0x00): nothing was lost
            }
            assert!(WalRecord::decode(&padded[..stride]).is_none(), "{rec:?}: padded prefix {cut}");
            assert!(WalRecord::decode(&padded).is_none(), "{rec:?}: over-padded prefix {cut}");
        }
        for tail in [&[0u8; 64][..], &bytes[..]] {
            let extended = [&bytes[..], tail].concat();
            let (back, seq, got) = WalRecord::decode(&extended).expect("a whole record decodes");
            assert_eq!((seq, got), (i as u64 + 1, stride));
            assert_eq!(back.encode(seq), bytes);
        }
    }
}

fn disks_equal(a: &DiskSim, b: &DiskSim) -> bool {
    a.num_pages() == b.num_pages()
        && (0..a.num_pages()).all(|p| {
            let pid = PageId(p as u32);
            a.peek(pid).unwrap().bytes(0, PAGE_SIZE) == b.peek(pid).unwrap().bytes(0, PAGE_SIZE)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Codec round-trip: decode inverts encode for every record variant,
    /// and re-encoding the decoded record reproduces the bytes exactly.
    #[test]
    fn record_roundtrip(ops in proptest::collection::vec(op_strategy(), 1..20), seq in 1u64..u64::MAX) {
        for rec in build_records(&ops) {
            let bytes = rec.encode(seq);
            let (back, got_seq, stride) = WalRecord::decode(&bytes)
                .expect("freshly encoded record must decode");
            prop_assert_eq!(got_seq, seq);
            prop_assert_eq!(stride, bytes.len());
            prop_assert_eq!(back.encode(seq), bytes, "decode must invert encode");
            // One byte short must never decode (prefix of a torn write).
            prop_assert!(WalRecord::decode(&bytes[..bytes.len() - 1]).is_none());
        }
    }

    /// Replaying the same log twice leaves the data disk byte-identical
    /// to replaying it once, and every recovery ledger reads the same.
    #[test]
    fn replay_is_idempotent(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let records = build_records(&ops);
        let (stream, _) = encode_all(&records);
        let log = disk_from_stream(&stream);

        let mut once = junk_data_disk(12);
        let a = recover(&mut once, &log);
        let mut twice = once.clone();
        let b = recover(&mut twice, &log);

        prop_assert!(disks_equal(&once, &twice), "second replay moved the data disk");
        prop_assert_eq!(a.commits, b.commits);
        prop_assert_eq!(a.last_commit_seq, b.last_commit_seq);
        prop_assert_eq!(a.checkpoint_seq, b.checkpoint_seq);
        prop_assert_eq!(a.tree_meta, b.tree_meta);
        prop_assert_eq!(a.rekeys_noted, b.rekeys_noted);
        prop_assert_eq!(a.records_scanned, b.records_scanned);
        prop_assert_eq!(a.records_replayed, b.records_replayed);
        prop_assert_eq!(a.preimages_applied, b.preimages_applied);
        prop_assert_eq!(a.data_writes, b.data_writes, "replay I/O must be reproducible");
        prop_assert_eq!(a.torn_tail, b.torn_tail);
        prop_assert_eq!(a.valid_bytes, b.valid_bytes);
        prop_assert_eq!(a.next_seq, b.next_seq);
        prop_assert!(!a.torn_tail, "a fully flushed log has no torn tail");
        prop_assert_eq!(a.records_scanned, records.len() as u64);
    }

    /// Cut the log inside its last record at **every** byte offset: the
    /// scan must stop at the last complete record (flagging the tear for
    /// any non-empty remainder), never panic, and [`Wal::resume`] must
    /// zero the tail so the log appends cleanly afterwards.
    #[test]
    fn torn_tail_detected_at_every_byte_offset(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        let records = build_records(&ops);
        let (stream, strides) = encode_all(&records);
        let last_stride = *strides.last().unwrap();
        let whole = stream.len();

        for cut in (whole - last_stride)..=whole {
            let log = disk_from_stream(&stream[..cut]);
            let mut data = junk_data_disk(12);
            let rec = recover(&mut data, &log);

            let complete = if cut == whole { records.len() } else { records.len() - 1 };
            prop_assert_eq!(
                rec.records_scanned,
                complete as u64,
                "cut at {} must keep exactly the complete records",
                cut
            );
            prop_assert_eq!(rec.valid_bytes as usize, whole - last_stride + if cut == whole { last_stride } else { 0 });
            // A record prefix starts with the nonzero magic byte, so any
            // partial remainder is detected; a cut on the record boundary
            // is a clean end.
            prop_assert_eq!(rec.torn_tail, cut != whole && cut > whole - last_stride);
            prop_assert_eq!(rec.next_seq, complete as u64 + 1);

            // The resumed log must have zeroed the torn bytes: append a
            // fresh record, flush, and recover again — no tear, one more
            // record.
            let mut wal = Wal::resume(log, &rec);
            wal.append(&WalRecord::Commit { ops: u64::MAX });
            wal.flush(&mut || {});
            let mut data2 = junk_data_disk(12);
            let rec2 = recover(&mut data2, &wal.disk().clone());
            prop_assert!(!rec2.torn_tail, "resume left torn bytes in the log");
            prop_assert_eq!(rec2.records_scanned, complete as u64 + 1);
            prop_assert_eq!(rec2.commits, u64::MAX);
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A page image holding `fill` in every byte.
fn flat_image(fill: u8) -> Box<Page> {
    let mut p = Box::new(Page::new());
    p.bytes_mut(0, PAGE_SIZE).fill(fill);
    p
}

fn tree_op(tree: u32, op: TreeOpKind, key: u128, fill: u8) -> WalRecord {
    WalRecord::TreeOp { tree, op, key, value: [fill; TREE_OP_VALUE_BYTES] }
}

/// Known answers for every tag. The log is an on-platter format: these
/// exact bytes decode to these fields at these sequence numbers, and the
/// fields re-encode to the same bytes. A full-image record pins its
/// header (magic, tag, page id) and its trailer (sequence number and the
/// checksum over the whole record); the page bytes sit in between.
#[test]
fn known_answer_vectors_for_every_tag() {
    let small = [
        (WalRecord::Alloc { pid: PageId(7) }, 1, "a5010700000001000000000000002a6b3e7487041326"),
        (
            WalRecord::TreeMeta { tree: 2, root: PageId(9), height: 3 },
            4,
            "a5050200000009000000030000000400000000000000ae203ea795aef128",
        ),
        (
            WalRecord::Rekey { tree: 1, old: 0x0123_4567_89ab_cdef, new: u128::MAX - 5 },
            5,
            "a50601000000efcdab89674523010000000000000000faffffffffffffffffffffffffffff\
             ff05000000000000000e68c6fd0aa206bd",
        ),
        (WalRecord::Commit { ops: 17 }, 6, "a50711000000000000000600000000000000cd87058717ce574b"),
        (WalRecord::CkptBegin, 7, "a5080700000000000000235e2fc283f7c067"),
        (
            WalRecord::CkptEnd { begin_seq: 7 },
            8,
            "a50907000000000000000800000000000000e84a439f339792ee",
        ),
        (
            tree_op(2, TreeOpKind::Insert, 0xfeed, 0x5a),
            10,
            "a50b0200000001edfe00000000000000000000000000005a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a\
             5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a0a00000000000000cdd4915e24eabc2a",
        ),
        (
            tree_op(2, TreeOpKind::Delete, 0xfeed, 0),
            11,
            "a50b0200000002edfe000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000b00000000000000c056fe3af004f479",
        ),
        (
            tree_op(0, TreeOpKind::Reset, 0, 0),
            12,
            "a50b00000000030000000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000c000000000000000a8674f2731690c5",
        ),
        (
            tree_op(1, TreeOpKind::Merge, 2, 0),
            13,
            "a50b01000000040200000000000000000000000000000000000000000000000000000000000000\
             000000000000000000000000000000000d000000000000004f6a5cce59e8019d",
        ),
        (
            tree_op(1, TreeOpKind::MergeEntry, u128::MAX, 0xa5),
            14,
            "a50b0100000005ffffffffffffffffffffffffffffffffa5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5\
             a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a50e000000000000000bcae5f21284487d",
        ),
        (WalRecord::DiskPages { pages: 1234 }, 15, "a50cd20400000f00000000000000235f25e3ce382e24"),
    ];
    for (rec, seq, want) in small {
        let bytes = rec.encode(seq);
        assert_eq!(hex(&bytes), want, "{rec:?} encodes to its known answer");
        let (back, got_seq, stride) = WalRecord::decode(&bytes).expect("a known answer decodes");
        assert_eq!((back, got_seq, stride), (rec, seq, bytes.len()));
    }
    let images = [
        (
            WalRecord::PageWrite { pid: PageId(3), image: flat_image(0x11) },
            2,
            "a50203000000",
            "020000000000000072a0262cb33ec138",
        ),
        (
            WalRecord::PreImage { pid: PageId(3), image: flat_image(0x22) },
            3,
            "a50403000000",
            "030000000000000020e755ffb6d821f3",
        ),
        (
            WalRecord::WriteBack { pid: PageId(4), image: flat_image(0x33) },
            9,
            "a50a04000000",
            "090000000000000080ddb4dd62680054",
        ),
    ];
    for (rec, seq, head, tail) in images {
        let bytes = rec.encode(seq);
        assert_eq!(bytes.len(), 6 + PAGE_SIZE + 16, "{rec:?}: one page between header and trailer");
        assert_eq!((hex(&bytes[..6]), hex(&bytes[6 + PAGE_SIZE..])), (head.into(), tail.into()));
        let (back, got_seq, stride) = WalRecord::decode(&bytes).expect("a known answer decodes");
        assert_eq!((back, got_seq, stride), (rec, seq, bytes.len()));
    }
}

/// [`torn_tail_detected_at_every_byte_offset`] for logs that end in each
/// record kind its script does not generate — a write-back image, every
/// tree-operation kind, a page count — behind a checkpoint, a committed
/// tree operation and an open merge run.
#[test]
fn torn_tail_detected_at_every_byte_offset_of_the_logical_records() {
    let lasts = [
        WalRecord::WriteBack { pid: PageId(2), image: image(0x3C) },
        tree_op(1, TreeOpKind::Insert, 11, 0x11),
        tree_op(1, TreeOpKind::Delete, 11, 0),
        tree_op(1, TreeOpKind::Reset, 0, 0),
        tree_op(1, TreeOpKind::Merge, 0, 0),
        tree_op(1, TreeOpKind::MergeEntry, 12, 0x12),
        WalRecord::DiskPages { pages: 12 },
    ];
    for last in lasts {
        let records = vec![
            WalRecord::CkptBegin,
            WalRecord::CkptEnd { begin_seq: 1 },
            tree_op(1, TreeOpKind::Insert, 10, 0x10),
            WalRecord::Commit { ops: 1 },
            tree_op(1, TreeOpKind::Merge, 1, 0),
            last,
        ];
        let (stream, strides) = encode_all(&records);
        let last_stride = *strides.last().unwrap();
        let whole = stream.len();
        for cut in (whole - last_stride)..=whole {
            let log = disk_from_stream(&stream[..cut]);
            let rec = recover(&mut junk_data_disk(12), &log);
            let complete = if cut == whole { records.len() } else { records.len() - 1 };
            let what = format!("{:?} cut at {cut}", records.last().unwrap());
            assert_eq!(rec.records_scanned, complete as u64, "{what}");
            let valid = if cut == whole { whole } else { whole - last_stride };
            assert_eq!(rec.valid_bytes as usize, valid, "{what}");
            assert_eq!(rec.torn_tail, cut != whole && cut > whole - last_stride, "{what}");
            assert_eq!(rec.next_seq, complete as u64 + 1, "{what}");
            assert_eq!(rec.tree_ops.len(), 1, "{what}: only the committed insert replays");

            let mut wal = Wal::resume(log, &rec);
            wal.append(&WalRecord::Commit { ops: u64::MAX });
            wal.flush(&mut || {});
            let rec2 = recover(&mut junk_data_disk(12), &wal.disk().clone());
            assert!(!rec2.torn_tail, "{what}: resume left torn bytes in the log");
            assert_eq!(rec2.records_scanned, complete as u64 + 1, "{what}");
            assert_eq!(rec2.commits, u64::MAX, "{what}");
        }
    }
}
