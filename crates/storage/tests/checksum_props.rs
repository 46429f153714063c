//! The seal as a specification. [`seal64`] is the one checksum of the
//! storage layer — the per-page seal in the device's catalog and the
//! `crc` of every log record — so its *value* is an on-platter format and
//! its *guarantee* is what the fault-tolerance chapter (retry,
//! read-repair, quarantine) stands on. Pinned here: known-answer vectors
//! (the value cannot drift silently); every single-bit error is detected,
//! exhaustively (a change confined to one aligned 8-byte word is caught
//! with certainty); transposed words and blocks are caught (the value
//! depends on position); the length is part of the value. Kept from
//! before: sealing is deterministic and content-only, and multi-byte
//! bursts, a torn write's half-old sector and a dropped write's stale
//! sector fail verification, down in the page and up through the device.

use peb_storage::{seal64, DiskSim, FaultKind, IoFault, Page, WalRecord, PAGE_SIZE, PAGE_WORDS};
use proptest::prelude::*;

/// A page with deterministic non-trivial content derived from `seed`.
fn filled(seed: u64) -> Page {
    let mut p = Page::new();
    for i in 0..PAGE_WORDS {
        p.set_word(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    }
    p
}

/// The exhaustive sweep: flip one bit at **every** byte offset of the
/// sealed content and demand detection each time. Deterministic and
/// exhaustive on purpose — proptest covers the randomized space below.
#[test]
fn a_flip_at_every_single_byte_offset_is_detected() {
    let page = filled(0xA5A5_0001);
    let seal = page.seal();
    assert!(page.verify(seal));
    for off in 0..PAGE_SIZE {
        let mut corrupt = page.clone();
        corrupt.bytes_mut(off, 1)[0] ^= 1 << (off % 8);
        assert!(!corrupt.verify(seal), "flip at byte {off} went undetected");
        assert!(corrupt.verify(corrupt.seal()), "re-seal of the corrupt page must round-trip");
    }
}

/// Known answers. These values are what sits in a seal catalog and in a
/// log's `[seq][crc]` trailers: a kernel edit that moves any of them makes
/// every existing platter and log unreadable, and must say so.
#[test]
fn known_answer_vectors() {
    assert_eq!(seal64(&[]), KAT_EMPTY);
    assert_eq!(Page::new().seal(), KAT_ZERO_PAGE);
    assert_eq!(seal64(&[0u8; PAGE_SIZE]), KAT_ZERO_PAGE, "Page::seal is seal64 of the content");
    let mut ramp = Page::new();
    for i in 0..PAGE_SIZE {
        ramp.put_u8(i, ((31 * i + 7) % 256) as u8);
    }
    assert_eq!(ramp.seal(), KAT_RAMP_PAGE);
    // One encoded record: `[magic][tag][ops][seq][crc]`, 26 bytes — a
    // two-word body plus a two-byte tail, so the no-full-block path is
    // pinned too.
    let commit = WalRecord::Commit { ops: 0x0123_4567_89ab_cdef }.encode(42);
    assert_eq!(commit.len(), 26);
    let (body, crc) = commit.split_at(commit.len() - 8);
    assert_eq!(u64::from_le_bytes(crc.try_into().unwrap()), KAT_COMMIT_RECORD);
    assert_eq!(seal64(body), KAT_COMMIT_RECORD, "the record crc is seal64 of what precedes it");
}

const KAT_EMPTY: u64 = 0x64a1_71d3_dbfa_da50;
const KAT_ZERO_PAGE: u64 = 0xea98_391d_e64c_0e9b;
const KAT_RAMP_PAGE: u64 = 0x917e_a8f3_a330_bed7;
const KAT_COMMIT_RECORD: u64 = 0x55d3_e80a_75a3_d994;

/// The exhaustive single-**bit** sweep: all 32 768 bits of three seeded
/// pages and of the zero page. Every one of them is a change confined to
/// one aligned word, so detection is certain, not probable.
#[test]
fn every_single_bit_flip_of_a_page_is_detected() {
    let pages = [Page::new(), filled(0xA5A5_0001), filled(0x0DDB_A110), filled(u64::MAX)];
    for (n, page) in pages.iter().enumerate() {
        let seal = page.seal();
        let mut corrupt = page.clone();
        for bit in 0..PAGE_SIZE * 8 {
            let mask = 1u8 << (bit % 8);
            corrupt.bytes_mut(bit / 8, 1)[0] ^= mask;
            assert!(!corrupt.verify(seal), "page {n}: flip of bit {bit} went undetected");
            corrupt.bytes_mut(bit / 8, 1)[0] ^= mask;
        }
        assert!(corrupt.verify(seal), "the sweep restores every bit it flips");
    }
}

/// The seal depends on *where* a word sits: swapping two unequal words of
/// one lane (same offset in two blocks), of two lanes (two offsets in one
/// block), and two unequal whole 64-byte blocks each changes it.
#[test]
fn transposed_words_and_blocks_change_the_seal() {
    const BLOCK_WORDS: usize = 8;
    let page = filled(0x7EA5_E700);
    let seal = page.seal();
    let swapped = |a: usize, b: usize, words: usize| {
        let mut p = page.clone();
        for k in 0..words {
            assert_ne!(page.word(a + k), page.word(b + k), "the swap must move something");
            p.set_word(a + k, page.word(b + k));
            p.set_word(b + k, page.word(a + k));
        }
        p
    };
    for block in [0, 1, 31, PAGE_WORDS / BLOCK_WORDS - 2] {
        let w = block * BLOCK_WORDS;
        for lane in 0..BLOCK_WORDS {
            let within_lane = swapped(w + lane, w + BLOCK_WORDS + lane, 1);
            assert!(!within_lane.verify(seal), "lane {lane}: blocks {block}/{} swapped", block + 1);
            let across_lanes = swapped(w + lane, w + (lane + 1) % BLOCK_WORDS, 1);
            assert!(!across_lanes.verify(seal), "block {block}: lanes {lane}/+1 swapped");
        }
        let blocks = swapped(w, w + BLOCK_WORDS, BLOCK_WORDS);
        assert!(!blocks.verify(seal), "blocks {block} and {} transposed", block + 1);
    }
    let far_blocks = swapped(0, PAGE_WORDS - BLOCK_WORDS, BLOCK_WORDS);
    assert!(!far_blocks.verify(seal), "first and last block transposed");
}

/// The length is part of the value: no proper prefix and no zero-extension
/// of an input shares its seal — across the block, word and byte tails.
#[test]
fn truncation_and_zero_extension_change_the_seal() {
    let page = filled(0x1E57);
    let bytes = page.bytes(0, PAGE_SIZE);
    for len in [0usize, 1, 7, 8, 9, 26, 63, 64, 65, 72, 127, 128, 200, PAGE_SIZE] {
        let input = &bytes[..len];
        let seal = seal64(input);
        for shorter in 0..len {
            assert_ne!(seal64(&input[..shorter]), seal, "prefix {shorter} of {len} collides");
        }
        let mut extended = input.to_vec();
        for extra in 1..=130 {
            extended.push(0);
            assert_ne!(seal64(&extended), seal, "{len} bytes + {extra} zeros collides");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Seal/verify round-trip: the seal is a pure function of content.
    #[test]
    fn sealing_is_deterministic_and_content_only(
        words in proptest::collection::vec((0usize..PAGE_WORDS, any::<u64>()), 0..40),
    ) {
        let mut a = Page::new();
        let mut b = Page::new();
        for &(i, w) in &words {
            a.set_word(i, w);
            b.set_word(i, w);
        }
        let seal = a.seal();
        prop_assert_eq!(seal, b.seal(), "identical content, identical seal");
        prop_assert!(a.verify(seal) && b.verify(seal));
    }

    /// Any burst of byte corruptions (at least one effective flip) is
    /// caught by the seal taken before the corruption.
    #[test]
    fn multi_byte_bursts_are_detected(
        seed in any::<u64>(),
        burst in proptest::collection::vec((0usize..PAGE_SIZE, 1u8..=255), 1..24),
    ) {
        let page = filled(seed);
        let seal = page.seal();
        let mut corrupt = page.clone();
        for &(off, mask) in &burst {
            corrupt.bytes_mut(off, 1)[0] ^= mask;
        }
        // Overlapping offsets can cancel each other out; only demand
        // detection when the content actually changed.
        if corrupt.bytes(0, PAGE_SIZE) != page.bytes(0, PAGE_SIZE) {
            prop_assert!(!corrupt.verify(seal), "burst {burst:?} went undetected");
        } else {
            prop_assert!(corrupt.verify(seal));
        }
    }

    /// A torn write (first half of the new image, tail of the old) never
    /// verifies against the new image's seal when the tail differs.
    #[test]
    fn torn_writes_are_detected(old_seed in any::<u64>(), new_seed in any::<u64>()) {
        let new_seed = if old_seed == new_seed { new_seed ^ 1 } else { new_seed };
        let old = filled(old_seed);
        let new = filled(new_seed);
        let seal = new.seal();
        let mut torn = old.clone();
        torn.bytes_mut(0, PAGE_SIZE / 2).copy_from_slice(new.bytes(0, PAGE_SIZE / 2));
        prop_assert!(!torn.verify(seal), "torn sector verified against the intended seal");
    }

    /// A dropped write (stale sector, updated seal catalog) never
    /// verifies: the old content fails the new seal.
    #[test]
    fn dropped_writes_are_detected(old_seed in any::<u64>(), new_seed in any::<u64>()) {
        let new_seed = if old_seed == new_seed { new_seed ^ 1 } else { new_seed };
        let old = filled(old_seed);
        let new = filled(new_seed);
        prop_assert!(!old.verify(new.seal()), "stale sector verified against the intended seal");
    }

    /// End to end through the device: an injected flip burst surfaces as
    /// a typed checksum mismatch naming both seals, and rewriting the
    /// page heals the medium.
    #[test]
    fn disk_flips_surface_typed_and_rewrites_heal(
        seed in any::<u64>(),
        bits in 1u8..=4,
    ) {
        let mut disk = DiskSim::new();
        let pid = disk.allocate();
        let page = filled(seed);
        disk.write(pid, &page);
        disk.faults_mut().set_seed(seed ^ 0x0BAD_5EED);
        disk.faults_mut().arm_read(Some(pid), 1, FaultKind::BitFlip { bits });
        prop_assert_eq!(disk.read(pid).expect("clean first read").seal(), page.seal());
        match disk.read(pid) {
            Err(IoFault::Corrupt { pid: p, expected, found }) => {
                prop_assert_eq!(p, pid);
                prop_assert_eq!(expected, page.seal());
                prop_assert_ne!(found, expected);
            }
            other => prop_assert!(false, "expected a typed mismatch, got {other:?}"),
        }
        // The flip persists on the medium until something rewrites it…
        prop_assert!(matches!(disk.read(pid), Err(IoFault::Corrupt { .. })));
        // …and a rewrite heals it.
        disk.write(pid, &page);
        prop_assert_eq!(disk.read(pid).expect("healed").seal(), page.seal());
    }
}
