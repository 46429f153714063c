//! Fixed-size disk pages with little-endian scalar accessors, and the one
//! checksum kernel of the storage layer ([`seal64`]): the whole-page seal
//! ([`Page::seal`] / [`Page::verify`]) the simulated device uses to detect
//! media corruption, and the write-ahead log's record checksum.

/// Disk page size in bytes (the paper's setting).
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page on the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel "no page" value used for absent sibling/child pointers.
    pub const INVALID: PageId = PageId(u32::MAX);

    /// Whether this id refers to a real page (is not the sentinel).
    pub fn is_valid(&self) -> bool {
        *self != PageId::INVALID
    }
}

/// Number of machine words ([`u64`]) in a page; the versioned-read mirror
/// copies pages word-at-a-time through atomics at this granularity.
pub const PAGE_WORDS: usize = PAGE_SIZE / 8;

/// Lane multiplier of [`seal64`] (2⁶⁴ / φ, odd — so multiplying by it is a
/// bijection of `u64`).
const SEAL_PRIME: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial lane states of [`seal64`]: eight distinct nothing-up-my-sleeve
/// words (the SHA-512 initial hash values). Distinct seeds are what makes a
/// word's contribution depend on which lane it lands in.
const SEAL_SEEDS: [u64; 8] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
    0x9b05_688c_2b3e_6c1f,
    0x1f83_d9ab_fb41_bd6b,
    0x5be0_cd19_137e_2179,
];

/// One absorb step: a bijection of `state` for a fixed `word` and of `word`
/// for a fixed `state` (xor, multiply by an odd constant, xor-shift — each
/// invertible on `u64`).
#[inline(always)]
fn seal_mix(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(SEAL_PRIME);
    x ^ (x >> 29)
}

/// The storage layer's one checksum: a 64-bit, word-wide, position- and
/// length-sensitive hash of `bytes`. It seals pages ([`Page::seal`], kept in
/// the device's catalog) and log records (the `crc` of every
/// [`crate::wal::WalRecord`]). The value is a pure function of the bytes —
/// words are loaded little-endian, in safe portable code with no
/// CPU-feature dispatch and no second path — so a platter or a log written
/// on one machine verifies on any other.
///
/// **Kernel.** Eight lanes start from distinct seeds. Every 64-byte block
/// feeds word *j* to lane *j* (`lane = (lane ^ w) * P; lane ^= lane >> 29`):
/// eight independent multiply chains in flight instead of one byte-serial
/// chain. The accumulator starts from the input length, absorbs the eight
/// lanes in lane order with the same step, then the remaining whole words,
/// then the remaining bytes as one zero-padded word.
///
/// **Guarantee.** Every absorb step is a bijection of the running state for
/// a fixed word and of the word for a fixed state, and the fold is a
/// chain of such steps, so a bijection in each lane. Hence **any change
/// confined to one aligned 8-byte word — every single-bit, single-byte and
/// in-word burst error — changes the result with certainty**: the word's
/// step yields a different state, and every later step maps different
/// states to different states. A wider change goes undetected with
/// probability ≈ 2⁻⁶⁴. Seeds differ per lane and chains are
/// order-sensitive, so transposed words or blocks are caught, and the
/// length is folded in, so truncation and zero-extension are too. It is an
/// error-detecting code, not a MAC: it does not resist an adversary who
/// chooses both words of a two-word change.
pub fn seal64(bytes: &[u8]) -> u64 {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"));
    let mut lanes = SEAL_SEEDS;
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (lane, c) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = seal_mix(*lane, word(c));
        }
    }
    let mut h = lanes.iter().fold(bytes.len() as u64, |h, &lane| seal_mix(h, lane));
    let mut words = blocks.remainder().chunks_exact(8);
    for c in &mut words {
        h = seal_mix(h, word(c));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = seal_mix(h, u64::from_le_bytes(last));
    }
    h
}

/// Outcome of one *physical* page read at the device layer, after the
/// stored bytes were checked against the page's seal (see
/// [`crate::disk::DiskSim::read_outcome`]).
///
/// The typed-error mirror of this enum is [`crate::disk::IoFault`]; the
/// outcome form exists so device-level code can name the clean case and
/// the three failure cases in one `match` without inventing a sentinel.
pub enum ReadOutcome {
    /// The read returned data whose checksum matches the page's seal.
    Clean(Page),
    /// The device failed transiently; the stored data is intact and an
    /// immediate retry may succeed.
    Transient,
    /// The sector is permanently unreadable (marked bad, or the id was
    /// never allocated).
    BadSector,
    /// The read returned data, but its checksum does not match the seal
    /// taken at the last write — silent corruption, detected.
    Mismatch {
        /// The seal recorded when the page was last written.
        expected: u64,
        /// The checksum of the bytes the device actually returned.
        found: u64,
    },
}

/// A 4 KB page. Scalar accessors read/write little-endian values at byte
/// offsets; callers (the B+-tree node layout) are responsible for offsets
/// staying in bounds, which the accessors assert. Equality is byte-wise
/// over the full content.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl std::fmt::Debug for Page {
    /// Compact form — first word and seal, never the 4 KB body (pages
    /// appear in `Result`s whose `Err` arms tests assert with `{:?}`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page {{ head: {:#018x}, seal: {:#018x} }}", self.get_u64(0), self.seal())
    }
}

macro_rules! scalar_accessors {
    ($get:ident, $put:ident, $ty:ty) => {
        #[doc = concat!("Read a little-endian `", stringify!($ty), "` at byte offset `off`.")]
        #[inline]
        pub fn $get(&self, off: usize) -> $ty {
            const N: usize = std::mem::size_of::<$ty>();
            <$ty>::from_le_bytes(self.data[off..off + N].try_into().unwrap())
        }

        #[doc = concat!("Write `v` as a little-endian `", stringify!($ty), "` at byte offset `off`.")]
        #[inline]
        pub fn $put(&mut self, off: usize, v: $ty) {
            const N: usize = std::mem::size_of::<$ty>();
            self.data[off..off + N].copy_from_slice(&v.to_le_bytes());
        }
    };
}

impl Page {
    /// A zero-filled page.
    pub fn new() -> Self {
        Page { data: Box::new([0u8; PAGE_SIZE]) }
    }

    scalar_accessors!(get_u8, put_u8, u8);
    scalar_accessors!(get_u16, put_u16, u16);
    scalar_accessors!(get_u32, put_u32, u32);
    scalar_accessors!(get_u64, put_u64, u64);
    scalar_accessors!(get_u128, put_u128, u128);
    scalar_accessors!(get_f32, put_f32, f32);
    scalar_accessors!(get_f64, put_f64, f64);

    /// Read a [`PageId`] (stored as a little-endian `u32`) at `off`.
    #[inline]
    pub fn get_page_id(&self, off: usize) -> PageId {
        PageId(self.get_u32(off))
    }

    /// Write a [`PageId`] (as a little-endian `u32`) at `off`.
    #[inline]
    pub fn put_page_id(&mut self, off: usize, pid: PageId) {
        self.put_u32(off, pid.0);
    }

    /// Borrow `len` raw bytes starting at `off`.
    #[inline]
    pub fn bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }

    /// Mutably borrow `len` raw bytes starting at `off`.
    #[inline]
    pub fn bytes_mut(&mut self, off: usize, len: usize) -> &mut [u8] {
        &mut self.data[off..off + len]
    }

    /// Shift `len` bytes at `src` to `dst` within the page (memmove), used
    /// by node insert/remove in the B+-tree.
    #[inline]
    pub fn shift(&mut self, src: usize, dst: usize, len: usize) {
        self.data.copy_within(src..src + len, dst);
    }

    /// Word `i` of the page in native endianness (`i < `[`PAGE_WORDS`]).
    ///
    /// Words are an opaque transport format for whole-page copies (the
    /// versioned-read mirror stores pages as atomic words); they round-trip
    /// through [`Page::set_word`] bit-exactly on any platform but carry no
    /// cross-platform meaning of their own — use the little-endian scalar
    /// accessors for field access.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        u64::from_ne_bytes(self.data[i * 8..i * 8 + 8].try_into().unwrap())
    }

    /// Overwrite word `i` with a value previously read by [`Page::word`].
    #[inline]
    pub fn set_word(&mut self, i: usize, w: u64) {
        self.data[i * 8..i * 8 + 8].copy_from_slice(&w.to_ne_bytes());
    }

    /// Fill the whole page from an atomic word image of length
    /// [`PAGE_WORDS`] (relaxed loads — callers supply the fences, see the
    /// pool's mirror). The bulk loop is what makes a 4 KB optimistic copy
    /// cheap; per-word [`Page::set_word`] calls cost an order of magnitude
    /// more in unoptimized builds.
    #[inline]
    pub fn load_atomic_words(&mut self, words: &[std::sync::atomic::AtomicU64]) {
        debug_assert_eq!(words.len(), PAGE_WORDS);
        for (chunk, w) in self.data.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.load(std::sync::atomic::Ordering::Relaxed).to_ne_bytes());
        }
    }

    /// [`seal64`] of the full 4 KB content — the page's **seal**: any
    /// change inside one aligned 8-byte word is detected with certainty,
    /// anything wider with probability 1 − 2⁻⁶⁴, at ≈ 0.2 µs a page.
    /// The simulated disk computes it on every physical write and stores
    /// it in a catalog *separate from the data* (the ZFS / T10-DIF
    /// placement: a checksum stored inside the sector it covers cannot
    /// detect a dropped or torn write, because the stale sector carries a
    /// stale-but-self-consistent checksum). The WAL record checksum is
    /// the same function.
    #[inline]
    pub fn seal(&self) -> u64 {
        seal64(&self.data[..])
    }

    /// Whether the page's current content matches a seal taken earlier —
    /// the verification half of [`Page::seal`].
    #[inline]
    pub fn verify(&self, seal: u64) -> bool {
        self.seal() == seal
    }

    /// Publish the whole page into an atomic word image of length
    /// [`PAGE_WORDS`] (relaxed stores — callers supply the fences).
    #[inline]
    pub fn store_atomic_words(&self, words: &[std::sync::atomic::AtomicU64]) {
        debug_assert_eq!(words.len(), PAGE_WORDS);
        for (chunk, w) in self.data.chunks_exact(8).zip(words) {
            let v = u64::from_ne_bytes(chunk.try_into().unwrap());
            w.store(v, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert_eq!(p.get_u128(0), 0);
        assert_eq!(p.get_u64(PAGE_SIZE - 8), 0);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::new();
        p.put_u8(0, 0xAB);
        p.put_u16(1, 0xBEEF);
        p.put_u32(3, 0xDEADBEEF);
        p.put_u64(7, u64::MAX - 1);
        p.put_u128(15, u128::MAX / 3);
        p.put_f32(31, -1.5);
        p.put_f64(35, 1234.5678);
        assert_eq!(p.get_u8(0), 0xAB);
        assert_eq!(p.get_u16(1), 0xBEEF);
        assert_eq!(p.get_u32(3), 0xDEADBEEF);
        assert_eq!(p.get_u64(7), u64::MAX - 1);
        assert_eq!(p.get_u128(15), u128::MAX / 3);
        assert_eq!(p.get_f32(31), -1.5);
        assert_eq!(p.get_f64(35), 1234.5678);
    }

    #[test]
    fn page_id_roundtrip_and_sentinel() {
        let mut p = Page::new();
        p.put_page_id(100, PageId(42));
        assert_eq!(p.get_page_id(100), PageId(42));
        assert!(PageId(42).is_valid());
        assert!(!PageId::INVALID.is_valid());
    }

    #[test]
    fn shift_moves_entries() {
        let mut p = Page::new();
        for i in 0..4u32 {
            p.put_u32(i as usize * 4, i + 1);
        }
        // Open a hole at slot 1: shift slots 1..4 right by one slot.
        p.shift(4, 8, 12);
        p.put_u32(4, 99);
        assert_eq!((0..5).map(|i| p.get_u32(i * 4)).collect::<Vec<_>>(), vec![1, 99, 2, 3, 4]);
    }

    #[test]
    fn words_round_trip_whole_pages() {
        let mut src = Page::new();
        src.put_u128(0, u128::MAX / 7);
        src.put_u64(4088, 0xFEED_F00D);
        src.put_u8(1234, 0x5A);
        let mut dst = Page::new();
        for i in 0..PAGE_WORDS {
            dst.set_word(i, src.word(i));
        }
        assert_eq!(dst.get_u128(0), u128::MAX / 7);
        assert_eq!(dst.get_u64(4088), 0xFEED_F00D);
        assert_eq!(dst.get_u8(1234), 0x5A);
    }

    #[test]
    fn seal_round_trips_and_detects_change() {
        let mut p = Page::new();
        p.put_u64(0, 42);
        p.put_u128(2048, u128::MAX / 5);
        let seal = p.seal();
        assert!(p.verify(seal));
        p.put_u8(1000, 1);
        assert!(!p.verify(seal), "a one-byte change must break the seal");
        p.put_u8(1000, 0);
        assert!(p.verify(seal), "restoring the byte restores the seal");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let p = Page::new();
        let _ = p.get_u64(PAGE_SIZE - 4);
    }
}
