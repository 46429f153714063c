//! On-page node layout.
//!
//! Every node occupies one 4 KB page:
//!
//! ```text
//! offset  size  field
//! 0       1     node type (0 = leaf, 1 = branch)
//! 2       2     entry count
//! 4       4     leaf: right-sibling page id      (INVALID if none)
//! 8       4     reserved, always zero
//! 12      4     branch: leftmost child page id
//! 16      —     entry array
//! ```
//!
//! Leaf entry `i` (stride `16 + V::SIZE`): `key: u128`, then the value
//! bytes. Branch entry `i` (stride 20): `key: u128`, `child: PageId`, where
//! `child` roots the subtree covering `[key_i, key_{i+1})` and the header's
//! leftmost child covers everything below `key_0`.

use peb_storage::{Page, PageId, PAGE_SIZE};

/// Byte offset of the node-type tag.
pub const OFF_TYPE: usize = 0;
/// Byte offset of the entry count.
pub const OFF_COUNT: usize = 2;
/// Byte offset of a leaf's right-sibling pointer.
pub const OFF_RIGHT: usize = 4;
/// Byte offset of the reserved header word: zeroed when a node is
/// formatted and never written otherwise.
pub const OFF_RESERVED: usize = 8;
/// Byte offset of a branch's leftmost child pointer.
pub const OFF_LEFTMOST: usize = 12;
/// First byte of the entry array.
pub const HEADER: usize = 16;

/// Branch entry stride: 16-byte key + 4-byte child id.
pub const BRANCH_ENTRY: usize = 20;

/// Node-type tag of a leaf page.
pub const TYPE_LEAF: u8 = 0;
/// Node-type tag of a branch (inner) page.
pub const TYPE_BRANCH: u8 = 1;

/// Number of `(key, child)` entries a branch page can hold.
pub const fn branch_capacity() -> usize {
    (PAGE_SIZE - HEADER) / BRANCH_ENTRY
}

/// Number of `(key, value)` entries a leaf page can hold for a value of
/// `vsize` bytes.
pub const fn leaf_capacity(vsize: usize) -> usize {
    (PAGE_SIZE - HEADER) / (16 + vsize)
}

/// Whether the page is a leaf node.
#[inline]
pub fn is_leaf(p: &Page) -> bool {
    p.get_u8(OFF_TYPE) == TYPE_LEAF
}

/// The page's entry count.
#[inline]
pub fn count(p: &Page) -> usize {
    p.get_u16(OFF_COUNT) as usize
}

/// Overwrite the page's entry count.
#[inline]
pub fn set_count(p: &mut Page, n: usize) {
    p.put_u16(OFF_COUNT, n as u16);
}

/// Format the page as an empty leaf with no right sibling.
#[inline]
pub fn init_leaf(p: &mut Page) {
    p.put_u8(OFF_TYPE, TYPE_LEAF);
    set_count(p, 0);
    p.put_page_id(OFF_RIGHT, PageId::INVALID);
    p.put_u32(OFF_RESERVED, 0);
}

/// Format the page as an empty branch whose leftmost child is `leftmost`.
#[inline]
pub fn init_branch(p: &mut Page, leftmost: PageId) {
    p.put_u8(OFF_TYPE, TYPE_BRANCH);
    set_count(p, 0);
    p.put_page_id(OFF_LEFTMOST, leftmost);
    p.put_u32(OFF_RESERVED, 0);
}

// ---- leaf accessors -------------------------------------------------------

/// Byte offset of leaf entry `i` for values of `vsize` bytes.
#[inline]
pub fn leaf_entry_off(i: usize, vsize: usize) -> usize {
    HEADER + i * (16 + vsize)
}

/// Key of leaf entry `i`.
#[inline]
pub fn leaf_key(p: &Page, i: usize, vsize: usize) -> u128 {
    p.get_u128(leaf_entry_off(i, vsize))
}

/// The leaf's right-sibling pointer (`INVALID` at the end of the chain).
#[inline]
pub fn right_sibling(p: &Page) -> PageId {
    p.get_page_id(OFF_RIGHT)
}

/// Overwrite the leaf's right-sibling pointer.
#[inline]
pub fn set_right_sibling(p: &mut Page, pid: PageId) {
    p.put_page_id(OFF_RIGHT, pid);
}

/// Binary search in a leaf: index of the first entry with key >= `key`.
pub fn leaf_lower_bound(p: &Page, key: u128, vsize: usize) -> usize {
    let (mut lo, mut hi) = (0usize, count(p));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(p, mid, vsize) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

// ---- branch accessors -----------------------------------------------------

/// Separator key of branch entry `i`.
#[inline]
pub fn branch_key(p: &Page, i: usize) -> u128 {
    p.get_u128(HEADER + i * BRANCH_ENTRY)
}

/// Overwrite the separator key of branch entry `i`.
#[inline]
pub fn set_branch_key(p: &mut Page, i: usize, k: u128) {
    p.put_u128(HEADER + i * BRANCH_ENTRY, k);
}

/// Child page of branch entry `i` (the subtree covering `[key_i, key_{i+1})`).
#[inline]
pub fn branch_entry_child(p: &Page, i: usize) -> PageId {
    p.get_page_id(HEADER + i * BRANCH_ENTRY + 16)
}

/// Overwrite the child pointer of branch entry `i`.
#[inline]
pub fn set_branch_entry_child(p: &mut Page, i: usize, c: PageId) {
    p.put_page_id(HEADER + i * BRANCH_ENTRY + 16, c);
}

/// The branch's leftmost child (the subtree below every separator).
#[inline]
pub fn leftmost_child(p: &Page) -> PageId {
    p.get_page_id(OFF_LEFTMOST)
}

/// Overwrite the branch's leftmost child pointer.
#[inline]
pub fn set_leftmost_child(p: &mut Page, c: PageId) {
    p.put_page_id(OFF_LEFTMOST, c);
}

/// Child pointer number `j` where `j = 0` is the leftmost child and
/// `j >= 1` is entry `j − 1`'s child. A branch with `count` entries has
/// `count + 1` children.
#[inline]
pub fn child_at(p: &Page, j: usize) -> PageId {
    if j == 0 {
        leftmost_child(p)
    } else {
        branch_entry_child(p, j - 1)
    }
}

/// Overwrite child pointer number `j` (see [`child_at`]).
#[inline]
pub fn set_child_at(p: &mut Page, j: usize, c: PageId) {
    if j == 0 {
        set_leftmost_child(p, c);
    } else {
        set_branch_entry_child(p, j - 1, c);
    }
}

/// Which child pointer to follow for `key`: the number of separators <= key.
/// (Separator `key_i` sends `key >= key_i` to the right, so we count them.)
pub fn branch_child_index(p: &Page, key: u128) -> usize {
    let (mut lo, mut hi) = (0usize, count(p));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if branch_key(p, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo // number of separators <= key == child pointer index
}

/// Insert `(key, child)` as entry `i`, shifting later entries right.
pub fn branch_insert_entry(p: &mut Page, i: usize, key: u128, child: PageId) {
    let n = count(p);
    debug_assert!(i <= n && n < branch_capacity());
    let off = HEADER + i * BRANCH_ENTRY;
    p.shift(off, off + BRANCH_ENTRY, (n - i) * BRANCH_ENTRY);
    p.put_u128(off, key);
    p.put_page_id(off + 16, child);
    set_count(p, n + 1);
}

/// Remove entry `i`, shifting later entries left.
pub fn branch_remove_entry(p: &mut Page, i: usize) {
    let n = count(p);
    debug_assert!(i < n);
    let off = HEADER + i * BRANCH_ENTRY;
    p.shift(off + BRANCH_ENTRY, off, (n - 1 - i) * BRANCH_ENTRY);
    set_count(p, n - 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_paper_scale() {
        // 20-byte branch entries: 204 per 4 KB page.
        assert_eq!(branch_capacity(), 204);
        // 48-byte leaf records (16-byte key + 32-byte moving-object value).
        assert_eq!(leaf_capacity(32), 85);
        assert_eq!(leaf_capacity(8), 170);
    }

    #[test]
    fn leaf_lower_bound_finds_first_geq() {
        let mut p = Page::new();
        init_leaf(&mut p);
        for (i, k) in [10u128, 20, 20, 30].iter().enumerate() {
            p.put_u128(leaf_entry_off(i, 8), *k);
        }
        set_count(&mut p, 4);
        assert_eq!(leaf_lower_bound(&p, 5, 8), 0);
        assert_eq!(leaf_lower_bound(&p, 10, 8), 0);
        assert_eq!(leaf_lower_bound(&p, 15, 8), 1);
        assert_eq!(leaf_lower_bound(&p, 20, 8), 1);
        assert_eq!(leaf_lower_bound(&p, 31, 8), 4);
    }

    #[test]
    fn branch_child_index_routes_by_separator() {
        let mut p = Page::new();
        init_branch(&mut p, PageId(100));
        branch_insert_entry(&mut p, 0, 10, PageId(101));
        branch_insert_entry(&mut p, 1, 20, PageId(102));
        // keys < 10 -> leftmost; 10..19 -> child of entry 0; >= 20 -> entry 1.
        assert_eq!(branch_child_index(&p, 5), 0);
        assert_eq!(child_at(&p, 0), PageId(100));
        assert_eq!(branch_child_index(&p, 10), 1);
        assert_eq!(child_at(&p, 1), PageId(101));
        assert_eq!(branch_child_index(&p, 19), 1);
        assert_eq!(branch_child_index(&p, 20), 2);
        assert_eq!(child_at(&p, 2), PageId(102));
    }

    #[test]
    fn branch_insert_remove_shifts_entries() {
        let mut p = Page::new();
        init_branch(&mut p, PageId(0));
        branch_insert_entry(&mut p, 0, 10, PageId(1));
        branch_insert_entry(&mut p, 1, 30, PageId(3));
        branch_insert_entry(&mut p, 1, 20, PageId(2)); // middle insert
        assert_eq!(count(&p), 3);
        assert_eq!((branch_key(&p, 0), branch_key(&p, 1), branch_key(&p, 2)), (10, 20, 30));
        branch_remove_entry(&mut p, 1);
        assert_eq!(count(&p), 2);
        assert_eq!((branch_key(&p, 0), branch_key(&p, 1)), (10, 30));
        assert_eq!(branch_entry_child(&p, 1), PageId(3));
    }

    #[test]
    fn reserved_word_inits_clear() {
        let mut p = Page::new();
        p.put_u32(OFF_RESERVED, 42); // a recycled page's stale bytes
        init_leaf(&mut p);
        assert_eq!(p.get_u32(OFF_RESERVED), 0);
        p.put_u32(OFF_RESERVED, 42);
        init_branch(&mut p, PageId(3));
        assert_eq!(p.get_u32(OFF_RESERVED), 0);
    }

    #[test]
    fn set_child_at_distinguishes_leftmost() {
        let mut p = Page::new();
        init_branch(&mut p, PageId(7));
        branch_insert_entry(&mut p, 0, 50, PageId(8));
        set_child_at(&mut p, 0, PageId(70));
        set_child_at(&mut p, 1, PageId(80));
        assert_eq!(leftmost_child(&p), PageId(70));
        assert_eq!(branch_entry_child(&p, 0), PageId(80));
    }
}
