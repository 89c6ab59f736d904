//! Rank-indexed paged stores for dense, geometry-bounded key spaces.
//!
//! The metadata engine and the functional secure memory both map *line
//! indices* (bounded by the tree geometry) to per-line state. Line indices
//! are dense and bounded, so a paged flat layout gives unhashed access
//! where a `HashMap<u64, _>` would pay a SipHash and a probe walk on the
//! hottest loads and stores of the simulator. The layout:
//!
//! - the *spine* is a `Vec` with one entry per [`PAGE_LINES`]-slot page.
//!   It grows on insert to the highest page written, so a store over a
//!   huge index space (a 1 TiB memory has 2^34 data lines) allocates
//!   nothing until a line is inserted;
//! - a *page* keeps its present values packed in slot order in a `Vec`
//!   held inline in the spine entry, plus a boxed presence bitmap with
//!   the number of present slots before each 64-bit word. A slot's
//!   position among the values is its *rank*: the count before its word
//!   plus a popcount of the lower bits of that word;
//! - a *full* page (all [`PAGE_LINES`] slots present) indexes its values
//!   by slot directly and skips the bitmap.
//!
//! Memory is therefore proportional to the entries present, plus 160
//! bytes of bitmap per page touched: a 256 MiB image written at stride
//! 32 keeps 2 KiB of ciphertext per data page, not the 65 KiB a page of
//! 1,024 `Option<[u8; 64]>` slots took. Nothing walks an absent slot:
//! [`PagedStore::len`] sums the pages' value counts, and
//! [`PagedStore::iter`] walks set bits. Inserting into or taking from the
//! middle of a partial page shifts the values after it, at most
//! `PAGE_LINES - 1` of them; snapshot loads and sequential writes fill
//! pages in index order, where an insert is an append.
//!
//! A present lookup stays spine → page → value. A per-slot `u16`
//! position array in place of the bitmap would make a partial-page
//! lookup one load instead of a rank, but it costs 2 KiB per page
//! touched and must renumber the page on every insert. Measured against
//! this layout (2-vCPU host, alternated 15 s pairs), that variant cut
//! the median `p50_us` by 3–8%, winning 4 of 4 pairs on `rw_hot` and 8
//! of 12 on `serve_batch`. It also raised `rss_mib` by 15 MiB on both
//! (`serve_batch` 28.9 → 44.3) and `setup_s` 2.7–3.7x, so the store
//! ranks instead.
//!
//! [`PagedStore`] mirrors the small `HashMap` API subset the engine uses
//! (`get` / `get_mut` / `insert` / `take` / `get_or_insert_with`), and
//! the golden suite proves the engine's behaviour unchanged against the
//! frozen `ReferenceEngine` of the dev-only `morphtree-oracle` crate.

/// Slots per page.
///
/// 1024 slots keep a page's presence bitmap at 16 words (128 bytes) and
/// its prefix counts within `u16`, and the spine at one 32-byte entry per
/// 1,024 lines.
pub const PAGE_LINES: usize = 1024;

/// 64-bit words in a page's presence bitmap.
const PAGE_WORDS: usize = PAGE_LINES / 64;

/// Which slots of a page hold a value.
#[derive(Debug, Clone)]
struct Ranks {
    /// Bit `s % 64` of word `s / 64` is set when slot `s` is present.
    bits: [u64; PAGE_WORDS],
    /// `before[w]`: present slots in words `0..w`.
    before: [u16; PAGE_WORDS],
}

impl Ranks {
    /// `slot`'s rank among the present slots: `Ok` when it is present,
    /// `Err` with the position it would take when it is not.
    #[inline]
    fn rank(&self, slot: usize) -> Result<usize, usize> {
        let (word, bit) = (slot / 64, slot % 64);
        let bits = self.bits[word];
        let rank = usize::from(self.before[word]) + (bits & ((1 << bit) - 1)).count_ones() as usize;
        if bits >> bit & 1 == 1 {
            Ok(rank)
        } else {
            Err(rank)
        }
    }

    /// Marks the absent `slot` present.
    fn set(&mut self, slot: usize) {
        self.bits[slot / 64] |= 1 << (slot % 64);
        for before in &mut self.before[slot / 64 + 1..] {
            *before += 1;
        }
    }

    /// Marks the present `slot` absent.
    fn clear(&mut self, slot: usize) {
        self.bits[slot / 64] &= !(1 << (slot % 64));
        for before in &mut self.before[slot / 64 + 1..] {
            *before -= 1;
        }
    }

    /// The present slots, ascending.
    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(word * 64 + bit)
            })
        })
    }
}

/// One page: its present values in slot order, and which slots they are.
#[derive(Debug, Clone)]
struct Page<T> {
    values: Vec<T>,
    ranks: Box<Ranks>,
}

impl<T> Page<T> {
    fn new() -> Self {
        Page {
            values: Vec::new(),
            ranks: Box::new(Ranks {
                bits: [0; PAGE_WORDS],
                before: [0; PAGE_WORDS],
            }),
        }
    }

    /// `slot`'s position in `values` (see [`Ranks::rank`]); a full page
    /// holds every slot at its own index.
    #[inline]
    fn find(&self, slot: usize) -> Result<usize, usize> {
        if self.values.len() == PAGE_LINES {
            Ok(slot)
        } else {
            self.ranks.rank(slot)
        }
    }

    /// Stores `value` at the absent `slot`, whose rank is `at`.
    fn put(&mut self, slot: usize, at: usize, value: T) {
        self.ranks.set(slot);
        self.values.insert(at, value);
    }
}

/// A paged map from a dense `u64` index space to `T`, holding only the
/// entries present (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use morphtree_core::store::PagedStore;
///
/// let mut store: PagedStore<u64> = PagedStore::new(10_000);
/// assert_eq!(store.get(9_999), None);
/// store.insert(9_999, 7);
/// assert_eq!(store.get(9_999), Some(&7));
/// *store.get_or_insert_with(3, || 40) += 2;
/// assert_eq!(store.take(3), Some(42));
/// assert_eq!(store.get(3), None);
/// ```
#[derive(Debug, Clone)]
pub struct PagedStore<T> {
    /// `pages[p]` covers indices `[p * PAGE_LINES, (p + 1) * PAGE_LINES)`;
    /// the spine ends at the highest page inserted into.
    pages: Vec<Option<Page<T>>>,
    capacity: u64,
}

impl<T> PagedStore<T> {
    /// Creates an empty store addressing indices `0..capacity`. Allocates
    /// nothing, whatever the capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        PagedStore {
            pages: Vec::new(),
            capacity,
        }
    }

    /// Number of addressable indices.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of pages ever inserted into (for footprint inspection);
    /// pages are never freed.
    #[must_use]
    pub fn allocated_pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// `idx`'s page and slot; `None` when the page number does not fit a
    /// `usize`, which no inserted index can reach.
    #[inline]
    fn split(idx: u64) -> Option<(usize, usize)> {
        let page = usize::try_from(idx / PAGE_LINES as u64).ok()?;
        Some((page, (idx % PAGE_LINES as u64) as usize))
    }

    /// The allocated page holding `idx`, and `idx`'s slot in it.
    #[inline]
    fn page(&self, idx: u64) -> Option<(&Page<T>, usize)> {
        let (page, slot) = Self::split(idx)?;
        Some((self.pages.get(page)?.as_ref()?, slot))
    }

    /// Mutable [`PagedStore::page`].
    #[inline]
    fn page_mut(&mut self, idx: u64) -> Option<(&mut Page<T>, usize)> {
        let (page, slot) = Self::split(idx)?;
        Some((self.pages.get_mut(page)?.as_mut()?, slot))
    }

    /// The page holding the in-range `idx`, allocated (and the spine
    /// grown to it) if need be, and `idx`'s slot in it.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= capacity` — writes come from the tree geometry,
    /// so an out-of-range write is a layout bug that must stay loud.
    fn page_for_insert(&mut self, idx: u64) -> (&mut Page<T>, usize) {
        assert!(idx < self.capacity, "index {idx} out of range (capacity {})", self.capacity);
        let Some((page, slot)) = Self::split(idx) else {
            unreachable!("an index below capacity has an addressable page")
        };
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        (self.pages[page].get_or_insert_with(Page::new), slot)
    }

    /// The entry at `idx`, or `None` when absent *or* out of range.
    ///
    /// Out-of-range lookups return `None` (not a panic) so adversary hooks
    /// probing arbitrary indices surface typed errors, as they did with the
    /// hash maps.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: u64) -> Option<&T> {
        let (page, slot) = self.page(idx)?;
        page.values.get(page.find(slot).ok()?)
    }

    /// Mutable access to the entry at `idx`; `None` when absent or out of
    /// range.
    #[inline]
    pub fn get_mut(&mut self, idx: u64) -> Option<&mut T> {
        let (page, slot) = self.page_mut(idx)?;
        let at = page.find(slot).ok()?;
        page.values.get_mut(at)
    }

    /// Whether `idx` holds an entry.
    #[inline]
    #[must_use]
    pub fn contains(&self, idx: u64) -> bool {
        self.get(idx).is_some()
    }

    /// Inserts `value` at `idx`, returning the previous entry.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= capacity` (see [`PagedStore::get_or_insert_with`]).
    pub fn insert(&mut self, idx: u64, value: T) -> Option<T> {
        let (page, slot) = self.page_for_insert(idx);
        match page.find(slot) {
            Ok(at) => Some(std::mem::replace(&mut page.values[at], value)),
            Err(at) => {
                page.put(slot, at, value);
                None
            }
        }
    }

    /// Removes and returns the entry at `idx`; `None` when absent or out of
    /// range. Pages are never deallocated.
    pub fn take(&mut self, idx: u64) -> Option<T> {
        let (page, slot) = self.page_mut(idx)?;
        let at = page.find(slot).ok()?;
        page.ranks.clear(slot);
        Some(page.values.remove(at))
    }

    /// The entry at `idx`, inserting `make()` first when absent.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= capacity` — writes come from the tree geometry,
    /// so an out-of-range write is a layout bug that must stay loud.
    pub fn get_or_insert_with<F: FnOnce() -> T>(&mut self, idx: u64, make: F) -> &mut T {
        let (page, slot) = self.page_for_insert(idx);
        let at = match page.find(slot) {
            Ok(at) => at,
            Err(at) => {
                page.put(slot, at, make());
                at
            }
        };
        &mut page.values[at]
    }

    /// Iterates the present entries as `(index, &value)` pairs, in index
    /// order. Index order makes serialized snapshots deterministic: two
    /// stores with the same contents serialize byte-identically regardless
    /// of insertion history.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.pages.iter().enumerate().flat_map(|(number, page)| {
            page.iter().flat_map(move |page| {
                let first = (number * PAGE_LINES) as u64;
                page.ranks
                    .slots()
                    .zip(&page.values)
                    .map(move |(slot, value)| (first + slot as u64, value))
            })
        })
    }

    /// Number of present entries, summed over the allocated pages.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.pages.iter().flatten().map(|page| page.values.len() as u64).sum()
    }

    /// Whether no entries are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.iter().flatten().all(|page| page.values.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    const PAGE: u64 = PAGE_LINES as u64;

    /// A store and the `BTreeMap` it must behave as, plus the pages ever
    /// inserted into.
    struct Model {
        store: PagedStore<u64>,
        map: BTreeMap<u64, u64>,
        pages: std::collections::BTreeSet<u64>,
    }

    impl Model {
        fn new(capacity: u64) -> Self {
            Model {
                store: PagedStore::new(capacity),
                map: BTreeMap::new(),
                pages: std::collections::BTreeSet::new(),
            }
        }

        fn insert(&mut self, idx: u64, value: u64) {
            assert_eq!(self.store.insert(idx, value), self.map.insert(idx, value), "insert {idx}");
            self.pages.insert(idx / PAGE);
            self.check();
        }

        fn take(&mut self, idx: u64) {
            assert_eq!(self.store.take(idx), self.map.remove(&idx), "take {idx}");
            self.check();
        }

        fn get_or_insert_with(&mut self, idx: u64, value: u64) {
            let got = *self.store.get_or_insert_with(idx, || value);
            assert_eq!(got, *self.map.entry(idx).or_insert(value), "get_or_insert_with {idx}");
            self.pages.insert(idx / PAGE);
            self.check();
        }

        fn bump(&mut self, idx: u64) {
            let got = self.store.get_mut(idx).map(|v| {
                *v += 1;
                *v
            });
            let want = self.map.get_mut(&idx).map(|v| {
                *v += 1;
                *v
            });
            assert_eq!(got, want, "get_mut {idx}");
            self.check();
        }

        fn probe(&self, idx: u64) {
            assert_eq!(self.store.get(idx), self.map.get(&idx), "get {idx}");
            assert_eq!(self.store.contains(idx), self.map.contains_key(&idx), "contains {idx}");
        }

        /// The whole-store invariants, checked after every operation.
        fn check(&self) {
            let seen: Vec<(u64, u64)> = self.store.iter().map(|(i, &v)| (i, v)).collect();
            let want: Vec<(u64, u64)> = self.map.iter().map(|(&i, &v)| (i, v)).collect();
            assert_eq!(seen, want, "iter");
            assert_eq!(self.store.len(), self.map.len() as u64, "len");
            assert_eq!(self.store.is_empty(), self.map.is_empty(), "is_empty");
            assert_eq!(self.store.allocated_pages(), self.pages.len(), "allocated_pages");
        }
    }

    #[test]
    fn random_operations_match_a_btreemap() {
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let capacity = 3 * PAGE + rng.gen_range(0..PAGE);
            let mut model = Model::new(capacity);
            for step in 0..3_000u64 {
                // Half the operations land on a few hot indices, so takes
                // and replacements hit present slots.
                let idx = if rng.gen_bool(0.5) {
                    rng.gen_range(0..capacity)
                } else {
                    [0, 63, 64, PAGE - 1, PAGE, capacity - 1][rng.gen_range(0..6usize)]
                };
                match rng.gen_range(0..6u32) {
                    0 | 1 => model.insert(idx, step),
                    2 => model.take(idx),
                    3 => model.get_or_insert_with(idx, step),
                    4 => model.bump(idx),
                    _ => model.probe(idx),
                }
                let beyond = capacity + rng.gen_range(0..2 * PAGE);
                model.probe(beyond);
                assert_eq!(model.store.take(beyond), None);
            }
        }
    }

    #[test]
    fn a_full_page_indexes_directly_and_ranks_again_after_a_take() {
        let mut model = Model::new(2 * PAGE);
        let mut rng = SmallRng::seed_from_u64(7);
        // Fill page 1 in a random order, so most inserts shift values.
        let mut order: Vec<u64> = (PAGE..2 * PAGE).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for &idx in &order {
            model.insert(idx, idx * 3);
        }
        assert_eq!(model.store.len(), PAGE);
        for idx in PAGE..2 * PAGE {
            model.probe(idx);
        }
        // Replacing and bumping on the full page keep it full.
        model.insert(PAGE + 5, 1);
        model.bump(PAGE + 5);
        // The first and the last present slot, then one in the middle.
        for idx in [PAGE, 2 * PAGE - 1, PAGE + 500] {
            model.take(idx);
            model.probe(idx);
        }
        for idx in PAGE..2 * PAGE {
            model.probe(idx);
        }
        // Refilling makes the page full again.
        for idx in [PAGE + 500, PAGE, 2 * PAGE - 1] {
            model.get_or_insert_with(idx, idx);
        }
        assert_eq!(model.store.len(), PAGE);
        // Drain it from both ends.
        for i in 0..PAGE / 2 {
            model.take(PAGE + i);
            model.take(2 * PAGE - 1 - i);
        }
        assert!(model.store.is_empty());
        assert_eq!(model.store.allocated_pages(), 1, "pages are never freed");
    }

    #[test]
    fn first_and_last_present_slots_can_be_taken() {
        let mut model = Model::new(PAGE);
        for idx in [3, 64, 65, 700, 1000] {
            model.insert(idx, idx);
        }
        model.take(3);
        model.take(1000);
        model.take(65);
        model.take(3);
        for idx in [3, 64, 65, 700, 1000] {
            model.probe(idx);
        }
    }

    #[test]
    fn a_clone_is_independent_of_the_original() {
        let mut model = Model::new(4 * PAGE);
        for idx in [1, PAGE + 2, 3 * PAGE + 1] {
            model.insert(idx, idx);
        }
        let mut copy = Model {
            store: model.store.clone(),
            map: model.map.clone(),
            pages: model.pages.clone(),
        };
        copy.insert(2 * PAGE, 9);
        copy.take(1);
        copy.bump(PAGE + 2);
        model.check();
        copy.check();
        model.insert(2, 2);
        model.take(3 * PAGE + 1);
        model.check();
        copy.check();
    }

    #[test]
    fn a_huge_capacity_allocates_only_what_is_inserted() {
        let mut store: PagedStore<u64> = PagedStore::new(1 << 60);
        assert_eq!(store.allocated_pages(), 0);
        assert!(store.is_empty());
        assert_eq!(store.get((1 << 60) - 1), None);
        store.insert(17, 5);
        assert_eq!(store.get(17), Some(&5));
        assert_eq!(store.get(1 << 59), None);
        assert_eq!(store.take(1 << 59), None);
        assert_eq!(store.len(), 1);
        let copy = store.clone();
        assert_eq!(copy.get(17), Some(&5));
        assert_eq!(store.allocated_pages(), 1);
    }

    #[test]
    fn empty_store_returns_nothing() {
        let store: PagedStore<u32> = PagedStore::new(5000);
        assert_eq!(store.get(0), None);
        assert_eq!(store.get(4999), None);
        assert!(!store.contains(17));
        assert_eq!(store.allocated_pages(), 0);
    }

    #[test]
    fn insert_get_roundtrip_across_pages() {
        let mut store = PagedStore::new(10 * PAGE_LINES as u64);
        for idx in [0, 1, PAGE_LINES as u64 - 1, PAGE_LINES as u64, 5 * PAGE_LINES as u64 + 7] {
            assert_eq!(store.insert(idx, idx * 3), None);
        }
        assert_eq!(store.get(PAGE_LINES as u64), Some(&(PAGE_LINES as u64 * 3)));
        assert_eq!(store.insert(0, 99), Some(0));
        assert_eq!(store.get(0), Some(&99));
        // Only the touched pages were allocated.
        assert_eq!(store.allocated_pages(), 3);
    }

    #[test]
    fn get_mut_and_take() {
        let mut store = PagedStore::new(100);
        store.insert(42, String::from("x"));
        store.get_mut(42).unwrap().push('y');
        assert_eq!(store.take(42).as_deref(), Some("xy"));
        assert_eq!(store.take(42), None);
        assert_eq!(store.get_mut(41), None);
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut store = PagedStore::new(100);
        *store.get_or_insert_with(7, || 10) += 1;
        *store.get_or_insert_with(7, || unreachable!("already present")) += 1;
        assert_eq!(store.get(7), Some(&12));
    }

    #[test]
    fn out_of_range_reads_are_none_not_panics() {
        let mut store: PagedStore<u8> = PagedStore::new(10);
        assert_eq!(store.get(10), None);
        assert_eq!(store.get(u64::MAX), None);
        assert_eq!(store.get_mut(999), None);
        assert_eq!(store.take(999), None);
        assert!(!store.contains(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut store: PagedStore<u8> = PagedStore::new(10);
        store.insert(10, 1);
    }

    #[test]
    fn zero_capacity_store_is_inert() {
        let store: PagedStore<u8> = PagedStore::new(0);
        assert_eq!(store.get(0), None);
        assert_eq!(store.capacity(), 0);
    }

    #[test]
    fn iter_yields_index_order_regardless_of_insertion_order() {
        let mut store = PagedStore::new(10 * PAGE_LINES as u64);
        let indices = [5 * PAGE_LINES as u64 + 7, 0, PAGE_LINES as u64, 3];
        for idx in indices {
            store.insert(idx, idx);
        }
        let seen: Vec<u64> = store.iter().map(|(idx, _)| idx).collect();
        assert_eq!(seen, vec![0, 3, PAGE_LINES as u64, 5 * PAGE_LINES as u64 + 7]);
        assert_eq!(store.len(), 4);
        assert!(!store.is_empty());
        assert!(PagedStore::<u8>::new(100).is_empty());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = PagedStore::new(100);
        a.insert(3, 1u32);
        let mut b = a.clone();
        b.insert(3, 2);
        assert_eq!(a.get(3), Some(&1));
        assert_eq!(b.get(3), Some(&2));
    }
}
