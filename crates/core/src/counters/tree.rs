//! The counter tree both planes share (DESIGN §3.3): one paged store of
//! 64-byte counter lines per level, the geometry they are laid out over,
//! line creation, overflow spans, and the snapshot codec of its lines.
//!
//! The timing plane ([`crate::metadata::MetadataEngine`]) and the
//! functional plane ([`crate::functional::SecureMemory`]) differ only in
//! *when* a parent advances, a rule each keeps for itself; everything the
//! tree does here is common to both.

use std::ops::Range;

use super::{CounterLine, CounterOrg, Line, LineImage, ReencryptSpan};
use crate::persist::codec::{
    ascending, expect_exhausted, read_section, write_section, ByteReader, ByteWriter,
};
use crate::persist::{RecoveryError, SEC_LEVELS};
use crate::store::PagedStore;
use crate::tree::{TreeConfig, TreeGeometry};

/// Counter lines per level, keyed by line index and created lazily
/// (all-zero counters) on first use. The tree owns its geometry, the one
/// copy of the parent/child arithmetic both planes use.
#[derive(Debug, Clone)]
pub(crate) struct CounterTree {
    geometry: TreeGeometry,
    /// Counter organization per level, for creating absent lines.
    orgs: Vec<CounterOrg>,
    stores: Vec<PagedStore<Line>>,
}

impl CounterTree {
    /// An empty tree over `geometry`, with `config`'s organizations.
    pub(crate) fn new(config: &TreeConfig, geometry: TreeGeometry) -> Self {
        let levels = geometry.levels();
        CounterTree {
            orgs: (0..levels.len()).map(|level| config.org(level)).collect(),
            stores: levels.iter().map(|level| PagedStore::new(level.lines)).collect(),
            geometry,
        }
    }

    /// The geometry the tree is laid out over.
    #[inline]
    pub(crate) fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// The per-level stores, bottom level first.
    pub(crate) fn stores(&self) -> &[PagedStore<Line>] {
        &self.stores
    }

    /// The stored line `idx` at `level`; `None` when absent or either
    /// index is out of range.
    pub(crate) fn line(&self, level: usize, idx: u64) -> Option<&Line> {
        self.stores.get(level)?.get(idx)
    }

    /// Mutable [`CounterTree::line`].
    pub(crate) fn line_mut(&mut self, level: usize, idx: u64) -> Option<&mut Line> {
        self.stores.get_mut(level)?.get_mut(idx)
    }

    /// Line `idx` at `level`, created all-zero if absent: the one lookup
    /// an increment needs.
    #[inline]
    pub(crate) fn line_or_new(&mut self, level: usize, idx: u64) -> &mut Line {
        let org = self.orgs[level];
        self.stores[level].get_or_insert_with(idx, || org.new_line())
    }

    /// Stores `line` as line `idx` at `level`.
    pub(crate) fn insert(&mut self, level: usize, idx: u64, line: Line) {
        self.stores[level].insert(idx, line);
    }

    /// Effective counter at `level` covering `child_idx`; zero if its line
    /// was never created.
    pub(crate) fn counter(&self, level: usize, child_idx: u64) -> u64 {
        let (line_idx, slot) = self.geometry.parent_of(level, child_idx);
        self.stores[level].get(line_idx).map_or(0, |line| line.get(slot))
    }

    /// The children of line `idx` at `level` that an overflow `span`
    /// moved, clamped to children that exist (the last line of a level
    /// may be partial).
    pub(crate) fn span_children(&self, level: usize, idx: u64, span: ReencryptSpan) -> Range<u64> {
        let levels = self.geometry.levels();
        let arity = levels[level].arity;
        let children =
            level.checked_sub(1).map_or(self.geometry.data_lines(), |below| levels[below].lines);
        let first = idx * arity as u64;
        let slots = span.slots(arity);
        let clamp = |slot: usize| (first + slot as u64).min(children);
        clamp(slots.start)..clamp(slots.end)
    }

    /// Restores line `idx` at `level` from its encoded image.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::CounterLineOutOfRange`] outside the geometry, and
    /// [`RecoveryError::MalformedLine`] when the image does not decode
    /// under the level's organization.
    pub(crate) fn restore(
        &mut self,
        level: usize,
        idx: u64,
        image: &LineImage,
    ) -> Result<(), RecoveryError> {
        let Some(store) = self.stores.get_mut(level).filter(|store| idx < store.capacity()) else {
            return Err(RecoveryError::CounterLineOutOfRange { level, line_idx: idx });
        };
        let line = self.orgs[level].decode_line(image);
        store.insert(idx, line.map_err(RecoveryError::MalformedLine)?);
        Ok(())
    }

    /// Appends the `SEC_LEVELS` section: per level, the count of stored
    /// lines and their `(index, encoded image)` pairs in index order.
    pub(crate) fn write_levels(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.u32(self.stores.len() as u32);
        for store in &self.stores {
            w.u64(store.len());
            for (idx, line) in store.iter() {
                w.u64(idx);
                w.bytes(&line.encode());
            }
        }
        write_section(out, SEC_LEVELS, &w.into_bytes());
    }

    /// Reads a [`CounterTree::write_levels`] section into this (empty)
    /// tree.
    ///
    /// # Errors
    ///
    /// A [`RecoveryError`] for framing or checksum damage, a level count
    /// other than the geometry's, indices that do not strictly ascend
    /// within a level, and the [`CounterTree::restore`] errors.
    pub(crate) fn read_levels(&mut self, r: &mut ByteReader<'_>) -> Result<(), RecoveryError> {
        let mut sec = read_section(r, SEC_LEVELS)?;
        let offset = sec.offset();
        if sec.u32()? as usize != self.stores.len() {
            return Err(RecoveryError::CorruptSnapshot { offset });
        }
        for level in 0..self.stores.len() {
            let count = sec.count_u64(8 + crate::CACHELINE_BYTES)?;
            let mut next = 0;
            for _ in 0..count {
                let offset = sec.offset();
                let idx = sec.u64()?;
                let image = sec.line()?;
                // An index past the level passes this check (the previous
                // one was in range) and fails `restore`'s.
                ascending(&mut next, idx, offset)?;
                self.restore(level, idx, &image)?;
            }
        }
        expect_exhausted(&sec)
    }
}
