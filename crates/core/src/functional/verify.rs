//! The one verification pipeline (DESIGN §13): every integrity check a
//! secure memory makes is a [`Check`] in a [`VerifyPlan`], and one runner,
//! [`mac_batches`], MACs those checks and a proof's alike.
//!
//! A plan's order fixes which error a tampered memory reports first:
//! [`VerifyPlan::Line`] (behind `read`) checks the data line, then its
//! chain bottom-up; [`VerifyPlan::lines`] (behind `verify_lines` and
//! `verify_and_read`) the canonical data lines, then their sorted,
//! deduplicated ancestors; [`VerifyPlan::All`] (behind `verify_all`)
//! every stored counter line, level by level bottom-up, then every stored
//! data line.
//!
//! A check is *present* when its line is stored (an absent line has
//! nothing off chip to check). A plan's [`cost`](VerifyPlan::cost) is its
//! number of present checks: exactly the MACs a successful run charges. A
//! failing run stops at the first mismatch but charges every MAC of the
//! chunks it computed, up to [`VERIFY_BATCH`]` - 1` past the failing
//! check.

use morphtree_crypto::{MacKey, MacTag};

use super::SecureMemory;
use crate::counters::CounterLine;
use crate::error::IntegrityError;
use crate::store::PagedStore;
use crate::tree::TreeGeometry;
use crate::CACHELINE_BYTES;

/// Lines per batched MAC pass: enough to amortize loop overhead without
/// oversizing the stack buffers. A read's data line and whole chain fit
/// one pass in every evaluated geometry (under 12 levels).
const VERIFY_BATCH: usize = 16;

/// One integrity check: one line's MAC, recomputed and compared with the
/// MAC stored beside it.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// A data line's MAC over its ciphertext, keyed by its effective
    /// counter.
    Data(u64),
    /// The MAC of counter line `line_idx` at `level` over its
    /// `encode_for_mac` image, keyed by its parent's counter (0 for the
    /// on-chip top line).
    Counter { level: usize, line_idx: u64 },
}

/// A present check's MAC input besides its body: the line address the
/// MAC binds, the counter it is keyed by, and the MAC stored beside the
/// line (`None`: missing, which fails).
pub(crate) type Keyed = (u64, u64, Option<u64>);

/// The runner's batch-compare step. `gather` writes each present item's
/// 64-byte body straight into a fixed stack buffer and returns its
/// [`Keyed`] input (`None` skips an absent item); every
/// [`VERIFY_BATCH`] items are MACed with one [`MacKey::mac_lines_into`]
/// call and compared with their stored MACs, in order.
///
/// Returns the number of MACs computed and the first failing item. On a
/// failure the count includes the rest of the failing chunk.
pub(crate) fn mac_batches<T: Copy>(
    key: &MacKey,
    mut items: impl Iterator<Item = T>,
    mut gather: impl FnMut(T, &mut [u8; CACHELINE_BYTES]) -> Option<Keyed>,
) -> (u64, Result<(), T>) {
    let mut bodies = [[0u8; CACHELINE_BYTES]; VERIFY_BATCH];
    // (line addr, key counter) and (item, stored MAC) per gathered input.
    let mut keys = [(0u64, 0u64); VERIFY_BATCH];
    let mut expect: [Option<(T, Option<u64>)>; VERIFY_BATCH] = [None; VERIFY_BATCH];
    let mut tags = [MacTag(0); VERIFY_BATCH];
    let mut computed = 0;
    loop {
        let mut count = 0;
        while count < VERIFY_BATCH {
            let Some(item) = items.next() else { break };
            if let Some((addr, counter, stored)) = gather(item, &mut bodies[count]) {
                keys[count] = (addr, counter);
                expect[count] = Some((item, stored));
                count += 1;
            }
        }
        let inputs: [(u64, u64, &[u8; CACHELINE_BYTES]); VERIFY_BATCH] =
            core::array::from_fn(|i| (keys[i].0, keys[i].1, &bodies[i]));
        key.mac_lines_into(&inputs[..count], &mut tags[..count]);
        computed += count as u64;
        for (tag, &(item, stored)) in tags.iter().zip(expect.iter().flatten()).take(count) {
            if stored != Some(tag.0) {
                return (computed, Err(item));
            }
        }
        if count < VERIFY_BATCH {
            return (computed, Ok(()));
        }
    }
}

/// Sorted, deduplicated copy of a requested line set.
pub(crate) fn canonical_lines(lines: &[u64]) -> Vec<u64> {
    let mut uniq = lines.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    uniq
}

/// The sorted, deduplicated off-chip ancestors of the ascending `lines`:
/// shared lines appear once, however many of `lines` they cover. Proofs
/// carry exactly this set plus the top line.
pub(crate) fn ancestors(geometry: &TreeGeometry, lines: &[u64]) -> Vec<(usize, u64)> {
    debug_assert!(lines.is_sorted(), "ancestors of unsorted lines");
    let mut keys = Vec::new();
    let mut children = lines.to_vec();
    for level in 0..geometry.top_level() {
        // `parent_of` is monotonic, so each level stays ascending and
        // deduplicates in place.
        for child in &mut children {
            *child = geometry.parent_of(level, *child).0;
        }
        children.dedup();
        keys.extend(children.iter().map(|&line_idx| (level, line_idx)));
    }
    keys
}

/// A read's checks: `line`, then the off-chip counter line keying its
/// MAC at every level below the on-chip top, from the bottom up.
fn line_checks(geometry: &TreeGeometry, line: u64) -> impl Iterator<Item = Check> + '_ {
    let chain = (0..geometry.top_level()).scan(line, move |child, level| {
        *child = geometry.parent_of(level, *child).0;
        Some(Check::Counter {
            level,
            line_idx: *child,
        })
    });
    std::iter::once(Check::Data(line)).chain(chain)
}

/// A line set's checks: its canonical data lines, then their ancestors.
fn listed_checks<'a>(
    data: &'a [u64],
    ancestors: &'a [(usize, u64)],
) -> impl Iterator<Item = Check> + 'a {
    let data = data.iter().map(|&line| Check::Data(line));
    data.chain(
        ancestors
            .iter()
            .map(|&(level, line_idx)| Check::Counter { level, line_idx }),
    )
}

/// The whole memory's checks: every stored counter line, level by level
/// from the bottom up, then every stored data line.
fn all_checks(mem: &SecureMemory) -> impl Iterator<Item = Check> + '_ {
    (0..mem.geometry().top_level())
        .flat_map(move |level| {
            let stored = mem.tree.stores()[level].iter();
            stored.map(move |(line_idx, _)| Check::Counter { level, line_idx })
        })
        .chain(mem.data.iter().map(|(line, _)| Check::Data(line)))
}

/// The ordered checks one verification of a [`SecureMemory`] makes (see
/// the [module docs](self) for each order).
pub(crate) enum VerifyPlan<'m> {
    /// One data line, then its chain; allocation-free.
    Line(&'m SecureMemory, u64),
    /// Canonical data lines, then their ancestors; see
    /// [`VerifyPlan::lines`].
    Lines(&'m SecureMemory, Vec<u64>, Vec<(usize, u64)>),
    /// Every stored counter line, then every stored data line.
    All(&'m SecureMemory),
}

impl<'m> VerifyPlan<'m> {
    /// The canonical form of `lines`, then their deduplicated ancestors.
    ///
    /// # Panics
    ///
    /// Panics if a line is outside the memory's geometry.
    pub(crate) fn lines(mem: &'m SecureMemory, lines: &[u64]) -> Self {
        let data = canonical_lines(lines);
        if let Some(&last) = data.last() {
            assert!(last < mem.geometry().data_lines(), "data line out of range");
        }
        let ancestors = ancestors(mem.geometry(), &data);
        VerifyPlan::Lines(mem, data, ancestors)
    }

    fn mem(&self) -> &'m SecureMemory {
        match *self {
            VerifyPlan::Line(mem, _) | VerifyPlan::Lines(mem, ..) | VerifyPlan::All(mem) => mem,
        }
    }

    /// The number of present checks: exactly the MACs a successful
    /// [`run`](VerifyPlan::run) computes. Every check of
    /// [`VerifyPlan::All`] is present, so its cost is the stores' counts.
    pub(crate) fn cost(&self) -> u64 {
        let mem = self.mem();
        let present = |check: &Check| match *check {
            Check::Data(line) => mem.data.contains(line),
            Check::Counter { level, line_idx } => mem.tree.stores()[level].contains(line_idx),
        };
        match self {
            VerifyPlan::Line(_, line) => {
                line_checks(mem.geometry(), *line).filter(present).count() as u64
            }
            VerifyPlan::Lines(_, data, ancestors) => {
                listed_checks(data, ancestors).filter(present).count() as u64
            }
            VerifyPlan::All(_) => {
                let levels = &mem.tree.stores()[..mem.geometry().top_level()];
                levels.iter().map(PagedStore::len).sum::<u64>() + mem.data.len()
            }
        }
    }

    /// Runs every present check, charging the MACs computed, and returns
    /// the first failure in plan order.
    pub(crate) fn run(&self) -> Result<(), IntegrityError> {
        self.run_with(|_, _| {})
    }

    /// [`run`](VerifyPlan::run), handing `keyed_counter` each present data
    /// line's `(line, key counter)` as it is gathered, so a read can
    /// decrypt without looking the counter up again. The pairs arrive
    /// before the MACs are compared: use them only once this returns `Ok`.
    pub(crate) fn run_with(
        &self,
        mut keyed_counter: impl FnMut(u64, u64),
    ) -> Result<(), IntegrityError> {
        let mem = self.mem();
        let gather = |check, body: &mut [u8; CACHELINE_BYTES]| {
            let keyed = mem.gather(check, body)?;
            if let Check::Data(line) = check {
                keyed_counter(line, keyed.1);
            }
            Some(keyed)
        };
        // One arm per scope keeps each iterator statically dispatched.
        let key = &mem.mac_key;
        let (computed, outcome) = match self {
            VerifyPlan::Line(_, line) => {
                mac_batches(key, line_checks(mem.geometry(), *line), gather)
            }
            VerifyPlan::Lines(_, data, ancestors) => {
                mac_batches(key, listed_checks(data, ancestors), gather)
            }
            VerifyPlan::All(_) => mac_batches(key, all_checks(mem), gather),
        };
        mem.charge(|ops| ops.mac_computes += computed);
        outcome.map_err(|check| match check {
            // A written line must have a stored MAC. Treating a missing
            // MAC as "0" would hand an adversary a trivially forgeable
            // sentinel value; it is a failure of its own instead.
            Check::Data(line) if !mem.data_macs.contains(line) => IntegrityError::MissingMac {
                line_addr: mem.data_addr(line),
            },
            Check::Data(line) => IntegrityError::DataMac {
                line_addr: mem.data_addr(line),
            },
            Check::Counter { level, line_idx } => IntegrityError::CounterMac { level, line_idx },
        })
    }
}

impl SecureMemory {
    /// Writes `check`'s MAC body into `body` and returns the rest of its
    /// MAC input, or `None` when its line is not stored.
    fn gather(&self, check: Check, body: &mut [u8; CACHELINE_BYTES]) -> Option<Keyed> {
        match check {
            Check::Data(line) => {
                *body = *self.data.get(line)?;
                let stored = self.data_macs.get(line).copied();
                Some((self.data_addr(line), self.counter_of(line), stored))
            }
            Check::Counter { level, line_idx } => {
                let stored = self.tree.line(level, line_idx)?;
                *body = stored.encode_for_mac();
                let addr = self.geometry().line_addr(level, line_idx);
                Some((addr, self.key_counter(level, line_idx), Some(stored.mac())))
            }
        }
    }
}
