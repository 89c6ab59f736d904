//! The traced pass's shadow of `SecureMemory`: the same counter tree,
//! stores and crypto, rebuilt from the library's public pieces so each
//! layer of a read or a write can be timed on its own.
//!
//! Counter lines start as `CounterOrg::new_line` and change only through
//! `CounterLine::increment` along each write's chain, exactly as in
//! `SecureMemory::write`. The shadow's counters, and so its
//! `encode_for_mac` images, therefore equal the real ones; the traced pass
//! checks this against `SecureMemory::counter_of` on every line it
//! touches. Within one request the shadow does each layer's work in one
//! contiguous region (all lookups, then all encodes, then the MACs), which
//! is what lets one lap time a layer; the work per layer is the same as
//! the library's interleaved loop.

use morphtree_core::counters::{CounterLine, CounterOrg, IncrementOutcome, Line, ReencryptSpan};
use morphtree_core::store::PagedStore;
use morphtree_core::tree::{TreeConfig, TreeGeometry};
use morphtree_crypto::{CtrModeCipher, MacKey, MacTag};

use crate::timing::Laps;

const LINE_BYTES: u64 = 64;

/// Deepest chain the shadow handles; the benchmark's geometries have five
/// levels at most.
const MAX_CHAIN: usize = 24;

/// Layers of a read, as lap indices.
pub const READ_LAYERS: [&str; 5] = [
    "store.lookup_ns",
    "counters.encode_ns",
    "mac.chain_ns",
    "mac.data_ns",
    "otp.decrypt_ns",
];
const R_STORE: usize = 0;
const R_ENCODE: usize = 1;
const R_CHAIN: usize = 2;
const R_DATA: usize = 3;
const R_DECRYPT: usize = 4;

/// Layers of a write, as lap indices.
pub const WRITE_LAYERS: [&str; 7] = [
    "store.write_ns",
    "counters.increment_ns",
    "counters.encode_write_ns",
    "mac.refresh_ns",
    "otp.encrypt_ns",
    "mac.data_write_ns",
    "otp.reencrypt_ns",
];
const W_STORE: usize = 0;
const W_INCREMENT: usize = 1;
const W_ENCODE: usize = 2;
const W_REFRESH: usize = 3;
const W_ENCRYPT: usize = 4;
const W_DATA_MAC: usize = 5;
const W_REENCRYPT: usize = 6;

pub struct Shadow {
    geometry: TreeGeometry,
    orgs: Vec<CounterOrg>,
    levels: Vec<PagedStore<Line>>,
    data: PagedStore<[u8; 64]>,
    data_macs: PagedStore<u64>,
    cipher: CtrModeCipher,
    mac_key: MacKey,
    reencryptions: u64,
    /// Pre-increment counters of every chain line, one arity-long run per
    /// level: `SecureMemory::bump` snapshots them before each increment.
    old: Vec<u64>,
    /// Child counter lines re-MACed after a tree-level overflow:
    /// `(child index, parent counter, encoded image)`.
    repairs: Vec<(u64, u64, [u8; 64])>,
}

impl Shadow {
    /// An empty shadow keyed like `SecureMemory::new(config, memory_bytes,
    /// key)`, so its ciphertexts and MACs equal the real ones too.
    pub fn new(config: &TreeConfig, memory_bytes: u64, key: [u8; 16]) -> Self {
        let geometry = TreeGeometry::new(config, memory_bytes);
        let mut mac_seed = key;
        mac_seed[0] ^= 0x5a;
        Shadow {
            orgs: (0..geometry.levels().len())
                .map(|level| config.org(level))
                .collect(),
            levels: geometry
                .levels()
                .iter()
                .map(|level| PagedStore::new(level.lines))
                .collect(),
            data: PagedStore::new(geometry.data_lines()),
            data_macs: PagedStore::new(geometry.data_lines()),
            cipher: CtrModeCipher::new(key),
            mac_key: MacKey::new(mac_seed),
            reencryptions: 0,
            old: Vec::new(),
            repairs: Vec::new(),
            geometry,
        }
    }

    /// Effective encryption counter of `line`.
    pub fn counter_of(&self, line: u64) -> u64 {
        let (idx, slot) = self.geometry.parent_of(0, line);
        self.levels[0].get(idx).map_or(0, |l| l.get(slot))
    }

    /// Child re-encryptions and re-MACs caused by overflows so far.
    pub fn reencryptions(&self) -> u64 {
        self.reencryptions
    }

    /// A verified read of a written line, one lap per [`READ_LAYERS`]
    /// entry. `None` when the line was never written or a MAC disagrees.
    pub fn read(&self, line: u64, laps: &mut Laps) -> Option<[u8; 64]> {
        laps.start();
        let top = self.geometry.top_level();
        let addr = line * LINE_BYTES;
        let (Some(ciphertext), Some(&stored)) = (self.data.get(line), self.data_macs.get(line))
        else {
            laps.lap(R_STORE);
            return None;
        };
        let counter = self.counter_of(line);
        // (line, its address, its parent's counter) for each off-chip
        // ancestor; the top line is on-chip and trusted.
        let mut chain: [(Option<&Line>, u64, u64); MAX_CHAIN] = [(None, 0, 0); MAX_CHAIN];
        let mut count = 0;
        let mut child = line;
        for level in 0..top {
            let (idx, _) = self.geometry.parent_of(level, child);
            if let Some(counters) = self.levels[level].get(idx) {
                let (parent_idx, slot) = self.geometry.parent_of(level + 1, idx);
                let parent = self.levels[level + 1]
                    .get(parent_idx)
                    .map_or(0, |p| p.get(slot));
                chain[count] = (Some(counters), self.geometry.line_addr(level, idx), parent);
                count += 1;
            }
            child = idx;
        }
        laps.lap(R_STORE);

        let mut bodies = [[0u8; 64]; MAX_CHAIN];
        for (body, (counters, _, _)) in bodies.iter_mut().zip(&chain[..count]) {
            if let Some(counters) = counters {
                *body = counters.encode_for_mac();
            }
        }
        laps.lap(R_ENCODE);

        let inputs: [(u64, u64, &[u8; 64]); MAX_CHAIN] =
            core::array::from_fn(|i| (chain[i].1, chain[i].2, &bodies[i]));
        let mut tags = [MacTag(0); MAX_CHAIN];
        self.mac_key
            .mac_lines_into(&inputs[..count], &mut tags[..count]);
        let chain_ok = tags[..count]
            .iter()
            .zip(&chain[..count])
            .all(|(tag, (counters, _, _))| counters.is_some_and(|c| c.mac() == tag.0));
        laps.lap(R_CHAIN);

        let data_ok = self.mac_key.mac_line(addr, counter, ciphertext).0 == stored;
        laps.lap(R_DATA);

        let mut plaintext = [0u8; 64];
        self.cipher
            .decrypt_line_into(addr, counter, ciphertext, &mut plaintext);
        laps.lap(R_DECRYPT);
        (chain_ok && data_ok).then_some(plaintext)
    }

    /// A write, one or more laps per [`WRITE_LAYERS`] entry: the counter
    /// bump of every chain level, overflow repairs, the chain's MAC
    /// refresh, then the data line's encryption and MAC.
    pub fn write(&mut self, line: u64, plaintext: &[u8; 64], laps: &mut Laps) {
        laps.start();
        let top = self.geometry.top_level();
        let mut path = [(0u64, 0usize); MAX_CHAIN];
        let mut child = line;
        for (level, step) in path.iter_mut().enumerate().take(top + 1) {
            let (idx, slot) = self.geometry.parent_of(level, child);
            let org = self.orgs[level];
            self.levels[level].get_or_insert_with(idx, || org.new_line());
            *step = (idx, slot);
            child = idx;
        }
        laps.lap(W_STORE);

        self.old.clear();
        let mut overflows: [Option<ReencryptSpan>; MAX_CHAIN] = [None; MAX_CHAIN];
        for level in 0..=top {
            let (idx, slot) = path[level];
            let arity = self.geometry.levels()[level].arity;
            if let Some(counters) = self.levels[level].get_mut(idx) {
                self.old.extend((0..arity).map(|s| counters.get(s)));
                if let IncrementOutcome::Overflow(event) = counters.increment(slot) {
                    overflows[level] = Some(event.span);
                }
            }
        }
        laps.lap(W_INCREMENT);

        let mut old_at = 0;
        for level in 0..=top {
            let arity = self.geometry.levels()[level].arity;
            if let Some(span) = overflows[level] {
                if level == 0 {
                    self.reencrypt_children(path[0].0, arity, span, old_at);
                    laps.lap(W_REENCRYPT);
                } else {
                    self.refresh_children(level, path[level].0, arity, span, laps);
                }
            }
            old_at += arity;
        }

        let mut bodies = [[0u8; 64]; MAX_CHAIN];
        for level in (0..=top).rev() {
            if let Some(counters) = self.levels[level].get(path[level].0) {
                bodies[level] = counters.encode_for_mac();
            }
        }
        laps.lap(W_ENCODE);
        for level in (0..=top).rev() {
            let (idx, _) = path[level];
            let parent = if level == top {
                0
            } else {
                let (parent_idx, slot) = path[level + 1];
                self.levels[level + 1]
                    .get(parent_idx)
                    .map_or(0, |p| p.get(slot))
            };
            let mac = self
                .mac_key
                .mac_line(self.geometry.line_addr(level, idx), parent, &bodies[level])
                .0;
            if let Some(counters) = self.levels[level].get_mut(idx) {
                counters.set_mac(mac);
            }
        }
        laps.lap(W_REFRESH);

        let addr = line * LINE_BYTES;
        let counter = self.counter_of(line);
        let mut ciphertext = [0u8; 64];
        self.cipher
            .encrypt_line_into(addr, counter, plaintext, &mut ciphertext);
        laps.lap(W_ENCRYPT);
        let mac = self.mac_key.mac_line(addr, counter, &ciphertext).0;
        laps.lap(W_DATA_MAC);
        self.data.insert(line, ciphertext);
        self.data_macs.insert(line, mac);
        laps.lap(W_STORE);
    }

    /// Re-encrypts the written data children of encryption-counter line
    /// `idx` whose counters an overflow changed.
    fn reencrypt_children(&mut self, idx: u64, arity: usize, span: ReencryptSpan, old_at: usize) {
        for slot in span.slots(arity) {
            let child = idx * arity as u64 + slot as u64;
            if child >= self.geometry.data_lines() {
                break;
            }
            let Some(ciphertext) = self.data.get(child).copied() else {
                continue;
            };
            let addr = child * LINE_BYTES;
            let plaintext = self
                .cipher
                .decrypt_line(addr, self.old[old_at + slot], &ciphertext);
            let counter = self.counter_of(child);
            let fresh = self.cipher.encrypt_line(addr, counter, &plaintext);
            let mac = self.mac_key.mac_line(addr, counter, &fresh).0;
            self.data.insert(child, fresh);
            self.data_macs.insert(child, mac);
            self.reencryptions += 1;
        }
    }

    /// Re-MACs the stored child counter lines of tree line `(level, idx)`
    /// whose parent counters an overflow changed.
    fn refresh_children(
        &mut self,
        level: usize,
        idx: u64,
        arity: usize,
        span: ReencryptSpan,
        laps: &mut Laps,
    ) {
        let mut repairs = std::mem::take(&mut self.repairs);
        repairs.clear();
        let children = self.geometry.levels()[level - 1].lines;
        if let Some(parent) = self.levels[level].get(idx) {
            for slot in span.slots(arity) {
                let child = idx * arity as u64 + slot as u64;
                if child >= children {
                    break;
                }
                if let Some(counters) = self.levels[level - 1].get(child) {
                    repairs.push((child, parent.get(slot), counters.encode_for_mac()));
                }
            }
        }
        laps.lap(W_ENCODE);
        for (child, parent, body) in &repairs {
            let mac = self
                .mac_key
                .mac_line(self.geometry.line_addr(level - 1, *child), *parent, body)
                .0;
            if let Some(counters) = self.levels[level - 1].get_mut(*child) {
                counters.set_mac(mac);
            }
            self.reencryptions += 1;
        }
        laps.lap(W_REFRESH);
        self.repairs = repairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphtree_core::functional::SecureMemory;

    use crate::workload::Rng;

    /// A 1 MiB memory driven through overflows: a hot level-0 line takes
    /// thousands of writes while cold lines elsewhere keep their counters.
    #[test]
    fn shadow_matches_counter_of_through_overflows() {
        let config = TreeConfig::morphtree();
        let key = [0x42; 16];
        let mut real = SecureMemory::new(config.clone(), 1 << 20, key);
        let mut shadow = Shadow::new(&config, 1 << 20, key);
        let mut laps = Laps::new();
        let mut rng = Rng::new(5);
        let lines = (1u64 << 20) / 64;
        let mut written = Vec::new();
        for step in 0..6_000u64 {
            let line = if step % 4 == 0 {
                rng.below(lines)
            } else {
                rng.below(128)
            };
            let data = rng.line();
            real.write(line, &data);
            shadow.write(line, &data, &mut laps);
            written.push((line, data));
        }
        assert!(real.reencryptions() > 0, "the hot line must overflow");
        assert_eq!(shadow.reencryptions(), real.reencryptions());
        let mut latest = std::collections::BTreeMap::new();
        for (line, data) in written {
            latest.insert(line, data);
        }
        for (&line, data) in &latest {
            assert_eq!(
                shadow.counter_of(line),
                real.counter_of(line),
                "line {line}"
            );
            assert_eq!(shadow.read(line, &mut laps), Some(*data), "line {line}");
            assert_eq!(real.read(line).ok(), Some(*data));
        }
        // Every read lap is one of the five read layers, in order.
        let layers: Vec<usize> = laps.laps().iter().map(|lap| lap.0).collect();
        assert_eq!(layers, vec![R_STORE, R_ENCODE, R_CHAIN, R_DATA, R_DECRYPT]);
    }
}
