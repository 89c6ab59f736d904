//! The sharded secure-memory engine: per-shard [`SecureMemory`] subtrees
//! under a shared top root.

use crate::error::{IntegrityError, ShardError, TamperError};
use crate::functional::SecureMemory;
use crate::tree::TreeConfig;
use crate::CACHELINE_BYTES;
use morphtree_crypto::MacKey;

use super::plan::ShardPlan;
use super::queue::{InterleaveSchedule, ShardQueues};

/// One request against the sharded engine, addressed by *global* data
/// line. The mix mirrors what the lockstep oracle can compare against the
/// serial memory: reads, writes, and the two data-plane tamper hooks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Verified read of a data line.
    Read {
        /// Global data line.
        line: u64,
    },
    /// Write of a plaintext line.
    Write {
        /// Global data line.
        line: u64,
        /// Plaintext to store.
        data: [u8; CACHELINE_BYTES],
    },
    /// Adversarial bit flip in the stored ciphertext.
    TamperData {
        /// Global data line.
        line: u64,
        /// Byte offset within the line.
        offset: usize,
        /// XOR mask applied to that byte.
        mask: u8,
    },
    /// Adversarial bit flip in the stored data MAC.
    TamperMac {
        /// Global data line.
        line: u64,
        /// XOR mask applied to the stored MAC.
        mask: u64,
    },
}

impl Op {
    /// The global data line this request targets (every op is routed by
    /// its data address).
    #[must_use]
    pub fn line(&self) -> u64 {
        match *self {
            Op::Read { line }
            | Op::Write { line, .. }
            | Op::TamperData { line, .. }
            | Op::TamperMac { line, .. } => line,
        }
    }

    /// Whether the request mutates shard state (and therefore dirties the
    /// shard's cached root digest).
    #[must_use]
    pub fn mutates(&self) -> bool {
        !matches!(self, Op::Read { .. })
    }
}

/// The result of one [`Op`], in submission order. Tamper verdicts and
/// detection errors carry *global* data coordinates (translated back from
/// shard-local ones), so they compare directly against a serial
/// [`SecureMemory`] oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// A read verified and decrypted successfully.
    Data([u8; CACHELINE_BYTES]),
    /// A write completed.
    Written,
    /// A tamper hook landed (corrupted off-chip state in place).
    Tampered,
    /// A tamper hook had nothing to corrupt.
    TamperRejected(TamperError),
    /// A read detected an integrity violation.
    Detected(IntegrityError),
}

/// Translates a shard-local integrity error to global coordinates.
///
/// Data-line addresses translate exactly. `CounterMac` coordinates are
/// left shard-local (tagged by which shard raised them is the caller's
/// job): a shard's counter tree has its own geometry, so its line indices
/// have no global meaning.
fn globalize_integrity(plan: &ShardPlan, shard: usize, err: IntegrityError) -> IntegrityError {
    let addr = |local_addr: u64| {
        let local_line = local_addr / CACHELINE_BYTES as u64;
        plan.global_line(shard, local_line) * CACHELINE_BYTES as u64
    };
    match err {
        IntegrityError::DataMac { line_addr } => {
            IntegrityError::DataMac { line_addr: addr(line_addr) }
        }
        IntegrityError::MissingMac { line_addr } => {
            IntegrityError::MissingMac { line_addr: addr(line_addr) }
        }
        IntegrityError::CounterMac { level, line_idx } => {
            IntegrityError::CounterMac { level, line_idx }
        }
    }
}

/// Translates a shard-local tamper error to global coordinates.
fn globalize_tamper(plan: &ShardPlan, shard: usize, err: TamperError) -> TamperError {
    match err {
        TamperError::NeverWritten { data_line } => {
            TamperError::NeverWritten { data_line: plan.global_line(shard, data_line) }
        }
        other => other,
    }
}

/// Applies one request to its owning shard. Free function (not a method)
/// so worker threads can run it on disjoint `&mut SecureMemory` borrows.
fn apply(plan: &ShardPlan, shard: usize, memory: &mut SecureMemory, op: &Op) -> OpOutcome {
    let local = plan.local_line(op.line());
    match *op {
        Op::Read { .. } => match memory.read(local) {
            Ok(data) => OpOutcome::Data(data),
            Err(err) => OpOutcome::Detected(globalize_integrity(plan, shard, err)),
        },
        Op::Write { ref data, .. } => {
            memory.write(local, data);
            OpOutcome::Written
        }
        Op::TamperData { offset, mask, .. } => match memory.tamper_raw(local, offset, mask) {
            Ok(()) => OpOutcome::Tampered,
            Err(err) => OpOutcome::TamperRejected(globalize_tamper(plan, shard, err)),
        },
        Op::TamperMac { mask, .. } => match memory.tamper_mac(local, mask) {
            Ok(()) => OpOutcome::Tampered,
            Err(err) => OpOutcome::TamperRejected(globalize_tamper(plan, shard, err)),
        },
    }
}

/// Flushes a run of consecutive reads against one shard as a single
/// multi-line verify+decrypt call ([`SecureMemory::verify_and_read`]),
/// so the whole run shares one verification plan and deduplicated
/// ancestor verification.
///
/// Outcome lockstep is preserved by construction: a successful bulk pass
/// performs a superset of every per-line check, so its plaintexts equal
/// the per-line results; on *any* bulk failure the run is replayed per
/// line so each op receives exactly the verdict the serial oracle would
/// give it (the bulk error cannot name which queued op is at fault —
/// shared ancestors are verified once for the whole run).
fn flush_reads(
    plan: &ShardPlan,
    shard: usize,
    memory: &mut SecureMemory,
    run: &mut Vec<(usize, u64)>,
    results: &mut Vec<(usize, OpOutcome)>,
) {
    if run.len() > 1 {
        let lines: Vec<u64> = run.iter().map(|&(_, local)| local).collect();
        if let Ok(plaintexts) = memory.verify_and_read(&lines) {
            for (&(index, _), plaintext) in run.iter().zip(plaintexts) {
                results.push((index, OpOutcome::Data(plaintext)));
            }
            run.clear();
            return;
        }
    }
    // Singleton run, or bulk verification failed: serve per line, giving
    // each op exactly the verdict `apply`'s read arm would.
    for &(index, local) in run.iter() {
        let outcome = match memory.read(local) {
            Ok(data) => OpOutcome::Data(data),
            Err(err) => OpOutcome::Detected(globalize_integrity(plan, shard, err)),
        };
        results.push((index, outcome));
    }
    run.clear();
}

/// Drains one shard's FIFO queue, grouping maximal runs of consecutive
/// reads into bulk verify+decrypt calls via [`flush_reads`] and applying
/// everything else per op. Per-shard program order is preserved: a read
/// run only ever extends until the next mutating op, which flushes it.
fn apply_queue<'a>(
    plan: &ShardPlan,
    shard: usize,
    memory: &mut SecureMemory,
    queue: impl Iterator<Item = (usize, &'a Op)>,
    results: &mut Vec<(usize, OpOutcome)>,
) {
    let mut run: Vec<(usize, u64)> = Vec::new();
    for (index, op) in queue {
        if let Op::Read { line } = *op {
            run.push((index, plan.local_line(line)));
            continue;
        }
        flush_reads(plan, shard, memory, &mut run, results);
        results.push((index, apply(plan, shard, memory, op)));
    }
    flush_reads(plan, shard, memory, &mut run, results);
}

/// Derives the per-shard encryption/MAC seed from the tenant key: the high
/// key half is XORed with the 1-based shard id, so shards never share OTP
/// or MAC streams even for identical plaintexts at identical local
/// addresses. The lone shard of a one-shard plan keeps the tenant key: a
/// single memory is the one-shard case.
fn shard_key(plan: &ShardPlan, key: [u8; 16], shard: usize) -> [u8; 16] {
    if plan.shards() == 1 {
        return key;
    }
    let mut derived = key;
    let id = (shard as u64 + 1).to_le_bytes();
    for (byte, id_byte) in derived[8..16].iter_mut().zip(id) {
        *byte ^= id_byte;
    }
    derived
}

/// Domain-separated key for the shared top MAC (distinct from both the
/// encryption key and the per-subtree MAC seeds).
fn top_key(key: [u8; 16]) -> MacKey {
    let mut seed = key;
    seed[0] ^= 0xc3;
    MacKey::new(seed)
}

/// Folds a vector of per-shard root digests into the combined top MAC
/// under the tenant's domain-separated top key: a keyed MAC chain over the
/// digest vector (eight digests per 64-byte block, each block MACed with
/// the running value as its counter). One digest folds to itself, so a
/// one-shard memory's combined root is its shard's root digest.
///
/// Exposed `pub(crate)` so the epoch persistence layer can compute the
/// combined root a *partially completed* epoch cut would have pinned,
/// without mutating any engine state.
pub(crate) fn fold_digests(key: [u8; 16], digests: &[u64]) -> u64 {
    if let [root] = digests {
        return *root;
    }
    let top = top_key(key);
    let mut acc = 0u64;
    for (block_idx, chunk) in digests.chunks(8).enumerate() {
        let mut block = [0u8; CACHELINE_BYTES];
        for (slot, digest) in chunk.iter().enumerate() {
            block[slot * 8..slot * 8 + 8].copy_from_slice(&digest.to_le_bytes());
        }
        acc = top.mac_line(block_idx as u64 * CACHELINE_BYTES as u64, acc, &block).0;
    }
    acc
}

/// A sharded functional secure memory: `shards` independent
/// [`SecureMemory`] subtrees over contiguous address ranges, recombined
/// under one keyed top MAC. One shard is a single memory: its shard keeps
/// the tenant key, its combined root is the shard's root digest, and it
/// saves, proves and recovers as a [`SecureMemory`] does.
///
/// See the [module docs](crate::concurrent) for the architecture. The
/// invariant the test suites pin: for a fixed request sequence, the final
/// data bytes, tamper verdicts, and [`ShardedMemory::combined_root`] are
/// identical for every worker count and every seeded interleaving.
#[derive(Debug)]
pub struct ShardedMemory {
    plan: ShardPlan,
    /// The tenant key; per-shard keys derive from it (`shard_key`), as
    /// does the domain-separated top key ([`fold_digests`]).
    key: [u8; 16],
    shards: Vec<SecureMemory>,
    /// Cached per-shard root digests; entry `s` is stale iff `dirty[s]`.
    digests: Vec<u64>,
    dirty: Vec<bool>,
    combined_root: u64,
    recombines: u64,
}

impl ShardedMemory {
    /// Creates a sharded memory over `memory_bytes` of protected data.
    ///
    /// # Errors
    ///
    /// Returns a [`ShardError`] when the partition is impossible (zero
    /// shards, unaligned size, or more shards than data lines).
    pub fn new(
        config: TreeConfig,
        memory_bytes: u64,
        key: [u8; 16],
        shards: usize,
    ) -> Result<Self, ShardError> {
        let plan = ShardPlan::new(memory_bytes, shards)?;
        let shards = (0..plan.shards())
            .map(|s| {
                let key = shard_key(&plan, key, s);
                SecureMemory::new(config.clone(), plan.shard_memory_bytes(s), key)
            })
            .collect();
        Ok(ShardedMemory::from_parts(plan, key, shards))
    }

    /// Assembles a sharded memory from its shards (construction, and the
    /// persistence layer's recovered parts).
    pub(crate) fn from_parts(plan: ShardPlan, key: [u8; 16], shards: Vec<SecureMemory>) -> Self {
        let mut this = ShardedMemory {
            plan,
            key,
            digests: shards.iter().map(SecureMemory::root_digest).collect(),
            dirty: vec![false; shards.len()],
            shards,
            combined_root: 0,
            recombines: 0,
        };
        this.fold_top();
        this.recombines = 0; // construction does not count as a recombine
        this
    }

    /// The tenant key (persistence layer: stored in the sharded snapshot
    /// header so recovery can re-derive the shard and top keys).
    pub(crate) fn tenant_key(&self) -> [u8; 16] {
        self.key
    }

    /// The expected derived key of `shard` under `plan` (recovery
    /// cross-checks each restored shard snapshot against this).
    pub(crate) fn derived_key(plan: &ShardPlan, key: [u8; 16], shard: usize) -> [u8; 16] {
        shard_key(plan, key, shard)
    }

    /// The shard partition in use.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The cached per-shard root digests (the proof subsystem embeds the
    /// full vector in a sharded proof). Callers must
    /// [`ShardedMemory::recombine`] first if shards may be dirty.
    pub(crate) fn shard_digests(&self) -> &[u64] {
        &self.digests
    }

    /// One shard's subtree (read-only; for audits and persistence).
    #[must_use]
    pub fn shard(&self, shard: usize) -> &SecureMemory {
        &self.shards[shard]
    }

    /// Mutable access to one shard's subtree (epoch persistence layer:
    /// journal harvesting). Callers must not bypass the dirty-bit
    /// bookkeeping with state mutations.
    pub(crate) fn shard_mut(&mut self, shard: usize) -> &mut SecureMemory {
        &mut self.shards[shard]
    }

    /// Enables mutation journaling on every shard (see
    /// [`SecureMemory::begin_journal`]); the epoch persistence layer
    /// harvests the per-shard journals after each batch to derive WAL
    /// records.
    pub fn begin_journals(&mut self) {
        for shard in &mut self.shards {
            shard.begin_journal();
        }
    }

    /// How many coalesced top-root recombinations have run. A batch of any
    /// size costs at most one — the coalescing the tests assert.
    #[must_use]
    pub fn recombines(&self) -> u64 {
        self.recombines
    }

    /// Folds the cached per-shard digests into the combined root MAC (see
    /// [`fold_digests`] for the chain construction).
    fn fold_top(&mut self) {
        self.combined_root = fold_digests(self.key, &self.digests);
        self.recombines += 1;
    }

    /// Refreshes the digests of dirty shards only, then refolds the top —
    /// the coalesced (batched) root update. No-op when nothing is dirty.
    pub fn recombine(&mut self) {
        if !self.dirty.iter().any(|&d| d) {
            return;
        }
        for (s, dirty) in self.dirty.iter_mut().enumerate() {
            if *dirty {
                self.digests[s] = self.shards[s].root_digest();
                *dirty = false;
            }
        }
        self.fold_top();
    }

    /// The combined root MAC over all shard subtree roots, recombining
    /// first if any shard is dirty.
    pub fn combined_root(&mut self) -> u64 {
        self.recombine();
        self.combined_root
    }

    /// Serial convenience read (routes to the owning shard).
    ///
    /// # Errors
    ///
    /// Returns the detection verdict, in global coordinates.
    pub fn read(&self, line: u64) -> Result<[u8; CACHELINE_BYTES], IntegrityError> {
        let shard = self.plan.shard_of(line);
        self.shards[shard]
            .read(self.plan.local_line(line))
            .map_err(|e| globalize_integrity(&self.plan, shard, e))
    }

    /// Serial convenience write (routes to the owning shard and marks it
    /// dirty; the root recombines lazily on the next
    /// [`ShardedMemory::combined_root`]).
    pub fn write(&mut self, line: u64, data: &[u8; CACHELINE_BYTES]) {
        let shard = self.plan.shard_of(line);
        self.shards[shard].write(self.plan.local_line(line), data);
        self.dirty[shard] = true;
    }

    /// Serial convenience ciphertext tamper (routes to the owning shard).
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] (global coordinates) when there is nothing
    /// to corrupt.
    pub fn tamper_raw(&mut self, line: u64, offset: usize, mask: u8) -> Result<(), TamperError> {
        let shard = self.plan.shard_of(line);
        let out = self.shards[shard]
            .tamper_raw(self.plan.local_line(line), offset, mask)
            .map_err(|e| globalize_tamper(&self.plan, shard, e));
        if out.is_ok() {
            self.dirty[shard] = true;
        }
        out
    }

    /// Serial convenience MAC tamper (routes to the owning shard).
    ///
    /// # Errors
    ///
    /// Returns [`TamperError`] (global coordinates) when there is nothing
    /// to corrupt.
    pub fn tamper_mac(&mut self, line: u64, mask: u64) -> Result<(), TamperError> {
        let shard = self.plan.shard_of(line);
        let out = self.shards[shard]
            .tamper_mac(self.plan.local_line(line), mask)
            .map_err(|e| globalize_tamper(&self.plan, shard, e));
        if out.is_ok() {
            self.dirty[shard] = true;
        }
        out
    }

    /// Audits every shard subtree, returning the first violation found
    /// (data coordinates globalized).
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] across shards, in shard order.
    pub fn verify_all(&self) -> Result<(), IntegrityError> {
        self.per_shard(|_, shard| shard.verify_all()).map(|_| ())
    }

    /// Runs `verify(shard index, shard)` on every shard in shard order:
    /// the one per-shard loop of the sharded verifiers.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`], with data coordinates
    /// globalized.
    pub(crate) fn per_shard<R>(
        &self,
        mut verify: impl FnMut(usize, &SecureMemory) -> Result<R, IntegrityError>,
    ) -> Result<Vec<R>, IntegrityError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| verify(s, shard).map_err(|e| globalize_integrity(&self.plan, s, e)))
            .collect()
    }

    /// Batch-verifies the data MACs and deduplicated counter chains of
    /// `lines` (global coordinates), routing each line to its owning
    /// shard and running one batched
    /// [`SecureMemory::verify_lines`] pass per shard, which canonicalizes
    /// its bucket exactly as the serial call does.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] across shards, in shard
    /// order, with data coordinates globalized.
    pub fn verify_lines(&self, lines: &[u64]) -> Result<(), IntegrityError> {
        let buckets = self.plan.bucket(lines);
        self.per_shard(|s, shard| shard.verify_lines(&buckets[s])).map(|_| ())
    }

    /// Batch-verifies and decrypts `lines` (global coordinates), routing
    /// each line to its owning shard and running one
    /// [`SecureMemory::verify_and_read`] pass per shard.
    /// Plaintexts come back in **input order** (duplicates included);
    /// never-written lines read as zeroes.
    ///
    /// # Errors
    ///
    /// Returns the first [`IntegrityError`] across shards, in shard
    /// order, with data coordinates globalized; no plaintext is released
    /// for any line of a failing batch.
    pub fn verify_and_read(
        &self,
        lines: &[u64],
    ) -> Result<Vec<[u8; CACHELINE_BYTES]>, IntegrityError> {
        let buckets = self.plan.bucket(lines);
        let mut per_shard: Vec<_> = self
            .per_shard(|s, shard| shard.verify_and_read(&buckets[s]))?
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        Ok(lines
            .iter()
            .map(|&line| {
                // Each shard returned exactly one plaintext per routed
                // line, in routing order — both walk `lines`.
                #[allow(clippy::expect_used)]
                per_shard[self.plan.shard_of(line)]
                    .next()
                    .expect("one plaintext per routed line")
            })
            .collect())
    }

    /// Total overflow re-encryptions across all shards.
    #[must_use]
    pub fn reencryptions(&self) -> u64 {
        self.shards.iter().map(SecureMemory::reencryptions).sum()
    }

    /// Routes `ops` into per-shard queues and marks dirtied shards.
    fn enqueue<'a>(&mut self, ops: &'a [Op]) -> ShardQueues<&'a Op> {
        let mut queues = ShardQueues::new(&self.plan);
        for (index, op) in ops.iter().enumerate() {
            let shard = self.plan.shard_of(op.line());
            if op.mutates() {
                self.dirty[shard] = true;
            }
            queues.push(shard, index, op);
        }
        queues
    }

    /// Gathers per-shard `(submission index, outcome)` results back into
    /// submission order.
    fn scatter(total: usize, results: Vec<(usize, OpOutcome)>) -> Vec<OpOutcome> {
        let mut out: Vec<Option<OpOutcome>> = (0..total).map(|_| None).collect();
        for (index, outcome) in results {
            out[index] = Some(outcome);
        }
        out.into_iter()
            .map(|slot| match slot {
                Some(outcome) => outcome,
                None => unreachable!("every submitted op produces an outcome"),
            })
            .collect()
    }

    /// Runs a batch of requests with `threads` workers, returning outcomes
    /// in submission order, then recombines the root once (coalesced).
    ///
    /// Workers own disjoint contiguous shard ranges (`chunks_mut`), so the
    /// batch needs no locks; per-shard program order is preserved by the
    /// FIFO queues, which is the only order that affects final state.
    pub fn run_batch(&mut self, ops: &[Op], threads: usize) -> Vec<OpOutcome> {
        let outcomes = self.run_batch_deferred(ops, threads);
        self.recombine();
        outcomes
    }

    /// [`ShardedMemory::run_batch`] without the trailing recombine: dirtied
    /// shards stay marked and the top root stays stale until the next
    /// [`ShardedMemory::recombine`] / [`ShardedMemory::combined_root`].
    ///
    /// This is the epoch-mode entry point: the epoch persistence layer
    /// batches cross-shard top recombination once per *epoch* instead of
    /// once per batch, so many batches share a single top fold at the
    /// epoch cut.
    pub fn run_batch_deferred(&mut self, ops: &[Op], threads: usize) -> Vec<OpOutcome> {
        let mut queues = self.enqueue(ops);
        let shard_count = self.plan.shards();
        let workers = threads.clamp(1, shard_count);
        let plan = self.plan;

        let results: Vec<(usize, OpOutcome)> = if workers == 1 {
            let mut results = Vec::with_capacity(ops.len());
            for (s, memory) in self.shards.iter_mut().enumerate() {
                apply_queue(&plan, s, memory, queues.take(s).into_iter(), &mut results);
            }
            results
        } else {
            let chunk = shard_count.div_ceil(workers);
            let mut per_shard: Vec<std::collections::VecDeque<(usize, &Op)>> =
                (0..shard_count).map(|s| queues.take(s)).collect();
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (w, (memories, queue_chunk)) in self
                    .shards
                    .chunks_mut(chunk)
                    .zip(per_shard.chunks_mut(chunk))
                    .enumerate()
                {
                    let base = w * chunk;
                    handles.push(scope.spawn(move || {
                        let mut results = Vec::new();
                        for (offset, (memory, queue)) in
                            memories.iter_mut().zip(queue_chunk.iter_mut()).enumerate()
                        {
                            apply_queue(
                                &plan,
                                base + offset,
                                memory,
                                queue.drain(..),
                                &mut results,
                            );
                        }
                        results
                    }));
                }
                let mut results = Vec::with_capacity(ops.len());
                for handle in handles {
                    match handle.join() {
                        Ok(part) => results.extend(part),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
                results
            })
        };

        Self::scatter(ops.len(), results)
    }

    /// Runs a batch serially under a seeded cross-shard interleaving: each
    /// step services one request from a seeded-random non-empty shard
    /// queue. Exercises the same per-shard orderings as `run_batch` while
    /// making the cross-shard schedule an explicit, reproducible input —
    /// the stress suite sweeps seeds to prove final state is
    /// schedule-invariant.
    pub fn run_interleaved(&mut self, ops: &[Op], schedule_seed: u64) -> Vec<OpOutcome> {
        let mut queues = self.enqueue(ops);
        let mut schedule = InterleaveSchedule::new(schedule_seed);
        let mut results = Vec::with_capacity(ops.len());
        while let Some(shard) = schedule.next_shard(&queues) {
            if let Some((index, op)) = queues.pop(shard) {
                results.push((index, apply(&self.plan, shard, &mut self.shards[shard], op)));
            }
        }
        self.recombine();
        Self::scatter(ops.len(), results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn line_data(tag: u64) -> [u8; CACHELINE_BYTES] {
        let mut data = [0u8; CACHELINE_BYTES];
        data[..8].copy_from_slice(&tag.to_le_bytes());
        data
    }

    #[test]
    fn construction_surfaces_plan_errors() {
        assert_eq!(
            ShardedMemory::new(TreeConfig::morphtree(), MIB, [1; 16], 0).unwrap_err(),
            ShardError::ZeroShards
        );
        assert_eq!(
            ShardedMemory::new(TreeConfig::morphtree(), 63, [1; 16], 2).unwrap_err(),
            ShardError::UnalignedMemory { memory_bytes: 63 }
        );
    }

    #[test]
    fn write_read_roundtrip_across_shard_boundaries() {
        let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MIB, [7; 16], 4).unwrap();
        let lines = memory.plan().data_lines();
        let width = memory.plan().shard_lines(0);
        // First/last line of every shard, plus both sides of each boundary.
        let probes: Vec<u64> = (0..4)
            .flat_map(|s| {
                let base = s * width;
                [base, base + width - 1]
            })
            .filter(|&l| l < lines)
            .collect();
        for &line in &probes {
            memory.write(line, &line_data(line));
        }
        for &line in &probes {
            assert_eq!(memory.read(line).unwrap(), line_data(line), "line {line}");
        }
        memory.verify_all().unwrap();
    }

    #[test]
    fn shards_do_not_share_keystreams() {
        // Same plaintext at the same *local* address of two shards must
        // produce different ciphertext (per-shard key derivation).
        let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MIB, [7; 16], 2).unwrap();
        let width = memory.plan().shard_lines(0);
        memory.write(0, &line_data(99));
        memory.write(width, &line_data(99));
        let a = *memory.shard(0).data_store().get(0).unwrap();
        let b = *memory.shard(1).data_store().get(0).unwrap();
        assert_ne!(a, b, "shard keystreams must differ");
    }

    #[test]
    fn batch_outcomes_match_serial_routing_for_any_thread_count() {
        let ops: Vec<Op> = (0..200)
            .map(|i| {
                let line = (i * 37) % 1024;
                if i % 3 == 0 {
                    Op::Read { line }
                } else {
                    Op::Write { line, data: line_data(i) }
                }
            })
            .collect();
        let run = |threads: usize| {
            let mut memory =
                ShardedMemory::new(TreeConfig::morphtree(), MIB, [3; 16], 8).unwrap();
            let outcomes = memory.run_batch(&ops, threads);
            (outcomes, memory.combined_root())
        };
        let (base_outcomes, base_root) = run(1);
        for threads in [2, 4, 8, 13] {
            let (outcomes, root) = run(threads);
            assert_eq!(outcomes, base_outcomes, "{threads} threads");
            assert_eq!(root, base_root, "{threads} threads");
        }
    }

    #[test]
    fn a_batch_recombines_at_most_once() {
        let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MIB, [3; 16], 4).unwrap();
        let ops: Vec<Op> =
            (0..64).map(|i| Op::Write { line: i * 11 % 1024, data: line_data(i) }).collect();
        memory.run_batch(&ops, 4);
        assert_eq!(memory.recombines(), 1, "one coalesced recombine per batch");
        let reads: Vec<Op> = (0..16).map(|i| Op::Read { line: i * 11 % 1024 }).collect();
        memory.run_batch(&reads, 4);
        assert_eq!(memory.recombines(), 1, "a read-only batch recombines nothing");
    }

    #[test]
    fn combined_root_tracks_writes() {
        let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MIB, [3; 16], 4).unwrap();
        let before = memory.combined_root();
        memory.write(5000, &line_data(1));
        let after = memory.combined_root();
        assert_ne!(before, after, "a write must move the combined root");
        memory.write(5000, &line_data(1));
        assert_ne!(memory.combined_root(), after, "replayed write still bumps counters");
    }

    #[test]
    fn tamper_is_detected_with_global_coordinates() {
        let mut memory = ShardedMemory::new(TreeConfig::morphtree(), MIB, [9; 16], 4).unwrap();
        let line = memory.plan().shard_base(2) + 3; // third shard
        memory.write(line, &line_data(42));
        memory.tamper_raw(line, 10, 0xff).unwrap();
        let err = memory.read(line).unwrap_err();
        assert_eq!(err, IntegrityError::DataMac { line_addr: line * CACHELINE_BYTES as u64 });
        // Tampering a never-written line reports the global line index.
        let untouched = memory.plan().shard_base(3) + 1;
        assert_eq!(
            memory.tamper_mac(untouched, 1).unwrap_err(),
            TamperError::NeverWritten { data_line: untouched }
        );
    }

    #[test]
    fn interleaved_runs_agree_with_batch_runs() {
        let ops: Vec<Op> = (0..150)
            .map(|i| {
                let line = (i * 101) % 2048;
                if i % 4 == 0 {
                    Op::Read { line }
                } else {
                    Op::Write { line, data: line_data(i) }
                }
            })
            .collect();
        let mut batch = ShardedMemory::new(TreeConfig::morphtree(), MIB, [5; 16], 8).unwrap();
        let batch_out = batch.run_batch(&ops, 4);
        let batch_root = batch.combined_root();
        for seed in [1u64, 99, 12345] {
            let mut inter = ShardedMemory::new(TreeConfig::morphtree(), MIB, [5; 16], 8).unwrap();
            let out = inter.run_interleaved(&ops, seed);
            assert_eq!(out, batch_out, "seed {seed}");
            assert_eq!(inter.combined_root(), batch_root, "seed {seed}");
        }
    }
}
