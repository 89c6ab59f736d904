//! Crash-campaign driver: fault-injected kills against the epoch-bounded
//! sharded persistence layer ([`crate::persist::epoch`]).
//!
//! Where [`super::run_campaign`] proves *tamper* detection, this driver
//! proves *crash* correctness: it drives an [`EpochShardedMemory`] through
//! a seeded write-heavy workload and kills it at seeded byte offsets —
//! inside epochs, across epoch boundaries, and (via
//! [`EpochShardedMemory::interrupted_cut_state`]) between the per-shard
//! seals of a two-phase cut. Every kill point must recover to a consistent
//! epoch or a typed refusal, never a panic or silent divergence:
//!
//! - each recovered healthy shard is compared **byte-for-byte** against a
//!   serial oracle (the pre-epoch full-replay [`persist::recover`] path on
//!   the same truncated inputs);
//! - full-length-log drills additionally compare against the live engine
//!   state;
//! - mid-cut drills must be *detected* ([`ShardedRecovery::mid_cut`]) and
//!   resolved to the last consistent epoch;
//! - quarantine drills corrupt one shard's log and demand the shard
//!   refuses while the rest keep serving;
//! - the final clean-shutdown drill pins the constant-work guarantee
//!   (zero replayed transactions, zero verified lines).
//!
//! Recovery latency is measured per drill and summarized in the report —
//! the CI artifact that tracks bounded recovery staying bounded.
//!
//! [`ShardedRecovery::mid_cut`]: crate::persist::ShardedRecovery::mid_cut

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use crate::concurrent::{Op, SplitMix64};
use crate::error::ShardError;
use crate::persist::{
    self, parse_sharded, recover_sharded_bounded, EpochShardedMemory, RecoveryMode,
    RecoveryStats,
};
use crate::tree::TreeConfig;
use crate::CACHELINE_BYTES;

/// Parameters of a seeded crash campaign.
#[derive(Debug, Clone)]
pub struct CrashCampaignConfig {
    /// Seed of the deterministic kill-point stream.
    pub seed: u64,
    /// Kill drills to fire (spread over the workload's batches).
    pub kills: usize,
    /// Shards of the victim memory.
    pub shards: usize,
    /// Worker threads per batch.
    pub threads: usize,
    /// Epoch auto-cut threshold in ops (0 disables auto-cuts; the
    /// campaign still cuts once at the end).
    pub epoch_ops: u64,
    /// Batches in the workload.
    pub batches: usize,
    /// Ops per batch (write-heavy, seeded).
    pub batch_ops: usize,
    /// Protected-memory size of the victim.
    pub memory_bytes: u64,
    /// Working-set size in data lines.
    pub hot_lines: u64,
}

impl Default for CrashCampaignConfig {
    fn default() -> Self {
        CrashCampaignConfig {
            seed: 42,
            kills: 24,
            shards: 4,
            threads: 2,
            epoch_ops: 64,
            batches: 12,
            batch_ops: 32,
            memory_bytes: 1 << 20,
            hot_lines: 192,
        }
    }
}

/// Why a crash campaign could not run. Configuration errors only — drill
/// failures are reported in the [`CrashCampaignReport`], never here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashCampaignError {
    /// The shard partition is impossible.
    Shard(ShardError),
    /// The working set does not fit in the protected memory.
    WorkingSetTooLarge {
        /// The requested working-set size, in lines.
        requested: u64,
        /// Data lines available at this memory size.
        available: u64,
    },
    /// A zero-length workload cannot be drilled.
    EmptyWorkload,
}

impl fmt::Display for CrashCampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashCampaignError::Shard(e) => write!(f, "shard partition is unusable: {e}"),
            CrashCampaignError::WorkingSetTooLarge { requested, available } => {
                write!(f, "working set of {requested} lines exceeds the {available} available")
            }
            CrashCampaignError::EmptyWorkload => {
                write!(f, "campaign needs at least one batch with at least one op")
            }
        }
    }
}

impl Error for CrashCampaignError {}

impl From<ShardError> for CrashCampaignError {
    fn from(e: ShardError) -> Self {
        CrashCampaignError::Shard(e)
    }
}

/// Per-mode tally of shard recoveries across every drill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeTally {
    /// Shards recovered on the constant-work clean-shutdown path.
    pub clean: usize,
    /// Shards recovered on the bounded (open-epoch-only) path.
    pub bounded: usize,
    /// Shards that downgraded to full replay + full verification.
    pub full: usize,
}

impl ModeTally {
    fn record(&mut self, mode: RecoveryMode) {
        match mode {
            RecoveryMode::CleanShutdown => self.clean += 1,
            RecoveryMode::Bounded => self.bounded += 1,
            RecoveryMode::Full => self.full += 1,
        }
    }
}

/// The aggregated outcome of one [`run_crash_campaign`] call.
#[derive(Debug, Clone)]
pub struct CrashCampaignReport {
    config: String,
    seed: u64,
    shards: usize,
    threads: usize,
    epoch_ops: u64,
    /// Total drills executed: seeded kills (including the per-batch
    /// full-log drills and the final clean-shutdown drill), mid-cut
    /// crashes, and quarantine injections.
    pub drills: usize,
    /// Per-shard recovery-mode histogram over all drills.
    pub modes: ModeTally,
    /// Mid-cut (between-shard-seals) drills fired / detected.
    pub mid_cut_drills: usize,
    /// Mid-cut drills correctly flagged and resolved.
    pub mid_cut_detected: usize,
    /// Quarantine drills fired.
    pub quarantine_drills: usize,
    /// Quarantine drills where the bad shard refused and the rest served.
    pub quarantine_detected: usize,
    /// Recovered states that diverged from the serial oracle, recoveries
    /// that refused when they should not have, or violated invariants.
    pub divergences: usize,
    first_divergence: Option<String>,
    /// Epochs sealed by the workload.
    pub epochs_sealed: u64,
    /// Largest per-shard replayed-transaction count seen (bounded by the
    /// open epoch, never the history).
    pub max_replayed_txns: usize,
    /// Largest per-shard verified-line count on a non-full path.
    pub max_verified_lines: usize,
    latencies: Vec<Duration>,
}

impl CrashCampaignReport {
    fn new(config: &str, campaign: &CrashCampaignConfig) -> Self {
        CrashCampaignReport {
            config: config.to_string(),
            seed: campaign.seed,
            shards: campaign.shards,
            threads: campaign.threads,
            epoch_ops: campaign.epoch_ops,
            drills: 0,
            modes: ModeTally::default(),
            mid_cut_drills: 0,
            mid_cut_detected: 0,
            quarantine_drills: 0,
            quarantine_detected: 0,
            divergences: 0,
            first_divergence: None,
            epochs_sealed: 0,
            max_replayed_txns: 0,
            max_verified_lines: 0,
            latencies: Vec::new(),
        }
    }

    fn diverge(&mut self, what: String) {
        self.divergences += 1;
        if self.first_divergence.is_none() {
            self.first_divergence = Some(what);
        }
    }

    fn record_stats(&mut self, stats: &RecoveryStats) {
        self.modes.record(stats.mode);
        self.max_replayed_txns = self.max_replayed_txns.max(stats.replayed_txns);
        if stats.mode != RecoveryMode::Full {
            self.max_verified_lines = self.max_verified_lines.max(stats.verified_lines);
        }
    }

    /// The first oracle divergence or invariant violation, if any.
    #[must_use]
    pub fn first_divergence(&self) -> Option<&str> {
        self.first_divergence.as_deref()
    }

    /// True iff every drill recovered to oracle-identical state (or a
    /// typed refusal where one was demanded) and every mid-cut and
    /// quarantine drill was detected.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.divergences == 0
            && self.mid_cut_detected == self.mid_cut_drills
            && self.quarantine_detected == self.quarantine_drills
    }

    /// Recovery latencies `(min, mean, max)` across all timed drills.
    #[must_use]
    pub fn latency(&self) -> (Duration, Duration, Duration) {
        if self.latencies.is_empty() {
            return (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        }
        let min = self.latencies.iter().min().copied().unwrap_or(Duration::ZERO);
        let max = self.latencies.iter().max().copied().unwrap_or(Duration::ZERO);
        let total: Duration = self.latencies.iter().sum();
        (min, total / self.latencies.len() as u32, max)
    }

    /// Renders the campaign summary (the CI recovery-latency artifact).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crash campaign · {} · seed {} · {} shards x {} thread(s) · epoch {} ops\n",
            self.config, self.seed, self.shards, self.threads, self.epoch_ops
        ));
        out.push_str(&format!("  crash drills         {}\n", self.drills));
        out.push_str(&format!(
            "  shard recoveries     clean {} · bounded {} · full {}\n",
            self.modes.clean, self.modes.bounded, self.modes.full
        ));
        out.push_str(&format!(
            "  mid-cut drills       {}/{} detected\n",
            self.mid_cut_detected, self.mid_cut_drills
        ));
        out.push_str(&format!(
            "  quarantine drills    {}/{} detected\n",
            self.quarantine_detected, self.quarantine_drills
        ));
        out.push_str(&format!("  epochs sealed        {}\n", self.epochs_sealed));
        out.push_str(&format!(
            "  max replayed txns    {} · max verified lines {}\n",
            self.max_replayed_txns, self.max_verified_lines
        ));
        let (min, mean, max) = self.latency();
        out.push_str(&format!(
            "  recovery latency     min {:.1}us · mean {:.1}us · max {:.1}us\n",
            min.as_secs_f64() * 1e6,
            mean.as_secs_f64() * 1e6,
            max.as_secs_f64() * 1e6
        ));
        out.push_str(&format!("  divergences          {}\n", self.divergences));
        if let Some(first) = &self.first_divergence {
            out.push_str(&format!("  first divergence     {first}\n"));
        }
        out.push_str(&format!(
            "crash campaign result: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn random_payload(rng: &mut SplitMix64) -> [u8; CACHELINE_BYTES] {
    let mut payload = [0u8; CACHELINE_BYTES];
    for chunk in payload.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    payload
}

/// One kill drill: snapshot the durable `(container, WALs)` pair, cut
/// each shard's log at a seeded byte offset (or keep it whole), recover
/// bounded, and compare every healthy shard against the full-replay
/// oracle on the same inputs. `live` carries the live shard states for
/// full-length drills.
fn drill_kill(
    mem: &EpochShardedMemory,
    rng: &mut SplitMix64,
    report: &mut CrashCampaignReport,
    truncate: bool,
) {
    let container = mem.sealed_container();
    let full_wals = mem.wals();
    let wals: Vec<Vec<u8>> = full_wals
        .iter()
        .map(|w| {
            let cut = if truncate { rng.below(w.len() as u64 + 1) as usize } else { w.len() };
            w[..cut].to_vec()
        })
        .collect();

    report.drills += 1;
    let start = Instant::now();
    let rec = recover_sharded_bounded(&container, &wals);
    report.latencies.push(start.elapsed());

    let rec = match rec {
        Ok(rec) => rec,
        Err(e) => {
            // The container is intact and a truncated WAL is a benign torn
            // tail: recovery must never refuse here.
            report.diverge(format!("recovery refused an intact kill point: {e}"));
            return;
        }
    };
    let Ok((_, _, sections)) = parse_sharded(&container) else {
        report.diverge("own container failed to parse".to_string());
        return;
    };
    for shard_rec in &rec.shards {
        let s = shard_rec.shard;
        match &shard_rec.outcome {
            Ok(stats) => {
                report.record_stats(stats);
                // Serial oracle: the pre-epoch full-replay path on the
                // same truncated inputs.
                match persist::recover(sections[s], &wals[s]) {
                    Ok(oracle) => {
                        if persist::save_memory(rec.memory.shard(s))
                            != persist::save_memory(&oracle)
                        {
                            report.diverge(format!(
                                "shard {s}: bounded recovery diverged from the full-replay oracle"
                            ));
                        } else if !truncate
                            && persist::save_memory(rec.memory.shard(s))
                                != persist::save_memory(mem.memory().shard(s))
                        {
                            report.diverge(format!(
                                "shard {s}: full-log recovery diverged from the live state"
                            ));
                        }
                    }
                    Err(e) => report.diverge(format!(
                        "shard {s}: oracle refused what bounded recovery accepted: {e}"
                    )),
                }
            }
            Err(e) => {
                report.diverge(format!("shard {s}: quarantined at a benign kill point: {e}"));
            }
        }
    }
}

/// One mid-cut drill: stage a crash between the per-shard seals of the
/// next cut and demand it is detected and resolved consistently.
fn drill_mid_cut(
    mem: &EpochShardedMemory,
    report: &mut CrashCampaignReport,
    prepared: usize,
    committed: usize,
) {
    let (container, wals) = mem.interrupted_cut_state(prepared, committed);
    report.mid_cut_drills += 1;
    report.drills += 1;
    let start = Instant::now();
    let rec = recover_sharded_bounded(&container, &wals);
    report.latencies.push(start.elapsed());
    let rec = match rec {
        Ok(rec) => rec,
        Err(e) => {
            report.diverge(format!(
                "mid-cut (prepared {prepared}, committed {committed}) refused: {e}"
            ));
            return;
        }
    };
    for shard_rec in &rec.shards {
        if let Ok(stats) = &shard_rec.outcome {
            report.record_stats(stats);
        }
    }
    let epoch = mem.epoch();
    let resolved_ok = rec.resolved_epoch == epoch || rec.resolved_epoch == epoch + 1;
    let healthy_ok =
        rec.memory.healthy_shards() == mem.plan().shards() && rec.memory.verify_healthy().is_ok();
    if rec.mid_cut && resolved_ok && healthy_ok {
        report.mid_cut_detected += 1;
    } else {
        report.diverge(format!(
            "mid-cut (prepared {prepared}, committed {committed}): flagged {}, resolved {}, healthy {}",
            rec.mid_cut,
            rec.resolved_epoch,
            rec.memory.healthy_shards()
        ));
    }
}

/// One quarantine drill: corrupt a complete record in `victim`'s log and
/// demand that shard refuses while every other shard keeps serving. A
/// one-shard memory has nothing left to serve, so there recovery must
/// refuse as a whole, with the shard's typed error.
fn drill_quarantine(mem: &EpochShardedMemory, report: &mut CrashCampaignReport, victim: usize) {
    let container = mem.sealed_container();
    let mut wals = mem.wals();
    // Byte 6 sits inside the first (seal) record's payload: the frame CRC
    // fails on a *complete* record, which is corruption, not a torn tail.
    wals[victim][6] ^= 0xff;

    report.quarantine_drills += 1;
    report.drills += 1;
    let start = Instant::now();
    let rec = recover_sharded_bounded(&container, &wals);
    report.latencies.push(start.elapsed());
    if mem.plan().shards() == 1 {
        match rec {
            Err(_) => report.quarantine_detected += 1,
            Ok(_) => report.diverge("quarantine drill on the only shard recovered".into()),
        }
        return;
    }
    let rec = match rec {
        Ok(rec) => rec,
        Err(e) => {
            report.diverge(format!("quarantine drill on shard {victim} hard-failed: {e}"));
            return;
        }
    };
    let refused = rec.memory.is_quarantined(victim)
        && rec.memory.read(mem.plan().shard_base(victim)).is_err();
    let serving = (0..mem.plan().shards())
        .filter(|&s| s != victim)
        .all(|s| !rec.memory.is_quarantined(s) && rec.memory.shard(s).verify_all().is_ok());
    if refused && serving {
        report.quarantine_detected += 1;
    } else {
        report.diverge(format!(
            "quarantine drill on shard {victim}: refused {refused}, others serving {serving}"
        ));
    }
}

/// Runs a seeded crash campaign against `tree` (see the module docs for
/// the drill taxonomy).
///
/// # Errors
///
/// Returns [`CrashCampaignError`] when the campaign is misconfigured —
/// never because a drill failed; drill failures are divergences in the
/// [`CrashCampaignReport`].
pub fn run_crash_campaign(
    tree: &TreeConfig,
    campaign: &CrashCampaignConfig,
) -> Result<CrashCampaignReport, CrashCampaignError> {
    if campaign.batches == 0 || campaign.batch_ops == 0 || campaign.hot_lines == 0 {
        return Err(CrashCampaignError::EmptyWorkload);
    }
    let mut rng = SplitMix64::new(campaign.seed);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());

    let mut mem = EpochShardedMemory::new(
        tree.clone(),
        campaign.memory_bytes,
        key,
        campaign.shards,
        campaign.epoch_ops,
    )?;
    let available = mem.plan().data_lines();
    if campaign.hot_lines > available {
        return Err(CrashCampaignError::WorkingSetTooLarge {
            requested: campaign.hot_lines,
            available,
        });
    }

    // Spread the kill points over the workload up front, so the drill
    // schedule is a pure function of the seed.
    let mut kills_at = vec![0usize; campaign.batches];
    for _ in 0..campaign.kills {
        let at = rng.below(campaign.batches as u64) as usize;
        kills_at[at] += 1;
    }

    let mut report = CrashCampaignReport::new(tree.name(), campaign);
    for &batch_kills in &kills_at {
        let ops: Vec<Op> = (0..campaign.batch_ops)
            .map(|_| {
                let line = rng.below(campaign.hot_lines);
                if rng.below(8) == 0 {
                    Op::Read { line }
                } else {
                    Op::Write { line, data: random_payload(&mut rng) }
                }
            })
            .collect();
        mem.run_batch(&ops, campaign.threads.max(1));
        if batch_kills > 0 {
            // One full-log drill pins live-state equality; the rest kill
            // at seeded byte offsets.
            drill_kill(&mem, &mut rng, &mut report, false);
            for _ in 1..batch_kills {
                drill_kill(&mem, &mut rng, &mut report, true);
            }
        }
    }

    // Crashes inside the two-phase cut: after phase one reached `prepared`
    // shards, and mid phase two after `committed` commit seals.
    for prepared in 1..=campaign.shards {
        drill_mid_cut(&mem, &mut report, prepared, 0);
    }
    for committed in 1..campaign.shards {
        drill_mid_cut(&mem, &mut report, campaign.shards, committed);
    }

    // One quarantine drill per shard.
    for victim in 0..campaign.shards {
        drill_quarantine(&mem, &mut report, victim);
    }

    // Final cut, then the clean-shutdown drill: constant work, state
    // byte-identical to the live engine.
    mem.cut();
    report.epochs_sealed = mem.epoch();
    let container = mem.sealed_container();
    let wals = mem.wals();
    report.drills += 1;
    let start = Instant::now();
    match recover_sharded_bounded(&container, &wals) {
        Ok(rec) => {
            report.latencies.push(start.elapsed());
            for shard_rec in &rec.shards {
                match &shard_rec.outcome {
                    Ok(stats) => {
                        report.record_stats(stats);
                        if stats.mode != RecoveryMode::CleanShutdown
                            || stats.replayed_txns != 0
                            || stats.verified_lines != 0
                        {
                            report.diverge(format!(
                                "shard {}: clean shutdown did non-constant work ({} txns, {} lines)",
                                shard_rec.shard, stats.replayed_txns, stats.verified_lines
                            ));
                        }
                    }
                    Err(e) => report
                        .diverge(format!("shard {} failed clean shutdown: {e}", shard_rec.shard)),
                }
            }
            for s in 0..campaign.shards {
                if persist::save_memory(rec.memory.shard(s))
                    != persist::save_memory(mem.memory().shard(s))
                {
                    report.diverge(format!("shard {s}: clean shutdown diverged from live state"));
                }
            }
        }
        Err(e) => {
            report.latencies.push(start.elapsed());
            report.diverge(format!("clean shutdown refused: {e}"));
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CrashCampaignConfig {
        CrashCampaignConfig {
            kills: 8,
            shards: 3,
            threads: 2,
            epoch_ops: 48,
            batches: 6,
            batch_ops: 24,
            hot_lines: 96,
            ..CrashCampaignConfig::default()
        }
    }

    #[test]
    fn crash_campaign_passes_on_morphtree() {
        let report = run_crash_campaign(&TreeConfig::morphtree(), &quick()).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.drills > 8, "kill + mid-cut + quarantine + clean drills");
        assert!(report.epochs_sealed >= 2, "auto-cuts must fire: {}", report.render());
        assert!(report.modes.clean >= 3, "the final drill is clean per shard");
    }

    #[test]
    fn crash_campaign_is_deterministic_modulo_latency() {
        let a = run_crash_campaign(&TreeConfig::morphtree(), &quick()).unwrap();
        let b = run_crash_campaign(&TreeConfig::morphtree(), &quick()).unwrap();
        assert_eq!(a.modes, b.modes);
        assert_eq!(a.drills, b.drills);
        assert_eq!(a.divergences, b.divergences);
        assert_eq!(a.max_replayed_txns, b.max_replayed_txns);
        assert_eq!(a.max_verified_lines, b.max_verified_lines);
    }

    #[test]
    fn crash_campaign_runs_on_every_sweep_config() {
        for (key, tree) in super::super::campaign_configs() {
            let small = CrashCampaignConfig {
                kills: 4,
                shards: 2,
                batches: 3,
                epoch_ops: 32,
                ..quick()
            };
            let report = run_crash_campaign(&tree, &small).unwrap();
            assert!(report.passed(), "{key}: {}", report.render());
        }
    }

    /// One shard is `serve`'s default layout: quarantining it leaves
    /// nothing to serve, so the drill passes when recovery refuses.
    #[test]
    fn crash_campaign_passes_on_one_shard() {
        let one = CrashCampaignConfig { shards: 1, ..quick() };
        let report = run_crash_campaign(&TreeConfig::morphtree(), &one).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.quarantine_drills, 1);
        assert_eq!(report.quarantine_detected, 1);
    }

    #[test]
    fn misconfigured_campaigns_fail_typed() {
        let tree = TreeConfig::morphtree();
        let no_work = CrashCampaignConfig { batches: 0, ..quick() };
        assert_eq!(
            run_crash_campaign(&tree, &no_work).unwrap_err(),
            CrashCampaignError::EmptyWorkload
        );
        let huge = CrashCampaignConfig { hot_lines: u64::MAX, ..quick() };
        assert!(matches!(
            run_crash_campaign(&tree, &huge).unwrap_err(),
            CrashCampaignError::WorkingSetTooLarge { .. }
        ));
        let bad_shards = CrashCampaignConfig { shards: 0, ..quick() };
        assert!(matches!(
            run_crash_campaign(&tree, &bad_shards).unwrap_err(),
            CrashCampaignError::Shard(_)
        ));
    }

    #[test]
    fn report_renders_latency_and_verdict() {
        let report = run_crash_campaign(&TreeConfig::morphtree(), &quick()).unwrap();
        let table = report.render();
        assert!(table.contains("recovery latency"), "{table}");
        assert!(table.contains("crash campaign result: PASS"), "{table}");
        assert!(!table.contains("first divergence"), "{table}");
    }
}
