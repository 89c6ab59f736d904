//! Adversary engine: seeded, deterministic fault-injection campaigns
//! against the functional secure memory (§V of the paper).
//!
//! The paper's security argument is that *every* tamper or replay of
//! off-chip state — data ciphertext, data MACs, counter lines at any tree
//! level — is detected on the next verified read. This module turns that
//! claim into an enumerable, randomized test harness:
//!
//! - [`AttackClass`] is the taxonomy of attacks physical access to DRAM
//!   permits against a counter-mode secure memory;
//! - [`run_campaign`] fires `N` seeded attacks against a prepared victim
//!   state (cloning the victim per attack, so attacks never contaminate
//!   each other) and checks each is detected with the *correct*
//!   [`IntegrityError`] location;
//! - [`CampaignReport`] aggregates per-class detection counts and renders
//!   the summary table shown by `morphtree attack`.
//!
//! Determinism: the only randomness is an in-module SplitMix64 stream
//! seeded by [`CampaignConfig::seed`]; no `HashMap` iteration order leaks
//! into attack selection, so a fixed `(config, seed, count)` triple always
//! produces a byte-identical report.
//!
//! # Example
//!
//! ```
//! use morphtree_core::attack::{run_campaign, CampaignConfig};
//! use morphtree_core::tree::TreeConfig;
//!
//! let campaign = CampaignConfig { count: 16, ..CampaignConfig::default() };
//! let report = run_campaign(&TreeConfig::sc64(), &campaign).unwrap();
//! assert!(report.all_detected());
//! ```

pub mod crash;

pub use crash::{
    run_crash_campaign, CrashCampaignConfig, CrashCampaignError, CrashCampaignReport,
};

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use crate::concurrent::SplitMix64;
use crate::error::{IntegrityError, TamperError};
use crate::functional::SecureMemory;
use crate::persist::{self, EpochMemory, RecoveryError};
use crate::tree::{TreeConfig, TreeGeometry};
use crate::CACHELINE_BYTES;

/// The attack taxonomy: every way an adversary with physical access to
/// DRAM can perturb the off-chip state of a counter-mode secure memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackClass {
    /// Flip a single bit of a data line's stored ciphertext.
    DataBitFlip,
    /// Flip bits of a data line's stored MAC.
    DataMacFlip,
    /// Flip bits of a counter line's stored MAC, at a random tree level.
    CounterMacFlip,
    /// Change a counter *value* on the victim's path, at a random tree
    /// level — caught at the child the counter keys (the data MAC for
    /// level 0).
    ParentCounterTamper,
    /// Record a `{ciphertext, MAC, counter line}` tuple, let the victim
    /// overwrite the line, then restore the stale-but-self-consistent
    /// tuple.
    StaleReplay,
    /// Swap the `{ciphertext, MAC}` tuples of two data lines: each is
    /// individually authentic but bound to the wrong address.
    CrossLineSplice,
    /// Hammer one line to a counter-overflow re-encryption boundary, then
    /// tamper its freshly re-written level-0 counter.
    OverflowBoundary,
    /// Tamper the persisted snapshot image, crash the WAL writer at a
    /// random byte offset, and let recovery replay the torn log: the
    /// tamper must surface as a typed integrity error, from recovery
    /// itself or from the first read of the tampered line, never serve
    /// silently.
    CrashRecovery,
}

impl AttackClass {
    /// Every attack class, in campaign round-robin order.
    pub const ALL: [AttackClass; 8] = [
        AttackClass::DataBitFlip,
        AttackClass::DataMacFlip,
        AttackClass::CounterMacFlip,
        AttackClass::ParentCounterTamper,
        AttackClass::StaleReplay,
        AttackClass::CrossLineSplice,
        AttackClass::OverflowBoundary,
        AttackClass::CrashRecovery,
    ];

    /// Stable kebab-case identifier (used in reports and CI logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::DataBitFlip => "data-bit-flip",
            AttackClass::DataMacFlip => "data-mac-flip",
            AttackClass::CounterMacFlip => "counter-mac-flip",
            AttackClass::ParentCounterTamper => "parent-counter-tamper",
            AttackClass::StaleReplay => "stale-replay",
            AttackClass::CrossLineSplice => "cross-line-splice",
            AttackClass::OverflowBoundary => "overflow-boundary",
            AttackClass::CrashRecovery => "crash-recovery",
        }
    }
}

impl fmt::Display for AttackClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parameters of a seeded attack campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed of the deterministic attack stream.
    pub seed: u64,
    /// Number of attacks to fire (round-robin over [`AttackClass::ALL`]).
    pub count: usize,
    /// Protected-memory size of the victim (must give the tree at least
    /// one off-chip level).
    pub memory_bytes: u64,
    /// Number of data lines the victim writes before the campaign starts;
    /// attacks target this working set. Must be at least 2 (the splice
    /// attack needs two distinct lines).
    pub working_lines: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { seed: 42, count: 100, memory_bytes: 1 << 20, working_lines: 96 }
    }
}

/// Why a campaign could not run. These are harness configuration errors —
/// a completed campaign reports detection misses in its
/// [`CampaignReport`], never through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The tree has no off-chip counter level to attack (the root is
    /// on-chip and trusted, so a height-0 tree offers no counter target).
    TreeTooShallow {
        /// Display name of the offending configuration.
        config: String,
    },
    /// `working_lines < 2`: the cross-line splice needs two victims.
    WorkingSetTooSmall {
        /// The requested working-set size.
        requested: u64,
    },
    /// The working set does not fit in the protected memory.
    WorkingSetTooLarge {
        /// The requested working-set size, in lines.
        requested: u64,
        /// Data lines available at this memory size.
        available: u64,
    },
    /// An adversary hook refused an attack — a campaign-runner bug, since
    /// the runner only targets state it has itself prepared.
    Tamper(TamperError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::TreeTooShallow { config } => {
                write!(f, "tree for {config} has no off-chip level to attack")
            }
            CampaignError::WorkingSetTooSmall { requested } => {
                write!(f, "working set of {requested} lines is too small (need at least 2)")
            }
            CampaignError::WorkingSetTooLarge { requested, available } => {
                write!(
                    f,
                    "working set of {requested} lines exceeds the {available} available"
                )
            }
            CampaignError::Tamper(e) => write!(f, "attack could not be mounted: {e}"),
        }
    }
}

impl Error for CampaignError {}

impl From<TamperError> for CampaignError {
    fn from(e: TamperError) -> Self {
        CampaignError::Tamper(e)
    }
}

/// Per-class tally of a finished campaign.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// Attacks of this class fired.
    pub attempts: usize,
    /// Attacks detected (the next read returned *some* [`IntegrityError`]).
    pub detected: usize,
    /// Attacks detected at the *expected* location (error variant, level
    /// and line all match the keyed-child prediction).
    pub located: usize,
    /// Tree levels this class exercised (empty for data-only attacks).
    pub levels: BTreeSet<usize>,
    first_miss: Option<String>,
}

/// The aggregated outcome of one [`run_campaign`] call.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    config: String,
    seed: u64,
    count: usize,
    classes: Vec<(AttackClass, ClassReport)>,
}

impl CampaignReport {
    fn new(config: &str, campaign: &CampaignConfig) -> Self {
        CampaignReport {
            config: config.to_string(),
            seed: campaign.seed,
            count: campaign.count,
            classes: AttackClass::ALL
                .iter()
                .map(|&c| (c, ClassReport::default()))
                .collect(),
        }
    }

    fn record(&mut self, outcome: &AttackOutcome) {
        // `classes` is built from ALL, so the class is always present.
        let Some((_, tally)) = self.classes.iter_mut().find(|(c, _)| *c == outcome.class)
        else {
            return;
        };
        tally.attempts += 1;
        if let Some(level) = outcome.level {
            tally.levels.insert(level);
        }
        match &outcome.observed {
            Some(err) if *err == outcome.expected => {
                tally.detected += 1;
                tally.located += 1;
            }
            Some(err) => {
                tally.detected += 1;
                if tally.first_miss.is_none() {
                    tally.first_miss =
                        Some(format!("expected {}, detected as {err}", outcome.expected));
                }
            }
            None => {
                if tally.first_miss.is_none() {
                    tally.first_miss =
                        Some(format!("UNDETECTED (expected {})", outcome.expected));
                }
            }
        }
    }

    /// Display name of the attacked configuration.
    #[must_use]
    pub fn config_name(&self) -> &str {
        &self.config
    }

    /// The per-class tallies, in [`AttackClass::ALL`] order.
    #[must_use]
    pub fn classes(&self) -> &[(AttackClass, ClassReport)] {
        &self.classes
    }

    /// Total attacks fired.
    #[must_use]
    pub fn total_attempts(&self) -> usize {
        self.classes.iter().map(|(_, t)| t.attempts).sum()
    }

    /// Total attacks detected.
    #[must_use]
    pub fn total_detected(&self) -> usize {
        self.classes.iter().map(|(_, t)| t.detected).sum()
    }

    /// Total attacks detected at the exact predicted location.
    #[must_use]
    pub fn total_located(&self) -> usize {
        self.classes.iter().map(|(_, t)| t.located).sum()
    }

    /// True iff every fired attack was detected at its predicted location.
    #[must_use]
    pub fn all_detected(&self) -> bool {
        self.total_attempts() == self.count
            && self
                .classes
                .iter()
                .all(|(_, t)| t.detected == t.attempts && t.located == t.attempts)
    }

    /// The first detection miss, if any — for diagnostics.
    #[must_use]
    pub fn first_miss(&self) -> Option<&str> {
        self.classes
            .iter()
            .find_map(|(_, t)| t.first_miss.as_deref())
    }

    /// Renders the campaign summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "attack campaign · {} · seed {} · {} attacks\n",
            self.config, self.seed, self.count
        ));
        out.push_str(&format!(
            "  {:<22} {:>8} {:>9} {:>8}  {}\n",
            "class", "attempts", "detected", "located", "levels"
        ));
        for (class, tally) in &self.classes {
            let levels = if tally.levels.is_empty() {
                "-".to_string()
            } else {
                tally
                    .levels
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "  {:<22} {:>8} {:>9} {:>8}  {}\n",
                class.name(),
                tally.attempts,
                tally.detected,
                tally.located,
                levels
            ));
            if let Some(miss) = &tally.first_miss {
                out.push_str(&format!("  {:<22} first miss: {miss}\n", ""));
            }
        }
        out.push_str(&format!(
            "  {:<22} {:>8} {:>9} {:>8}\n",
            "total",
            self.total_attempts(),
            self.total_detected(),
            self.total_located()
        ));
        out
    }
}

/// The five tree configurations the ISSUE-level campaign sweeps, keyed by
/// their CLI short names.
#[must_use]
pub fn campaign_configs() -> Vec<(&'static str, TreeConfig)> {
    vec![
        ("sc64", TreeConfig::sc64()),
        ("vault", TreeConfig::vault()),
        ("zcc", TreeConfig::morphtree_zcc_only()),
        ("mcr", TreeConfig::morphtree_single_base()),
        ("morphtree", TreeConfig::morphtree()),
    ]
}

/// Runs a seeded attack campaign against `tree` and tallies detection.
///
/// The victim writes [`CampaignConfig::working_lines`] random lines, then
/// the runner fires [`CampaignConfig::count`] attacks round-robin over
/// [`AttackClass::ALL`], each against a fresh clone of the victim state.
/// Counter-targeting classes additionally cycle over every off-chip tree
/// level, so a campaign of at least `8 * top_level` attacks provably
/// touches every `(class, level)` pair.
///
/// # Errors
///
/// Returns [`CampaignError`] when the campaign is misconfigured (tree too
/// shallow, working set too small or too large) — never because an attack
/// went undetected; detection misses are reported in the
/// [`CampaignReport`].
pub fn run_campaign(
    tree: &TreeConfig,
    campaign: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    if campaign.working_lines < 2 {
        return Err(CampaignError::WorkingSetTooSmall { requested: campaign.working_lines });
    }
    let mut rng = SplitMix64::new(campaign.seed);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
    key[8..].copy_from_slice(&rng.next_u64().to_le_bytes());

    let mut victim = SecureMemory::new(tree.clone(), campaign.memory_bytes, key);
    let available = victim.geometry().data_lines();
    if campaign.working_lines > available {
        return Err(CampaignError::WorkingSetTooLarge {
            requested: campaign.working_lines,
            available,
        });
    }
    let top = victim.geometry().top_level();
    if top == 0 {
        return Err(CampaignError::TreeTooShallow { config: tree.name().to_string() });
    }

    for line in 0..campaign.working_lines {
        victim.write(line, &random_payload(&mut rng));
    }

    let mut report = CampaignReport::new(tree.name(), campaign);
    for n in 0..campaign.count {
        let class = AttackClass::ALL[n % AttackClass::ALL.len()];
        let outcome = mount(&victim, class, n, campaign, &mut rng)?;
        report.record(&outcome);
    }
    Ok(report)
}

struct AttackOutcome {
    class: AttackClass,
    /// Tree level the attack targeted, for counter-directed classes.
    level: Option<usize>,
    expected: IntegrityError,
    observed: Option<IntegrityError>,
}

/// The victim's covering counter line at `level`: returns
/// `(line_idx, slot, child_idx)` where `slot` is the counter on the
/// victim's path and `child_idx` is the level-`level - 1` line it keys
/// (the data line itself for level 0).
fn covering(geom: &TreeGeometry, level: usize, data_line: u64) -> (u64, usize, u64) {
    let mut child = data_line;
    for l in 0..level {
        child = geom.parent_of(l, child).0;
    }
    let (line_idx, slot) = geom.parent_of(level, child);
    (line_idx, slot, child)
}

fn random_payload(rng: &mut SplitMix64) -> [u8; CACHELINE_BYTES] {
    let mut payload = [0u8; CACHELINE_BYTES];
    for chunk in payload.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    payload
}

fn nonzero_u64(rng: &mut SplitMix64) -> u64 {
    let mask = rng.next_u64();
    if mask == 0 { 1 } else { mask }
}

/// Mounts one attack against a fresh clone of the prepared victim and
/// observes the next verified read of the victim line.
fn mount(
    base: &SecureMemory,
    class: AttackClass,
    n: usize,
    campaign: &CampaignConfig,
    rng: &mut SplitMix64,
) -> Result<AttackOutcome, CampaignError> {
    let mut m = base.clone();
    let lines = campaign.working_lines;
    let victim_line = rng.below(lines);
    let victim_addr = victim_line * CACHELINE_BYTES as u64;
    let top = m.geometry().top_level();
    // Counter-directed classes cycle deterministically over every off-chip
    // level as the round-robin wraps, so long campaigns cover all levels.
    let cycled_level = (n / AttackClass::ALL.len()) % top;

    let mut level = None;
    let expected = match class {
        AttackClass::DataBitFlip => {
            let offset = rng.below(CACHELINE_BYTES as u64) as usize;
            let mask = 1u8 << rng.below(8);
            m.tamper_raw(victim_line, offset, mask)?;
            IntegrityError::DataMac { line_addr: victim_addr }
        }
        AttackClass::DataMacFlip => {
            let mask = nonzero_u64(rng);
            m.tamper_mac(victim_line, mask)?;
            IntegrityError::DataMac { line_addr: victim_addr }
        }
        AttackClass::CounterMacFlip => {
            level = Some(cycled_level);
            let (line_idx, _, _) = covering(m.geometry(), cycled_level, victim_line);
            let mask = nonzero_u64(rng);
            m.tamper_counter_mac(cycled_level, line_idx, mask)?;
            IntegrityError::CounterMac { level: cycled_level, line_idx }
        }
        AttackClass::ParentCounterTamper => {
            level = Some(cycled_level);
            let (line_idx, slot, child) = covering(m.geometry(), cycled_level, victim_line);
            m.tamper_counter_slot(cycled_level, line_idx, slot)?;
            if cycled_level == 0 {
                // Level-0 counters key the data MAC directly.
                IntegrityError::DataMac { line_addr: victim_addr }
            } else {
                // A level-L counter keys the MAC of its level-(L-1) child.
                IntegrityError::CounterMac { level: cycled_level - 1, line_idx: child }
            }
        }
        AttackClass::StaleReplay => {
            level = Some(0);
            let snap = m.snapshot(victim_line)?;
            let payload = random_payload(rng);
            m.write(victim_line, &payload); // the victim moves on …
            m.replay(snap); // … and the adversary rolls DRAM back.
            let (line_idx, _, _) = covering(m.geometry(), 0, victim_line);
            // The stale counter line fails its MAC: its parent advanced.
            IntegrityError::CounterMac { level: 0, line_idx }
        }
        AttackClass::CrossLineSplice => {
            let other = (victim_line + 1 + rng.below(lines - 1)) % lines;
            m.splice(victim_line, other)?;
            IntegrityError::DataMac { line_addr: victim_addr }
        }
        AttackClass::OverflowBoundary => {
            level = Some(0);
            // Hammer the victim line across a counter-overflow
            // re-encryption boundary (configs with wide minors may not
            // overflow within the cap; the tamper below is decisive either
            // way).
            let before = m.reencryptions();
            let mut writes = 0u32;
            while m.reencryptions() == before && writes < 600 {
                m.write(victim_line, &random_payload(rng));
                writes += 1;
            }
            let (line_idx, slot, _) = covering(m.geometry(), 0, victim_line);
            m.tamper_counter_slot(0, line_idx, slot)?;
            IntegrityError::DataMac { line_addr: victim_addr }
        }
        AttackClass::CrashRecovery => {
            // The adversary flips a ciphertext bit of the victim line,
            // snapshots the tampered image, then lets the machine journal
            // more writes — to a *different* line, so WAL replay cannot
            // heal the tamper — and crashes the writer at a random byte
            // offset of the log. The log opens with the snapshot's epoch-0
            // seal. A kill point inside that seal leaves recovery no anchor:
            // it replays the torn log and verifies the whole tree, so the
            // tamper fails recovery itself. Every later kill point anchors on
            // the seal and re-proves only the lines the suffix touched; the
            // tampered line loads and fails its first verified read, as it
            // would in DRAM.
            let offset = rng.below(CACHELINE_BYTES as u64) as usize;
            let mask = 1u8 << rng.below(8);
            m.tamper_raw(victim_line, offset, mask)?;
            let snapshot = persist::save_memory(&m);
            let other = (victim_line + 1 + rng.below(lines - 1)) % lines;
            let mut journaled = EpochMemory::from_memory(m, 0);
            for _ in 0..3 {
                journaled.write(other, &random_payload(rng));
            }
            let wal = journaled.wal_bytes();
            let cut = rng.below(wal.len() as u64 + 1) as usize;
            let observed = match persist::recover_bounded(&snapshot, &wal[..cut]) {
                Err(RecoveryError::Integrity(err)) => Some(err),
                // A recovered memory that then serves the victim line
                // (silent corruption) or a mis-typed error both count as
                // misses.
                Ok((recovered, _)) => recovered.read(victim_line).err(),
                Err(_) => None,
            };
            return Ok(AttackOutcome {
                class,
                level,
                expected: IntegrityError::DataMac { line_addr: victim_addr },
                observed,
            });
        }
    };
    let observed = m.read(victim_line).err();
    Ok(AttackOutcome { class, level, expected, observed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(count: usize) -> CampaignConfig {
        CampaignConfig { count, ..CampaignConfig::default() }
    }

    #[test]
    fn every_campaign_config_detects_every_class() {
        for (key, tree) in campaign_configs() {
            // 40 = 5 full round-robin laps over the 8 classes.
            let report = run_campaign(&tree, &quick(40)).unwrap();
            assert!(
                report.all_detected(),
                "{key}: {}\n{}",
                report.first_miss().unwrap_or("??"),
                report.render()
            );
            assert_eq!(report.total_attempts(), 40);
            for (_, tally) in report.classes() {
                assert!(tally.attempts == 5, "{key}: round-robin should be even");
            }
        }
    }

    #[test]
    fn counter_classes_cover_every_offchip_level() {
        let tree = TreeConfig::sgx(); // deepest tree at 1 MiB
        let campaign = quick(8 * 16);
        let report = run_campaign(&tree, &campaign).unwrap();
        let mem = SecureMemory::new(tree, campaign.memory_bytes, [0; 16]);
        let top = mem.geometry().top_level();
        assert!(top >= 2, "want a multi-level tree, got top {top}");
        let want: BTreeSet<usize> = (0..top).collect();
        for (class, tally) in report.classes() {
            if matches!(
                class,
                AttackClass::CounterMacFlip | AttackClass::ParentCounterTamper
            ) {
                assert_eq!(tally.levels, want, "{class} must cycle all levels");
            }
        }
        assert!(report.all_detected(), "{}", report.render());
    }

    #[test]
    fn campaigns_are_deterministic_for_a_fixed_seed() {
        let tree = TreeConfig::morphtree();
        let a = run_campaign(&tree, &quick(21)).unwrap();
        let b = run_campaign(&tree, &quick(21)).unwrap();
        assert_eq!(a.render(), b.render());
        let other_seed = CampaignConfig { seed: 7, count: 21, ..CampaignConfig::default() };
        let c = run_campaign(&tree, &other_seed).unwrap();
        assert!(c.all_detected());
    }

    #[test]
    fn misconfigured_campaigns_fail_with_typed_errors() {
        let tree = TreeConfig::sc64();
        let tiny = CampaignConfig { working_lines: 1, ..CampaignConfig::default() };
        assert_eq!(
            run_campaign(&tree, &tiny).unwrap_err(),
            CampaignError::WorkingSetTooSmall { requested: 1 }
        );
        let huge = CampaignConfig {
            working_lines: u64::MAX,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_campaign(&tree, &huge).unwrap_err(),
            CampaignError::WorkingSetTooLarge { .. }
        ));
        // 128 data lines under a 128-ary tree: the root is the only
        // counter level, and it is on-chip — nothing off-chip to attack.
        let shallow = CampaignConfig {
            memory_bytes: 128 * 64,
            working_lines: 2,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            run_campaign(&TreeConfig::morphtree(), &shallow).unwrap_err(),
            CampaignError::TreeTooShallow { .. }
        ));
    }

    #[test]
    fn report_renders_a_summary_table() {
        let report = run_campaign(&TreeConfig::sc64(), &quick(16)).unwrap();
        let table = report.render();
        assert!(table.contains("SC-64"), "{table}");
        for class in AttackClass::ALL {
            assert!(table.contains(class.name()), "{table}");
        }
        assert!(table.contains("total"), "{table}");
        assert!(!table.contains("first miss"), "{table}");
    }
}
