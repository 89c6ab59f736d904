//! Traffic accounting with the paper's Fig 16 categories, plus the
//! overflow instrumentation behind Fig 7/11/14.

use crate::obs::Histogram;

/// Number of bins in the "fraction of counter-cacheline used at overflow"
/// histogram (Fig 7).
pub const USED_FRACTION_BINS: usize = 32;

/// The traffic categories of Fig 5(b) / Fig 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessCategory {
    /// Program data.
    Data,
    /// Separately-stored MACs (Fig 20's unoptimized organization only).
    Mac,
    /// Encryption counters (`Ctr_Encr`).
    CtrEncr,
    /// Integrity-tree level 1 (`Ctr_1`).
    Ctr1,
    /// Integrity-tree level 2 (`Ctr_2`).
    Ctr2,
    /// Integrity-tree levels 3 and above (`Ctr_3 & Up`).
    Ctr3Up,
    /// Re-encryption / re-hash traffic caused by counter overflows.
    Overflow,
}

impl AccessCategory {
    /// All categories in Fig 16's stacking order.
    pub const ALL: [AccessCategory; 7] = [
        AccessCategory::Data,
        AccessCategory::Mac,
        AccessCategory::CtrEncr,
        AccessCategory::Ctr1,
        AccessCategory::Ctr2,
        AccessCategory::Ctr3Up,
        AccessCategory::Overflow,
    ];

    /// The category charged for a *demand* access to metadata level
    /// `level` (0 = encryption counters).
    #[must_use]
    pub fn for_level(level: usize) -> AccessCategory {
        match level {
            0 => AccessCategory::CtrEncr,
            1 => AccessCategory::Ctr1,
            2 => AccessCategory::Ctr2,
            _ => AccessCategory::Ctr3Up,
        }
    }

    /// Display label matching the paper's figure legends.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AccessCategory::Data => "Data",
            AccessCategory::Mac => "MAC",
            AccessCategory::CtrEncr => "Ctr_Encr",
            AccessCategory::Ctr1 => "Ctr_1",
            AccessCategory::Ctr2 => "Ctr_2",
            AccessCategory::Ctr3Up => "Ctr_3&Up",
            AccessCategory::Overflow => "Overflow",
        }
    }

    fn index(self) -> usize {
        match self {
            AccessCategory::Data => 0,
            AccessCategory::Mac => 1,
            AccessCategory::CtrEncr => 2,
            AccessCategory::Ctr1 => 3,
            AccessCategory::Ctr2 => 4,
            AccessCategory::Ctr3Up => 5,
            AccessCategory::Overflow => 6,
        }
    }
}

/// One memory access emitted by the metadata engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Physical address (line-aligned).
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Traffic category for Fig 16 accounting.
    pub category: AccessCategory,
    /// True when the access gates the return of the triggering data read
    /// (the data line itself plus its counter-fetch chain).
    pub critical: bool,
}

/// Aggregated engine statistics.
///
/// Derives `Eq` so the experiment layer's determinism tests can assert
/// that serial and parallel sweeps produce identical statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Demand data reads observed.
    pub data_reads: u64,
    /// Demand data writes observed.
    pub data_writes: u64,
    /// Memory reads per category.
    pub reads: [u64; 7],
    /// Memory writes per category.
    pub writes: [u64; 7],
    /// Counter overflows per metadata level (index 0 = encryption ctrs).
    pub overflows_by_level: Vec<u64>,
    /// MCR rebases per metadata level (overflows *avoided* by rebasing).
    pub rebases_by_level: Vec<u64>,
    /// Histogram of the fraction of the counter line in use when an
    /// overflow fired (Fig 7), pooled over levels.
    pub overflow_used_histogram: [u64; USED_FRACTION_BINS],
    /// Same histogram, but only for encryption-counter overflows.
    pub overflow_used_histogram_enc: [u64; USED_FRACTION_BINS],
    /// Overflow counts by [`crate::counters::OverflowKind`]: indexed
    /// FullReset, SetReset,
    /// BaseOverflow, ZccRewidthFailure, FormatSwitchReset.
    pub overflow_kinds: [u64; 5],
    /// Distribution of metadata-fetch chain depths: how many lines each
    /// cache-miss walk had to fetch before reaching a cached ancestor or
    /// the tree root. Depth 1 = the missing line's parent was cached.
    pub fetch_depths: Histogram,
    /// One-time-pad (counter-mode AES) operations implied by the traffic:
    /// one per data encrypt/decrypt and per overflow re-encryption.
    pub otp_ops: u64,
    /// MAC computations implied by the traffic: one per data access and
    /// per counter-line fetch-verify / writeback-recompute.
    pub mac_ops: u64,
    /// Batched MAC-verification groups: each cache-miss chain walk hands
    /// its fetched lines to the crypto unit as one batch, so
    /// `mac_ops / mac_batches` is the mean batch depth the hardware
    /// pipeline sees.
    pub mac_batches: u64,
}

impl EngineStats {
    /// Creates zeroed statistics for a tree with `levels` metadata levels.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        EngineStats {
            overflows_by_level: vec![0; levels],
            rebases_by_level: vec![0; levels],
            ..EngineStats::default()
        }
    }

    /// Records one emitted access, deriving the crypto work it implies.
    ///
    /// The crypto-op model (§III): every data access is decrypted or
    /// encrypted with a counter-mode one-time pad and MAC-verified; every
    /// counter-line access is MAC-verified on fetch (or re-MACed on
    /// writeback); overflow traffic re-encrypts and re-MACs a data line.
    /// Standalone MAC-line traffic carries no extra crypto — the MAC
    /// computation is already charged to the data access it belongs to.
    pub fn record(&mut self, access: &MemAccess) {
        let idx = access.category.index();
        if access.is_write {
            self.writes[idx] += 1;
        } else {
            self.reads[idx] += 1;
        }
        match access.category {
            AccessCategory::Data | AccessCategory::Overflow => {
                self.otp_ops += 1;
                self.mac_ops += 1;
            }
            AccessCategory::CtrEncr
            | AccessCategory::Ctr1
            | AccessCategory::Ctr2
            | AccessCategory::Ctr3Up => {
                self.mac_ops += 1;
            }
            AccessCategory::Mac => {}
        }
    }

    /// Records an overflow including its [`crate::counters::OverflowKind`].
    pub fn record_overflow_kind(
        &mut self,
        level: usize,
        used: usize,
        arity: usize,
        kind: crate::counters::OverflowKind,
    ) {
        use crate::counters::OverflowKind;
        let kind_idx = match kind {
            OverflowKind::FullReset => 0,
            OverflowKind::SetReset => 1,
            OverflowKind::BaseOverflow => 2,
            OverflowKind::ZccRewidthFailure => 3,
            OverflowKind::FormatSwitchReset => 4,
        };
        self.overflow_kinds[kind_idx] += 1;
        self.overflows_by_level[level] += 1;
        let bin = (used * USED_FRACTION_BINS / arity).min(USED_FRACTION_BINS - 1);
        self.overflow_used_histogram[bin] += 1;
        if level == 0 {
            self.overflow_used_histogram_enc[bin] += 1;
        }
    }

    /// Records a rebase (an avoided overflow) at `level`.
    pub fn record_rebase(&mut self, level: usize) {
        self.rebases_by_level[level] += 1;
    }

    /// Total accesses (reads + writes) in `category`.
    #[must_use]
    pub fn total(&self, category: AccessCategory) -> u64 {
        let idx = category.index();
        self.reads[idx] + self.writes[idx]
    }

    /// Total memory accesses across all categories.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Demand data accesses (reads + writes).
    #[must_use]
    pub fn data_accesses(&self) -> u64 {
        self.data_reads + self.data_writes
    }

    /// The paper's headline traffic metric: memory accesses per data
    /// access (Fig 5b / Fig 16). 1.0 means no metadata overhead.
    #[must_use]
    pub fn traffic_per_data_access(&self) -> f64 {
        if self.data_accesses() == 0 {
            return 0.0;
        }
        self.total_accesses() as f64 / self.data_accesses() as f64
    }

    /// Accesses in `category` per data access.
    #[must_use]
    pub fn category_per_data_access(&self, category: AccessCategory) -> f64 {
        if self.data_accesses() == 0 {
            return 0.0;
        }
        self.total(category) as f64 / self.data_accesses() as f64
    }

    /// Total counter overflows across levels.
    #[must_use]
    pub fn total_overflows(&self) -> u64 {
        self.overflows_by_level.iter().sum()
    }

    /// Overflows per million memory accesses (the y-axis of Fig 11/14).
    #[must_use]
    pub fn overflows_per_million_accesses(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.total_overflows() as f64 * 1.0e6 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::OverflowKind;

    #[test]
    fn category_for_level_matches_fig16_legend() {
        assert_eq!(AccessCategory::for_level(0), AccessCategory::CtrEncr);
        assert_eq!(AccessCategory::for_level(1), AccessCategory::Ctr1);
        assert_eq!(AccessCategory::for_level(2), AccessCategory::Ctr2);
        assert_eq!(AccessCategory::for_level(3), AccessCategory::Ctr3Up);
        assert_eq!(AccessCategory::for_level(9), AccessCategory::Ctr3Up);
    }

    #[test]
    fn record_and_ratios() {
        let mut s = EngineStats::new(3);
        s.data_reads = 2;
        s.data_writes = 0;
        for category in [AccessCategory::Data, AccessCategory::Data, AccessCategory::CtrEncr] {
            s.record(&MemAccess { addr: 0, is_write: false, category, critical: true });
        }
        assert_eq!(s.total(AccessCategory::Data), 2);
        assert_eq!(s.total_accesses(), 3);
        assert!((s.traffic_per_data_access() - 1.5).abs() < 1e-12);
        assert!((s.category_per_data_access(AccessCategory::CtrEncr) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overflow_histogram_bins() {
        let mut s = EngineStats::new(2);
        s.record_overflow_kind(0, 64, 64, OverflowKind::FullReset); // fully used -> last bin
        s.record_overflow_kind(1, 1, 64, OverflowKind::FullReset); // sparse -> first bin
        assert_eq!(s.overflow_used_histogram[USED_FRACTION_BINS - 1], 1);
        assert_eq!(s.overflow_used_histogram[0], 1);
        assert_eq!(s.overflow_used_histogram_enc[USED_FRACTION_BINS - 1], 1);
        assert_eq!(s.overflow_used_histogram_enc[0], 0);
        assert_eq!(s.total_overflows(), 2);
    }

    #[test]
    fn overflows_per_million() {
        let mut s = EngineStats::new(1);
        s.record_overflow_kind(0, 1, 64, OverflowKind::FullReset);
        for _ in 0..1000 {
            s.record(&MemAccess {
                addr: 0,
                is_write: false,
                category: AccessCategory::Data,
                critical: true,
            });
        }
        assert!((s.overflows_per_million_accesses() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn crypto_ops_follow_the_traffic_model() {
        let mut s = EngineStats::new(1);
        let acc = |category, is_write| MemAccess { addr: 0, is_write, category, critical: false };
        // Data: OTP + MAC. Counter levels: MAC only. MAC lines: nothing
        // (already charged with the data access). Overflow: OTP + MAC.
        s.record(&acc(AccessCategory::Data, false));
        assert_eq!((s.otp_ops, s.mac_ops), (1, 1));
        s.record(&acc(AccessCategory::CtrEncr, false));
        s.record(&acc(AccessCategory::Ctr3Up, true));
        assert_eq!((s.otp_ops, s.mac_ops), (1, 3));
        s.record(&acc(AccessCategory::Mac, false));
        assert_eq!((s.otp_ops, s.mac_ops), (1, 3));
        s.record(&acc(AccessCategory::Overflow, true));
        assert_eq!((s.otp_ops, s.mac_ops), (2, 4));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = EngineStats::new(0);
        assert_eq!(s.traffic_per_data_access(), 0.0);
        assert_eq!(s.overflows_per_million_accesses(), 0.0);
    }
}
