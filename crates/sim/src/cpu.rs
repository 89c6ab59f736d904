//! Out-of-order core model (Table I: 4-wide fetch/retire, 192-entry ROB,
//! 3.2 GHz).
//!
//! The model captures the two ways memory latency throttles a core:
//!
//! 1. **Fetch bandwidth**: instructions are fetched/retired at most
//!    `width` per cycle, so `gap` non-memory instructions cost
//!    `gap / width` cycles.
//! 2. **ROB occupancy**: a load occupies a ROB entry until its data
//!    returns; when the ROB is full of instructions younger than an
//!    outstanding load, fetch stalls until that load completes. Memory
//!    writes retire immediately (posted through the write buffer), as in
//!    USIMM.
//!
//! Independent loads overlap freely within the ROB window, so memory-level
//! parallelism is bounded by `rob_size`, exactly as in the paper's setup.

use std::collections::VecDeque;

/// One core's architectural timing state.
#[derive(Debug, Clone)]
pub struct CoreModel {
    width: u64,
    rob_size: u64,
    /// Fetch progress in fractional cycles (instructions / width).
    fetch_cycle: f64,
    /// Instructions fetched so far.
    instructions: u64,
    /// Outstanding loads: (instruction number, completion cycle), in fetch
    /// order.
    inflight: VecDeque<(u64, u64)>,
    /// Latest completion among retired loads (lower bound on finish time).
    last_completion: u64,
}

impl CoreModel {
    /// Creates a core with the given fetch/retire width and ROB capacity.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `rob_size` is zero.
    #[must_use]
    pub fn new(width: u64, rob_size: u64) -> Self {
        assert!(width > 0 && rob_size > 0);
        CoreModel {
            width,
            rob_size,
            fetch_cycle: 0.0,
            instructions: 0,
            inflight: VecDeque::new(),
            last_completion: 0,
        }
    }

    /// Instructions fetched so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Current fetch cycle — the cycle at which the *next* instruction will
    /// be fetched (before any ROB stall).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.fetch_cycle as u64
    }

    /// Advances over `gap` non-memory instructions plus one memory
    /// instruction, applying the ROB-occupancy stall, and returns the cycle
    /// at which the memory instruction issues to the memory system.
    pub fn advance_to_mem_op(&mut self, gap: u32) -> u64 {
        self.instructions += u64::from(gap) + 1;
        self.fetch_cycle += (u64::from(gap) + 1) as f64 / self.width as f64;

        // ROB constraint: with the oldest incomplete load at `instr_no`,
        // the ROB holds `instructions - instr_no + 1` entries; fetching
        // beyond `rob_size` of them stalls until that load retires.
        while let Some(&(instr_no, completion)) = self.inflight.front() {
            if self.instructions >= instr_no + self.rob_size {
                // That load must have retired before this fetch: stall.
                if (completion as f64) > self.fetch_cycle {
                    self.fetch_cycle = completion as f64;
                }
                self.last_completion = self.last_completion.max(completion);
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        self.fetch_cycle as u64
    }

    /// Registers a load issued by [`CoreModel::advance_to_mem_op`] that will
    /// complete at `completion`.
    pub fn record_load(&mut self, completion: u64) {
        self.inflight.push_back((self.instructions, completion));
    }

    /// The cycle at which everything fetched so far has retired.
    #[must_use]
    pub fn finish_cycle(&self) -> u64 {
        let pending = self
            .inflight
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        (self.fetch_cycle.ceil() as u64)
            .max(pending)
            .max(self.last_completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_memory_instructions_run_at_full_width() {
        let mut core = CoreModel::new(4, 192);
        let issue = core.advance_to_mem_op(399); // 400 instrs @ width 4
        assert_eq!(issue, 100);
        assert_eq!(core.instructions(), 400);
    }

    #[test]
    fn independent_loads_overlap_within_the_rob() {
        let mut core = CoreModel::new(4, 192);
        // Two loads 4 instructions apart, each 200 cycles: they overlap.
        let i1 = core.advance_to_mem_op(3);
        core.record_load(i1 + 200);
        let i2 = core.advance_to_mem_op(3);
        core.record_load(i2 + 200);
        assert_eq!(i2, 2, "no stall for the second load");
        assert!(core.finish_cycle() <= i1 + 201 + 1);
    }

    #[test]
    fn rob_full_stalls_fetch() {
        let mut core = CoreModel::new(4, 8); // tiny ROB
        let i1 = core.advance_to_mem_op(0);
        core.record_load(i1 + 1000);
        // 8 more instructions exceed the ROB while the load is outstanding.
        let issue = core.advance_to_mem_op(7);
        assert!(issue >= 1000, "fetch stalled until the load returned: {issue}");
    }

    #[test]
    fn memory_latency_bounds_throughput_with_dependent_loads() {
        // A pointer chase: each load completes before the next fetch can
        // pass the ROB limit.
        let mut core = CoreModel::new(4, 4);
        for _ in 0..10 {
            let issue = core.advance_to_mem_op(3);
            core.record_load(issue + 300);
        }
        assert!(core.finish_cycle() >= 9 * 300, "latency-bound chain");
    }

    #[test]
    fn finish_cycle_includes_outstanding_loads() {
        let mut core = CoreModel::new(4, 192);
        let issue = core.advance_to_mem_op(0);
        core.record_load(issue + 500);
        assert!(core.finish_cycle() >= issue + 500);
    }

    #[test]
    fn ipc_reaches_width_without_memory() {
        let mut core = CoreModel::new(4, 192);
        for _ in 0..100 {
            let issue = core.advance_to_mem_op(999);
            core.record_load(issue); // zero-latency memory
        }
        let ipc = core.instructions() as f64 / core.finish_cycle() as f64;
        assert!((ipc - 4.0).abs() < 0.1, "ipc {ipc}");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_width() {
        let _ = CoreModel::new(0, 192);
    }
}
