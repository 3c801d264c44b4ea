//! Work counters for the simulated device.
//!
//! Every quantity the paper's evaluation reports is a *ratio of counted
//! work* (iterations per selection, searches, transfers, kernel-time
//! imbalance). The samplers accumulate these counters per warp — no shared
//! atomics on the hot path — and the executor merges them.

use serde::{Deserialize, Serialize};

/// Cycles charged per dependent global-memory gather: a ~500-cycle HBM
/// round trip divided by the ~8 resident warps per SM that can hide each
/// other's stalls. This is the term that keeps low-degree graphs from
/// looking implausibly free on the simulated device.
pub const GATHER_LATENCY_CYCLES: u64 = 64;

macro_rules! sim_stats {
    (sim { $($sim:tt)* } launch { $($launch:tt)* } batch { $($batch:tt)* } $($_rest:tt)*) => {
        crate::counter_gen!(plain (
            /// Additive counters accumulated while simulating kernels (rows of
            /// the `sim`, `launch` and `batch` groups of the counter table).
            #[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
            pub struct SimStats {}
        ) { $($sim)* $($launch)* $($batch)* });
        crate::counter_gen!(merge (SimStats) { $($sim)* $($launch)* $($batch)* });

        impl SimStats {
            /// This stat set with the `batch` group zeroed: the depth-sync-only
            /// counters, the only ones allowed to differ between execution
            /// orders.
            pub fn without_batch(mut self) -> SimStats {
                crate::counter_gen!(reset (self) { $($batch)* });
                self
            }
        }
    };
}
crate::counter_table!(sim_stats);

impl SimStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one vertex-group of `size` co-located frontier entries in
    /// the group counters and the log2 size histogram.
    pub fn record_batch_group(&mut self, size: usize) {
        self.batch_groups += 1;
        self.batch_group_entries += size as u64;
        let bucket = (usize::BITS - 1 - size.max(1).leading_zeros()).min(7) as usize;
        self.batch_group_hist[bucket] += 1;
    }

    /// Average SELECT iterations per successful selection — the Fig. 11
    /// metric ("Total # iterations of sampled vertices / # sampled
    /// vertices").
    pub fn iterations_per_selection(&self) -> f64 {
        if self.selections == 0 {
            0.0
        } else {
            self.select_iterations as f64 / self.selections as f64
        }
    }

    /// Fraction of atomic operations that conflicted.
    pub fn atomic_conflict_rate(&self) -> f64 {
        if self.atomic_ops == 0 {
            0.0
        } else {
            self.atomic_conflicts as f64 / self.atomic_ops as f64
        }
    }

    /// Records a *dependent* global-memory gather of `bytes` bytes issued
    /// by a warp (e.g. fetching a neighbor list whose address was just
    /// computed), charging 128-byte coalesced transactions plus the
    /// occupancy-adjusted latency of one dependent round trip
    /// ([`GATHER_LATENCY_CYCLES`]). Sampling gathers chain — the next
    /// vertex isn't known until this one resolves — so unlike streaming
    /// loads this latency cannot be fully hidden.
    pub fn read_gmem(&mut self, bytes: usize) {
        self.gmem_bytes += bytes as u64;
        self.gmem_transactions += bytes.div_ceil(128) as u64;
        self.warp_cycles += GATHER_LATENCY_CYCLES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SimStats { warp_cycles: 3, selections: 1, ..Default::default() };
        let b = SimStats { warp_cycles: 4, select_iterations: 7, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.warp_cycles, 7);
        assert_eq!(a.select_iterations, 7);
        assert_eq!(a.selections, 1);
    }

    #[test]
    fn iterations_per_selection_handles_zero() {
        assert_eq!(SimStats::new().iterations_per_selection(), 0.0);
        let s = SimStats { select_iterations: 10, selections: 4, ..Default::default() };
        assert!((s.iterations_per_selection() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gmem_transactions_are_coalesced() {
        let mut s = SimStats::new();
        s.read_gmem(1); // 1 byte still costs a transaction
        s.read_gmem(128);
        s.read_gmem(129);
        assert_eq!(s.gmem_transactions, 1 + 1 + 2);
        assert_eq!(s.gmem_bytes, 258);
        assert_eq!(s.warp_cycles, 3 * GATHER_LATENCY_CYCLES, "one round trip per gather");
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            SimStats { selections: 1, ..Default::default() },
            SimStats { selections: 2, ..Default::default() },
        ];
        let total: SimStats = parts.into_iter().sum();
        assert_eq!(total.selections, 3);
    }

    #[test]
    fn batch_group_histogram_buckets_by_log2() {
        let mut s = SimStats::new();
        s.record_batch_group(1); // bucket 0
        s.record_batch_group(2); // bucket 1
        s.record_batch_group(3); // bucket 1
        s.record_batch_group(127); // bucket 6
        s.record_batch_group(128); // bucket 7
        s.record_batch_group(100_000); // clamped to bucket 7
        assert_eq!(s.batch_groups, 6);
        assert_eq!(s.batch_group_entries, 1 + 2 + 3 + 127 + 128 + 100_000);
        assert_eq!(s.batch_group_hist, [1, 2, 0, 0, 0, 0, 1, 2]);
        let mut t = SimStats::new();
        t.record_batch_group(4);
        t.merge(&s);
        assert_eq!(t.batch_group_hist, [1, 2, 1, 0, 0, 0, 1, 2]);
        assert_eq!(t.batch_groups, 7);
    }

    #[test]
    fn without_batch_zeroes_only_the_batch_group() {
        let mut s = SimStats { selections: 3, batch_prefetch_hits: 1, ..Default::default() };
        s.record_batch_group(5);
        let scrubbed = s.without_batch();
        assert_eq!(scrubbed, SimStats { selections: 3, ..Default::default() });
    }

    #[test]
    fn conflict_rate() {
        let s = SimStats { atomic_ops: 8, atomic_conflicts: 2, ..Default::default() };
        assert!((s.atomic_conflict_rate() - 0.25).abs() < 1e-12);
        assert_eq!(SimStats::new().atomic_conflict_rate(), 0.0);
    }
}
