//! Service observability: lock-free counters with a coherent snapshot.
//!
//! [`ServiceStats`] and its plain copy [`StatsSnapshot`] are generated
//! from the `service`, `launch`, `batch`, `cache` and `disk` groups of the
//! counter table (`csaw_gpu::counter_table!`). The table's `identities`
//! group is the service's accounting contract: at any idle point (queue
//! drained, no batch in flight) every identity in [`IDENTITIES`] holds,
//! and [`StatsSnapshot::fully_accounted`] checks exactly that list; the
//! test suite asserts it after every drain. Sampling, mutation, and
//! compact requests are all conservation-checked — a front end that
//! relays the ledger (the `/metrics` endpoint) can prove no request of
//! any kind was silently dropped.
//!
//! Queue-full sheds are additionally split per tenant
//! ([`ServiceStats::tenant_sheds`]): the global `rejected_queue_full`
//! is always the sum of the per-tenant counters (untagged requests
//! charge the empty label).

use csaw_core::ctps_cache::CacheSnapshot;
use csaw_core::residency::DiskTierStats;
use csaw_gpu::counters::Identity;
use csaw_gpu::stats::SimStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

pub use csaw_gpu::counters::BATCH_BUCKETS;

macro_rules! ledger {
    (sim $_s:tt launch { $($launch:tt)* } batch { $($batch:tt)* } service { $($own:tt)* }
     cache { $($cache:tt)* } disk { $($disk:tt)* } serve $_e:tt identities $ids:tt) => {
        csaw_gpu::counter_gen!(atomic (
            /// Monotonic counters updated by the admission path and the batcher
            /// (`cache` and `disk` rows are gauges the batcher republishes after
            /// every launch).
            #[derive(Debug, Default)]
            pub struct ServiceStats {
                /// Queue-full sheds split by tenant label (untagged requests charge
                /// the empty label). Off the hot path: touched only when a request
                /// is actually shed.
                tenant_sheds: Mutex<HashMap<String, u64>>,
            }
        ) { $($own)* $($launch)* $($batch)* $($cache)* $($disk)* });
        csaw_gpu::counter_gen!(plain (
            /// Plain-value copy of [`ServiceStats`].
            #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
            pub struct StatsSnapshot {}
        ) { $($own)* $($launch)* $($batch)* $($cache)* $($disk)* });

        impl ServiceStats {
            csaw_gpu::counter_gen!(snapshot (StatsSnapshot) {
                $($own)* $($launch)* $($batch)* $($cache)* $($disk)*
            });

            /// Accumulates one launch's `launch` and `batch` rows (a no-op for
            /// the `batch` rows of instance-major launches, which are zero).
            pub(crate) fn record_launch(&self, launch: &SimStats) {
                csaw_gpu::counter_gen!(add (launch => self) { $($launch)* $($batch)* });
            }

            /// Publishes the totals of the worker's CTPS caches (gauge
            /// semantics: the caches outlive batches, so each publish replaces
            /// the last).
            pub(crate) fn record_cache(&self, caches: &[CacheSnapshot]) {
                csaw_gpu::counter_gen!(sum (caches => self) { $($cache)* });
            }

            /// Publishes the disk tier's totals (gauge semantics: the tier's
            /// pools outlive batches, so each publish replaces the last).
            pub(crate) fn record_disk(&self, tier: &DiskTierStats) {
                csaw_gpu::counter_gen!(load (tier => self) { $($disk)* });
            }
        }

        impl StatsSnapshot {
            csaw_gpu::counter_gen!(metrics () {
                $($own)* $($launch)* $($batch)* $($cache)* $($disk)*
            });
        }

        /// The ledger's conservation identities, from the counter table.
        pub const IDENTITIES: &[Identity<StatsSnapshot>] =
            &csaw_gpu::counter_gen!(identities (StatsSnapshot) $ids);
    };
}
csaw_gpu::counter_table!(ledger);

impl ServiceStats {
    /// Bumps a counter by one.
    pub(crate) fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Bumps a counter by `n`.
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Relaxed);
    }

    /// Records one executed launch of `instances` instances.
    pub(crate) fn record_batch(&self, instances: usize) {
        Self::inc(&self.batches);
        let bucket = BATCH_BUCKETS
            .iter()
            .position(|&b| instances as u64 <= b)
            .unwrap_or(BATCH_BUCKETS.len());
        Self::inc(&self.batch_hist[bucket]);
    }

    /// Charges a queue-full shed to `tenant`'s split counter. The caller
    /// bumps the global `rejected_queue_full` separately; this keeps the
    /// invariant `rejected_queue_full == Σ tenant_sheds`.
    pub(crate) fn record_tenant_shed(&self, tenant: &str) {
        let mut map = self.tenant_sheds.lock().unwrap();
        *map.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Queue-full sheds per tenant label, sorted by label. The sum over
    /// all labels equals the global `rejected_queue_full` counter.
    pub fn tenant_sheds(&self) -> Vec<(String, u64)> {
        let map = self.tenant_sheds.lock().unwrap();
        let mut v: Vec<(String, u64)> = map.iter().map(|(k, &n)| (k.clone(), n)).collect();
        v.sort();
        v
    }
}

impl StatsSnapshot {
    /// True when every identity in [`IDENTITIES`] holds: every submitted
    /// request — sampling, mutation, and compact alike — has reached
    /// exactly one terminal state, and the disk-tier and depth-sync
    /// counters conserve. Only meaningful when the service is idle (after
    /// a drain); mid-flight requests are accepted but not yet terminal.
    pub fn fully_accounted(&self) -> bool {
        IDENTITIES.iter().all(|identity| identity.check(self))
    }

    /// Launches recorded by the histogram (should equal `batches`).
    pub fn hist_total(&self) -> u64 {
        self.batch_hist.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_all_sizes() {
        let stats = ServiceStats::default();
        for n in [1, 2, 3, 4, 65, 1000] {
            stats.record_batch(n);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.batches, 6);
        assert_eq!(snap.hist_total(), 6);
        assert_eq!(snap.batch_hist[0], 1, "n=1");
        assert_eq!(snap.batch_hist[1], 1, "n=2");
        assert_eq!(snap.batch_hist[2], 2, "n=3,4");
        assert_eq!(snap.batch_hist[BATCH_BUCKETS.len()], 2, "n=65,1000");
    }

    #[test]
    fn accounting_identity() {
        let stats = ServiceStats::default();
        ServiceStats::add(&stats.submitted, 5);
        ServiceStats::add(&stats.accepted, 3);
        ServiceStats::add(&stats.rejected_invalid, 1);
        ServiceStats::add(&stats.rejected_queue_full, 1);
        ServiceStats::add(&stats.completed, 2);
        ServiceStats::add(&stats.expired, 1);
        assert!(stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.submitted);
        assert!(!stats.snapshot().fully_accounted());
    }

    #[test]
    fn mutation_and_compact_requests_are_conservation_checked() {
        let stats = ServiceStats::default();
        // A mutation that never reached a terminal counter breaks the
        // ledger (this was the pre-fix behavior: only sampling requests
        // were conservation-checked).
        ServiceStats::inc(&stats.mutations_submitted);
        assert!(!stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.mutations_rejected);
        assert!(stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.compact_requests);
        assert!(!stats.snapshot().fully_accounted());
        ServiceStats::inc(&stats.compact_noops);
        assert!(stats.snapshot().fully_accounted());
    }

    /// A snapshot that satisfies every identity, with `<=` ones tight.
    fn balanced() -> StatsSnapshot {
        StatsSnapshot {
            submitted: 10,
            accepted: 6,
            rejected_invalid: 2,
            rejected_queue_full: 1,
            rejected_shutdown: 1,
            completed: 3,
            expired: 2,
            failed: 1,
            mutations_submitted: 5,
            mutations: 3,
            mutations_rejected: 2,
            compact_requests: 4,
            compactions: 1,
            compact_noops: 3,
            disk_lookups: 9,
            disk_hits: 5,
            disk_misses: 4,
            disk_evictions: 4,
            batch_groups: 7,
            batch_prefetch_hits: 5,
            batch_prefetch_misses: 2,
            batch_group_hist: [3, 2, 0, 1, 0, 0, 0, 1],
            ..Default::default()
        }
    }

    #[test]
    fn every_identity_is_checked() {
        assert_eq!(IDENTITIES.len(), 8);
        assert!(balanced().fully_accounted());
        for identity in IDENTITIES {
            assert!(identity.check(&balanced()), "{}", identity.text);
            // Perturb a row no other identity reads (for `<=`, the total:
            // the only side whose growth can break it).
            let at_most = (identity.holds)(0, 1);
            let term = identity
                .terms
                .iter()
                .enumerate()
                .filter(|&(i, _)| i == 0 || !at_most)
                .map(|(_, t)| t)
                .find(|t| {
                    IDENTITIES.iter().filter(|o| o.terms.iter().any(|u| u.name == t.name)).count()
                        == 1
                })
                .unwrap_or_else(|| panic!("{}: no row of its own", identity.text));
            let mut snap = balanced();
            (term.bump)(&mut snap);
            assert!(!snap.fully_accounted(), "{} (bumped {})", identity.text, term.name);
        }
    }

    #[test]
    fn records_launch_cache_and_disk_rows() {
        let stats = ServiceStats::default();
        let mut launch = SimStats { sampled_edges: 4, method_alias: 2, ..Default::default() };
        launch.record_batch_group(3);
        stats.record_launch(&launch);
        stats.record_launch(&launch);
        let cache = CacheSnapshot { lookups: 5, evictions_stale: 1, ..Default::default() };
        stats.record_cache(&[cache, cache]);
        let tier = DiskTierStats::default();
        tier.hits.store(6, Relaxed);
        tier.decode_hist[2].store(1, Relaxed);
        stats.record_disk(&tier);
        let snap = stats.snapshot();
        assert_eq!((snap.sampled_edges, snap.method_alias, snap.batch_groups), (8, 4, 2));
        assert_eq!(snap.batch_group_hist[1], 2);
        assert_eq!((snap.cache_lookups, snap.cache_evictions_stale), (10, 2));
        assert_eq!((snap.disk_hits, snap.disk_decode_hist[2]), (6, 1));
    }

    #[test]
    fn tenant_sheds_split_the_global_counter() {
        let stats = ServiceStats::default();
        for t in ["a", "b", "a", ""] {
            ServiceStats::inc(&stats.rejected_queue_full);
            stats.record_tenant_shed(t);
        }
        let sheds = stats.tenant_sheds();
        assert_eq!(sheds, vec![(String::new(), 1), ("a".to_string(), 2), ("b".to_string(), 1)]);
        let total: u64 = sheds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, stats.snapshot().rejected_queue_full);
    }
}
