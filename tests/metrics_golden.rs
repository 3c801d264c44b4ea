//! Golden test for the Prometheus page rendered by `csaw_serve::render`.
//!
//! `tests/golden/metrics.prom` holds the page for a snapshot whose every
//! field carries a distinct value, plus two tenants and the serve-plane
//! counters. A family is a `# HELP` line with everything up to the next
//! one; each golden family must render byte-identically (family order is
//! free), and the families beyond the golden set are exactly the ones
//! listed in [`NEW_FAMILIES`].

use csaw::serve::tenant::{TenantSnapshot, WaitHistogram};
use csaw::serve::{render, ServeMetrics};
use csaw::service::StatsSnapshot;
use std::collections::BTreeMap;

const GOLDEN: &str = "tests/golden/metrics.prom";

/// Families added after the golden was taken.
const NEW_FAMILIES: &[&str] = &[
    "csaw_transfers_total",
    "csaw_transfer_bytes_total",
    "csaw_ctps_cache_evictions_clock_total",
    "csaw_ctps_cache_evictions_stale_total",
    "csaw_ctps_cache_evictions_replaced_total",
    "csaw_alias_cache_promotions_total",
    "csaw_serve_connection_errors_total",
];

fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        submitted: 1,
        accepted: 2,
        rejected_invalid: 3,
        rejected_queue_full: 4,
        rejected_shutdown: 5,
        expired: 6,
        completed: 7,
        failed: 8,
        batches: 9,
        queue_depth: 10,
        sampled_edges: 11,
        transfers: 12,
        bytes_transferred: 13,
        batch_hist: [101, 102, 103, 104, 105, 106, 107, 108],
        cache_lookups: 14,
        cache_hits: 15,
        cache_misses: 16,
        cache_promotions: 17,
        cache_evictions: 18,
        cache_evictions_clock: 19,
        cache_evictions_stale: 20,
        cache_evictions_replaced: 21,
        cache_bytes: 22,
        cache_alias_hits: 23,
        cache_alias_promotions: 24,
        method_its: 25,
        method_alias: 26,
        method_rejection: 27,
        method_uniform: 28,
        rejection_trials: 29,
        batch_groups: 30,
        batch_group_entries: 31,
        batch_group_hist: [201, 202, 203, 204, 205, 206, 207, 208],
        batch_prefetch_hits: 32,
        batch_prefetch_misses: 33,
        mutations_submitted: 34,
        mutations: 35,
        mutations_rejected: 36,
        compact_requests: 37,
        compactions: 38,
        compact_noops: 39,
        graph_epoch: 40,
        overlay_vertices: 41,
        disk_lookups: 42,
        disk_hits: 43,
        disk_misses: 44,
        disk_evictions: 45,
        disk_pool_bytes: 46,
        disk_mmap_faults: 47,
        disk_decode_bytes: 48,
        disk_decode_hist: [301, 302, 303, 304, 305, 306, 307, 308],
        disk_decode_sum_us: 1_234_567,
        disk_decode_count: 49,
    }
}

fn tenant(name: &str, base: u64) -> TenantSnapshot {
    TenantSnapshot {
        tenant: name.into(),
        weight: base as u32 + 1,
        enqueued: base + 2,
        dispatched: base + 3,
        completed: base + 4,
        shed_quota: base + 5,
        shed_queue: base + 6,
        queued: base as usize + 7,
        wait: WaitHistogram {
            buckets: [base + 10, base + 11, base + 12, base + 13, base + 14, base + 15, base + 16],
            sum_us: base * 1000 + 17,
            count: base + 18,
        },
    }
}

fn page() -> String {
    let serve = ServeMetrics {
        connections: 51,
        bad_frames: 52,
        events_published: 53,
        events_dropped: 54,
        subscribers: 55,
        connection_errors: 58,
    };
    let sheds = [(String::new(), 56), ("acme \"q\"".to_string(), 57)];
    render(&snapshot(), &sheds, &[tenant("acme \"q\"", 500), tenant("beta", 600)], &serve)
}

/// Splits a page into `name → family text` at each `# HELP` line.
fn families(page: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            assert!(!out.contains_key(&name), "family {name} rendered twice");
            out.insert(name.clone(), String::new());
            current = Some(name);
        }
        let name = current.as_ref().expect("page starts with a # HELP line");
        let text = out.get_mut(name).unwrap();
        text.push_str(line);
        text.push('\n');
    }
    out
}

#[test]
fn metrics_page_matches_golden() {
    let golden = families(&std::fs::read_to_string(GOLDEN).unwrap());
    let now = families(&page());
    for (name, text) in &golden {
        assert_eq!(now.get(name), Some(text), "family {name} changed");
    }
    let added: Vec<&str> =
        now.keys().filter(|n| !golden.contains_key(*n)).map(|n| n.as_str()).collect();
    let mut expected = NEW_FAMILIES.to_vec();
    expected.sort_unstable();
    assert_eq!(added, expected, "families beyond the golden set");
}
