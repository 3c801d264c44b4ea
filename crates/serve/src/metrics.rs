//! Prometheus text encoding of every exported row of the counter table
//! (`csaw_gpu::counter_table!`: service ledger, cache and disk gauges,
//! depth-sync and serve-plane counters) plus the label families written
//! here: per method and per tenant.
//!
//! One renderer feeds both surfaces: the HTTP `GET /metrics` side
//! listener and the wire protocol's `Stats` frame, so a scraper and a
//! wire client read the same vocabulary (exposition format 0.0.4).
//!
//! The ledger metrics mirror the service's conservation identities —
//! `csaw_ledger_fully_accounted` is `1` exactly when every submitted
//! request (sampling, mutation, and compact alike) has reached exactly
//! one terminal state, which is what the multi-tenant integration test
//! asserts after inducing sheds, expiries, and a panicking batch.

use crate::tenant::{TenantSnapshot, WAIT_BUCKETS_US};
use csaw_gpu::counters::{Bounds, Kind, Metric};
use csaw_service::StatsSnapshot;
use std::fmt::Write as _;

macro_rules! serve_metrics {
    (sim $_s:tt launch $_l:tt batch $_b:tt service $_v:tt cache $_c:tt disk $_d:tt
     serve { $($serve:tt)* } identities $_i:tt) => {
        csaw_gpu::counter_gen!(plain (
            /// Everything the renderer needs beyond the service snapshot (the
            /// `serve` group of the counter table).
            #[derive(Debug, Clone, Default)]
            pub struct ServeMetrics {}
        ) { $($serve)* });
        csaw_gpu::counter_gen!(atomic (
            /// The server's live twin of [`ServeMetrics`]. The notifier keeps
            /// the event counts; the server fills those in at render time.
            #[derive(Debug, Default)]
            pub(crate) struct ServeCounters {}
        ) { $($serve)* });

        impl ServeCounters {
            csaw_gpu::counter_gen!(snapshot (ServeMetrics) { $($serve)* });
        }

        impl ServeMetrics {
            csaw_gpu::counter_gen!(metrics () { $($serve)* });
        }
    };
}
csaw_gpu::counter_table!(serve_metrics);

/// The ledger's conservation check, machine-readable.
const LEDGER: Metric = Metric::gauge(
    "csaw_ledger_fully_accounted",
    "1 when every submitted request reached exactly one terminal state",
);

/// Escapes a label value per the exposition format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one exported row of the counter table: header and samples.
fn family(out: &mut String, metric: &Metric, cells: &[u64], recorded: Option<(u64, u64)>) {
    let kind = match metric.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram(_) => "histogram",
    };
    header(out, metric.name, metric.help, kind);
    match metric.kind {
        Kind::Histogram(bounds) => histogram(out, metric.name, "", bounds, cells, false, recorded),
        _ => {
            let _ = writeln!(out, "{} {}", metric.name, cells[0]);
        }
    }
}

/// Writes a histogram's sample lines. `label` (`key="value"`, or empty)
/// goes on every line; `buckets` ends with the open-ended bucket and is
/// already running totals when `cumulative`. Without a `recorded` sum
/// and count, the count is the buckets' total and no sum is written.
fn histogram(
    out: &mut String,
    name: &str,
    label: &str,
    bounds: Bounds,
    buckets: &[u64],
    cumulative: bool,
    recorded: Option<(u64, u64)>,
) {
    let (sep, own) =
        if label.is_empty() { ("", String::new()) } else { (",", format!("{{{label}}}")) };
    let mut total = 0;
    let per_unit = bounds.per_unit as f64;
    for (i, &n) in buckets.iter().enumerate() {
        total = if cumulative { n } else { total + n };
        let le = bounds.upper.get(i).map_or("+Inf".into(), |&b| (b as f64 / per_unit).to_string());
        let _ = writeln!(out, "{name}_bucket{{{label}{sep}le=\"{le}\"}} {total}");
    }
    if let Some((sum, _)) = recorded {
        let _ = writeln!(out, "{name}_sum{own} {}", sum as f64 / per_unit);
    }
    let _ = writeln!(out, "{name}_count{own} {}", recorded.map_or(total, |(_, count)| count));
}

/// Renders the full metrics page: every exported row of the counter
/// table, the ledger check, and the label families (per-tenant and
/// per-method) that are not scalar rows.
pub fn render(
    snap: &StatsSnapshot,
    tenant_sheds: &[(String, u64)],
    tenants: &[TenantSnapshot],
    serve: &ServeMetrics,
) -> String {
    let mut out = String::with_capacity(8 << 10);
    snap.for_each_metric(|m, cells, recorded| family(&mut out, m, cells, recorded));
    serve.for_each_metric(|m, cells, recorded| family(&mut out, m, cells, recorded));
    family(&mut out, &LEDGER, &[u64::from(snap.fully_accounted())], None);

    // Per-tenant shed split of the global rejected_queue_full counter.
    let name = "csaw_tenant_queue_full_sheds_total";
    header(&mut out, name, "Service-queue sheds by tenant", "counter");
    for (tenant, sheds) in tenant_sheds {
        let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {sheds}", escape(tenant));
    }

    let name = "csaw_method_selections_total";
    header(&mut out, name, "Neighbor selections by sampling method", "counter");
    for (method, v) in [
        ("its", snap.method_its),
        ("alias", snap.method_alias),
        ("rejection", snap.method_rejection),
        ("uniform", snap.method_uniform),
    ] {
        let _ = writeln!(out, "{name}{{method=\"{method}\"}} {v}");
    }

    // --- per-tenant scheduler plane ------------------------------------
    type Get = fn(&TenantSnapshot) -> u64;
    for (name, help, kind, get) in [
        (
            "csaw_tenant_enqueued_total",
            "Jobs accepted into the tenant's fair queue",
            "counter",
            (|t| t.enqueued) as Get,
        ),
        ("csaw_tenant_dispatched_total", "Jobs released to the service", "counter", |t| {
            t.dispatched
        }),
        ("csaw_tenant_completed_total", "Jobs completed", "counter", |t| t.completed),
        ("csaw_tenant_shed_quota_total", "Admissions shed by a token bucket", "counter", |t| {
            t.shed_quota
        }),
        (
            "csaw_tenant_shed_queue_total",
            "Admissions shed by the fair-queue bound",
            "counter",
            |t| t.shed_queue,
        ),
        ("csaw_tenant_queued", "Jobs waiting in the tenant's fair queue", "gauge", |t| {
            t.queued as u64
        }),
        ("csaw_tenant_weight", "Fair-share weight in effect", "gauge", |t| u64::from(t.weight)),
    ] {
        header(&mut out, name, help, kind);
        for t in tenants {
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", escape(&t.tenant), get(t));
        }
    }
    let name = "csaw_tenant_queue_wait_seconds";
    header(&mut out, name, "Fair-queue wait, enqueue to dispatch", "histogram");
    for t in tenants {
        let label = format!("tenant=\"{}\"", escape(&t.tenant));
        let recorded = Some((t.wait.sum_us, t.wait.count));
        let bounds = Bounds { upper: &WAIT_BUCKETS_US, per_unit: 1_000_000 };
        histogram(&mut out, name, &label, bounds, &t.wait.buckets, true, recorded);
    }
    out
}

/// Pulls one metric's value out of a rendered page — test and client
/// convenience, not a general parser. Matches an exact metric line
/// (`name value` or `name{labels} value`).
pub fn parse_value(page: &str, name_and_labels: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let rest = line.strip_prefix(name_and_labels)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_ledger() {
        let snap = StatsSnapshot::default();
        let page = render(&snap, &[("acme".into(), 3)], &[], &ServeMetrics::default());
        assert_eq!(parse_value(&page, "csaw_requests_submitted_total"), Some(0.0));
        assert_eq!(
            parse_value(&page, "csaw_tenant_queue_full_sheds_total{tenant=\"acme\"}"),
            Some(3.0)
        );
        assert_eq!(parse_value(&page, "csaw_ledger_fully_accounted"), Some(1.0));
        assert!(page.contains("# TYPE csaw_batch_requests histogram"));
    }

    #[test]
    fn renders_depth_sync_batch_section() {
        let snap = StatsSnapshot {
            batch_groups: 5,
            batch_group_entries: 40,
            batch_prefetch_hits: 3,
            batch_prefetch_misses: 2,
            batch_group_hist: [1, 0, 0, 4, 0, 0, 0, 0],
            ..Default::default()
        };
        let page = render(&snap, &[], &[], &ServeMetrics::default());
        assert_eq!(parse_value(&page, "csaw_batch_groups_total"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_entries_total"), Some(40.0));
        assert_eq!(parse_value(&page, "csaw_batch_prefetch_hits_total"), Some(3.0));
        assert_eq!(parse_value(&page, "csaw_batch_prefetch_misses_total"), Some(2.0));
        // Log2 buckets: one singleton group, four groups of 8-15 walkers.
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"1\"}"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"7\"}"), Some(1.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"15\"}"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_bucket{le=\"+Inf\"}"), Some(5.0));
        assert_eq!(parse_value(&page, "csaw_batch_group_size_count"), Some(5.0));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
