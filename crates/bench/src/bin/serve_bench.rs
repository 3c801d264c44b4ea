//! Open-loop load driver for the sampling service, in-process vs over
//! the wire: sweeps the batch window and reports throughput plus
//! latency percentiles for both transports, so the TCP codec's
//! serialization + loopback cost is visible as a delta against direct
//! `SamplingService::submit` calls on the identical service config.
//!
//! Requests arrive on a fixed schedule regardless of completion
//! (open-loop), so queueing delay from an undersized window shows up in
//! the tail latencies instead of being absorbed by a slower client. The
//! loopback transport stripes the same arrival schedule across a small
//! connection pool (each blocking on its own in-flight request), which
//! preserves open-loop arrivals as long as per-request latency stays
//! under `pool * interval`.
//!
//! ```text
//! serve_bench [--quick] [--label NAME] [--json PATH] [--csv PATH]
//!             [--requests N] [--interval-us U]
//! ```
//!
//! Writes `results_csv/serve_latency.csv` (both transports) when run
//! from the repo root.

use csaw_bench::report::Table;
use csaw_core::AlgoSpec;
use csaw_graph::generators::{rmat, RmatParams};
use csaw_serve::{Client, ClientError, CsawServer, ServeConfig, WireAlgo};
use csaw_service::{SamplingRequest, SamplingService, ServiceConfig, StatsSnapshot, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeds per request (instances the request occupies in a launch).
const SEEDS_PER_REQUEST: usize = 4;

/// Loopback connection pool: arrivals are striped across these.
const POOL: usize = 8;

struct Pending {
    scheduled: Instant,
    ticket: Ticket,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

struct Row {
    transport: &'static str,
    window_us: u64,
    requests: usize,
    completed: u64,
    shed: u64,
    batches: u64,
    mean_batch_inst: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn summarize(
    transport: &'static str,
    window_us: u64,
    requests: usize,
    mut latencies: Vec<f64>,
    shed: u64,
    elapsed: f64,
    snap: &StatsSnapshot,
) -> Row {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean_batch = if snap.batches > 0 {
        (snap.completed as usize * SEEDS_PER_REQUEST) as f64 / snap.batches as f64
    } else {
        0.0
    };
    Row {
        transport,
        window_us,
        requests,
        completed: snap.completed,
        shed,
        batches: snap.batches,
        mean_batch_inst: mean_batch,
        throughput_rps: snap.completed as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
    }
}

fn service_config(window_us: u64) -> ServiceConfig {
    ServiceConfig {
        batch_window: Duration::from_micros(window_us),
        max_batch_instances: 64,
        queue_capacity: 512,
        ..ServiceConfig::default()
    }
}

fn request_seeds(i: usize, num_vertices: u32) -> Vec<u32> {
    (0..SEEDS_PER_REQUEST as u32).map(|j| (i as u32 * 31 + j * 7) % num_vertices).collect()
}

/// Direct `SamplingService::submit` calls — the zero-copy baseline.
fn run_inproc(
    graph: &Arc<csaw_graph::Csr>,
    spec: AlgoSpec,
    window_us: u64,
    requests: usize,
    interval: Duration,
) -> Row {
    let nv = graph.num_vertices() as u32;
    let svc = SamplingService::with_engine(Arc::clone(graph), service_config(window_us));
    let start = Instant::now();
    let mut pending: Vec<Pending> = Vec::with_capacity(requests);
    let mut latencies: Vec<f64> = Vec::with_capacity(requests);
    let mut shed = 0u64;
    for i in 0..requests {
        let scheduled = start + interval * i as u32;
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match svc.submit(SamplingRequest::new(spec, request_seeds(i, nv))) {
            Ok(ticket) => pending.push(Pending { scheduled, ticket }),
            Err(_) => shed += 1,
        }
        // Drain whatever has completed so far without blocking the
        // arrival schedule.
        pending.retain(|p| match p.ticket.try_wait() {
            Some(_) => {
                latencies.push(p.scheduled.elapsed().as_secs_f64() * 1e3);
                false
            }
            None => true,
        });
    }
    for p in pending {
        let scheduled = p.scheduled;
        let _ = p.ticket.wait();
        latencies.push(scheduled.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let snap = svc.shutdown();
    summarize("inproc", window_us, requests, latencies, shed, elapsed, &snap)
}

/// The same schedule through the TCP front end on loopback: arrivals
/// striped over a pool of client connections, one thread each.
fn run_loopback(
    graph: &Arc<csaw_graph::Csr>,
    wire_algo: &WireAlgo,
    window_us: u64,
    requests: usize,
    interval: Duration,
) -> Row {
    let nv = graph.num_vertices() as u32;
    let svc = SamplingService::with_engine(Arc::clone(graph), service_config(window_us));
    let server =
        CsawServer::start(svc, ServeConfig { metrics_addr: None, ..ServeConfig::default() })
            .expect("bind loopback");
    let addr = server.addr();

    let start = Instant::now();
    let workers: Vec<_> = (0..POOL)
        .map(|w| {
            let wire_algo = wire_algo.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, "bench").expect("connect");
                let mut latencies = Vec::new();
                let mut shed = 0u64;
                let mut i = w;
                while i < requests {
                    let scheduled = start + interval * i as u32;
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    match client.sample(wire_algo.clone(), request_seeds(i, nv), 42, None) {
                        Ok(_) => latencies.push(scheduled.elapsed().as_secs_f64() * 1e3),
                        Err(ClientError::Server(_)) => shed += 1,
                        Err(e) => panic!("transport failure: {e}"),
                    }
                    i += POOL;
                }
                let _ = client.goodbye();
                (latencies, shed)
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(requests);
    let mut shed = 0u64;
    for w in workers {
        let (lat, s) = w.join().expect("worker");
        latencies.extend(lat);
        shed += s;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let svc = server.shutdown();
    let snap = svc.stats();
    summarize("loopback", window_us, requests, latencies, shed, elapsed, &snap)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
    };
    let label = flag("--label").unwrap_or_else(|| "run".to_string());
    let json_path = flag("--json");
    let csv_path = flag("--csv");

    let (scale, default_requests) = if quick { (9, 48) } else { (12, 160) };
    let requests: usize =
        flag("--requests").and_then(|s| s.parse().ok()).unwrap_or(default_requests);
    let interval_us: u64 = flag("--interval-us").and_then(|s| s.parse().ok()).unwrap_or(300);
    let windows_us: &[u64] = if quick { &[0, 2000] } else { &[0, 500, 2000, 5000] };

    let graph = Arc::new(rmat(scale, 8, RmatParams::GRAPH500, 42));
    let depth = if quick { 8u32 } else { 16 };
    let spec = AlgoSpec::by_name("biased-walk").unwrap().with_depth(depth as usize);
    let wire_algo = WireAlgo::by_name("biased-walk").with_depth(depth);
    let interval = Duration::from_micros(interval_us);

    eprintln!(
        "# serve_bench [{label}]: {requests} requests/window, arrival every {interval_us}us, \
         {SEEDS_PER_REQUEST} seeds/request, rmat({scale},8), pool {POOL}"
    );
    let mut table = Table::new(
        "service latency under open-loop load: in-process vs loopback wire",
        &[
            "transport",
            "window_us",
            "requests",
            "completed",
            "shed",
            "batches",
            "mean_batch_inst",
            "throughput_rps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
    );

    let mut rows: Vec<Row> = Vec::new();
    for &window_us in windows_us {
        rows.push(run_inproc(&graph, spec, window_us, requests, interval));
        rows.push(run_loopback(&graph, &wire_algo, window_us, requests, interval));
    }

    for r in &rows {
        table.row(vec![
            r.transport.to_string(),
            r.window_us.to_string(),
            r.requests.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.batches.to_string(),
            format!("{:.1}", r.mean_batch_inst),
            format!("{:.0}", r.throughput_rps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
        ]);
    }

    table.print();

    // Wire tax at the median, per window (loopback p50 minus inproc p50).
    for pair in rows.chunks(2) {
        if let [ip, lb] = pair {
            eprintln!(
                "# window {:>5}us: wire p50 overhead {:+.3}ms ({:.3} -> {:.3})",
                ip.window_us,
                lb.p50_ms - ip.p50_ms,
                ip.p50_ms,
                lb.p50_ms
            );
        }
    }

    if let Some(path) = json_path {
        let mut s = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str(&format!(
                "  {{\"label\": \"{}\", \"graph\": \"rmat-{}\", \"transport\": \"{}\", \
                 \"window_us\": {}, \"requests\": {}, \"completed\": {}, \"shed\": {}, \
                 \"batches\": {}, \"mean_batch_inst\": {:.1}, \"throughput_rps\": {:.0}, \
                 \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                label,
                scale,
                r.transport,
                r.window_us,
                r.requests,
                r.completed,
                r.shed,
                r.batches,
                r.mean_batch_inst,
                r.throughput_rps,
                r.p50_ms,
                r.p95_ms,
                r.p99_ms,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        s.push_str("]\n");
        std::fs::write(&path, s).expect("write json");
        println!("wrote {path}");
    }
    let out = std::path::Path::new("results_csv");
    if let Some(path) = csv_path {
        std::fs::write(&path, table.to_csv()).expect("write CSV");
        println!("wrote {path}");
    } else if out.is_dir() {
        let path = out.join("serve_latency.csv");
        std::fs::write(&path, table.to_csv()).expect("write CSV");
        eprintln!("# wrote {}", path.display());
    }
}
