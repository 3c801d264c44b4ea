//! `serve-read` and `serve-mixed`: a closed loop of two loopback TCP
//! connections against `CsawServer`, one request outstanding on each,
//! over an R-MAT scale-16 graph that fits in the last-level cache.

use crate::inputs::{self, Rng};
use crate::stats::{
    mean, median, median_over_windows, percentile, quiet_windows, residual, Failure, Ledger,
};
use crate::trace::{Span, Trace};
use crate::{Metrics, Outcome};
use csaw_core::{AlgoSpec, Algorithm, RunOptions, Sampler};
use csaw_graph::{Csr, EdgeEdit, MutableGraph};
use csaw_serve::{
    parse_value, Client, CsawServer, ErrorCode, Frame, SampleFrame, SchedulerConfig, ServeConfig,
    TenantQuota, WireAlgo, WIRE_VERSION,
};
use csaw_service::{SamplingRequest, SamplingService, ServiceConfig};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SCALE: u32 = 16;
pub const EDGE_FACTOR: usize = 16;
/// One request outstanding per connection; two cores, two connections.
const CONNECTIONS: usize = 2;
/// Set-up is short here, so it is repeated more often than offline.
const SETUP_REPEATS: usize = 5;
/// In `serve-mixed`, one operation in this many is a mutation.
const WRITE_ONE_IN: u64 = 8;
const EDITS_PER_MUTATION: usize = 16;
const COMPACT_EVERY: u64 = 32;
/// In-process replays behind the traced `service.inproc_ms` and the
/// one-thread `engine.exec_1thread_ms`.
const INPROC_READS: usize = 4_000;
const ONE_THREAD_READS: usize = 1_000;
/// The window is summarised over this many equal sub-windows.
const SUBWINDOWS: usize = 10;
/// Read seeds whose 1-hop sets time `GraphSnapshot::entry_version`.
const ENTRY_VERSION_READS: usize = 64;

/// The two read classes, drawn 50/50.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadClass {
    /// GNN minibatch: 16 seeds, 2 hops, fanout 10.
    Neighbor,
    /// Degree-biased walk: 4 seeds, length 16.
    BiasedWalk,
}

impl ReadClass {
    fn seeds(self) -> usize {
        match self {
            ReadClass::Neighbor => 16,
            ReadClass::BiasedWalk => 4,
        }
    }

    fn wire(self) -> WireAlgo {
        match self {
            ReadClass::Neighbor => {
                WireAlgo { neighbor_size: Some(10), ..WireAlgo::by_name("neighbor").with_depth(2) }
            }
            ReadClass::BiasedWalk => WireAlgo::by_name("biased-walk").with_depth(16),
        }
    }

    fn spec(self) -> AlgoSpec {
        match self {
            ReadClass::Neighbor => AlgoSpec::by_name("neighbor")
                .expect("registry name")
                .with_depth(2)
                .with_neighbor_size(10),
            ReadClass::BiasedWalk => {
                AlgoSpec::by_name("biased-walk").expect("registry name").with_depth(16)
            }
        }
    }
}

/// A completed read, kept for verification and the latency budget.
struct ReadLog {
    op: u64,
    /// When the read was sent, in seconds from the window's start.
    at_s: f64,
    edges: u64,
    class: ReadClass,
    seeds: Vec<u32>,
    instance_base: u32,
    digest: u64,
    rtt_ms: f64,
    queue_wait_ms: f64,
    batch_requests: u64,
    /// Server-side codec work for this exchange: decode of the request,
    /// encode of the response (traced runs only).
    server_wire_ms: f64,
    /// Client-side encode of the request and decode of the response.
    encode_us: f64,
    decode_us: f64,
}

#[derive(Default)]
struct ConnLog {
    reads: Vec<ReadLog>,
    write_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    /// Acknowledged edit batches, in acknowledgement order.
    edits: Vec<Vec<EdgeEdit>>,
    /// Returned edges absent from the base graph, with their operation.
    new_edges: Vec<(u64, u32, u32)>,
    /// When each operation was sent, in seconds from the window's start.
    op_at_s: Vec<f64>,
    ledger: Ledger,
    trace: Option<Trace>,
}

/// A raw protocol connection: the benchmark encodes and decodes frames
/// itself so the round trip it times is socket write to last byte back.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr, tenant: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn { stream, buf: Vec::new() };
        let hello = Frame::Hello { version: WIRE_VERSION, tenant: tenant.to_string() }.to_bytes();
        match Frame::decode(&conn.exchange(&hello)?) {
            Ok(Frame::HelloAck { .. }) => Ok(conn),
            other => Err(std::io::Error::other(format!("handshake refused: {other:?}"))),
        }
    }

    /// Writes one encoded frame and reads one reply body (without its
    /// length prefix).
    fn exchange(&mut self, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        self.stream.write_all(frame)?;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > csaw_serve::MAX_FRAME_LEN as usize {
            return Err(std::io::Error::other(format!("bad reply length {len}")));
        }
        self.buf.resize(len, 0);
        self.stream.read_exact(&mut self.buf)?;
        Ok(std::mem::take(&mut self.buf))
    }

    fn goodbye(mut self) {
        let _ = self.stream.write_all(&Frame::Goodbye.to_bytes());
    }
}

fn failure_of(code: ErrorCode) -> Failure {
    match code {
        ErrorCode::QueueFull | ErrorCode::TenantQuota | ErrorCode::TenantQueueFull => Failure::Shed,
        _ => Failure::ErrorFrame,
    }
}

fn tenant(c: usize) -> String {
    format!("conn-{c}")
}

/// Default server settings except one, stated: each connection is its
/// own tenant with a quota far above saturation. The default 1000 req/s
/// is close to what the server reaches here, so keeping it would
/// measure the token bucket.
fn serve_config() -> ServeConfig {
    let quota = TenantQuota {
        rate: 1e9,
        burst: 1e9,
        byte_rate: 1e15,
        byte_burst: 1e15,
        ..TenantQuota::default()
    };
    let tenant_quotas = (0..CONNECTIONS).map(|c| (tenant(c), quota)).collect();
    ServeConfig {
        scheduler: SchedulerConfig { tenant_quotas, ..SchedulerConfig::default() },
        ..ServeConfig::default()
    }
}

struct Shared {
    graph: Arc<Csr>,
    seed: u64,
    rng_seed: u64,
    mixed: bool,
    start: Instant,
    deadline: Instant,
    mutations: AtomicU64,
    origin: Instant,
    trace: bool,
}

fn connection(c: usize, mut conn: Conn, sh: &Shared) -> ConnLog {
    let mut log = ConnLog::default();
    let mut trace = Trace::new(sh.origin, sh.trace);
    let mut rng = Rng::fork(sh.seed, 100 + c as u64);
    let g = &*sh.graph;
    let mut next_id = 1u64;
    let mut pending_compact = false;
    while Instant::now() < sh.deadline {
        let id = next_id;
        next_id += 1;
        let op = ((c as u64) << 40) | id;
        let at_s = sh.start.elapsed().as_secs_f64();
        log.ledger.attempt();
        log.op_at_s.push(at_s);
        if pending_compact {
            pending_compact = false;
            let bytes = Frame::Compact { id }.to_bytes();
            let t0 = Instant::now();
            let reply = trace.span("client.compact", op, None, || conn.exchange(&bytes));
            log.compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match reply.map(|b| Frame::decode(&b)) {
                Ok(Ok(Frame::CompactAck { id: rid, .. })) if rid == id => {}
                Ok(Ok(Frame::Error(e))) => log.ledger.fail(op, failure_of(e.code)),
                Ok(_) => log.ledger.fail(op, Failure::ErrorFrame),
                Err(_) => {
                    log.ledger.fail(op, Failure::Transport);
                    break;
                }
            }
            continue;
        }
        if sh.mixed && rng.below(WRITE_ONE_IN) == 0 {
            let edits: Vec<EdgeEdit> = (0..EDITS_PER_MUTATION / 2)
                .flat_map(|_| {
                    let a = rng.below(g.num_vertices() as u64) as u32;
                    let b = (a + 1 + rng.below(g.num_vertices() as u64 - 1) as u32)
                        % g.num_vertices() as u32;
                    [
                        EdgeEdit::Insert { src: a, dst: b, weight: 1.0 },
                        EdgeEdit::Insert { src: b, dst: a, weight: 1.0 },
                    ]
                })
                .collect();
            let bytes = Frame::Mutate { id, edits: edits.clone() }.to_bytes();
            let t0 = Instant::now();
            let reply = trace.span("client.mutate", op, None, || conn.exchange(&bytes));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match reply.map(|b| Frame::decode(&b)) {
                Ok(Ok(Frame::MutateAck { id: rid, .. })) if rid == id => {
                    log.write_ms.push(ms);
                    log.edits.push(edits);
                    if sh.mutations.fetch_add(1, Relaxed) % COMPACT_EVERY == COMPACT_EVERY - 1 {
                        pending_compact = true;
                    }
                }
                Ok(Ok(Frame::Error(e))) => log.ledger.fail(op, failure_of(e.code)),
                Ok(_) => log.ledger.fail(op, Failure::ErrorFrame),
                Err(_) => {
                    log.ledger.fail(op, Failure::Transport);
                    break;
                }
            }
            continue;
        }

        let class = if rng.below(2) == 0 { ReadClass::Neighbor } else { ReadClass::BiasedWalk };
        let seeds = inputs::seed_vertices(g, &mut rng, class.seeds());
        let root = trace.begin("client.read", op, None);
        let read = read_once(&mut conn, &mut trace, root, sh, op, class, seeds, at_s);
        trace.end(root);
        match read {
            Ok((r, new_edges)) => {
                log.new_edges.extend(new_edges.into_iter().map(|(v, u)| (op, v, u)));
                log.reads.push(r);
            }
            Err((why, fatal)) => {
                log.ledger.fail(op, why);
                if fatal {
                    break;
                }
            }
        }
    }
    conn.goodbye();
    log.trace = Some(trace);
    log
}

type ReadResult = Result<(ReadLog, Vec<(u32, u32)>), (Failure, bool)>;

/// One sample request on `conn`. Returns the read and, in `serve-mixed`,
/// the returned edges the base graph lacks; or why it failed and
/// whether the connection is lost.
#[allow(clippy::too_many_arguments)]
fn read_once(
    conn: &mut Conn,
    trace: &mut Trace,
    root: Option<usize>,
    sh: &Shared,
    op: u64,
    class: ReadClass,
    seeds: Vec<u32>,
    at_s: f64,
) -> ReadResult {
    let request = Frame::Sample(SampleFrame {
        id: op,
        algo: class.wire(),
        seeds: seeds.clone(),
        rng_seed: sh.rng_seed,
        deadline_us: None,
        stream_chunk: 0,
    });
    let t_enc = Instant::now();
    let bytes = trace.span("wire.encode", op, root, || request.to_bytes());
    let encode_us = t_enc.elapsed().as_secs_f64() * 1e6;
    let t0 = Instant::now();
    let reply = conn.exchange(&bytes);
    let rtt = t0.elapsed();
    trace.record(Span {
        name: "socket.round_trip",
        op,
        parent: root,
        start_ns: (t0 - sh.origin).as_nanos() as u64,
        end_ns: (t0 + rtt - sh.origin).as_nanos() as u64,
    });
    let body = reply.map_err(|_| (Failure::Transport, true))?;
    let t_dec = Instant::now();
    let frame = trace.span("wire.decode", op, root, || Frame::decode(&body));
    let decode_us = t_dec.elapsed().as_secs_f64() * 1e6;
    let r = match frame {
        Ok(Frame::Response(r)) if r.id == op => r,
        Ok(Frame::Error(e)) => return Err((failure_of(e.code), false)),
        _ => return Err((Failure::ErrorFrame, false)),
    };
    if r.instances.len() != seeds.len() {
        return Err((Failure::Mismatch, false));
    }
    let g = &*sh.graph;
    let new_edges = if sh.mixed {
        r.instances.iter().flatten().copied().filter(|&(v, u)| !g.has_edge(v, u)).collect()
    } else {
        Vec::new()
    };
    // The server's half of the codec work for this exchange, timed on the
    // same frames: decode of the request, encode of the reply.
    let server_wire_ms = if sh.trace {
        let t = Instant::now();
        let _ = std::hint::black_box(Frame::decode(&bytes[4..]));
        let _ = std::hint::black_box(Frame::Response(r.clone()).to_bytes());
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    let read = ReadLog {
        op,
        at_s,
        edges: r.sampled_edges,
        class,
        seeds,
        instance_base: r.instance_base,
        digest: inputs::digest(&r.instances),
        rtt_ms: rtt.as_secs_f64() * 1e3,
        queue_wait_ms: r.queue_wait_us as f64 / 1e3,
        batch_requests: r.batch_requests,
        server_wire_ms,
        encode_us,
        decode_us,
    };
    Ok((read, new_edges))
}

struct Server {
    server: CsawServer,
    conns: Vec<Conn>,
}

/// Closes the connections and shuts the server down.
fn close(srv: Server) {
    srv.conns.into_iter().for_each(Conn::goodbye);
    drop(srv.server.shutdown());
}

fn start(graph: &Arc<Csr>) -> Server {
    let svc = SamplingService::with_engine(Arc::clone(graph), ServiceConfig::default());
    let server = CsawServer::start(svc, serve_config()).expect("bind loopback");
    let conns = (0..CONNECTIONS)
        .map(|c| Conn::connect(server.addr(), &tenant(c)).expect("connect to the server"))
        .collect();
    Server { server, conns }
}

/// What one closed-loop window leaves behind.
struct Window {
    logs: Vec<ConnLog>,
    /// CPU ticks stolen from the machine in each sub-window.
    stolen: Vec<u64>,
    /// The server's counters: the `Stats` frame's text and a snapshot.
    text: String,
    snap: csaw_service::StatsSnapshot,
}

/// One closed-loop window of `seconds` on a started server, which it
/// shuts down.
fn window(
    graph: &Arc<Csr>,
    srv: Server,
    seed: u64,
    seconds: f64,
    mixed: bool,
    trace: bool,
    origin: Instant,
) -> Window {
    let start = Instant::now();
    let shared = Shared {
        graph: Arc::clone(graph),
        seed,
        rng_seed: rng_seed(seed),
        mixed,
        start,
        deadline: start + Duration::from_secs_f64(seconds),
        mutations: AtomicU64::new(0),
        origin,
        trace,
    };
    let addr = srv.server.addr();
    let mut stolen = Vec::with_capacity(SUBWINDOWS);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = srv
            .conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let sh = &shared;
                s.spawn(move || connection(c, conn, sh))
            })
            .collect();
        // Meanwhile, count the CPU ticks stolen in each sub-window.
        let mut last = inputs::cpu_ticks().0;
        for k in 1..=SUBWINDOWS {
            let boundary = start + Duration::from_secs_f64(seconds * k as f64 / SUBWINDOWS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            let now = inputs::cpu_ticks().0;
            stolen.push(now - last);
            last = now;
        }
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let text = Client::connect(addr, "stats")
        .and_then(|mut c| {
            let t = c.stats_text();
            let _ = c.goodbye();
            t
        })
        .unwrap_or_default();
    let snap = srv.server.service().stats();
    drop(srv.server.shutdown());
    Window { logs, stolen, text, snap }
}

/// The RNG seed of every sample request: one value, so that requests of
/// one class may share a launch.
fn rng_seed(seed: u64) -> u64 {
    seed ^ 0x5eed
}

/// Rebuilds a read's output with a solo engine run at its instance base.
fn replay(g: &Csr, algo: &dyn Algorithm, seeds: &[u32], rng_seed: u64, base: u32) -> u64 {
    let opts = RunOptions { seed: rng_seed, instance_base: base, ..RunOptions::default() };
    inputs::digest(&Sampler::new(g, &algo).with_options(opts).run_single_seeds(seeds).instances)
}

pub fn run(workload: &str, seed: u64, seconds: f64, trace_on: bool) -> Outcome {
    let mixed = workload == "serve-mixed";
    let mut m = Metrics::default();
    let origin = Instant::now();
    let mut trace = Trace::new(origin, trace_on);

    // Set-up, repeated: the program builds the CSR, starts the service
    // and the server, and accepts the connections.
    let pairs = inputs::rmat_pairs(SCALE, EDGE_FACTOR, seed);
    let (mut setup, mut build) = (vec![], vec![]);
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, old)) = ready.take() {
            close(old);
        }
        let pairs = pairs.clone();
        let t0 = Instant::now();
        let g = Arc::new(trace.span("graph.build", 0, None, || inputs::build_graph(SCALE, pairs)));
        build.push(t0.elapsed().as_secs_f64());
        let srv = trace.span("server.start", 0, None, || start(&g));
        setup.push(t0.elapsed().as_secs_f64());
        ready = Some((g, srv));
    }
    drop(pairs);
    let (g, srv) = ready.expect("at least one set-up");
    m.set("setup_s", median(&setup).unwrap_or(0.0), "s");
    m.set("graph.build_s", median(&build).unwrap_or(0.0), "s");
    let graph_bytes = g.size_bytes();
    m.info(format!(
        "\"graph\": \"rmat-{SCALE} ef {EDGE_FACTOR}\", \"vertices\": {}, \"edges\": {}, \
         \"graph_bytes\": {graph_bytes}, \"graph_over_llc\": {:.3}, \"pool_bytes\": 0, \
         \"connections\": {CONNECTIONS}",
        g.num_vertices(),
        g.num_edges(),
        graph_bytes as f64 / inputs::llc_bytes().max(1) as f64,
    ));

    // A traced run first repeats the window untraced on a fresh server:
    // the two give the tracing overhead.
    let mut srv = Some(srv);
    let mut untraced_ops = None;
    if trace_on {
        let w = window(&g, srv.take().expect("server"), seed, seconds, mixed, false, origin);
        untraced_ops =
            Some(w.logs.iter().map(|l| l.ledger.attempted()).sum::<u64>() as f64 / seconds);
        srv = Some(start(&g));
    }
    let Window { logs, stolen, text, snap } =
        window(&g, srv.take().expect("server"), seed, seconds, mixed, trace_on, origin);

    let mut ledger = Ledger::default();
    let mut reads: Vec<ReadLog> = Vec::new();
    let (mut write_ms, mut compact_ms, mut edits, mut new_edges) = (vec![], vec![], vec![], vec![]);
    let mut op_at_s = Vec::new();
    for l in logs {
        ledger.merge(l.ledger);
        reads.extend(l.reads);
        write_ms.extend(l.write_ms);
        compact_ms.extend(l.compact_ms);
        edits.extend(l.edits);
        new_edges.extend(l.new_edges);
        op_at_s.extend(l.op_at_s);
        if let Some(t) = l.trace {
            trace.absorb(t);
        }
    }
    let ops = ledger.attempted();

    // Verification, untimed.
    let rng_seed = rng_seed(seed);
    let neighbor = ReadClass::Neighbor.spec().build().expect("valid spec");
    let walk = ReadClass::BiasedWalk.spec().build().expect("valid spec");
    let algo_of = |c: ReadClass| match c {
        ReadClass::Neighbor => &*neighbor,
        ReadClass::BiasedWalk => &*walk,
    };
    let mut exec_ms = Vec::new();
    if mixed {
        // Edits are insert-only: every returned edge must exist in the
        // final graph, the base plus every acknowledged insert.
        let inserted: HashSet<(u32, u32)> = edits
            .iter()
            .flatten()
            .filter_map(|e| match *e {
                EdgeEdit::Insert { src, dst, .. } => Some((src, dst)),
                _ => None,
            })
            .collect();
        for &(op, v, u) in &new_edges {
            if !inserted.contains(&(v, u)) {
                ledger.fail(op, Failure::Mismatch);
            }
        }
    } else {
        // Every response matches a solo engine run at its instance base;
        // the replays' times are the engine layer's.
        for r in &reads {
            let t0 = Instant::now();
            let d = trace.span("engine.replay", r.op, None, || {
                replay(&g, algo_of(r.class), &r.seeds, rng_seed, r.instance_base)
            });
            exec_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if d != r.digest {
                ledger.fail(r.op, Failure::Mismatch);
            }
        }
    }

    // End-to-end figures are medians over the quieter half of the
    // sub-windows: other tenants of a shared host take CPU in episodes of
    // seconds (`cpu_steal_pct` in the fingerprint), and a served closed
    // loop amplifies them, since every request crosses several thread
    // wake-ups. With nothing stolen, every sub-window counts.
    let keep = quiet_windows(&stolen);
    m.info(format!("\"stolen_ticks_per_subwindow\": {stolen:?}, \"kept\": {keep:?}"));
    let per_s = seconds / SUBWINDOWS as f64;
    let timed_reads: Vec<(f64, &ReadLog)> = reads.iter().map(|r| (r.at_s, r)).collect();
    let over_windows = |f: &dyn Fn(&[&&ReadLog]) -> Option<f64>| {
        median_over_windows(&timed_reads, seconds, &keep, f).unwrap_or(0.0)
    };
    let latency = |p: f64| {
        move |rs: &[&&ReadLog]| percentile(&rs.iter().map(|r| r.rtt_ms).collect::<Vec<_>>(), p)
    };
    m.set("read_p50_ms", over_windows(&latency(0.50)), "ms");
    m.set("read_p95_ms", over_windows(&latency(0.95)), "ms");
    let edge_rate = |rs: &[&&ReadLog]| Some(rs.iter().map(|r| r.edges).sum::<u64>() as f64 / per_s);
    m.set("edges_per_s", over_windows(&edge_rate), "1/s");
    let timed_ops: Vec<(f64, ())> = op_at_s.iter().map(|&t| (t, ())).collect();
    let op_rate = |os: &[&()]| Some(os.len() as f64 / per_s);
    let ops_per_s = median_over_windows(&timed_ops, seconds, &keep, op_rate);
    m.set("ops_per_s", ops_per_s.unwrap_or(0.0), "1/s");
    let read_ms: Vec<f64> = reads.iter().map(|r| r.rtt_ms).collect();
    m.set("serve.read_p99_ms", percentile(&read_ms, 0.99).unwrap_or(0.0), "ms");
    m.set("serve.write_p50_ms", percentile(&write_ms, 0.50).unwrap_or(0.0), "ms");
    m.set("serve.write_p95_ms", percentile(&write_ms, 0.95).unwrap_or(0.0), "ms");
    m.set("serve.compact_ms", median(&compact_ms).unwrap_or(0.0), "ms");
    if !trace_on {
        return Outcome { metrics: m, ledger, trace };
    }
    if let Some(u) = untraced_ops {
        m.set("trace.overhead_pct", (u / (ops as f64 / seconds) - 1.0) * 100.0, "%");
    }

    // Per-layer numbers read from the program's own counters.
    let page = |name: &str| parse_value(&text, name).unwrap_or(0.0);
    let tenants: Vec<String> = (0..CONNECTIONS).map(tenant).collect();
    let sum_over = |metric: &str| -> f64 {
        tenants.iter().map(|t| page(&format!("{metric}{{tenant=\"{t}\"}}"))).sum()
    };
    let wait_n = sum_over("csaw_tenant_queue_wait_seconds_count");
    let tenant_wait_ms = if wait_n > 0.0 {
        sum_over("csaw_tenant_queue_wait_seconds_sum") / wait_n * 1e3
    } else {
        0.0
    };
    m.set("tenant.queue_wait_ms", tenant_wait_ms, "ms");
    m.set(
        "serve.sheds",
        page("csaw_requests_rejected_queue_full_total")
            + sum_over("csaw_tenant_shed_quota_total")
            + sum_over("csaw_tenant_shed_queue_total"),
        "count",
    );
    m.set(
        "serve.failed",
        page("csaw_requests_failed_total") + page("csaw_requests_expired_total"),
        "count",
    );
    m.set("service.batches", snap.batches as f64, "count");
    let lookups = snap.cache_lookups.max(1) as f64;
    m.set("ctps.cache_hit_rate", snap.cache_hits as f64 / lookups, "ratio");
    m.set("ctps.evictions_stale", snap.cache_evictions_stale as f64, "count");
    m.set("graph.overlay_vertices", snap.overlay_vertices as f64, "count");
    m.set("graph.epoch", snap.graph_epoch as f64, "count");

    let queue_ms: Vec<f64> = reads.iter().map(|r| r.queue_wait_ms).collect();
    m.set("service.queue_wait_p50_ms", percentile(&queue_ms, 0.50).unwrap_or(0.0), "ms");
    m.set("service.queue_wait_p95_ms", percentile(&queue_ms, 0.95).unwrap_or(0.0), "ms");
    let batch_reqs: Vec<f64> = reads.iter().map(|r| r.batch_requests as f64).collect();
    m.set("service.batch_requests_mean", mean(&batch_reqs), "count");
    let encode_us: Vec<f64> = reads.iter().map(|r| r.encode_us).collect();
    let decode_us: Vec<f64> = reads.iter().map(|r| r.decode_us).collect();
    m.set("wire.encode_us", median(&encode_us).unwrap_or(0.0), "us");
    m.set("wire.decode_us", median(&decode_us).unwrap_or(0.0), "us");
    // Means, not medians: the two read classes make these distributions
    // bimodal, and a median sits on the boundary between the modes.
    m.set("engine.exec_ms", mean(&exec_ms), "ms");

    // The latency budget of one read: the round trip minus the server's
    // codec work, the fair-queue wait, the service-queue wait and the
    // solo execution time.
    if !mixed {
        let residuals: Vec<f64> = reads
            .iter()
            .zip(&exec_ms)
            .map(|(r, &e)| {
                residual(r.rtt_ms, &[r.server_wire_ms, tenant_wait_ms, r.queue_wait_ms, e])
            })
            .collect();
        m.set("residual_ms", median(&residuals).unwrap_or(0.0), "ms");
    }

    // The same read stream through the service with no wire.
    let inproc = inproc_latencies(&g, &reads, rng_seed, &mut trace);
    m.set("service.inproc_ms", mean(&inproc), "ms");
    m.set("service.inproc_p95_ms", percentile(&inproc, 0.95).unwrap_or(0.0), "ms");

    // Solo execution with one engine thread against the default count.
    if !mixed {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
        let one: Vec<f64> = pool.install(|| {
            reads
                .iter()
                .take(ONE_THREAD_READS)
                .map(|r| {
                    let t0 = Instant::now();
                    replay(&g, algo_of(r.class), &r.seeds, rng_seed, r.instance_base);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        });
        m.set("engine.exec_1thread_ms", mean(&one), "ms");
        m.set("engine.exec_same_reads_ms", mean(&exec_ms[..one.len()]), "ms");
    }

    // The overlay layer, on a mirror of the server's graph: the edits
    // the server acknowledged, with the same compaction cadence.
    let probe: Vec<u32> = reads
        .iter()
        .take(ENTRY_VERSION_READS)
        .flat_map(|r| {
            r.seeds.iter().flat_map(|&v| std::iter::once(v).chain(g.neighbors(v).iter().copied()))
        })
        .collect();
    let mut mirror = MutableGraph::from_arc(Arc::clone(&g));
    m.set("dynamic.entry_version_start_ns", entry_version_ns(&mirror, &probe, &mut trace), "ns");
    let (mut apply_us, mut fold_ms) = (vec![], vec![]);
    for (i, batch) in edits.iter().enumerate() {
        let t0 = Instant::now();
        trace
            .span("dynamic.apply_batch", i as u64, None, || mirror.apply_batch(batch))
            .expect("insert-only edits apply");
        apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if i as u64 % COMPACT_EVERY == COMPACT_EVERY - 1 {
            let t0 = Instant::now();
            trace.span("dynamic.compact", i as u64, None, || mirror.compact());
            fold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.set("dynamic.apply_us", median(&apply_us).unwrap_or(0.0), "us");
    m.set("dynamic.compact_ms", median(&fold_ms).unwrap_or(0.0), "ms");
    // Measured after a final compaction: folding the overlay does not
    // prune the version map that `entry_version` probes.
    if !edits.is_empty() {
        trace.span("dynamic.compact", edits.len() as u64, None, || mirror.compact());
    }
    m.set("dynamic.entry_version_end_ns", entry_version_ns(&mirror, &probe, &mut trace), "ns");

    Outcome { metrics: m, ledger, trace }
}

/// Mean time of one `GraphSnapshot::entry_version` call over `probe`.
fn entry_version_ns(mirror: &MutableGraph, probe: &[u32], trace: &mut Trace) -> f64 {
    let snap = mirror.snapshot();
    let t0 = Instant::now();
    let tags = trace.span("dynamic.entry_version", 0, None, || {
        probe.iter().map(|&v| snap.entry_version(v)).fold(0u64, u64::wrapping_add)
    });
    std::hint::black_box(tags);
    t0.elapsed().as_secs_f64() * 1e9 / probe.len().max(1) as f64
}

/// Replays the logged reads through a fresh in-process service, one
/// closed loop per connection; returns the submit-to-response times.
fn inproc_latencies(g: &Arc<Csr>, reads: &[ReadLog], rng_seed: u64, trace: &mut Trace) -> Vec<f64> {
    let svc = SamplingService::with_engine(Arc::clone(g), ServiceConfig::default());
    let origin = Instant::now();
    let stream = &reads[..reads.len().min(INPROC_READS)];
    let lat: Vec<(Vec<f64>, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let svc = &svc;
                let enabled = trace.enabled();
                s.spawn(move || {
                    let mut t = Trace::new(origin, enabled);
                    let mut out = Vec::new();
                    for r in stream.iter().skip(c).step_by(CONNECTIONS) {
                        let req = SamplingRequest::new(r.class.spec(), r.seeds.clone())
                            .with_rng_seed(rng_seed);
                        let t0 = Instant::now();
                        let done = t.span("service.submit_wait", r.op, None, || {
                            svc.submit(req).map(|ticket| ticket.wait())
                        });
                        if matches!(done, Ok(Ok(_))) {
                            out.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (out, t)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("in-process client")).collect()
    });
    svc.shutdown();
    let mut out = Vec::new();
    for (l, t) in lat {
        out.extend(l);
        trace.absorb(t);
    }
    out
}
