//! The TCP front end: accept loop, per-connection protocol driver,
//! the weighted-fair dispatcher, and the `/metrics` side listener.
//!
//! Threading model (std networking only, no async runtime):
//!
//! - one **accept thread** per listener (wire + metrics), woken for
//!   shutdown by a self-connect;
//! - one **connection thread** per client, blocking on one request at a
//!   time (clients wanting concurrency open more connections — the
//!   protocol stays trivially ordered and the determinism contract has
//!   no interleaving to reason about);
//! - one **dispatcher thread** draining the [`FairScheduler`]: it
//!   releases the minimum-virtual-start job, runs its submission
//!   closure against the sampling service, and moves on; the owning
//!   connection thread waits for the tickets and reports completion
//!   back to the scheduler.
//!
//! A sampling request therefore crosses three admission gates in order:
//! the tenant's token buckets (socket boundary), the tenant's fair
//! queue (bounded, SFQ-ordered), and the service's global bounded
//! queue. Each gate sheds with a typed error frame carrying a
//! `retry_after` hint, so a client can distinguish "slow down"
//! ([`ErrorCode::TenantQuota`]) from "the whole service is saturated"
//! ([`ErrorCode::QueueFull`]).

use crate::metrics::{render, ServeCounters, ServeMetrics};
use crate::notify::Notifier;
use crate::tenant::{AdmitError, FairScheduler, SchedulerConfig};
use crate::wire::{
    write_frame, ChunkFrame, ErrorCode, ErrorFrame, EventFrame, EventKind, Frame, RecvError,
    ResponseFrame, SampleFrame, StreamEndFrame, WireAlgo, WireError, MAX_FRAME_LEN, WIRE_VERSION,
};
use csaw_core::{AlgoSpec, FrontierMode};
use csaw_graph::EditError;
use csaw_service::{
    MutationRequest, SamplingRequest, SamplingResponse, SamplingService, ServiceError, Ticket,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Wire listener address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Metrics HTTP listener address; `None` disables the side listener
    /// (the wire `Stats` frame still serves the same text).
    pub metrics_addr: Option<String>,
    /// Tenant quotas and fair-share configuration.
    pub scheduler: SchedulerConfig,
    /// Per-frame length ceiling enforced before allocation.
    pub max_frame_len: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: Some("127.0.0.1:0".into()),
            scheduler: SchedulerConfig::default(),
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// A dispatched unit: the submission closure the dispatcher runs
/// against the service.
type DispatchJob = Box<dyn FnOnce(&SamplingService) + Send>;

struct ServerShared {
    service: Arc<SamplingService>,
    scheduler: FairScheduler<DispatchJob>,
    notifier: Notifier,
    shutdown: AtomicBool,
    counters: ServeCounters,
    max_frame_len: u32,
}

impl ServerShared {
    fn metrics_page(&self) -> String {
        let snap = self.service.stats();
        let sheds = self.service.tenant_sheds();
        let tenants = self.scheduler.snapshot();
        let serve = ServeMetrics {
            events_published: self.notifier.published(),
            events_dropped: self.notifier.dropped(),
            subscribers: self.notifier.subscriber_count(),
            ..self.counters.snapshot()
        };
        render(&snap, &sheds, &tenants, &serve)
    }
}

/// A running server; dropping it without [`CsawServer::shutdown`]
/// leaves daemon threads running until process exit.
pub struct CsawServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept_handle: Option<thread::JoinHandle<()>>,
    metrics_handle: Option<thread::JoinHandle<()>>,
    dispatch_handle: Option<thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl CsawServer {
    /// Binds the listeners and starts serving `service`.
    pub fn start(service: SamplingService, config: ServeConfig) -> std::io::Result<CsawServer> {
        CsawServer::start_shared(Arc::new(service), config)
    }

    /// [`CsawServer::start`] over an already-shared service (callers
    /// that also submit in-process keep their own handle).
    pub fn start_shared(
        service: Arc<SamplingService>,
        config: ServeConfig,
    ) -> std::io::Result<CsawServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let shared = Arc::new(ServerShared {
            service,
            scheduler: FairScheduler::new(config.scheduler.clone()),
            notifier: Notifier::new(),
            shutdown: AtomicBool::new(false),
            counters: ServeCounters::default(),
            max_frame_len: config.max_frame_len,
        });
        let conn_handles = Arc::new(Mutex::new(Vec::new()));

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&conn_handles);
            thread::Builder::new()
                .name("csaw-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handles))
                .expect("spawn accept thread")
        };
        let metrics_handle = metrics_listener.map(|listener| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("csaw-serve-metrics".into())
                .spawn(move || metrics_loop(&listener, &shared))
                .expect("spawn metrics thread")
        });
        let dispatch_handle = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("csaw-serve-dispatch".into())
                .spawn(move || {
                    while let Some((_tenant, job)) = shared.scheduler.next() {
                        job(&shared.service);
                    }
                })
                .expect("spawn dispatcher")
        };

        Ok(CsawServer {
            shared,
            addr,
            metrics_addr,
            accept_handle: Some(accept_handle),
            metrics_handle: Some(metrics_handle).flatten(),
            dispatch_handle: Some(dispatch_handle),
            conn_handles,
        })
    }

    /// The wire listener's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The served sampling service (for in-process baselines and
    /// orderly [`SamplingService::shutdown`] after the server stops).
    pub fn service(&self) -> &Arc<SamplingService> {
        &self.shared.service
    }

    /// Renders the metrics page in-process (what `/metrics` serves).
    pub fn metrics_page(&self) -> String {
        self.shared.metrics_page()
    }

    /// Stops accepting, drains queued work, joins every thread, and
    /// returns the shared service handle.
    pub fn shutdown(mut self) -> Arc<SamplingService> {
        self.stop();
        Arc::clone(&self.shared.service)
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Relaxed);
        self.shared.scheduler.shutdown();
        // Self-connect to wake the blocking accept calls.
        let _ = TcpStream::connect(self.addr);
        if let Some(m) = self.metrics_addr {
            let _ = TcpStream::connect(m);
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_handle.take() {
            let _ = h.join();
        }
        for h in self.conn_handles.lock().expect("conn handles").drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.dispatch_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CsawServer {
    fn drop(&mut self) {
        if self.accept_handle.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    handles: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Relaxed) {
            return;
        }
        shared.counters.connections.fetch_add(1, Relaxed);
        let shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("csaw-serve-conn".into())
            .spawn(move || {
                if serve_connection(stream, &shared).is_err() {
                    shared.counters.connection_errors.fetch_add(1, Relaxed);
                }
            })
            .expect("spawn connection thread");
        handles.lock().expect("conn handles").push(handle);
    }
}

/// Outcome of an interruptible frame read.
enum ReadOutcome {
    Frame(Frame),
    /// Clean EOF or shutdown while idle between frames.
    Closed,
}

/// Reads one frame, polling the shutdown flag while idle. A timeout
/// *mid-frame* keeps waiting (abandoning a half-read frame would lose
/// stream sync); shutdown mid-frame gives the peer up.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    shared: &ServerShared,
) -> Result<ReadOutcome, RecvError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut len_bytes[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(ReadOutcome::Closed);
                }
                return Err(RecvError::Io(std::io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Relaxed) {
                    return Ok(ReadOutcome::Closed);
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(WireError::EmptyFrame.into());
    }
    if len > shared.max_frame_len {
        return Err(WireError::FrameTooLarge { len }.into());
    }
    let mut body = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < body.len() {
        match stream.read(&mut body[got..]) {
            Ok(0) => return Err(RecvError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Relaxed) {
                    return Ok(ReadOutcome::Closed);
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(ReadOutcome::Frame(Frame::decode(&body)?))
}

fn send(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    write_frame(stream, frame)?;
    stream.flush()
}

fn send_error(
    stream: &mut TcpStream,
    id: u64,
    code: ErrorCode,
    retry_after: Option<Duration>,
    message: String,
) -> std::io::Result<()> {
    send(
        stream,
        &Frame::Error(ErrorFrame {
            id,
            code,
            retry_after_us: retry_after
                .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64),
            message,
        }),
    )
}

fn service_error_parts(e: &ServiceError) -> (ErrorCode, Option<Duration>) {
    match e {
        ServiceError::Invalid(_) => (ErrorCode::Invalid, None),
        ServiceError::QueueFull { retry_after } => (ErrorCode::QueueFull, Some(*retry_after)),
        ServiceError::Expired => (ErrorCode::Expired, None),
        ServiceError::BatchFailed(_) => (ErrorCode::BatchFailed, None),
        ServiceError::ShuttingDown => (ErrorCode::ShuttingDown, None),
    }
}

fn edit_error_code(e: &EditError) -> ErrorCode {
    match e {
        EditError::VertexOutOfRange { .. } => ErrorCode::EditVertexOutOfRange,
        EditError::EdgeNotFound { .. } => ErrorCode::EditEdgeNotFound,
        EditError::WeightOnUnweighted { .. } => ErrorCode::EditWeightOnUnweighted,
        EditError::BadWeight { .. } => ErrorCode::EditBadWeight,
        EditError::ImmutableStore => ErrorCode::EditImmutableStore,
    }
}

fn algo_spec_of(wire: &WireAlgo) -> Result<AlgoSpec, String> {
    let mut spec = AlgoSpec::by_name(&wire.name).map_err(|e| e.to_string())?;
    if let Some(d) = wire.depth {
        spec = spec.with_depth(d as usize);
    }
    if let Some(ns) = wire.neighbor_size {
        spec = spec.with_neighbor_size(ns as usize);
    }
    spec.pf = wire.pf.or(spec.pf);
    spec.p = wire.p.or(spec.p);
    spec.q = wire.q.or(spec.q);
    spec.p_jump = wire.p_jump.or(spec.p_jump);
    spec.p_restart = wire.p_restart.or(spec.p_restart);
    Ok(spec)
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;

    // Handshake: the first frame must be a version-compatible Hello.
    let tenant = match read_frame_interruptible(&mut stream, shared) {
        Ok(ReadOutcome::Frame(Frame::Hello { version, tenant })) => {
            if version != WIRE_VERSION {
                let _ = send_error(
                    &mut stream,
                    0,
                    ErrorCode::VersionMismatch,
                    None,
                    format!("server speaks wire version {WIRE_VERSION}, client sent {version}"),
                );
                return Ok(());
            }
            send(&mut stream, &Frame::HelloAck { version: WIRE_VERSION })?;
            tenant
        }
        Ok(ReadOutcome::Frame(_)) => {
            shared.counters.bad_frames.fetch_add(1, Relaxed);
            let _ = send_error(
                &mut stream,
                0,
                ErrorCode::BadFrame,
                None,
                "expected Hello as the first frame".into(),
            );
            return Ok(());
        }
        Ok(ReadOutcome::Closed) => return Ok(()),
        Err(RecvError::Io(e)) => return Err(e),
        Err(RecvError::Wire(e)) => {
            shared.counters.bad_frames.fetch_add(1, Relaxed);
            let _ = send_error(
                &mut stream,
                0,
                ErrorCode::BadFrame,
                None,
                format!("handshake failed: {e}"),
            );
            return Ok(());
        }
    };

    loop {
        let frame = match read_frame_interruptible(&mut stream, shared) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::Closed) => return Ok(()),
            Err(RecvError::Io(e)) => return Err(e),
            Err(RecvError::Wire(e)) => {
                shared.counters.bad_frames.fetch_add(1, Relaxed);
                let _ = send_error(
                    &mut stream,
                    0,
                    ErrorCode::BadFrame,
                    None,
                    format!("bad frame: {e}"),
                );
                return Ok(());
            }
        };
        match frame {
            Frame::Sample(sample) => handle_sample(&mut stream, shared, &tenant, sample)?,
            Frame::Mutate { id, edits } => {
                match shared.service.mutate(MutationRequest::new(edits)) {
                    Ok(resp) => send(
                        &mut stream,
                        &Frame::MutateAck {
                            id,
                            epoch: resp.epoch,
                            overlay_vertices: resp.overlay_vertices as u64,
                        },
                    )?,
                    Err(e) => {
                        send_error(&mut stream, id, edit_error_code(&e), None, e.to_string())?
                    }
                }
            }
            Frame::Compact { id } => {
                let folded = shared.service.compact() as u64;
                send(&mut stream, &Frame::CompactAck { id, folded })?;
            }
            Frame::Stats { id } => {
                let text = shared.metrics_page();
                send(&mut stream, &Frame::StatsAck { id, text })?;
            }
            Frame::Subscribe { id: _ } => return pump_events(&mut stream, shared),
            Frame::Goodbye => return Ok(()),
            other => {
                shared.counters.bad_frames.fetch_add(1, Relaxed);
                send_error(
                    &mut stream,
                    0,
                    ErrorCode::BadFrame,
                    None,
                    format!("server cannot act on {other:?}"),
                )?;
            }
        }
    }
}

/// Drives one sampling request end to end: admission through the
/// tenant gates, dispatch, result (or chunk stream), completion event.
fn handle_sample(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    tenant: &str,
    sample: SampleFrame,
) -> std::io::Result<()> {
    let wire_id = sample.id;
    let spec = match algo_spec_of(&sample.algo) {
        Ok(s) => s,
        Err(msg) => return send_error(stream, wire_id, ErrorCode::Invalid, None, msg),
    };
    // Pool-replacement algorithms (MDRW) seed ONE instance with the
    // whole list: splitting them would change the sample, so streaming
    // degrades to a single chunk.
    let splittable = match spec.build() {
        Ok(algo) => !matches!(algo.config().frontier, FrontierMode::BiasedReplace),
        Err(e) => return send_error(stream, wire_id, ErrorCode::Invalid, None, e.to_string()),
    };
    let streaming = sample.stream_chunk > 0;
    let cost = if splittable { sample.seeds.len().max(1) as f64 } else { 1.0 };
    let bytes = (sample.seeds.len() * 4 + 96) as f64;
    let chunk = sample.stream_chunk as usize;
    let seed_chunks: Vec<Vec<u32>> = if chunk > 0 && splittable && !sample.seeds.is_empty() {
        sample.seeds.chunks(chunk).map(<[u32]>::to_vec).collect()
    } else {
        vec![sample.seeds]
    };

    let deadline = sample.deadline_us.map(Duration::from_micros);
    let reqs: Vec<SamplingRequest> = seed_chunks
        .into_iter()
        .map(|seeds| {
            let mut r = SamplingRequest::new(spec, seeds)
                .with_rng_seed(sample.rng_seed)
                .with_tenant(tenant);
            r.deadline = deadline;
            r
        })
        .collect();

    let (tx, rx) = mpsc::sync_channel::<Result<Vec<Ticket>, ServiceError>>(1);
    let job: DispatchJob = Box::new(move |service: &SamplingService| {
        let _ = tx.send(service.submit_group(reqs));
    });
    if let Err(e) = shared.scheduler.admit(tenant, cost, bytes, job) {
        let (code, retry, msg) = match e {
            AdmitError::Quota { retry_after } => (
                ErrorCode::TenantQuota,
                Some(retry_after),
                format!("tenant '{tenant}' quota exhausted"),
            ),
            AdmitError::QueueFull { retry_after } => (
                ErrorCode::TenantQueueFull,
                Some(retry_after),
                format!("tenant '{tenant}' fair queue full"),
            ),
            AdmitError::ShuttingDown => {
                (ErrorCode::ShuttingDown, None, "server shutting down".into())
            }
        };
        return send_error(stream, wire_id, code, retry, msg);
    }

    // The job is in the fair queue; the dispatcher will run it. From
    // here on the scheduler MUST be told about completion exactly once.
    let submit_result = rx.recv().unwrap_or(Err(ServiceError::ShuttingDown));
    let result = match submit_result {
        Ok(tickets) => stream_tickets(stream, tenant, wire_id, streaming, tickets),
        Err(e) => {
            let (code, retry) = service_error_parts(&e);
            send_error(stream, wire_id, code, retry, e.to_string()).map(|()| None)
        }
    };
    shared.scheduler.complete(tenant);
    result.map(|event| {
        if let Some(event) = event {
            shared.notifier.publish(&event);
        }
    })
}

/// Waits on the group's tickets in admission order, writing chunks (or
/// the single response) as they complete. Returns the completion event
/// to publish, or `None` when the outcome was already reported as an
/// error mid-stream.
fn stream_tickets(
    stream: &mut TcpStream,
    tenant: &str,
    wire_id: u64,
    streaming: bool,
    tickets: Vec<Ticket>,
) -> std::io::Result<Option<EventFrame>> {
    let first_request_id = tickets.first().map_or(wire_id, Ticket::request_id);
    let mut stream_base: Option<u32> = None;
    let mut total_edges = 0u64;
    let mut total_instances = 0u32;
    let mut chunks = 0u32;
    let mut responses: Vec<SamplingResponse> = Vec::new();

    for ticket in tickets {
        match ticket.wait() {
            Ok(resp) => {
                stream_base.get_or_insert(resp.instance_base);
                total_edges += resp.stats.sampled_edges;
                total_instances += resp.output.instances.len() as u32;
                if streaming {
                    send(
                        stream,
                        &Frame::Chunk(ChunkFrame {
                            id: wire_id,
                            seq: chunks,
                            chunk_base: resp.instance_base,
                            instances: resp.output.instances,
                        }),
                    )?;
                    chunks += 1;
                } else {
                    responses.push(resp);
                }
            }
            Err(e) => {
                let (code, retry) = service_error_parts(&e);
                send_error(stream, wire_id, code, retry, e.to_string())?;
                let kind = match e {
                    ServiceError::Expired => EventKind::Expired,
                    _ => EventKind::Failed,
                };
                return Ok(Some(EventFrame {
                    request_id: first_request_id,
                    tenant: tenant.to_string(),
                    kind,
                    sampled_edges: total_edges,
                    instances: total_instances,
                }));
            }
        }
    }

    if streaming {
        send(
            stream,
            &Frame::StreamEnd(StreamEndFrame {
                id: wire_id,
                chunks,
                instance_base: stream_base.unwrap_or(0),
                sampled_edges: total_edges,
            }),
        )?;
    } else {
        let resp = responses.pop().expect("non-streaming group has one ticket");
        send(
            stream,
            &Frame::Response(ResponseFrame {
                id: wire_id,
                instance_base: resp.instance_base,
                batch_requests: resp.stats.batch_requests as u64,
                batch_instances: resp.stats.batch_instances as u64,
                queue_wait_us: resp.stats.queue_wait.as_micros().min(u128::from(u64::MAX)) as u64,
                sampled_edges: resp.stats.sampled_edges,
                instances: resp.output.instances,
            }),
        )?;
    }
    Ok(Some(EventFrame {
        request_id: first_request_id,
        tenant: tenant.to_string(),
        kind: EventKind::Completed,
        sampled_edges: total_edges,
        instances: total_instances,
    }))
}

/// Turns the connection into a dedicated event receiver until the
/// client disconnects or the server shuts down.
fn pump_events(stream: &mut TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    let rx = shared.notifier.subscribe();
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(event) => send(stream, &Frame::Event(event))?,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Relaxed) {
                    let _ = send(stream, &Frame::Goodbye);
                    return Ok(());
                }
                // Probe for a client Goodbye / disconnect without
                // blocking the event pump: one non-blocking read.
                let mut probe = [0u8; 1];
                match stream.peek(&mut probe) {
                    Ok(0) => return Ok(()), // peer closed
                    Ok(_) => {
                        // The client sent bytes; the only frame a
                        // subscribed connection may send is Goodbye, so
                        // any traffic ends the subscription.
                        return Ok(());
                    }
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => return Ok(()),
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
        }
    }
}

/// Minimal HTTP/1.1 responder for `GET /metrics` (Prometheus text
/// exposition format 0.0.4); anything else gets a 404.
fn metrics_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let mut stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.shutdown.load(Relaxed) {
            return;
        }
        stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
        let mut head = [0u8; 1024];
        let n = stream.read(&mut head).unwrap_or(0);
        let request = String::from_utf8_lossy(&head[..n]);
        let line = request.lines().next().unwrap_or("");
        let response = if line.starts_with("GET /metrics") {
            let body = shared.metrics_page();
            format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            )
        } else {
            let body = "not found; try GET /metrics\n";
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{}",
                body.len(),
                body
            )
        };
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}
