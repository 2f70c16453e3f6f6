//! Blocking TCP server: one acceptor, one IO thread per connection, and a
//! fixed worker pool of [`DatabaseReader`] handles executing queries.
//!
//! The split keeps the expensive resource — query execution over the
//! buffer pool — bounded by `workers` regardless of how many clients
//! connect, while admission control bounds how many requests may *wait*
//! for those workers. A connection thread only parses frames, consults
//! the plan cache, and shuttles results; it holds no snapshot and no
//! pages, so thousands of idle connections cost only their threads.
//!
//! Each query executes against a fresh snapshot pinned for just that
//! query, so a long-lived server never pins old writer epochs (see the
//! reader-lifetime tests in `uindex` and `btree`).
//!
//! Every server thread runs inside one server-owned telemetry registry,
//! so [`Server::stats`], the Stats sampler and the final [`ServeReport`]
//! all read the same live cells; nothing is shipped between threads.
//!
//! Shutdown protocol: set the stop flag; the acceptor (non-blocking
//! accept + poll) exits, connection threads notice via their read
//! timeouts and close, then workers drain the job queue and exit.
//! Dropping a [`Server`] runs the same protocol.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pagestore::PageStore;
use telemetry::{Registry, Span};
use uindex::DatabaseReader;

use crate::admission::{AdmissionGate, Permit};
use crate::cache::{CachedPlan, PlanCache};
use crate::proto::{
    self, DoneInfo, ErrorCode, Frame, ProtoError, WireRow, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use crate::slowlog::{SlowLog, SlowQueryEntry};
use crate::stats::{self, LiveStats, SamplerState, WorkerSlot};

/// Rows per [`Frame::RowBatch`]; large results span several batches.
const BATCH_ROWS: usize = 512;

/// Type-erased UQL parser bound to the served reader's metadata.
type ParseFn = Box<dyn Fn(&str) -> Result<uindex::Query, String> + Send + Sync>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing queries (each owns a reader clone).
    pub workers: usize,
    /// Admission bound: queries in flight (executing or queued) before
    /// requests are shed with `Overloaded`.
    pub max_inflight: usize,
    /// Per-frame payload cap; oversized frames are rejected before any
    /// allocation.
    pub max_payload: u32,
    /// Bound on the prepared-plan cache (insertion-order eviction).
    pub plan_cache_capacity: usize,
    /// How often blocked accept/read loops re-check the stop flag.
    pub poll_interval: Duration,
    /// Per-frame read deadline for untrusted clients: once the first byte
    /// of a frame arrives, the rest must follow within this budget or the
    /// connection is closed with a typed fatal error (counted as
    /// `serve.conn.deadline_closed`). `None` disables the deadline; a
    /// fully idle connection (no bytes of the next header yet) is never
    /// subject to it.
    pub read_deadline: Option<Duration>,
    /// Latency threshold for the slow-query log: only queries at or above
    /// this many microseconds compete for a slot. 0 means every query
    /// competes (the log still retains only the worst N).
    pub slow_query_us: u64,
    /// Worst-N retention of the slow-query log; 0 disables slow-query
    /// capture entirely.
    pub slow_log_capacity: usize,
    /// Sampling interval for the rolling stats window — how often the
    /// server registry is read into one interval delta.
    pub sample_interval: Duration,
    /// Intervals retained by the rolling window (e.g. 60 × 1s).
    pub window_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            plan_cache_capacity: 1024,
            poll_interval: Duration::from_millis(25),
            read_deadline: Some(Duration::from_secs(5)),
            slow_query_us: 0,
            slow_log_capacity: 32,
            sample_interval: Duration::from_secs(1),
            window_capacity: 60,
        }
    }
}

/// Monotonic counters describing a server's lifetime, readable live via
/// [`Server::stats`] and returned finally in [`ServeReport`]. A view: each
/// field is read from the one place that counts it — the server registry,
/// the admission gate (`shed`) or the plan cache (hits and misses).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames handled (queries, prepares, pings).
    pub requests: u64,
    /// Queries executed by a worker, whatever the outcome (rows, an exec
    /// error, or a panic). Shed requests and parse errors never execute.
    pub queries: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Protocol violations observed (fatal and recoverable).
    pub proto_errors: u64,
    /// Result rows produced for clients (the `serve.rows` sum).
    pub rows_sent: u64,
    /// Connections that ended with a transport error (abrupt disconnect),
    /// as opposed to a clean close at a frame boundary.
    pub disconnects: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (statements parsed).
    pub plan_cache_misses: u64,
    /// Connections closed for exceeding the per-frame read deadline.
    pub deadline_closed: u64,
    /// Queries answered from the degraded fallback path (object-store
    /// evaluation) instead of the index — still correct answers, flagged
    /// per-response in [`DoneInfo::degraded`].
    pub degraded_answers: u64,
    /// Whether the served reader's index is currently quarantined —
    /// every query is answering degraded until a clean `check()`.
    pub degraded: bool,
}

/// Final accounting handed back by [`Server::shutdown`].
pub struct ServeReport {
    /// Lifetime counters.
    pub stats: ServeStats,
    /// The server registry: `serve.*` counters, query latency and row
    /// histograms, and the engine metrics recorded while serving.
    pub metrics: telemetry::Snapshot,
}

/// What a worker hands back for one query: the rows plus execution
/// footprint, or a typed error for the wire.
type QueryOutcome = Result<(Vec<WireRow>, DoneInfo), (ErrorCode, String)>;

/// One admitted query on its way to the worker pool. The admission
/// [`Permit`] rides inside and is released when the worker finishes — or
/// when the job is dropped unexecuted during shutdown.
struct Job {
    plan: Arc<CachedPlan>,
    cached: bool,
    permit: Permit,
    reply: mpsc::Sender<QueryOutcome>,
}

/// Every update under the server's locks leaves its data valid, so a lock
/// poisoned by a panicking holder is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Set only after every connection thread has been joined, so a late
    /// job enqueued by a draining connection always finds a live worker.
    stopped: bool,
}

#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        lock(&self.state).jobs.push_back(job);
        self.cv.notify_one();
    }

    /// Block until a job arrives. `None` once the queue is stopped *and*
    /// drained: admitted queries are always answered before workers exit.
    fn pop(&self) -> Option<Job> {
        let mut state = lock(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.stopped {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Let the workers exit once the queue drains. The flag is set under
    /// the queue mutex, so no worker can check it, miss it, and then sleep
    /// through the wakeup.
    fn stop(&self) {
        lock(&self.state).stopped = true;
        self.cv.notify_all();
    }
}

struct Shared {
    stop: AtomicBool,
    /// The registry every server thread records into.
    registry: Registry,
    gate: Arc<AdmissionGate>,
    cache: PlanCache,
    queue: JobQueue,
    /// Parses UQL against the served reader's captured metadata. Boxed so
    /// `Shared` stays monomorphic over page stores.
    parse: ParseFn,
    /// Probes the served reader's shared quarantine flag — `true` while
    /// the index is quarantined and every answer is degraded. Always
    /// `false` for readers without a fallback source.
    degraded_probe: Box<dyn Fn() -> bool + Send + Sync>,
    options: ServeOptions,
    /// Monotonic query ids, assigned by workers at execution.
    query_ids: AtomicU64,
    /// Worst-N slow-query log (see [`crate::slowlog`]).
    slow_log: Mutex<SlowLog>,
    /// Rolling-window sampler state; written by the sampler thread once
    /// per interval, read by Stats handlers. Never held together with
    /// `slow_log` or the queue lock; under it a Stats handler reads only
    /// the registry, the plan cache and the gate.
    sampler: Mutex<SamplerState>,
    /// Live per-worker counters.
    workers: Vec<WorkerSlot>,
}

impl Shared {
    /// The lifetime counters, read live.
    fn stats(&self) -> ServeStats {
        let count = |name| self.registry.counter(name).get();
        let (plan_cache_hits, plan_cache_misses) = self.cache.stats();
        ServeStats {
            connections: count("serve.connections"),
            requests: count("serve.requests"),
            queries: count("serve.queries"),
            shed: self.gate.shed(),
            proto_errors: count("serve.proto_errors"),
            rows_sent: self.registry.histogram("serve.rows").sum(),
            disconnects: count("serve.disconnects"),
            plan_cache_hits,
            plan_cache_misses,
            deadline_closed: count("serve.conn.deadline_closed"),
            degraded_answers: count("serve.degraded_answers"),
            degraded: (self.degraded_probe)(),
        }
    }
}

/// Spawn a server thread inside the server registry.
fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(Arc<Shared>) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new().name(name).spawn(move || {
        shared.registry.enter();
        body(shared)
    })
}

/// A running UQL server. [`Server::shutdown`] stops it and returns the
/// final report; dropping it stops and joins everything the same way.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn the worker pool and acceptor, and start serving
    /// `reader`'s database. Returns once the listener is live.
    pub fn start<P>(reader: DatabaseReader<P>, options: ServeOptions) -> std::io::Result<Server>
    where
        P: PageStore + Send + Sync + 'static,
    {
        let listener =
            TcpListener::bind(options.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let parse_reader = reader.clone();
        let probe_reader = reader.clone();
        let worker_count = options.workers.max(1);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            registry: Registry::new(),
            gate: AdmissionGate::new(options.max_inflight),
            cache: PlanCache::new(options.plan_cache_capacity),
            queue: JobQueue::default(),
            parse: Box::new(move |text| parse_reader.parse_uql(text).map_err(|e| e.to_string())),
            degraded_probe: Box::new(move || probe_reader.quarantined()),
            query_ids: AtomicU64::new(0),
            slow_log: Mutex::new(SlowLog::new(options.slow_log_capacity)),
            sampler: Mutex::new(SamplerState::new(
                options.window_capacity,
                options.sample_interval,
            )),
            workers: (0..worker_count).map(|_| WorkerSlot::default()).collect(),
            options: options.clone(),
        });

        // Built before any thread starts, so a failed spawn drops (and so
        // stops and joins) whatever already runs.
        let mut server = Server {
            shared,
            local_addr,
            acceptor: None,
            workers: Vec::with_capacity(worker_count),
            sampler: None,
            conns: Arc::new(Mutex::new(Vec::new())),
        };
        for i in 0..worker_count {
            let reader = reader.clone();
            server.workers.push(spawn(
                &server.shared,
                format!("serve-worker-{i}"),
                move |shared| worker_loop(reader, shared, i),
            )?);
        }
        server.sampler = Some(spawn(&server.shared, "serve-sampler".into(), sampler_loop)?);
        let conns = Arc::clone(&server.conns);
        server.acceptor = Some(spawn(
            &server.shared,
            "serve-acceptor".into(),
            move |shared| accept_loop(listener, shared, conns),
        )?);
        Ok(server)
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The admission gate, exposed so tests and embedders can observe —
    /// or externally occupy — the in-flight bound.
    pub fn gate(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.shared.gate)
    }

    /// Live lifetime counters (monotonic; safe to poll while serving).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Whether the served reader is currently quarantined (every answer
    /// degraded until a clean `check()` on the owning database).
    pub fn degraded(&self) -> bool {
        (self.shared.degraded_probe)()
    }

    /// Queries currently admitted and not yet finished.
    pub fn inflight(&self) -> usize {
        self.shared.gate.inflight()
    }

    /// Stop accepting, drain in-flight work, join every thread, and
    /// return the final counters plus the server registry.
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_and_join();
        ServeReport {
            stats: self.stats(),
            metrics: self.shared.registry.snapshot(),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads observe the stop flag via their read
        // timeouts; the acceptor has stopped adding new ones.
        let conns = std::mem::take(&mut *lock(&self.conns));
        for handle in conns {
            let _ = handle.join();
        }
        // With no connection threads left, no new jobs can arrive;
        // workers drain whatever remains, then exit.
        self.shared.queue.stop();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let mut next_conn = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                telemetry::counter("serve.connections").inc();
                let handle = spawn(&shared, format!("serve-conn-{next_conn}"), move |shared| {
                    connection_loop(stream, shared)
                });
                next_conn += 1;
                match handle {
                    Ok(h) => lock(&conns).push(h),
                    Err(_) => telemetry::counter("serve.disconnects").inc(),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.options.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.options.poll_interval),
        }
    }
}

/// Read exactly `buf.len()` bytes, re-checking the stop flag on every
/// read timeout. `idle` distinguishes "waiting for the next frame" (EOF
/// and stop are clean) from "mid-frame" (EOF is truncation; stop still
/// aborts, reported as `Closed` so the caller drops the connection).
///
/// `deadline` bounds how long a *partially received* frame may stall: for
/// idle reads the clock starts at the first byte (a quiet connection that
/// has sent nothing is never killed), for payload reads at entry — the
/// header already arrived, so the connection is mid-frame by definition.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle: bool,
    stop: &AtomicBool,
    deadline: Option<Duration>,
) -> Result<(), ProtoError> {
    let mut got = 0;
    let mut started: Option<Instant> = if idle { None } else { Some(Instant::now()) };
    while got < buf.len() {
        if let (Some(limit), Some(t0)) = (deadline, started) {
            if t0.elapsed() > limit {
                return Err(ProtoError::ReadDeadline);
            }
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) if got == 0 && idle => return Err(ProtoError::Closed),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    return Err(ProtoError::Closed);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.options.poll_interval));
    let _ = stream.set_nodelay(true);
    let max_payload = shared.options.max_payload;
    let deadline = shared.options.read_deadline;

    loop {
        // Header first (idle: a close here is clean), then payload.
        let mut header = [0u8; HEADER_LEN];
        let read = read_exact_polling(&mut stream, &mut header, true, &shared.stop, deadline)
            .and_then(|()| proto::parse_header(&header, max_payload))
            .and_then(|(ty, len, crc)| {
                let mut payload = vec![0u8; len as usize];
                read_exact_polling(&mut stream, &mut payload, false, &shared.stop, deadline)?;
                proto::verify_crc(crc, &payload)?;
                proto::parse_payload(ty, &payload)
            });

        let frame = match read {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => break,
            Err(ProtoError::Io(_)) => {
                telemetry::counter("serve.disconnects").inc();
                break;
            }
            Err(err) => {
                // Framing violation: answer with a typed error. Fatal
                // errors (unframeable stream) then close; recoverable
                // ones keep serving this connection.
                if matches!(err, ProtoError::ReadDeadline) {
                    telemetry::counter("serve.conn.deadline_closed").inc();
                }
                telemetry::counter("serve.proto_errors").inc();
                let reply = Frame::Error {
                    code: ErrorCode::Proto,
                    message: err.to_string(),
                };
                if !send(&mut stream, &reply) {
                    break;
                }
                if err.is_fatal() {
                    break;
                }
                continue;
            }
        };

        telemetry::counter("serve.requests").inc();
        if !handle_request(&mut stream, frame, &shared) {
            break;
        }
    }
}

/// Write one frame; `false` (counted as a disconnect) when the transport
/// failed and the connection must close.
fn send(stream: &mut TcpStream, frame: &Frame) -> bool {
    let ok = proto::write_frame(stream, frame).is_ok();
    if !ok {
        telemetry::counter("serve.disconnects").inc();
    }
    ok
}

/// Handle one request frame; returns `false` when the connection must
/// close (transport failure writing the response).
fn handle_request(stream: &mut TcpStream, frame: Frame, shared: &Shared) -> bool {
    match frame {
        Frame::Ping => send(stream, &Frame::Pong),
        Frame::Prepare { uql } => {
            match shared
                .cache
                .lookup_or_parse(&uql, |text| parse_plan(shared, text))
            {
                Ok((id, _, _)) => send(stream, &Frame::Prepared { id }),
                Err(msg) => send(
                    stream,
                    &Frame::Error {
                        code: ErrorCode::Parse,
                        message: msg,
                    },
                ),
            }
        }
        Frame::Query { uql } => {
            match shared
                .cache
                .lookup_or_parse(&uql, |text| parse_plan(shared, text))
            {
                Ok((_, plan, hit)) => dispatch_query(stream, plan, hit, shared),
                Err(msg) => send(
                    stream,
                    &Frame::Error {
                        code: ErrorCode::Parse,
                        message: msg,
                    },
                ),
            }
        }
        Frame::Execute { id } => match shared.cache.by_id(id) {
            Some(plan) => dispatch_query(stream, plan, true, shared),
            None => send(
                stream,
                &Frame::Error {
                    code: ErrorCode::UnknownStatement,
                    message: format!("prepared statement {id} is unknown or evicted"),
                },
            ),
        },
        // Answered inline on the connection thread: no admission permit,
        // no worker dispatch, no snapshot, no buffer-pool traffic. An
        // overloaded server — even one configured with max_inflight = 0 —
        // must still answer Stats; that is the whole point of the frame.
        Frame::Stats { window_s } => {
            let json = build_stats_reply(shared, window_s);
            send(stream, &Frame::StatsReply { json })
        }
        Frame::Trace { id } => {
            let entry = lock(&shared.slow_log).get(id);
            match entry {
                Some(e) => send(stream, &Frame::TraceReply { json: e.to_json() }),
                None => send(
                    stream,
                    &Frame::Error {
                        code: ErrorCode::NotFound,
                        message: format!("query {id} is not in the slow-query log"),
                    },
                ),
            }
        }
        // A client sending response-typed frames is violating the
        // protocol, but the frame boundary is intact: recoverable.
        other @ (Frame::RowBatch { .. }
        | Frame::Done(_)
        | Frame::Error { .. }
        | Frame::Pong
        | Frame::Prepared { .. }
        | Frame::StatsReply { .. }
        | Frame::TraceReply { .. }) => {
            telemetry::counter("serve.proto_errors").inc();
            send(
                stream,
                &Frame::Error {
                    code: ErrorCode::Proto,
                    message: format!("unexpected response frame 0x{:02x} from client", {
                        // Mirror of Frame::tag, which is private by design.
                        match other {
                            Frame::RowBatch { .. } => 0x81u8,
                            Frame::Done(_) => 0x82,
                            Frame::Error { .. } => 0x83,
                            Frame::Pong => 0x84,
                            Frame::Prepared { .. } => 0x85,
                            Frame::StatsReply { .. } => 0x86,
                            _ => 0x87,
                        }
                    }),
                },
            )
        }
    }
}

/// Gather every input for a `StatsReply` without touching the admission
/// gate, the worker pool, or the buffer pool, and build the document.
fn build_stats_reply(shared: &Shared, window_s: u32) -> String {
    let workers: Vec<(u64, u64)> = shared
        .workers
        .iter()
        .map(|w| {
            (
                w.queries.load(Ordering::Relaxed),
                w.busy_us.load(Ordering::Relaxed),
            )
        })
        .collect();
    let slow = lock(&shared.slow_log).entries();
    let queued = lock(&shared.queue.state).jobs.len();
    // Live values are read under the sampler lock, after the sampler's
    // last read of the same cells: a sampled tally never exceeds live.
    let sampler = lock(&shared.sampler);
    let live = LiveStats {
        stats: shared.stats(),
        inflight: shared.gate.inflight(),
        queued,
        max_inflight: shared.gate.limit(),
        workers: shared.workers.len(),
    };
    stats::build_stats_json(&sampler, window_s, &live, &workers, &slow)
}

/// Admit, enqueue, await the worker's result, and stream it back.
/// Returns `false` when the connection must close.
fn dispatch_query(
    stream: &mut TcpStream,
    plan: Arc<CachedPlan>,
    cached: bool,
    shared: &Shared,
) -> bool {
    // Admission first: a shed request must cost nothing downstream — no
    // worker dispatch, no snapshot, no buffer-pool traffic.
    let Some(permit) = shared.gate.try_admit() else {
        let reply = Frame::Error {
            code: ErrorCode::Overloaded,
            message: format!(
                "server at max in-flight queries ({}); retry",
                shared.gate.limit()
            ),
        };
        return send(stream, &reply);
    };

    let (tx, rx) = mpsc::channel();
    shared.queue.push(Job {
        plan,
        cached,
        permit,
        reply: tx,
    });

    // The worker always sends exactly one reply (or drops the sender on
    // shutdown, surfacing as RecvError → a retryable Unavailable).
    let result = rx
        .recv()
        .unwrap_or_else(|_| Err((ErrorCode::Unavailable, "server shutting down".to_string())));

    match result {
        Ok((rows, done)) => {
            rows.chunks(BATCH_ROWS.max(1)).all(|chunk| {
                let frame = Frame::RowBatch {
                    rows: chunk.to_vec(),
                };
                send(stream, &frame)
            }) && send(stream, &Frame::Done(done))
        }
        Err((code, message)) => send(stream, &Frame::Error { code, message }),
    }
}

/// Worker loop: each worker owns a reader clone and executes queries
/// against a fresh snapshot pinned only for the duration of one query.
fn worker_loop<P: PageStore + Send + Sync>(
    reader: DatabaseReader<P>,
    shared: Arc<Shared>,
    index: usize,
) {
    let slot = &shared.workers[index];
    while let Some(job) = shared.queue.pop() {
        let Job {
            plan,
            cached,
            permit,
            reply,
        } = job;

        let id = shared.query_ids.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = reader.snapshot();
        let snapshot_epoch = snap.epoch();
        let started = Instant::now();
        // Guarded execution behind a panic boundary: a storage fault
        // degrades or maps to a typed `Unavailable`, and a worker never
        // dies mid-job — the permit is released and the client gets a
        // typed error either way.
        let result = {
            let _span = Span::enter("serve.execute");
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reader.query_guarded_at(&snap, &plan.query)
            }))
        };
        let micros = started.elapsed().as_micros() as u64;
        telemetry::counter("serve.queries").inc();
        telemetry::histogram("serve.query_us").record(micros);
        slot.queries.fetch_add(1, Ordering::Relaxed);
        slot.busy_us.fetch_add(micros, Ordering::Relaxed);

        let mut executed = None; // (rows, QueryTrace) on success
        let outcome = match result {
            Err(panic) => {
                telemetry::counter("serve.worker.panics").inc();
                Err((
                    ErrorCode::Exec,
                    format!("query execution panicked: {}", panic_message(&*panic)),
                ))
            }
            Ok(Err(e)) => Err((error_code_for(&e), e.to_string())),
            Ok(Ok((hits, stats, trace, degraded))) => {
                if degraded {
                    telemetry::counter("serve.degraded_answers").inc();
                }
                executed = Some((hits.len() as u64, trace));
                let rows: Result<Vec<WireRow>, _> = hits.iter().map(WireRow::from_hit).collect();
                match rows {
                    Err(e) => Err((ErrorCode::Exec, e.to_string())),
                    Ok(rows) => {
                        telemetry::histogram("serve.rows").record(rows.len() as u64);
                        Ok((
                            rows,
                            DoneInfo {
                                rows: hits.len() as u64,
                                pages_read: stats.pages_read,
                                entries_examined: stats.entries_examined,
                                seeks: stats.seeks,
                                micros,
                                cached_plan: cached,
                                degraded,
                            },
                        ))
                    }
                }
            }
        };

        if micros >= shared.options.slow_query_us {
            if let Some((rows, trace)) = executed {
                lock(&shared.slow_log).offer(SlowQueryEntry {
                    id,
                    uql: plan.text.clone(),
                    micros,
                    rows,
                    cached_plan: cached,
                    snapshot_epoch,
                    trace,
                });
            }
        }

        // The connection may have vanished mid-query; a dead receiver
        // just means nobody wants the answer. The permit drops either
        // way, so abandoned queries never leak admission slots.
        let _ = reply.send(outcome);
        drop(permit);
    }
}

/// Sampler loop: once per `sample_interval`, read the server registry
/// into the rolling window. The wall clock lives only here — the window
/// itself (and everything Stats computes from it) is a pure function of
/// the pushed intervals.
fn sampler_loop(shared: Arc<Shared>) {
    let interval = shared.options.sample_interval.max(Duration::from_millis(1));
    let poll = shared.options.poll_interval.max(Duration::from_millis(1));
    loop {
        // Sleep one interval in poll-size chunks so shutdown is prompt.
        let wake = Instant::now() + interval;
        loop {
            let now = Instant::now();
            if now >= wake || shared.stop.load(Ordering::Acquire) {
                break;
            }
            std::thread::sleep(poll.min(wake - now));
        }
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let snap = shared.registry.snapshot();
        lock(&shared.sampler).advance(snap);
    }
}

fn parse_plan(shared: &Shared, text: &str) -> Result<uindex::Query, String> {
    (shared.parse)(text)
}

/// Map an engine error to the wire code. Storage trouble — pages or the
/// object store — is [`ErrorCode::Unavailable`]: the data is intact, the
/// request is retryable. Everything else (planning, bad queries) is a
/// deterministic [`ErrorCode::Exec`].
fn error_code_for(e: &uindex::Error) -> ErrorCode {
    match e {
        uindex::Error::Page(_) | uindex::Error::Store(_) => ErrorCode::Unavailable,
        _ => ErrorCode::Exec,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}
