//! A hardened, multi-trace HTTP/1.1 front end for [`App`].
//!
//! Standard library only: a `TcpListener` accept thread hands
//! connections to a fixed pool of worker threads over a **bounded**
//! `mpsc` channel. Connections are keep-alive — a viewer replaying a
//! zoom path issues hundreds of tile requests on one socket — and every
//! response carries `Content-Length`, so the bundled [`Client`] can
//! pipeline request/response pairs without chunked-encoding parsing.
//!
//! Routes (all `/v1/*` query routes accept a `?trace=` selector; the
//! default is the trace the server was started with):
//!
//! | path           | answer                                            |
//! |----------------|---------------------------------------------------|
//! | `/v1/info`     | file digest, ranks, range, shape                  |
//! | `/v1/legend`   | per-category legend statistics                    |
//! | `/v1/warnings` | converter warnings + crash-forensics verdicts     |
//! | `/v1/query`    | window query (`t0`,`t1`,`ranks=0,2`)              |
//! | `/v1/tile`     | cached tile (`rank`,`zoom`,`tile`)                |
//! | `/v1/render`   | full document (`backend`,`t0`,`t1`,`width`,`overlay`) |
//! | `/v1/diagnose` | automated bottleneck verdicts (cached)            |
//! | `/v1/diff`     | baseline-vs-served trace diff (cached; 404 until a baseline is registered) |
//! | `/v1/stats`    | query + cache counters + registry occupancy       |
//! | `/v1/traces`   | GET list / POST upload (`?id=NAME`)               |
//! | `/v1/traces/{id}` | DELETE evictable trace                         |
//! | `/metrics`     | Prometheus text of the obs registry               |
//! | `/v1/obs/endpoints` | per-endpoint per-phase p50/p99 summary       |
//! | `/v1/obs/flight` | flight-recorder dump (Chrome trace-event JSON)  |
//!
//! # Overload and abuse defenses
//!
//! Every limit lives in [`Limits`](crate::registry::Limits):
//!
//! * **Bounded accept queue.** Connections beyond `queue_cap` are
//!   answered `429` straight from the accept thread; a connection that
//!   waited in the queue longer than `queue_shed` is answered `429` by
//!   the worker *without reading its request* — its client has likely
//!   timed out already, so parsing it would be pure waste.
//! * **Per-request deadline.** Armed at request start, checked at phase
//!   boundaries (post-parse, between ranks of a window query, and
//!   before the response write). Expired requests answer `503` +
//!   `Retry-After`; a finished-but-late tile compute still lands in the
//!   cache, warming the client's retry. Bodies are never truncated.
//! * **Size caps.** Request lines and headers past their caps answer
//!   `431`; `POST` without `Content-Length` answers `411`; bodies past
//!   `max_body_bytes` answer `413`. All three close the connection.
//! * **Slow-loris kill.** A client stalled mid-request past
//!   `header_deadline` answers `408` and is disconnected.
//! * **Panic isolation.** A worker panic is caught, counted
//!   (`serve.http.worker_panic`), and the connection dropped; the
//!   worker lives on to serve the next connection.
//! * **Graceful drain.** [`Server::drain`] stops accepting, answers
//!   `503` + `Connection: close` to new requests, waits up to a
//!   deadline for in-flight work, and reports what it had to abandon.
//!
//! When the app's [`ObsPlane`](crate::obsplane::ObsPlane) is enabled,
//! every request is traced: the `X-Trace-Id` header (or a generated ID,
//! echoed back in the response) names the request, and the worker
//! records queue/parse/cache/index/render/write phases into the flight
//! recorder. Tracing never touches response bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::Phase;
use pilot_vis::json::Json;
use slog2::TimeWindow;

use crate::deadline;
use crate::obsplane::{note_phase, PhaseTimer};
use crate::registry::{App, RemoveError, UploadError};

/// Default worker-pool size for `pilotd serve`.
pub const DEFAULT_WORKERS: usize = 8;

/// A running server; dropping it (or calling [`stop`](Server::stop))
/// shuts the listener and workers down.
pub struct Server {
    port: u16,
    app: Arc<App>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// What a graceful [`Server::drain`] managed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Every worker finished inside the drain deadline.
    pub drained: bool,
    /// Workers still busy when the deadline passed (their threads are
    /// left to die with the process).
    pub abandoned: usize,
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
/// `app` on `workers` threads.
pub fn serve(app: Arc<App>, addr: &str, workers: usize) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let port = listener.local_addr()?.port();
    let shutdown = Arc::new(AtomicBool::new(false));
    // Each queued connection carries its enqueue instant so the worker
    // can attribute the wait to the first request's `queue` phase, and
    // shed connections whose wait already exceeds the limit.
    let (tx, rx) = sync_channel::<(TcpStream, Instant)>(app.limits().queue_cap.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut pool = Vec::with_capacity(workers.max(1));
    for worker_idx in 0..workers.max(1) {
        let app = Arc::clone(&app);
        let rx: Arc<Mutex<Receiver<(TcpStream, Instant)>>> = Arc::clone(&rx);
        let shutdown = Arc::clone(&shutdown);
        pool.push(std::thread::spawn(move || {
            let shard = app.obs_handle().shard(worker_idx);
            let open_conns = shard.gauge("serve.http.open_conns");
            let panics = shard.counter("serve.http.worker_panic");
            let shed = shard.counter("serve.http.shed_429");
            loop {
                let conn = rx.lock().expect("worker queue poisoned").recv();
                let Ok((stream, enqueued)) = conn else {
                    break; // sender gone: server stopped
                };
                app.plane().note_dequeued();
                open_conns.add(1);
                if enqueued.elapsed() > app.limits().queue_shed {
                    // The client queued too long; its request is stale.
                    // Shed without reading a byte.
                    shed.inc();
                    reject_connection(stream, 429, "server overloaded, request shed\n");
                } else {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        handle_connection(&app, stream, &shutdown, worker_idx as u32, enqueued);
                    }));
                    if result.is_err() {
                        // The worker survives a handler panic; scrub
                        // the thread-locals the unwound request leaked.
                        panics.inc();
                        deadline::clear();
                        app.plane().abandon();
                    }
                }
                open_conns.add(-1);
            }
        }));
    }

    let accept_shutdown = Arc::clone(&shutdown);
    let accept_app = Arc::clone(&app);
    let accept = std::thread::spawn(move || {
        let full_429 = accept_app
            .obs_handle()
            .shard(0)
            .counter("serve.http.queue_full_429");
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            accept_app.plane().note_enqueued();
            match tx.try_send((stream, Instant::now())) {
                Ok(()) => {}
                Err(TrySendError::Full((stream, _))) => {
                    accept_app.plane().note_dequeued();
                    full_429.inc();
                    reject_connection(stream, 429, "accept queue full\n");
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
    });

    Ok(Server {
        port,
        app,
        shutdown,
        accept: Some(accept),
        workers: pool,
    })
}

impl Server {
    /// The bound port (useful with `127.0.0.1:0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The served app.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Signal shutdown and join every thread. In-flight requests finish
    /// (their connections close after the current response); this call
    /// blocks until every worker exits.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful drain: stop accepting, answer `503` + `Connection:
    /// close` to requests that arrive on kept-alive connections, give
    /// in-flight work up to `deadline` to finish, then abandon whatever
    /// is still running. Idempotent with [`stop`](Server::stop) — after
    /// a drain, `stop` has nothing left to join.
    pub fn drain(&mut self, deadline: Duration) -> DrainReport {
        self.app.begin_drain();
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let started = Instant::now();
        while !self.workers.iter().all(JoinHandle::is_finished) && started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut abandoned = 0usize;
        for h in self.workers.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                abandoned += 1;
                // Dropping the handle detaches the thread; it dies with
                // the process.
            }
        }
        DrainReport {
            drained: abandoned == 0,
            abandoned,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Whether `status` carries a `Retry-After` header — every reject that
/// a well-behaved client should simply retry later.
fn retryable(status: u16) -> bool {
    matches!(status, 429 | 503)
}

/// Write a minimal closing response directly to a raw stream (the shed
/// and reject paths, where no request was parsed).
fn reject_connection(stream: TcpStream, status: u16, body: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut stream = stream;
    let _ = stream.write_all(simple_response(status, body).as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn simple_response(status: u16, body: &str) -> String {
    response_head(status, "text/plain", body.len(), None, true) + body
}

/// The status line and headers of every response: `Retry-After` on a
/// retryable status, and the request's `X-Trace-Id` when it was traced.
fn response_head(
    status: u16,
    content_type: &str,
    len: usize,
    trace_id: Option<&str>,
    close: bool,
) -> String {
    let retry = if retryable(status) {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let trace = trace_id.map_or(String::new(), |id| format!("X-Trace-Id: {id}\r\n"));
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {len}\r\n{retry}{trace}Connection: {connection}\r\n\r\n",
        reason(status)
    )
}

/// One line-read attempt against a capped buffer.
enum LineRead {
    /// A full `\n`-terminated line is in the buffer.
    Line,
    /// Clean close: EOF with nothing buffered.
    Eof,
    /// The read timeout fired; partial data (if any) stays buffered.
    Timeout,
    /// The line exceeds the cap.
    TooLong,
    /// Stream error, non-UTF-8 bytes, or EOF mid-line.
    Err,
}

/// Read one line into `buf`, never holding more than `cap + 1` bytes.
/// Partial data survives timeouts, so slow senders accumulate across
/// calls instead of corrupting the stream.
fn read_capped_line(reader: &mut BufReader<TcpStream>, buf: &mut String, cap: usize) -> LineRead {
    loop {
        if buf.len() > cap {
            return LineRead::TooLong;
        }
        let remaining = (cap + 1 - buf.len()) as u64;
        let before = buf.len();
        match reader.by_ref().take(remaining).read_line(buf) {
            Ok(0) => {
                return if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Err // EOF mid-line
                };
            }
            Ok(_) => {
                if buf.ends_with('\n') {
                    return LineRead::Line;
                }
                if buf.len() > cap {
                    return LineRead::TooLong;
                }
                if buf.len() == before {
                    return LineRead::Err;
                }
                // No newline yet and under the cap: the stream hit EOF
                // mid-line (next loop sees Ok(0)) or the take limit
                // (next loop sees TooLong).
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return LineRead::Timeout;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Err,
        }
    }
}

/// Read exactly `len` body bytes, tolerating read-timeout wakeups until
/// `stall` has elapsed with the body still incomplete.
fn read_body(
    reader: &mut BufReader<TcpStream>,
    out: &mut Vec<u8>,
    len: usize,
    stall: Duration,
) -> bool {
    out.reserve(len.min(1 << 20));
    let started = Instant::now();
    let mut buf = [0u8; 8192];
    while out.len() < len {
        let want = (len - out.len()).min(buf.len());
        match reader.read(&mut buf[..want]) {
            Ok(0) => return false,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if started.elapsed() >= stall {
                    return false;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

fn handle_connection(
    app: &App,
    stream: TcpStream,
    shutdown: &AtomicBool,
    worker: u32,
    enqueued: Instant,
) {
    let limits = app.limits().clone();
    let _ = stream.set_nodelay(true);
    // The read timeout doubles as the shutdown/stall poll interval, so
    // it must not exceed the stall deadline it enforces.
    let poll = limits
        .header_deadline
        .min(Duration::from_millis(500))
        .max(Duration::from_millis(10));
    let _ = stream.set_read_timeout(Some(poll));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    // The pool-queue wait belongs to the connection's first request;
    // keep-alive successors never waited in the accept queue.
    let dequeued = Instant::now();
    let mut queue_wait = Some(dequeued.saturating_duration_since(enqueued));
    // Line buffers live across requests: keep-alive connections serve
    // hundreds of requests, and per-line String churn is measurable in
    // the serve bench.
    let mut request_line = String::new();
    let mut header_line = String::new();
    let mut body: Vec<u8> = Vec::new();
    loop {
        request_line.clear();
        // --- request line -------------------------------------------
        let mut stalled_since: Option<Instant> = None;
        loop {
            match read_capped_line(&mut reader, &mut request_line, limits.max_request_line) {
                LineRead::Line => break,
                LineRead::Eof => return, // client closed between requests
                LineRead::TooLong => {
                    let _ = writer
                        .write_all(simple_response(431, "request line too long\n").as_bytes());
                    return;
                }
                LineRead::Err => return,
                LineRead::Timeout => {
                    if request_line.is_empty() {
                        // Idle keep-alive: only shutdown/drain matter.
                        if shutdown.load(Ordering::SeqCst) || app.draining() {
                            return;
                        }
                    } else {
                        // Mid-request-line: a slow (or slow-loris)
                        // sender gets `header_deadline` of grace.
                        let since = *stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() >= limits.header_deadline {
                            let _ = writer.write_all(
                                simple_response(408, "timed out reading request\n").as_bytes(),
                            );
                            return;
                        }
                    }
                }
            }
        }
        // The request clock: for the first request it started back at
        // the accept queue (so queue wait is inside the total), and its
        // parse phase starts at dequeue, so the wait for its request
        // line is parse time and the phases tile the request; for later
        // keep-alive requests both start once the request line is in
        // (client think time must not count).
        let (req_start, parse_start) = if queue_wait.is_some() {
            (enqueued, dequeued)
        } else {
            let now = Instant::now();
            (now, now)
        };
        let mut close = false;
        let mut trace_header: Option<String> = None;
        let mut content_length: Option<usize> = None;
        let mut header_bytes = 0usize;
        // Drain headers; we care about Connection, X-Trace-Id, and
        // Content-Length. Matching is allocation-free (no lowercased
        // copies). Total header bytes are capped.
        let mut stalled_since: Option<Instant> = None;
        loop {
            header_line.clear();
            let line_cap = limits.max_header_bytes.saturating_sub(header_bytes);
            loop {
                match read_capped_line(&mut reader, &mut header_line, line_cap) {
                    LineRead::Line => break,
                    LineRead::Eof | LineRead::Err => return,
                    LineRead::TooLong => {
                        let _ = writer
                            .write_all(simple_response(431, "headers too large\n").as_bytes());
                        return;
                    }
                    LineRead::Timeout => {
                        let since = *stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() >= limits.header_deadline {
                            let _ = writer.write_all(
                                simple_response(408, "timed out reading headers\n").as_bytes(),
                            );
                            return;
                        }
                    }
                }
            }
            header_bytes += header_line.len();
            let trimmed = header_line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("connection")
                    && value
                        .split(',')
                        .any(|v| v.trim().eq_ignore_ascii_case("close"))
                {
                    close = true;
                } else if name.eq_ignore_ascii_case("x-trace-id") {
                    let v = value.trim();
                    if !v.is_empty() {
                        trace_header = Some(v.to_string());
                    }
                } else if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("/");

        // --- body ----------------------------------------------------
        body.clear();
        if method == "POST" {
            let Some(len) = content_length else {
                let _ = writer
                    .write_all(simple_response(411, "POST requires Content-Length\n").as_bytes());
                return;
            };
            if len > limits.max_body_bytes {
                let _ = writer.write_all(
                    simple_response(
                        413,
                        &format!("body of {len} bytes exceeds {}\n", limits.max_body_bytes),
                    )
                    .as_bytes(),
                );
                return;
            }
            if !read_body(&mut reader, &mut body, len, limits.header_deadline) {
                let _ =
                    writer.write_all(simple_response(408, "timed out reading body\n").as_bytes());
                return;
            }
        } else if let Some(len) = content_length {
            // Bodies on GET/DELETE are read and discarded to keep the
            // keep-alive framing intact — but still capped.
            if len > limits.max_body_bytes {
                let _ = writer
                    .write_all(simple_response(413, "unexpected oversized body\n").as_bytes());
                return;
            }
            if !read_body(&mut reader, &mut body, len, limits.header_deadline) {
                return;
            }
            body.clear();
        }
        let parse_dur = parse_start.elapsed();

        // A draining server answers every new request with a closing
        // 503; in-flight requests (already past this point) finish.
        if app.draining() {
            let _ = writer.write_all(simple_response(503, "server draining\n").as_bytes());
            return;
        }

        let trace_id = app.plane().begin(target, trace_header, worker, req_start);
        if trace_id.is_some() {
            if let Some(wait) = queue_wait {
                note_phase(Phase::Queue, Duration::ZERO, wait);
            }
            note_phase(
                Phase::Parse,
                parse_start.saturating_duration_since(req_start),
                parse_dur,
            );
        }
        queue_wait = None;

        deadline::arm(req_start + limits.deadline);
        let (status, content_type, resp_body) = route_request(app, method, target, &body);
        deadline::clear();

        let head = response_head(
            status,
            content_type,
            resp_body.len(),
            trace_id.as_deref(),
            close,
        );
        let write_phase = PhaseTimer::start(Phase::Write);
        let wrote = writer.write_all(head.as_bytes()).is_ok()
            && writer.write_all(resp_body.as_bytes()).is_ok();
        drop(write_phase);
        app.plane().finish(status, resp_body.len() as u64);
        if !wrote || close || shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Dispatch one GET target against `app` — the old single-trace entry
/// point, kept so routing tests run without sockets.
pub fn route(app: &App, target: &str) -> Reply {
    route_request(app, "GET", target, &[])
}

/// A routed response: status, content type and body. The body is
/// shared, so a cached tile is answered without copying its bytes.
pub type Reply = (u16, &'static str, Arc<String>);

fn reply(status: u16, content_type: &'static str, body: impl Into<String>) -> Reply {
    (status, content_type, Arc::new(body.into()))
}

fn retry_503() -> Reply {
    reply(503, "text/plain", "deadline exceeded\n")
}

/// Dispatch one request to the app: trace registry management under
/// `/v1/traces`, observability routes, and per-trace query routes
/// (selected by `?trace=`, defaulting to the boot trace). Split out
/// from the connection loop so tests can exercise routing without
/// sockets.
pub fn route_request(app: &App, method: &str, target: &str, body: &[u8]) -> Reply {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params: Vec<(&str, &str)> = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
        .collect();
    let get = |k: &str| params.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);

    // Registry management is the one method-sensitive corner.
    if path == "/v1/traces" {
        return match method {
            "GET" => reply(200, "application/json", app.registry().list_json()),
            "POST" => match app.registry().upload(get("id"), body) {
                Ok(out) => reply(
                    201,
                    "application/json",
                    Json::Obj(vec![
                        ("id".into(), Json::Str(out.id)),
                        ("bytes".into(), Json::Num(out.bytes as f64)),
                        ("salvaged".into(), Json::Bool(out.salvaged)),
                        ("warnings".into(), Json::Num(out.warnings as f64)),
                        ("replaced".into(), Json::Bool(out.replaced)),
                        (
                            "evicted".into(),
                            Json::Arr(out.evicted.into_iter().map(Json::Str).collect()),
                        ),
                    ])
                    .compact(),
                ),
                Err(UploadError::OverBudget { bytes, budget }) => reply(
                    413,
                    "text/plain",
                    format!("upload of {bytes} bytes exceeds registry budget of {budget}\n"),
                ),
                Err(UploadError::Invalid(why)) => reply(400, "text/plain", format!("{why}\n")),
            },
            _ => reply(405, "text/plain", "method not allowed\n"),
        };
    }
    if let Some(id) = path.strip_prefix("/v1/traces/") {
        return match method {
            "DELETE" => match app.registry().remove(id) {
                Ok(()) => reply(
                    200,
                    "application/json",
                    Json::Obj(vec![("deleted".into(), Json::Str(id.to_string()))]).compact(),
                ),
                Err(RemoveError::NotFound) => {
                    reply(404, "text/plain", format!("no trace {id:?}\n"))
                }
                Err(RemoveError::Pinned) => reply(
                    409,
                    "text/plain",
                    format!("trace {id:?} is pinned and cannot be deleted\n"),
                ),
            },
            _ => reply(405, "text/plain", "method not allowed\n"),
        };
    }
    if method != "GET" {
        return reply(405, "text/plain", "method not allowed\n");
    }

    // Phase boundary: don't start work for a request that already blew
    // its deadline waiting in the queue.
    if deadline::expired() {
        return retry_503();
    }

    // App-level routes need no trace resolution.
    match path {
        "/metrics" => return reply(200, "text/plain; version=0.0.4", app.metrics_text()),
        "/v1/obs/endpoints" => return reply(200, "application/json", app.plane().endpoints_json()),
        "/v1/obs/flight" => return reply(200, "application/json", app.plane().flight_json()),
        _ => {}
    }

    let trace_sel = get("trace");
    let Some(entry) = app.registry().get(trace_sel) else {
        return reply(
            404,
            "text/plain",
            format!("no trace {:?}\n", trace_sel.unwrap_or("default")),
        );
    };
    let svc = &entry.service;

    macro_rules! param {
        ($name:literal as $ty:ty, default $default:expr) => {
            match get($name) {
                None => $default,
                Some(raw) => match raw.parse::<$ty>() {
                    Ok(v) => v,
                    Err(_) => return reply(400, "text/plain", format!("bad {}: {raw:?}\n", $name)),
                },
            }
        };
    }

    let resp = match path {
        "/v1/info" => reply(200, "application/json", svc.info_json()),
        "/v1/legend" => reply(200, "application/json", svc.legend_json()),
        "/v1/warnings" => reply(200, "application/json", svc.warnings_json()),
        "/v1/stats" => {
            let mut fields = svc.stats_fields();
            fields.extend(app.registry().stats_fields());
            reply(200, "application/json", Json::Obj(fields).compact())
        }
        "/v1/diagnose" => (200, "application/json", svc.diagnose_json()),
        "/v1/diff" => match svc.diff_json() {
            Some(body) => (200, "application/json", body),
            None => reply(
                404,
                "text/plain",
                "no baseline registered (start pilotd with --baseline)\n",
            ),
        },
        "/v1/query" => {
            let range = svc.file().range;
            let t0 = param!("t0" as f64, default range.t0);
            let t1 = param!("t1" as f64, default range.t1);
            let ranks: Option<Vec<u32>> = match get("ranks") {
                None | Some("") => None,
                Some(raw) => {
                    let mut out = Vec::new();
                    for piece in raw.split(',') {
                        match piece.parse::<u32>() {
                            Ok(r) => out.push(r),
                            Err(_) => {
                                return reply(400, "text/plain", format!("bad ranks: {raw:?}\n"))
                            }
                        }
                    }
                    Some(out)
                }
            };
            // The bounded variant aborts between ranks once the
            // deadline passes — no truncated bodies, just a 503.
            match svc.query_json_bounded(TimeWindow::new(t0, t1), ranks.as_deref()) {
                Some(body) => reply(200, "application/json", body),
                None => return retry_503(),
            }
        }
        "/v1/tile" => {
            let rank = param!("rank" as u32, default 0);
            let zoom = param!("zoom" as u8, default 0);
            let tile = param!("tile" as u32, default 0);
            match svc.tile_json(rank, zoom, tile) {
                Some(body) => (200, "application/json", body),
                None => reply(
                    404,
                    "text/plain",
                    format!("no tile {tile} at zoom {zoom}\n"),
                ),
            }
        }
        "/v1/render" => {
            let backend = get("backend").unwrap_or("svg");
            let width = param!("width" as u32, default 1280);
            let window = match (get("t0"), get("t1")) {
                (None, None) => None,
                _ => {
                    let range = svc.file().range;
                    let t0 = param!("t0" as f64, default range.t0);
                    let t1 = param!("t1" as f64, default range.t1);
                    Some(TimeWindow::new(t0, t1))
                }
            };
            let overlay = matches!(get("overlay"), Some("1") | Some("critical") | Some("true"));
            match svc.render(backend, window, width, overlay) {
                Some((ct, body)) => reply(200, ct, body),
                None => reply(404, "text/plain", format!("unknown backend {backend:?}\n")),
            }
        }
        _ => reply(404, "text/plain", format!("no route {path:?}\n")),
    };
    // Phase boundary: a response computed past its deadline is thrown
    // away (the compute still warmed the cache for the retry).
    if resp.0 == 200 && deadline::expired() {
        return retry_503();
    }
    resp
}

/// A parsed HTTP response, headers included.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The body (responses here are always text).
    pub body: String,
    /// Whether the server signalled `Connection: close`.
    pub closed: bool,
}

impl HttpResponse {
    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive HTTP/1.1 client for one pilotd connection. Used by the
/// server tests, `repro serve-bench`, and the chaos harness.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:8080`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Issue `GET path` on the persistent connection; returns
    /// `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.send("GET", path, &[], None)
            .map(|r| (r.status, r.body))
    }

    /// Like [`get`](Self::get) but with an `X-Trace-Id` header, so the
    /// request is findable in `/v1/obs/flight` by name.
    pub fn get_traced(&mut self, path: &str, trace_id: &str) -> std::io::Result<(u16, String)> {
        self.send("GET", path, &[("X-Trace-Id", trace_id)], None)
            .map(|r| (r.status, r.body))
    }

    /// `GET` returning the full response, headers included.
    pub fn get_full(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.send("GET", path, &[], None)
    }

    /// `POST path` with a binary body (`Content-Length` framing).
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<HttpResponse> {
        self.send("POST", path, &[], Some(body))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.send("DELETE", path, &[], None)
    }

    /// Issue one request and parse the response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> std::io::Result<HttpResponse> {
        let mut request = format!("{method} {path} HTTP/1.1\r\nHost: pilotd\r\n");
        for (name, value) in headers {
            request.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        request.push_str("Connection: keep-alive\r\n\r\n");
        self.reader.get_mut().write_all(request.as_bytes())?;
        if let Some(body) = body {
            self.reader.get_mut().write_all(body)?;
        }

        let mut status_line = String::new();
        self.reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;

        let mut content_length = 0usize;
        let mut headers = Vec::new();
        let mut closed = false;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, v)) = trimmed.split_once(':') {
                let name = name.to_ascii_lowercase();
                let v = v.trim().to_string();
                if name == "content-length" {
                    content_length = v.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name == "connection" && v.eq_ignore_ascii_case("close") {
                    closed = true;
                }
                headers.push((name, v));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 body"))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
            closed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Limits;
    use crate::service::TimelineService;
    use mpelog::Color;
    use slog2::{
        Category, CategoryId, CategoryKind, Drawable, FrameTree, Slog2File, StateDrawable,
        TimelineId,
    };

    fn demo_file(ranks: u32, states: usize) -> Slog2File {
        let mut ds = Vec::new();
        for r in 0..ranks {
            for i in 0..states {
                ds.push(Drawable::State(StateDrawable {
                    category: CategoryId(0),
                    timeline: TimelineId(r),
                    start: i as f64,
                    end: i as f64 + 0.5,
                    nest_level: 0,
                    text: String::new(),
                }));
            }
        }
        let range = TimeWindow::new(0.0, states as f64);
        Slog2File {
            timelines: (0..ranks)
                .map(|r| {
                    if r == 0 {
                        "PI_MAIN".into()
                    } else {
                        format!("P{r}")
                    }
                })
                .collect(),
            categories: vec![Category {
                index: CategoryId(0),
                name: "Compute".into(),
                color: Color::GRAY,
                kind: CategoryKind::State,
            }],
            range,
            warnings: vec![],
            tree: FrameTree::build(ds, range.t0, range.t1, 16, 8),
        }
    }

    fn service() -> TimelineService {
        TimelineService::from_file(demo_file(2, 8))
    }

    fn app() -> Arc<App> {
        App::single(service())
    }

    #[test]
    fn serves_info_over_a_socket() {
        let app = app();
        let expected = app.registry().default_trace().service.info_json();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        let (status, body) = client.get("/v1/info").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, expected);
        server.stop();
    }

    #[test]
    fn keep_alive_serves_many_requests_per_connection() {
        let mut server = serve(app(), "127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        for path in [
            "/v1/legend",
            "/v1/warnings",
            "/v1/stats",
            "/v1/query?t0=1&t1=2",
        ] {
            let (status, body) = client.get(path).unwrap();
            assert_eq!(status, 200, "{path}");
            assert!(!body.is_empty(), "{path}");
        }
        server.stop();
    }

    #[test]
    fn socket_bodies_match_in_process_calls() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 4).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        let svc = app.registry().default_trace();
        let (_, over_wire) = client.get("/v1/query?t0=0.5&t1=3.5&ranks=1").unwrap();
        assert_eq!(
            over_wire,
            svc.service
                .query_json(TimeWindow::new(0.5, 3.5), Some(&[1]))
        );
        let (_, tile) = client.get("/v1/tile?rank=0&zoom=2&tile=1").unwrap();
        assert_eq!(tile, *svc.service.tile_json(0, 2, 1).unwrap());
        server.stop();
    }

    #[test]
    fn diagnose_route_returns_cached_verdict_json() {
        let app = app();
        let (status, ct, body) = route(&app, "/v1/diagnose");
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        let v = pilot_vis::json::Json::parse(&body).unwrap();
        assert!(v.get("verdicts").is_some(), "{body}");
        // Cached: the second request is answered with the same buffer.
        let (_, _, again) = route(&app, "/v1/diagnose");
        assert!(Arc::ptr_eq(&body, &again));
    }

    #[test]
    fn diff_route_is_404_until_a_baseline_is_registered() {
        let app = app();
        let (status, _, body) = route(&app, "/v1/diff");
        assert_eq!(status, 404);
        assert!(body.contains("no baseline"), "{body}");
    }

    #[test]
    fn diff_route_serves_cached_verdict_json_with_baseline() {
        let mut inner = service();
        inner.set_baseline(demo_file(2, 8), "baseline.pslog2");
        let app = App::single(inner);
        let (status, ct, body) = route(&app, "/v1/diff");
        assert_eq!(status, 200);
        assert_eq!(ct, "application/json");
        let v = pilot_vis::json::Json::parse(&body).unwrap();
        assert_eq!(
            v.get("schema").and_then(pilot_vis::json::Json::as_str),
            Some("pilot-vis-diff-v1")
        );
        assert_eq!(
            v.get("before")
                .and_then(|b| b.get("label"))
                .and_then(pilot_vis::json::Json::as_str),
            Some("baseline.pslog2")
        );
        // Cached: the second request is answered with the same buffer.
        let (_, _, again) = route(&app, "/v1/diff");
        assert!(Arc::ptr_eq(&body, &again));
    }

    #[test]
    fn render_route_accepts_critical_overlay() {
        let app = app();
        let (status, _, body) = route(&app, "/v1/render?backend=svg&overlay=critical");
        assert_eq!(status, 200);
        assert!(body.contains("class=\"critical-path\""), "{body}");
        let (_, _, plain) = route(&app, "/v1/render?backend=svg");
        assert!(!plain.contains("class=\"critical-path\""));
    }

    #[test]
    fn routes_reject_bad_input() {
        let app = app();
        assert_eq!(route(&app, "/v1/query?t0=potato").0, 400);
        assert_eq!(route(&app, "/v1/query?ranks=1,x").0, 400);
        assert_eq!(route(&app, "/v1/tile?rank=0&zoom=30&tile=0").0, 404);
        assert_eq!(route(&app, "/v1/render?backend=nope").0, 404);
        assert_eq!(route(&app, "/nowhere").0, 404);
        assert_eq!(route(&app, "/v1/info?trace=ghost").0, 404);
    }

    #[test]
    fn render_route_serves_every_backend() {
        let app = app();
        for backend in ["svg", "ascii", "html", "hist"] {
            let (status, _, body) = route(&app, &format!("/v1/render?backend={backend}&width=320"));
            assert_eq!(status, 200, "{backend}");
            assert!(!body.is_empty(), "{backend}");
        }
        let (status, _, windowed) = route(&app, "/v1/render?backend=svg&t0=1&t1=2");
        assert_eq!(status, 200);
        assert!(windowed.contains("<svg"));
    }

    #[test]
    fn concurrent_clients_get_consistent_tiles() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 4).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let expected = app
            .registry()
            .default_trace()
            .service
            .tile_json(0, 3, 5)
            .unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).unwrap();
                    c.get("/v1/tile?rank=0&zoom=3&tile=5").unwrap()
                })
            })
            .collect();
        for h in handles {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, *expected);
        }
        server.stop();
    }

    #[test]
    fn upload_select_query_delete_roundtrip_over_sockets() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();

        let upload = demo_file(3, 5).to_bytes();
        let resp = client.post("/v1/traces?id=exp1", &upload).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.body);
        let v = pilot_vis::json::Json::parse(&resp.body).unwrap();
        assert_eq!(v.get("id").unwrap().as_str().unwrap(), "exp1");

        let (status, listing) = client.get("/v1/traces").unwrap();
        assert_eq!(status, 200);
        assert!(listing.contains("\"exp1\""), "{listing}");

        // The ?trace= selector reaches the uploaded trace; the default
        // answers without it.
        let (status, info) = client.get("/v1/info?trace=exp1").unwrap();
        assert_eq!(status, 200);
        assert!(info.contains("\"P2\""), "{info}");
        let (status, tile) = client
            .get("/v1/tile?trace=exp1&rank=2&zoom=1&tile=0")
            .unwrap();
        assert_eq!(status, 200);
        assert!(!tile.is_empty());
        let (status, _) = client.get("/v1/info").unwrap();
        assert_eq!(status, 200);

        let resp = client.delete("/v1/traces/exp1").unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (status, _) = client.get("/v1/info?trace=exp1").unwrap();
        assert_eq!(status, 404);
        let resp = client.delete("/v1/traces/default").unwrap();
        assert_eq!(resp.status, 409);
        let resp = client.delete("/v1/traces/ghost").unwrap();
        assert_eq!(resp.status, 404);
        server.stop();
    }

    #[test]
    fn post_without_content_length_is_411() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        stream
            .write_all(b"POST /v1/traces HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        BufReader::new(&stream).read_line(&mut resp).unwrap();
        assert!(resp.contains("411"), "{resp}");
        server.stop();
    }

    #[test]
    fn oversized_request_line_is_431() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        let long = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "x".repeat(app.limits().max_request_line + 10)
        );
        stream.write_all(long.as_bytes()).unwrap();
        let mut resp = String::new();
        BufReader::new(&stream).read_line(&mut resp).unwrap();
        assert!(resp.contains("431"), "{resp}");
        server.stop();
    }

    #[test]
    fn oversized_headers_are_431() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        let mut req = String::from("GET /v1/info HTTP/1.1\r\n");
        for i in 0..40 {
            req.push_str(&format!("X-Pad-{i}: {}\r\n", "y".repeat(1024)));
        }
        req.push_str("\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut resp = String::new();
        BufReader::new(&stream).read_line(&mut resp).unwrap();
        assert!(resp.contains("431"), "{resp}");
        server.stop();
    }

    #[test]
    fn slow_loris_is_cut_off_with_408() {
        let limits = Limits {
            header_deadline: Duration::from_millis(80),
            ..Limits::default()
        };
        let app = Arc::new(App::new(service(), limits));
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut stream = TcpStream::connect(format!("127.0.0.1:{}", server.port())).unwrap();
        stream.write_all(b"GET /v1/inf").unwrap(); // ...and never finish
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut resp = String::new();
        BufReader::new(&stream).read_line(&mut resp).unwrap();
        assert!(resp.contains("408"), "{resp}");
        server.stop();
    }

    #[test]
    fn expired_deadline_yields_503_with_retry_after() {
        let limits = Limits {
            deadline: Duration::ZERO, // every request is already late
            ..Limits::default()
        };
        let app = Arc::new(App::new(service(), limits));
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        let resp = client.get_full("/v1/query").unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        server.stop();
    }

    #[test]
    fn drain_rejects_new_requests_and_reports() {
        let app = app();
        let mut server = serve(Arc::clone(&app), "127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        let (status, _) = client.get("/v1/info").unwrap();
        assert_eq!(status, 200);
        let report = server.drain(Duration::from_secs(2));
        assert!(report.drained, "{report:?}");
        assert_eq!(report.abandoned, 0);
        // The kept-alive connection gets a closing 503 on its next
        // request (or a clean close if the worker exited first).
        if let Ok(resp) = client.get_full("/v1/info") {
            assert_eq!(resp.status, 503);
            assert!(resp.closed);
        } // Err: worker already gone, clean close — also fine.
    }
}
