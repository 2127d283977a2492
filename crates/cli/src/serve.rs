//! `tpnc serve`: the long-running front-end over [`tpn_service`].
//!
//! Requests are newline-delimited JSON objects (see
//! [`tpn_service::protocol`]); responses come back one per line, in
//! completion order, each echoing the request's `id` (and, for v2
//! envelopes, its `"v"`). The front-end speaks stdin/stdout by default,
//! or any number of `--socket PATH` (Unix-domain) and `--tcp ADDR`
//! listeners. Either way every connection runs through one non-blocking
//! poll loop: per-connection read buffers with a request-line cap,
//! bounded write buffers, and back-pressure that simply stops reading
//! from a connection whose responses it cannot drain. Workers send each
//! response into its connection's reply channel, so no thread waits on
//! a request. `--store DIR` persists compiled artifacts across
//! restarts, `--rate-limit`/`--burst`/`--max-in-flight` switch on
//! per-client fairness, and `--self-test` runs the in-process soak
//! client.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use serde::Serialize;
use tpn_service::protocol::{self, ParseError, Request, Verb, MAX_LINE};
use tpn_service::{
    journal_response_v, metrics_prometheus_response_v, metrics_response_v, Canceller, RateLimit,
    Rejected, Response, Service, ServiceConfig,
};

use crate::output::{OutputFormat, Render};
use crate::Invocation;

/// In-memory capacity of the serve front-end's request-journal ring:
/// the window the `journal` verb can look back over.
const JOURNAL_RING: usize = 256;

/// Per-connection write-buffer cap: past this, the poll loop stops
/// reading from the connection until its responses drain (back-pressure
/// instead of unbounded buffering).
const WRITE_BUF_CAP: usize = 256 * 1024;

/// Bytes taken per read, from a socket or from the stdin reader thread.
const CHUNK: usize = 4096;

/// The poll loop's sleep when a full pass over listeners, channels and
/// connections made no progress.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Builds the service configuration from the invocation's flags
/// (`--jobs` workers, `--queue` capacity, `--cache` weight, `--store`
/// persistence, `--rate-limit`/`--burst`/`--max-in-flight` fairness).
/// The serve front-end always keeps the request journal's in-memory
/// ring — the `journal` verb reads it — while embedded [`Service`]
/// users keep the zero-cost default of no journal at all; `--journal
/// FILE` additionally streams every event to FILE as NDJSON.
fn config(invocation: &Invocation) -> Result<ServiceConfig, String> {
    let mut builder = ServiceConfig::builder().journal(JOURNAL_RING);
    if let Some(jobs) = invocation.jobs {
        builder = builder.workers(jobs);
    }
    if let Some(queue) = invocation.queue {
        builder = builder.queue(queue);
    }
    if let Some(cache) = invocation.cache {
        builder = builder.cache(cache);
    }
    if let Some(store) = &invocation.store {
        builder = builder.store(store);
    }
    if let Some(rate) = invocation.rate_limit {
        builder = builder.rate_limit(RateLimit {
            per_second: rate,
            burst: invocation.burst.unwrap_or(rate),
            max_in_flight: invocation.max_in_flight.unwrap_or(64),
        });
    }
    builder.build().map_err(|e| e.to_string())
}

/// Opens `--journal FILE` (truncating) and plugs it into the service as
/// the journal's NDJSON sink.
fn attach_journal_sink(service: &Service, invocation: &Invocation) -> Result<(), String> {
    if let Some(path) = &invocation.journal {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("error creating journal file {path}: {e}"))?;
        service.set_journal_sink(Box::new(file));
    }
    Ok(())
}

/// Entry point of `tpnc serve`.
///
/// # Errors
///
/// Socket/bind, store, and I/O failures, or (in `--self-test` mode) a
/// summary of any soak failure.
pub fn run(invocation: &Invocation) -> Result<(), String> {
    if invocation.self_test {
        return self_test(invocation);
    }
    let service = Service::try_start(config(invocation)?)
        .map_err(|e| format!("error starting service: {e}"))?;
    attach_journal_sink(&service, invocation)?;
    if invocation.sockets.is_empty() && invocation.tcp.is_empty() {
        serve(&service, &[], Some(stdio()))
    } else {
        serve(&service, &bind_listeners(invocation)?, None)
    }
}

/// Routes one request line arriving on `conn`: front-end verbs and
/// rejections are answered at once, everything else is submitted with
/// the connection's reply channel.
fn route_line(service: &Service, conn: &mut Conn, line: &str) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(ParseError::UnsupportedVersion { id, v }) => {
            return conn.respond(&protocol::error_envelope(
                1,
                id.unwrap_or(0),
                None,
                "unsupported_version",
                &format!("unsupported envelope version {v} (this server speaks 1 and 2)"),
                None,
                None,
            ));
        }
        Err(ParseError::Bad(message)) => {
            // Best effort to echo the id even when the request is
            // malformed beyond it.
            let id = protocol::parse_json(line)
                .ok()
                .and_then(|v| match v.get("id") {
                    Some(protocol::JsonValue::Num(n)) if *n >= 0.0 => Some(*n as u64),
                    _ => None,
                })
                .unwrap_or(0);
            return conn.respond(&protocol::error_line(
                id,
                None,
                "bad_request",
                &message,
                None,
            ));
        }
    };
    let (v, id) = (request.v, request.id);
    let response = match request.verb {
        Verb::Metrics => metrics_response_v(service, id, v).line,
        Verb::MetricsPrometheus => metrics_prometheus_response_v(service, id, v).line,
        Verb::Journal => journal_response_v(service, id, v).line,
        Verb::Cancel => {
            let target = request.target.expect("protocol validated cancel target");
            let mut delivered = false;
            for (_, canceller) in conn.in_flight.iter().filter(|(id, _)| *id == target) {
                canceller.cancel();
                delivered = true;
            }
            protocol::ok_envelope(
                v,
                id,
                Verb::Cancel,
                &format!("{{\"target\":{target},\"in_flight\":{delivered}}}"),
            )
        }
        _ => match service.submit(request, conn.reply.clone()) {
            Err(Rejected::Overloaded(overloaded)) => protocol::error_envelope(
                v,
                id,
                None,
                "overloaded",
                &overloaded.to_string(),
                Some(overloaded.depth),
                None,
            ),
            Err(Rejected::RateLimited(limited)) => protocol::error_envelope(
                v,
                id,
                None,
                "rate_limited",
                &limited.to_string(),
                None,
                Some(limited.retry_after_ms),
            ),
            Ok(canceller) => return conn.in_flight.push((id, canceller)),
        },
    };
    conn.respond(&response);
}

// ---------------------------------------------------------------------------
// The non-blocking poll loop: every connection, stdio included.
// ---------------------------------------------------------------------------

/// Stdin/stdout as one connection. Safe std cannot make stdin
/// non-blocking, so one reader thread feeds it to the loop in chunks of
/// at most [`CHUNK`] bytes; the bounded channel keeps it from reading
/// ahead of a loop that has stopped reading. The thread is detached: it
/// may sit in a read the loop cannot interrupt, and ends at EOF or with
/// the process.
fn stdio() -> Stream {
    let (chunks, input) = mpsc::sync_channel(1);
    std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        let mut chunk = [0u8; CHUNK];
        loop {
            match stdin.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    if chunks.send(Ok(chunk[..n].to_vec())).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    let _ = chunks.send(Err(e));
                    break;
                }
            }
        }
    });
    Stream::Stdio(input, Box::new(io::stdout()))
}

/// One bound, non-blocking listening socket.
enum Listener {
    /// A Unix-domain listener (`--socket PATH`).
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    /// A TCP listener (`--tcp ADDR`).
    Tcp(TcpListener),
}

/// One connection's byte stream.
enum Stream {
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
    /// Stdin chunks from the reader thread in; blocking, flushed writes
    /// out.
    Stdio(mpsc::Receiver<io::Result<Vec<u8>>>, Box<dyn Write>),
}

impl Listener {
    /// Accepts one pending connection, already switched to
    /// non-blocking.
    fn accept(&self) -> io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Stream::Unix(stream))
            }
            Listener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.read(buf),
            Stream::Tcp(stream) => stream.read(buf),
            Stream::Stdio(input, _) => match input.try_recv() {
                Ok(chunk) => {
                    // The reader thread's chunks fit the loop's CHUNK
                    // buffer.
                    let chunk = chunk?;
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                Err(mpsc::TryRecvError::Empty) => Err(io::ErrorKind::WouldBlock.into()),
                Err(mpsc::TryRecvError::Disconnected) => Ok(0),
            },
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.write(buf),
            Stream::Tcp(stream) => stream.write(buf),
            Stream::Stdio(_, output) => {
                output.write_all(buf)?;
                output.flush()?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(stream) => stream.flush(),
            Stream::Tcp(stream) => stream.flush(),
            Stream::Stdio(_, output) => output.flush(),
        }
    }
}

/// Binds every `--socket` and `--tcp` listener, non-blocking.
fn bind_listeners(invocation: &Invocation) -> Result<Vec<Listener>, String> {
    let mut listeners = Vec::new();
    for path in &invocation.sockets {
        listeners.push(bind_unix(path)?);
    }
    for addr in &invocation.tcp {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("error binding tcp {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("error configuring tcp {addr}: {e}"))?;
        eprintln!("tpnc serve: listening on tcp {addr}");
        listeners.push(Listener::Tcp(listener));
    }
    Ok(listeners)
}

#[cfg(unix)]
fn bind_unix(path: &str) -> Result<Listener, String> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would fail the bind.
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path).map_err(|e| format!("error removing stale {path}: {e}"))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("error binding socket {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("error configuring socket {path}: {e}"))?;
    eprintln!("tpnc serve: listening on {path}");
    Ok(Listener::Unix(listener))
}

#[cfg(not(unix))]
fn bind_unix(_path: &str) -> Result<Listener, String> {
    Err("--socket requires a Unix platform".to_string())
}

/// One multiplexed connection's state in the poll loop.
struct Conn {
    stream: Stream,
    /// Bytes received but not yet terminated by a newline.
    read_buf: Vec<u8>,
    /// Set by an over-long line until its newline arrives.
    discarding: bool,
    /// Response bytes not yet accepted by the peer.
    write_buf: Vec<u8>,
    /// Cleared on EOF or a read error; the connection then only drains.
    reading: bool,
    /// Set on a write error; the connection is dropped outright.
    dead: bool,
    /// The sender goes with every request this connection submits; the
    /// loop collects the responses from the receiver.
    reply: mpsc::Sender<Response>,
    replies: mpsc::Receiver<Response>,
    /// Admitted requests not yet answered, by id: the `cancel` verb's
    /// scope.
    in_flight: Vec<(u64, Canceller)>,
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        let (reply, replies) = mpsc::channel();
        Conn {
            stream,
            read_buf: Vec::new(),
            discarding: false,
            write_buf: Vec::new(),
            reading: true,
            dead: false,
            reply,
            replies,
            in_flight: Vec::new(),
        }
    }

    /// Queues one response line for writing.
    fn respond(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Feeds newly read bytes in: routes every line they complete, and
    /// rejects a line that reaches [`MAX_LINE`] bytes with no newline.
    fn feed(&mut self, service: &Service, mut bytes: &[u8]) {
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            if self.discarding {
                self.discarding = false;
            } else {
                self.read_buf.extend_from_slice(&bytes[..pos]);
                let raw = std::mem::take(&mut self.read_buf);
                let line = String::from_utf8_lossy(&raw);
                let line = line.trim();
                if !line.is_empty() {
                    route_line(service, self, line);
                }
            }
            bytes = &bytes[pos + 1..];
        }
        if !self.discarding {
            self.read_buf.extend_from_slice(bytes);
        }
        if self.read_buf.len() >= MAX_LINE {
            self.read_buf = Vec::new();
            self.discarding = true;
            self.respond(&protocol::error_line(
                0,
                None,
                "bad_request",
                &format!("request line exceeds {MAX_LINE} bytes"),
                None,
            ));
        }
    }
}

/// The one request loop: multiplexes every listener and connection,
/// stdio included, on one thread. Compilation runs on the service's
/// worker pool, which sends each response into its connection's reply
/// channel, so no thread blocks on a request, and one slow or stalled
/// peer cannot starve the rest: its write buffer fills, the loop stops
/// reading from it, and everyone else keeps flowing. Returns once no
/// listener and no connection is left (stdio after EOF, with every
/// reply written), failing with the last connection I/O error if there
/// was one; with listeners it runs until the process is killed.
fn serve(service: &Service, listeners: &[Listener], stdio: Option<Stream>) -> Result<(), String> {
    let mut conns: Vec<Conn> = stdio.into_iter().map(Conn::new).collect();
    let mut result = Ok(());
    while !listeners.is_empty() || !conns.is_empty() {
        let mut progress = false;

        // Accept every pending connection on every listener.
        for listener in listeners {
            loop {
                match listener.accept() {
                    Ok(stream) => {
                        conns.push(Conn::new(stream));
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("error accepting connection: {e}")),
                }
            }
        }

        for conn in &mut conns {
            // Collect the responses workers have sent.
            while let Ok(response) = conn.replies.try_recv() {
                progress = true;
                if let Some(at) = conn.in_flight.iter().position(|(id, _)| *id == response.id) {
                    conn.in_flight.swap_remove(at);
                }
                conn.respond(&response.line);
            }

            // Read and route, pausing a connection over its write cap.
            let mut chunk = [0u8; CHUNK];
            while conn.reading && conn.write_buf.len() < WRITE_BUF_CAP {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.reading = false;
                        // The last line may end at EOF, not a newline.
                        conn.feed(service, b"\n");
                    }
                    Ok(n) => {
                        progress = true;
                        conn.feed(service, &chunk[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        conn.reading = false;
                        result = Err(format!("error reading request: {e}"));
                    }
                }
            }

            // Flush as much of the write buffer as the peer accepts.
            while !conn.write_buf.is_empty() {
                match conn.stream.write(&conn.write_buf) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_buf.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        conn.dead = true;
                        result = Err(format!("error writing response: {e}"));
                        break;
                    }
                }
            }
        }

        // Reap finished and broken connections; a dropped receiver
        // discards any reply still owed to a dead one.
        let open = conns.len();
        conns.retain(|conn| {
            !conn.dead && (conn.reading || !conn.in_flight.is_empty() || !conn.write_buf.is_empty())
        });
        progress |= conns.len() != open;

        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    result
}

// ---------------------------------------------------------------------------
// --self-test: the in-process soak client.
// ---------------------------------------------------------------------------

/// The soak summary printed (as one JSON line) by `serve --self-test`.
#[derive(Serialize)]
struct SelfTestJson {
    command: String,
    workers: usize,
    requests: u64,
    distinct_keys: usize,
    errors: u64,
    overloaded_typed: u64,
    rate_limited_typed: u64,
    identity_checks: usize,
    journal_events: usize,
    hit_rate: f64,
    p50_micros: u64,
    p99_micros: u64,
}

impl Render for SelfTestJson {
    fn render_text(&self) -> String {
        format!(
            "serve self-test: {} requests, {} errors, hit rate {:.3}, p50 {} us, p99 {} us",
            self.requests, self.errors, self.hit_rate, self.p50_micros, self.p99_micros
        )
    }
}

/// A pool of distinct loop sources (1–3 nodes) for the soak.
fn source_pool(distinct: usize) -> Vec<String> {
    (0..distinct)
        .map(|i| {
            let nodes = i % 3 + 1;
            let body: String = (0..nodes)
                .map(|j| format!("X{j}[i] := X{j}[i-1] + {}; ", i + 1))
                .collect();
            format!("do i from 2 to n {{ {body}}}")
        })
        .collect()
}

fn soak_request(id: u64, pool: &[String]) -> Request {
    let verb_cycle = [
        (Verb::Analyze, None),
        (Verb::Schedule, None),
        (Verb::Rate, None),
        (Verb::Scp, Some(2)),
        (Verb::Trace, None),
        (Verb::Storage, None),
    ];
    let (verb, depth) = verb_cycle[id as usize % verb_cycle.len()];
    let mut request = Request::basic(id, verb, pool[id as usize % pool.len()].clone());
    request.depth = depth;
    request
}

fn self_test(invocation: &Invocation) -> Result<(), String> {
    let workers = invocation
        .jobs
        .unwrap_or_else(tpn::batch::default_threads)
        .max(4);
    let mut builder = ServiceConfig::builder()
        .workers(workers)
        .journal(JOURNAL_RING);
    if let Some(queue) = invocation.queue {
        builder = builder.queue(queue);
    }
    if let Some(cache) = invocation.cache {
        builder = builder.cache(cache);
    }
    let requests = invocation.requests.max(200);
    // A quarter as many distinct keys as requests: every key repeats
    // about four times, comfortably past the ≥50 % repeat target.
    let pool = source_pool((requests as usize / 4).max(1));
    let service = Service::start(builder.build().map_err(|e| e.to_string())?);
    attach_journal_sink(&service, invocation)?;

    // Phase 1: cached/uncached byte-identity for every protocol verb.
    // The first call compiles, the second hits the cache; both lines
    // (same id, so the whole envelope) must be byte-identical.
    let mut identity_checks = 0;
    for (verb, depth) in [
        (Verb::Analyze, None),
        (Verb::Schedule, None),
        (Verb::Schedule, Some(2)),
        (Verb::Rate, None),
        (Verb::Rate, Some(2)),
        (Verb::Scp, Some(2)),
        (Verb::Trace, None),
        (Verb::Trace, Some(2)),
        (Verb::Storage, None),
        (Verb::Explain, None),
    ] {
        let mut request = Request::basic(
            1_000_000 + identity_checks as u64,
            verb,
            "do i from 2 to n { A[i] := A[i-1] + B[i]; C[i] := A[i] * 2; }",
        );
        request.depth = depth;
        let uncached = service
            .call(request.clone())
            .map_err(|e| format!("identity check rejected: {e}"))?;
        let cached = service
            .call(request)
            .map_err(|e| format!("identity check rejected: {e}"))?;
        if !uncached.ok || !cached.ok {
            return Err(format!(
                "identity check failed for {:?}: {}",
                verb.as_str(),
                if uncached.ok {
                    &cached.line
                } else {
                    &uncached.line
                }
            ));
        }
        if uncached.line != cached.line {
            return Err(format!(
                "cached response differs from uncached for {:?}:\n  uncached: {}\n  cached:   {}",
                verb.as_str(),
                uncached.line,
                cached.line
            ));
        }
        identity_checks += 1;
    }

    // Protocol v2: the same body in a v2 envelope must yield the same
    // response bytes behind the "v":2 prefix — v1 clients keep working,
    // byte for byte, against a v2-speaking server.
    const V2_SRC: &str = "do i from 2 to n { A[i] := A[i-1] + B[i]; C[i] := A[i] * 2; }";
    let v1_request = protocol::parse_request(&format!(
        "{{\"id\":1000042,\"verb\":\"analyze\",\"source\":\"{V2_SRC}\"}}"
    ))
    .map_err(|e| format!("v1 parse: {e}"))?;
    let v2_request = protocol::parse_request(&format!(
        "{{\"v\":2,\"id\":1000042,\"verb\":\"analyze\",\"client\":\"soak\",\"body\":{{\"source\":\"{V2_SRC}\"}}}}"
    ))
    .map_err(|e| format!("v2 parse: {e}"))?;
    let v1_response = service
        .call(v1_request)
        .map_err(|e| format!("v1 call rejected: {e}"))?;
    let v2_response = service
        .call(v2_request)
        .map_err(|e| format!("v2 call rejected: {e}"))?;
    if v2_response.line != format!("{{\"v\":2,{}", &v1_response.line[1..]) {
        return Err(format!(
            "v2 envelope is not the v1 bytes behind a \"v\":2 prefix:\n  v1: {}\n  v2: {}",
            v1_response.line, v2_response.line
        ));
    }
    identity_checks += 1;

    // Phase 2: typed backpressure. A single-worker service with a
    // capacity-1 queue must reject a burst with Overloaded, not hang.
    let tiny = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue(1)
            .build()
            .unwrap(),
    );
    let mut overloaded_typed = 0u64;
    let (reply, replies) = mpsc::channel();
    for id in 0..16 {
        match tiny.submit(soak_request(id, &pool), reply.clone()) {
            Ok(_) => {}
            Err(Rejected::Overloaded(overloaded)) => {
                assert!(overloaded.capacity == 1);
                overloaded_typed += 1;
            }
            Err(other) => return Err(format!("burst tripped the wrong rejection: {other}")),
        }
    }
    // Each admitted job holds a sender clone until it has replied, so
    // the channel closes once every one of them is answered.
    drop(reply);
    for _response in replies {}
    if overloaded_typed == 0 {
        return Err("backpressure check: a 16-request burst never tripped Overloaded".into());
    }
    drop(tiny);

    // Phase 2b: typed per-client fairness. A one-token bucket must
    // rate-limit the second immediate request from the same client —
    // with retry advice — while other clients stay untouched.
    let limited = Service::start(
        ServiceConfig::builder()
            .workers(2)
            .rate_limit(RateLimit {
                per_second: 1,
                burst: 1,
                max_in_flight: 8,
            })
            .build()
            .map_err(|e| e.to_string())?,
    );
    let limit_request = |id: u64, client: &str| {
        let mut request = soak_request(id, &pool);
        request.client = Some(client.to_string());
        request
    };
    if limited.call(limit_request(0, "client-a")).is_err() {
        return Err("rate-limit check: client-a's first request was rejected".into());
    }
    let rate_limited_typed = match limited.call(limit_request(1, "client-a")) {
        Err(Rejected::RateLimited(limited)) => {
            if limited.retry_after_ms == 0 {
                return Err("rate-limit check: rejection carries no retry advice".into());
            }
            1u64
        }
        Ok(_) => return Err("rate-limit check: burst past the bucket was admitted".into()),
        Err(other) => return Err(format!("rate-limit check: wrong rejection: {other}")),
    };
    if limited.call(limit_request(2, "client-b")).is_err() {
        return Err("rate-limit check: client-b was throttled by client-a's bucket".into());
    }
    drop(limited);

    // Phase 3: the mixed soak, driven from `workers` client threads.
    let ids: Vec<u64> = (0..requests).collect();
    let errors: u64 = tpn::batch::parallel_map(&ids, workers, |_, &id| {
        // call() blocks, so at most `workers` requests are in flight
        // and the queue cannot overflow.
        match service.call(soak_request(id, &pool)) {
            Ok(response) if response.ok => 0u64,
            _ => 1u64,
        }
    })
    .into_iter()
    .sum();

    // Phase 4: telemetry. The journal ring must have recorded the soak
    // and both observability verbs must answer in-band.
    let journal_events = service.journal_events().map_or(0, |events| events.len());
    if journal_events == 0 {
        return Err("telemetry check: the soak left no journal events".into());
    }
    let prometheus = metrics_prometheus_response_v(&service, 9_000_001, 1);
    if !prometheus.ok || !prometheus.line.contains("tpn_service_accepted_total") {
        return Err(format!(
            "telemetry check: bad exposition: {}",
            prometheus.line
        ));
    }
    let journal = journal_response_v(&service, 9_000_002, 1);
    if !journal.ok {
        return Err(format!(
            "telemetry check: journal verb failed: {}",
            journal.line
        ));
    }

    let counters = service.counters();
    let summary = SelfTestJson {
        command: "serve-self-test".into(),
        workers,
        requests,
        distinct_keys: pool.len(),
        errors,
        overloaded_typed,
        rate_limited_typed,
        identity_checks,
        journal_events,
        hit_rate: counters.cache.hit_rate(),
        p50_micros: counters.p50_micros,
        p99_micros: counters.p99_micros,
    };
    println!("{}", summary.render(OutputFormat::Json)?);
    if errors > 0 {
        return Err(format!("soak finished with {errors} errors"));
    }
    if summary.hit_rate <= 0.4 {
        return Err(format!(
            "soak hit rate {:.3} did not exceed 0.4",
            summary.hit_rate
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::sync::{Arc, Mutex};

    /// Collects everything the loop writes to a stdio connection.
    struct SharedWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("writer lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` as a stdio connection through the loop until EOF
    /// and returns the response lines.
    fn serve_stdio(service: &Service, input: &[u8]) -> Vec<String> {
        let (chunks, stdin) = mpsc::channel();
        for chunk in input.chunks(CHUNK) {
            chunks.send(Ok(chunk.to_vec())).unwrap();
        }
        drop(chunks);
        let output = Arc::new(Mutex::new(Vec::new()));
        let stdout = Box::new(SharedWriter(output.clone()));
        serve(service, &[], Some(Stream::Stdio(stdin, stdout))).expect("EOF ends the loop cleanly");
        let text = String::from_utf8(output.lock().expect("writer lock").clone()).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn stdio_connection_round_trips_requests() {
        let service = Service::start(
            ServiceConfig::builder()
                .workers(2)
                .journal(4)
                .build()
                .unwrap(),
        );
        let input = concat!(
            "{\"id\":1,\"verb\":\"analyze\",\"source\":\"do i from 2 to n { X[i] := X[i-1] + 1; }\"}\n",
            "\n",
            "not json\n",
            "{\"id\":2,\"verb\":\"metrics\"}\n",
            "{\"id\":3,\"verb\":\"cancel\",\"target\":99}\n",
            "{\"id\":4,\"verb\":\"metrics_prometheus\"}\n",
            "{\"id\":5,\"verb\":\"journal\"}\n",
            "{\"v\":2,\"id\":6,\"verb\":\"analyze\",\"client\":\"t\",\"body\":{\"source\":\"do i from 2 to n { X[i] := X[i-1] + 1; }\"}}\n",
            "{\"v\":9,\"id\":7,\"verb\":\"analyze\",\"source\":\"x\"}\n",
        );
        let lines = serve_stdio(&service, input.as_bytes());
        let text = lines.join("\n");
        assert_eq!(
            lines.len(),
            8,
            "blank line skipped, eight responses: {text}"
        );
        for line in &lines {
            protocol::parse_json(line).expect("responses are valid JSON");
        }
        assert!(text.contains("\"kind\":\"bad_request\""));
        assert!(text.contains("\"verb\":\"analyze\""));
        assert!(text.contains("\"verb\":\"metrics\""));
        assert!(text.contains("\"in_flight\":false"));
        assert!(text.contains("\"verb\":\"metrics_prometheus\""));
        assert!(text.contains("tpn_service_accepted_total"));
        assert!(text.contains("\"verb\":\"journal\""));
        assert!(text.contains("\"capacity\":4"));
        // The v2 request's response leads with "v":2 and is otherwise
        // byte-identical to the matching v1 response.
        let v1 = lines
            .iter()
            .find(|l| l.starts_with("{\"id\":1,"))
            .expect("v1 analyze response");
        let v2 = lines
            .iter()
            .find(|l| l.starts_with("{\"v\":2,\"id\":6,"))
            .expect("v2 analyze response");
        assert_eq!(
            v2.replace("{\"v\":2,\"id\":6,", "{\"id\":1,"),
            **v1,
            "v2 payload must match v1 byte-for-byte"
        );
        // The unknown version gets its typed rejection.
        assert!(
            text.contains("\"kind\":\"unsupported_version\""),
            "got: {text}"
        );
    }

    #[test]
    fn hostile_lines_get_one_bad_request_each_and_serving_continues() {
        let service = Service::start(ServiceConfig::builder().workers(1).build().unwrap());
        let mut input = "[".repeat(200_000).into_bytes();
        input.push(b'\n');
        input.extend(std::iter::repeat_n(b'x', MAX_LINE + CHUNK));
        input.push(b'\n');
        // The last request ends at EOF rather than with a newline.
        input.extend_from_slice(
            b"{\"id\":3,\"verb\":\"analyze\",\"source\":\"do i from 2 to n { X[i] := X[i-1] + 1; }\"}",
        );
        let lines = serve_stdio(&service, &input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(
            lines[0].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("nesting"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"kind\":\"bad_request\""),
            "{}",
            lines[1]
        );
        assert!(lines[1].contains("request line exceeds"), "{}", lines[1]);
        assert!(
            lines[2].starts_with("{\"id\":3,\"ok\":true"),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn cancel_reaches_only_its_own_connection() {
        use std::io::BufReader;

        /// A journal sink that holds the single worker inside its first
        /// event until the test releases it: a plug that stays in place
        /// exactly as long as the test needs.
        struct Gate {
            entered: mpsc::Sender<()>,
            release: Option<mpsc::Receiver<()>>,
        }
        impl Write for Gate {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if let Some(release) = self.release.take() {
                    self.entered.send(()).unwrap();
                    release.recv().unwrap();
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let service = Service::start(
            ServiceConfig::builder()
                .workers(1)
                .queue(8)
                .journal(8)
                .build()
                .unwrap(),
        );
        let (entered, plugged) = mpsc::channel();
        let (unplug, release) = mpsc::channel();
        assert!(service.set_journal_sink(Box::new(Gate {
            entered,
            release: Some(release),
        })));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            let _ = serve(&service, &[Listener::Tcp(listener)], None);
        });

        let analyze = |id: u64, k: u64| {
            format!("{{\"id\":{id},\"verb\":\"analyze\",\"source\":\"do i from 2 to n {{ X[i] := X[i-1] + {k}; }}\"}}\n")
        };
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        };
        let read = |reader: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let (mut a, mut a_replies) = connect();
        let (mut b, mut b_replies) = connect();

        // The plug: the single worker blocks in its journal event.
        a.write_all(analyze(1, 1).as_bytes()).unwrap();
        plugged.recv().unwrap();
        // B's 7 is queued once B's metrics reply (answered in the loop,
        // after the 7 was submitted) comes back.
        b.write_all(format!("{}{{\"id\":8,\"verb\":\"metrics\"}}\n", analyze(7, 2)).as_bytes())
            .unwrap();
        assert!(read(&mut b_replies).starts_with("{\"id\":8,\"ok\":true"));
        // A queues its own 7 and cancels it in the same write.
        a.write_all(
            format!(
                "{}{{\"id\":9,\"verb\":\"cancel\",\"target\":7}}\n",
                analyze(7, 3)
            )
            .as_bytes(),
        )
        .unwrap();
        let cancel = read(&mut a_replies);
        assert!(cancel.contains("\"in_flight\":true"), "{cancel}");

        unplug.send(()).unwrap();
        let mut a_lines = [read(&mut a_replies), read(&mut a_replies)];
        a_lines.sort();
        assert!(
            a_lines[0].starts_with("{\"id\":1,\"ok\":true"),
            "{}",
            a_lines[0]
        );
        assert!(
            a_lines[1].starts_with("{\"id\":7,\"ok\":false"),
            "{}",
            a_lines[1]
        );
        assert!(
            a_lines[1].contains("\"kind\":\"cancelled\""),
            "{}",
            a_lines[1]
        );
        let b7 = read(&mut b_replies);
        assert!(b7.starts_with("{\"id\":7,\"ok\":true"), "{b7}");
    }

    #[test]
    fn poll_loop_multiplexes_tcp_connections_with_pipelined_requests() {
        use std::io::BufReader;

        let service = Service::start(ServiceConfig::builder().workers(2).build().unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            let _ = serve(&service, &[Listener::Tcp(listener)], None);
        });

        fn client(addr: std::net::SocketAddr, offset: u64) -> Vec<u64> {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Pipeline several requests before reading anything back:
            // the poll loop must interleave both connections.
            let mut batch = String::new();
            for i in 0..4u64 {
                batch.push_str(&format!(
                    "{{\"id\":{},\"verb\":\"analyze\",\"source\":\"do i from 2 to n {{ X[i] := X[i-1] + {}; }}\"}}\n",
                    offset + i,
                    offset + i,
                ));
            }
            stream.write_all(batch.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut ids = Vec::new();
            for _ in 0..4 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.contains("\"ok\":true"), "response not ok: {line}");
                let doc = protocol::parse_json(&line).unwrap();
                match doc.get("id") {
                    Some(protocol::JsonValue::Num(n)) => ids.push(*n as u64),
                    other => panic!("response without id: {other:?}"),
                }
            }
            ids.sort_unstable();
            ids
        }
        let a = std::thread::spawn(move || client(addr, 100));
        let b = client(addr, 200);
        assert_eq!(a.join().unwrap(), vec![100, 101, 102, 103]);
        assert_eq!(b, vec![200, 201, 202, 203]);
    }

    #[test]
    fn self_test_passes_at_minimum_scale() {
        let mut invocation = crate::parse_args(["serve".to_string(), "--self-test".to_string()])
            .expect("serve parses without inputs");
        invocation.jobs = Some(4);
        invocation.requests = 200;
        self_test(&invocation).expect("self-test soak succeeds");
    }
}
