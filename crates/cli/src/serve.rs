//! `tpnc serve`: the long-running front-end over [`tpn_service`].
//!
//! Requests are newline-delimited JSON objects (see
//! [`tpn_service::protocol`]); responses come back one per line, in
//! completion order, each echoing the request's `id`. The front-end
//! speaks stdin/stdout by default,
//! or any number of `--socket PATH` (Unix-domain) and `--tcp ADDR`
//! listeners. Either way every connection runs through one loop that
//! blocks in `poll(2)` until a listener, a connection or a worker reply
//! is ready: per-connection read buffers with a request-line cap,
//! bounded write buffers, and back-pressure that simply stops reading
//! from a connection whose responses it cannot drain. Workers send each
//! response into its connection's reply channel and then wake the loop
//! through a self-pipe, so no thread waits on a request and the loop
//! never sleeps. A failed `accept` (say, out of descriptors) is logged,
//! and the listener rests until a connection closes or a tick passes.
//! `--store DIR` persists compiled artifacts across restarts,
//! `--rate-limit`/`--burst`/`--max-in-flight` switch on per-client
//! fairness, and `--journal FILE` streams the request journal.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tpn_service::protocol::{self, Verb, MAX_LINE};
use tpn_service::{
    journal_response, metrics_prometheus_response, metrics_response, Canceller, RateLimit,
    Rejected, Response, Service, ServiceConfig,
};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::Invocation;

/// Per-connection write-buffer cap: past this, the loop stops reading
/// from the connection until its responses drain (back-pressure instead
/// of unbounded buffering).
pub(crate) const WRITE_BUF_CAP: usize = 256 * 1024;

/// Bytes taken per read.
pub(crate) const CHUNK: usize = 4096;

/// How long a listener whose `accept` failed stays out of the poll set
/// unless a connection closes first; also `tpnc route`'s respawn tick.
pub(crate) const TICK: Duration = Duration::from_millis(100);

/// Builds the service configuration from the invocation's flags
/// (`--jobs` workers, `--queue` capacity, `--cache` weight, `--store`
/// persistence, `--rate-limit`/`--burst`/`--max-in-flight` fairness).
fn config(invocation: &Invocation) -> Result<ServiceConfig, String> {
    let mut builder = ServiceConfig::builder();
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

/// Entry point of `tpnc serve`. `--journal FILE` is created
/// (truncating) and streams every journal event as NDJSON.
///
/// # Errors
///
/// Socket/bind, store, journal-file and I/O failures.
pub fn run(invocation: &Invocation) -> Result<(), String> {
    let service = Service::try_start(config(invocation)?)
        .map_err(|e| format!("error starting service: {e}"))?;
    if let Some(path) = &invocation.journal {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("error creating journal file {path}: {e}"))?;
        service.set_journal_sink(Box::new(file));
    }
    if invocation.sockets.is_empty() && invocation.tcp.is_empty() {
        serve(
            &service,
            &[],
            Some((Box::new(io::stdin()), Box::new(io::stdout()))),
        )
    } else {
        serve(&service, &bind_listeners(invocation)?, None)
    }
}

/// Routes one request line arriving on `conn`: front-end verbs and
/// rejections are answered at once, everything else is submitted with
/// a reply callback that feeds the connection's channel and wakes the
/// loop.
fn route_line(
    service: &Service,
    waker: &Waker,
    wire: &mut Wire<Stream>,
    in_flight: &mut Vec<(u64, Canceller)>,
    reply: &mpsc::Sender<Response>,
    line: &str,
) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(error) => return wire.respond(&error.reply()),
    };
    let id = request.id;
    let response = match request.verb {
        Verb::Metrics => metrics_response(service, id).line,
        Verb::MetricsPrometheus => metrics_prometheus_response(service, id).line,
        Verb::Journal => journal_response(service, id).line,
        Verb::Cancel => {
            let target = request.target.expect("protocol validated cancel target");
            let mut delivered = false;
            for (_, canceller) in in_flight.iter().filter(|(id, _)| *id == target) {
                canceller.cancel();
                delivered = true;
            }
            protocol::ok_envelope(
                id,
                Verb::Cancel,
                &format!("{{\"target\":{target},\"in_flight\":{delivered}}}"),
            )
        }
        _ => {
            let (reply, waker) = (reply.clone(), waker.clone());
            match service.submit(request, move |response| {
                let _ = reply.send(response);
                waker.wake();
            }) {
                Err(Rejected::Overloaded(overloaded)) => protocol::error_envelope(
                    id,
                    None,
                    "overloaded",
                    &overloaded.to_string(),
                    Some(overloaded.depth),
                    None,
                ),
                Err(Rejected::RateLimited(limited)) => protocol::error_envelope(
                    id,
                    None,
                    "rate_limited",
                    &limited.to_string(),
                    None,
                    Some(limited.retry_after_ms),
                ),
                Ok(canceller) => return in_flight.push((id, canceller)),
            }
        }
    };
    wire.respond(&response);
}

// ---------------------------------------------------------------------------
// The readiness-driven loop: every connection, stdio included.
// ---------------------------------------------------------------------------

/// Frames a client's bytes into request lines. Lines end at a newline,
/// decode lossily (so invalid UTF-8 gets a typed reply too) and are
/// trimmed; blank lines are skipped. Once [`MAX_LINE`] bytes are held
/// with no newline, the line is answered with one `bad_request` at once
/// and the input is discarded through the next newline.
#[derive(Default)]
struct Lines {
    /// Bytes received but not yet terminated by a newline.
    buf: Vec<u8>,
    /// Set by an over-long line until its newline arrives.
    discarding: bool,
}

impl Lines {
    /// Takes the next request line out of `bytes`, advancing past what
    /// it consumed: `Ok(line)` to handle, or `Err(reply)` to send back
    /// for a line over the cap. `None` once `bytes` holds no further
    /// line; a partial line stays buffered.
    fn next(&mut self, bytes: &mut &[u8]) -> Option<Result<String, String>> {
        loop {
            let Some(pos) = bytes.iter().position(|&b| b == b'\n') else {
                if !self.discarding {
                    self.buf.extend_from_slice(bytes);
                }
                *bytes = &[];
                if self.buf.len() < MAX_LINE {
                    return None;
                }
                self.buf = Vec::new();
                self.discarding = true;
                return Some(Err(protocol::error_envelope(
                    0,
                    None,
                    "bad_request",
                    &format!("request line exceeds {MAX_LINE} bytes"),
                    None,
                    None,
                )));
            };
            let line = &bytes[..pos];
            *bytes = &bytes[pos + 1..];
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            self.buf.extend_from_slice(line);
            let line = match String::from_utf8(std::mem::take(&mut self.buf)) {
                Ok(line) => line,
                Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
            };
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                let whole = trimmed.len() == line.len();
                return Some(Ok(if whole { line } else { trimmed.to_string() }));
            }
        }
    }
}

/// A client connection's side of the wire, shared by `tpnc serve` and
/// `tpnc route`: request lines in under the [`MAX_LINE`] cap, response
/// bytes out through a write buffer bounded by back-pressure.
pub(crate) struct Wire<S> {
    stream: S,
    lines: Lines,
    /// Response bytes not yet accepted by the peer.
    pub(crate) write_buf: Vec<u8>,
    /// Cleared on EOF or a read error; the connection then only drains.
    pub(crate) reading: bool,
    /// Set on a write error; the connection is dropped outright.
    pub(crate) dead: bool,
    /// The connection's entry in this pass's poll set, if it has one.
    slot: Option<usize>,
}

impl<S: Read + Write + AsRawFd> Wire<S> {
    pub(crate) fn new(stream: S) -> Wire<S> {
        Wire {
            stream,
            lines: Lines::default(),
            write_buf: Vec::new(),
            reading: true,
            dead: false,
            slot: None,
        }
    }

    /// Whether the write buffer has room, so the client (and, in
    /// `tpnc route`, its shard links) may be read.
    pub(crate) fn has_room(&self) -> bool {
        self.write_buf.len() < WRITE_BUF_CAP
    }

    /// Queues one response line for writing.
    pub(crate) fn respond(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Adds the connection to `fds`: input while it reads under its
    /// write cap, output while it has bytes to write. A connection that
    /// wants neither stays out, because `poll` reports a hang-up
    /// whatever was asked for: a half-closed client waiting for its
    /// replies would make the loop spin.
    pub(crate) fn register(&mut self, fds: &mut Vec<PollFd>) {
        let mut events = 0;
        if self.reading && self.has_room() {
            events |= POLLIN;
        }
        if !self.write_buf.is_empty() {
            events |= POLLOUT;
        }
        self.slot = poll::add(fds, self.stream.as_raw_fd(), events);
    }

    /// The connection's readiness after this pass's wait.
    pub(crate) fn ready(&self, fds: &[PollFd]) -> Option<PollFd> {
        self.slot.map(|slot| fds[slot])
    }

    /// Reads what the peer sent until it runs dry or the write cap is
    /// reached, passing each request line to `handle` and answering an
    /// over-long one itself.
    pub(crate) fn read(&mut self, mut handle: impl FnMut(&mut Self, &str)) -> Result<(), String> {
        let mut chunk = [0u8; CHUNK];
        while self.reading && self.has_room() {
            let mut bytes = match self.stream.read(&mut chunk) {
                // The last line may end at EOF, not a newline.
                Ok(0) => {
                    self.reading = false;
                    &b"\n"[..]
                }
                Ok(n) => &chunk[..n],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.reading = false;
                    return Err(format!("error reading request: {e}"));
                }
            };
            let short = bytes.len() < CHUNK;
            while let Some(line) = self.lines.next(&mut bytes) {
                match line {
                    Ok(line) => handle(self, &line),
                    Err(reply) => self.respond(&reply),
                }
            }
            // A short read drained the socket; poll reports any more.
            if short {
                break;
            }
        }
        Ok(())
    }

    /// Writes as much of the write buffer as the peer accepts.
    pub(crate) fn flush(&mut self) -> Result<(), String> {
        drain(&mut self.stream, &mut self.write_buf).map_err(|e| {
            self.dead = true;
            format!("error writing response: {e}")
        })
    }
}

/// Writes as much of `buf` to `stream` as it accepts without blocking,
/// removing what was written. A peer that accepts nothing is an error.
pub(crate) fn drain(stream: &mut impl Write, buf: &mut Vec<u8>) -> io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                buf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Accepts every connection pending on a readable listener into
/// `conns`. Any failure but an empty backlog (out of descriptors, say)
/// is logged, unless the listeners already rest, and rests them for a
/// [`TICK`]: a listener the loop cannot accept from stays readable, so
/// polling it would spin. A closed connection ends the rest early.
pub(crate) fn accept_pending<T>(
    conns: &mut Vec<T>,
    mut accept: impl FnMut() -> io::Result<T>,
    resting: &mut Option<Instant>,
    name: &str,
) {
    loop {
        match accept() {
            Ok(conn) => {
                conns.push(conn);
                *resting = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                if resting.is_none() {
                    eprintln!("{name}: error accepting connection: {e}");
                }
                *resting = Some(Instant::now() + TICK);
                break;
            }
        }
    }
}

/// The write end of the loop's self-pipe. One byte wakes the loop from
/// `poll`; workers send it after each reply.
#[derive(Clone)]
struct Waker(Arc<UnixStream>);

impl Waker {
    fn wake(&self) {
        // A full pipe already holds a pending wake-up.
        let _ = (&*self.0).write(&[1]);
    }
}

/// One bound, non-blocking listening socket.
enum Listener {
    /// A Unix-domain listener (`--socket PATH`).
    Unix(UnixListener),
    /// A TCP listener (`--tcp ADDR`).
    Tcp(TcpListener),
}

/// One connection's byte stream.
enum Stream {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
    /// Stdin in, through the socket the reader thread fills; blocking,
    /// flushed writes out, so the write buffer is empty after every
    /// flush.
    Stdio(UnixStream, Box<dyn Write>),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Unix(listener) => listener.as_raw_fd(),
            Listener::Tcp(listener) => listener.as_raw_fd(),
        }
    }

    /// Accepts one pending connection, already switched to
    /// non-blocking.
    fn accept(&self) -> io::Result<Stream> {
        match self {
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

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(stream) | Stream::Stdio(stream, _) => stream.as_raw_fd(),
            Stream::Tcp(stream) => stream.as_raw_fd(),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(stream) | Stream::Stdio(stream, _) => stream.read(buf),
            Stream::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
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
            Stream::Unix(stream) => stream.flush(),
            Stream::Tcp(stream) => stream.flush(),
            Stream::Stdio(_, output) => output.flush(),
        }
    }
}

/// Stdin/stdout as one connection. Safe std cannot make stdin
/// non-blocking, so one reader thread copies it into a socket pair whose
/// other end the loop polls like any connection; the pair's buffer
/// keeps the thread from reading far ahead of a loop that has stopped
/// reading. The thread is detached: it may sit in a read the loop
/// cannot interrupt, and ends at EOF (closing its end, which the loop
/// reads as EOF) or with the process.
fn stdio(mut input: Box<dyn Read + Send>, output: Box<dyn Write>) -> io::Result<Stream> {
    let (mut feed, stream) = UnixStream::pair()?;
    stream.set_nonblocking(true)?;
    std::thread::spawn(move || {
        if let Err(e) = io::copy(&mut input, &mut feed) {
            eprintln!("tpnc serve: error reading stdin: {e}");
        }
    });
    Ok(Stream::Stdio(stream, output))
}

/// Binds every `--socket` and `--tcp` listener, non-blocking.
fn bind_listeners(invocation: &Invocation) -> Result<Vec<Listener>, String> {
    let mut listeners = Vec::new();
    for path in &invocation.sockets {
        listeners.push(Listener::Unix(bind_unix(path)?));
        eprintln!("tpnc serve: listening on {path}");
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

/// Binds a non-blocking Unix-domain listener at `path`, replacing a
/// stale socket file from a previous run. `tpnc route` binds its front
/// socket with it too.
pub(crate) fn bind_unix(path: &str) -> Result<UnixListener, String> {
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path).map_err(|e| format!("error removing stale {path}: {e}"))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("error binding socket {path}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("error configuring socket {path}: {e}"))?;
    Ok(listener)
}

/// One multiplexed connection's state in the loop.
struct Conn {
    wire: Wire<Stream>,
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
            wire: Wire::new(stream),
            reply,
            replies,
            in_flight: Vec::new(),
        }
    }
}

/// The one request loop: multiplexes every listener and connection,
/// stdio included, on one thread that blocks in `poll(2)` on the
/// self-pipe, every listener and every connection that wants input or
/// output. Compilation runs on the service's worker pool, which sends
/// each response into its connection's reply channel and then writes
/// one byte into the self-pipe, so no thread blocks on a request, and
/// one slow or stalled peer cannot starve the rest: its write buffer
/// fills, the loop stops reading from it, and everyone else keeps
/// flowing. Returns once no listener and no connection is left (stdio
/// after EOF, with every reply written), failing with the last
/// connection I/O error if there was one; with listeners it runs until
/// the process is killed.
fn serve(
    service: &Service,
    listeners: &[Listener],
    stdio_pair: Option<(Box<dyn Read + Send>, Box<dyn Write>)>,
) -> Result<(), String> {
    let pipe = |e: io::Error| format!("error creating the wake-up pipe: {e}");
    let (wakeups, wake) = UnixStream::pair().map_err(pipe)?;
    wakeups.set_nonblocking(true).map_err(pipe)?;
    wake.set_nonblocking(true).map_err(pipe)?;
    let waker = Waker(Arc::new(wake));
    let mut conns = Vec::new();
    if let Some((input, output)) = stdio_pair {
        let stream = stdio(input, output).map_err(|e| format!("error reading stdin: {e}"))?;
        conns.push(Conn::new(stream));
    }
    // Set while the listeners rest after a failed accept.
    let mut resting: Option<Instant> = None;
    let mut fds = Vec::new();
    let mut result = Ok(());
    while !listeners.is_empty() || !conns.is_empty() {
        let now = Instant::now();
        let accepting = resting.is_none_or(|until| now >= until);
        fds.clear();
        fds.push(PollFd::new(wakeups.as_raw_fd(), POLLIN));
        if accepting {
            fds.extend(listeners.iter().map(|l| PollFd::new(l.fd(), POLLIN)));
        }
        for conn in &mut conns {
            conn.wire.register(&mut fds);
        }
        let timeout = resting.filter(|_| !accepting).map(|until| until - now);
        poll::wait(&mut fds, timeout).map_err(|e| format!("error waiting in poll: {e}"))?;

        // Drain the self-pipe: every reply sent before this read is in
        // its channel now, and any later one writes a fresh byte. Bytes
        // beyond one read only cost a spare pass.
        let woken = fds[0].readable();
        if woken {
            let _ = (&wakeups).read(&mut [0u8; 256]);
        }
        if accepting {
            for (listener, fd) in listeners.iter().zip(&fds[1..]) {
                if fd.readable() {
                    let accept = || listener.accept().map(Conn::new);
                    accept_pending(&mut conns, accept, &mut resting, "tpnc serve");
                }
            }
        }

        for conn in &mut conns {
            let mut touched = false;
            if woken {
                while let Ok(response) = conn.replies.try_recv() {
                    touched = true;
                    if let Some(at) = conn.in_flight.iter().position(|(id, _)| *id == response.id) {
                        conn.in_flight.swap_remove(at);
                    }
                    conn.wire.respond(&response.line);
                }
            }
            if let Some(fd) = conn.wire.ready(&fds) {
                if fd.readable() && conn.wire.reading {
                    touched = true;
                    let (in_flight, reply) = (&mut conn.in_flight, &conn.reply);
                    let read = conn.wire.read(|wire, line| {
                        route_line(service, &waker, wire, in_flight, reply, line);
                    });
                    if let Err(e) = read {
                        result = Err(e);
                    }
                }
                touched |= fd.writable();
            }
            if touched {
                if let Err(e) = conn.wire.flush() {
                    result = Err(e);
                }
            }
        }

        // Reap finished and broken connections; a dropped receiver
        // discards any reply still owed to a dead one. A closed
        // connection frees a descriptor, so resting listeners retry.
        let open = conns.len();
        conns.retain(|conn| {
            let wire = &conn.wire;
            !wire.dead && (wire.reading || !conn.in_flight.is_empty() || !wire.write_buf.is_empty())
        });
        if conns.len() != open {
            resting = None;
        }
    }
    result
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
        let stdin = Box::new(io::Cursor::new(input.to_vec()));
        let output = Arc::new(Mutex::new(Vec::new()));
        let stdout = Box::new(SharedWriter(output.clone()));
        serve(service, &[], Some((stdin, stdout))).expect("EOF ends the loop cleanly");
        let text = String::from_utf8(output.lock().expect("writer lock").clone()).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn stdio_connection_round_trips_requests() {
        let service = Service::start(ServiceConfig::builder().workers(2).build().unwrap());
        let input = concat!(
            "{\"id\":1,\"verb\":\"analyze\",\"source\":\"do i from 2 to n { X[i] := X[i-1] + 1; }\"}\n",
            "\n",
            "not json\n",
            "{\"id\":2,\"verb\":\"metrics\"}\n",
            "{\"id\":3,\"verb\":\"cancel\",\"target\":99}\n",
            "{\"id\":4,\"verb\":\"metrics_prometheus\"}\n",
            "{\"id\":5,\"verb\":\"journal\"}\n",
            "{\"v\":9,\"id\":7,\"verb\":\"analyze\",\"source\":\"x\"}\n",
        );
        let lines = serve_stdio(&service, input.as_bytes());
        let text = lines.join("\n");
        assert_eq!(
            lines.len(),
            7,
            "blank line skipped, seven responses: {text}"
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
        assert!(text.contains("\"capacity\":256"));
        // The unknown version gets its typed rejection, echoing the id.
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("{\"id\":7,")
                    && l.contains("\"kind\":\"unsupported_version\"")),
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
        // A line that fails after its id echoes the id, byte for byte as
        // `tpnc route` answers it.
        input.extend_from_slice(
            b"{\"id\":498,\"verb\":\"analyze\",\"source\":\"x\",\"options\":{\"node_time\":0}}\n",
        );
        // The last request ends at EOF rather than with a newline.
        input.extend_from_slice(
            b"{\"id\":3,\"verb\":\"analyze\",\"source\":\"do i from 2 to n { X[i] := X[i-1] + 1; }\"}",
        );
        let lines = serve_stdio(&service, &input);
        assert_eq!(lines.len(), 4, "{lines:?}");
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
        assert_eq!(
            lines[2],
            r#"{"id":498,"ok":false,"error":{"kind":"bad_request","message":"\"node_time\" must be >= 1"}}"#
        );
        assert!(
            lines[3].starts_with("{\"id\":3,\"ok\":true"),
            "{}",
            lines[3]
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
                .build()
                .unwrap(),
        );
        let (entered, plugged) = mpsc::channel();
        let (unplug, release) = mpsc::channel();
        service.set_journal_sink(Box::new(Gate {
            entered,
            release: Some(release),
        }));
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
    fn a_half_closed_client_gets_every_reply() {
        use std::net::Shutdown;

        let service = Service::start(ServiceConfig::builder().workers(1).build().unwrap());
        let path = std::env::temp_dir().join(format!("tpnc-serve-half-{}", std::process::id()));
        let listener = bind_unix(path.to_str().unwrap()).unwrap();
        std::thread::spawn(move || {
            let _ = serve(&service, &[Listener::Unix(listener)], None);
        });
        let mut client = UnixStream::connect(&path).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for id in 0..4 {
            // Storage runs long enough that the client's EOF arrives
            // while every request is still in flight.
            writeln!(
                client,
                "{{\"id\":{id},\"verb\":\"storage\",\"source\":\"do i from 2 to n {{ X[i] := X[i-1] + {id}; Y[i] := X[i] * Y[i-1]; }}\"}}"
            )
            .unwrap();
        }
        client.shutdown(Shutdown::Write).unwrap();
        let mut replies = String::new();
        client.read_to_string(&mut replies).unwrap();
        let mut ids: Vec<u64> = replies
            .lines()
            .map(|line| {
                assert!(line.contains("\"ok\":true"), "{line}");
                protocol::envelope_id(line.as_bytes()).expect("an envelope")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [0, 1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_connection_that_wants_nothing_stays_out_of_the_poll_set() {
        let (stream, _peer) = UnixStream::pair().unwrap();
        let mut wire = Wire::new(stream);
        let mut fds = Vec::new();
        wire.register(&mut fds);
        assert_eq!(
            (fds.len(), wire.slot),
            (1, Some(0)),
            "a reader waits for input"
        );
        // After EOF with nothing to write, poll would report the hang-up
        // on every pass: the connection must not be in the set.
        wire.reading = false;
        fds.clear();
        wire.register(&mut fds);
        assert!(fds.is_empty() && wire.slot.is_none());
        wire.respond("{}");
        wire.register(&mut fds);
        assert_eq!(wire.slot, Some(0), "pending output is waited for");
    }
}
