//! `tpnc route`: the digest-sharded router.
//!
//! Spawns `--shards N` `tpnc serve` processes, each listening on its
//! own Unix-domain socket next to the front socket (`PATH.shard-<i>`)
//! and, with `--store DIR`, persisting into its own `DIR/shard-<i>`
//! artifact store. The router listens on the front socket itself and
//! forwards every request line to the shard selected by the request's
//! cache-key digest — the same FNV-1a key the result cache and artifact
//! store use — so a given (source, options) pair always lands on the
//! same shard's cache and store. Responses pass through byte-untouched,
//! preserving the service's byte-identity invariants end to end.
//!
//! Routing rules:
//!
//! - compile verbs: `cache_key(source, options) % shards`;
//! - `metrics`, `metrics_prometheus`, `journal`: shard 0 (per-shard
//!   observability is available by connecting to a shard socket
//!   directly);
//! - `cancel`: the shard the target id was forwarded to (tracked per
//!   client connection), falling back to shard 0;
//! - malformed lines and unsupported versions are answered by the router
//!   itself, without touching a shard, with the bytes `tpnc serve` sends.
//!
//! The router runs on one thread, in the loop shape of `tpnc serve`: it
//! blocks in `poll(2)` on the front socket, every client connection and
//! every shard link. Each client has one lazily opened link per shard,
//! so replies need no id rewriting: forwarding appends the request line
//! to the link's write buffer, and each reply line read from a link is
//! appended to its client's write buffer. Client lines are framed
//! exactly as `tpnc serve` frames them, under the same [`MAX_LINE`] cap.
//! Shard replies are read uncapped: the shards are the router's own
//! children, and a trace reply can run to hundreds of kilobytes.
//! Back-pressure works as in serve: a client whose write buffer is over
//! the cap stops being read, and so do its links, so a slow reader backs
//! up into its shard rather than into router memory.
//!
//! Startup binds the front socket first, then spawns the shards and
//! waits (up to 5 s) until each accepts a connection; any error from
//! then on kills and reaps every shard. Once serving, the loop never
//! sleeps or retries a connect: a link that cannot connect is answered
//! at once with a typed `unavailable` error carrying `retry_after_ms`,
//! and a link whose write shows its shard restarted is reopened once.
//! On every 100 ms tick (the poll timeout) the router checks its
//! children with `try_wait` and restarts any shard that died. Requests
//! in flight on a killed shard lose their responses — clients retry —
//! but every request accepted after the restart is served from the
//! shard's warm-started store, byte-identical to before the kill.
//!
//! [`MAX_LINE`]: tpn_service::protocol::MAX_LINE

use std::collections::HashMap;
use std::io::{self, Read};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tpn_service::protocol::{self, Request, Verb};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::serve::{accept_pending, bind_unix, drain, Wire, CHUNK, TICK};
use crate::Invocation;

/// How long startup waits for every spawned shard to accept.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Selects the shard for a parsed request. Compile verbs route by
/// cache-key digest; observability verbs pin to shard 0; cancel follows
/// the route its target took (defaulting to shard 0 when the target is
/// unknown or already complete).
fn shard_for(request: &Request, routes: &HashMap<u64, usize>, shards: usize) -> usize {
    match request.verb {
        Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal => 0,
        Verb::Cancel => request
            .target
            .and_then(|target| routes.get(&target).copied())
            .unwrap_or(0),
        _ => (protocol::cache_key(&request.source, &request.options) % shards as u64) as usize,
    }
}

/// The shard's serve command line, rebuilt identically on every
/// (re)spawn: the shard inherits the router's tuning flags and gets its
/// own socket and store directory.
fn shard_command(invocation: &Invocation, index: usize, path: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("error locating tpnc: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve").arg("--socket").arg(path);
    if let Some(jobs) = invocation.jobs {
        cmd.arg("--jobs").arg(jobs.to_string());
    }
    if let Some(queue) = invocation.queue {
        cmd.arg("--queue").arg(queue.to_string());
    }
    if let Some(cache) = invocation.cache {
        cmd.arg("--cache").arg(cache.to_string());
    }
    if let Some(rate) = invocation.rate_limit {
        cmd.arg("--rate-limit").arg(rate.to_string());
    }
    if let Some(burst) = invocation.burst {
        cmd.arg("--burst").arg(burst.to_string());
    }
    if let Some(cap) = invocation.max_in_flight {
        cmd.arg("--max-in-flight").arg(cap.to_string());
    }
    if let Some(store) = &invocation.store {
        cmd.arg("--store").arg(format!("{store}/shard-{index}"));
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    Ok(cmd)
}

/// The shard processes and how to restart them. Dropping the fleet
/// kills and reaps every shard, so a router that fails never leaves its
/// shards running.
struct Fleet {
    invocation: Invocation,
    /// Shard `i`'s socket path.
    paths: Vec<String>,
    children: Vec<Child>,
}

impl Fleet {
    fn spawn(&mut self, index: usize) -> Result<Child, String> {
        shard_command(&self.invocation, index, &self.paths[index])?
            .spawn()
            .map_err(|e| format!("error spawning shard {index}: {e}"))
    }

    /// Waits until every shard accepts a connection, within
    /// [`CONNECT_TIMEOUT`].
    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        for (i, path) in self.paths.iter().enumerate() {
            while UnixStream::connect(path).is_err() {
                if let Ok(Some(status)) = self.children[i].try_wait() {
                    return Err(format!("shard {i} exited during startup ({status})"));
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "shard {i} accepted no connection within {CONNECT_TIMEOUT:?}"
                    ));
                }
                // Startup only: the loop itself never sleeps.
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// Restarts every shard whose process has exited. The shard rebinds
    /// its socket itself (serve removes the stale file), and its store
    /// warm-starts the cache, so post-restart responses stay
    /// byte-identical. A failed respawn is retried on the next tick.
    fn respawn_dead(&mut self) {
        for i in 0..self.children.len() {
            if let Ok(Some(status)) = self.children[i].try_wait() {
                eprintln!("tpnc route: shard {i} exited ({status}); restarting");
                match self.spawn(i) {
                    Ok(child) => self.children[i] = child,
                    Err(e) => eprintln!("tpnc route: {e}"),
                }
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Entry point of `tpnc route`. Binds the front socket, spawns the shard
/// fleet, and serves until the process is killed.
///
/// # Errors
///
/// Bind, spawn and startup failures, and a failed `poll`; every shard is
/// killed and reaped first. Per-connection I/O errors drop only that
/// connection.
pub fn run(invocation: &Invocation) -> Result<(), String> {
    let front = invocation
        .sockets
        .first()
        .ok_or("route requires --socket PATH")?;
    let shards = invocation.shards.unwrap_or(2);
    // Bind first: a front socket that cannot be bound leaves no shards.
    let listener = bind_unix(front)?;
    let mut fleet = Fleet {
        invocation: invocation.clone(),
        paths: (0..shards).map(|i| format!("{front}.shard-{i}")).collect(),
        children: Vec::new(),
    };
    for i in 0..shards {
        let child = fleet.spawn(i)?;
        fleet.children.push(child);
    }
    fleet.wait_ready()?;
    eprintln!("tpnc route: {shards} shards behind {front}");
    serve(&listener, &mut fleet)
}

/// One client connection to a shard.
struct Link {
    stream: UnixStream,
    /// A reply line's bytes before its newline arrives.
    partial: Vec<u8>,
    /// Forwarded lines the shard has not accepted yet.
    write_buf: Vec<u8>,
    /// Lines forwarded and not yet answered.
    pending: usize,
    /// The link's entry in this pass's poll set, if it has one.
    slot: Option<usize>,
}

impl Link {
    /// Opens a link. A Unix-domain connect completes or fails at once
    /// unless the shard's accept backlog is full.
    fn connect(path: &str) -> io::Result<Link> {
        let stream = UnixStream::connect(path)?;
        stream.set_nonblocking(true)?;
        Ok(Link {
            stream,
            partial: Vec::new(),
            write_buf: Vec::new(),
            pending: 0,
            slot: None,
        })
    }

    /// Reads reply lines into the client's write buffer `out` until the
    /// link runs dry or `out` reaches the cap, retiring each answered id
    /// from `routes`. Only whole lines are passed on, so replies from
    /// different shards never interleave mid-line. Returns false once
    /// the link is closed or broken.
    fn read(&mut self, out: &mut Wire<UnixStream>, routes: &mut HashMap<u64, usize>) -> bool {
        let mut chunk = [0u8; CHUNK];
        while out.has_room() {
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            let mut bytes = &chunk[..n];
            while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
                let (mut line, rest) = bytes.split_at(pos + 1);
                bytes = rest;
                if !self.partial.is_empty() {
                    self.partial.extend_from_slice(line);
                    line = &self.partial;
                }
                if let Some(id) = protocol::envelope_id(line) {
                    routes.remove(&id);
                }
                out.write_buf.extend_from_slice(line);
                self.partial.clear();
                self.pending = self.pending.saturating_sub(1);
            }
            self.partial.extend_from_slice(bytes);
            if n < CHUNK {
                break;
            }
        }
        true
    }
}

/// One client connection and its links, one per shard.
struct Client {
    wire: Wire<UnixStream>,
    links: Vec<Option<Link>>,
    /// Which shard each in-flight request id went to, so cancel can
    /// follow it; replies retire entries as they pass back.
    routes: HashMap<u64, usize>,
}

impl Client {
    /// Adds the client and its links to `fds`. A client over its write
    /// cap is not read, and neither are its links.
    fn register(&mut self, fds: &mut Vec<PollFd>) {
        self.wire.register(fds);
        let room = self.wire.has_room();
        for link in self.links.iter_mut().flatten() {
            let mut events = if room { POLLIN } else { 0 };
            if !link.write_buf.is_empty() {
                events |= POLLOUT;
            }
            link.slot = poll::add(fds, link.stream.as_raw_fd(), events);
        }
    }

    /// Moves this pass's bytes: replies from ready links to the client,
    /// request lines from the client to their links, then the client's
    /// write buffer to the client. A broken link is dropped; a broken
    /// client is marked dead.
    fn pump(&mut self, fds: &[PollFd], paths: &[String]) {
        let queued = self.wire.write_buf.len();
        for link in &mut self.links {
            let Some(fd) = link.as_ref().and_then(|l| l.slot).map(|slot| fds[slot]) else {
                continue;
            };
            let open = link.as_mut().expect("a registered link is open");
            let alive = (!fd.readable() || open.read(&mut self.wire, &mut self.routes))
                && (!fd.writable() || drain(&mut open.stream, &mut open.write_buf).is_ok());
            if !alive {
                *link = None;
            }
        }
        let ready = self.wire.ready(fds);
        if ready.is_some_and(|fd| fd.readable()) && self.wire.reading {
            let (links, routes) = (&mut self.links, &mut self.routes);
            let read = self
                .wire
                .read(|wire, line| route_line(wire, links, routes, paths, line));
            if let Err(e) = read {
                eprintln!("tpnc route: connection error: {e}");
            }
        }
        if ready.is_some_and(|fd| fd.writable()) || self.wire.write_buf.len() != queued {
            if let Err(e) = self.wire.flush() {
                eprintln!("tpnc route: connection error: {e}");
            }
        }
    }

    /// Whether the client still has bytes to move: it is reading, has
    /// replies to write, or waits for a shard's.
    fn open(&self) -> bool {
        !self.wire.dead
            && (self.wire.reading
                || !self.wire.write_buf.is_empty()
                || self.links.iter().flatten().any(|link| link.pending > 0))
    }
}

/// Handles one client line: malformed lines and unsupported versions
/// are answered by the router itself, everything else is forwarded to
/// its shard as parsed.
fn route_line(
    wire: &mut Wire<UnixStream>,
    links: &mut [Option<Link>],
    routes: &mut HashMap<u64, usize>,
    paths: &[String],
    line: &str,
) {
    let request = match protocol::parse_request(line) {
        Ok(request) => request,
        Err(error) => return wire.respond(&error.reply()),
    };
    let shard = shard_for(&request, routes, paths.len());
    if !matches!(
        request.verb,
        Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal | Verb::Cancel
    ) {
        routes.insert(request.id, shard);
    }
    if !forward(&mut links[shard], &paths[shard], line) {
        routes.remove(&request.id);
        wire.respond(&protocol::error_envelope(
            request.id,
            None,
            "unavailable",
            &format!("shard {shard} is unavailable; retry"),
            None,
            Some(1_000),
        ));
    }
}

/// Appends `line` to the shard link's write buffer and writes what the
/// shard accepts, opening the link if needed and reopening it once if
/// the write shows the shard restarted since. Returns false when no link
/// could be opened.
fn forward(link: &mut Option<Link>, path: &str, line: &str) -> bool {
    for _attempt in 0..2 {
        if link.is_none() {
            *link = Link::connect(path).ok();
        }
        let Some(open) = link else { return false };
        open.write_buf.extend_from_slice(line.as_bytes());
        open.write_buf.push(b'\n');
        open.pending += 1;
        if drain(&mut open.stream, &mut open.write_buf).is_ok() {
            return true;
        }
        *link = None;
    }
    false
}

/// The router's loop: blocks in `poll(2)` on the front socket, every
/// client and every shard link, waking at least once per [`TICK`] to
/// restart dead shards. Returns only when `poll` fails.
fn serve(listener: &UnixListener, fleet: &mut Fleet) -> Result<(), String> {
    let shards = fleet.paths.len();
    let mut clients: Vec<Client> = Vec::new();
    // Set while the front socket rests after a failed accept.
    let mut resting: Option<Instant> = None;
    let mut tick = Instant::now() + TICK;
    let mut fds = Vec::new();
    loop {
        let now = Instant::now();
        if now >= tick {
            fleet.respawn_dead();
            tick = now + TICK;
        }
        let accepting = resting.is_none_or(|until| now >= until);
        fds.clear();
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        for client in &mut clients {
            client.register(&mut fds);
        }
        poll::wait(&mut fds, Some(tick - now))
            .map_err(|e| format!("error waiting in poll: {e}"))?;

        if accepting && fds[0].readable() {
            let accept = || {
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Client {
                    wire: Wire::new(stream),
                    links: (0..shards).map(|_| None).collect(),
                    routes: HashMap::new(),
                })
            };
            accept_pending(&mut clients, accept, &mut resting, "tpnc route");
        }
        for client in &mut clients {
            client.pump(&fds, &fleet.paths);
        }
        let open = clients.len();
        clients.retain(Client::open);
        if clients.len() != open {
            resting = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::mpsc;
    use tpn_service::protocol::MAX_LINE;

    fn request(id: u64, verb: Verb, source: &str) -> Request {
        Request::basic(id, verb, source)
    }

    #[test]
    fn shard_selection_is_stable_and_pins_observability() {
        let routes = HashMap::new();
        let a = request(1, Verb::Analyze, "do i from 2 to n { X[i] := X[i-1] + 1; }");
        let b = request(2, Verb::Analyze, "do i from 2 to n { Y[i] := Y[i-1] + 2; }");
        // Same source, same shard, regardless of id.
        let a_again = request(
            99,
            Verb::Analyze,
            "do i from 2 to n { X[i] := X[i-1] + 1; }",
        );
        assert_eq!(shard_for(&a, &routes, 4), shard_for(&a_again, &routes, 4));
        // The digest spreads keys: over a pool of sources, more than
        // one shard is used.
        let used: std::collections::HashSet<usize> = (0..32)
            .map(|i| {
                let r = request(
                    i,
                    Verb::Schedule,
                    &format!("do i from 2 to n {{ X[i] := X[i-1] + {i}; }}"),
                );
                shard_for(&r, &routes, 4)
            })
            .collect();
        assert!(used.len() > 1, "digest never spread: {used:?}");
        let _ = b;
        // Observability verbs pin to shard 0.
        for verb in [Verb::Metrics, Verb::MetricsPrometheus, Verb::Journal] {
            let r = request(3, verb, "");
            assert_eq!(shard_for(&r, &routes, 4), 0);
        }
    }

    #[test]
    fn cancel_follows_the_route_its_target_took() {
        let mut routes = HashMap::new();
        routes.insert(7, 3usize);
        let mut cancel = request(8, Verb::Cancel, "");
        cancel.target = Some(7);
        assert_eq!(shard_for(&cancel, &routes, 4), 3);
        // Unknown target: shard 0 answers with in_flight:false.
        cancel.target = Some(99);
        assert_eq!(shard_for(&cancel, &routes, 4), 0);
    }

    /// A fresh socket path under the temp directory, removed when the
    /// test drops it, whether the test passes or panics.
    struct SocketPath(String);

    impl Drop for SocketPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn socket_path(name: &str) -> SocketPath {
        let path = std::env::temp_dir().join(format!("tpnc-route-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        SocketPath(path.to_string_lossy().into_owned())
    }

    /// A stand-in shard: accepts one router link, sends every line it
    /// reads to the returned channel, and answers each with itself when
    /// `echo` is set.
    fn stand_in(name: &str, echo: bool) -> (SocketPath, mpsc::Receiver<String>) {
        let path = socket_path(name);
        let shard = UnixListener::bind(&path.0).expect("bind stand-in shard");
        let (lines, seen) = mpsc::channel();
        std::thread::spawn(move || {
            let (stream, _) = shard.accept().expect("router connects");
            for line in BufReader::new(&stream).lines() {
                let line = line.expect("shard reads");
                if echo {
                    writeln!(&stream, "{line}").expect("shard writes");
                }
                let _ = lines.send(line);
            }
        });
        (path, seen)
    }

    /// Runs the router's loop over the stand-in `shards` and connects one
    /// client to its front socket, whose path comes back last.
    fn router(
        name: &str,
        shards: &[&SocketPath],
    ) -> (UnixStream, BufReader<UnixStream>, SocketPath) {
        let front = socket_path(name);
        let listener = bind_unix(&front.0).expect("bind front socket");
        let invocation = crate::parse_args(["route".into(), "--socket".into(), front.0.clone()])
            .expect("route parses");
        let mut fleet = Fleet {
            invocation,
            paths: shards.iter().map(|shard| shard.0.clone()).collect(),
            children: Vec::new(),
        };
        std::thread::spawn(move || serve(&listener, &mut fleet));
        let client = UnixStream::connect(&front.0).expect("router accepts");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let replies = BufReader::new(client.try_clone().expect("clone client"));
        (client, replies, front)
    }

    fn next(replies: &mut BufReader<UnixStream>) -> String {
        let mut line = String::new();
        replies.read_line(&mut line).expect("router replies");
        line
    }

    #[test]
    fn over_cap_lines_are_answered_before_their_newline_and_serving_continues() {
        let (shard, _) = stand_in("cap-shard", true);
        let (mut client, mut replies, _front) = router("cap", &[&shard]);

        // No newline yet: the cap alone triggers the reply.
        client.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let bad = next(&mut replies);
        assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
        assert!(bad.contains("request line exceeds"), "{bad}");
        // The rest of the long line is discarded; invalid UTF-8 gets a
        // typed reply; the next request is forwarded.
        let request =
            r#"{"id":7,"verb":"analyze","source":"do i from 2 to n { X[i] := X[i-1] + 1; }"}"#;
        client
            .write_all(b"tail of the long line\n\xff\xfe\n")
            .unwrap();
        client.write_all(format!("{request}\n").as_bytes()).unwrap();
        let invalid = next(&mut replies);
        assert!(invalid.contains("\"kind\":\"bad_request\""), "{invalid}");
        assert_eq!(next(&mut replies).trim_end(), request);
        // A line that fails after its id echoes the id, byte for byte as
        // `tpnc serve` answers it.
        client
            .write_all(
                b"{\"id\":498,\"verb\":\"analyze\",\"source\":\"x\",\"options\":{\"node_time\":0}}\n",
            )
            .unwrap();
        assert_eq!(
            next(&mut replies).trim_end(),
            r#"{"id":498,"ok":false,"error":{"kind":"bad_request","message":"\"node_time\" must be >= 1"}}"#
        );
        // The line ending at EOF is still answered, and the closed
        // connection leaves the router serving.
        client.write_all(b"not json").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(next(&mut replies).contains("\"kind\":\"bad_request\""));
        assert_eq!(
            next(&mut replies),
            "",
            "the router closes after the last reply"
        );
    }

    #[test]
    fn cancel_reaches_the_shard_its_target_took() {
        let (shard0, seen0) = stand_in("cancel-0", false);
        let (shard1, seen1) = stand_in("cancel-1", false);
        // A source whose digest picks shard 1, so following the route
        // differs from the shard-0 fallback.
        let source = (0..)
            .map(|k| format!("do i from 2 to n {{ X[i] := X[i-1] + {k}; }}"))
            .find(|src| shard_for(&request(7, Verb::Analyze, src), &HashMap::new(), 2) == 1)
            .unwrap();
        let (mut client, _replies, _front) = router("cancel", &[&shard0, &shard1]);
        let analyze = format!(r#"{{"id":7,"verb":"analyze","source":"{source}"}}"#);
        let cancel = r#"{"id":8,"verb":"cancel","target":7}"#;
        writeln!(client, "{analyze}\n{cancel}").unwrap();
        let wait = Duration::from_secs(10);
        assert_eq!(seen1.recv_timeout(wait).unwrap(), analyze);
        assert_eq!(seen1.recv_timeout(wait).unwrap(), cancel);
        assert!(seen0.try_recv().is_err(), "shard 0 saw a line");
    }

    #[test]
    fn shard_command_passes_tuning_and_per_shard_store() {
        let mut invocation = crate::parse_args([
            "route".to_string(),
            "--socket".to_string(),
            "/tmp/r".to_string(),
        ])
        .expect("route parses");
        invocation.jobs = Some(3);
        invocation.store = Some("/tmp/fleet".to_string());
        invocation.rate_limit = Some(100);
        let cmd = shard_command(&invocation, 1, "/tmp/r.shard-1").expect("command builds");
        let args: Vec<String> = cmd
            .get_args()
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        assert_eq!(args[0], "serve");
        assert!(args.windows(2).any(|w| w == ["--socket", "/tmp/r.shard-1"]));
        assert!(args.windows(2).any(|w| w == ["--jobs", "3"]));
        assert!(args
            .windows(2)
            .any(|w| w == ["--store", "/tmp/fleet/shard-1"]));
        assert!(args.windows(2).any(|w| w == ["--rate-limit", "100"]));
    }
}
