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
//! - malformed lines and unsupported envelope versions are answered by
//!   the router itself, without touching a shard.
//!
//! Client lines are capped at [`MAX_LINE`] bytes, like `tpnc serve`'s:
//! once a connection holds that many bytes with no newline, the router
//! answers one `bad_request` and discards input through the next
//! newline; the connection stays open. Lines decode lossily, so invalid
//! UTF-8 gets a typed reply too. Shard replies are read uncapped: the
//! shards are the router's own children, and a trace reply can run to
//! hundreds of kilobytes.
//!
//! A monitor thread restarts any shard process that dies; forwarding
//! reconnects transparently. Requests in flight on a killed shard lose
//! their responses — clients retry — but every request accepted after
//! the restart is served from the shard's warm-started store,
//! byte-identical to before the kill.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tpn_service::protocol::{self, ParseError, Request, Verb, MAX_LINE};

use crate::Invocation;

/// How long a forward waits for a (re)spawned shard socket to accept.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// The pause between shard-connect attempts.
const CONNECT_RETRY: Duration = Duration::from_millis(50);

/// The monitor thread's poll interval for dead shard processes.
const MONITOR_INTERVAL: Duration = Duration::from_millis(100);

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

/// Entry point of `tpnc route`. Spawns the shard fleet, restarts dead
/// shards, and serves the front socket until the process is killed.
///
/// # Errors
///
/// Spawn and bind failures; per-connection I/O errors are logged and
/// drop only that connection.
#[cfg(unix)]
pub fn run(invocation: &Invocation) -> Result<(), String> {
    use std::os::unix::net::UnixListener;

    let front = invocation
        .sockets
        .first()
        .ok_or("route requires --socket PATH")?;
    let shards = invocation.shards.unwrap_or(2);
    let paths: Arc<Vec<String>> =
        Arc::new((0..shards).map(|i| format!("{front}.shard-{i}")).collect());

    let mut children = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let child = shard_command(invocation, i, path)?
            .spawn()
            .map_err(|e| format!("error spawning shard {i}: {e}"))?;
        children.push(Mutex::new(child));
    }
    let children = Arc::new(children);

    // The monitor: respawn any shard whose process exits. The shard
    // rebinds its socket itself (serve removes the stale file), and its
    // store warm-starts the cache, so post-restart responses stay
    // byte-identical.
    {
        let children = children.clone();
        let paths = paths.clone();
        let invocation = invocation.clone();
        std::thread::spawn(move || loop {
            for (i, slot) in children.iter().enumerate() {
                let mut child = slot.lock().expect("shard table");
                if let Ok(Some(status)) = child.try_wait() {
                    eprintln!("tpnc route: shard {i} exited ({status}); restarting");
                    match shard_command(&invocation, i, &paths[i]).and_then(|mut cmd| {
                        cmd.spawn()
                            .map_err(|e| format!("error respawning shard {i}: {e}"))
                    }) {
                        Ok(respawned) => *child = respawned,
                        Err(e) => eprintln!("tpnc route: {e}"),
                    }
                }
            }
            std::thread::sleep(MONITOR_INTERVAL);
        });
    }

    if std::fs::metadata(front.as_str()).is_ok() {
        std::fs::remove_file(front.as_str())
            .map_err(|e| format!("error removing stale {front}: {e}"))?;
    }
    let listener =
        UnixListener::bind(front.as_str()).map_err(|e| format!("error binding {front}: {e}"))?;
    eprintln!("tpnc route: {shards} shards behind {front}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("error accepting connection: {e}"))?;
        let paths = paths.clone();
        std::thread::spawn(move || {
            if let Err(e) = handle_client(stream, &paths) {
                eprintln!("tpnc route: connection error: {e}");
            }
        });
    }
    Ok(())
}

#[cfg(not(unix))]
pub fn run(_invocation: &Invocation) -> Result<(), String> {
    Err("route requires a Unix platform".to_string())
}

/// One client connection: read each line under the [`MAX_LINE`] cap,
/// parse it, pick a shard, forward the line as parsed, and stream every
/// shard's response lines back through a shared writer. Shard links open
/// lazily and reconnect after a shard restart.
#[cfg(unix)]
fn handle_client(
    client: std::os::unix::net::UnixStream,
    paths: &Arc<Vec<String>>,
) -> Result<(), String> {
    use std::os::unix::net::UnixStream;

    let shards = paths.len();
    let writer = Arc::new(Mutex::new(
        client
            .try_clone()
            .map_err(|e| format!("error cloning client stream: {e}"))?,
    ));
    // Which shard each in-flight request id went to, so cancel can
    // follow it; reader threads retire entries as responses pass back.
    let routes: Arc<Mutex<HashMap<u64, usize>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut links: Vec<Option<UnixStream>> = (0..shards).map(|_| None).collect();

    let connect = |shard: usize| -> std::io::Result<UnixStream> {
        let deadline = std::time::Instant::now() + CONNECT_TIMEOUT;
        loop {
            match UnixStream::connect(&paths[shard]) {
                Ok(stream) => return Ok(stream),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(CONNECT_RETRY),
            }
        }
    };

    let mut reader = BufReader::new(client);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let read = (&mut reader)
            .take(MAX_LINE as u64)
            .read_until(b'\n', &mut raw)
            .map_err(|e| format!("error reading request: {e}"))?;
        if read == 0 {
            break;
        }
        if read == MAX_LINE && raw.last() != Some(&b'\n') {
            reply(
                &writer,
                &protocol::error_line(
                    0,
                    None,
                    "bad_request",
                    &format!("request line exceeds {MAX_LINE} bytes"),
                    None,
                ),
            )?;
            reader
                .skip_until(b'\n')
                .map_err(|e| format!("error reading request: {e}"))?;
            continue;
        }
        let line = String::from_utf8_lossy(&raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (v, id, shard) = match protocol::parse_request(line) {
            Ok(request) => {
                let shard = shard_for(&request, &routes.lock().expect("route table"), shards);
                if !matches!(
                    request.verb,
                    Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal | Verb::Cancel
                ) {
                    routes
                        .lock()
                        .expect("route table")
                        .insert(request.id, shard);
                }
                (request.v, request.id, shard)
            }
            Err(ParseError::UnsupportedVersion { id, v }) => {
                reply(
                    &writer,
                    &protocol::error_envelope(
                        1,
                        id.unwrap_or(0),
                        None,
                        "unsupported_version",
                        &format!("unsupported envelope version {v} (this server speaks 1 and 2)"),
                        None,
                        None,
                    ),
                )?;
                continue;
            }
            Err(ParseError::Bad(message)) => {
                reply(
                    &writer,
                    &protocol::error_line(0, None, "bad_request", &message, None),
                )?;
                continue;
            }
        };
        // Forward, reconnecting once if the link is stale (the shard
        // restarted since we opened it).
        let mut delivered = false;
        for _attempt in 0..2 {
            if links[shard].is_none() {
                match connect(shard) {
                    Ok(stream) => {
                        spawn_shard_reader(&stream, shard, &writer, &routes)?;
                        links[shard] = Some(stream);
                    }
                    Err(_) => break,
                }
            }
            let link = links[shard].as_mut().expect("link just ensured");
            match writeln!(link, "{line}").and_then(|()| link.flush()) {
                Ok(()) => {
                    delivered = true;
                    break;
                }
                Err(_) => links[shard] = None,
            }
        }
        if !delivered {
            routes.lock().expect("route table").remove(&id);
            reply(
                &writer,
                &protocol::error_envelope(
                    v,
                    id,
                    None,
                    "unavailable",
                    &format!("shard {shard} is unavailable; retry"),
                    None,
                    Some(1_000),
                ),
            )?;
        }
    }
    Ok(())
}

/// Sends one response line back to the client.
#[cfg(unix)]
fn reply(writer: &Arc<Mutex<std::os::unix::net::UnixStream>>, line: &str) -> Result<(), String> {
    let mut writer = writer.lock().expect("client writer");
    writeln!(writer, "{line}")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("error writing response: {e}"))
}

/// Streams one shard link's response lines back to the client, retiring
/// each answered id from the cancel-route table. Exits when the link or
/// the client goes away.
#[cfg(unix)]
fn spawn_shard_reader(
    stream: &std::os::unix::net::UnixStream,
    shard: usize,
    writer: &Arc<Mutex<std::os::unix::net::UnixStream>>,
    routes: &Arc<Mutex<HashMap<u64, usize>>>,
) -> Result<(), String> {
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("error cloning shard {shard} stream: {e}"))?;
    let writer = writer.clone();
    let routes = routes.clone();
    std::thread::spawn(move || {
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            if let Ok(doc) = protocol::parse_json(&line) {
                if let Some(protocol::JsonValue::Num(n)) = doc.get("id") {
                    routes.lock().expect("route table").remove(&(*n as u64));
                }
            }
            if reply(&writer, &line).is_err() {
                break;
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[cfg(unix)]
    #[test]
    fn over_cap_lines_are_answered_before_their_newline_and_serving_continues() {
        use std::os::unix::net::{UnixListener, UnixStream};

        let shard_path =
            std::env::temp_dir().join(format!("tpnc-route-cap-{}", std::process::id()));
        let _ = std::fs::remove_file(&shard_path);
        let shard = UnixListener::bind(&shard_path).expect("bind stand-in shard");
        // A stand-in shard that answers the one forwarded line with itself.
        let shard = std::thread::spawn(move || {
            let (stream, _) = shard.accept().expect("router connects");
            let mut line = String::new();
            BufReader::new(&stream)
                .read_line(&mut line)
                .expect("shard reads");
            (&stream).write_all(line.as_bytes()).expect("shard writes");
        });
        let paths = Arc::new(vec![shard_path.to_string_lossy().into_owned()]);
        let (mut client, server) = UnixStream::pair().expect("socket pair");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let router = std::thread::spawn(move || handle_client(server, &paths));
        let mut replies = BufReader::new(client.try_clone().expect("clone client"));
        let mut next = || {
            let mut line = String::new();
            replies.read_line(&mut line).expect("router replies");
            line
        };

        // No newline yet: the cap alone triggers the reply.
        client.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let bad = next();
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
        let invalid = next();
        assert!(invalid.contains("\"kind\":\"bad_request\""), "{invalid}");
        assert_eq!(next().trim_end(), request);
        // Closing both client handles ends the connection.
        drop((client, replies));
        router.join().unwrap().expect("the connection ends cleanly");
        shard.join().unwrap();
        let _ = std::fs::remove_file(&shard_path);
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
