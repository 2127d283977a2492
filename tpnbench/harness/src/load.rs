//! The closed-loop client: `conns` connections from one process, each
//! keeping `window` requests in flight and sending the next request only
//! when a reply comes back, optionally after a think time.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::corpus::{Req, Rng};

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The `(loop, verb)` pair it exercised.
    pub pair: (usize, usize),
    pub hit: bool,
    /// Client-side round trip, send to reply.
    pub nanos: u64,
    /// When the reply arrived, in nanoseconds since the phase began.
    pub done: u64,
    /// The reply was OK and passed the oracle.
    pub ok: bool,
}

/// Everything one phase measured.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last reply.
    pub wall: Duration,
    /// The first few oracle failures, for the log.
    pub failures: Vec<String>,
}

/// When a phase stops issuing requests.
#[derive(Clone, Copy)]
pub struct Stop {
    pub at: Instant,
    /// Request indices at or above this are never sent.
    pub limit: u64,
}

type Check<'a> = dyn Fn(&Req, &str) -> Result<(), String> + Sync + 'a;

fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(',')?;
    rest[..end].parse().ok()
}

/// Runs one closed-loop phase against `socket`, drawing request indices
/// from `next` until `stop`, then draining what is in flight. Before
/// sending request `i` the connection thinks for a time drawn from `i`,
/// uniform in `0..think`; the round trip is timed from the send.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    socket: &Path,
    conns: usize,
    window: usize,
    think: Duration,
    stop: Stop,
    next: &AtomicU64,
    make: &(dyn Fn(u64) -> Req + Sync),
    check: &Check<'_>,
) -> Result<Phase, String> {
    let failures = Mutex::new(Vec::new());
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let failures = &failures;
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    let stream = UnixStream::connect(socket)
                        .map_err(|e| format!("connecting {}: {e}", socket.display()))?;
                    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                    let mut reader = BufReader::with_capacity(1 << 16, stream);
                    let mut outstanding: HashMap<u64, (Req, Instant)> = HashMap::new();
                    let mut samples = Vec::new();
                    let mut line = String::new();
                    loop {
                        while outstanding.len() < window && Instant::now() < stop.at {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= stop.limit {
                                break;
                            }
                            if !think.is_zero() {
                                let nanos = think.as_nanos() as u64;
                                let pause = Rng::new(index).below(nanos);
                                std::thread::sleep(Duration::from_nanos(pause));
                            }
                            let req = make(index);
                            let mut text = req.line();
                            text.push('\n');
                            let sent = Instant::now();
                            writer
                                .write_all(text.as_bytes())
                                .map_err(|e| format!("sending: {e}"))?;
                            outstanding.insert(req.id, (req, sent));
                        }
                        if outstanding.is_empty() {
                            return Ok(samples);
                        }
                        line.clear();
                        let n = reader
                            .read_line(&mut line)
                            .map_err(|e| format!("receiving: {e}"))?;
                        let received = Instant::now();
                        if n == 0 {
                            return Err("server closed the connection".into());
                        }
                        let reply = line.trim_end();
                        let (req, sent) = reply_id(reply)
                            .and_then(|id| outstanding.remove(&id))
                            .ok_or_else(|| format!("reply to no request in flight: {reply}"))?;
                        let verdict = check(&req, reply);
                        if let Err(why) = &verdict {
                            let mut f = failures.lock().expect("failure log");
                            if f.len() < 5 {
                                f.push(format!("request {} ({}): {why}", req.id, req.verb));
                            }
                        }
                        samples.push(Sample {
                            pair: (req.loop_idx, req.verb_idx),
                            hit: req.hit,
                            nanos: received.duration_since(sent).as_nanos() as u64,
                            done: received.duration_since(start).as_nanos() as u64,
                            ok: verdict.is_ok(),
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let mut samples = Vec::new();
    for conn in per_conn {
        samples.extend(conn?);
    }
    Ok(Phase {
        samples,
        wall,
        failures: failures.into_inner().expect("failure log"),
    })
}
