//! `tpnbench`: drives a release `tpnc serve` / `tpnc route` through a
//! seeded closed-loop workload and prints one JSON result line.
//!
//! ```text
//! tpnbench --tpnc PATH --workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics of the served
//! processes; with `--trace 1` it replays the same seeded stream in
//! process and reports per-layer metrics (see `LAYERS.md`).

mod corpus;
mod json;
mod load;
mod oracle;
mod procs;
mod traced;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use corpus::Req;
use load::{closed_loop, Phase, Stop};
use oracle::{Expect, HitBook};
use procs::Server;
use workload::{Plan, Workload};

/// Worker threads of the cold `tpnc serve` (one per core of the 2-core
/// target machine).
const COLD_JOBS: usize = 2;
/// Client connections of the cold workloads. One: the two vCPUs of the
/// target machine deliver about one core between them (a single-threaded
/// compile there runs twice as long beside a busy loop on the other
/// vCPU), so a second cold connection would make the heavy requests'
/// latency, and with it p99, measure how often two compiles overlap.
const COLD_CONNS: usize = 1;
/// Upper end of the uniform think time of a cold connection before each
/// send. The served poll loop sleeps 1 ms when idle; a client that sent
/// at once on each reply would always arrive at the same point of that
/// sleep, which splits the round trips into a one-sleep and a two-sleep
/// cluster with the median on the edge between them.
const COLD_THINK: Duration = Duration::from_millis(1);
/// Client connections of the fleet workload.
const FLEET_CONNS: usize = 2;
/// Requests in flight per connection on the fleet workload.
const FLEET_WINDOW: usize = 8;
/// Spawns timed per run; `setup_s` is their median.
const COLD_SETUPS: usize = 101;
const FLEET_SETUPS: usize = 25;
/// Samples per measurement window (see `end_to_end`): enough that each
/// window leaves about 15 samples above its own p99.
const WINDOW_SAMPLES: usize = 1_500;
/// Unmeasured warm-up before the measured phase.
const WARMUP: Duration = Duration::from_millis(1_500);
/// Warm-up requests draw indices from here, so they never share a key
/// with the measured phase.
const WARMUP_BASE: u64 = 1 << 32;

struct Args {
    tpnc: PathBuf,
    workdir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
    Ok(Args {
        tpnc: PathBuf::from(get("--tpnc")?),
        workdir: PathBuf::from(get("--workdir")?),
        workload: Workload::parse(get("--workload")?)
            .ok_or_else(|| format!("unknown workload {}", map["--workload"]))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A metric value with its unit.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The result line's fields.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems outside the counted requests (fill, warm-up, sample
    /// sufficiency); any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values, plus how many lie above it.
fn percentile(sorted: &[u64], q: f64) -> (u64, usize) {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let above = sorted.len() - sorted.partition_point(|&v| v <= value);
    (value, above)
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Derives the expectations of every loop the oracle must know.
fn expectations(workload: Workload, plan: &Plan) -> Result<Vec<Expect>, String> {
    plan.loops()
        .iter()
        .map(|lp| match workload {
            Workload::ColdFrustum => oracle::expect_frustum(lp),
            Workload::ColdAnalytic => oracle::expect_analytic(lp, true),
            Workload::FleetRestart => oracle::expect_analytic(lp, false),
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn warmup_and_measure(
    socket: &Path,
    conns: usize,
    window: usize,
    think: Duration,
    seconds: u64,
    plan: &Plan,
    check: &(dyn Fn(&Req, &str) -> Result<(), String> + Sync),
    problems: &mut Vec<String>,
) -> Result<Phase, String> {
    let make = |i: u64| plan.request(i);
    let warm = closed_loop(
        socket,
        conns,
        window,
        think,
        Stop {
            at: Instant::now() + WARMUP,
            limit: u64::MAX,
        },
        &AtomicU64::new(WARMUP_BASE),
        &make,
        check,
    )?;
    problems.extend(warm.failures.iter().map(|f| format!("warm-up: {f}")));
    closed_loop(
        socket,
        conns,
        window,
        think,
        Stop {
            at: Instant::now() + Duration::from_secs(seconds),
            limit: u64::MAX,
        },
        &AtomicU64::new(0),
        &make,
        check,
    )
}

/// Spawns the served tree `reps` times, timing spawn-to-ready, and keeps
/// the last one running.
fn timed_setups(
    reps: usize,
    spawn: impl Fn() -> Result<Server, String>,
) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut current: Option<Server> = None;
    for _ in 0..reps {
        if let Some(mut old) = current.take() {
            old.stop();
        }
        let started = Instant::now();
        let mut server = spawn()?;
        server.wait_ready()?;
        times.push(started.elapsed().as_secs_f64());
        current = Some(server);
    }
    let setup_s = median(&mut times);
    let quartile = |q: usize| times[(times.len() - 1) * q / 4] * 1e3;
    eprintln!(
        "tpnbench: {reps} setups, ms: min {:.2} q1 {:.2} median {:.2} q3 {:.2} max {:.2}",
        quartile(0),
        quartile(1),
        quartile(2),
        quartile(3),
        quartile(4)
    );
    Ok((current.expect("at least one setup"), setup_s))
}

/// Fills the fleet store with the hot pool (recording every hit reply)
/// and the background artifacts, through the binary under test.
fn fill_store(
    args: &Args,
    stream: &corpus::FleetStream,
    hot_expect: &[Expect],
    write_expect: &[Expect],
    store: &Path,
    front: &Path,
) -> Result<HitBook, String> {
    let mut server = Server::route(&args.tpnc, front, 2, 1, store)?;
    server.wait_ready()?;
    let book = Mutex::new(HitBook::new());
    let hot = closed_loop(
        front,
        1,
        1,
        Duration::ZERO,
        Stop {
            at: Instant::now() + Duration::from_secs(60),
            limit: (stream.hot.len() * stream.verbs.len()) as u64,
        },
        &AtomicU64::new(0),
        &|i| stream.hot_request(i),
        &|req, line| {
            oracle::check(req, line, &hot_expect[req.loop_idx])?;
            let stripped = oracle::strip_id(line).ok_or("reply has no id prefix")?;
            book.lock()
                .expect("hit book")
                .insert((req.loop_idx, req.verb_idx), stripped.to_string());
            Ok(())
        },
    )?;
    let background = closed_loop(
        front,
        FLEET_CONNS,
        FLEET_WINDOW,
        Duration::ZERO,
        Stop {
            at: Instant::now() + Duration::from_secs(90),
            limit: workload::BACKGROUND,
        },
        &AtomicU64::new(0),
        &|i| stream.background_request(i),
        &|req, line| oracle::check(req, line, &write_expect[req.loop_idx]),
    )?;
    server.stop();
    let failures: Vec<String> = hot
        .failures
        .into_iter()
        .chain(background.failures)
        .collect();
    let filled = hot.samples.len() + background.samples.len();
    let want = stream.hot.len() * stream.verbs.len() + workload::BACKGROUND as usize;
    if !failures.is_empty() || filled != want {
        return Err(format!(
            "store fill: {filled} of {want} replies, failures {failures:?}"
        ));
    }
    Ok(book.into_inner().expect("hit book"))
}

fn end_to_end(args: &Args, plan: &Plan, expects: &[Expect]) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let (phase, setup_s, rss) = match plan {
        Plan::Cold(_) => {
            let socket = args.workdir.join("serve.sock");
            let (mut server, setup_s) = timed_setups(COLD_SETUPS, || {
                Server::serve(&args.tpnc, &socket, COLD_JOBS)
            })?;
            let check = |req: &Req, line: &str| oracle::check(req, line, &expects[req.loop_idx]);
            let phase = warmup_and_measure(
                &socket,
                COLD_CONNS,
                1,
                COLD_THINK,
                args.seconds,
                plan,
                &check,
                &mut problems,
            )?;
            let rss = server.peak_rss_mib()?;
            server.stop();
            (phase, setup_s, rss)
        }
        Plan::Fleet(stream) => {
            let store = args.workdir.join("store");
            let front = args.workdir.join("route.sock");
            let hot_expect: Vec<Expect> = stream
                .hot
                .iter()
                .map(|lp| oracle::expect_analytic(lp, true))
                .collect::<Result<_, _>>()?;
            let book = fill_store(args, stream, &hot_expect, expects, &store, &front)?;
            let (mut server, setup_s) = timed_setups(FLEET_SETUPS, || {
                Server::route(&args.tpnc, &front, 2, 1, &store)
            })?;
            let check = |req: &Req, line: &str| {
                if req.hit {
                    oracle::check_hit(req, line, &book)
                } else {
                    oracle::check(req, line, &expects[req.loop_idx])
                }
            };
            let phase = warmup_and_measure(
                &front,
                FLEET_CONNS,
                FLEET_WINDOW,
                Duration::ZERO,
                args.seconds,
                plan,
                &check,
                &mut problems,
            )?;
            let rss = server.peak_rss_mib()?;
            server.stop();
            (phase, setup_s, rss)
        }
    };
    problems.extend(phase.failures.iter().cloned());

    if phase.samples.is_empty() {
        return Err("no replies in the measured phase".into());
    }
    let ok = phase.samples.iter().filter(|s| s.ok).count();
    let mut nanos: Vec<u64> = phase.samples.iter().map(|s| s.nanos).collect();
    nanos.sort_unstable();
    let (p50, _) = percentile(&nanos, 0.50);

    // Throughput and p99 are medians over equal windows of the measured
    // phase (by completion time), each with about WINDOW_SAMPLES samples,
    // so a burst of host contention moves one window, not the result.
    let count = (nanos.len() / WINDOW_SAMPLES).clamp(1, args.seconds.max(1) as usize);
    let width = phase.wall.as_nanos() as u64 / count as u64 + 1;
    let mut windows: Vec<(Vec<u64>, usize)> = vec![(Vec::new(), 0); count];
    for s in &phase.samples {
        let w = &mut windows[(s.done / width) as usize];
        w.0.push(s.nanos);
        w.1 += usize::from(s.ok);
    }
    let mut rates = Vec::with_capacity(count);
    let mut p99s = Vec::with_capacity(count);
    let mut fewest_above = usize::MAX;
    for (latencies, ok) in &mut windows {
        if latencies.is_empty() {
            problems.push("a measurement window holds no replies".into());
            continue;
        }
        latencies.sort_unstable();
        let (p99, above) = percentile(latencies, 0.99);
        fewest_above = fewest_above.min(above);
        p99s.push(ms(p99));
        rates.push(*ok as f64 / (width as f64 / 1e9));
    }
    if fewest_above < 10 {
        problems.push(format!(
            "a window has only {fewest_above} samples above its p99"
        ));
    }
    let mut pairs: HashMap<(usize, usize), Vec<f64>> = HashMap::new();
    // On the fleet the pairs are the hot (key, verb) pairs: writes are
    // first-seen loops that never repeat.
    for s in phase.samples.iter().filter(|s| plan.is_cold() || s.hit) {
        pairs.entry(s.pair).or_default().push(ms(s.nanos));
    }
    let mut medians: Vec<((usize, usize), f64)> =
        pairs.iter_mut().map(|(&k, v)| (k, median(v))).collect();
    let geomean = (medians.iter().map(|(_, m)| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    medians.sort_by(|a, b| b.1.total_cmp(&a.1));
    for ((lp, verb), m) in medians.iter().take(5) {
        eprintln!(
            "tpnbench: slow pair {} / {}: median {m:.3} ms",
            plan.loop_name(*lp),
            plan.verb_name(*verb)
        );
    }

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    put("setup_s", setup_s, "s");
    put("throughput_rps", median(&mut rates.clone()), "req/s");
    put("latency_p50_ms", ms(p50), "ms");
    put("latency_p99_ms", median(&mut p99s.clone()), "ms");
    put("latency_geomean_ms", geomean, "ms");
    put("peak_rss_mb", rss, "MiB");
    eprintln!(
        "tpnbench: {} samples, {} (loop, verb) pairs, wall {:.3} s; per window of {:.2} s: OK/s {:.0?}, p99 ms {:.2?}",
        nanos.len(),
        pairs.len(),
        phase.wall.as_secs_f64(),
        width as f64 / 1e9,
        rates,
        p99s
    );
    Ok(Outcome {
        attempted: phase.samples.len() as u64,
        failed: (phase.samples.len() - ok) as u64,
        problems,
        metrics,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    procs::refuse_strays()?;
    let plan = args.workload.plan(args.seed);
    let expects = expectations(args.workload, &plan)?;
    if args.trace {
        traced::run(args, &plan, &expects)
    } else {
        end_to_end(args, &plan, &expects)
    }
}

/// Runs in a fresh work directory and removes it, with every socket and
/// store in it, whether the run succeeds or not.
fn run_in_workdir(args: &Args) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&args.workdir);
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("creating {}: {e}", args.workdir.display()))?;
    let outcome = run(args);
    let _ = std::fs::remove_dir_all(&args.workdir);
    outcome
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tpnbench: {e}\nusage: tpnbench --tpnc PATH --workdir DIR --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    procs::become_subreaper();
    match run_in_workdir(&args) {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("tpnbench: {p}");
            }
            println!("{}", outcome.json());
        }
        Err(e) => {
            eprintln!("tpnbench: {e}");
            std::process::exit(1);
        }
    }
}
