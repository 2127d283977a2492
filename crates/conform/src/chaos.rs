//! Deterministic chaos mode for the compile service.
//!
//! A seeded fault plan assigns each request of a mixed-verb stream one of
//! four fates: run clean, be cancelled mid-flight, carry an
//! already-expired deadline, or panic inside the pipeline (an SCP depth
//! of zero, which the worker's panic isolation must confine).  The same
//! stream is first served by a fault-free reference service; the chaos
//! run must then satisfy:
//!
//! * every clean request's NDJSON line is **byte-identical** to the
//!   reference response (the cache may be hot, cold, or freshly healed
//!   after a panic eviction — the bytes must not care);
//! * every faulted request yields its typed error — or, for the two racy
//!   faults (cancel, deadline), the full byte-identical success when the
//!   fault lost the race;
//! * the service's counters account for every injected fault that bit;
//! * after the storm, a per-source sweep re-queries the chaos service
//!   and must again be byte-identical to the reference — panics evict
//!   poisoned cache entries, so recompilation must heal to the same
//!   bytes (cache coherence).
//!
//! Faults race by design (cancellation is cooperative, deadlines are
//! wall-clock), so the *assertions* are closed under both outcomes while
//! the *fault plan* is fully deterministic in the seed.

use std::panic;
use std::sync::{mpsc, Once};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use tpn_service::protocol::{Request, Verb};
use tpn_service::{Service, ServiceConfig};

/// Tuning for one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault plan.
    pub seed: u64,
    /// Requests in the storm.
    pub requests: u64,
    /// Worker threads of the service under test.
    pub workers: usize,
    /// Also run the shard kill/restart phase: a service with a
    /// persistent artifact store is torn down and restarted on the same
    /// directory, and its warm cache must re-converge byte-identically.
    pub restart: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            requests: 120,
            workers: 4,
            restart: true,
        }
    }
}

/// One request's planned fate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Cancel,
    Deadline,
    Panic,
}

/// The outcome of a chaos run.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosReport {
    /// Requests in the storm.
    pub requests: u64,
    /// Requests that ran clean.
    pub clean: u64,
    /// Cancellations injected / observed as typed errors.
    pub injected_cancels: u64,
    /// Cancellations that actually interrupted the request.
    pub effective_cancels: u64,
    /// Expired deadlines injected.
    pub injected_deadlines: u64,
    /// Deadlines that actually expired the request.
    pub effective_deadlines: u64,
    /// Panics injected (every one must be observed and confined).
    pub injected_panics: u64,
    /// Post-storm coherence probes, all byte-checked.
    pub coherence_probes: u64,
    /// Kill/restart probes against the persistent store, byte-checked.
    pub restart_probes: u64,
    /// Restart probes served warm from the store-loaded cache.
    pub warm_hits: u64,
    /// Every assertion failure; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the chaos run satisfied every assertion.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn source_pool() -> Vec<String> {
    (0..8usize)
        .map(|i| {
            let nodes = i % 3 + 1;
            let body: String = (0..nodes)
                .map(|j| format!("X{j}[i] := X{j}[i-1] + {}; ", i + 1))
                .collect();
            format!("do i from 2 to n {{ {body}}}")
        })
        .collect()
}

/// The clean form of request `id`: mixed verbs over a small source pool.
fn plan_request(id: u64, pool: &[String]) -> Request {
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

/// Applies a planned fault to a clean request.
fn apply_fault(mut request: Request, fault: Fault) -> Request {
    match fault {
        Fault::None | Fault::Cancel => {}
        // Already expired on admission: stage-1 of the worker's
        // interruption checks fires before any compilation.
        Fault::Deadline => request.deadline_ms = Some(0),
        // An SCP depth of zero panics inside the pipeline; the protocol
        // parser rejects it, but in-process injection goes around the
        // parser on purpose to reach the worker's panic isolation.
        Fault::Panic => {
            request.verb = Verb::Scp;
            request.depth = Some(0);
        }
    }
    request
}

fn sample_fault(rng: &mut StdRng) -> Fault {
    match rng.random_range(0..100u32) {
        0..=69 => Fault::None,
        70..=79 => Fault::Cancel,
        80..=89 => Fault::Deadline,
        _ => Fault::Panic,
    }
}

fn has_error_kind(line: &str, kind: &str) -> bool {
    line.contains(&format!("\"error\":{{\"kind\":\"{kind}\"")) || {
        // Field order is fixed by the serializer, but don't depend on it.
        line.contains(&format!("\"kind\":\"{kind}\"")) && line.contains("\"error\"")
    }
}

/// The panic message of the injected SCP-depth-0 fault.
const INJECTED_PANIC: &str = "pipeline depth must be at least 1";

static SILENCE: Once = Once::new();

/// Installs (once per process) a panic hook that swallows the expected
/// injected-fault panic, so a storm doesn't spray dozens of identical
/// backtraces over the fuzzer's output.  Any other panic still reaches
/// the previous hook untouched.
fn silence_injected_panics() {
    SILENCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains(INJECTED_PANIC))
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains(INJECTED_PANIC));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Runs the chaos storm and returns its report.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    silence_injected_panics();
    let mut report = ChaosReport {
        requests: config.requests,
        clean: 0,
        injected_cancels: 0,
        effective_cancels: 0,
        injected_deadlines: 0,
        effective_deadlines: 0,
        injected_panics: 0,
        coherence_probes: 0,
        restart_probes: 0,
        warm_hits: 0,
        violations: Vec::new(),
    };
    let pool = source_pool();
    let service_config = |workers: usize| {
        ServiceConfig::builder()
            .workers(workers)
            .queue(config.requests.max(64) as usize)
            .build()
            .expect("chaos service config")
    };

    // Fault-free reference run: the expected bytes for every request id.
    let reference_service = Service::start(service_config(config.workers));
    let mut reference = Vec::with_capacity(config.requests as usize);
    for id in 0..config.requests {
        match reference_service.call(plan_request(id, &pool)) {
            Ok(response) => reference.push(response.line),
            Err(e) => {
                report
                    .violations
                    .push(format!("reference run overloaded at id {id}: {e}"));
                return report;
            }
        }
    }

    // Deterministic fault plan.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let faults: Vec<Fault> = (0..config.requests)
        .map(|_| sample_fault(&mut rng))
        .collect();

    // The storm: submit in flights, cancel the flagged ones immediately,
    // then collect and assert.
    let chaos_service = Service::start(service_config(config.workers));
    let flight = (config.workers * 4).max(8) as u64;
    let mut id = 0u64;
    while id < config.requests {
        let upper = (id + flight).min(config.requests);
        let mut in_flight = Vec::new();
        for i in id..upper {
            let fault = faults[i as usize];
            let request = apply_fault(plan_request(i, &pool), fault);
            let (reply, response) = mpsc::channel();
            match chaos_service.submit(request, move |r| {
                let _ = reply.send(r);
            }) {
                Ok(canceller) => {
                    if fault == Fault::Cancel {
                        canceller.cancel();
                    }
                    in_flight.push((i, fault, response));
                }
                Err(e) => report
                    .violations
                    .push(format!("chaos run overloaded at id {i}: {e}")),
            }
        }
        for (i, fault, response) in in_flight {
            let line = response
                .recv()
                .expect("a worker answers every admitted request")
                .line;
            let expected = &reference[i as usize];
            match fault {
                Fault::None => {
                    report.clean += 1;
                    if &line != expected {
                        report.violations.push(format!(
                            "id {i}: clean response diverged from reference:\n  chaos: {line}\n  ref:   {expected}"
                        ));
                    }
                }
                Fault::Cancel => {
                    report.injected_cancels += 1;
                    if has_error_kind(&line, "cancelled") {
                        report.effective_cancels += 1;
                    } else if &line != expected {
                        report.violations.push(format!(
                            "id {i}: cancelled request neither errored nor matched reference: {line}"
                        ));
                    }
                }
                Fault::Deadline => {
                    report.injected_deadlines += 1;
                    if has_error_kind(&line, "deadline") {
                        report.effective_deadlines += 1;
                    } else if &line != expected {
                        report.violations.push(format!(
                            "id {i}: deadline request neither expired nor matched reference: {line}"
                        ));
                    }
                }
                Fault::Panic => {
                    report.injected_panics += 1;
                    if !has_error_kind(&line, "panic") {
                        report.violations.push(format!(
                            "id {i}: injected panic was not reported as one: {line}"
                        ));
                    }
                }
            }
        }
        id = upper;
    }

    // Counter coherence: the service's books must match what we saw.
    let counters = chaos_service.counters();
    if counters.panicked != report.injected_panics {
        report.violations.push(format!(
            "counters.panicked = {} but {} panics were injected",
            counters.panicked, report.injected_panics
        ));
    }
    if counters.cancelled != report.effective_cancels {
        report.violations.push(format!(
            "counters.cancelled = {} but {} cancellations bit",
            counters.cancelled, report.effective_cancels
        ));
    }
    if counters.deadline_expired != report.effective_deadlines {
        report.violations.push(format!(
            "counters.deadline_expired = {} but {} deadlines bit",
            counters.deadline_expired, report.effective_deadlines
        ));
    }

    // Cache coherence after the storm: panic isolation evicts the
    // poisoned entries, so a fresh sweep must recompile to bytes
    // identical to the fault-free service's.
    for (i, source) in pool.iter().enumerate() {
        let probe = |service: &Service| {
            service.call(Request::basic(
                1_000_000 + i as u64,
                Verb::Analyze,
                source.clone(),
            ))
        };
        match (probe(&chaos_service), probe(&reference_service)) {
            (Ok(chaos), Ok(reference)) => {
                report.coherence_probes += 1;
                if chaos.line != reference.line {
                    report.violations.push(format!(
                        "post-storm sweep diverged on source {i}:\n  chaos: {}\n  ref:   {}",
                        chaos.line, reference.line
                    ));
                }
            }
            (chaos, reference) => report.violations.push(format!(
                "post-storm sweep overloaded on source {i}: {chaos:?} / {reference:?}"
            )),
        }
    }

    if config.restart {
        run_restart_phase(config, &pool, &mut report);
    }

    report
}

/// The shard kill/restart phase: populate a store-backed service, tear
/// it down (the in-process stand-in for `kill -9` of one shard — the
/// store's torn-write crash safety is covered by its own tests),
/// restart on the same directory, and require every re-probe to be a
/// byte-identical warm hit served from the reloaded cache.
fn run_restart_phase(config: &ChaosConfig, pool: &[String], report: &mut ChaosReport) {
    // Concurrent chaos runs in one process (cargo test threads) must
    // not share a store directory: a sequence number keeps each
    // invocation's populate/teardown/restart cycle to itself.
    static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tpn-chaos-store-{}-{}-{}",
        std::process::id(),
        config.seed,
        DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store_config = || {
        ServiceConfig::builder()
            .workers(config.workers)
            .queue(config.requests.max(64) as usize)
            .store(&dir)
            .build()
            .expect("chaos store config")
    };
    let probe = |i: usize| {
        let mut request = Request::basic(2_000_000 + i as u64, Verb::Schedule, pool[i].clone());
        request.depth = None;
        request
    };
    let outcome = (|| -> Result<(), String> {
        let populate = Service::try_start(store_config())
            .map_err(|e| format!("store-backed service failed to start: {e}"))?;
        let mut expected = Vec::with_capacity(pool.len());
        for i in 0..pool.len() {
            let response = populate
                .call(probe(i))
                .map_err(|e| format!("store populate rejected source {i}: {e}"))?;
            if !response.ok {
                return Err(format!(
                    "store populate failed on source {i}: {}",
                    response.line
                ));
            }
            expected.push(response.line);
        }
        drop(populate);
        let revived = Service::try_start(store_config())
            .map_err(|e| format!("restarted service failed to start: {e}"))?;
        for (i, expected) in expected.iter().enumerate() {
            let response = revived
                .call(probe(i))
                .map_err(|e| format!("restarted service rejected source {i}: {e}"))?;
            report.restart_probes += 1;
            if &response.line != expected {
                return Err(format!(
                    "restart diverged on source {i}:
  before: {expected}
  after:  {}",
                    response.line
                ));
            }
            if response.cache_hit {
                report.warm_hits += 1;
            }
        }
        let counters = revived.counters();
        let store = counters
            .store
            .ok_or("restarted service reports no store counters")?;
        if store.loaded < pool.len() as u64 {
            return Err(format!(
                "store warm-started only {} of {} entries",
                store.loaded,
                pool.len()
            ));
        }
        if report.warm_hits != pool.len() as u64 {
            return Err(format!(
                "only {} of {} restart probes were warm hits",
                report.warm_hits,
                pool.len()
            ));
        }
        Ok(())
    })();
    if let Err(violation) = outcome {
        report.violations.push(violation);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_passes_and_injects_every_fault_kind() {
        let report = run_chaos(&ChaosConfig {
            seed: 0,
            requests: 80,
            workers: 4,
            restart: true,
        });
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.clean > 0);
        assert!(report.injected_cancels > 0);
        assert!(report.injected_deadlines > 0);
        assert!(report.injected_panics > 0);
        assert_eq!(report.coherence_probes, 8);
        assert_eq!(report.restart_probes, 8);
        assert_eq!(report.warm_hits, 8);
    }

    #[test]
    fn chaos_fault_plan_is_deterministic() {
        let a = run_chaos(&ChaosConfig::default());
        let b = run_chaos(&ChaosConfig::default());
        assert_eq!(a.injected_cancels, b.injected_cancels);
        assert_eq!(a.injected_deadlines, b.injected_deadlines);
        assert_eq!(a.injected_panics, b.injected_panics);
        assert!(a.passed() && b.passed());
    }
}
