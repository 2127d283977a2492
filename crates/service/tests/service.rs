//! Integration tests of the compile service: concurrent cache
//! behaviour, typed backpressure, per-client rate limiting, panic
//! isolation, deadlines, cancellation, and a cached/uncached
//! byte-identity property across every protocol verb.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use proptest::prelude::*;
use tpn_service::protocol::{self, Request, Verb};
use tpn_service::{RateLimit, Rejected, Service, ServiceConfig};

fn source(nodes: usize, seed: u64) -> String {
    let body: String = (0..nodes.max(1))
        .map(|j| format!("X{j}[i] := X{j}[i-1] + {}; ", seed + 1))
        .collect();
    format!("do i from 2 to n {{ {body}}}")
}

fn request(id: u64, verb: Verb, source: String, depth: Option<u64>) -> Request {
    let mut request = Request::basic(id, verb, source);
    request.depth = depth;
    request
}

/// N client threads hammering M distinct + repeated keys through the
/// pool: no deadlock, deterministic responses, every response matches
/// the one-shot answer for its key.
#[test]
fn threaded_stress_is_deterministic() {
    let service = Arc::new(Service::start(
        ServiceConfig::builder()
            .workers(4)
            .queue(256)
            .build()
            .unwrap(),
    ));
    let distinct = 8;
    // One reference response per key, computed single-threaded first.
    let references: Vec<String> = (0..distinct)
        .map(|k| {
            let response = service
                .call(request(
                    k,
                    Verb::Analyze,
                    source(1 + k as usize % 3, k),
                    None,
                ))
                .expect("reference not overloaded");
            assert!(response.ok);
            response.line
        })
        .collect();

    let errors = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let service = service.clone();
            let references = references.clone();
            let errors = errors.clone();
            std::thread::spawn(move || {
                for i in 0..32u64 {
                    let k = (t * 7 + i) % distinct;
                    let response = service
                        .call(request(
                            k,
                            Verb::Analyze,
                            source(1 + k as usize % 3, k),
                            None,
                        ))
                        .expect("blocking callers never overflow the queue");
                    if !response.ok || response.line != references[k as usize] {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(errors.load(Ordering::Relaxed), 0);
    let counters = service.counters();
    assert_eq!(counters.completed, 8 + 8 * 32);
    // Every request past the 8 reference compiles was a hit.
    assert_eq!(counters.cache.misses, 8);
    assert_eq!(counters.cache.hits, 8 * 32);
}

/// Eviction honours the configured capacity under concurrent inserts.
#[test]
fn eviction_honours_capacity_under_threads() {
    // 8 shards × weight 1, unit-weight loops: at most 8 live entries.
    let service = Arc::new(Service::start(
        ServiceConfig::builder()
            .workers(4)
            .cache(8)
            .build()
            .unwrap(),
    ));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                for i in 0..16u64 {
                    let k = t * 16 + i;
                    let response = service
                        .call(request(k, Verb::Analyze, source(1, 1000 + k), None))
                        .expect("not overloaded");
                    assert!(response.ok, "{}", response.line);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert!(
        service.cache_len() <= 8,
        "cache holds {} entries over capacity 8",
        service.cache_len()
    );
    let counters = service.counters();
    assert_eq!(counters.cache.entries, service.cache_len() as u64);
    assert!(counters.cache.evictions >= 56, "64 keys into 8 slots");
}

/// A full queue rejects with the typed signal, and rejected requests
/// leave the service consistent.
#[test]
fn overload_is_a_typed_rejection() {
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue(2)
            .build()
            .unwrap(),
    );
    let (reply, replies) = mpsc::channel();
    let mut admitted = 0;
    let mut rejections = 0;
    for id in 0..32 {
        let reply = reply.clone();
        match service.submit(
            request(id, Verb::Schedule, source(3, id), Some(2)),
            move |r| {
                let _ = reply.send(r);
            },
        ) {
            Ok(_) => admitted += 1,
            Err(Rejected::Overloaded(overloaded)) => {
                assert_eq!(overloaded.capacity, 2);
                assert!(overloaded.depth <= 2);
                rejections += 1;
            }
            Err(other) => panic!("unconfigured limiter rejected: {other}"),
        }
    }
    assert!(rejections > 0, "a 32-burst must overflow capacity 2");
    for _ in 0..admitted {
        assert!(replies.recv().unwrap().ok);
    }
    let counters = service.counters();
    assert_eq!(counters.rejected_overloaded, rejections);
    assert_eq!(counters.accepted + rejections, 32);
}

/// An empty token bucket turns its client away with a typed rejection
/// and retry advice, while other clients are still admitted.
#[test]
fn rate_limit_is_a_typed_per_client_rejection() {
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .rate_limit(RateLimit {
                per_second: 1,
                burst: 1,
                max_in_flight: 8,
            })
            .build()
            .unwrap(),
    );
    let from = |id: u64, client: &str| {
        let mut request = request(id, Verb::Analyze, source(1, id), None);
        request.client = Some(client.to_string());
        request
    };
    assert!(
        service
            .call(from(0, "a"))
            .expect("a's first is admitted")
            .ok
    );
    match service.call(from(1, "a")) {
        Err(Rejected::RateLimited(limited)) => {
            assert_eq!(limited.client, "a");
            assert!(limited.retry_after_ms > 0, "{limited}");
        }
        other => panic!("a's second request was not rate limited: {other:?}"),
    }
    assert!(service.call(from(2, "b")).expect("b is admitted").ok);
    assert_eq!(service.counters().rate_limited, 1);
}

/// A panicking request (SCP depth 0 trips the documented panic) is
/// confined: typed `panic` response, pool survives, and the poisoned
/// cache entry is dropped so the key still works afterwards.
#[test]
fn worker_pool_survives_a_mid_compile_panic() {
    let service = Service::start(ServiceConfig::builder().workers(2).build().unwrap());
    let src = source(2, 7);
    let mut bad = request(1, Verb::Scp, src.clone(), Some(2));
    bad.depth = Some(0);
    let response = service.call(bad).expect("not overloaded");
    assert!(!response.ok);
    assert!(
        response.line.contains("\"kind\":\"panic\""),
        "{}",
        response.line
    );

    // Same key, valid depth: the pool is alive and the entry recompiles.
    for id in 2..6 {
        let ok = service
            .call(request(id, Verb::Scp, src.clone(), Some(2)))
            .expect("not overloaded");
        assert!(ok.ok, "{}", ok.line);
    }
    let counters = service.counters();
    assert_eq!(counters.panicked, 1);
    assert_eq!(counters.completed, 4);
}

/// One request line cannot make a worker simulate without bound: SCP at
/// depth 10^8 stops at the detection ceiling with a typed `compile`
/// error, and the next request on the same worker is answered.
#[test]
fn a_huge_scp_depth_stops_at_the_detection_ceiling() {
    let service = Service::start(ServiceConfig::builder().workers(1).build().unwrap());
    let src = "doall i from 1 to n { A[i] := B[i] + 1; C[i] := A[i] * 2; }";
    let line = format!(r#"{{"id":1,"verb":"scp","source":"{src}","depth":100000000}}"#);
    let hostile = protocol::parse_request(&line).expect("a well-formed request");
    let response = service.call(hostile).expect("not overloaded");
    assert!(!response.ok);
    assert!(
        response.line.contains("\"kind\":\"compile\"")
            && response.line.contains(&format!(
                "no repeated instantaneous state within {} steps",
                tpn::MAX_STEP_BUDGET
            )),
        "{}",
        response.line
    );
    let next = service
        .call(request(2, Verb::Analyze, src.to_string(), None))
        .expect("not overloaded");
    assert!(next.ok, "{}", next.line);
}

/// An expired wall-clock deadline yields a `deadline` response between
/// stages, not a hang.
#[test]
fn deadlines_expire_between_stages() {
    let service = Service::start(ServiceConfig::builder().workers(1).build().unwrap());
    let mut req = request(1, Verb::Trace, source(3, 3), None);
    req.deadline_ms = Some(0);
    let response = service.call(req).expect("not overloaded");
    assert!(!response.ok);
    assert!(
        response.line.contains("\"kind\":\"deadline\""),
        "{}",
        response.line
    );
    assert_eq!(service.counters().deadline_expired, 1);
}

/// Cancellation before execution yields a `cancelled` response.
#[test]
fn cancellation_is_cooperative() {
    // Plug the single worker with a slow request so the victim is still
    // queued when the cancel lands.
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue(8)
            .build()
            .unwrap(),
    );
    let (reply, replies) = mpsc::channel();
    for i in 0..3 {
        let reply = reply.clone();
        service
            .submit(request(i, Verb::Trace, source(3, 11 + i), None), move |r| {
                let _ = reply.send(r);
            })
            .expect("not overloaded");
    }
    service
        .submit(request(9, Verb::Analyze, source(1, 12), None), move |r| {
            let _ = reply.send(r);
        })
        .expect("not overloaded")
        .cancel();
    for _ in 0..4 {
        let response = replies.recv().unwrap();
        if response.id == 9 {
            assert!(!response.ok);
            assert!(
                response.line.contains("\"kind\":\"cancelled\""),
                "{}",
                response.line
            );
        } else {
            assert!(response.ok, "{}", response.line);
        }
    }
    assert_eq!(service.counters().cancelled, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every verb and a range of generated loops, the cached
    /// response is byte-identical to the uncached one — same envelope,
    /// same payload, no cache-dependent field anywhere.
    #[test]
    fn cached_and_uncached_responses_are_byte_identical(
        nodes in 1usize..4,
        seed in 0u64..1000,
        verb_idx in 0usize..10,
    ) {
        let verbs = [
            (Verb::Analyze, None),
            (Verb::Schedule, None),
            (Verb::Schedule, Some(2)),
            (Verb::Rate, None),
            (Verb::Rate, Some(3)),
            (Verb::Scp, Some(2)),
            (Verb::Trace, None),
            (Verb::Trace, Some(2)),
            (Verb::Storage, None),
            (Verb::Explain, None),
        ];
        let (verb, depth) = verbs[verb_idx];
        let service = Service::start(ServiceConfig::builder().workers(2).build().unwrap());
        let req = request(42, verb, source(nodes, seed), depth);
        let uncached = service.call(req.clone()).expect("not overloaded");
        let cached = service.call(req).expect("not overloaded");
        prop_assert!(uncached.ok, "{}", uncached.line);
        prop_assert!(!uncached.cache_hit);
        prop_assert!(cached.cache_hit);
        prop_assert_eq!(&uncached.line, &cached.line);
        // And the line is valid single-line JSON.
        prop_assert!(!uncached.line.contains('\n'));
        prop_assert!(protocol::parse_json(&uncached.line).is_ok());
    }
}
