//! Crash-consistency tests for the persistent artifact store: torn
//! entries, concurrent writers, warm-start order, and the service-level
//! restart warm-hit guarantee.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use tpn::{CompileOptions, CompiledLoop};
use tpn_service::protocol::{self, Request, Verb};
use tpn_service::store::ArtifactStore;
use tpn_service::{Service, ServiceConfig};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpn-store-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn source(seed: u64) -> String {
    format!("do i from 2 to n {{ X[i] := X[i-1] + {seed}; }}")
}

fn compiled(seed: u64) -> (u64, CompiledLoop) {
    let source = source(seed);
    let options = CompileOptions::new();
    let key = protocol::cache_key(&source, &options);
    let lp = CompiledLoop::from_source_with(&source, options).expect("test loop compiles");
    (key, lp)
}

fn object_path(dir: &std::path::Path, key: u64) -> PathBuf {
    dir.join("objects").join(format!("{key:016x}.tpnart"))
}

#[test]
fn entries_survive_reopen_and_round_trip() {
    let dir = temp_store("reopen");
    let mut keys = Vec::new();
    {
        let store = ArtifactStore::open(&dir).unwrap();
        for seed in 0..3 {
            let (key, lp) = compiled(seed);
            store.spill(key, &lp, &CompileOptions::new()).unwrap();
            keys.push(key);
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.counters().spilled, 3);
    }
    // Warm start runs oldest first by modification time: age the
    // entries so that the largest key is the oldest, an order neither
    // the keys nor the spills follow.
    let mut oldest_first = keys.clone();
    oldest_first.sort_unstable_by(|a, b| b.cmp(a));
    let epoch = SystemTime::now() - Duration::from_secs(3600);
    for (age, &key) in (0..).zip(&oldest_first) {
        let file = std::fs::File::options()
            .write(true)
            .open(object_path(&dir, key))
            .unwrap();
        file.set_modified(epoch + Duration::from_secs(age)).unwrap();
    }
    // An older version's INDEX, naming one key and ending in a torn
    // line, is ignored.
    std::fs::write(dir.join("INDEX"), format!("{:016x}\n0123abc", keys[0])).unwrap();
    let store = ArtifactStore::open(&dir).unwrap();
    assert_eq!(store.len(), 3);
    let loaded = store.load();
    let loaded_keys: Vec<u64> = loaded.iter().map(|(k, _)| *k).collect();
    assert_eq!(loaded_keys, oldest_first);
    // The reloaded loop is semantically the same artifact.
    let (key0, original) = compiled(0);
    let revived = loaded
        .iter()
        .find(|(k, _)| *k == key0)
        .map(|(_, lp)| lp.clone())
        .expect("key 0 reloaded");
    assert_eq!(
        revived.analyze().unwrap().optimal_rate,
        original.analyze().unwrap().optimal_rate
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_is_idempotent_per_key() {
    let dir = temp_store("idempotent");
    let store = ArtifactStore::open(&dir).unwrap();
    let (key, lp) = compiled(7);
    store.spill(key, &lp, &CompileOptions::new()).unwrap();
    store.spill(key, &lp, &CompileOptions::new()).unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.counters().spilled, 1, "second spill is a no-op");
    let objects = std::fs::read_dir(dir.join("objects")).unwrap().count();
    assert_eq!(objects, 1, "one object file per key");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_quarantined_not_served() {
    let dir = temp_store("truncated");
    let (key, lp) = compiled(1);
    {
        let store = ArtifactStore::open(&dir).unwrap();
        store.spill(key, &lp, &CompileOptions::new()).unwrap();
    }
    // Tear the payload the way a torn write would (the header survives,
    // the A-code body loses its tail).
    let path = object_path(&dir, key);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

    let store = ArtifactStore::open(&dir).unwrap();
    let loaded = store.load();
    assert!(loaded.is_empty(), "torn entry must not be served");
    assert_eq!(store.counters().quarantined, 1);
    assert_eq!(store.len(), 0);
    assert!(!path.exists(), "torn entry removed from objects/");
    assert!(
        dir.join("quarantine")
            .join(format!("{key:016x}.tpnart"))
            .exists(),
        "torn entry parked in quarantine/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_payload_fails_the_checksum_and_is_quarantined() {
    let dir = temp_store("corrupt");
    let (key, lp) = compiled(2);
    {
        let store = ArtifactStore::open(&dir).unwrap();
        store.spill(key, &lp, &CompileOptions::new()).unwrap();
    }
    // Same length, different bytes: only the checksum can catch it.
    let path = object_path(&dir, key);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 2;
    bytes[last] = bytes[last].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();

    let store = ArtifactStore::open(&dir).unwrap();
    assert!(store.load().is_empty());
    assert_eq!(store.counters().quarantined, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_naming_a_removed_option_is_quarantined() {
    // Older servers accepted a `trace` option and stored it in the
    // header; it no longer parses, so such an entry is never served.
    let dir = temp_store("removed-option");
    let (key, lp) = compiled(3);
    {
        let store = ArtifactStore::open(&dir).unwrap();
        store.spill(key, &lp, &CompileOptions::new()).unwrap();
    }
    let path = object_path(&dir, key);
    let entry = std::fs::read_to_string(&path).unwrap();
    let patched = entry.replacen("\"options\":{}", "\"options\":{\"trace\":true}", 1);
    assert_ne!(patched, entry, "header carries an options object");
    std::fs::write(&path, patched).unwrap();

    let store = ArtifactStore::open(&dir).unwrap();
    assert!(store.load().is_empty());
    assert_eq!(store.counters().quarantined, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_commit_every_entry_and_leave_no_temp_files() {
    let dir = temp_store("concurrent");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                // Each thread spills 8 keys; seeds overlap across
                // threads so the same key races its own duplicate.
                for i in 0..8 {
                    let (key, lp) = compiled(t * 4 + i);
                    store.spill(key, &lp, &CompileOptions::new()).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let distinct: std::collections::HashSet<u64> = (0..4u64)
        .flat_map(|t| (0..8).map(move |i| compiled(t * 4 + i).0))
        .collect();
    assert_eq!(store.len(), distinct.len());
    assert_eq!(store.counters().spill_errors, 0);
    for entry in std::fs::read_dir(dir.join("objects")).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".tpnart"),
            "leftover in-progress file: {name}"
        );
    }
    drop(store);
    let reopened = ArtifactStore::open(&dir).unwrap();
    assert_eq!(reopened.load().len(), distinct.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn service_restart_serves_warm_hits_byte_identical() {
    let dir = temp_store("service-restart");
    let config = || {
        ServiceConfig::builder()
            .workers(2)
            .store(&dir)
            .build()
            .unwrap()
    };
    let request = || Request::basic(400, Verb::Schedule, source(11));
    let before = {
        let service = Service::try_start(config()).unwrap();
        let response = service.call(request()).unwrap();
        assert!(response.ok);
        response.line
    };
    // The drop above is the in-process kill -9 stand-in: nothing but
    // the store directory survives.
    let service = Service::try_start(config()).unwrap();
    let counters = service.counters();
    let store = counters.store.expect("store counters present");
    assert_eq!(store.loaded, 1, "boot warm-started from the store");
    let after = service.call(request()).unwrap();
    assert!(after.cache_hit, "restart must serve from the warm cache");
    assert_eq!(after.line, before, "post-restart bytes must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}
