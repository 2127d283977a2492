//! The persistent, digest-keyed artifact store behind `tpnc serve
//! --store DIR`: compiled-loop payloads spilled to an on-disk
//! content-addressed directory, warm-starting the result cache on boot.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/<16-hex-key>.tpnart   one entry per cache key
//! quarantine/               corrupt entries moved here, never served
//! ```
//!
//! `objects/` is the store's only record: its file names are the key
//! set, and their modification times the warm-start order (oldest
//! first, ties by key). An `INDEX` file left by older versions is
//! ignored.
//!
//! Each entry is a one-line JSON header followed by the loop's A-code
//! dump ([`tpn::dataflow::acode`]):
//!
//! ```text
//! {"v":1,"key":"<16 hex>","checksum":"<16 hex>","bytes":N,"options":{...}}
//! .sdsp
//! actor 0 "X[i]" add time=1 ...
//! ```
//!
//! Crash consistency: entries are written to a unique temp file, synced,
//! then renamed into place — a `kill -9` at any instant leaves either no
//! entry or a complete one, never a torn one, and temp files never
//! count as entries. The directory is not synced after the rename, so a
//! power loss may drop the newest entries; they are compiled again on
//! demand. A header/checksum/length mismatch at load moves the entry to
//! `quarantine/` and keeps booting.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use tpn::metrics::StoreCounters;
use tpn::{CompileOptions, CompiledLoop};

use crate::protocol::{self, JsonValue};

/// The entry-format version written to every header.
const FORMAT_VERSION: u64 = 1;

/// 64-bit FNV-1a over a byte slice — the entry checksum (the same hash
/// family as [`protocol::cache_key`], but over the payload bytes).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A persistent artifact store rooted at one directory. Handles are
/// cheap to share (`Arc` internally is not needed; the service owns one)
/// and safe to use from many worker threads at once.
pub struct ArtifactStore {
    root: PathBuf,
    /// The committed keys: the objects on disk, less those quarantined.
    keys: Mutex<HashSet<u64>>,
    loaded: AtomicU64,
    spilled: AtomicU64,
    quarantined: AtomicU64,
    spill_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the layout or listing `objects/`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        let keys = scan_objects(&root)?.map(|(key, _)| key).collect();
        Ok(ArtifactStore {
            root,
            keys: Mutex::new(keys),
            loaded: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            spill_errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    fn object_path(&self, key: u64) -> PathBuf {
        self.root.join("objects").join(format!("{key:016x}.tpnart"))
    }

    /// Spills one compiled loop under `key`. Content-addressed: a key
    /// already committed is a no-op. Crash-safe: write-temp, sync,
    /// rename.
    ///
    /// # Errors
    ///
    /// Any I/O error; the caller treats persistence as best-effort (the
    /// in-memory response already succeeded).
    pub fn spill(&self, key: u64, lp: &CompiledLoop, options: &CompileOptions) -> io::Result<()> {
        if self.keys.lock().expect("store lock").contains(&key) {
            return Ok(());
        }
        let payload = tpn::dataflow::acode::write(lp.sdsp());
        let header = format!(
            "{{\"v\":{FORMAT_VERSION},\"key\":\"{key:016x}\",\"checksum\":\"{:016x}\",\
             \"bytes\":{},\"options\":{}}}\n",
            fnv1a(payload.as_bytes()),
            payload.len(),
            protocol::options_to_json(options),
        );
        // Unique temp name per (process, handle, attempt): concurrent
        // writers never clobber each other's in-progress file.
        let tmp = self.root.join("objects").join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut file = File::create(&tmp)?;
            file.write_all(header.as_bytes())?;
            file.write_all(payload.as_bytes())?;
            file.sync_all()?;
            fs::rename(&tmp, self.object_path(key))
        })();
        match &result {
            Ok(()) => {
                self.keys.lock().expect("store lock").insert(key);
                self.spilled.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.spill_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Loads every committed entry, oldest first — the warm-start path.
    /// Corrupt entries are moved to `quarantine/` and skipped.
    pub fn load(&self) -> Vec<(u64, Arc<CompiledLoop>)> {
        let mut objects: Vec<(SystemTime, u64)> = match scan_objects(&self.root) {
            Ok(objects) => objects
                .map(|(key, entry)| {
                    let modified = entry.metadata().and_then(|m| m.modified());
                    (modified.unwrap_or(SystemTime::UNIX_EPOCH), key)
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        objects.sort_unstable();
        let mut out = Vec::with_capacity(objects.len());
        for (_, key) in objects {
            match self.load_entry(key) {
                Ok(lp) => {
                    self.loaded.fetch_add(1, Ordering::Relaxed);
                    out.push((key, Arc::new(lp)));
                }
                Err(reason) => self.quarantine(key, &reason),
            }
        }
        out
    }

    fn load_entry(&self, key: u64) -> Result<CompiledLoop, String> {
        let mut bytes = Vec::new();
        File::open(self.object_path(key))
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("unreadable entry: {e}"))?;
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing header line")?;
        let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| "header not UTF-8")?;
        let header = protocol::parse_json(header).map_err(|e| format!("bad header: {e}"))?;
        let version = match header.get("v") {
            Some(JsonValue::Num(n)) => *n as u64,
            _ => return Err("missing format version".into()),
        };
        if version != FORMAT_VERSION {
            return Err(format!("unsupported entry format v{version}"));
        }
        match header.get("key") {
            Some(JsonValue::Str(s)) if *s == format!("{key:016x}") => {}
            _ => return Err("header key does not match file name".into()),
        }
        let payload = &bytes[newline + 1..];
        let expected_len = match header.get("bytes") {
            Some(JsonValue::Num(n)) => *n as usize,
            _ => return Err("missing payload length".into()),
        };
        if payload.len() != expected_len {
            return Err(format!(
                "payload truncated: {} of {expected_len} bytes",
                payload.len()
            ));
        }
        match header.get("checksum") {
            Some(JsonValue::Str(s)) if *s == format!("{:016x}", fnv1a(payload)) => {}
            _ => return Err("checksum mismatch".into()),
        }
        let options = match header.get("options") {
            Some(value) => protocol::options_from_json(value)
                .map_err(|e| format!("bad stored options: {e}"))?,
            None => CompileOptions::new(),
        };
        let payload = std::str::from_utf8(payload).map_err(|_| "payload not UTF-8")?;
        let sdsp =
            tpn::dataflow::acode::read(payload).map_err(|e| format!("bad A-code payload: {e}"))?;
        Ok(CompiledLoop::from_sdsp_with(sdsp, options))
    }

    /// Moves a corrupt entry to `quarantine/` and drops it from the key
    /// set.
    fn quarantine(&self, key: u64, _reason: &str) {
        let from = self.object_path(key);
        let to = self
            .root
            .join("quarantine")
            .join(format!("{key:016x}.tpnart"));
        let _ = fs::rename(&from, &to);
        self.keys.lock().expect("store lock").remove(&key);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Committed entries currently tracked (after quarantines).
    pub fn len(&self) -> usize {
        self.keys.lock().expect("store lock").len()
    }

    /// Whether no entries are committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's counters (the `metrics` payload's
    /// `store` object).
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            entries: self.len() as u64,
            loaded: self.loaded.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            spill_errors: self.spill_errors.load(Ordering::Relaxed),
        }
    }
}

/// The committed entries in `objects/` with their directory entries,
/// in directory order; in-progress `.tmp` files and foreign names are
/// skipped.
fn scan_objects(root: &Path) -> io::Result<impl Iterator<Item = (u64, fs::DirEntry)>> {
    Ok(fs::read_dir(root.join("objects"))?
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let stem = name.to_str()?.strip_suffix(".tpnart")?;
            if stem.len() != 16 {
                return None;
            }
            let key = u64::from_str_radix(stem, 16).ok()?;
            Some((key, entry))
        }))
}
