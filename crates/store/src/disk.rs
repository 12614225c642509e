//! The content-addressed on-disk design store.
//!
//! One store directory holds memoised `accel(v, R)` results keyed by
//! `fingerprint(model × candidate)` and is shared by every process that
//! points `CAYMAN_STORE_DIR` (or an explicit [`DiskStore::open`]) at it —
//! `table2`, `fig6`, `ablation`, the server and ad-hoc clients all read and
//! write the same objects.
//!
//! ## Layout
//!
//! ```text
//! <dir>/objects/<aa>/<32-hex-address>.cyd
//! ```
//!
//! The address is 128 bits derived from the canonical key bytes
//! ([`crate::codec::key_bytes`]): FNV-1a over the bytes, plus a splitmix64
//! finalisation of that state — two independent 64-bit words, rendered as
//! hex. The first byte fans entries out over 256 subdirectories. The full
//! key bytes are embedded in every entry and compared on read, so even an
//! address collision degrades to a miss, never a wrong front.
//!
//! ## Guarantees
//!
//! * **Atomic writes** — entries are written to a `.tmp-*` file in the same
//!   directory and `rename`d into place (atomic on POSIX), so concurrent
//!   writers and crashed processes can never expose a half-written entry.
//! * **Corruption tolerance** — any unreadable, truncated, bit-flipped,
//!   version-mismatched or collided entry is a counted miss; bad entries
//!   are unlinked so they are re-persisted on the next insert.
//! * **Bounded size** — an amortised mtime-LRU sweep (every
//!   [`StoreOptions::sweep_every`] writes, and on open) evicts the
//!   least-recently-used entries once the store exceeds
//!   [`StoreOptions::max_bytes`], down to ¾ of the cap. Hits refresh the
//!   entry mtime (best-effort), approximating LRU across processes.

use crate::codec::{self, DecodeError};
use cayman_hls::design::AcceleratorDesign;
use cayman_obs::Counter;
use cayman_select::cache::{DesignKey, DesignStoreBackend};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Environment variable naming the shared store directory.
pub const STORE_DIR_ENV: &str = "CAYMAN_STORE_DIR";
/// Environment variable overriding [`StoreOptions::max_bytes`].
pub const STORE_MAX_BYTES_ENV: &str = "CAYMAN_STORE_MAX_BYTES";

/// Entry filename suffix.
const ENTRY_EXT: &str = "cyd";
/// Temp-file prefix for in-flight atomic writes.
const TMP_PREFIX: &str = ".tmp-";
/// Stale in-flight files older than this are removed by sweeps (a crashed
/// writer's leftovers).
const STALE_TMP: Duration = Duration::from_secs(3600);

/// Tunables for a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Size cap in bytes; a sweep evicts oldest-first down to ¾ of this.
    pub max_bytes: u64,
    /// Run the eviction sweep every this-many writes (amortisation).
    pub sweep_every: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            // Entries are a few hundred bytes to a few KiB; 256 MiB holds
            // millions of designs — effectively unbounded for the corpus,
            // a real bound for a long-running service.
            max_bytes: 256 << 20,
            sweep_every: 256,
        }
    }
}

impl StoreOptions {
    /// Defaults with [`STORE_MAX_BYTES_ENV`] applied when set and parseable.
    pub fn from_env() -> Self {
        let mut opts = StoreOptions::default();
        if let Some(v) = std::env::var(STORE_MAX_BYTES_ENV)
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            opts.max_bytes = v;
        }
        opts
    }
}

/// A snapshot of one [`DiskStore`] handle's lifetime counters.
///
/// Each field is read from the store's instance-scope
/// [`cayman_obs::Counter`] of the same name (`store.hits`, `store.misses`,
/// …): always counted, independent of whether tracing is enabled, and the
/// same counters the server's METRICS scrape and the trace read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads answered with a decoded entry.
    pub hits: u64,
    /// Loads that found no entry (or an unreadable file).
    pub misses: u64,
    /// Entries rejected as corrupt (bad magic/checksum/truncated/malformed).
    pub corrupt: u64,
    /// Entries rejected for a different format version.
    pub version_skew: u64,
    /// Entries rejected because the embedded key differed (address
    /// collision).
    pub key_mismatches: u64,
    /// Entries persisted.
    pub writes: u64,
    /// Entries evicted by size-bound sweeps.
    pub evictions: u64,
    /// Bytes reclaimed by evictions.
    pub evicted_bytes: u64,
}

/// A content-addressed, size-bounded, corruption-tolerant design store
/// rooted at one directory. Cheap to share behind an `Arc`; all methods
/// take `&self`.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    opts: StoreOptions,
    write_tick: AtomicU64,
    tmp_seq: AtomicU64,
    hits: Counter,
    misses: Counter,
    corrupt: Counter,
    version_skew: Counter,
    key_mismatches: Counter,
    writes: Counter,
    evictions: Counter,
    evicted_bytes: Counter,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`, with
    /// [`StoreOptions::from_env`] tunables.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskStore> {
        Self::open_with(dir, StoreOptions::from_env())
    }

    /// Opens (creating if needed) a store rooted at `dir` with explicit
    /// tunables, and runs one initial sweep so a previously over-full store
    /// is trimmed on startup.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open_with(dir: impl Into<PathBuf>, opts: StoreOptions) -> io::Result<DiskStore> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("objects"))?;
        let store = DiskStore {
            dir,
            opts,
            write_tick: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            hits: Counter::new("store.hits"),
            misses: Counter::new("store.misses"),
            corrupt: Counter::new("store.corrupt"),
            version_skew: Counter::new("store.version_skew"),
            key_mismatches: Counter::new("store.key_mismatches"),
            writes: Counter::new("store.writes"),
            evictions: Counter::new("store.evictions"),
            evicted_bytes: Counter::new("store.evicted_bytes"),
        };
        store.sweep();
        Ok(store)
    }

    /// Opens the store named by [`STORE_DIR_ENV`], or `None` when the
    /// variable is unset. An unusable directory is an error, not a silent
    /// no-op.
    ///
    /// # Errors
    ///
    /// Fails when the variable is set but the directory cannot be created.
    pub fn from_env() -> Option<io::Result<DiskStore>> {
        std::env::var_os(STORE_DIR_ENV).map(DiskStore::open)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            corrupt: self.corrupt.get(),
            version_skew: self.version_skew.get(),
            key_mismatches: self.key_mismatches.get(),
            writes: self.writes.get(),
            evictions: self.evictions.get(),
            evicted_bytes: self.evicted_bytes.get(),
        }
    }

    /// The store's counters, for a METRICS scrape.
    pub(crate) fn counters(&self) -> [&Counter; 8] {
        [
            &self.hits,
            &self.misses,
            &self.corrupt,
            &self.version_skew,
            &self.key_mismatches,
            &self.writes,
            &self.evictions,
            &self.evicted_bytes,
        ]
    }

    /// 128-bit content address of a key, as 32 hex characters.
    fn address(key_bytes: &[u8]) -> String {
        let lo = cayman_ir::fingerprint::fnv1a(key_bytes);
        let hi = codec::splitmix64(lo);
        format!("{hi:016x}{lo:016x}")
    }

    /// The entry path for an address: `objects/<first-2-hex>/<addr>.cyd`.
    fn entry_path(&self, addr: &str) -> PathBuf {
        self.dir
            .join("objects")
            .join(&addr[..2])
            .join(format!("{addr}.{ENTRY_EXT}"))
    }

    /// Loads and decodes the entry for `key`, counting the outcome. Every
    /// failure mode is a miss.
    pub fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>> {
        let span = cayman_obs::timed("store.load");
        let kb = codec::key_bytes(key);
        let path = self.entry_path(&Self::address(&kb));
        let result = self.load_at(&path, &kb);
        span.finish();
        result
    }

    fn load_at(&self, path: &Path, kb: &[u8]) -> Option<Vec<AcceleratorDesign>> {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                // absent (the common cold case) or unreadable — a miss
                self.misses.add(1);
                return None;
            }
        };
        match codec::decode_entry(&bytes, kb) {
            Ok(designs) => {
                self.hits.add(1);
                // refresh the LRU clock (best-effort; mtime is advisory)
                if let Ok(f) = fs::File::options().append(true).open(path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                Some(designs)
            }
            Err(err) => {
                match err {
                    DecodeError::VersionMismatch(_) => {
                        self.version_skew.add(1);
                        // written by another format generation: unlink so
                        // this generation can re-persist under the address
                        let _ = fs::remove_file(path);
                    }
                    DecodeError::KeyMismatch => {
                        // a *valid* entry for a different key shares our
                        // address; leave it (last-writer-wins on save)
                        self.key_mismatches.add(1);
                    }
                    _ => {
                        self.corrupt.add(1);
                        cayman_obs::diag("store.corrupt", || format!("{}: {err}", path.display()));
                        let _ = fs::remove_file(path);
                    }
                }
                self.misses.add(1);
                None
            }
        }
    }

    /// Persists `designs` under `key` atomically (temp file + rename).
    /// Failures are swallowed: the store is an optimisation layer, and a
    /// full disk or permission error must never take selection down.
    pub fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]) {
        let span = cayman_obs::timed("store.save");
        let kb = codec::key_bytes(key);
        let bytes = codec::encode_entry(key, designs);
        let path = self.entry_path(&Self::address(&kb));
        if self.save_at(&path, &bytes).is_ok() {
            self.writes.add(1);
            let tick = self.write_tick.fetch_add(1, Ordering::Relaxed) + 1;
            if tick.is_multiple_of(self.opts.sweep_every) {
                self.sweep();
            }
        }
        span.finish();
    }

    fn save_at(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let parent = path.parent().expect("entry path has a parent");
        fs::create_dir_all(parent)?;
        // unique per process × in-flight write: concurrent writers never
        // collide on the temp name, so a rename always moves its own bytes
        let tmp = parent.join(format!(
            "{TMP_PREFIX}{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Walks the object tree. Yields `(path, len, mtime)` per regular file.
    fn walk(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(self.dir.join("objects")) else {
            return out;
        };
        for shard in shards.flatten() {
            let Ok(files) = fs::read_dir(shard.path()) else {
                continue;
            };
            for f in files.flatten() {
                if let Ok(meta) = f.metadata() {
                    if meta.is_file() {
                        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        out.push((f.path(), meta.len(), mtime));
                    }
                }
            }
        }
        out
    }

    /// Number of live entries (excludes in-flight temp files).
    pub fn entry_count(&self) -> usize {
        self.walk()
            .iter()
            .filter(|(p, _, _)| p.extension().is_some_and(|e| e == ENTRY_EXT))
            .count()
    }

    /// Total bytes of live entries.
    pub fn total_bytes(&self) -> u64 {
        self.walk()
            .iter()
            .filter(|(p, _, _)| p.extension().is_some_and(|e| e == ENTRY_EXT))
            .map(|(_, len, _)| len)
            .sum()
    }

    /// One eviction sweep: drops stale temp files, then — if the live
    /// entries exceed the size cap — unlinks oldest-mtime entries until the
    /// store is at ¾ of the cap. Concurrent sweeps from other processes are
    /// benign (unlink of an already-unlinked file is a no-op).
    pub fn sweep(&self) {
        let span = cayman_obs::timed("store.sweep");
        let now = SystemTime::now();
        let mut entries = Vec::new();
        let mut total = 0u64;
        for (path, len, mtime) in self.walk() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with(TMP_PREFIX) {
                if now.duration_since(mtime).unwrap_or_default() > STALE_TMP {
                    let _ = fs::remove_file(&path);
                }
                continue;
            }
            if !name.ends_with(&format!(".{ENTRY_EXT}")) {
                continue;
            }
            total += len;
            entries.push((path, len, mtime));
        }
        if total > self.opts.max_bytes {
            let target = self.opts.max_bytes / 4 * 3;
            entries.sort_by_key(|(_, _, mtime)| *mtime);
            for (path, len, _) in entries {
                if total <= target {
                    break;
                }
                if fs::remove_file(&path).is_ok() {
                    total = total.saturating_sub(len);
                    self.evictions.add(1);
                    self.evicted_bytes.add(len);
                }
            }
        }
        span.finish();
    }
}

impl DesignStoreBackend for DiskStore {
    fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>> {
        DiskStore::load(self, key)
    }

    fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]) {
        DiskStore::save(self, key, designs)
    }
}
