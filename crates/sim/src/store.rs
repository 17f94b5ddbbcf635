//! The persistent run store: completed `imc.experiment-run` documents as
//! content-addressed files on disk, shared by `imc run`, `imc serve` and
//! `imc sweep`.
//!
//! Every cache before this one — the session's decomposition cache, the
//! server's response cache and single-flight map — dies with its process.
//! A [`RunStore`] makes warm latency a property of the *machine*: a run
//! computed once (by any of the three execution layers) is written through
//! to a store directory, and any later process serving the same [`RunKey`]
//! reads the bytes back instead of recomputing.
//! Because every run is deterministic, store-served bytes are
//! **byte-identical to fresh compute at the same key** — the invariant all
//! consumers rely on and the tests pin.
//!
//! # Layout
//!
//! One directory, flat:
//!
//! ```text
//! store/
//!   93f2a1c07be4d658_f64_full_pauto_grid_v1.run.jsonl    ← one entry
//!   93f2a1c07be4d658_f64_c0-4_p2_grid_v1.run.jsonl       ← another key
//!   b1c07be4d65893f2_f32_full_pauto_frontier_v1.run.jsonl
//!   store-index.json                                     ← the LRU journal
//! ```
//!
//! The file name **is** the key ([`RunKey`] plus [`RUN_FORMAT_VERSION`]):
//! spec content hash, precision, cell range (`full` = the whole grid),
//! pinned parallelism (`pauto` = unpinned), traversal mode, record-format
//! version. Encoding the format version keeps entries written by an old
//! reader from masquerading as valid after a format bump.
//!
//! Entries are whole response byte streams written atomically
//! (`write_atomically`: a temp file named by pid and a process-wide
//! counter, so no two writers ever share one, then `fsync`, `rename`,
//! best-effort directory `fsync`) — so a crash leaves either no entry or a
//! complete one, never a torn file. Concurrent writers of one key, in one
//! process or several, are safe *by construction*: identical keys imply
//! identical bytes, so whichever rename lands last changes nothing.
//!
//! # The index
//!
//! `store-index.json` is a versioned `imc.store-index` document tracking
//! each entry's size and logical last-access tick — the state a
//! budget-driven LRU GC needs. The index is advisory: the entry files are
//! the source of truth, and [`RunStore::open`] reconciles the journal
//! against a directory scan (adopting entries the index missed, dropping
//! ones whose file is gone), so a lost or corrupt index costs access
//! recency, never data.
//!
//! A hit updates its entry's tick in memory only; the journal is written
//! (atomically, like an entry) on put, remove, gc and quarantine, and when
//! the handle drops with hits it has not written yet. So a read never
//! pays a journal write, and a killed process loses only the recency of
//! the hits since the last write.
//!
//! # Reads degrade, verification classifies
//!
//! [`RunStore::get`] never errors: a missing file is a miss, an unreadable
//! file is a miss, and an entry whose embedded
//! [`RunManifest`](crate::spec::RunManifest) contradicts its key (or whose
//! line count is torn) is **quarantined** — renamed to `<entry>.corrupt`,
//! dropped from the index, reported as a miss — so a damaged store slows
//! the caller down instead of failing it. The explicit `imc store verify`
//! path ([`RunStore::verify`]) is where corruption becomes an error: it
//! re-parses every entry strictly, names torn entries by their real
//! 1-based line number (via
//! [`ExperimentRun::from_jsonl_partial`](crate::experiment::ExperimentRun::from_jsonl_partial)),
//! and with `repair` quarantines them — never silently deletes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::experiment::ExperimentRun;
use crate::json::{json_string, JsonValue};
use crate::record::{parse_run_header, RUN_FORMAT_VERSION};
use crate::serve::RunKey;
use crate::spec::{precision_from_name, precision_name};
use crate::{Error, Result};

/// Format tag of the store-index journal.
pub const STORE_INDEX_FORMAT: &str = "imc.store-index";

/// Current version of the store-index journal; readers rebuild from a
/// directory scan instead of guessing at other versions.
pub const STORE_INDEX_VERSION: u64 = 1;

/// File name of the index journal inside a store directory.
pub const INDEX_FILE: &str = "store-index.json";

/// Suffix of every entry file.
const ENTRY_SUFFIX: &str = ".run.jsonl";

fn io_error(what: impl Into<String>) -> Error {
    Error::Io { what: what.into() }
}

fn record_error(what: impl Into<String>) -> Error {
    Error::Record { what: what.into() }
}

// ---------------------------------------------------------------------------
// Key ↔ entry-file-name encoding.
// ---------------------------------------------------------------------------

/// The entry file name of `key`:
/// `<spec_hash:016x>_<precision>_<cells>_<parallelism>_<mode>_v<format>.run.jsonl`.
pub fn entry_name(key: &RunKey) -> String {
    let cells = match key.cells {
        None => "full".to_owned(),
        Some((start, end)) => format!("c{start}-{end}"),
    };
    let parallelism = match key.parallelism {
        None => "pauto".to_owned(),
        Some(workers) => format!("p{workers}"),
    };
    let mode = if key.frontier { "frontier" } else { "grid" };
    format!(
        "{:016x}_{}_{cells}_{parallelism}_{mode}_v{RUN_FORMAT_VERSION}{ENTRY_SUFFIX}",
        key.spec_hash,
        precision_name(key.precision),
    )
}

/// Decodes an entry file name back into its [`RunKey`]; `None` for
/// anything that is not a current-format entry of this store (foreign
/// files, `.corrupt` quarantines, future format versions).
pub fn key_from_entry_name(name: &str) -> Option<RunKey> {
    let stem = name.strip_suffix(ENTRY_SUFFIX)?;
    let mut parts = stem.split('_');
    let hex = parts.next()?;
    if hex.len() != 16 {
        return None;
    }
    let spec_hash = u64::from_str_radix(hex, 16).ok()?;
    let precision = precision_from_name(parts.next()?)?;
    let cells = match parts.next()? {
        "full" => None,
        token => {
            let (start, end) = token.strip_prefix('c')?.split_once('-')?;
            Some((start.parse().ok()?, end.parse().ok()?))
        }
    };
    let parallelism = match parts.next()? {
        "pauto" => None,
        token => Some(token.strip_prefix('p')?.parse().ok()?),
    };
    let frontier = match parts.next()? {
        "grid" => false,
        "frontier" => true,
        _ => return None,
    };
    let version: u64 = parts.next()?.strip_prefix('v')?.parse().ok()?;
    if version != RUN_FORMAT_VERSION || parts.next().is_some() {
        return None;
    }
    Some(RunKey {
        spec_hash,
        precision,
        cells,
        parallelism,
        frontier,
    })
}

// ---------------------------------------------------------------------------
// The index journal.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    bytes: u64,
    last_access: u64,
}

/// In-memory index state: entry sizes and logical access ticks, keyed by
/// entry file name (sorted, so serialization is deterministic).
#[derive(Debug, Default)]
struct Index {
    tick: u64,
    entries: BTreeMap<String, IndexEntry>,
}

impl Index {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(file, entry)| {
                format!(
                    "{{\"file\":{},\"bytes\":{},\"last_access\":{}}}",
                    json_string(file),
                    entry.bytes,
                    entry.last_access,
                )
            })
            .collect();
        format!(
            "{{\"format\":{},\"version\":{},\"tick\":{},\"entries\":[{}]}}",
            json_string(STORE_INDEX_FORMAT),
            STORE_INDEX_VERSION,
            self.tick,
            entries.join(","),
        )
    }

    fn parse(text: &str) -> Result<Index> {
        let value = JsonValue::parse(text).map_err(|e| record_error(format!("index: {e}")))?;
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| record_error("index: missing string 'format'"))?;
        if format != STORE_INDEX_FORMAT {
            return Err(record_error(format!(
                "index: unknown format '{format}' (expected '{STORE_INDEX_FORMAT}')"
            )));
        }
        let version = value
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| record_error("index: missing integer 'version'"))?;
        if version != STORE_INDEX_VERSION {
            return Err(record_error(format!(
                "index: unsupported version {version} (this reader understands \
                 version {STORE_INDEX_VERSION})"
            )));
        }
        let tick = value
            .get("tick")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| record_error("index: missing integer 'tick'"))?;
        let mut entries = BTreeMap::new();
        for entry in value
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| record_error("index: missing array 'entries'"))?
        {
            let file = entry
                .get("file")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| record_error("index: entry missing string 'file'"))?;
            let bytes = entry
                .get("bytes")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| record_error("index: entry missing integer 'bytes'"))?;
            let last_access = entry
                .get("last_access")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| record_error("index: entry missing integer 'last_access'"))?;
            entries.insert(file.to_owned(), IndexEntry { bytes, last_access });
        }
        Ok(Index { tick, entries })
    }
}

// ---------------------------------------------------------------------------
// Public report types.
// ---------------------------------------------------------------------------

/// One listed store entry ([`RunStore::entries`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Entry file name (decodable with [`key_from_entry_name`]).
    pub file: String,
    /// The decoded key.
    pub key: RunKey,
    /// Entry size in bytes.
    pub bytes: u64,
    /// Logical LRU tick of the most recent read or write (higher = more
    /// recently used).
    pub last_access: u64,
}

/// What [`RunStore::verify`] found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Entries examined.
    pub checked: usize,
    /// Entries that parsed strictly and matched their key.
    pub ok: usize,
    /// One line per damaged entry: `<file>: <what>` — torn entries name
    /// their first damaged line by real 1-based file position.
    pub issues: Vec<String>,
    /// Files quarantined (renamed to `.corrupt`) because `repair` was
    /// requested; always empty without it.
    pub quarantined: Vec<String>,
}

/// What [`RunStore::gc`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Entries evicted (least-recently-used first).
    pub evicted: Vec<String>,
    /// Entries remaining after the sweep.
    pub remaining: usize,
    /// Bytes remaining after the sweep.
    pub remaining_bytes: u64,
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// A persistent, content-addressed store of completed run documents — see
/// the [module docs](self) for layout and semantics.
///
/// All methods take `&self`; the index is internally locked, so one store
/// handle can be shared across server worker threads. Multiple *processes*
/// may share one directory: entry writes are atomic renames of identical
/// bytes, and the advisory index is reconciled on open.
pub struct RunStore {
    dir: PathBuf,
    budget_bytes: Option<u64>,
    index: Mutex<Index>,
    /// Whether a hit has touched a tick the journal does not hold yet. Set
    /// and cleared only under the `index` lock, which orders it, so its
    /// accesses are `Relaxed`.
    unsaved_hits: AtomicBool,
    evictions: AtomicU64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.dir)
            .field("budget_bytes", &self.budget_bytes)
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RunStore {
    /// Opens (creating if necessary) the store at `dir` and reconciles the
    /// index journal against the entry files actually present: entries the
    /// journal missed are adopted (at tick 0 — the coldest possible, so a
    /// lost journal only costs recency), journal rows whose file is gone
    /// are dropped, and sizes are refreshed from the filesystem. A missing
    /// or corrupt journal is rebuilt, never an error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the directory cannot be created or
    /// scanned.
    pub fn open(dir: impl AsRef<Path>) -> Result<RunStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_error(format!("could not create store {}: {e}", dir.display())))?;
        let mut index = match std::fs::read_to_string(dir.join(INDEX_FILE)) {
            Ok(text) => Index::parse(&text).unwrap_or_default(),
            Err(_) => Index::default(),
        };
        // Reconcile against the directory: the files are the truth.
        let mut present: BTreeMap<String, u64> = BTreeMap::new();
        let listing = std::fs::read_dir(&dir)
            .map_err(|e| io_error(format!("could not scan store {}: {e}", dir.display())))?;
        for dirent in listing {
            let Ok(dirent) = dirent else { continue };
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if key_from_entry_name(name).is_none() {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            present.insert(name.to_owned(), meta.len());
        }
        index.entries.retain(|file, _| present.contains_key(file));
        for (file, bytes) in present {
            index
                .entries
                .entry(file)
                .and_modify(|entry| entry.bytes = bytes)
                .or_insert(IndexEntry {
                    bytes,
                    last_access: 0,
                });
        }
        index.tick = index.tick.max(
            index
                .entries
                .values()
                .map(|e| e.last_access)
                .max()
                .unwrap_or(0),
        );
        Ok(RunStore {
            dir,
            budget_bytes: None,
            index: Mutex::new(index),
            unsaved_hits: AtomicBool::new(false),
            evictions: AtomicU64::new(0),
        })
    }

    /// Bounds the store to `budget` bytes of entry data: every write-through
    /// evicts least-recently-used entries until the budget holds (the
    /// standing counterpart of an explicit [`RunStore::gc`]). Default:
    /// unbounded.
    #[must_use]
    pub fn budget_bytes(mut self, budget: u64) -> Self {
        self.budget_bytes = Some(budget);
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        self.index
            .lock()
            .expect("store index poisoned")
            .entries
            .len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of entry data currently indexed.
    pub fn total_bytes(&self) -> u64 {
        self.index
            .lock()
            .expect("store index poisoned")
            .total_bytes()
    }

    /// Entries evicted by this handle (budget enforcement and explicit GC
    /// combined) — surfaced as `store_evictions` in the server metrics.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Every entry, sorted by file name.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let index = self.index.lock().expect("store index poisoned");
        index
            .entries
            .iter()
            .filter_map(|(file, entry)| {
                Some(StoreEntry {
                    key: key_from_entry_name(file)?,
                    file: file.clone(),
                    bytes: entry.bytes,
                    last_access: entry.last_access,
                })
            })
            .collect()
    }

    /// Fetches the stored response of `key`, validating the entry's header
    /// against the key before trusting it.
    ///
    /// This **never errors**: a missing or unreadable file is a miss, and
    /// an entry that fails validation (foreign manifest, torn line count)
    /// is quarantined to `<entry>.corrupt` and reported as a miss — the
    /// normal run/serve paths degrade to recomputation instead of failing.
    /// A hit touches the entry's LRU tick in memory; the index journal
    /// picks it up at the next put, remove, gc or quarantine, or when this
    /// handle drops.
    pub fn get(&self, key: &RunKey) -> Option<Arc<String>> {
        let name = entry_name(key);
        let bytes = std::fs::read_to_string(self.dir.join(&name)).ok()?;
        if let Err(damage) = validate_entry(key, &bytes) {
            self.quarantine(&name, &damage);
            return None;
        }
        let mut index = self.index.lock().expect("store index poisoned");
        let tick = index.next_tick();
        index
            .entries
            .entry(name)
            .and_modify(|entry| entry.last_access = tick)
            .or_insert(IndexEntry {
                bytes: bytes.len() as u64,
                last_access: tick,
            });
        self.unsaved_hits.store(true, Ordering::Relaxed);
        Some(Arc::new(bytes))
    }

    /// Writes `bytes` through as the entry of `key`, atomically (temp file,
    /// fsync, rename, best-effort directory fsync). Two writers racing the
    /// same key — threads of one process or separate processes — both
    /// succeed: their bytes are identical (same key, deterministic compute),
    /// so the last rename wins and nothing is lost. When a budget is set,
    /// least-recently-used entries are evicted until it holds again.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when `bytes` does not validate against
    /// `key` (a caller bug: the store never persists bytes it would
    /// quarantine on read), [`Error::Io`] on filesystem failure.
    pub fn put(&self, key: &RunKey, bytes: &str) -> Result<()> {
        validate_entry(key, bytes)
            .map_err(|damage| record_error(format!("store put refused: {damage}")))?;
        let name = entry_name(key);
        write_atomically(&self.dir, &name, bytes)?;
        let mut index = self.index.lock().expect("store index poisoned");
        let tick = index.next_tick();
        index.entries.insert(
            name,
            IndexEntry {
                bytes: bytes.len() as u64,
                last_access: tick,
            },
        );
        if let Some(budget) = self.budget_bytes {
            self.evict_to_budget(&mut index, budget);
        }
        self.save_index(&index);
        Ok(())
    }

    /// Removes the entry of `key`. Idempotent: removing an absent entry is
    /// `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the file exists but cannot be removed.
    pub fn remove(&self, key: &RunKey) -> Result<bool> {
        let name = entry_name(key);
        let existed = match std::fs::remove_file(self.dir.join(&name)) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(io_error(format!("could not remove {name}: {e}"))),
        };
        let mut index = self.index.lock().expect("store index poisoned");
        index.entries.remove(&name);
        self.save_index(&index);
        Ok(existed)
    }

    /// Evicts least-recently-used entries until at most `budget` bytes
    /// remain — the explicit `imc store gc` form of the standing
    /// [`RunStore::budget_bytes`] enforcement.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the updated index cannot be persisted
    /// (evicted files already gone are fine — another process beat us).
    pub fn gc(&self, budget: u64) -> Result<GcReport> {
        let mut index = self.index.lock().expect("store index poisoned");
        let evicted = self.evict_to_budget(&mut index, budget);
        self.persist_index(&index)?;
        Ok(GcReport {
            evicted,
            remaining: index.entries.len(),
            remaining_bytes: index.total_bytes(),
        })
    }

    /// Strictly re-parses every entry and cross-checks its manifest against
    /// the key its file name encodes. Intact entries count as `ok`; damaged
    /// ones are reported (torn entries by real 1-based line number, the
    /// [`ExperimentRun::from_jsonl_partial`] salvage diagnostics) and, with
    /// `repair`, quarantined to `.corrupt` — never silently deleted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the store directory cannot be scanned.
    /// Damaged entries are *findings*, not errors: the caller decides
    /// whether findings fail the invocation (as `imc store verify` without
    /// `--repair` does).
    pub fn verify(&self, repair: bool) -> Result<VerifyReport> {
        let files: Vec<(String, RunKey)> = {
            let index = self.index.lock().expect("store index poisoned");
            index
                .entries
                .keys()
                .filter_map(|file| Some((file.clone(), key_from_entry_name(file)?)))
                .collect()
        };
        let mut report = VerifyReport::default();
        for (file, key) in files {
            report.checked += 1;
            let damage = match std::fs::read_to_string(self.dir.join(&file)) {
                Err(e) => format!("could not read: {e}"),
                Ok(bytes) => match verify_entry_strict(&key, &bytes) {
                    Ok(()) => {
                        report.ok += 1;
                        continue;
                    }
                    Err(damage) => damage,
                },
            };
            report.issues.push(format!("{file}: {damage}"));
            if repair {
                self.quarantine(&file, &damage);
                report.quarantined.push(format!("{file}.corrupt"));
            }
        }
        Ok(report)
    }

    /// Renames a damaged entry to `<entry>.corrupt` (best-effort — a racing
    /// process may have already moved it) and drops it from the index.
    fn quarantine(&self, name: &str, _damage: &str) {
        let _ = std::fs::rename(
            self.dir.join(name),
            self.dir.join(format!("{name}.corrupt")),
        );
        let mut index = self.index.lock().expect("store index poisoned");
        index.entries.remove(name);
        self.save_index(&index);
    }

    /// Removes least-recently-used entries until `budget` holds; returns
    /// the evicted file names in eviction order.
    fn evict_to_budget(&self, index: &mut Index, budget: u64) -> Vec<String> {
        let mut evicted = Vec::new();
        while index.total_bytes() > budget {
            let Some(oldest) = index
                .entries
                .iter()
                .min_by_key(|(file, entry)| (entry.last_access, (*file).clone()))
                .map(|(file, _)| file.clone())
            else {
                break;
            };
            index.entries.remove(&oldest);
            let _ = std::fs::remove_file(self.dir.join(&oldest));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(oldest);
        }
        evicted
    }

    /// Best-effort index persistence: the write fast path must not fail
    /// because the advisory journal could not be written ([`open`] rebuilds
    /// it from the directory anyway).
    ///
    /// [`open`]: RunStore::open
    fn save_index(&self, index: &Index) {
        let _ = self.persist_index(index);
    }

    /// Persists the index atomically; the strict form used by the explicit
    /// maintenance commands. Called with the index lock held.
    fn persist_index(&self, index: &Index) -> Result<()> {
        write_atomically(&self.dir, INDEX_FILE, &index.to_json())?;
        self.unsaved_hits.store(false, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for RunStore {
    /// Writes the recency of hits the journal does not hold yet,
    /// best-effort: a clean exit keeps it, a killed process loses only it.
    fn drop(&mut self) {
        if *self.unsaved_hits.get_mut() {
            if let Ok(index) = self.index.lock() {
                self.save_index(&index);
            }
        }
    }
}

/// Replaces `dir/name` with `contents` so that a crash leaves either the old
/// file or the whole new one: write a temp file, fsync it, rename it over
/// the target, then fsync the directory (best-effort). The temp name joins
/// the pid and a process-wide counter, so concurrent writers — threads of
/// one process included — never share a temp file.
fn write_atomically(dir: &Path, name: &str, contents: &str) -> Result<()> {
    use std::io::Write;
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        "{name}.{}.{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let target = dir.join(name);
    let written = std::fs::File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(contents.as_bytes())
                .and_then(|()| file.sync_all())
        })
        .and_then(|()| std::fs::rename(&tmp, &target));
    if let Err(e) = written {
        // Unique temp names are never reused, so a failed write cleans up.
        let _ = std::fs::remove_file(&tmp);
        return Err(io_error(format!(
            "could not write {}: {e}",
            target.display()
        )));
    }
    if let Ok(dir_handle) = std::fs::File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry validation.
// ---------------------------------------------------------------------------

/// The fast-path validation every read and write runs: the header parses,
/// carries a manifest, the manifest agrees with the key, the declared
/// record count matches the line count, and the final line is intact JSON.
/// Cheap (no record parsing), yet catches every cross-key mixup and
/// ordinary truncation.
fn validate_entry(key: &RunKey, bytes: &str) -> core::result::Result<(), String> {
    let mut lines = bytes.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or_else(|| "empty entry".to_owned())?;
    let header = parse_run_header(header_line).map_err(|e| format!("{e}"))?;
    let manifest = header
        .manifest
        .ok_or_else(|| "entry header carries no manifest".to_owned())?;
    if manifest.spec_hash != key.spec_hash {
        return Err(format!(
            "manifest spec hash {} does not match the key's {:016x}",
            manifest.spec_hash_hex(),
            key.spec_hash
        ));
    }
    if manifest.precision != key.precision {
        return Err(format!(
            "manifest precision '{}' does not match the key's '{}'",
            precision_name(manifest.precision),
            precision_name(key.precision)
        ));
    }
    if manifest.parallelism != key.parallelism {
        return Err(format!(
            "manifest parallelism {:?} does not match the key's {:?}",
            manifest.parallelism, key.parallelism
        ));
    }
    if manifest.frontier != key.frontier {
        return Err(format!(
            "manifest frontier={} does not match the key's frontier={}",
            manifest.frontier, key.frontier
        ));
    }
    if let Some((start, end)) = key.cells {
        if manifest.cells != (start..end) {
            return Err(format!(
                "manifest covers cells {}..{} but the key requests {start}..{end}",
                manifest.cells.start, manifest.cells.end
            ));
        }
    }
    let mut records = 0usize;
    let mut last_line = header_line;
    for line in lines {
        records += 1;
        last_line = line;
    }
    if records != header.declared {
        return Err(format!(
            "header declares {} records but {records} lines follow (torn entry?)",
            header.declared
        ));
    }
    if records > 0 && JsonValue::parse(last_line).is_err() {
        return Err("final record line is torn".to_owned());
    }
    Ok(())
}

/// The slow-path validation `imc store verify` runs: a full strict parse
/// (every record line), falling back to the salvage loader so torn entries
/// are reported by their real 1-based line number.
fn verify_entry_strict(key: &RunKey, bytes: &str) -> core::result::Result<(), String> {
    match ExperimentRun::from_jsonl(bytes) {
        // Strictly parseable: the only failures left are key mismatches,
        // which the fast-path validation names precisely.
        Ok(_) => validate_entry(key, bytes),
        // Name the damage precisely: the salvage loader reports the first
        // damaged record line by its real file position (blank lines
        // counted), where the strict error only says *that* a line broke.
        Err(strict) => Err(match ExperimentRun::from_jsonl_partial(bytes) {
            Ok(recovered) => recovered.dropped.unwrap_or_else(|| format!("{strict}")),
            Err(_) => format!("{strict}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;
    use crate::registry::Registry;
    use crate::spec::{ArrayAxis, ExperimentSpec, StrategySpec};
    use imc_core::Precision;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("imc_store_unit_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec(seed: u64) -> ExperimentSpec {
        ExperimentSpec {
            seed,
            precision: Precision::F64,
            parallelism: None,
            cache: true,
            cells: None,
            frontier: false,
            synthetic_networks: vec![],
            networks: vec!["resnet20".to_owned()],
            arrays: vec![ArrayAxis::square(32)],
            strategies: vec![StrategySpec::new("im2col")],
        }
    }

    fn run_bytes(spec: &ExperimentSpec) -> String {
        spec.clone()
            .into_experiment(&Registry::new())
            .unwrap()
            .run()
            .unwrap()
            .to_jsonl()
            .unwrap()
    }

    #[test]
    fn entry_names_round_trip_every_key_shape() {
        let keys = [
            RunKey {
                spec_hash: 0x93f2_a1c0_7be4_d658,
                precision: Precision::F64,
                cells: None,
                parallelism: None,
                frontier: false,
            },
            RunKey {
                spec_hash: 1,
                precision: Precision::F32,
                cells: Some((0, 12)),
                parallelism: Some(3),
                frontier: true,
            },
        ];
        for key in keys {
            let name = entry_name(&key);
            assert_eq!(key_from_entry_name(&name), Some(key), "{name}");
        }
        // Foreign and damaged names decode to nothing.
        assert_eq!(key_from_entry_name("store-index.json"), None);
        assert_eq!(key_from_entry_name("readme.txt"), None);
        let name = entry_name(&keys[0]);
        assert_eq!(key_from_entry_name(&format!("{name}.corrupt")), None);
        assert_eq!(
            key_from_entry_name(&name.replace("_v1", "_v2")),
            None,
            "future format versions are not this store's entries"
        );
    }

    #[test]
    fn put_get_round_trips_byte_identically_and_survives_reopen() {
        let dir = scratch("roundtrip");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);

        let store = RunStore::open(&dir).unwrap();
        assert!(store.get(&key).is_none(), "cold store misses");
        store.put(&key, &bytes).unwrap();
        assert_eq!(store.get(&key).unwrap().as_str(), bytes);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), bytes.len() as u64);
        drop(store);

        // A fresh handle (a restarted process) reads the same bytes back.
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key).unwrap().as_str(), bytes);
        let entries = reopened.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lost_or_corrupt_index_is_rebuilt_from_the_directory() {
        let dir = scratch("reindex");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let store = RunStore::open(&dir).unwrap();
        store.put(&key, &bytes).unwrap();
        drop(store);

        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let without_index = RunStore::open(&dir).unwrap();
        assert_eq!(without_index.get(&key).unwrap().as_str(), bytes);
        drop(without_index);

        std::fs::write(dir.join(INDEX_FILE), "{not json").unwrap();
        let with_corrupt_index = RunStore::open(&dir).unwrap();
        assert_eq!(with_corrupt_index.get(&key).unwrap().as_str(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_and_torn_entries_are_quarantined_as_misses() {
        let dir = scratch("quarantine");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let store = RunStore::open(&dir).unwrap();

        // An entry holding a *different* experiment's bytes (manifest hash
        // disagrees with the file name): a miss, quarantined, never served.
        let foreign = run_bytes(&tiny_spec(7));
        std::fs::write(dir.join(entry_name(&key)), &foreign).unwrap();
        assert!(store.get(&key).is_none());
        assert!(
            dir.join(format!("{}.corrupt", entry_name(&key))).exists(),
            "the damaged entry is preserved for forensics"
        );

        // A torn entry (truncated mid-line) is likewise a quarantined miss.
        let torn = &bytes[..bytes.len() - 7];
        std::fs::write(dir.join(entry_name(&key)), torn).unwrap();
        assert!(store.get(&key).is_none());
        assert!(store.get(&key).is_none(), "still a miss, not an error");

        // After recomputing and re-putting, the entry serves again.
        store.put(&key, &bytes).unwrap();
        assert_eq!(store.get(&key).unwrap().as_str(), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_refuses_bytes_that_contradict_the_key() {
        let dir = scratch("putguard");
        let spec = tiny_spec(DEFAULT_SEED);
        let store = RunStore::open(&dir).unwrap();
        let foreign = run_bytes(&tiny_spec(7));
        let err = store.put(&RunKey::of(&spec), &foreign).unwrap_err();
        assert!(matches!(err, Error::Record { .. }), "{err}");
        assert!(format!("{err}").contains("spec hash"), "{err}");
        assert!(store.is_empty(), "nothing was persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_gc_evicts_coldest_first_and_counts_evictions() {
        let dir = scratch("gc");
        let store = RunStore::open(&dir).unwrap();
        let specs = [tiny_spec(1), tiny_spec(2), tiny_spec(3)];
        let mut keys = Vec::new();
        let mut sizes = Vec::new();
        for spec in &specs {
            let key = RunKey::of(spec);
            let bytes = run_bytes(spec);
            store.put(&key, &bytes).unwrap();
            sizes.push(bytes.len() as u64);
            keys.push(key);
        }
        // Touch the first key: it becomes the most recently used.
        assert!(store.get(&keys[0]).is_some());

        // Budget for exactly two entries: the coldest (key 1) goes.
        let budget = sizes[0] + sizes[2];
        let report = store.gc(budget).unwrap();
        assert_eq!(report.evicted, vec![entry_name(&keys[1])]);
        assert_eq!(report.remaining, 2);
        assert!(report.remaining_bytes <= budget);
        assert!(store.get(&keys[1]).is_none(), "evicted entry is gone");
        assert!(store.get(&keys[0]).is_some());
        assert!(store.get(&keys[2]).is_some());
        assert_eq!(store.evictions(), 1);

        // The standing budget enforces on write-through too: a budget that
        // fits one entry evicts down to it on the next put.
        let bounded = RunStore::open(&dir).unwrap().budget_bytes(sizes[0]);
        bounded.put(&keys[1], &run_bytes(&specs[1])).unwrap();
        assert!(bounded.total_bytes() <= sizes[0].max(sizes[1]));
        assert!(bounded.evictions() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_hit_leaves_the_index_file_unchanged() {
        let dir = scratch("hit_no_write");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let store = RunStore::open(&dir).unwrap();
        store.put(&key, &bytes).unwrap();
        let journal = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
        for _ in 0..3 {
            assert_eq!(store.get(&key).unwrap().as_str(), bytes);
        }
        assert_eq!(
            std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap(),
            journal,
            "a read must not rewrite the index"
        );
        assert_eq!(store.entries()[0].last_access, 4, "but it is recorded");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_are_persisted_when_the_handle_drops() {
        let dir = scratch("hit_on_drop");
        let specs = [tiny_spec(1), tiny_spec(2)];
        let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
        let mut sizes = Vec::new();
        let store = RunStore::open(&dir).unwrap();
        for (spec, key) in specs.iter().zip(&keys) {
            let bytes = run_bytes(spec);
            store.put(key, &bytes).unwrap();
            sizes.push(bytes.len() as u64);
        }
        // Ticks 1 and 2 were the puts; the hit on the first key is tick 3.
        assert!(store.get(&keys[0]).is_some());
        drop(store);

        let reopened = RunStore::open(&dir).unwrap();
        let ticks: Vec<(String, u64)> = reopened
            .entries()
            .into_iter()
            .map(|entry| (entry.file, entry.last_access))
            .collect();
        let expected = [(entry_name(&keys[0]), 3), (entry_name(&keys[1]), 2)];
        for pair in &expected {
            assert!(ticks.contains(pair), "{pair:?} not in {ticks:?}");
        }
        // The untouched entry is now the coldest, so GC evicts it.
        let report = reopened.gc(sizes[0]).unwrap();
        assert_eq!(report.evicted, vec![entry_name(&keys[1])]);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_real_line_numbers_and_repair_quarantines() {
        let dir = scratch("verify");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let store = RunStore::open(&dir).unwrap();
        store.put(&key, &bytes).unwrap();
        let clean = store.verify(false).unwrap();
        assert_eq!((clean.checked, clean.ok), (1, 1));
        assert!(clean.issues.is_empty() && clean.quarantined.is_empty());
        drop(store);

        // Damage the middle of the entry but keep the line *count* intact:
        // only the strict verify pass notices, and it names the real file
        // line of the damage (header is line 1, first record line 2).
        let mut lines: Vec<String> = bytes.lines().map(str::to_owned).collect();
        let damaged_line = 2;
        lines[damaged_line - 1] = lines[damaged_line - 1][..8].to_owned();
        std::fs::write(
            dir.join(entry_name(&key)),
            format!("{}\n", lines.join("\n")),
        )
        .unwrap();

        let store = RunStore::open(&dir).unwrap();
        let found = store.verify(false).unwrap();
        assert_eq!((found.checked, found.ok), (1, 0));
        assert_eq!(found.issues.len(), 1);
        assert!(
            found.issues[0].contains(&format!("line {damaged_line}")),
            "damage must be named by its real 1-based line: {}",
            found.issues[0]
        );
        assert!(found.quarantined.is_empty(), "no repair requested");
        assert!(dir.join(entry_name(&key)).exists(), "nothing was moved");

        let repaired = store.verify(true).unwrap();
        assert_eq!(repaired.quarantined.len(), 1);
        assert!(!dir.join(entry_name(&key)).exists());
        assert!(
            dir.join(format!("{}.corrupt", entry_name(&key))).exists(),
            "repair quarantines, never deletes"
        );
        assert!(store.verify(false).unwrap().checked == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_is_idempotent() {
        let dir = scratch("remove");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let store = RunStore::open(&dir).unwrap();
        store.put(&key, &run_bytes(&spec)).unwrap();
        assert!(store.remove(&key).unwrap());
        assert!(!store.remove(&key).unwrap(), "second removal is a no-op");
        assert!(store.get(&key).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_on_one_directory_stay_coherent() {
        // Two stores (two "processes") sharing a directory: both write the
        // same key — identical bytes by construction — and each sees the
        // other's entries after the atomic rename lands.
        let dir = scratch("shared");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let a = RunStore::open(&dir).unwrap();
        let b = RunStore::open(&dir).unwrap();
        a.put(&key, &bytes).unwrap();
        b.put(&key, &bytes).unwrap();
        assert_eq!(a.get(&key).unwrap().as_str(), bytes);
        assert_eq!(b.get(&key).unwrap().as_str(), bytes);
        assert_no_debris(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn threads_racing_one_key_all_commit() {
        // Threads of one process (a server's workers) putting the same key:
        // each needs a temp file of its own, or the first rename takes the
        // shared one and the other put fails.
        const ROUNDS: usize = 40;
        let dir = scratch("thread_race");
        let spec = tiny_spec(DEFAULT_SEED);
        let key = RunKey::of(&spec);
        let bytes = run_bytes(&spec);
        let store = RunStore::open(&dir).unwrap();
        let barrier = std::sync::Barrier::new(2);
        let failures: Vec<String> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUNDS)
                            .filter_map(|round| {
                                barrier.wait();
                                let put = store.put(&key, &bytes);
                                put.err().map(|e| format!("round {round}: {e}"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            racers
                .into_iter()
                .flat_map(|racer| racer.join().unwrap())
                .collect()
        });
        assert!(
            failures.is_empty(),
            "{} of {} puts failed, first: {}",
            failures.len(),
            2 * ROUNDS,
            failures[0]
        );
        assert_eq!(store.get(&key).unwrap().as_str(), bytes);
        assert_no_debris(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// No temp or quarantine file survived in `dir`.
    fn assert_no_debris(dir: &Path) {
        let debris: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|d| d.ok())
            .filter_map(|d| d.file_name().to_str().map(str::to_owned))
            .filter(|name| name.ends_with(".tmp") || name.ends_with(".corrupt"))
            .collect();
        assert!(debris.is_empty(), "{debris:?}");
    }

    #[test]
    fn index_journal_round_trips_and_rejects_foreign_documents() {
        let mut index = Index {
            tick: 7,
            entries: BTreeMap::new(),
        };
        index.entries.insert(
            "a.run.jsonl".to_owned(),
            IndexEntry {
                bytes: 100,
                last_access: 3,
            },
        );
        index.entries.insert(
            "b.run.jsonl".to_owned(),
            IndexEntry {
                bytes: 200,
                last_access: 7,
            },
        );
        let text = index.to_json();
        assert!(text.starts_with("{\"format\":\"imc.store-index\",\"version\":1"));
        let back = Index::parse(&text).unwrap();
        assert_eq!(back.tick, 7);
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.to_json(), text, "parse → write is stable");

        assert!(Index::parse("{}").is_err());
        assert!(Index::parse(&text.replacen("imc.store-index", "other", 1)).is_err());
        let future = text.replacen("\"version\":1", "\"version\":2", 1);
        assert!(Index::parse(&future).is_err());
    }
}
