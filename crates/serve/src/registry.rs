//! The loaded-index registry behind `/v1/indexes`.
//!
//! A registry owns a directory of persisted index artifacts (one
//! `<id>.idx` file per index, written by `POST /v1/indexes` builds) and
//! an in-memory cache of loaded [`IndexArtifact`]s so the hot match
//! path (`GET /v1/indexes/{id}/match`) does not re-read and re-validate
//! the file on every query. The cache is:
//!
//! - **load-once**: concurrent queries for a cold index block on a
//!   condvar while one loader reads the file; nobody loads twice;
//! - **bounded**: a byte budget (artifact file size as the resident
//!   proxy) evicts least-recently-used entries; in-flight queries keep
//!   their `Arc` alive, so eviction never invalidates an answer being
//!   computed;
//! - **the one copy a patch starts from**: a build goes through the
//!   supervised [`JobQueue`](crate::scheduler::JobQueue) and only the
//!   finished file becomes visible here (the artifact writer publishes
//!   with an atomic rename). A patch job holds the registry it patches:
//!   it takes the loaded artifact (loading it here when cold), patches a
//!   copy, persists it and [publishes](IndexRegistry::publish) the
//!   result into the slot, so no artifact file is decoded on either
//!   side of a patch;
//! - **newest wins**: a load that read the file before a patch renamed
//!   its own over it never replaces the published, newer content.
//!
//! Index ids are job names restricted to a filesystem-safe alphabet —
//! `[A-Za-z0-9._-]`, not starting with a dot — so a wire id can never
//! escape the registry directory.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use minoan_core::{ArtifactMeta, IndexArtifact};
use minoan_kb::artifact::ArtifactError;
use minoan_kb::Json;

/// Default byte budget for loaded artifacts (512 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 512 << 20;

/// File extension of persisted index artifacts inside a registry
/// directory.
pub const ARTIFACT_EXT: &str = "idx";

/// Why taking the registry lock cannot fail: no code panics while
/// holding it.
const LOCK: &str = "the registry lock is never held across a panic";

/// Longest accepted index id, in bytes.
pub const MAX_ID_LEN: usize = 120;

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// The id is not in the filesystem-safe alphabet.
    InvalidId,
    /// No artifact with this id exists in the registry directory.
    NotFound,
    /// The artifact exists but could not be read or validated.
    Artifact(ArtifactError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidId => write!(
                f,
                "invalid index id (use [A-Za-z0-9._-], not starting with '.', \
                 at most {MAX_ID_LEN} bytes)"
            ),
            RegistryError::NotFound => write!(f, "no such index"),
            RegistryError::Artifact(e) => write!(f, "cannot load index: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl RegistryError {
    /// Whether retrying the operation could succeed (I/O trouble is
    /// transient; a missing, corrupt or mis-addressed artifact is not).
    pub fn retryable(&self) -> bool {
        matches!(self, RegistryError::Artifact(ArtifactError::Io(_)))
    }
}

/// One row of [`IndexRegistry::list`].
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// The index id (artifact file stem).
    pub id: String,
    /// On-disk artifact size in bytes.
    pub file_bytes: u64,
    /// Whether the artifact is currently loaded in the cache.
    pub loaded: bool,
}

enum Slot {
    /// One thread is reading the file; waiters block on the condvar.
    Loading,
    Loaded {
        artifact: Arc<IndexArtifact>,
        bytes: u64,
        last_used: u64,
    },
}

#[derive(Default)]
struct Inner {
    slots: HashMap<String, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

/// A directory of persisted indexes plus the LRU cache of loaded ones.
pub struct IndexRegistry {
    dir: PathBuf,
    budget: u64,
    inner: Mutex<Inner>,
    loaded_cond: Condvar,
}

impl fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexRegistry")
            .field("dir", &self.dir)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Two handles are equal when they are the same registry: its cache is
/// state, so two registries over one directory are still two.
impl PartialEq for IndexRegistry {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

/// What [`IndexRegistry::claim`] found in a slot.
enum Claim {
    /// The artifact was loaded; the lookup counted as a hit.
    Hit(Arc<IndexArtifact>),
    /// The slot was empty and is now `Loading`: the caller reads the
    /// file and hands the result to [`IndexRegistry::install`].
    Load,
}

/// Whether `id` is acceptable as an index id (and thus artifact file
/// stem): non-empty, at most [`MAX_ID_LEN`] bytes of `[A-Za-z0-9._-]`,
/// not starting with a dot.
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_LEN
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl IndexRegistry {
    /// Opens (creating if needed) the registry directory. `budget` is
    /// the loaded-artifact byte budget; `None` uses
    /// [`DEFAULT_CACHE_BYTES`].
    pub fn open(dir: impl Into<PathBuf>, budget: Option<u64>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            budget: budget.unwrap_or(DEFAULT_CACHE_BYTES),
            inner: Mutex::new(Inner::default()),
            loaded_cond: Condvar::new(),
        })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for `id` (whether or not it exists yet).
    /// Errors on invalid ids so no wire string ever forms a path.
    pub fn path_for(&self, id: &str) -> Result<PathBuf, RegistryError> {
        if !valid_id(id) {
            return Err(RegistryError::InvalidId);
        }
        Ok(self.dir.join(format!("{id}.{ARTIFACT_EXT}")))
    }

    /// Lists persisted indexes, sorted by id.
    pub fn list(&self) -> std::io::Result<Vec<IndexEntry>> {
        let mut entries = Vec::new();
        let inner = self.inner.lock().unwrap();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(&format!(".{ARTIFACT_EXT}")) else {
                continue;
            };
            if !valid_id(id) {
                continue;
            }
            let file_bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let loaded = matches!(inner.slots.get(id), Some(Slot::Loaded { .. }));
            entries.push(IndexEntry {
                id: id.to_string(),
                file_bytes,
                loaded,
            });
        }
        drop(inner);
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(entries)
    }

    /// Reads the metadata of one index — from the cache when loaded,
    /// from disk (full checksum validation, no structure rebuild)
    /// otherwise.
    pub fn meta(&self, id: &str) -> Result<ArtifactMeta, RegistryError> {
        let path = self.path_for(id)?;
        {
            let inner = self.inner.lock().unwrap();
            if let Some(Slot::Loaded { artifact, .. }) = inner.slots.get(id) {
                return Ok(artifact.meta().clone());
            }
        }
        if !path.exists() {
            return Err(RegistryError::NotFound);
        }
        IndexArtifact::read_meta(&path).map_err(RegistryError::Artifact)
    }

    /// Returns the loaded artifact for `id`, reading it from disk at
    /// most once however many queries arrive concurrently.
    pub fn load(&self, id: &str) -> Result<Arc<IndexArtifact>, RegistryError> {
        let path = self.path_for(id)?;
        if let Claim::Hit(artifact) = self.claim(id) {
            return Ok(artifact);
        }
        let load_span = minoan_obs::trace::span(minoan_obs::Level::Debug, "registry.load", || {
            format!("index={id:?} path={}", path.display())
        });
        let read = IndexArtifact::read_from(&path);
        drop(load_span);
        self.install(id, &path, read)
    }

    /// The first half of [`IndexRegistry::load`]: a hit on a loaded
    /// slot, or — after waiting out another thread's load — a claim on
    /// the empty slot, which this thread must then
    /// [`install`](IndexRegistry::install) into.
    fn claim(&self, id: &str) -> Claim {
        let mut inner = self.inner.lock().expect(LOCK);
        loop {
            match inner.slots.get(id) {
                Some(Slot::Loaded { .. }) => {
                    inner.tick += 1;
                    inner.hits += 1;
                    let tick = inner.tick;
                    let Some(Slot::Loaded {
                        artifact,
                        last_used,
                        ..
                    }) = inner.slots.get_mut(id)
                    else {
                        unreachable!("slot vanished under the lock");
                    };
                    *last_used = tick;
                    return Claim::Hit(Arc::clone(artifact));
                }
                Some(Slot::Loading) => {
                    inner = self.loaded_cond.wait(inner).expect(LOCK);
                }
                None => break,
            }
        }
        inner.misses += 1;
        inner.slots.insert(id.to_string(), Slot::Loading);
        Claim::Load
    }

    /// The second half of [`IndexRegistry::load`]: caches what the
    /// claiming thread read and wakes the threads waiting on it. An
    /// artifact [published](IndexRegistry::publish) into the slot while
    /// the file was being read wins when it is at least as new — the
    /// read may have opened the file before the patch renamed its own
    /// over it — and is what the loader returns.
    fn install(
        &self,
        id: &str,
        path: &Path,
        read: Result<IndexArtifact, ArtifactError>,
    ) -> Result<Arc<IndexArtifact>, RegistryError> {
        let mut inner = self.inner.lock().expect(LOCK);
        let result = match read {
            Ok(artifact) => match inner.slots.get(id) {
                Some(Slot::Loaded {
                    artifact: published,
                    ..
                }) if published.meta().content_version >= artifact.meta().content_version => {
                    Ok(Arc::clone(published))
                }
                // Cache only while the file still exists: a DELETE that
                // raced the load must not resurrect the index.
                _ if !path.exists() => {
                    inner.slots.remove(id);
                    Ok(Arc::new(artifact))
                }
                _ => {
                    let artifact = Arc::new(artifact);
                    inner.tick += 1;
                    let slot = Slot::Loaded {
                        artifact: Arc::clone(&artifact),
                        bytes: artifact.meta().file_bytes,
                        last_used: inner.tick,
                    };
                    inner.slots.insert(id.to_string(), slot);
                    self.evict_over_budget(&mut inner);
                    Ok(artifact)
                }
            },
            Err(e) => {
                if matches!(inner.slots.get(id), Some(Slot::Loading)) {
                    inner.slots.remove(id);
                }
                if matches!(&e, ArtifactError::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
                {
                    Err(RegistryError::NotFound)
                } else {
                    Err(RegistryError::Artifact(e))
                }
            }
        };
        self.loaded_cond.notify_all();
        result
    }

    /// Makes `artifact` — a patch of `id`, already persisted to its
    /// file — the copy the registry serves. Under the lock it replaces
    /// whatever the slot held (a loaded copy, an in-flight load, or
    /// nothing), counts one invalidation and evicts over budget; the
    /// replaced copy is dropped after the lock is released. Queries
    /// holding an `Arc` to the old artifact finish on it.
    pub fn publish(&self, id: &str, artifact: IndexArtifact) {
        let _span = minoan_obs::trace::span(minoan_obs::Level::Debug, "registry.publish", || {
            format!(
                "index={id:?} content_version={}",
                artifact.meta().content_version
            )
        });
        let artifact = Arc::new(artifact);
        let mut inner = self.inner.lock().expect(LOCK);
        inner.tick += 1;
        inner.invalidations += 1;
        let slot = Slot::Loaded {
            bytes: artifact.meta().file_bytes,
            artifact,
            last_used: inner.tick,
        };
        let replaced = inner.slots.insert(id.to_string(), slot);
        self.evict_over_budget(&mut inner);
        drop(inner);
        self.loaded_cond.notify_all();
        drop(replaced);
    }

    /// Drops the cached copy of `id` (if any) without touching the
    /// file, so the next query re-reads it. A patch does not go through
    /// here — it [publishes](IndexRegistry::publish) its result — so this
    /// serves callers that changed the file some other way. Queries
    /// holding an `Arc` to the dropped artifact finish undisturbed
    /// against that consistent snapshot. A slot mid-load is left alone:
    /// the loader's file handle already sees either the fully-old or
    /// fully-new artifact (the writer publishes with an atomic rename),
    /// never a torn one.
    pub fn invalidate(&self, id: &str) {
        let mut inner = self.inner.lock().unwrap();
        if matches!(inner.slots.get(id), Some(Slot::Loaded { .. })) {
            inner.slots.remove(id);
            inner.invalidations += 1;
        }
    }

    /// Cache counters as plain numbers, in the order (loaded entries,
    /// resident bytes, budget bytes, hits, misses, evictions,
    /// invalidations) — the Prometheus exposition's view of
    /// [`IndexRegistry::stats_json`].
    pub fn stats_counts(&self) -> (usize, u64, u64, u64, u64, u64, u64) {
        let inner = self.inner.lock().unwrap();
        let loaded = inner
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Loaded { .. }))
            .count();
        let bytes: u64 = inner
            .slots
            .values()
            .map(|s| match s {
                Slot::Loaded { bytes, .. } => *bytes,
                Slot::Loading => 0,
            })
            .sum();
        (
            loaded,
            bytes,
            self.budget,
            inner.hits,
            inner.misses,
            inner.evictions,
            inner.invalidations,
        )
    }

    /// Deletes the persisted artifact and evicts any cached copy.
    /// Queries holding an `Arc` to the old artifact finish undisturbed.
    pub fn delete(&self, id: &str) -> Result<(), RegistryError> {
        let path = self.path_for(id)?;
        let mut inner = self.inner.lock().unwrap();
        inner.slots.remove(id);
        drop(inner);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(RegistryError::NotFound),
            Err(e) => Err(RegistryError::Artifact(ArtifactError::Io(e))),
        }
    }

    /// Cache telemetry: loaded entries, resident bytes, hit/miss/evict
    /// counters — surfaced in the daemon's status snapshot.
    pub fn stats_json(&self) -> Json {
        let (loaded, bytes, budget, hits, misses, evictions, invalidations) = self.stats_counts();
        Json::obj([
            ("loaded", Json::num(loaded as f64)),
            ("cached_bytes", Json::num(bytes as f64)),
            ("budget_bytes", Json::num(budget as f64)),
            ("hits", Json::num(hits as f64)),
            ("misses", Json::num(misses as f64)),
            ("evictions", Json::num(evictions as f64)),
            ("invalidations", Json::num(invalidations as f64)),
        ])
    }

    fn evict_over_budget(&self, inner: &mut Inner) {
        loop {
            let total: u64 = inner
                .slots
                .values()
                .map(|s| match s {
                    Slot::Loaded { bytes, .. } => *bytes,
                    Slot::Loading => 0,
                })
                .sum();
            if total <= self.budget {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter_map(|(id, s)| match s {
                    Slot::Loaded { last_used, .. } => Some((*last_used, id.clone())),
                    Slot::Loading => None,
                })
                .min();
            let Some((_, id)) = victim else { return };
            inner.slots.remove(&id);
            inner.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoan_core::MinoanEr;
    use minoan_exec::{CancelToken, Executor};
    use minoan_kb::{KbBuilder, KbPair};

    fn sample_artifact(name: &str) -> IndexArtifact {
        let mut a = KbBuilder::new("E1");
        a.add_literal("a:1", "name", "Minos of Knossos");
        let mut b = KbBuilder::new("E2");
        b.add_literal("b:1", "label", "Knossos Minos");
        let pair = KbPair::new(a.finish(), b.finish());
        let matcher = MinoanEr::with_defaults();
        let indexed = matcher
            .run_cancellable_indexed(&pair, &Executor::sequential(), &CancelToken::new())
            .unwrap();
        IndexArtifact::from_run(name, &pair, indexed, matcher.config())
    }

    fn temp_registry(tag: &str, budget: Option<u64>) -> IndexRegistry {
        let dir =
            std::env::temp_dir().join(format!("minoan-registry-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        IndexRegistry::open(dir, budget).unwrap()
    }

    #[test]
    fn id_validation_rejects_path_escapes() {
        assert!(valid_id("rexa-small"));
        assert!(valid_id("a.b_c-9"));
        assert!(!valid_id(""));
        assert!(!valid_id(".hidden"));
        assert!(!valid_id("../../etc/passwd"));
        assert!(!valid_id("a/b"));
        assert!(!valid_id("a b"));
        assert!(!valid_id(&"x".repeat(MAX_ID_LEN + 1)));
    }

    #[test]
    fn build_list_load_query_delete_round_trip() {
        let reg = temp_registry("round", None);
        let art = sample_artifact("demo");
        art.write_to(&reg.path_for("demo").unwrap()).unwrap();

        let listed = reg.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].id, "demo");
        assert!(!listed[0].loaded);
        assert!(listed[0].file_bytes > 0);

        let meta = reg.meta("demo").unwrap();
        assert_eq!(meta.name, "demo");

        let loaded = reg.load("demo").unwrap();
        assert_eq!(loaded.match_query("a:1", 3).unwrap().matches, vec!["b:1"]);
        assert!(reg.list().unwrap()[0].loaded);

        reg.delete("demo").unwrap();
        assert!(reg.list().unwrap().is_empty());
        assert!(matches!(reg.load("demo"), Err(RegistryError::NotFound)));
        assert!(matches!(reg.delete("demo"), Err(RegistryError::NotFound)));
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn concurrent_queries_load_once() {
        let reg = Arc::new(temp_registry("once", None));
        sample_artifact("hot")
            .write_to(&reg.path_for("hot").unwrap())
            .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || reg.load("hot").unwrap().meta().name.clone())
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), "hot");
        }
        let stats = reg.stats_json();
        assert_eq!(stats.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(stats.get("loaded").unwrap().as_f64(), Some(1.0));
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn zero_budget_evicts_after_every_load() {
        let reg = temp_registry("evict", Some(0));
        sample_artifact("tiny")
            .write_to(&reg.path_for("tiny").unwrap())
            .unwrap();
        let a = reg.load("tiny").unwrap();
        // The caller's Arc survives eviction.
        assert_eq!(a.meta().name, "tiny");
        let stats = reg.stats_json();
        assert_eq!(stats.get("loaded").unwrap().as_f64(), Some(0.0));
        assert_eq!(stats.get("evictions").unwrap().as_f64(), Some(1.0));
        // The next load is a fresh miss, not a hit.
        reg.load("tiny").unwrap();
        assert_eq!(reg.stats_json().get("misses").unwrap().as_f64(), Some(2.0));
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn stampede_across_ids_loads_each_once() {
        let reg = Arc::new(temp_registry("stampede", None));
        for id in ["alpha", "beta"] {
            sample_artifact(id)
                .write_to(&reg.path_for(id).unwrap())
                .unwrap();
        }
        let threads: Vec<_> = (0..16)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let id = if i % 2 == 0 { "alpha" } else { "beta" };
                    reg.load(id).unwrap().meta().name.clone()
                })
            })
            .collect();
        for (i, t) in threads.into_iter().enumerate() {
            let expect = if i % 2 == 0 { "alpha" } else { "beta" };
            assert_eq!(t.join().unwrap(), expect);
        }
        // Every thread either loaded or waited on the condvar and then
        // took the hit path — exactly one disk read per id.
        let (loaded, _, _, hits, misses, evictions, _) = reg.stats_counts();
        assert_eq!(misses, 2);
        assert_eq!(hits, 14);
        assert_eq!(loaded, 2);
        assert_eq!(evictions, 0);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn eviction_pressure_never_disturbs_in_flight_queries() {
        // Budget 0: every load caches, then the LRU immediately evicts
        // it — maximum churn. Queries run on Arcs the readers hold, so
        // eviction under them must never invalidate an answer.
        let reg = Arc::new(temp_registry("pressure", Some(0)));
        for id in ["p0", "p1", "p2"] {
            sample_artifact(id)
                .write_to(&reg.path_for(id).unwrap())
                .unwrap();
        }
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let id = ["p0", "p1", "p2"][i % 3];
                    for _ in 0..25 {
                        let artifact = reg.load(id).unwrap();
                        assert_eq!(artifact.meta().name, id);
                        let answer = artifact.match_query("a:1", 3).expect("entity exists");
                        assert_eq!(answer.matches, vec!["b:1"]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (loaded, _, _, _, misses, evictions, _) = reg.stats_counts();
        assert_eq!(loaded, 0, "a zero budget keeps nothing resident");
        assert_eq!(
            evictions, misses,
            "every cached load must have been evicted"
        );
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn invalidation_racing_readers_always_serves_a_full_artifact() {
        use minoan_kb::{DeltaOp, KbSide, Object};
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Arc::new(temp_registry("inval", None));
        let path = reg.path_for("live").unwrap();
        sample_artifact("live").write_to(&path).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut versions = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        // A read racing the writer's rename + invalidate
                        // must always get a whole artifact: either fully
                        // old or fully new, never a checksum error.
                        let artifact = reg.load("live").unwrap();
                        versions.push(artifact.meta().content_version);
                        assert!(artifact.match_query("a:1", 3).is_some());
                    }
                    versions
                })
            })
            .collect();

        // The writer: patch the on-disk artifact (atomic temp+rename)
        // behind the registry's back and drop the cached copy.
        let mut disk = IndexArtifact::read_from(&path).unwrap();
        for round in 0..5u32 {
            let ops = vec![DeltaOp::Upsert {
                side: KbSide::First,
                uri: "a:1".into(),
                statements: vec![(
                    "name".into(),
                    Object::Literal(format!("Minos of Knossos {round}")),
                )],
            }];
            disk.apply_delta(&ops, &Executor::sequential(), &CancelToken::new())
                .unwrap();
            disk.persist_patch(&path).unwrap();
            reg.invalidate("live");
        }
        stop.store(true, Ordering::Relaxed);
        let mut seen = Vec::new();
        for t in readers {
            seen.extend(t.join().unwrap());
        }
        // Readers only ever observed committed versions, monotonically
        // available — nothing outside [1, 6].
        assert!(
            seen.iter().all(|v| (1..=6).contains(v)),
            "versions: {seen:?}"
        );

        // A load-in-flight during the last invalidation may have cached
        // the previous version; one more invalidation with no readers
        // racing must surface the final bytes.
        reg.invalidate("live");
        assert_eq!(reg.load("live").unwrap().meta().content_version, 6);
        let (.., invalidations) = reg.stats_counts();
        // Only drops of *cached* copies count; a round that raced a
        // still-loading slot is a no-op, so the exact total is timing
        // dependent — but the initial cached load must have been hit.
        assert!(invalidations >= 1, "invalidations: {invalidations}");
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    fn rename_a1(round: u32) -> Vec<minoan_kb::DeltaOp> {
        vec![minoan_kb::DeltaOp::Upsert {
            side: minoan_kb::KbSide::First,
            uri: "a:1".into(),
            statements: vec![(
                "name".into(),
                minoan_kb::Object::Literal(format!("Minos of Knossos {round}")),
            )],
        }]
    }

    /// A patch of the loaded copy, persisted to `path` as a patch job
    /// persists it.
    fn persisted_patch(reg: &IndexRegistry, id: &str, round: u32) -> IndexArtifact {
        let (mut next, _) = reg
            .load(id)
            .unwrap()
            .patched(
                &rename_a1(round),
                &Executor::sequential(),
                &CancelToken::new(),
            )
            .unwrap();
        next.persist_patch(&reg.path_for(id).unwrap()).unwrap();
        next
    }

    #[test]
    fn a_publish_replaces_the_cached_copy_under_its_readers() {
        let reg = temp_registry("publish", None);
        let path = reg.path_for("live").unwrap();
        sample_artifact("live").write_to(&path).unwrap();
        let reader = reg.load("live").unwrap();
        let next = persisted_patch(&reg, "live", 1);
        reg.publish("live", next);
        // The reader finishes on its own copy; the next load is a hit on
        // the published one, which describes itself as its file does.
        assert_eq!(reader.meta().content_version, 1);
        assert_eq!(reg.load("live").unwrap().meta().content_version, 2);
        let (loaded, bytes, _, hits, misses, _, invalidations) = reg.stats_counts();
        assert_eq!((loaded, hits, misses, invalidations), (1, 2, 1, 1));
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let cold = IndexRegistry::open(reg.dir(), None).unwrap();
        assert_eq!(
            reg.meta("live").unwrap().to_json().compact(),
            cold.meta("live").unwrap().to_json().compact()
        );
        // Over budget, a publish evicts like a load does.
        let tight = IndexRegistry::open(reg.dir(), Some(0)).unwrap();
        tight.publish("live", persisted_patch(&reg, "live", 2));
        assert_eq!(tight.stats_counts().0, 0);
        assert_eq!(tight.stats_counts().5, 1);
        let _ = std::fs::remove_dir_all(reg.dir());
    }

    /// A cold load that opened the file before a patch renamed its own
    /// over it finishes after the patch published: the slot keeps the
    /// published, newer copy, and the loader returns it too.
    #[test]
    fn a_load_that_read_the_old_file_never_replaces_a_publish() {
        let reg = temp_registry("stale-load", None);
        let path = reg.path_for("live").unwrap();
        sample_artifact("live").write_to(&path).unwrap();
        let writer = temp_registry("stale-load-writer", None);
        let writer_path = writer.path_for("live").unwrap();
        std::fs::copy(&path, &writer_path).unwrap();

        assert!(matches!(reg.claim("live"), Claim::Load));
        let stale = IndexArtifact::read_from(&path);
        let mut next = persisted_patch(&writer, "live", 1);
        next.persist_patch(&path).unwrap();
        reg.publish("live", next);
        let served = reg.install("live", &path, stale).unwrap();
        assert_eq!(served.meta().content_version, 2);
        assert_eq!(reg.load("live").unwrap().meta().content_version, 2);
        // A failed read cannot drop the publish either.
        assert!(matches!(reg.claim("other"), Claim::Load));
        reg.publish("other", persisted_patch(&writer, "live", 2));
        let failed = Err(ArtifactError::Corrupt("torn".into()));
        assert!(reg.install("other", &path, failed).is_err());
        assert!(matches!(reg.claim("other"), Claim::Hit(_)));
        let _ = std::fs::remove_dir_all(reg.dir());
        let _ = std::fs::remove_dir_all(writer.dir());
    }

    #[test]
    fn corrupt_artifacts_surface_structured_errors() {
        let reg = temp_registry("corrupt", None);
        std::fs::write(reg.path_for("bad").unwrap(), b"NOTMINOAN-GARBAGE").unwrap();
        let err = reg.load("bad").unwrap_err();
        assert!(matches!(&err, RegistryError::Artifact(_)), "{err}");
        assert!(!err.retryable());
        assert!(matches!(reg.load("../oops"), Err(RegistryError::InvalidId)));
        let _ = std::fs::remove_dir_all(reg.dir());
    }
}
