//! A thread-safe, memoising design cache for `accel(v, R)`.
//!
//! The selection DP invokes the accelerator model at every unpruned wPST
//! vertex, and the evaluation protocol re-runs selection many times over the
//! same application — once per framework (Cayman / NOVIA / QsCores), once
//! per ablation point, once per α or budget sweep step. The model's output
//! for a candidate depends only on
//!
//! * the model identity and its options ([`ModelId`]), and
//! * the candidate itself ([`CandidateKey`]: function, block set, profile),
//!
//! given fixed per-function analysis inputs — so repeated invocations can be
//! answered from a memo table instead of re-running scheduling, pipelining
//! and interface assignment.
//!
//! A cache may be shared by every analysis that models the same content:
//! each key carries the containing function's content fingerprint
//! (`FuncInputs::content_fp`) and the region's profile (blocks, entries,
//! CPU cycles); the model reads only the candidate and its function's
//! analyses (see [`CandidateKey`]). So an entry stays sound when the
//! module is edited or re-analysed, and `IncrementalApp` keeps one
//! cache in its query store across edits while `DiskStore` shares
//! entries across processes. `diff::check_incremental` (incremental vs
//! fresh fronts) and `store/tests/tiered.rs` (disk-warm vs cold fronts) pin
//! this contract.
//!
//! ## Two levels
//!
//! The in-memory stripes can be backed by a persistent second level through
//! [`DesignStoreBackend`] (implemented by `cayman-store`'s content-addressed
//! disk store). The cache is **write-through**: every insert is forwarded to
//! the backing store, and a memory miss consults the store before reporting
//! a miss, promoting disk hits into the missing stripe. Keys carry a content
//! fingerprint of the analysed function, so a persistent entry is valid for
//! every process that analyses the same function with the same model — which
//! is exactly what makes the store shareable across processes.

use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::CandidateKey;
use cayman_ir::fingerprint::fnv1a_u64s;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of an accelerator model instance: a model name plus a
/// fingerprint of its options (`0` for option-free models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelId {
    /// Static model name (`"cayman"`, `"novia"`, `"qscores"`, …).
    pub name: &'static str,
    /// Fingerprint of the model's options
    /// (`cayman_hls::interface::ModelOptions::fingerprint`), or `0`.
    pub options: u64,
}

/// Full cache key: model identity × candidate identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignKey {
    /// Which model produced the designs.
    pub model: ModelId,
    /// Which candidate they were produced for.
    pub candidate: CandidateKey,
}

/// A persistent second level under the in-memory stripes.
///
/// Implementations must be corruption-tolerant (a bad entry is a miss,
/// never a panic) and safe for concurrent use from many threads and many
/// processes. `save` is called with the designs the model just produced;
/// models are deterministic, so concurrent saves of the same key write
/// identical bytes and last-writer-wins is safe.
pub trait DesignStoreBackend: Send + Sync + std::fmt::Debug {
    /// Loads the memoised designs for `key`, or `None` on any kind of miss
    /// (absent, corrupt, version-mismatched, hash-collided).
    fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>>;
    /// Persists `designs` under `key`. Failures are swallowed (the store is
    /// an optimisation, not a source of truth).
    fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]);
}

/// Number of independent lock stripes. A power of two so the stripe pick is
/// a mask; 16 stripes keep the probability of two of ≤16 workers colliding
/// on one lock low without bloating the cache with empty maps.
const STRIPES: usize = 16;

/// Which lock stripe a key lives on: FNV-1a over the key's numeric fields,
/// deterministic across runs and processes (the `HashMap`s inside each
/// stripe still use `RandomState`; only the stripe pick must be stable).
/// The pick reads the top bits, which FNV's multiply mixes from every input
/// byte; a stripe only spreads lock traffic, so the map inside it does the
/// exact matching.
fn stripe_of(key: &DesignKey) -> usize {
    let c = &key.candidate;
    let h = fnv1a_u64s(&[
        key.model.options,
        u64::from(c.func.0),
        c.content_fp,
        c.entries,
        c.cpu_cycles,
        c.blocks.len() as u64,
        c.blocks.first().map_or(0, |b| u64::from(b.0)),
    ]);
    (h >> (64 - STRIPES.trailing_zeros())) as usize
}

/// Which level of the cache answered a [`DesignCache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The in-memory stripes.
    Memory,
    /// The backing store (the entry is now promoted into memory).
    Store,
}

/// Memoised `accel(v, R)` results, shareable across selection runs and
/// across threads within a run.
///
/// Entries are `Arc`ed so hits hand out cheap clones of the design vector.
/// The table is sharded into 16 independently locked stripes keyed
/// by a deterministic hash of the [`DesignKey`], so parallel workers probing
/// different candidates do not serialise on one global lock. The cache
/// counts nothing itself: the selection DP counts its lookups per run
/// (`SelectStats`) and adds the run's totals to the process-scope
/// `cache.mem.*` counters once at run end.
///
/// An optional [`DesignStoreBackend`] turns the cache into the first level
/// of a two-level hierarchy (see the module docs).
#[derive(Debug, Default)]
pub struct DesignCache {
    stripes: [Mutex<HashMap<DesignKey, Arc<Vec<AcceleratorDesign>>>>; STRIPES],
    backing: Option<Arc<dyn DesignStoreBackend>>,
}

impl DesignCache {
    /// An empty cache with no backing store.
    pub fn new() -> Self {
        DesignCache::default()
    }

    /// Attaches a persistent second level. Subsequent inserts write through
    /// to it and memory misses consult it. Intended to be called once,
    /// before the cache warms.
    pub fn set_backing(&mut self, backing: Arc<dyn DesignStoreBackend>) {
        self.backing = Some(backing);
    }

    /// Looks up memoised designs and says which level answered. Only the
    /// key's stripe is locked, and only for the probe itself. On a memory
    /// miss the backing store (when attached) is consulted and a store hit
    /// is promoted into the stripe.
    pub fn lookup(&self, key: &DesignKey) -> Option<(Arc<Vec<AcceleratorDesign>>, Source)> {
        let stripe = &self.stripes[stripe_of(key)];
        let found = stripe
            .lock()
            .expect("design cache poisoned")
            .get(key)
            .cloned();
        if let Some(designs) = found {
            return Some((designs, Source::Memory));
        }
        let designs = Arc::new(self.backing.as_ref()?.load(key)?);
        stripe
            .lock()
            .expect("design cache poisoned")
            .insert(key.clone(), Arc::clone(&designs));
        Some((designs, Source::Store))
    }

    /// Memoises `designs` under `key`, writing through to the backing store
    /// when one is attached. Concurrent inserts of the same key are benign:
    /// models are deterministic, so both values are identical and
    /// last-writer-wins is safe.
    pub fn insert(
        &self,
        key: DesignKey,
        designs: Vec<AcceleratorDesign>,
    ) -> Arc<Vec<AcceleratorDesign>> {
        if let Some(backing) = &self.backing {
            backing.save(&key, &designs);
        }
        let arc = Arc::new(designs);
        self.stripes[stripe_of(&key)]
            .lock()
            .expect("design cache poisoned")
            .insert(key, Arc::clone(&arc));
        arc
    }

    /// Number of memoised candidate entries, summed over stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("design cache poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all in-memory entries. The backing store (when attached)
    /// keeps its entries: clearing memory is a per-process operation, the
    /// store is shared.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.lock().expect("design cache poisoned").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::{BlockId, FuncId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(func: u32, entries: u64) -> DesignKey {
        DesignKey {
            model: ModelId {
                name: "test",
                options: 1,
            },
            candidate: CandidateKey {
                func: FuncId(func),
                content_fp: 0xfeed,
                blocks: vec![BlockId(0), BlockId(1)],
                entries,
                cpu_cycles: 100,
                is_bb: false,
            },
        }
    }

    #[test]
    fn lookup_insert_roundtrip() {
        let cache = DesignCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(0, 1)).is_none());
        cache.insert(key(0, 1), Vec::new());
        let (hit, source) = cache.lookup(&key(0, 1)).expect("hit");
        assert!(hit.is_empty());
        assert_eq!(source, Source::Memory);
        assert_eq!(cache.len(), 1);
        // distinct candidate → distinct entry
        assert!(cache.lookup(&key(0, 2)).is_none());
        cache.insert(key(0, 2), Vec::new());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(&key(0, 1)).is_none(), "clear drops entries");
    }

    #[test]
    fn model_identity_partitions_the_cache() {
        let cache = DesignCache::new();
        let mut a = key(0, 1);
        cache.insert(a.clone(), Vec::new());
        a.model = ModelId {
            name: "other",
            options: 1,
        };
        assert!(cache.lookup(&a).is_none(), "different model must miss");
        a.model = ModelId {
            name: "test",
            options: 2,
        };
        assert!(cache.lookup(&a).is_none(), "different options must miss");
    }

    #[test]
    fn stripe_assignment_is_deterministic_and_spreads() {
        let keys: Vec<DesignKey> = (0..64).map(|i| key(i, u64::from(i))).collect();
        let stripes: Vec<usize> = keys.iter().map(stripe_of).collect();
        // stable across repeated hashing
        assert_eq!(stripes, keys.iter().map(stripe_of).collect::<Vec<_>>());
        let used: std::collections::HashSet<usize> = stripes.iter().copied().collect();
        assert!(
            used.len() > STRIPES / 2,
            "64 distinct keys landed on only {} stripe(s)",
            used.len()
        );
        assert!(used.iter().all(|&s| s < STRIPES));
    }

    #[test]
    fn striped_cache_survives_concurrent_mixed_use() {
        let cache = DesignCache::new();
        for i in 0..64 {
            cache.insert(key(i, 1), Vec::new());
        }
        assert_eq!(cache.len(), 64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64 {
                        assert!(cache.lookup(&key(i, 1)).is_some(), "pre-seeded key missing");
                        cache.insert(key(i, t + 2), Vec::new());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64 * 5, "64 seeded + 4×64 distinct inserts");
        cache.clear();
        assert!(cache.is_empty());
    }

    /// An in-memory [`DesignStoreBackend`] for exercising the write-through
    /// and promote paths without touching disk.
    #[derive(Debug, Default)]
    struct MapStore {
        entries: Mutex<HashMap<DesignKey, Vec<AcceleratorDesign>>>,
        loads: AtomicU64,
        saves: AtomicU64,
    }

    impl DesignStoreBackend for MapStore {
        fn load(&self, key: &DesignKey) -> Option<Vec<AcceleratorDesign>> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.entries.lock().unwrap().get(key).cloned()
        }

        fn save(&self, key: &DesignKey, designs: &[AcceleratorDesign]) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.entries
                .lock()
                .unwrap()
                .insert(key.clone(), designs.to_vec());
        }
    }

    #[test]
    fn write_through_backing_promotes_on_memory_miss() {
        let store = Arc::new(MapStore::default());
        let mut warm = DesignCache::new();
        warm.set_backing(Arc::clone(&store) as Arc<dyn DesignStoreBackend>);

        // miss both levels, then write through
        assert!(warm.lookup(&key(0, 1)).is_none());
        assert_eq!(
            store.loads.load(Ordering::Relaxed),
            1,
            "memory miss asks the store"
        );
        warm.insert(key(0, 1), Vec::new());
        assert_eq!(store.saves.load(Ordering::Relaxed), 1);

        // a fresh cache over the same store: memory misses, store hits,
        // entry promoted so the second lookup never reaches the store
        let mut fresh = DesignCache::new();
        fresh.set_backing(Arc::clone(&store) as Arc<dyn DesignStoreBackend>);
        let (_, source) = fresh.lookup(&key(0, 1)).expect("store hit serves lookup");
        assert_eq!(source, Source::Store);
        let loads_after_promote = store.loads.load(Ordering::Relaxed);
        let (_, source) = fresh.lookup(&key(0, 1)).expect("promoted");
        assert_eq!(source, Source::Memory, "promoted entry answers from memory");
        assert_eq!(store.loads.load(Ordering::Relaxed), loads_after_promote);
        assert_eq!(fresh.len(), 1);
    }
}
