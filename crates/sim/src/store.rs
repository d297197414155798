//! Cross-simulation workload reuse: a thread-safe, content-addressed
//! cache of lowered models.
//!
//! Lowering a model ([`lower_model`]) synthesizes up to
//! `max_weights_per_layer` RNG weights per layer — by far the most
//! expensive part of starting a simulation. Every accelerator sweep and
//! every `bbs-serve` request that shares `(model, seed, cap)` re-does that
//! work identically; the [`WorkloadStore`] does it once and hands out
//! `Arc<[LayerWorkload]>` views, so a seven-accelerator figure sweep
//! lowers each model one time instead of seven.
//!
//! Properties:
//!
//! * **Content-addressed**: the key hashes the *full* layer table (via the
//!   canonical model-spec JSON), not just the model name — two custom
//!   models sharing a name but differing in shape never alias.
//! * **Coalescing**: concurrent misses on one key lower once; the other
//!   threads block on the builder and share its `Arc`.
//! * **Bounded**: entry cap plus approximate byte accounting with FIFO
//!   eviction, so a long-running server cannot grow without bound.
//! * **Transparent**: results are bit-identical to fresh lowering
//!   (property-tested); hit/miss/entry counters feed `bbs-serve`'s
//!   `GET /stats`.

use crate::workload::{lower_model, LayerWorkload};
use bbs_json::{fnv1a_64, Fnv1a64};
use bbs_models::json::hash_spec_text;
use bbs_models::ModelSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default entry bound: comfortably holds every zoo model at several
/// seeds/caps while keeping a misbehaving client from pinning thousands of
/// lowered models.
const DEFAULT_MAX_ENTRIES: usize = 64;
/// Default approximate byte bound across all cached workloads (256 MiB).
const DEFAULT_MAX_BYTES: usize = 256 << 20;

/// `(model fingerprint, seed, max_weights_per_layer)`.
type Key = (u64, u64, usize);

/// A durable tier under the store: content-addressed persistence of
/// lowered workloads (see [`crate::persist`] for the byte format).
/// `bbs-serve` plugs its checksummed disk store in through this, keeping
/// the simulation core dependency-free. Implementations must never panic —
/// a failed load is a miss, a failed save is silence; durability is
/// best-effort under the authoritative in-memory store.
pub trait WorkloadTier: Send + Sync {
    /// Fetches a previously saved lowering, or `None`.
    fn load(&self, key: u64) -> Option<Vec<LayerWorkload>>;
    /// Persists a fresh lowering, best-effort.
    fn save(&self, key: u64, workloads: &[LayerWorkload]);
}

/// Folds a store key into the single stable u64 the durable tier is
/// addressed by.
fn tier_key(fingerprint: u64, seed: u64, max_weights_per_layer: usize) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&fingerprint.to_le_bytes());
    buf[8..16].copy_from_slice(&seed.to_le_bytes());
    buf[16..].copy_from_slice(&(max_weights_per_layer as u64).to_le_bytes());
    fnv1a_64(&buf)
}

enum Slot {
    /// A thread is lowering this key; waiters block on the store condvar.
    Building,
    /// Lowered and shared.
    Ready(Arc<[LayerWorkload]>),
}

struct Inner {
    slots: HashMap<Key, Slot>,
    /// Ready keys in insertion order (FIFO eviction victims).
    order: VecDeque<Key>,
}

/// A bounded, thread-safe cache of lowered models keyed by
/// `(model content, seed, max_weights_per_layer)`.
///
/// See [`crate::engine::simulate_with`] for the simulation entry point
/// that reads through a store.
pub struct WorkloadStore {
    inner: Mutex<Inner>,
    built: Condvar,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    tier: Mutex<Option<Arc<dyn WorkloadTier>>>,
    tier_hits: AtomicU64,
}

impl Default for WorkloadStore {
    fn default() -> Self {
        WorkloadStore::new(DEFAULT_MAX_ENTRIES, DEFAULT_MAX_BYTES)
    }
}

/// Stable content address of a model's full layer table: FNV-1a over the
/// model's canonical spec text ([`hash_spec_text`]), the same text the
/// `bbs-serve` result key hashes. A shared zoo model's text was written
/// once, when the zoo built it; any other spec is written afresh. It
/// addresses every lowering in the store and, through its durable tier,
/// on disk, so its bytes never move.
pub fn model_fingerprint(model: &ModelSpec) -> u64 {
    let mut hash = Fnv1a64::new();
    hash_spec_text(model, &mut hash);
    hash.finish()
}

/// Approximate heap footprint of one lowered layer: weights, activations,
/// scales, name, plus every latency profile memoized on it (`const`
/// overhead for the fixed fields). Memos grow *after* insertion as
/// accelerators run, so the store re-evaluates totals at each insert —
/// between inserts the growth is bounded by the accelerator count times
/// the profile size (a profile is two `u64` totals per channel, however
/// many weights each channel holds).
fn layer_bytes(wl: &LayerWorkload) -> usize {
    wl.weights.data.as_slice().len()
        + wl.weights.scales.len() * std::mem::size_of::<f32>()
        + wl.activations.len()
        + wl.name.len()
        + wl.profiles.approx_bytes()
        + 128
}

/// Approximate footprint of one cached lowering.
fn entry_bytes(workloads: &[LayerWorkload]) -> usize {
    workloads.iter().map(layer_bytes).sum()
}

/// Removes a `Building` slot if the builder unwinds (a degenerate layer
/// table panicking inside synthesis), so waiters retry instead of blocking
/// forever on a slot nobody will complete.
struct BuildGuard<'a> {
    store: &'a WorkloadStore,
    key: Key,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.store.inner.lock().unwrap();
            inner.slots.remove(&self.key);
            self.store.built.notify_all();
        }
    }
}

impl WorkloadStore {
    /// A store bounded to `max_entries` lowered models and approximately
    /// `max_bytes` of workload data.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        assert!(max_entries > 0, "store must hold at least one entry");
        WorkloadStore {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                order: VecDeque::new(),
            }),
            built: Condvar::new(),
            max_entries,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tier: Mutex::new(None),
            tier_hits: AtomicU64::new(0),
        }
    }

    /// Attaches a durable tier consulted on every miss (before lowering)
    /// and fed every fresh lowering.
    pub fn set_tier(&self, tier: Arc<dyn WorkloadTier>) {
        *self.tier.lock().unwrap() = Some(tier);
    }

    fn tier(&self) -> Option<Arc<dyn WorkloadTier>> {
        self.tier.lock().unwrap().clone()
    }

    /// Returns the lowered workloads for `(model, seed, cap)`, lowering at
    /// most once per key across all threads, and the wall time of that
    /// lowering on the one call that did it. A hit, a coalesced wait and a
    /// durable-tier load lower nothing and return `None`. The workloads
    /// are bit-identical to [`lower_model`]`(model, seed, cap)`.
    pub fn get_or_lower(
        &self,
        model: &ModelSpec,
        seed: u64,
        max_weights_per_layer: usize,
    ) -> (Arc<[LayerWorkload]>, Option<Duration>) {
        let key = (model_fingerprint(model), seed, max_weights_per_layer);
        {
            let mut inner = self.inner.lock().unwrap();
            loop {
                match inner.slots.get(&key) {
                    Some(Slot::Ready(w)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (Arc::clone(w), None);
                    }
                    // Coalesce: someone is lowering this key right now.
                    Some(Slot::Building) => inner = self.built.wait(inner).unwrap(),
                    None => {
                        inner.slots.insert(key, Slot::Building);
                        break;
                    }
                }
            }
        }
        let mut guard = BuildGuard {
            store: self,
            key,
            armed: true,
        };

        // Durable tier first: a prior process may have paid for this
        // lowering already. Loaded workloads are bit-identical to fresh
        // lowering (checksummed storage + round-trip-exact codec), so they
        // slot in exactly like a build.
        let tier = self.tier();
        if let Some(tier) = &tier {
            if let Some(loaded) = tier.load(tier_key(key.0, key.1, key.2)) {
                self.tier_hits.fetch_add(1, Ordering::Relaxed);
                let workloads: Arc<[LayerWorkload]> = loaded.into();
                guard.armed = false;
                self.insert_ready(key, &workloads);
                return (workloads, None);
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let lower_started = Instant::now();
        let workloads: Arc<[LayerWorkload]> =
            lower_model(model, seed, max_weights_per_layer).into();
        let lowered = lower_started.elapsed();
        guard.armed = false;

        self.insert_ready(key, &workloads);
        // Persist after publishing: waiters unblock before the disk write.
        if let Some(tier) = &tier {
            tier.save(tier_key(key.0, key.1, key.2), &workloads);
        }
        (workloads, Some(lowered))
    }

    /// Publishes a ready lowering under `key` and wakes coalesced waiters.
    fn insert_ready(&self, key: Key, workloads: &Arc<[LayerWorkload]>) {
        let mut inner = self.inner.lock().unwrap();
        inner.slots.insert(key, Slot::Ready(Arc::clone(workloads)));
        inner.order.push_back(key);
        // FIFO eviction against the *live* footprint (including profiles
        // memoized since earlier inserts); the entry just inserted is
        // never the victim, so one oversized model still simulates
        // (bounded by max(1 entry, budget)). The total is recomputed per
        // iteration — memos on still-shared workloads can grow while this
        // runs, so incremental subtraction could underflow.
        while inner.order.len() > 1
            && (inner.order.len() > self.max_entries || Self::live_bytes(&inner) > self.max_bytes)
        {
            let victim = inner.order.pop_front().expect("non-empty order");
            inner.slots.remove(&victim);
        }
        drop(inner);
        self.built.notify_all();
    }

    /// Current approximate footprint of all ready entries, memoized
    /// profiles included.
    fn live_bytes(inner: &Inner) -> usize {
        inner
            .slots
            .values()
            .map(|s| match s {
                Slot::Ready(w) => entry_bytes(w),
                Slot::Building => 0,
            })
            .sum()
    }

    /// Lookups served from the cache (including coalesced waits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to lower the model. Durable-tier loads are counted
    /// under [`tier_hits`](WorkloadStore::tier_hits) instead — no lowering
    /// happened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups served by the durable tier (disk warm start).
    pub fn tier_hits(&self) -> u64 {
        self.tier_hits.load(Ordering::Relaxed)
    }

    /// Lowered models currently cached.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().order.len()
    }

    /// Approximate bytes held by cached workloads, including the latency
    /// profiles memoized on them since insertion.
    pub fn bytes(&self) -> usize {
        Self::live_bytes(&self.inner.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbs_models::zoo;

    /// A literal fingerprint: it addresses every disk-tier record
    /// (through `tier_key`), so its bytes must not move.
    #[test]
    fn model_fingerprint_is_pinned() {
        assert_eq!(model_fingerprint(&zoo::resnet34()), 0xaa8f_3c4a_a6fa_a67a);
    }

    #[test]
    fn cached_lowering_is_bit_identical_and_shared() {
        let store = WorkloadStore::default();
        let model = zoo::vit_small();
        let fresh = lower_model(&model, 7, 512);
        let (a, lowered) = store.get_or_lower(&model, 7, 512);
        let (b, hit) = store.get_or_lower(&model, 7, 512);
        assert_eq!(&a[..], &fresh[..]);
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the allocation");
        assert!(lowered.is_some(), "the lowering call reports its time");
        assert_eq!(hit, None, "a hit lowers nothing");
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.entries(), 1);
        assert!(store.bytes() > 0);
    }

    #[test]
    fn distinct_keys_lower_separately() {
        let store = WorkloadStore::default();
        let model = zoo::vit_small();
        let _ = store.get_or_lower(&model, 7, 256);
        let _ = store.get_or_lower(&model, 8, 256); // seed differs
        let _ = store.get_or_lower(&model, 7, 512); // cap differs
        let _ = store.get_or_lower(&zoo::resnet34(), 7, 256); // model differs
        assert_eq!(store.misses(), 4);
        assert_eq!(store.hits(), 0);
        assert_eq!(store.entries(), 4);
    }

    #[test]
    fn content_addressing_sees_layer_table_changes() {
        // Same name, different layer table -> different key.
        let full = zoo::bert_sst2();
        let mut truncated = zoo::bert_sst2();
        truncated.layers.truncate(4);
        assert_ne!(model_fingerprint(&full), model_fingerprint(&truncated));
        let store = WorkloadStore::default();
        let (a, _) = store.get_or_lower(&full, 7, 128);
        let (b, _) = store.get_or_lower(&truncated, 7, 128);
        assert_eq!(store.misses(), 2, "no aliasing through the name");
        assert_ne!(a.len(), b.len());
    }

    #[test]
    fn entry_cap_evicts_oldest_first() {
        let store = WorkloadStore::new(2, usize::MAX);
        let m = zoo::vit_small();
        store.get_or_lower(&m, 1, 128);
        store.get_or_lower(&m, 2, 128);
        store.get_or_lower(&m, 3, 128); // evicts seed 1
        assert_eq!(store.entries(), 2);
        store.get_or_lower(&m, 1, 128); // must re-lower
        assert_eq!(store.misses(), 4);
    }

    #[test]
    fn byte_budget_bounds_the_store() {
        // A budget below one model's footprint: every insert evicts the
        // previous entry, but the newest always survives.
        let store = WorkloadStore::new(usize::MAX, 1);
        let m = zoo::vit_small();
        store.get_or_lower(&m, 1, 128);
        store.get_or_lower(&m, 2, 128);
        assert_eq!(store.entries(), 1);
        let before = store.misses();
        store.get_or_lower(&m, 2, 128); // newest entry is still cached
        assert_eq!(store.misses(), before);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn concurrent_same_key_lowers_once() {
        let store = Arc::new(WorkloadStore::default());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    store.get_or_lower(&zoo::resnet34(), 7, 256)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (r, _) in &results[1..] {
            assert!(Arc::ptr_eq(r, &results[0].0), "one lowering, shared by all");
        }
        let lowered = results.iter().filter(|(_, l)| l.is_some()).count();
        assert_eq!(lowered, 1, "only the lowering thread reports a time");
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_store_rejected() {
        let _ = WorkloadStore::new(0, usize::MAX);
    }

    #[test]
    fn durable_tier_warm_starts_a_fresh_store() {
        struct MemTier(Mutex<HashMap<u64, Vec<u8>>>);
        impl WorkloadTier for MemTier {
            fn load(&self, key: u64) -> Option<Vec<LayerWorkload>> {
                let bytes = self.0.lock().unwrap().get(&key)?.clone();
                crate::persist::decode_workloads(&bytes).ok()
            }
            fn save(&self, key: u64, workloads: &[LayerWorkload]) {
                self.0
                    .lock()
                    .unwrap()
                    .insert(key, crate::persist::encode_workloads(workloads));
            }
        }

        let tier = Arc::new(MemTier(Mutex::new(HashMap::new())));
        let model = zoo::vit_small();

        let first = WorkloadStore::default();
        first.set_tier(Arc::clone(&tier) as Arc<dyn WorkloadTier>);
        let (fresh, _) = first.get_or_lower(&model, 7, 128);
        assert_eq!((first.misses(), first.tier_hits()), (1, 0));

        // A second store — a restarted server — loads instead of lowering.
        let second = WorkloadStore::default();
        second.set_tier(tier as Arc<dyn WorkloadTier>);
        let (loaded, lowered) = second.get_or_lower(&model, 7, 128);
        assert_eq!((second.misses(), second.tier_hits()), (0, 1));
        assert_eq!(lowered, None, "a tier load lowers nothing");
        assert_eq!(&loaded[..], &fresh[..], "tier load is bit-identical");
        // And the loaded entry is now memory-cached.
        let (again, _) = second.get_or_lower(&model, 7, 128);
        assert!(Arc::ptr_eq(&again, &loaded));
        assert_eq!(second.hits(), 1);
    }
}
