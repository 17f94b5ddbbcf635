//! Shared decomposition cache for sweep-style workloads.
//!
//! The experiment grids of the paper (networks × array sizes × compression
//! strategies) evaluate the *same* seeded layer weights over and over: every
//! grid cell re-derives the Kaiming tensor, re-matrixizes it, and re-runs the
//! one-sided Jacobi SVD of every group block from scratch. All of those
//! values are pure functions of `(layer geometry, seed)` — plus the group
//! count for the block spectra, and the array configuration for the mapping
//! searches — so a [`DecompCache`] computes each of them once and shares the
//! result across all cells (and across worker threads: every method takes
//! `&self` and the cache is `Sync`).
//!
//! The sweep needs only the singular values of each group block: by
//! Eckart–Young they give the truncation error of every rank. So the cache
//! holds per-block spectra ([`GroupErrorProfile`]s, computed with the
//! values-only SVD), and builds factor matrices only when
//! [`DecompCache::decomposition`] asks for them; no sweep path does.
//!
//! Because every cached value is deterministic in its key, a sweep produces
//! bit-identical results under any budget, and regardless of which worker
//! thread computed an entry.
//!
//! # Single-flight misses
//!
//! Each key is computed at most once at a time. The first lookup that misses
//! a key becomes its *leader* and computes the value outside the lock; a
//! lookup of the same key while the leader is still computing waits for the
//! leader's value instead of computing it again (counted as
//! [`KindStats::coalesced`]). A leader whose computation fails — by error or
//! by panic — withdraws the key and wakes its waiters, and the next of them
//! takes over as leader. Parallel workers racing through the same layers
//! therefore pay for each block SVD once.
//!
//! The computation of a value never calls back into the cache: every
//! derived value fetches its prerequisites *before* it leads, so a leader
//! never waits on another key while others wait on it, and waiting cannot
//! deadlock.
//!
//! # Bounded residency
//!
//! A cache that outlives a single run (the `EvalSession` use case in
//! `imc-sim`) cannot grow without bound under service-style traffic, so the
//! cache optionally enforces a **resident-byte budget** with a
//! least-recently-used eviction policy: every entry carries an estimate of
//! its heap footprint, every access stamps a logical clock tick, and an
//! insertion that pushes the total estimate past the budget evicts the
//! globally least-recently-used entries (across all kinds) until the cache
//! fits again. Eviction only ever converts future hits into recomputed
//! misses — results stay bit-identical under any budget, including budgets
//! too small to hold a single entry.
//!
//! [`DecompCache::cache_stats`] exposes per-kind hit/miss/coalesced/eviction
//! counters and the resident-byte estimate for observability.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use imc_array::{search_best_window, ArrayConfig, WindowSearchResult};
use imc_linalg::{Matrix, Precision};
use imc_tensor::{ConvShape, Tensor4};

use crate::cycles::{lowrank_im2col_cycles, search_lowrank_window, CompressedCycles};
use crate::group::GroupLowRank;
use crate::profile::GroupErrorProfile;
use crate::Result;

/// Identifies one seeded layer weight: the geometry and the per-layer seed
/// fully determine the Kaiming-initialized tensor, so two layers that happen
/// to share both (even across networks) legitimately share the cache entry.
type WeightKey = (ConvShape, u64);

/// `(weight, groups)` — identifies one set of per-block SVD spectra.
type SvdKey = (WeightKey, usize);

/// `(shape, rank, groups, array, use_sdk)` — identifies one two-stage cycle
/// accounting.
type CyclesKey = (ConvShape, usize, usize, ArrayConfig, bool);

/// A grouped decomposition together with the relative reconstruction error it
/// induces, measured against the dense weights.
#[derive(Debug, Clone)]
pub struct CachedDecomposition {
    /// The grouped factorization (actual matrices).
    pub decomposition: GroupLowRank,
    /// Relative Frobenius reconstruction error against the dense weights.
    pub relative_error: f64,
}

/// Hit/miss/coalesced/eviction counters of one cached kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute their value.
    pub misses: u64,
    /// Hits that waited for another thread's in-flight miss of the same key
    /// instead of computing the value again (a subset of `hits`).
    pub coalesced: u64,
    /// Entries evicted by the resident-byte budget.
    pub evictions: u64,
}

impl KindStats {
    /// Total lookups of this kind (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache, in `[0, 1]`; `0.0`
    /// before any lookup (so freshly created caches report a defined rate).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    fn merged(self, other: KindStats) -> KindStats {
        KindStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            coalesced: self.coalesced + other.coalesced,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// A point-in-time snapshot of the cache's observability counters: per-kind
/// hits, misses, coalesced hits and evictions, plus the estimated resident
/// heap bytes.
///
/// Counters of different kinds are read without a global lock, so a snapshot
/// taken while other threads query the cache is approximate across kinds
/// (each individual counter is exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Seeded Kaiming weight tensors.
    pub weights: KindStats,
    /// im2col matrixizations of the weight tensors.
    pub matrices: KindStats,
    /// Per-block SVD spectra.
    pub block_svds: KindStats,
    /// `(g, k)` factor sets with their reconstruction errors, built only on
    /// request (no sweep path asks).
    pub decompositions: KindStats,
    /// VW-SDK window searches.
    pub window_searches: KindStats,
    /// Two-stage low-rank cycle accountings.
    pub lowrank_cycles: KindStats,
    /// Estimated heap bytes currently resident across all kinds.
    pub resident_bytes: usize,
}

impl CacheStats {
    /// The per-kind counters with their kind names, in a fixed order (useful
    /// for rendering reports).
    pub fn per_kind(&self) -> [(&'static str, KindStats); 6] {
        [
            ("weights", self.weights),
            ("matrices", self.matrices),
            ("block_svds", self.block_svds),
            ("decompositions", self.decompositions),
            ("window_searches", self.window_searches),
            ("lowrank_cycles", self.lowrank_cycles),
        ]
    }

    /// Counters summed over every kind.
    pub fn total(&self) -> KindStats {
        self.per_kind()
            .iter()
            .fold(KindStats::default(), |acc, (_, k)| acc.merged(*k))
    }

    /// Total hits across every kind.
    pub fn hits(&self) -> u64 {
        self.total().hits
    }

    /// Total misses across every kind.
    pub fn misses(&self) -> u64 {
        self.total().misses
    }

    /// Total evictions across every kind.
    pub fn evictions(&self) -> u64 {
        self.total().evictions
    }

    /// Fraction of lookups answered from the cache across every kind, in
    /// `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        self.total().hit_rate()
    }
}

/// One cached value plus the bookkeeping the LRU budget needs: its estimated
/// heap footprint and the logical tick of its most recent access.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// The lock-protected state of one shard: the stored entries and the keys
/// whose leader is computing them right now.
#[derive(Debug)]
struct ShardMap<K, V> {
    entries: HashMap<K, Entry<V>>,
    in_flight: HashSet<K>,
}

/// One kind-homogeneous shard: a concurrent single-flight get-or-compute
/// map with its own counters.
#[derive(Debug)]
struct Shard<K, V> {
    map: Mutex<ShardMap<K, V>>,
    /// Signalled whenever a leader withdraws an in-flight key.
    landed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: Mutex::new(ShardMap {
                entries: HashMap::new(),
                in_flight: HashSet::new(),
            }),
            landed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn stats(&self) -> KindStats {
        KindStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The smallest (oldest) `last_used` tick in the shard, if any.
    fn oldest_tick(&self) -> Option<u64> {
        self.map
            .lock()
            .expect("cache lock poisoned")
            .entries
            .values()
            .map(|e| e.last_used)
            .min()
    }

    /// Removes the least-recently-used entry, returning its byte estimate.
    fn evict_lru(&self) -> Option<usize> {
        let entries = &mut self.map.lock().expect("cache lock poisoned").entries;
        let key = entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())?;
        let entry = entries.remove(&key)?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Some(entry.bytes)
    }
}

/// A key this thread leads. Dropping it withdraws the key from the
/// in-flight set and wakes the key's waiters: after a landed value they
/// find the entry, after a failed computation (an error or a panic
/// unwinding through the leader) the next of them leads.
struct Flight<'a, K: Eq + Hash, V> {
    shard: &'a Shard<K, V>,
    key: K,
}

impl<K: Eq + Hash, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        // Never panic here: this runs while a panicking leader unwinds.
        self.shard
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
            .remove(&self.key);
        self.shard.landed.notify_all();
    }
}

/// A shared cache of seeded weights, their per-block SVD spectra and the
/// (array-dependent) mapping searches, plus factor sets on request.
///
/// All methods are get-or-compute: a hit clones an [`Arc`] (or a `Copy`
/// value), a miss computes outside the lock and inserts. Misses are
/// single-flight: a lookup of a key that another thread is computing waits
/// for that value instead of computing it again, and a computation that
/// fails hands the key to the next waiter.
///
/// An unbounded cache ([`DecompCache::new`] /
/// [`DecompCache::with_precision`]) keeps every entry for its lifetime — the
/// right choice for one-shot sweeps. A bounded cache
/// ([`DecompCache::with_budget`]) additionally enforces a resident-byte
/// budget with LRU eviction, which is what a long-lived `EvalSession` uses.
#[derive(Debug, Default)]
pub struct DecompCache {
    /// Width the per-block SVD kernels run at. Everything stored in the cache
    /// is `f64` either way: under [`Precision::F32`] the block SVDs are
    /// computed on rounded single-precision blocks and widened back before
    /// insertion, so reporting stays double precision. One precision per
    /// cache, so no cache key needs to carry it.
    precision: Precision,
    /// Resident-byte budget; `None` disables eviction entirely.
    budget_bytes: Option<usize>,
    /// Logical access clock driving the LRU ordering.
    clock: AtomicU64,
    /// Estimated heap bytes currently resident across all shards.
    resident_bytes: AtomicUsize,
    weights: Shard<WeightKey, Arc<Tensor4>>,
    matrices: Shard<WeightKey, Arc<Matrix>>,
    block_svds: Shard<SvdKey, Arc<GroupErrorProfile>>,
    decompositions: Shard<(WeightKey, usize, usize), Arc<CachedDecomposition>>,
    window_searches: Shard<(ConvShape, ArrayConfig), WindowSearchResult>,
    lowrank_cycles: Shard<CyclesKey, CompressedCycles>,
}

/// Estimated heap bytes of a cached weight tensor.
fn tensor_bytes(t: &Arc<Tensor4>) -> usize {
    t.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Tensor4>()
}

/// Estimated heap bytes of a cached im2col matrix.
fn matrix_bytes(m: &Arc<Matrix>) -> usize {
    m.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Matrix>()
}

/// Estimated heap bytes of a set of per-block spectra.
fn svds_bytes(profile: &Arc<GroupErrorProfile>) -> usize {
    profile
        .block_spectra()
        .iter()
        .map(|spectrum| {
            spectrum.len() * std::mem::size_of::<f64>() + std::mem::size_of::<Vec<f64>>()
        })
        .sum::<usize>()
        + std::mem::size_of::<GroupErrorProfile>()
}

/// Estimated heap bytes of a cached decomposition (its factor matrices).
fn decomposition_bytes(d: &Arc<CachedDecomposition>) -> usize {
    d.decomposition.parameter_count() * std::mem::size_of::<f64>()
        + std::mem::size_of::<CachedDecomposition>()
}

impl DecompCache {
    /// An empty, unbounded cache running its decomposition kernels in `f64`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty, unbounded cache running its per-block SVD kernels at
    /// `precision`.
    pub fn with_precision(precision: Precision) -> Self {
        Self {
            precision,
            ..Self::default()
        }
    }

    /// An empty cache running at `precision` whose estimated resident bytes
    /// are bounded by `budget_bytes`: an insertion that exceeds the budget
    /// evicts the least-recently-used entries (across every kind) until the
    /// estimate fits again.
    ///
    /// Results are bit-identical under any budget — eviction only turns
    /// would-be hits into recomputed misses.
    pub fn with_budget(precision: Precision, budget_bytes: usize) -> Self {
        Self {
            precision,
            budget_bytes: Some(budget_bytes),
            ..Self::default()
        }
    }

    /// The width the decomposition kernels of this cache run at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The resident-byte budget, if this cache is bounded.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// The next logical tick of the access clock.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Probes one shard without computing, counting a hit (and refreshing the
    /// entry's LRU stamp) when present. The derived-value methods probe their
    /// own shard first so a warm lookup takes exactly one lock instead of
    /// walking the whole prerequisite chain.
    fn probe<K, V>(&self, shard: &Shard<K, V>, key: &K) -> Option<V>
    where
        K: Eq + Hash + Clone,
        V: Clone,
    {
        let mut map = shard.map.lock().expect("cache lock poisoned");
        let entry = map.entries.get_mut(key)?;
        entry.last_used = self.tick();
        shard.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    /// The single-flight get-or-compute behind every lookup: a stored value
    /// is a hit; otherwise, if another thread is computing the key, waits
    /// for it (a coalesced hit) or, once that leader fails, retries; else
    /// becomes the key's leader and runs `compute` outside the lock (a
    /// miss).
    ///
    /// `compute` must never call back into the cache. A leader that waited
    /// on another key could close a cycle of threads waiting on each other;
    /// callers fetch every prerequisite first and move it into `compute`.
    fn get_or_try<K, V, F>(&self, shard: &Shard<K, V>, key: K, compute: F) -> Result<V>
    where
        K: Eq + Hash + Clone,
        V: Clone + Residency,
        F: FnOnce() -> Result<V>,
    {
        let mut map = shard.map.lock().expect("cache lock poisoned");
        let mut waited = false;
        loop {
            if let Some(entry) = map.entries.get_mut(&key) {
                entry.last_used = self.tick();
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if waited {
                    shard.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(entry.value.clone());
            }
            if !map.in_flight.contains(&key) {
                break;
            }
            waited = true;
            map = shard.landed.wait(map).expect("cache lock poisoned");
        }
        map.in_flight.insert(key.clone());
        drop(map);
        shard.misses.fetch_add(1, Ordering::Relaxed);

        let flight = Flight { shard, key };
        let value = compute()?;
        let bytes = value.resident_bytes();
        let entry = Entry {
            value: value.clone(),
            bytes,
            last_used: self.tick(),
        };
        shard
            .map
            .lock()
            .expect("cache lock poisoned")
            .entries
            .insert(flight.key.clone(), entry);
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        drop(flight);
        self.enforce_budget();
        Ok(value)
    }

    /// Evicts globally least-recently-used entries until the resident-byte
    /// estimate fits the budget (no-op for unbounded caches). Entries are
    /// handed out as [`Arc`]s (or `Copy` values), so eviction never
    /// invalidates data a caller already holds.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            // The shard holding the globally oldest entry is the victim. The
            // scan takes each shard lock briefly; a concurrent access racing
            // this choice can only make the evicted entry *newer* than the
            // true LRU — harmless for a heuristic budget.
            let oldest = [
                (0usize, self.weights.oldest_tick()),
                (1, self.matrices.oldest_tick()),
                (2, self.block_svds.oldest_tick()),
                (3, self.decompositions.oldest_tick()),
                (4, self.window_searches.oldest_tick()),
                (5, self.lowrank_cycles.oldest_tick()),
            ]
            .into_iter()
            .filter_map(|(kind, tick)| tick.map(|t| (kind, t)))
            .min_by_key(|&(_, tick)| tick);
            let Some((kind, _)) = oldest else {
                break; // Nothing left to evict.
            };
            let freed = match kind {
                0 => self.weights.evict_lru(),
                1 => self.matrices.evict_lru(),
                2 => self.block_svds.evict_lru(),
                3 => self.decompositions.evict_lru(),
                4 => self.window_searches.evict_lru(),
                _ => self.lowrank_cycles.evict_lru(),
            };
            match freed {
                Some(bytes) => {
                    self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
                }
                // Another evictor emptied the chosen shard between the scan
                // and the removal; other shards may still hold entries, so
                // re-scan (the loop exits via the budget check or the
                // nothing-left-to-evict break above).
                None => continue,
            }
        }
    }

    /// The deterministic Kaiming weight tensor of `(shape, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors.
    pub fn weight(&self, shape: &ConvShape, seed: u64) -> Result<Arc<Tensor4>> {
        self.get_or_try(&self.weights, (*shape, seed), || {
            Ok(Arc::new(Tensor4::kaiming_for(shape, seed)?))
        })
    }

    /// The im2col matrixization of the seeded weight tensor.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors.
    pub fn im2col_matrix(&self, shape: &ConvShape, seed: u64) -> Result<Arc<Matrix>> {
        let key = (*shape, seed);
        if let Some(matrix) = self.probe(&self.matrices, &key) {
            return Ok(matrix);
        }
        let weight = self.weight(shape, seed)?;
        self.get_or_try(&self.matrices, key, || {
            Ok(Arc::new(weight.to_im2col_matrix()))
        })
    }

    /// The singular values of every block of the weight matrix partitioned
    /// into `groups` column blocks, as a [`GroupErrorProfile`] — the
    /// expensive kernel every rank of the sweep shares, and all it needs:
    /// the profile gives the truncation error of any rank. The blocks run
    /// the values-only SVD, so no factor matrix is built or held.
    ///
    /// # Errors
    ///
    /// Propagates partitioning and SVD convergence errors.
    pub fn block_svds(
        &self,
        shape: &ConvShape,
        seed: u64,
        groups: usize,
    ) -> Result<Arc<GroupErrorProfile>> {
        let key = ((*shape, seed), groups);
        if let Some(profile) = self.probe(&self.block_svds, &key) {
            return Ok(profile);
        }
        let matrix = self.im2col_matrix(shape, seed)?;
        self.get_or_try(&self.block_svds, key, || {
            Ok(Arc::new(GroupErrorProfile::compute_with_precision(
                &matrix,
                groups,
                self.precision,
            )?))
        })
    }

    /// The grouped rank-`k` factor matrices of the seeded weights, with the
    /// relative error of their reconstruction — built on request only; the
    /// sweeps read the error from [`DecompCache::block_svds`] instead.
    ///
    /// The cached spectra come first, as the shared prerequisite and a
    /// cheap rank check; the factors are then computed from the cached
    /// matrix with full block SVDs at this cache's precision.
    ///
    /// # Errors
    ///
    /// Returns the same configuration errors as [`GroupLowRank::compute`].
    pub fn decomposition(
        &self,
        shape: &ConvShape,
        seed: u64,
        groups: usize,
        k: usize,
    ) -> Result<Arc<CachedDecomposition>> {
        let key = ((*shape, seed), groups, k);
        if let Some(cached) = self.probe(&self.decompositions, &key) {
            return Ok(cached);
        }
        let profile = self.block_svds(shape, seed, groups)?;
        let matrix = self.im2col_matrix(shape, seed)?;
        self.get_or_try(&self.decompositions, key, || {
            profile.check_rank(k)?;
            let decomposition =
                GroupLowRank::compute_with_precision(&matrix, groups, k, self.precision)?;
            let relative_error = decomposition.relative_error(&matrix)?;
            Ok(Arc::new(CachedDecomposition {
                decomposition,
                relative_error,
            }))
        })
    }

    /// The VW-SDK window search for `(shape, array)` — shared by the SDK
    /// baseline, the quantized baseline and the low-rank baseline columns.
    ///
    /// # Errors
    ///
    /// Propagates window-construction errors.
    pub fn best_window(&self, shape: &ConvShape, array: ArrayConfig) -> Result<WindowSearchResult> {
        self.get_or_try(&self.window_searches, (*shape, array), || {
            Ok(search_best_window(shape, array)?)
        })
    }

    /// The two-stage cycle accounting of a `(shape, k, g)` compressed layer on
    /// `array`, with (`use_sdk`) or without the SDK window search.
    ///
    /// # Errors
    ///
    /// Propagates configuration and mapping errors.
    pub fn lowrank_cycles(
        &self,
        shape: &ConvShape,
        k: usize,
        groups: usize,
        array: ArrayConfig,
        use_sdk: bool,
    ) -> Result<CompressedCycles> {
        self.get_or_try(
            &self.lowrank_cycles,
            (*shape, k, groups, array, use_sdk),
            || {
                if use_sdk {
                    search_lowrank_window(shape, k, groups, &array)
                } else {
                    lowrank_im2col_cycles(shape, k, groups, &array)
                }
            },
        )
    }

    /// A snapshot of the per-kind hit/miss/coalesced/eviction counters and
    /// the resident-byte estimate.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            weights: self.weights.stats(),
            matrices: self.matrices.stats(),
            block_svds: self.block_svds.stats(),
            decompositions: self.decompositions.stats(),
            window_searches: self.window_searches.stats(),
            lowrank_cycles: self.lowrank_cycles.stats(),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Estimated heap footprint of a cached value, used by the LRU budget.
trait Residency {
    fn resident_bytes(&self) -> usize;
}

impl Residency for Arc<Tensor4> {
    fn resident_bytes(&self) -> usize {
        tensor_bytes(self)
    }
}

impl Residency for Arc<Matrix> {
    fn resident_bytes(&self) -> usize {
        matrix_bytes(self)
    }
}

impl Residency for Arc<GroupErrorProfile> {
    fn resident_bytes(&self) -> usize {
        svds_bytes(self)
    }
}

impl Residency for Arc<CachedDecomposition> {
    fn resident_bytes(&self) -> usize {
        decomposition_bytes(self)
    }
}

impl Residency for WindowSearchResult {
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<WindowSearchResult>()
    }
}

impl Residency for CompressedCycles {
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<CompressedCycles>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::square(16, 16, 3, 1, 1, 16).unwrap()
    }

    #[test]
    fn cached_values_match_direct_computation_bit_for_bit() {
        let cache = DecompCache::new();
        let shape = shape();
        let seed = 7;
        let direct_weight = Tensor4::kaiming_for(&shape, seed).unwrap();
        assert_eq!(*cache.weight(&shape, seed).unwrap(), direct_weight);

        let w = direct_weight.to_im2col_matrix();
        assert_eq!(*cache.im2col_matrix(&shape, seed).unwrap(), w);

        let direct = GroupLowRank::compute(&w, 4, 4).unwrap();
        let cached = cache.decomposition(&shape, seed, 4, 4).unwrap();
        assert_eq!(
            cached.decomposition.reconstruct(),
            direct.reconstruct(),
            "decomposition from shared SVDs must be bit-identical"
        );
        assert_eq!(
            cached.relative_error,
            direct.relative_error(&w).unwrap(),
            "relative error must be bit-identical"
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let cache = DecompCache::new();
        let shape = shape();
        for _ in 0..3 {
            cache.decomposition(&shape, 1, 2, 4).unwrap();
        }
        let stats = cache.cache_stats();
        assert!(stats.hits() > 0, "second and third queries must hit");
        assert!(stats.misses() > 0);
        // Only the first pass misses: weight, matrix, svds, decomposition.
        assert_eq!(stats.misses(), 4);
        assert_eq!(stats.weights.misses, 1);
        assert_eq!(stats.matrices.misses, 1);
        assert_eq!(stats.block_svds.misses, 1);
        assert_eq!(stats.decompositions.misses, 1);
        // Warm lookups only touch the decomposition shard.
        assert_eq!(stats.decompositions.hits, 2);
        assert_eq!(stats.evictions(), 0);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn invalid_configurations_propagate_errors() {
        let cache = DecompCache::new();
        let shape = shape();
        // 144 input columns, 4 groups -> 36-wide blocks; rank 20 exceeds
        // min(16, 36) = 16.
        assert!(cache.decomposition(&shape, 0, 4, 20).is_err());
        assert!(cache
            .lowrank_cycles(&shape, 0, 4, ArrayConfig::square(32).unwrap(), true)
            .is_err());
    }

    #[test]
    fn a_panicking_leader_hands_the_key_to_the_next_caller() {
        let cache = DecompCache::new();
        let shape = shape();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_try(&cache.weights, (shape, 3), || -> Result<Arc<Tensor4>> {
                panic!("leader exploded")
            })
        }));
        assert!(panicked.is_err(), "the leader's panic must propagate");

        // The key is no longer in flight: the next caller leads and computes.
        let weight = cache.weight(&shape, 3).unwrap();
        assert_eq!(*weight, Tensor4::kaiming_for(&shape, 3).unwrap());
        let stats = cache.cache_stats().weights;
        assert_eq!((stats.misses, stats.hits, stats.coalesced), (2, 0, 0));
        assert!(cache.weights.map.lock().unwrap().in_flight.is_empty());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = DecompCache::new();
        let shape = shape();
        for seed in 0..8 {
            cache.decomposition(&shape, seed, 2, 4).unwrap();
        }
        let stats = cache.cache_stats();
        assert_eq!(stats.evictions(), 0);
        assert_eq!(cache.budget_bytes(), None);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_bit_identical() {
        let shape = shape();
        let reference = DecompCache::new();
        // A budget far smaller than one weight tensor: every insertion
        // overflows, so the cache continuously evicts and nearly every lookup
        // misses — but each recomputed value is a pure function of its key.
        let tiny = DecompCache::with_budget(Precision::F64, 1024);
        for pass in 0..2 {
            for seed in 0..4 {
                let a = reference.decomposition(&shape, seed, 2, 4).unwrap();
                let b = tiny.decomposition(&shape, seed, 2, 4).unwrap();
                assert_eq!(
                    a.relative_error, b.relative_error,
                    "pass {pass} seed {seed}"
                );
                assert_eq!(a.decomposition.reconstruct(), b.decomposition.reconstruct());
            }
        }
        let bounded = tiny.cache_stats();
        let unbounded = reference.cache_stats();
        assert!(bounded.evictions() > 0, "tiny budget must evict");
        assert!(
            bounded.misses() > unbounded.misses(),
            "eviction must convert hits into misses ({} vs {})",
            bounded.misses(),
            unbounded.misses()
        );
        assert!(
            bounded.resident_bytes <= 1024 || bounded.resident_bytes < unbounded.resident_bytes,
            "budget must bound residency: {} bytes resident",
            bounded.resident_bytes
        );
    }

    #[test]
    fn generous_budget_behaves_like_unbounded() {
        let shape = shape();
        let unbounded = DecompCache::new();
        let bounded = DecompCache::with_budget(Precision::F64, 1 << 30);
        for _ in 0..3 {
            unbounded.decomposition(&shape, 1, 2, 4).unwrap();
            bounded.decomposition(&shape, 1, 2, 4).unwrap();
        }
        let a = unbounded.cache_stats();
        let b = bounded.cache_stats();
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(b.evictions(), 0);
        assert_eq!(a.resident_bytes, b.resident_bytes);
    }

    #[test]
    fn lru_prefers_evicting_stale_entries() {
        let shape = shape();
        // Budget sized to hold roughly one layer's worth of entries: after
        // touching seed 0 repeatedly, inserting seed 1 should evict seed 1's
        // own prerequisites or seed 0's oldest entries — never the most
        // recently used decomposition.
        let weight_bytes = {
            let probe = DecompCache::new();
            probe.weight(&shape, 0).unwrap();
            probe.cache_stats().resident_bytes
        };
        let cache = DecompCache::with_budget(Precision::F64, weight_bytes * 8);
        cache.decomposition(&shape, 0, 2, 4).unwrap();
        let warm = cache.cache_stats();
        // Keep seed 0's decomposition hot.
        for _ in 0..4 {
            cache.decomposition(&shape, 0, 2, 4).unwrap();
        }
        assert_eq!(cache.cache_stats().misses(), warm.misses());

        // Churn through other seeds to force evictions…
        for seed in 1..6 {
            cache.decomposition(&shape, seed, 2, 4).unwrap();
        }
        assert!(cache.cache_stats().evictions() > 0);
        // …then the hot entry may or may not have survived (budget-dependent),
        // but a re-query must still be correct.
        let again = cache.decomposition(&shape, 0, 2, 4).unwrap();
        let direct = DecompCache::new().decomposition(&shape, 0, 2, 4).unwrap();
        assert_eq!(again.relative_error, direct.relative_error);
    }
}
