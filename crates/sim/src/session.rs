//! The long-lived evaluation session behind service-style workloads.
//!
//! A single [`Experiment::run`](crate::experiment::Experiment::run) owns a
//! throwaway decomposition cache: perfect for one sweep, wasteful for a
//! service that answers many sweeps over the same model zoo. An
//! [`EvalSession`] is the handle that outlives individual runs — it owns one
//! shared [`DecompCache`] (optionally bounded by a resident-byte budget with
//! LRU eviction) and hands it to every
//! [`Experiment::run_in`](crate::experiment::Experiment::run_in) call, so
//! repeated sweeps sharing networks, seeds and precision reuse each other's
//! seeded weights, per-block singular values and window searches. (The
//! sweeps score every low-rank cell from the block spectra, so no factor
//! matrix is built or held on their path.)
//!
//! The cache is pure memoization: a warm-session run is **bit-identical** to
//! a cold run of the same sweep — the only observable differences are
//! wall-clock time and the [`CacheStats`] counters.
//!
//! ```
//! use imc_sim::experiment::Experiment;
//! use imc_sim::network::CompressionMethod;
//! use imc_sim::session::EvalSession;
//! use imc_nn::resnet20;
//!
//! let session = EvalSession::builder()
//!     .cache_budget_bytes(256 << 20) // bound residency to 256 MiB
//!     .build();
//! let sweep = || {
//!     Experiment::new()
//!         .network(resnet20())
//!         .array(64)
//!         .method(CompressionMethod::Uncompressed { sdk: true })
//! };
//! let cold = sweep().run_in(&session).unwrap();
//! let warm = sweep().run_in(&session).unwrap(); // reuses cached windows
//! assert_eq!(cold.records()[0].eval.cycles, warm.records()[0].eval.cycles);
//! assert!(session.stats().hits() > 0);
//! ```
//!
//! # Sizing the cache budget
//!
//! Entries are dominated by the per-layer weight tensors and im2col
//! matrices — roughly `2 × weight_count × 8` bytes per layer swept; the
//! per-(layer, group) spectra add at most `min(m, n)` values per block. A
//! budget of a few tens of MiB holds the full working set of the paper's
//! ResNet-20 grids (the fig6 panel holds ~4.4 MB); an undersized budget
//! degrades gracefully (more misses, identical results). Unbounded sessions
//! never evict.

use imc_core::{CacheStats, DecompCache, Precision};

/// A long-lived evaluation-service handle: one shared, optionally bounded
/// decomposition cache reused across [`Experiment`] runs.
///
/// Sessions are cheap to create and `Sync` — one session can serve
/// concurrent runs from several threads (the cache takes `&self`
/// everywhere). Every run executed through
/// [`Experiment::run_in`](crate::experiment::Experiment::run_in) must match
/// the session's [`Precision`]; mismatches are rejected with
/// [`Error::Builder`](crate::Error::Builder) rather than silently mixing
/// kernel widths.
///
/// [`Experiment`]: crate::experiment::Experiment
#[derive(Debug, Default)]
pub struct EvalSession {
    cache: DecompCache,
}

impl EvalSession {
    /// A session with the default configuration: `f64` kernels, unbounded
    /// cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts configuring a session.
    pub fn builder() -> EvalSessionBuilder {
        EvalSessionBuilder::default()
    }

    /// The width the session's decomposition kernels run at; every experiment
    /// run in this session must request the same width.
    pub fn precision(&self) -> Precision {
        self.cache.precision()
    }

    /// The resident-byte budget of the session cache, if bounded.
    pub fn cache_budget_bytes(&self) -> Option<usize> {
        self.cache.budget_bytes()
    }

    /// The shared decomposition cache, for callers that read or warm its
    /// entries directly (e.g. [`DecompCache::block_svds`] or
    /// [`DecompCache::decomposition`]); [`Experiment::run_in`] and the
    /// `*_in` figure generators evaluate through it.
    ///
    /// [`Experiment::run_in`]: crate::experiment::Experiment::run_in
    pub fn cache(&self) -> &DecompCache {
        &self.cache
    }

    /// A snapshot of the session cache's per-kind hit/miss/coalesced/eviction
    /// counters and resident-byte estimate.
    pub fn stats(&self) -> CacheStats {
        self.cache.cache_stats()
    }
}

/// Configures an [`EvalSession`]: kernel precision and cache budget.
#[derive(Debug, Clone, Default)]
pub struct EvalSessionBuilder {
    precision: Precision,
    cache_budget_bytes: Option<usize>,
}

impl EvalSessionBuilder {
    /// Sets the width the session's decomposition kernels run at (default:
    /// [`Precision::F64`], the bit-exact reference).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Bounds the session cache to an estimated `budget` resident bytes,
    /// enforced by least-recently-used eviction across every cached kind
    /// (default: unbounded). Results are bit-identical under any budget;
    /// undersizing only costs recomputation.
    #[must_use]
    pub fn cache_budget_bytes(mut self, budget: usize) -> Self {
        self.cache_budget_bytes = Some(budget);
        self
    }

    /// Builds the session.
    pub fn build(self) -> EvalSession {
        let cache = match self.cache_budget_bytes {
            Some(budget) => DecompCache::with_budget(self.precision, budget),
            None => DecompCache::with_precision(self.precision),
        };
        EvalSession { cache }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_configures_precision_and_budget() {
        let default = EvalSession::new();
        assert_eq!(default.precision(), Precision::F64);
        assert_eq!(default.cache_budget_bytes(), None);

        let tuned = EvalSession::builder()
            .precision(Precision::F32)
            .cache_budget_bytes(4096)
            .build();
        assert_eq!(tuned.precision(), Precision::F32);
        assert_eq!(tuned.cache_budget_bytes(), Some(4096));
        assert_eq!(tuned.cache().precision(), Precision::F32);
        assert_eq!(tuned.stats().hits(), 0);
    }
}
