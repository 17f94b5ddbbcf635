//! Direct unit tests of the shared decomposition cache: object identity of
//! hits across threads, rank monotonicity of the shared-SVD derivation, and
//! the precision knob's isolation from the cached `f64` reporting types.
//!
//! The sweep-level tests exercise `DecompCache` only indirectly (through
//! `Experiment` runs); these pin its own contract.

use std::sync::{Arc, Barrier};

use imc_core::{DecompCache, GroupLowRank, Precision};
use imc_linalg::Svd;
use imc_tensor::ConvShape;

fn shape() -> ConvShape {
    ConvShape::square(16, 16, 3, 1, 1, 16).unwrap()
}

/// A cache hit must return the *same object* (one shared allocation), not an
/// equal copy — that sharing is the entire point of the per-run cache.
#[test]
fn hits_return_the_same_arc_for_weights_matrices_and_decompositions() {
    let cache = DecompCache::new();
    let shape = shape();
    let w1 = cache.weight(&shape, 7).unwrap();
    let w2 = cache.weight(&shape, 7).unwrap();
    assert!(
        Arc::ptr_eq(&w1, &w2),
        "weight hit must share the allocation"
    );

    let m1 = cache.im2col_matrix(&shape, 7).unwrap();
    let m2 = cache.im2col_matrix(&shape, 7).unwrap();
    assert!(
        Arc::ptr_eq(&m1, &m2),
        "matrix hit must share the allocation"
    );

    let s1 = cache.block_svds(&shape, 7, 4).unwrap();
    let s2 = cache.block_svds(&shape, 7, 4).unwrap();
    assert!(
        Arc::ptr_eq(&s1, &s2),
        "spectra hit must share the allocation"
    );

    let d1 = cache.decomposition(&shape, 7, 4, 4).unwrap();
    let d2 = cache.decomposition(&shape, 7, 4, 4).unwrap();
    assert!(
        Arc::ptr_eq(&d1, &d2),
        "per-(g,k) decomposition hit must share the allocation"
    );

    // Distinct keys must not alias.
    let other_seed = cache.weight(&shape, 8).unwrap();
    assert!(!Arc::ptr_eq(&w1, &other_seed));
    let other_rank = cache.decomposition(&shape, 7, 4, 2).unwrap();
    assert!(!Arc::ptr_eq(&d1, &other_rank));
}

/// Many threads racing on the same key must all end up holding the single
/// stored object, computed exactly once: misses are single-flight, so the
/// racers that lose wait for the leader's value.
#[test]
fn concurrent_lookups_converge_on_one_shared_object_per_key() {
    let cache = DecompCache::new();
    let shape = shape();
    let threads = 8;
    let barrier = Barrier::new(threads);

    let collected: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Line every thread up on the cold cache so the first
                    // lookups genuinely race.
                    barrier.wait();
                    (
                        cache.weight(&shape, 11).unwrap(),
                        cache.block_svds(&shape, 11, 4).unwrap(),
                        cache.decomposition(&shape, 11, 4, 4).unwrap(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let (w0, s0, d0) = &collected[0];
    for (w, s, d) in &collected[1..] {
        assert!(Arc::ptr_eq(w0, w), "weights must be one shared object");
        assert!(Arc::ptr_eq(s0, s), "spectra must be one shared object");
        assert!(
            Arc::ptr_eq(d0, d),
            "decompositions must be one shared object"
        );
    }

    let stats = cache.cache_stats();
    for (kind, counters) in stats.per_kind() {
        let touched = ["weights", "matrices", "block_svds", "decompositions"].contains(&kind);
        assert_eq!(
            counters.misses,
            u64::from(touched),
            "{kind}: {counters:?} (one computation per key, however many threads race)"
        );
        assert!(counters.coalesced <= counters.hits, "{kind}: {counters:?}");
    }
}

/// Threads racing on a key whose computation fails must each get the error:
/// a failing leader wakes its waiters, who retry rather than hang.
#[test]
fn racing_lookups_of_an_invalid_key_all_fail_and_none_hangs() {
    let cache = Arc::new(DecompCache::new());
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let (done, results) = std::sync::mpsc::channel();
    // Unscoped threads, so a hung lookup fails the timeout below instead of
    // blocking a scope join forever.
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let (cache, barrier, done) = (Arc::clone(&cache), Arc::clone(&barrier), done.clone());
            std::thread::spawn(move || {
                barrier.wait();
                // 144 input columns in 4 groups are 36-wide blocks: rank 20
                // exceeds min(16, 36) = 16.
                let failed = cache.decomposition(&shape(), 0, 4, 20).is_err();
                done.send(failed).unwrap();
            })
        })
        .collect();
    for thread in 0..threads {
        let failed = results
            .recv_timeout(std::time::Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("lookup {thread} of {threads} hung"));
        assert!(failed, "every racer must get the error");
    }
    for handle in handles {
        handle.join().unwrap();
    }
    // The valid prerequisites were shared; only the failing step repeats.
    let stats = cache.cache_stats();
    assert_eq!(stats.block_svds.misses, 1);
    assert_eq!(stats.decompositions.misses, threads as u64);
}

/// Deriving ranks from one shared set of block SVDs must be monotone: a
/// higher rank never reconstructs worse. This is the Eckart–Young property
/// the rank sweeps lean on when they reuse one spectrum per (layer, group)
/// pair.
#[test]
fn from_block_svds_is_rank_monotone() {
    let cache = DecompCache::new();
    let shape = shape();
    let matrix = cache.im2col_matrix(&shape, 3).unwrap();
    let svds: Vec<Svd> = matrix
        .split_cols(4)
        .unwrap()
        .iter()
        .map(|block| Svd::compute(block).unwrap())
        .collect();
    let max_rank = svds
        .iter()
        .map(|svd| svd.singular_values().len())
        .min()
        .unwrap();
    assert!(max_rank >= 4, "fixture must allow a real rank sweep");

    let mut prev = f64::INFINITY;
    for k in 1..=max_rank {
        let decomp = GroupLowRank::from_block_svds(&svds, k).unwrap();
        let err = decomp.reconstruction_error(&matrix).unwrap();
        assert!(
            err <= prev + 1e-12,
            "rank {k}: error {err} exceeds rank {} error {prev}",
            k - 1
        );
        prev = err;
    }
    // Full rank reconstructs (numerically) exactly.
    assert!(prev < 1e-9 * matrix.frobenius_norm().max(1.0));

    // The cached derivation agrees with the shared-SVD derivation bit for
    // bit at every rank.
    for k in [1, 2, 4] {
        let direct = GroupLowRank::from_block_svds(&svds, k).unwrap();
        let cached = cache.decomposition(&shape, 3, 4, k).unwrap();
        assert_eq!(
            cached.decomposition.reconstruct(),
            direct.reconstruct(),
            "rank {k}"
        );
    }
}

/// A bounded cache under thread contention must stay correct: whatever mix
/// of hits, recomputed misses and evictions each thread sees, every value it
/// hands out is the pure function of its key.
#[test]
fn bounded_cache_is_correct_under_racing_threads() {
    let shape = shape();
    // Small enough that the working set of 4 seeds cannot fully fit.
    let cache = DecompCache::with_budget(Precision::F64, 200 * 1024);
    let threads = 8;
    let barrier = Barrier::new(threads);

    let collected: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                let cache = &cache;
                let shape = &shape;
                scope.spawn(move || {
                    barrier.wait();
                    let seed = (t % 4) as u64;
                    cache
                        .decomposition(shape, seed, 4, 4)
                        .unwrap()
                        .relative_error
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = DecompCache::new();
    for (t, err) in collected.iter().enumerate() {
        let seed = (t % 4) as u64;
        let expected = reference
            .decomposition(&shape, seed, 4, 4)
            .unwrap()
            .relative_error;
        assert_eq!(
            err.to_bits(),
            expected.to_bits(),
            "thread {t} (seed {seed}) must see the pure value"
        );
    }
    let stats = cache.cache_stats();
    assert_eq!(
        stats.hits() + stats.misses(),
        stats
            .per_kind()
            .iter()
            .map(|(_, k)| k.lookups())
            .sum::<u64>()
    );
}

/// The precision knob changes the numbers inside the cached spectra (within
/// the differential budgets) but never the shapes, kinds or determinism of
/// what the cache hands out.
#[test]
fn f32_cache_matches_f64_cache_within_budget_and_is_deterministic() {
    let shape = shape();
    let reference = DecompCache::new();
    assert_eq!(reference.precision(), Precision::F64);
    let fast_a = DecompCache::with_precision(Precision::F32);
    let fast_b = DecompCache::with_precision(Precision::F32);
    assert_eq!(fast_a.precision(), Precision::F32);

    // Weights and matrices are precision-independent inputs: identical.
    assert_eq!(
        *reference.weight(&shape, 5).unwrap(),
        *fast_a.weight(&shape, 5).unwrap()
    );
    assert_eq!(
        *reference.im2col_matrix(&shape, 5).unwrap(),
        *fast_a.im2col_matrix(&shape, 5).unwrap()
    );

    // Decompositions agree within the end-to-end error budget and the f32
    // path is deterministic across caches.
    let d64 = reference.decomposition(&shape, 5, 4, 4).unwrap();
    let d32 = fast_a.decomposition(&shape, 5, 4, 4).unwrap();
    let d32_again = fast_b.decomposition(&shape, 5, 4, 4).unwrap();
    assert!(
        (d64.relative_error - d32.relative_error).abs() < 1e-4,
        "f64 {} vs f32 {}",
        d64.relative_error,
        d32.relative_error
    );
    assert_eq!(
        d32.relative_error.to_bits(),
        d32_again.relative_error.to_bits(),
        "two f32 caches must agree bit for bit"
    );
    assert_eq!(
        d32.decomposition.reconstruct(),
        d32_again.decomposition.reconstruct()
    );
}

/// The hit-rate accessors the evaluation service's metrics endpoint leans
/// on: defined (0.0) on fresh counters, exact fractions otherwise, and the
/// aggregate rate weighs kinds by their lookup volume.
#[test]
fn hit_rate_accessors_report_defined_exact_fractions() {
    use imc_core::{CacheStats, KindStats};

    let fresh = KindStats::default();
    assert_eq!(fresh.hit_rate(), 0.0, "no lookups yet must not be NaN");
    assert_eq!(CacheStats::default().hit_rate(), 0.0);

    let kind = KindStats {
        hits: 3,
        misses: 1,
        coalesced: 0,
        evictions: 2,
    };
    assert_eq!(kind.hit_rate(), 0.75);
    assert_eq!(
        KindStats {
            hits: 5,
            misses: 0,
            coalesced: 0,
            evictions: 0,
        }
        .hit_rate(),
        1.0
    );
    assert_eq!(
        KindStats {
            hits: 0,
            misses: 4,
            coalesced: 0,
            evictions: 0,
        }
        .hit_rate(),
        0.0
    );

    // The aggregate is hits/lookups over the summed counters — a
    // lookup-weighted mean, not a mean of per-kind rates.
    let stats = CacheStats {
        weights: KindStats {
            hits: 9,
            misses: 1,
            coalesced: 0,
            evictions: 0,
        },
        decompositions: KindStats {
            hits: 0,
            misses: 10,
            coalesced: 0,
            evictions: 0,
        },
        ..CacheStats::default()
    };
    assert_eq!(stats.hit_rate(), 9.0 / 20.0);

    // And a live cache reports the rate its counters imply: one miss then
    // one hit on the same weight key is exactly 0.5 for that kind.
    let cache = DecompCache::new();
    let shape = shape();
    cache.weight(&shape, 11).unwrap();
    cache.weight(&shape, 11).unwrap();
    let observed = cache.cache_stats();
    assert_eq!(observed.weights.hit_rate(), 0.5);
    assert!(observed.hit_rate() > 0.0);
}
