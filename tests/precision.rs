//! End-to-end certification of the `Precision::F32` fast path against the
//! `f64` reference pipeline, plus the determinism contract of the
//! parallelized Table I profile computation.
//!
//! The layer-level differential budgets live in
//! `crates/linalg/tests/differential.rs`; this suite checks the quantities a
//! *user* of the harness sees:
//!
//! * cycles and parameter counts are **identical** between precisions — they
//!   depend only on layer geometry and resolved `(g, k)`, never on matrix
//!   values;
//! * `f64` results are byte-identical whether the `Precision` knob is left
//!   at its default or set explicitly, serial or parallel;
//! * `f32` accuracies drift from the `f64` goldens by at most
//!   [`ACCURACY_BUDGET_PP`] percentage points (the SVD spectra feeding the
//!   accuracy model agree to ~1e-5 relative, far below what the calibrated
//!   error → accuracy curve can resolve).

use imc::sim::experiments::{fig6, fig6_in, table1, table1_in};
use imc::{
    resnet20, CompressionConfig, CompressionMethod, EvalSession, Experiment, Precision, RankSpec,
    DEFAULT_SEED,
};

/// Maximum admissible drift of any modelled accuracy (in percentage points)
/// when the decomposition kernels run in `f32` instead of `f64`.
const ACCURACY_BUDGET_PP: f64 = 0.05;

/// A fresh session whose decomposition kernels run in `f32`.
fn f32_session() -> EvalSession {
    EvalSession::builder().precision(Precision::F32).build()
}

#[test]
fn table1_parallel_rows_are_bitwise_identical_to_serial() {
    let serial = table1_in(&resnet20(), DEFAULT_SEED, Some(1), &EvalSession::new()).unwrap();
    let parallel = table1_in(&resnet20(), DEFAULT_SEED, Some(8), &EvalSession::new()).unwrap();
    let default = table1(&resnet20(), DEFAULT_SEED).unwrap();
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), default.len());
    for ((s, p), d) in serial.iter().zip(&parallel).zip(&default) {
        // Record order and every value must survive the worker pool.
        for r in [p, d] {
            assert_eq!(s.network, r.network);
            assert_eq!(s.groups, r.groups);
            assert_eq!(s.rank, r.rank);
            assert_eq!(
                s.accuracy.to_bits(),
                r.accuracy.to_bits(),
                "accuracy must be bit-identical across worker counts (g={}, {:?})",
                s.groups,
                s.rank
            );
            assert_eq!(s.cycles_32_plain, r.cycles_32_plain);
            assert_eq!(s.cycles_64_plain, r.cycles_64_plain);
            assert_eq!(s.cycles_32_sdk, r.cycles_32_sdk);
            assert_eq!(s.cycles_64_sdk, r.cycles_64_sdk);
        }
    }
}

#[test]
fn table1_f32_rows_match_f64_goldens_within_budget() {
    let golden = table1(&resnet20(), DEFAULT_SEED).unwrap();
    let fast = table1_in(&resnet20(), DEFAULT_SEED, None, &f32_session()).unwrap();
    assert_eq!(golden.len(), fast.len());
    for (g, f) in golden.iter().zip(&fast) {
        assert_eq!(g.groups, f.groups);
        assert_eq!(g.rank, f.rank);
        // Cycle columns depend only on geometry: identical by construction.
        assert_eq!(g.cycles_32_plain, f.cycles_32_plain);
        assert_eq!(g.cycles_64_plain, f.cycles_64_plain);
        assert_eq!(g.cycles_32_sdk, f.cycles_32_sdk);
        assert_eq!(g.cycles_64_sdk, f.cycles_64_sdk);
        // The accuracy column flows through the f32 spectra.
        assert!(
            (g.accuracy - f.accuracy).abs() <= ACCURACY_BUDGET_PP,
            "g={} {:?}: f64 {} vs f32 {}",
            g.groups,
            g.rank,
            g.accuracy,
            f.accuracy
        );
    }
}

#[test]
fn fig6_f32_pareto_front_matches_f64_golden_within_budget() {
    let golden = fig6(&resnet20(), 64, DEFAULT_SEED).unwrap();
    let fast = fig6_in(&resnet20(), 64, DEFAULT_SEED, None, &f32_session()).unwrap();

    assert_eq!(golden.baseline_cycles, fast.baseline_cycles);
    assert_eq!(golden.baseline_accuracy, fast.baseline_accuracy);

    // Pruning baselines never touch an SVD: identical point for point.
    for (series_g, series_f) in [(&golden.patdnn, &fast.patdnn), (&golden.pairs, &fast.pairs)] {
        assert_eq!(series_g.len(), series_f.len());
        for (pg, pf) in series_g.iter().zip(series_f.iter()) {
            assert_eq!(pg.method, pf.method);
            assert_eq!(pg.cycles, pf.cycles);
            assert_eq!(pg.accuracy, pf.accuracy);
        }
    }

    // The proposed-method front is built from f32 spectra: same methods at
    // the same cycle counts, accuracy within budget.
    assert_eq!(
        golden.ours.len(),
        fast.ours.len(),
        "front membership must not change at {ACCURACY_BUDGET_PP} pp drift"
    );
    for (pg, pf) in golden.ours.iter().zip(fast.ours.iter()) {
        assert_eq!(pg.method, pf.method, "front order/membership changed");
        assert_eq!(
            pg.cycles, pf.cycles,
            "{}: cycles are geometry-only",
            pg.method
        );
        assert!(
            (pg.accuracy - pf.accuracy).abs() <= ACCURACY_BUDGET_PP,
            "{}: f64 {} vs f32 {}",
            pg.method,
            pg.accuracy,
            pf.accuracy
        );
    }
}

#[test]
fn explicit_f64_precision_is_bitwise_identical_to_default() {
    let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
    let build = |precision: Option<Precision>| {
        let mut e = Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .method(CompressionMethod::LowRank(cfg))
            .method(CompressionMethod::Uncompressed { sdk: true });
        if let Some(p) = precision {
            e = e.precision(p);
        }
        e.run().unwrap()
    };
    let default_run = build(None);
    let f64_run = build(Some(Precision::F64));
    assert_eq!(default_run.records().len(), f64_run.records().len());
    for (a, b) in default_run.records().iter().zip(f64_run.records()) {
        assert_eq!(a.eval.cycles.to_bits(), b.eval.cycles.to_bits());
        assert_eq!(a.eval.accuracy.to_bits(), b.eval.accuracy.to_bits());
        assert_eq!(a.eval.parameters, b.eval.parameters);
        assert_eq!(a.eval.schedules, b.eval.schedules);
    }
}

#[test]
fn f32_sweep_preserves_cycles_and_bounds_accuracy_drift() {
    let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap();
    let sweep = |precision: Precision| {
        Experiment::new()
            .network(resnet20())
            .array(64)
            .method(CompressionMethod::LowRank(cfg))
            .precision(precision)
    };
    let golden = sweep(Precision::F64).run().unwrap();
    // A zero-budget session keeps no entry and recomputes every lookup: the
    // "uncached" f32 sweep.
    let uncached = EvalSession::builder()
        .precision(Precision::F32)
        .cache_budget_bytes(0)
        .build();
    let via_cache = sweep(Precision::F32).run().unwrap();
    let direct = sweep(Precision::F32).run_in(&uncached).unwrap();
    for (cached, fast) in [(true, &via_cache), (false, &direct)] {
        let (g, f) = (&golden.records()[0].eval, &fast.records()[0].eval);
        assert_eq!(g.cycles, f.cycles, "cached={cached}");
        assert_eq!(g.parameters, f.parameters, "cached={cached}");
        assert_eq!(g.schedules, f.schedules, "cached={cached}");
        assert!(
            (g.accuracy - f.accuracy).abs() <= ACCURACY_BUDGET_PP,
            "cached={cached}: f64 {} vs f32 {}",
            g.accuracy,
            f.accuracy
        );
    }
    // The two f32 runs must agree exactly with each other: the cache is
    // memoization, not approximation.
    assert_eq!(
        via_cache.records()[0].eval.accuracy.to_bits(),
        direct.records()[0].eval.accuracy.to_bits(),
        "cached and uncached f32 sweeps must be bit-identical"
    );
}
