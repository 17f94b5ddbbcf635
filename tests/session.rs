//! End-to-end contract of the long-lived evaluation session and the
//! shard/merge record workflow:
//!
//! * a **warm** session rerun of `fig6` / `table1` is bitwise-identical to a
//!   cold run (serial and parallel) — the shared cache is pure memoization;
//! * eviction under a tiny `cache_budget_bytes` still yields identical
//!   results, just with more misses;
//! * the fig6 grid split into cell-range shards, serialized to JSON lines,
//!   read back and merged is **byte-identical** to the unsharded run.

use imc::sim::experiments::{fig6, fig6_experiment, fig6_in, table1_in};
use imc::sim::report::{fig6_markdown, table1_markdown};
use imc::{
    resnet20, CompressionMethod, EvalSession, Experiment, ExperimentRun, Precision, DEFAULT_SEED,
};

/// A session that keeps no entry: every lookup recomputes its value, so a
/// run in it is the "uncached" reference a warm session must reproduce.
fn uncached() -> EvalSession {
    EvalSession::builder().cache_budget_bytes(0).build()
}

/// Renders Table I rows with full bit fidelity (accuracy via `to_bits`).
fn table1_fingerprint(rows: &[imc::sim::experiments::Table1Row]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{} g{} {:?} acc:{:016x} {} {} {} {}\n",
                r.network,
                r.groups,
                r.rank,
                r.accuracy.to_bits(),
                r.cycles_32_plain,
                r.cycles_64_plain,
                r.cycles_32_sdk,
                r.cycles_64_sdk
            )
        })
        .collect()
}

#[test]
fn warm_session_fig6_rerun_is_bitwise_identical_serial_and_parallel() {
    let golden = fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(1), &uncached()).unwrap();
    let session = EvalSession::new();

    // Cold run populates the cache; warm runs (serial and parallel) hit it.
    let cold = fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(1), &session).unwrap();
    let after_cold = session.stats();
    assert!(after_cold.misses() > 0, "cold run must populate the cache");
    let warm_serial = fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(1), &session).unwrap();
    let warm_parallel = fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(8), &session).unwrap();

    let reference = fig6_markdown(&golden);
    assert_eq!(reference, fig6_markdown(&cold), "cold session == plain run");
    assert_eq!(reference, fig6_markdown(&warm_serial), "warm serial");
    assert_eq!(reference, fig6_markdown(&warm_parallel), "warm parallel");

    let after_warm = session.stats();
    assert!(
        after_warm.hits() > after_cold.hits(),
        "warm reruns must hit the shared cache"
    );
    assert_eq!(
        after_warm.misses(),
        after_cold.misses(),
        "a warm rerun of the identical sweep must add zero misses"
    );
    assert_eq!(after_warm.evictions(), 0, "unbounded sessions never evict");
}

#[test]
fn warm_session_table1_rerun_is_bitwise_identical_serial_and_parallel() {
    let golden = table1_in(&resnet20(), DEFAULT_SEED, Some(1), &uncached()).unwrap();
    let session = EvalSession::new();

    let cold = table1_in(&resnet20(), DEFAULT_SEED, Some(1), &session).unwrap();
    let after_cold = session.stats();
    let warm_serial = table1_in(&resnet20(), DEFAULT_SEED, Some(1), &session).unwrap();
    let warm_parallel = table1_in(&resnet20(), DEFAULT_SEED, Some(8), &session).unwrap();

    let reference = table1_fingerprint(&golden);
    assert_eq!(reference, table1_fingerprint(&cold), "cold == plain run");
    assert_eq!(reference, table1_fingerprint(&warm_serial), "warm serial");
    assert_eq!(
        reference,
        table1_fingerprint(&warm_parallel),
        "warm parallel"
    );
    // The markdown report (the user-facing artifact) agrees too.
    assert_eq!(table1_markdown(&golden), table1_markdown(&warm_parallel));

    let after_warm = session.stats();
    assert!(after_warm.hits() > after_cold.hits());
    assert_eq!(
        after_warm.misses(),
        after_cold.misses(),
        "warm table1 reruns must recompute nothing"
    );
}

#[test]
fn cold_parallel_fig6_computes_every_cache_entry_exactly_once() {
    // Parallel workers that meet on the same layer wait for each other's
    // block SVDs instead of computing them twice: every worker count makes
    // the serial run's misses, kind by kind.
    let serial = EvalSession::new();
    fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(1), &serial).unwrap();
    let expected = serial.stats();
    assert_eq!(
        expected.block_svds.misses, 72,
        "18 compressible layers x 4 group counts"
    );
    for workers in [2, 8] {
        let session = EvalSession::new();
        fig6_in(&resnet20(), 64, DEFAULT_SEED, Some(workers), &session).unwrap();
        let stats = session.stats();
        for ((kind, got), (_, want)) in stats.per_kind().iter().zip(expected.per_kind()) {
            assert_eq!(
                got.misses, want.misses,
                "{kind}, workers={workers}: {got:?}"
            );
        }
    }
}

#[test]
fn fig6_and_table1_share_one_session_cache() {
    // The two generators walk the same layers: table1 after fig6 must reuse
    // the fig6 SVD work (block_svds hits) instead of recomputing it.
    let session = EvalSession::new();
    fig6_in(&resnet20(), 64, DEFAULT_SEED, None, &session).unwrap();
    let before = session.stats();
    table1_in(&resnet20(), DEFAULT_SEED, None, &session).unwrap();
    let after = session.stats();
    assert!(
        after.block_svds.hits > before.block_svds.hits,
        "table1 must reuse fig6's cached spectra ({:?} -> {:?})",
        before.block_svds,
        after.block_svds
    );
}

#[test]
fn tiny_cache_budget_evicts_but_results_stay_identical() {
    let golden = fig6(&resnet20(), 64, DEFAULT_SEED).unwrap();

    // A few KiB cannot hold a single weight tensor: the session thrashes,
    // evicting on nearly every insertion.
    let tiny = EvalSession::builder().cache_budget_bytes(8 * 1024).build();
    let generous = EvalSession::new();

    for session in [&tiny, &generous] {
        for _ in 0..2 {
            let panel = fig6_in(&resnet20(), 64, DEFAULT_SEED, None, session).unwrap();
            assert_eq!(
                fig6_markdown(&golden),
                fig6_markdown(&panel),
                "results must not depend on the cache budget"
            );
        }
    }

    let bounded = tiny.stats();
    let unbounded = generous.stats();
    assert!(bounded.evictions() > 0, "tiny budget must evict");
    assert!(
        bounded.misses() > unbounded.misses(),
        "eviction converts warm hits into recomputed misses ({} vs {})",
        bounded.misses(),
        unbounded.misses()
    );
    assert!(
        bounded.resident_bytes < unbounded.resident_bytes,
        "the budget must bound residency ({} vs {} bytes)",
        bounded.resident_bytes,
        unbounded.resident_bytes
    );
}

#[test]
fn precision_mismatched_sessions_are_rejected() {
    let f32_session = EvalSession::builder().precision(Precision::F32).build();
    let err = Experiment::new()
        .network(resnet20())
        .array(64)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .run_in(&f32_session) // defaults to Precision::F64
        .unwrap_err();
    assert!(
        format!("{err}").contains("session was built for f32"),
        "unexpected error: {err}"
    );

    // fig6_in / table1_in adopt the session's precision, so they never
    // trip the mismatch check.
    fig6_in(&resnet20(), 64, DEFAULT_SEED, None, &f32_session).unwrap();
    table1_in(&resnet20(), DEFAULT_SEED, None, &f32_session).unwrap();
}

#[test]
fn sharded_fig6_grid_merges_byte_identically_to_the_unsharded_run() {
    // The acceptance criterion of the shard/merge workflow, on the real
    // fig6 64x64 grid: shard -> serialize -> parse -> merge -> byte-compare.
    let arch = resnet20();
    let unsharded = fig6_experiment(&arch, 64, DEFAULT_SEED).run().unwrap();
    let total = fig6_experiment(&arch, 64, DEFAULT_SEED).grid_cells();
    assert_eq!(total, unsharded.records().len());

    let shards = 3;
    let mut parsed = Vec::new();
    for s in 0..shards {
        let (start, end) = (s * total / shards, (s + 1) * total / shards);
        let shard = fig6_experiment(&arch, 64, DEFAULT_SEED)
            .cells(start..end)
            .run()
            .unwrap();
        assert_eq!(shard.records().len(), end - start);
        // Cross the process boundary: serialize, then parse back.
        let text = shard.to_jsonl().unwrap();
        parsed.push(ExperimentRun::from_jsonl(&text).unwrap());
    }
    // Merge in scrambled order; cell indices restore canonical order.
    parsed.rotate_left(1);
    let merged = ExperimentRun::merge(parsed).unwrap();

    assert_eq!(
        merged.to_jsonl().unwrap(),
        unsharded.to_jsonl().unwrap(),
        "merged shards must serialize byte-identically to the unsharded run"
    );
    assert_eq!(
        format!("{:#?}", merged.records()),
        format!("{:#?}", unsharded.records()),
        "merged shards must match the unsharded run bit for bit in memory"
    );
}

#[test]
fn session_reuse_composes_with_sharding() {
    // A shard worker that serves many shard requests from one session must
    // produce the same bytes as throwaway runs.
    let arch = resnet20();
    let session = EvalSession::new();
    let grid = || {
        Experiment::new()
            .network(arch.clone())
            .arrays([32, 64])
            .seed(DEFAULT_SEED)
            .method(CompressionMethod::Uncompressed { sdk: false })
            .method(CompressionMethod::Uncompressed { sdk: true })
            .method(CompressionMethod::PatternPruning { entries: 4 })
    };
    let unsharded = grid().run().unwrap();
    let total = grid().grid_cells();

    let mut shards = Vec::new();
    for s in 0..2 {
        let (start, end) = (s * total / 2, (s + 1) * total / 2);
        shards.push(grid().cells(start..end).run_in(&session).unwrap());
    }
    let merged = ExperimentRun::merge(shards).unwrap();
    assert_eq!(merged.to_jsonl().unwrap(), unsharded.to_jsonl().unwrap());
    assert!(session.stats().hits() > 0, "shards share the session cache");
}
