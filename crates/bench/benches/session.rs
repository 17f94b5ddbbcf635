//! Session bench: the wall-clock win of reusing one long-lived
//! [`EvalSession`] across sweeps, tracked in `BENCH_results.json`.
//!
//! Three configurations of the same fig6 ResNet-20 / 64×64 panel sweep:
//!
//! * `fig6_resnet20_64_cold` — `Experiment::run` semantics: every iteration
//!   builds a fresh decomposition cache and pays the full SVD and
//!   window-search cost.
//! * `fig6_resnet20_64_warm_session` — `Experiment::run_in` against a warmed
//!   unbounded session: every decomposition is a cache hit; what remains is
//!   the evaluation walk itself.
//! * `fig6_resnet20_64_warm_bounded` — the same warm rerun under a 64 MiB
//!   resident-byte budget, measuring the cost of the LRU bookkeeping (and of
//!   any recomputation the budget forces).
//!
//! All three produce bit-identical panels (asserted here before measuring).

use imc_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use imc_nn::resnet20;
use imc_sim::experiments::{fig6, fig6_in, DEFAULT_SEED};
use imc_sim::report::fig6_markdown;
use imc_sim::EvalSession;

fn bench_session_reuse(c: &mut Criterion) {
    let arch = resnet20();

    let cold = || fig6(&arch, 64, DEFAULT_SEED).expect("panel");
    let warm_session = EvalSession::new();
    let bounded_session = EvalSession::builder().cache_budget_bytes(64 << 20).build();
    let warm =
        |session: &EvalSession| fig6_in(&arch, 64, DEFAULT_SEED, None, session).expect("panel");

    // Warm both sessions and pin the bit-identity contract before timing.
    let reference = fig6_markdown(&cold());
    assert_eq!(reference, fig6_markdown(&warm(&warm_session)));
    assert_eq!(reference, fig6_markdown(&warm(&bounded_session)));

    c.bench_function("fig6_resnet20_64_cold", |b| {
        b.iter(|| black_box(cold()));
    });
    c.bench_function("fig6_resnet20_64_warm_session", |b| {
        b.iter(|| black_box(warm(&warm_session)));
    });
    c.bench_function("fig6_resnet20_64_warm_bounded", |b| {
        b.iter(|| black_box(warm(&bounded_session)));
    });

    let stats = warm_session.stats();
    println!(
        "warm session after measurement: {} hits, {} misses, {} bytes resident",
        stats.hits(),
        stats.misses(),
        stats.resident_bytes
    );
}

criterion_group!(session, bench_session_reuse);
criterion_main!(session);
