//! Workspace-level integration tests spanning every crate: the decomposition
//! theory (linalg + core), the SDK mapping (array + core + tensor), the
//! experiment harness (sim) and the empirical training path (nn + core).

use imc::array::{assemble_sdk_output, unroll_parallel_window, ArrayConfig, ParallelWindow};
use imc::core::{DecompCache, GroupLowRank, LayerCompression, LowRankFactors, SdkLowRank};
use imc::linalg::random::SeededRng;
use imc::nn::{Mlp, SyntheticDataset, TrainConfig};
use imc::sim::experiments::{fig7, table1};
use imc::strategy::{CompressionStrategy, ConvContext, LayerOutcome};
use imc::tensor::im2col::conv2d_with_matrix;
use imc::tensor::{ConvShape, FeatureMap, Tensor4};
use imc::{
    resnet20, CompressionConfig, CompressionMethod, EnergyParams, EvalSession, Experiment,
    RankSpec, DEFAULT_SEED,
};

fn random_feature_map(c: usize, h: usize, w: usize, seed: u64) -> FeatureMap {
    let mut rng = SeededRng::seed_from_u64(seed);
    let data = (0..c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    FeatureMap::from_vec(c, h, w, data).expect("valid feature map")
}

#[test]
fn proposed_pipeline_is_functionally_correct_end_to_end() {
    // Compress a real layer shape, build the two SDK crossbar stages, run
    // them over parallel-window patches and compare against the convolution
    // with the reconstructed weights: the pipeline must be exact.
    let shape = ConvShape::square(8, 16, 3, 1, 1, 16).expect("valid shape");
    let weight = Tensor4::kaiming_for(&shape, 3).expect("valid weights");
    let wmat = weight.to_im2col_matrix();
    let group = GroupLowRank::compute(&wmat, 4, 4).expect("valid decomposition");
    let window = ParallelWindow::new(4, 4);
    let stages = SdkLowRank::from_group(&group, &shape, window).expect("valid SDK stages");

    let input = random_feature_map(8, 16, 16, 9);
    let patches = unroll_parallel_window(&input, &shape, window).expect("valid patches");
    let outputs = stages.apply(&patches).expect("stage application succeeds");
    let produced = assemble_sdk_output(&outputs, &shape, window).expect("valid assembly");

    let reference =
        conv2d_with_matrix(&input, &group.reconstruct(), &shape).expect("reference conv");
    let max_diff = produced
        .as_slice()
        .iter()
        .zip(reference.as_slice().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(max_diff < 1e-9, "pipeline mismatch {max_diff}");
}

#[test]
fn theorem1_and_theorem2_hold_for_network_layers() {
    let arch = resnet20();
    // Check the theorems on a couple of real layer shapes from the network.
    for (index, (_, shape)) in arch.compressible_convs().iter().take(2).enumerate() {
        let weight = Tensor4::kaiming_for(shape, 40 + index as u64).expect("valid weights");
        let w = weight.to_im2col_matrix();
        let k = (shape.out_channels / 8).max(1);

        let plain = LowRankFactors::compute(&w, k).expect("valid rank");
        let grouped = GroupLowRank::compute(&w, 4, k).expect("valid groups");
        assert!(
            grouped.reconstruction_error(&w).unwrap()
                <= plain.reconstruction_error(&w).unwrap() + 1e-9
        );

        let window = ParallelWindow::new(4, 4);
        let stages = SdkLowRank::from_factors(&plain, shape, window).expect("valid stages");
        let direct =
            imc::array::sdk_matrix(&plain.reconstruct(), shape, window).expect("valid SDK matrix");
        assert!(stages.composed().approx_eq(&direct, 1e-8));
    }
}

#[test]
fn network_level_comparison_reproduces_the_paper_orderings() {
    // The documented entry point: one declarative sweep over the builder.
    let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).expect("valid config");
    let run = Experiment::new()
        .network(resnet20())
        .array(64)
        .seed(1)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .method(CompressionMethod::LowRank(cfg))
        .method(CompressionMethod::LowRank(CompressionConfig::traditional(
            RankSpec::Divisor(8),
        )))
        .run()
        .expect("sweep succeeds");
    let [baseline, ours, traditional] = run.records() else {
        panic!("expected 1 network x 1 array x 3 methods");
    };

    // Ours beats the baseline and the traditional low-rank on cycles, and the
    // traditional method on accuracy (Theorem 1).
    assert!(ours.eval.cycles < baseline.eval.cycles);
    assert!(ours.eval.cycles < traditional.eval.cycles);
    assert!(ours.eval.accuracy >= traditional.eval.accuracy - 1e-9);
    // Compression actually reduces stored parameters.
    assert!(ours.eval.parameters < baseline.eval.parameters);
}

/// A toy compression method defined entirely *outside* the workspace crates:
/// keep the first half of the output channels (an "oracle" channel pruner),
/// mapping the surviving kernels with im2col. It only touches public API —
/// implementing `CompressionStrategy` is the whole integration surface.
struct HalfChannels;

impl CompressionStrategy for HalfChannels {
    fn label(&self) -> String {
        "half-channels (external)".to_owned()
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome, imc::sim::Error> {
        if ctx.shape.out_channels < 2 {
            return Err(imc::sim::Error::strategy(
                "half-channels needs at least 2 output channels",
            ));
        }
        let halved = ConvShape::new(
            ctx.shape.in_channels,
            ctx.shape.out_channels / 2,
            ctx.shape.kernel_h,
            ctx.shape.kernel_w,
            ctx.shape.stride,
            ctx.shape.padding,
            ctx.shape.input_h,
            ctx.shape.input_w,
        )?;
        let mapped = imc::array::im2col_mapping(&halved, ctx.array);
        Ok(LayerOutcome {
            cycles: mapped.cycles() as f64,
            parameters: halved.weight_count(),
            // Dropping half the (i.i.d.-initialized) channels removes about
            // half the weight energy.
            relative_error: 0.5_f64.sqrt(),
            schedules: vec![imc::strategy::tile_schedule(
                mapped.rows_used,
                mapped.cols_used,
                mapped.loads as u64,
                &ctx.array,
                imc::energy::PeripheralKind::None,
            )],
        })
    }
}

#[test]
fn external_strategy_plugs_in_without_touching_imc_sim() {
    // Acceptance criterion of the API redesign: a new compression method is
    // added and evaluated end-to-end (cycles + accuracy + energy) purely by
    // implementing `CompressionStrategy` in external code.
    // 32-wide arrays: halving the 64-channel stage-3 layers halves their
    // column tiles, so the toy method must strictly win on cycles and energy.
    let run = Experiment::new()
        .network(resnet20())
        .array(32)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .strategy(HalfChannels)
        .run()
        .expect("external strategy sweeps like a built-in");
    let [baseline, halved] = run.records() else {
        panic!("expected two records");
    };
    assert_eq!(halved.eval.method, "half-channels (external)");
    // Cycles: fewer columns -> fewer array-column tiles -> fewer cycles.
    assert!(halved.eval.cycles < baseline.eval.cycles);
    // Parameters: compressible convs halved, the rest dense.
    assert!(halved.eval.parameters < baseline.eval.parameters);
    // Accuracy: flows through the calibrated error model and degrades.
    assert!(halved.eval.accuracy < baseline.eval.accuracy);
    assert!(halved.eval.accuracy > 0.0);
    // Energy: the schedules feed the energy model like any built-in method.
    let params = EnergyParams::default();
    assert!(halved.energy(&params) < baseline.energy(&params));
}

/// An external strategy that refuses the one 32→64 convolution on 32-row
/// arrays and every 16→16 convolution on 64-row arrays: two failing cells,
/// the later one failing at earlier layers.
struct RefusesSomeLayers;

impl CompressionStrategy for RefusesSomeLayers {
    fn label(&self) -> String {
        "refuses-some-layers (external)".to_owned()
    }

    fn compress_conv(&self, ctx: &ConvContext<'_>) -> Result<LayerOutcome, imc::sim::Error> {
        let (rows, shape) = (ctx.array.rows, ctx.shape);
        let channels = (shape.in_channels, shape.out_channels);
        if (rows, channels) == (32, (32, 64)) || (rows, channels) == (64, (16, 16)) {
            return Err(imc::sim::Error::strategy(format!(
                "refusing the {}->{} layer with seed {:#x} on the {rows}-row array",
                channels.0, channels.1, ctx.seed
            )));
        }
        Ok(imc::strategy::dense_im2col_outcome(shape, ctx.array))
    }
}

#[test]
fn a_failing_layer_fails_the_run_identically_at_every_worker_count() {
    // Grid order: (32, im2col), (32, refusing), (64, im2col), (64, refusing).
    let grid = |workers: usize| {
        Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .method(CompressionMethod::Uncompressed { sdk: false })
            .strategy(RefusesSomeLayers)
            .parallelism_override(workers)
    };
    let serial = format!("{:?}", grid(1).run().unwrap_err());
    assert!(
        serial.contains("32->64") && serial.contains("32-row"),
        "the first failing cell in grid order fails the run: {serial}"
    );
    for workers in [1, 4] {
        let parallel = format!("{:?}", grid(workers).run().unwrap_err());
        assert_eq!(parallel, serial, "workers={workers}");

        let mut delivered = Vec::new();
        let err = grid(workers)
            .run_streaming(&mut |record| {
                delivered.push(record.cell_index);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(format!("{err:?}"), serial, "streaming, workers={workers}");
        assert_eq!(
            delivered,
            vec![0],
            "the sink sees exactly the records before the failing cell (workers={workers})"
        );
    }
}

#[test]
fn external_strategy_is_wire_addressable_through_the_registry() {
    // The spec-driven counterpart of the test above: registering the
    // external method under a name makes it addressable from a wire-format
    // request, and the resolved sweep is byte-identical to the directly
    // built one.
    use imc::{ExperimentSpec, Registry, StrategySpec};

    let mut registry = Registry::new();
    registry.strategy("half-channels", |spec: &StrategySpec| {
        // External factories see the whole spec object; this one takes no
        // parameters beyond the method name.
        if spec.get("entries").is_some() {
            return Err(imc::sim::Error::Spec {
                what: "half-channels takes no 'entries' parameter".to_owned(),
            });
        }
        Ok(Box::new(HalfChannels))
    });

    let direct = Experiment::new()
        .network(resnet20())
        .array(32)
        .method(CompressionMethod::Uncompressed { sdk: false })
        .strategy(HalfChannels)
        .run()
        .expect("direct sweep succeeds");

    let spec = ExperimentSpec::from_json(
        r#"{
          "format": "imc.experiment-spec",
          "version": 1,
          "seed": 2025,
          "networks": ["resnet20"],
          "arrays": [32],
          "strategies": [
            {"method": "im2col"},
            {"method": "half-channels"}
          ]
        }"#,
    )
    .expect("hand-written spec parses");
    let resolved = spec
        .into_experiment(&registry)
        .expect("registered names resolve")
        .run()
        .expect("spec-driven sweep succeeds");

    // Records are identical; only the manifests differ (the direct build
    // contains an opaque strategy, so it carries none).
    assert_eq!(
        format!("{:#?}", direct.records()),
        format!("{:#?}", resolved.records()),
        "spec-driven external sweep must match the direct one"
    );
    assert!(direct.manifest().is_none(), "opaque build has no manifest");
    let manifest = resolved
        .manifest()
        .expect("registry-built experiments are spec-serializable");
    assert_eq!(manifest.spec_hash, spec.content_hash());

    // Unregistered, the same spec fails with a spec error naming the method.
    let err = match spec.into_experiment(&Registry::new()) {
        Ok(_) => panic!("unregistered strategy must be rejected"),
        Err(err) => err,
    };
    assert!(matches!(err, imc::sim::Error::Spec { .. }), "{err}");
    assert!(format!("{err}").contains("half-channels"), "{err}");
}

#[test]
fn parallel_and_serial_sweeps_are_byte_identical() {
    // The sweep scheduler and the decomposition cache are pure optimizations:
    // worker count and cache budget must change neither the record order nor
    // a single bit of any value. A zero-budget session keeps no entry, so it
    // recomputes every lookup: the "uncached" run.
    let cfg = CompressionConfig::new(RankSpec::Divisor(8), 4, true).expect("valid config");
    let uncached_session = EvalSession::builder().cache_budget_bytes(0).build();
    let sweep = |workers: usize, session: &EvalSession| {
        Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .seed(DEFAULT_SEED)
            .method(CompressionMethod::Uncompressed { sdk: false })
            .method(CompressionMethod::Uncompressed { sdk: true })
            .method(CompressionMethod::LowRank(cfg))
            .method(CompressionMethod::PatternPruning { entries: 4 })
            .method(CompressionMethod::Pairs { entries: 4 })
            .method(CompressionMethod::Quantized { bits: 2 })
            .parallelism(workers)
            .run_in(session)
            .expect("sweep succeeds")
    };
    let serial = sweep(1, &EvalSession::new());
    let parallel = sweep(8, &EvalSession::new());
    let uncached = sweep(8, &uncached_session);
    assert!(uncached_session.stats().evictions() > 0);
    // `RunRecord` derives `Debug` over every field (including all f64 cycle,
    // accuracy and schedule values), so equal debug strings mean the runs are
    // byte-identical.
    let render = |run: &imc::ExperimentRun| format!("{:#?}", run.records());
    assert_eq!(render(&serial), render(&parallel));
    assert_eq!(render(&serial), render(&uncached));
}

#[test]
fn parallel_and_serial_reports_render_identically() {
    use imc::sim::experiments::fig6_in;
    use imc::sim::report::fig6_markdown;
    let panel = |workers| {
        fig6_in(
            &resnet20(),
            64,
            DEFAULT_SEED,
            Some(workers),
            &EvalSession::new(),
        )
    };
    let serial = panel(1).expect("panel");
    let parallel = panel(8).expect("panel");
    assert_eq!(fig6_markdown(&serial), fig6_markdown(&parallel));
}

#[test]
fn run_get_is_indexed_and_matches_records() {
    let run = Experiment::new()
        .network(resnet20())
        .arrays([32, 64])
        .method(CompressionMethod::Uncompressed { sdk: false })
        .method(CompressionMethod::Uncompressed { sdk: true })
        .run()
        .expect("sweep succeeds");
    for record in run.records() {
        let via_get = run
            .get(
                record.network_index,
                record.array_size,
                record.strategy_index,
            )
            .expect("cell is part of the grid");
        assert_eq!(via_get.cycles, record.eval.cycles);
        assert_eq!(via_get.method, record.eval.method);
    }
    assert!(run.get(0, 48, 0).is_none());
}

#[test]
fn table1_and_fig7_shapes_match_the_paper_structure() {
    let rows = table1(&resnet20(), DEFAULT_SEED).expect("Table I sweep succeeds");
    assert_eq!(rows.len(), 16, "4 group counts x 4 rank divisors");
    let bars = fig7(&resnet20(), DEFAULT_SEED).expect("Fig. 7 evaluation succeeds");
    assert_eq!(bars.len(), 3, "three array sizes");
    for bar in &bars {
        assert!(bar.ours_normalized > 0.0 && bar.ours_normalized < 1.0);
    }
}

#[test]
fn trained_mlp_prefers_group_low_rank_at_aggressive_ranks() {
    // The empirical counterpart of Theorem 1: on a trained model, the grouped
    // decomposition loses no more accuracy than the traditional one at the
    // same rank (averaged over a few aggressive ranks).
    let data = SyntheticDataset::generate(6, 48, 80, 40, 0.4, 13).expect("valid dataset");
    let mut mlp = Mlp::new(48, 64, 6, 1).expect("valid MLP");
    mlp.train(
        data.train(),
        &TrainConfig {
            epochs: 40,
            learning_rate: 0.1,
            batch_size: 32,
            seed: 2,
        },
    )
    .expect("training succeeds");
    let w = mlp.hidden_weights().clone();

    let mut grouped_total = 0.0;
    let mut plain_total = 0.0;
    for k in [4usize, 6, 8] {
        let plain = LowRankFactors::compute(&w, k).expect("valid rank");
        let grouped = GroupLowRank::compute(&w, 4, k).expect("valid groups");
        let mut plain_model = mlp.clone();
        plain_model
            .set_hidden_weights(plain.reconstruct())
            .expect("shape matches");
        let mut grouped_model = mlp.clone();
        grouped_model
            .set_hidden_weights(grouped.reconstruct())
            .expect("shape matches");
        plain_total += plain_model.evaluate(data.test()).expect("evaluation");
        grouped_total += grouped_model.evaluate(data.test()).expect("evaluation");
    }
    assert!(
        grouped_total >= plain_total - 0.02,
        "grouped {grouped_total} vs plain {plain_total}"
    );
}

#[test]
fn layer_compression_is_deterministic_across_calls() {
    let shape = ConvShape::square(32, 32, 3, 1, 1, 16).expect("valid shape");
    let cfg = CompressionConfig::new(RankSpec::Divisor(4), 2, true).expect("valid config");
    let array = ArrayConfig::square(64).expect("valid array");
    let compress = || {
        LayerCompression::compress(&shape, &cfg, array, 5, &DecompCache::new())
            .expect("compression")
    };
    let (a, b) = (compress(), compress());
    assert_eq!(a.cycles(), b.cycles());
    assert!((a.relative_error() - b.relative_error()).abs() < 1e-15);
}
