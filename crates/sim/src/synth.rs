//! Declarative synthetic-network generation: whole conv networks from a
//! wire-format [`SyntheticNetSpec`].
//!
//! The paper evaluates exactly two fixed architectures (ResNet-20 and
//! WRN16-4); every scaling layer of this harness — parallel sweeps, session
//! caching, `imc serve`, resumable `imc sweep`, frontier runs — was
//! therefore exercised on a tiny scenario space. This module turns conv
//! *topologies* into data: a [`SyntheticNetSpec`] describes a network as a
//! stem plus a list of [`StageSpec`]s (depth, width, kernel, stride, group
//! and channel-ramp patterns), and [`SyntheticNetSpec::build`] lowers it
//! into the same [`NetworkArch`] geometry the fixed models use.
//!
//! # Name grammar
//!
//! Four curated scenarios are addressable by name, with optional depth and
//! width overrides:
//!
//! ```text
//! synthetic:<scenario>[-d<depth>][-w<width>]
//! ```
//!
//! | Scenario | Pattern |
//! |---|---|
//! | `deep-thin` | 3 stages, many thin 3×3 blocks, linear channel ramps |
//! | `wide-shallow` | 2 stages, few wide 5×5 blocks |
//! | `depthwise-heavy` | 3 stages of depthwise-style grouped 3×3 convs, each closed by a 1×1 pointwise mix |
//! | `matmul-projection` | 2 thin 3×3 stages, each followed by a stack of 1×1 projection (matmul) layers |
//!
//! `synthetic:deep-thin` uses the scenario defaults;
//! `synthetic:deep-thin-d32-w16` overrides depth and width. The
//! [`Registry`](crate::registry::Registry) pre-registers the whole family,
//! so these names work everywhere a network name does (specs, `imc spec
//! --network`, `imc serve` calls).
//!
//! # Spec documents
//!
//! A [`SyntheticNetSpec`] also serializes as a compact JSON object
//! (canonical member order, defaults omitted, unknown members rejected), so
//! an [`ExperimentSpec`](crate::spec::ExperimentSpec) can carry inline
//! generator documents under its optional `"synthetic_networks"` member —
//! a fifth topology pattern is then pure spec data, no Rust changes:
//!
//! ```json
//! {"name": "my-net", "stem": 8,
//!  "stages": [{"blocks": 2, "channels": 16},
//!             {"blocks": 2, "channels": 32, "stride": 2, "ramp": "linear"}]}
//! ```
//!
//! # Generation rules
//!
//! * The stem is a non-compressible 3×3 convolution from 3 input channels
//!   (as in the fixed models), and the classifier a non-compressible linear
//!   layer to `classes` outputs.
//! * Each stage's first block carries the stage stride at the pre-stride
//!   resolution (the ResNet idiom); the feature map then shrinks per the
//!   exact [`ConvShape`] output geometry.
//! * A `"linear"` channel ramp interpolates block output channels from the
//!   stage's input width to its target width; `"flat"` (the default) jumps
//!   straight to the target.
//! * Requested `groups` are clamped, per block, to the largest count
//!   dividing both the block's input and output channels — the rule is
//!   total, so `groups = channels` expresses "as depthwise as the geometry
//!   allows" without ever erroring. Grouped blocks lower to one
//!   [`ConvShape`] per group ([`ConvShape`] itself is ungrouped).
//! * `projections` appends that many compressible 1×1 convolutions after a
//!   stage's blocks — pure matmul layers on the IMC array.

use imc_nn::NetworkArch;
use imc_tensor::{ConvShape, LayerShape, LinearShape};

use crate::json::{json_string, JsonValue};
use crate::spec::{as_spec_error, spec_error};
use crate::Result;

/// Name prefix of the synthetic-network family.
pub const SCENARIO_PREFIX: &str = "synthetic:";

/// Default dataset label of generated networks.
pub const DEFAULT_DATASET: &str = "synthetic";
/// Default class count of generated networks.
pub const DEFAULT_CLASSES: usize = 10;
/// Default modelled uncompressed baseline accuracy (percent).
pub const DEFAULT_BASELINE_ACCURACY: f64 = 90.0;
/// Default input feature-map resolution.
pub const DEFAULT_INPUT: usize = 32;
/// Default stem output channels.
pub const DEFAULT_STEM: usize = 16;

/// How a stage's block output channels approach the stage target width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelRamp {
    /// Every block outputs the stage's target channel count.
    Flat,
    /// Block `b` of `n` outputs channels interpolated linearly from the
    /// stage's input width to its target width (the last block lands exactly
    /// on the target).
    Linear,
}

impl ChannelRamp {
    fn name(self) -> &'static str {
        match self {
            ChannelRamp::Flat => "flat",
            ChannelRamp::Linear => "linear",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "flat" => Some(ChannelRamp::Flat),
            "linear" => Some(ChannelRamp::Linear),
            _ => None,
        }
    }
}

/// One stage of a synthetic network: a run of convolution blocks sharing a
/// kernel/group pattern, optionally closed by a stack of 1×1 projections.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Number of convolution blocks (each one convolution).
    pub blocks: usize,
    /// Target output channels of the stage.
    pub channels: usize,
    /// Square kernel size of the blocks (default 3; padding is `kernel / 2`).
    pub kernel: usize,
    /// Stride of the stage's first block (default 1); later blocks are
    /// stride 1.
    pub stride: usize,
    /// Requested group count (default 1), clamped per block to the largest
    /// count dividing both its input and output channels.
    pub groups: usize,
    /// Channel ramp of the blocks (default [`ChannelRamp::Flat`]).
    pub ramp: ChannelRamp,
    /// Number of compressible 1×1 convolutions appended after the blocks
    /// (default 0).
    pub projections: usize,
}

impl StageSpec {
    /// A stage of `blocks` blocks targeting `channels` output channels, with
    /// every pattern knob at its default (3×3 kernels, stride 1, ungrouped,
    /// flat ramp, no projections).
    pub fn new(blocks: usize, channels: usize) -> Self {
        Self {
            blocks,
            channels,
            kernel: 3,
            stride: 1,
            groups: 1,
            ramp: ChannelRamp::Flat,
            projections: 0,
        }
    }

    /// Sets the block kernel size (builder-style).
    #[must_use]
    pub fn kernel(mut self, kernel: usize) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the first-block stride (builder-style).
    #[must_use]
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the requested group count (builder-style).
    #[must_use]
    pub fn groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }

    /// Sets the channel ramp (builder-style).
    #[must_use]
    pub fn ramp(mut self, ramp: ChannelRamp) -> Self {
        self.ramp = ramp;
        self
    }

    /// Sets the trailing 1×1 projection count (builder-style).
    #[must_use]
    pub fn projections(mut self, projections: usize) -> Self {
        self.projections = projections;
        self
    }

    /// Serializes as a compact JSON object in canonical member order,
    /// omitting members at their default value.
    pub fn to_json(&self) -> String {
        let mut parts = vec![
            format!("\"blocks\":{}", self.blocks),
            format!("\"channels\":{}", self.channels),
        ];
        if self.kernel != 3 {
            parts.push(format!("\"kernel\":{}", self.kernel));
        }
        if self.stride != 1 {
            parts.push(format!("\"stride\":{}", self.stride));
        }
        if self.groups != 1 {
            parts.push(format!("\"groups\":{}", self.groups));
        }
        if self.ramp != ChannelRamp::Flat {
            parts.push(format!("\"ramp\":{}", json_string(self.ramp.name())));
        }
        if self.projections != 0 {
            parts.push(format!("\"projections\":{}", self.projections));
        }
        format!("{{{}}}", parts.join(","))
    }

    /// Parses one stage object (strict: unknown members are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on a malformed stage object.
    pub fn from_value(value: &JsonValue) -> Result<Self> {
        const KNOWN: [&str; 7] = [
            "blocks",
            "channels",
            "kernel",
            "stride",
            "groups",
            "ramp",
            "projections",
        ];
        let members = value
            .as_object()
            .ok_or_else(|| spec_error("synthetic stage entries must be JSON objects"))?;
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(spec_error(format!(
                    "synthetic stage: unknown member '{key}' (allowed: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let required = |key: &str| {
            value.get(key).and_then(JsonValue::as_usize).ok_or_else(|| {
                spec_error(format!(
                    "synthetic stage: member '{key}' must be a non-negative integer"
                ))
            })
        };
        let optional = |key: &str, default: usize| match value.get(key) {
            None => Ok(default),
            Some(v) => v.as_usize().ok_or_else(|| {
                spec_error(format!(
                    "synthetic stage: member '{key}' must be a non-negative integer"
                ))
            }),
        };
        let ramp = match value.get("ramp") {
            None => ChannelRamp::Flat,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| spec_error("synthetic stage: member 'ramp' must be a string"))?;
                ChannelRamp::from_name(name).ok_or_else(|| {
                    spec_error(format!(
                        "synthetic stage: unknown ramp '{name}' (use 'flat' or 'linear')"
                    ))
                })?
            }
        };
        Ok(Self {
            blocks: required("blocks")?,
            channels: required("channels")?,
            kernel: optional("kernel", 3)?,
            stride: optional("stride", 1)?,
            groups: optional("groups", 1)?,
            ramp,
            projections: optional("projections", 0)?,
        })
    }
}

/// A declarative synthetic network: metadata plus a stage list, lowered into
/// a [`NetworkArch`] by [`SyntheticNetSpec::build`].
///
/// See the [module docs](self) for the generation rules and the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticNetSpec {
    /// Network name — what spec documents address the network by.
    pub name: String,
    /// Dataset label (default [`DEFAULT_DATASET`]); metadata only.
    pub dataset: String,
    /// Class count (default [`DEFAULT_CLASSES`]); feeds the accuracy model
    /// and sizes the classifier.
    pub classes: usize,
    /// Modelled uncompressed baseline accuracy in percent (default
    /// [`DEFAULT_BASELINE_ACCURACY`]).
    pub baseline_accuracy: f64,
    /// Square input feature-map resolution (default [`DEFAULT_INPUT`]).
    pub input: usize,
    /// Stem output channels (default [`DEFAULT_STEM`]).
    pub stem: usize,
    /// The stages, in order.
    pub stages: Vec<StageSpec>,
}

impl SyntheticNetSpec {
    /// A spec named `name` with the given stages and every other member at
    /// its default.
    pub fn new(name: impl Into<String>, stages: Vec<StageSpec>) -> Self {
        Self {
            name: name.into(),
            dataset: DEFAULT_DATASET.to_owned(),
            classes: DEFAULT_CLASSES,
            baseline_accuracy: DEFAULT_BASELINE_ACCURACY,
            input: DEFAULT_INPUT,
            stem: DEFAULT_STEM,
            stages,
        }
    }

    /// Serializes as a compact JSON object in canonical member order,
    /// omitting members at their default value — the exact inverse of
    /// [`SyntheticNetSpec::from_value`] for canonical documents.
    pub fn to_json(&self) -> String {
        let mut parts = vec![format!("\"name\":{}", json_string(&self.name))];
        if self.dataset != DEFAULT_DATASET {
            parts.push(format!("\"dataset\":{}", json_string(&self.dataset)));
        }
        if self.classes != DEFAULT_CLASSES {
            parts.push(format!("\"classes\":{}", self.classes));
        }
        if self.baseline_accuracy != DEFAULT_BASELINE_ACCURACY {
            parts.push(format!("\"baseline_accuracy\":{}", self.baseline_accuracy));
        }
        if self.input != DEFAULT_INPUT {
            parts.push(format!("\"input\":{}", self.input));
        }
        if self.stem != DEFAULT_STEM {
            parts.push(format!("\"stem\":{}", self.stem));
        }
        let stages: Vec<String> = self.stages.iter().map(StageSpec::to_json).collect();
        parts.push(format!("\"stages\":[{}]", stages.join(",")));
        format!("{{{}}}", parts.join(","))
    }

    /// Parses a generator document (strict: unknown members are rejected,
    /// omitted members take their defaults).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on a malformed document.
    pub fn from_value(value: &JsonValue) -> Result<Self> {
        const KNOWN: [&str; 7] = [
            "name",
            "dataset",
            "classes",
            "baseline_accuracy",
            "input",
            "stem",
            "stages",
        ];
        let members = value
            .as_object()
            .ok_or_else(|| spec_error("synthetic network entries must be JSON objects"))?;
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(spec_error(format!(
                    "synthetic network: unknown member '{key}' (allowed: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let name = value
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| spec_error("synthetic network: missing string member 'name'"))?
            .to_owned();
        let dataset = match value.get("dataset") {
            None => DEFAULT_DATASET.to_owned(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| spec_error("synthetic network: member 'dataset' must be a string"))?
                .to_owned(),
        };
        let optional = |key: &str, default: usize| match value.get(key) {
            None => Ok(default),
            Some(v) => v.as_usize().ok_or_else(|| {
                spec_error(format!(
                    "synthetic network: member '{key}' must be a non-negative integer"
                ))
            }),
        };
        let baseline_accuracy = match value.get("baseline_accuracy") {
            None => DEFAULT_BASELINE_ACCURACY,
            Some(v) => v.as_f64().ok_or_else(|| {
                spec_error("synthetic network: member 'baseline_accuracy' must be a number")
            })?,
        };
        let stages = value
            .get("stages")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| spec_error("synthetic network: missing array member 'stages'"))?
            .iter()
            .map(StageSpec::from_value)
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            name,
            dataset,
            classes: optional("classes", DEFAULT_CLASSES)?,
            baseline_accuracy,
            input: optional("input", DEFAULT_INPUT)?,
            stem: optional("stem", DEFAULT_STEM)?,
            stages,
        })
    }

    /// Parses a generator document from JSON text.
    ///
    /// # Errors
    ///
    /// As [`SyntheticNetSpec::from_value`], plus [`Error::Spec`] on
    /// malformed JSON.
    pub fn from_json(input: &str) -> Result<Self> {
        let value = JsonValue::parse(input).map_err(as_spec_error)?;
        Self::from_value(&value)
    }

    /// Lowers the spec into a [`NetworkArch`]: a non-compressible 3×3 stem,
    /// the staged blocks (grouped blocks expand to one conv per group),
    /// trailing 1×1 projections, and a non-compressible classifier.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when a member is zero where a positive value
    /// is required, when `classes < 2`, when the stage list is empty, or
    /// when the generated geometry is impossible (e.g. the feature map
    /// shrinks below a stage's kernel).
    pub fn build(&self) -> Result<NetworkArch> {
        let fail = |what: String| spec_error(format!("synthetic network '{}': {what}", self.name));
        if self.stages.is_empty() {
            return Err(fail("needs at least one stage".to_owned()));
        }
        if self.classes < 2 {
            return Err(fail("needs at least 2 classes".to_owned()));
        }
        for (index, stage) in self.stages.iter().enumerate() {
            let stage_no = index + 1;
            for (key, value) in [
                ("blocks", stage.blocks),
                ("channels", stage.channels),
                ("kernel", stage.kernel),
                ("stride", stage.stride),
                ("groups", stage.groups),
            ] {
                if value == 0 {
                    return Err(fail(format!(
                        "stage {stage_no}: '{key}' must be at least 1"
                    )));
                }
            }
        }
        if self.input == 0 || self.stem == 0 {
            return Err(fail("'input' and 'stem' must be at least 1".to_owned()));
        }

        let conv = |name: String,
                    ic: usize,
                    oc: usize,
                    kernel: usize,
                    stride: usize,
                    padding: usize,
                    input: usize,
                    compressible: bool|
         -> Result<LayerShape> {
            let shape = ConvShape::square(ic, oc, kernel, stride, padding, input)
                .map_err(|e| fail(format!("layer '{name}': {e}")))?;
            Ok(LayerShape::conv(name, shape, compressible))
        };

        let mut layers = vec![conv(
            "stem".to_owned(),
            3,
            self.stem,
            3,
            1,
            1,
            self.input,
            false,
        )?];
        let mut resolution = layers[0].conv.expect("stem is a conv").output_h();
        let mut channels = self.stem;
        for (index, stage) in self.stages.iter().enumerate() {
            let stage_no = index + 1;
            let stage_input = channels;
            let padding = stage.kernel / 2;
            for block in 0..stage.blocks {
                // Same-padding convs never reach a zero-sized output, so the
                // "downsampled too far" failure the docs promise has to be
                // caught here: a feature map narrower than the kernel means
                // an earlier stride chain already collapsed the geometry.
                if resolution < stage.kernel {
                    return Err(fail(format!(
                        "stage {stage_no}: the {resolution}x{resolution} feature map has shrunk \
                         below the stage's {k}x{k} kernel (too many downsampling stages)",
                        k = stage.kernel
                    )));
                }
                let oc =
                    ramp_channels(stage.ramp, stage_input, stage.channels, block, stage.blocks);
                let stride = if block == 0 { stage.stride } else { 1 };
                let groups = effective_groups(stage.groups, channels, oc);
                let mut output = resolution;
                for group in 0..groups {
                    let name = if groups == 1 {
                        format!("stage{stage_no}.block{block}")
                    } else {
                        format!("stage{stage_no}.block{block}.g{group}")
                    };
                    let layer = conv(
                        name,
                        channels / groups,
                        oc / groups,
                        stage.kernel,
                        stride,
                        padding,
                        resolution,
                        true,
                    )?;
                    output = layer.conv.expect("blocks are convs").output_h();
                    layers.push(layer);
                }
                resolution = output;
                channels = oc;
            }
            for projection in 0..stage.projections {
                layers.push(conv(
                    format!("stage{stage_no}.proj{projection}"),
                    channels,
                    channels,
                    1,
                    1,
                    0,
                    resolution,
                    true,
                )?);
            }
        }
        layers.push(LayerShape::linear(
            "fc",
            LinearShape::new(channels, self.classes)
                .map_err(|e| fail(format!("classifier: {e}")))?,
            false,
        ));
        NetworkArch::new(
            self.name.clone(),
            self.dataset.clone(),
            self.classes,
            self.baseline_accuracy,
            layers,
        )
        .map_err(|e| fail(e.to_string()))
    }
}

/// Block `block` (0-based) of `blocks` under `ramp`, going from `from` to
/// `to` channels; the last block always lands exactly on `to`.
fn ramp_channels(ramp: ChannelRamp, from: usize, to: usize, block: usize, blocks: usize) -> usize {
    match ramp {
        ChannelRamp::Flat => to,
        ChannelRamp::Linear => {
            let (from, to) = (from as i64, to as i64);
            let step = (block + 1) as i64;
            let interpolated = from + (to - from) * step / blocks as i64;
            usize::try_from(interpolated.max(1)).unwrap_or(1)
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The largest group count `g <= requested` dividing both `ic` and `oc` —
/// total by construction (`g = 1` always qualifies), so depthwise-style
/// requests degrade gracefully at stage transitions where the channel
/// counts disagree.
fn effective_groups(requested: usize, ic: usize, oc: usize) -> usize {
    let divisor = gcd(ic, oc);
    let mut groups = requested.min(divisor).max(1);
    while !divisor.is_multiple_of(groups) {
        groups -= 1;
    }
    groups
}

// ---------------------------------------------------------------------------
// Curated scenarios and the parameterized name grammar.
// ---------------------------------------------------------------------------

/// One curated scenario of the `synthetic:` family.
pub struct Scenario {
    /// Base name (`"deep-thin"`, …).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    /// Depth used when the name carries no `-d<depth>` override.
    pub default_depth: usize,
    /// Width used when the name carries no `-w<width>` override.
    pub default_width: usize,
    builder: fn(usize, usize) -> SyntheticNetSpec,
}

impl Scenario {
    /// The scenario's registered name, `synthetic:<name>`.
    pub fn full_name(&self) -> String {
        format!("{SCENARIO_PREFIX}{}", self.name)
    }

    /// The scenario's spec document at an explicit depth/width (the builder
    /// clamps degenerate values; the spec's name records what it used).
    pub fn spec(&self, depth: usize, width: usize) -> SyntheticNetSpec {
        (self.builder)(depth, width)
    }

    /// The scenario's spec document at its default depth/width.
    pub fn default_spec(&self) -> SyntheticNetSpec {
        self.spec(self.default_depth, self.default_width)
    }
}

/// The built-in scenarios, in listing order.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "deep-thin",
        description: "3 stages of thin 3x3 blocks with linear channel ramps (default d18 w8)",
        default_depth: 18,
        default_width: 8,
        builder: deep_thin,
    },
    Scenario {
        name: "wide-shallow",
        description: "2 stages of wide 5x5 blocks, one block per stage (default d2 w64)",
        default_depth: 2,
        default_width: 64,
        builder: wide_shallow,
    },
    Scenario {
        name: "depthwise-heavy",
        description: "3 stages of depthwise-style grouped 3x3 convs with 1x1 mixes (default d6 w8)",
        default_depth: 6,
        default_width: 8,
        builder: depthwise_heavy,
    },
    Scenario {
        name: "matmul-projection",
        description:
            "2 thin 3x3 stages, each closed by a stack of 1x1 matmul layers (default d4 w32)",
        default_depth: 4,
        default_width: 32,
        builder: matmul_projection,
    },
];

/// Splits `total` blocks (at least one per stage) over `stages` stages,
/// earlier stages taking the remainder.
fn split_blocks(total: usize, stages: usize) -> Vec<usize> {
    let total = total.max(stages);
    (0..stages)
        .map(|i| total / stages + usize::from(i < total % stages))
        .collect()
}

/// The `deep-thin` scenario: `depth` thin 3×3 blocks split over three
/// stages at `width`/`2·width`/`4·width` channels with linear channel
/// ramps, downsampling into stages 2 and 3.
pub fn deep_thin(depth: usize, width: usize) -> SyntheticNetSpec {
    let depth = depth.max(3);
    let width = width.max(1);
    let blocks = split_blocks(depth, 3);
    let mut spec = SyntheticNetSpec::new(
        format!("{SCENARIO_PREFIX}deep-thin-d{depth}-w{width}"),
        vec![
            StageSpec::new(blocks[0], width).ramp(ChannelRamp::Linear),
            StageSpec::new(blocks[1], 2 * width)
                .stride(2)
                .ramp(ChannelRamp::Linear),
            StageSpec::new(blocks[2], 4 * width)
                .stride(2)
                .ramp(ChannelRamp::Linear),
        ],
    );
    spec.stem = width;
    spec
}

/// The `wide-shallow` scenario: `depth` wide 5×5 blocks split over two
/// stages at `width`/`2·width` channels.
pub fn wide_shallow(depth: usize, width: usize) -> SyntheticNetSpec {
    let depth = depth.max(2);
    let width = width.max(1);
    let blocks = split_blocks(depth, 2);
    SyntheticNetSpec::new(
        format!("{SCENARIO_PREFIX}wide-shallow-d{depth}-w{width}"),
        vec![
            StageSpec::new(blocks[0], width).kernel(5),
            StageSpec::new(blocks[1], 2 * width).kernel(5).stride(2),
        ],
    )
}

/// The `depthwise-heavy` scenario: three stages of depthwise-style grouped
/// 3×3 blocks (`groups = channels`, gcd-clamped at stage transitions), each
/// stage closed by a 1×1 pointwise mix.
pub fn depthwise_heavy(depth: usize, width: usize) -> SyntheticNetSpec {
    let depth = depth.max(3);
    let width = width.max(2);
    let blocks = split_blocks(depth, 3);
    let mut spec = SyntheticNetSpec::new(
        format!("{SCENARIO_PREFIX}depthwise-heavy-d{depth}-w{width}"),
        vec![
            StageSpec::new(blocks[0], width)
                .groups(width)
                .projections(1),
            StageSpec::new(blocks[1], 2 * width)
                .stride(2)
                .groups(2 * width)
                .projections(1),
            StageSpec::new(blocks[2], 4 * width)
                .stride(2)
                .groups(4 * width)
                .projections(1),
        ],
    );
    spec.stem = width;
    spec
}

/// The `matmul-projection` scenario: two thin 3×3 stages at
/// `width`/`2·width` channels, each closed by a stack of `depth` 1×1
/// projection layers — pure matmuls on the array.
pub fn matmul_projection(depth: usize, width: usize) -> SyntheticNetSpec {
    let depth = depth.max(1);
    let width = width.max(1);
    let mut spec = SyntheticNetSpec::new(
        format!("{SCENARIO_PREFIX}matmul-projection-d{depth}-w{width}"),
        vec![
            StageSpec::new(1, width).projections(depth),
            StageSpec::new(1, 2 * width).stride(2).projections(depth),
        ],
    );
    spec.stem = width;
    spec
}

/// Whether `name` belongs to the `synthetic:` family.
pub fn is_synthetic_name(name: &str) -> bool {
    name.starts_with(SCENARIO_PREFIX)
}

/// Resolves a family name (`synthetic:<scenario>[-d<depth>][-w<width>]`)
/// into its generator spec. Overrides may appear in either order, each at
/// most once; the returned spec carries the canonical full name (defaults
/// filled in), so e.g. `synthetic:deep-thin` resolves to a network named
/// `synthetic:deep-thin-d18-w8`.
///
/// # Errors
///
/// Returns [`Error::Spec`] for names outside the family, unknown scenarios
/// (listing the known ones) and malformed or duplicate overrides.
pub fn spec_from_name(name: &str) -> Result<SyntheticNetSpec> {
    let rest = name.strip_prefix(SCENARIO_PREFIX).ok_or_else(|| {
        spec_error(format!(
            "'{name}' is not a synthetic network name (expected the '{SCENARIO_PREFIX}' prefix)"
        ))
    })?;
    let mut base = rest;
    let mut depth: Option<usize> = None;
    let mut width: Option<usize> = None;
    while let Some(pos) = base.rfind('-') {
        let suffix = &base[pos + 1..];
        let Some(digits) = suffix
            .strip_prefix('d')
            .or_else(|| suffix.strip_prefix('w'))
        else {
            break;
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            break;
        }
        let value: usize = digits.parse().map_err(|_| {
            spec_error(format!(
                "synthetic network '{name}': override '{suffix}' is out of range"
            ))
        })?;
        let slot = if suffix.starts_with('d') {
            &mut depth
        } else {
            &mut width
        };
        if slot.is_some() {
            return Err(spec_error(format!(
                "synthetic network '{name}': duplicate '{}' override",
                &suffix[..1]
            )));
        }
        *slot = Some(value);
        base = &base[..pos];
    }
    let scenario = SCENARIOS.iter().find(|s| s.name == base).ok_or_else(|| {
        let known: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        spec_error(format!(
            "unknown synthetic scenario '{base}' (known: {})",
            known.join(", ")
        ))
    })?;
    Ok((scenario.builder)(
        depth.unwrap_or(scenario.default_depth),
        width.unwrap_or(scenario.default_width),
    ))
}

/// Resolves a family name straight to the generated [`NetworkArch`]:
/// [`spec_from_name`] followed by [`SyntheticNetSpec::build`].
///
/// # Errors
///
/// As [`spec_from_name`] and [`SyntheticNetSpec::build`].
pub fn network_from_name(name: &str) -> Result<NetworkArch> {
    spec_from_name(name)?.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    #[test]
    fn deep_thin_matches_the_resnet_idiom() {
        let net = deep_thin(18, 8).build().unwrap();
        assert_eq!(net.name, "synthetic:deep-thin-d18-w8");
        // Stem + 18 blocks + fc.
        assert_eq!(net.layers.len(), 20);
        assert!(!net.layers.first().unwrap().compressible);
        assert!(!net.layers.last().unwrap().compressible);
        assert_eq!(net.compressible_convs().len(), 18);
        // Downsampling: stage 1 at 32, stage 2's first block still sees 32
        // (pre-stride), later stage-2 blocks see 16, stage 3 ends at 8.
        let convs = net.compressible_convs();
        let (name, shape) = convs[6];
        assert_eq!(name, "stage2.block0");
        assert_eq!(shape.input_h, 32);
        assert_eq!(shape.stride, 2);
        let (_, last) = convs[convs.len() - 1];
        assert_eq!(last.input_h, 8);
        assert_eq!(last.out_channels, 32, "4x width of 8");
    }

    #[test]
    fn linear_ramp_interpolates_block_channels() {
        // Stage 2 of deep-thin-d18-w8 ramps 8 -> 16 over 6 blocks.
        let net = deep_thin(18, 8).build().unwrap();
        let convs = net.compressible_convs();
        let stage2: Vec<usize> = convs
            .iter()
            .filter(|(name, _)| name.starts_with("stage2"))
            .map(|(_, c)| c.out_channels)
            .collect();
        assert_eq!(stage2, vec![9, 10, 12, 13, 14, 16]);
    }

    #[test]
    fn depthwise_blocks_lower_to_one_conv_per_group() {
        let net = depthwise_heavy(3, 4).build().unwrap();
        // Stage 1, block 0: 4 -> 4 channels at groups=4: four 1->1 convs.
        let g: Vec<&str> = net
            .compressible_convs()
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| name.starts_with("stage1.block0"))
            .collect();
        assert_eq!(
            g,
            vec![
                "stage1.block0.g0",
                "stage1.block0.g1",
                "stage1.block0.g2",
                "stage1.block0.g3"
            ]
        );
        for (name, shape) in net.compressible_convs() {
            if name.starts_with("stage1.block0") {
                assert_eq!((shape.in_channels, shape.out_channels), (1, 1), "{name}");
            }
            if name == "stage1.proj0" {
                assert_eq!((shape.kernel_h, shape.in_channels), (1, 4), "{name}");
            }
        }
    }

    #[test]
    fn group_requests_clamp_to_the_gcd() {
        assert_eq!(effective_groups(8, 8, 8), 8);
        assert_eq!(effective_groups(16, 8, 16), 8);
        assert_eq!(effective_groups(8, 6, 4), 2);
        assert_eq!(effective_groups(3, 8, 8), 2, "3 does not divide 8");
        assert_eq!(effective_groups(1, 7, 13), 1);
        assert_eq!(effective_groups(9, 9, 3), 3);
    }

    #[test]
    fn projections_are_pointwise_matmuls() {
        let net = matmul_projection(4, 32).build().unwrap();
        let projections: Vec<&ConvShape> = net
            .compressible_convs()
            .iter()
            .filter(|(name, _)| name.contains("proj"))
            .map(|&(_, shape)| shape)
            .collect();
        assert_eq!(projections.len(), 8, "4 per stage, 2 stages");
        for shape in projections {
            assert_eq!((shape.kernel_h, shape.kernel_w, shape.padding), (1, 1, 0));
            assert_eq!(shape.in_channels, shape.out_channels);
        }
    }

    #[test]
    fn parameterized_names_resolve_with_overrides_in_any_order() {
        for name in ["synthetic:deep-thin-d32-w16", "synthetic:deep-thin-w16-d32"] {
            let spec = spec_from_name(name).unwrap();
            assert_eq!(spec.name, "synthetic:deep-thin-d32-w16", "{name}");
            assert_eq!(spec.stages.iter().map(|s| s.blocks).sum::<usize>(), 32);
            assert_eq!(spec.stages[2].channels, 64);
        }
        // Defaults fill in, canonicalizing the name.
        let spec = spec_from_name("synthetic:wide-shallow").unwrap();
        assert_eq!(spec.name, "synthetic:wide-shallow-d2-w64");
        // The canonical name resolves to itself (the registry family's
        // fixed point).
        let again = spec_from_name(&spec.name).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn malformed_names_are_spec_errors() {
        for name in [
            "synthetic:unknown-scenario",
            "synthetic:",
            "synthetic:deep-thin-d4-d8",
            "synthetic:deep-thin-w1-w2",
            "resnet20",
        ] {
            let err = spec_from_name(name).unwrap_err();
            assert!(matches!(err, Error::Spec { .. }), "{name}: {err}");
        }
    }

    #[test]
    fn every_scenario_builds_at_defaults() {
        for scenario in &SCENARIOS {
            let spec = (scenario.builder)(scenario.default_depth, scenario.default_width);
            let net = spec.build().unwrap();
            assert!(net.layers.len() >= 3, "{}", scenario.name);
            assert!(net.parameter_count() > 0, "{}", scenario.name);
            assert!(
                net.compressible_convs().len() >= 2,
                "{} needs compressible work",
                scenario.name
            );
            // The arch name is the canonical family name, resolvable again.
            assert_eq!(network_from_name(&net.name).unwrap().name, net.name);
        }
    }

    #[test]
    fn json_round_trips_canonically() {
        let mut spec = deep_thin(6, 4);
        spec.classes = 100;
        spec.baseline_accuracy = 72.4;
        let text = spec.to_json();
        let back = SyntheticNetSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "canonical parse -> write is stable");

        // Defaults are omitted on the wire and restored on parse.
        let minimal = SyntheticNetSpec::new("tiny", vec![StageSpec::new(1, 4)]);
        let text = minimal.to_json();
        assert_eq!(
            text,
            "{\"name\":\"tiny\",\"stages\":[{\"blocks\":1,\"channels\":4}]}"
        );
        assert_eq!(SyntheticNetSpec::from_json(&text).unwrap(), minimal);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in [
            "[1]",
            "{\"stages\":[]}",
            "{\"name\":\"x\"}",
            "{\"name\":\"x\",\"stages\":[],\"extra\":1}",
            "{\"name\":\"x\",\"stages\":[{\"channels\":4}]}",
            "{\"name\":\"x\",\"stages\":[{\"blocks\":1,\"channels\":4,\"ramp\":\"cubic\"}]}",
            "{\"name\":\"x\",\"stages\":[{\"blocks\":1,\"channels\":4,\"nope\":1}]}",
        ] {
            assert!(
                matches!(SyntheticNetSpec::from_json(doc), Err(Error::Spec { .. })),
                "{doc}"
            );
        }
        // Geometry failures surface at build time with the network name.
        let impossible = SyntheticNetSpec::new("shrunk", vec![StageSpec::new(1, 4).stride(2); 8]);
        let err = impossible.build().unwrap_err();
        assert!(matches!(err, Error::Spec { .. }), "{err}");
        assert!(err.to_string().contains("shrunk"), "{err}");

        let zero = SyntheticNetSpec::new("zeroed", vec![StageSpec::new(0, 4)]);
        assert!(matches!(zero.build(), Err(Error::Spec { .. })));
    }
}
