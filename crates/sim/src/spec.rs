//! Declarative experiment requests: the versioned `imc.experiment-spec`
//! JSON document.
//!
//! The sharded-record format of [`crate::record`] standardized the *output*
//! side of the experiment pipeline; this module standardizes the *input*
//! side. An [`ExperimentSpec`] is a wire-format description of one
//! [`Experiment`](crate::experiment::Experiment) — networks, array sizes and
//! compression strategies **by name**, plus seed, precision and the
//! execution knobs — so a driver, CI job or shard worker can submit any
//! sweep (the paper's fig6–9/table1 grids or a novel scenario) as data
//! instead of a recompiled Rust program.
//!
//! # Format (version 1)
//!
//! ```json
//! {
//!   "format": "imc.experiment-spec",
//!   "version": 1,
//!   "seed": 2025,
//!   "precision": "f64",
//!   "networks": ["resnet20"],
//!   "arrays": [32, 64],
//!   "strategies": [
//!     {"method": "im2col"},
//!     {"method": "lowrank", "groups": 4, "rank": {"divisor": 8}, "sdk": true},
//!     {"method": "patdnn", "entries": 4}
//!   ]
//! }
//! ```
//!
//! * `format` and `version` gate compatibility exactly like the run-record
//!   header: readers reject unknown formats and versions.
//! * `seed` (default [`DEFAULT_SEED`]) and `precision` (`"f64"` — the
//!   default — or `"f32"`) pin reproducibility.
//! * Two optional members tune execution without changing results:
//!   `"parallelism": N` (worker count; omitted = one per hardware thread)
//!   and `"cells": {"start": A, "end": B}` (restrict the run to a cell
//!   range of the grid — the sharding primitive, usually supplied by the
//!   driver via `imc run --cells` instead of baked into the spec). A third,
//!   `"cache": false`, is accepted and kept for round-trips, but selects
//!   nothing: every run evaluates through a decomposition cache.
//! * `"frontier": true` (default `false`) requests a frontier run
//!   ([`Experiment::frontier`]): the full grid runs, and only the records on
//!   the per-method-series accuracy/cycles Pareto front of each (network,
//!   array) panel are returned. Frontier runs are marked in their manifest
//!   and never merge with exhaustive shards.
//! * `networks` and `strategies` are resolved against a
//!   [`Registry`](crate::registry::Registry): the built-in names are
//!   pre-registered, external [`CompressionStrategy`] implementations and
//!   custom networks register under their own names and become addressable
//!   over the wire with zero changes here. Unknown names surface as
//!   [`Error::Spec`].
//!
//! # Round-trip and provenance
//!
//! [`Experiment::to_spec`](crate::experiment::Experiment::to_spec) and
//! [`ExperimentSpec::into_experiment`] are lossless inverses for every
//! spec-serializable experiment (one built from
//! [`CompressionMethod`](crate::network::CompressionMethod)s and/or
//! registry-built strategies). Every run of such an experiment embeds a
//! [`RunManifest`] — seed, precision, parallelism, cell range, spec format
//! version and the spec [content hash](ExperimentSpec::content_hash) — into
//! its serialized header, so a merged run records exactly what produced it.

use std::ops::Range;
use std::path::Path;

use imc_array::ArrayConfig;
use imc_core::{CompressionConfig, Precision, RankSpec};

use crate::experiment::Experiment;
use crate::experiments::DEFAULT_SEED;
use crate::json::{json_string, JsonValue};
use crate::network::CompressionMethod;
use crate::registry::Registry;
use crate::synth::SyntheticNetSpec;
use crate::{Error, Result};

/// Format tag of the experiment-spec document.
pub const SPEC_FORMAT: &str = "imc.experiment-spec";

/// Current version of the experiment-spec format; readers reject other
/// versions.
pub const SPEC_FORMAT_VERSION: u64 = 1;

pub(crate) fn spec_error(what: impl Into<String>) -> Error {
    Error::Spec { what: what.into() }
}

/// Re-labels a JSON syntax error (raised as [`Error::Record`] by the shared
/// parser) as a spec error, since here the malformed document is a spec.
pub(crate) fn as_spec_error(error: Error) -> Error {
    match error {
        Error::Record { what } => Error::Spec { what },
        other => other,
    }
}

/// The inverse re-label: manifest headers embed spec-level tokens (array
/// axes), whose parse errors must surface as record errors there.
fn as_record_error(error: Error) -> Error {
    match error {
        Error::Spec { what } => Error::Record {
            what: format!("manifest: {what}"),
        },
        other => other,
    }
}

pub(crate) fn precision_name(precision: Precision) -> &'static str {
    match precision {
        Precision::F64 => "f64",
        Precision::F32 => "f32",
    }
}

pub(crate) fn precision_from_name(name: &str) -> Option<Precision> {
    match name {
        "f64" => Some(Precision::F64),
        "f32" => Some(Precision::F32),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Strategy specs.
// ---------------------------------------------------------------------------

/// One strategy entry of a spec: a JSON object with a `"method"` name and
/// method-specific parameters, e.g.
/// `{"method": "lowrank", "groups": 4, "rank": {"divisor": 8}, "sdk": true}`.
///
/// The five built-in methods have canonical encodings
/// ([`builtin_method_spec`]); external strategies use whatever parameter
/// members their registered factory understands — the whole object is handed
/// to the factory verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategySpec {
    value: JsonValue,
}

impl StrategySpec {
    /// A spec naming `method` with no parameters.
    pub fn new(method: impl Into<String>) -> Self {
        Self {
            value: JsonValue::Object(vec![(
                "method".to_owned(),
                JsonValue::String(method.into()),
            )]),
        }
    }

    /// Appends one parameter member (builder-style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        if let JsonValue::Object(members) = &mut self.value {
            members.push((key.into(), value));
        }
        self
    }

    /// Appends an unsigned-integer parameter member.
    #[must_use]
    pub fn with_usize(self, key: impl Into<String>, value: usize) -> Self {
        self.with(key, JsonValue::Number(value.to_string()))
    }

    /// Appends a boolean parameter member.
    #[must_use]
    pub fn with_bool(self, key: impl Into<String>, value: bool) -> Self {
        self.with(key, JsonValue::Bool(value))
    }

    /// Wraps a parsed JSON value, validating the shape (an object with a
    /// string `"method"` member).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when the value is not such an object.
    pub fn from_value(value: JsonValue) -> Result<Self> {
        match &value {
            JsonValue::Object(_) => {}
            _ => return Err(spec_error("strategy entries must be JSON objects")),
        }
        if value.get("method").and_then(JsonValue::as_str).is_none() {
            return Err(spec_error("strategy entries need a string 'method' member"));
        }
        Ok(Self { value })
    }

    /// The method name.
    pub fn method(&self) -> &str {
        self.value
            .get("method")
            .and_then(JsonValue::as_str)
            .expect("validated on construction")
    }

    /// A parameter member by key (`"method"` included).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.value.get(key)
    }

    /// The underlying JSON object.
    pub fn value(&self) -> &JsonValue {
        &self.value
    }

    /// Serializes as a compact JSON object (member order preserved).
    pub fn to_json(&self) -> String {
        self.value.to_json()
    }

    fn usize_param(&self, key: &str) -> Result<usize> {
        self.get(key).and_then(JsonValue::as_usize).ok_or_else(|| {
            spec_error(format!(
                "strategy '{}': member '{key}' must be a non-negative integer",
                self.method()
            ))
        })
    }

    fn bool_param(&self, key: &str) -> Result<bool> {
        self.get(key).and_then(JsonValue::as_bool).ok_or_else(|| {
            spec_error(format!(
                "strategy '{}': member '{key}' must be a boolean",
                self.method()
            ))
        })
    }

    /// Rejects parameter members outside `allowed` — built-in methods parse
    /// strictly so a typo fails loudly instead of being ignored.
    fn check_keys(&self, allowed: &[&str]) -> Result<()> {
        if let JsonValue::Object(members) = &self.value {
            for (key, _) in members {
                if key != "method" && !allowed.contains(&key.as_str()) {
                    return Err(spec_error(format!(
                        "strategy '{}': unknown member '{key}' (allowed: {})",
                        self.method(),
                        if allowed.is_empty() {
                            "none".to_owned()
                        } else {
                            allowed.join(", ")
                        }
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The canonical spec encoding of a built-in [`CompressionMethod`].
pub fn builtin_method_spec(method: &CompressionMethod) -> StrategySpec {
    match *method {
        CompressionMethod::Uncompressed { sdk: false } => StrategySpec::new("im2col"),
        CompressionMethod::Uncompressed { sdk: true } => StrategySpec::new("sdk"),
        CompressionMethod::LowRank(cfg) => {
            let rank = match cfg.rank {
                RankSpec::Divisor(d) => JsonValue::Object(vec![(
                    "divisor".to_owned(),
                    JsonValue::Number(d.to_string()),
                )]),
                RankSpec::Absolute(k) => JsonValue::Object(vec![(
                    "absolute".to_owned(),
                    JsonValue::Number(k.to_string()),
                )]),
            };
            StrategySpec::new("lowrank")
                .with_usize("groups", cfg.groups)
                .with("rank", rank)
                .with_bool("sdk", cfg.use_sdk)
        }
        CompressionMethod::PatternPruning { entries } => {
            StrategySpec::new("patdnn").with_usize("entries", entries)
        }
        CompressionMethod::Pairs { entries } => {
            StrategySpec::new("pairs").with_usize("entries", entries)
        }
        CompressionMethod::Quantized { bits } => {
            StrategySpec::new("dorefa").with_usize("bits", bits)
        }
    }
}

/// Parses the canonical encoding of a built-in method back into its
/// [`CompressionMethod`] — the inverse of [`builtin_method_spec`], and what
/// the pre-registered registry factories run.
///
/// # Errors
///
/// Returns [`Error::Spec`] on an unknown method name, a missing/mistyped
/// parameter, an unknown parameter member, or a parameter combination the
/// method itself rejects.
pub fn builtin_method_from_spec(spec: &StrategySpec) -> Result<CompressionMethod> {
    match spec.method() {
        "im2col" => {
            spec.check_keys(&[])?;
            Ok(CompressionMethod::Uncompressed { sdk: false })
        }
        "sdk" => {
            spec.check_keys(&[])?;
            Ok(CompressionMethod::Uncompressed { sdk: true })
        }
        "lowrank" => {
            spec.check_keys(&["groups", "rank", "sdk"])?;
            let groups = spec.usize_param("groups")?;
            let rank_value = spec
                .get("rank")
                .ok_or_else(|| spec_error("strategy 'lowrank': missing member 'rank'"))?;
            let rank =
                match (
                    rank_value.get("divisor").and_then(JsonValue::as_usize),
                    rank_value.get("absolute").and_then(JsonValue::as_usize),
                ) {
                    (Some(d), None) => RankSpec::Divisor(d),
                    (None, Some(k)) => RankSpec::Absolute(k),
                    _ => return Err(spec_error(
                        "strategy 'lowrank': 'rank' must be {\"divisor\": N} or {\"absolute\": N}",
                    )),
                };
            let use_sdk = spec.bool_param("sdk")?;
            let cfg = CompressionConfig::new(rank, groups, use_sdk)
                .map_err(|e| spec_error(format!("strategy 'lowrank': {e}")))?;
            Ok(CompressionMethod::LowRank(cfg))
        }
        "patdnn" => {
            spec.check_keys(&["entries"])?;
            Ok(CompressionMethod::PatternPruning {
                entries: spec.usize_param("entries")?,
            })
        }
        "pairs" => {
            spec.check_keys(&["entries"])?;
            Ok(CompressionMethod::Pairs {
                entries: spec.usize_param("entries")?,
            })
        }
        "dorefa" => {
            spec.check_keys(&["bits"])?;
            Ok(CompressionMethod::Quantized {
                bits: spec.usize_param("bits")?,
            })
        }
        other => Err(spec_error(format!("unknown built-in method '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Array sweep axes.
// ---------------------------------------------------------------------------

/// One entry of a spec's `"arrays"` member: an addressable point on the
/// array-geometry/ADC-precision sweep axes.
///
/// Two wire encodings exist:
///
/// * a bare integer `N` — the classic square `N`×`N` array at the default
///   4-bit cells, weights and ADC precision (how every pre-existing spec is
///   written, and how every default axis is re-emitted, so those documents
///   stay byte-stable), or
/// * an object `{"rows": R, "cols": C, "weight_bits": W, "adc_bits": B}`
///   (`cols` defaults to `rows`; `weight_bits`/`adc_bits` default to 4)
///   opening the rectangular-geometry and precision axes.
///
/// `adc_bits` sets the array's bit-serial input/ADC resolution
/// ([`ArrayConfig::input_bits`]): evaluation cycle counts scale by
/// `adc_bits / 4` relative to the 4-bit baseline (see
/// [`imc_quant::activation_cycle_scale`]), and
/// [`EnergyParams::with_adc_bits`](imc_energy::EnergyParams::with_adc_bits)
/// applies the matching ADC energy scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayAxis {
    /// Array rows (the wordline count; also the recorded
    /// [`array_size`](crate::experiment::RunRecord::array_size)).
    pub rows: usize,
    /// Array columns (bitlines).
    pub cols: usize,
    /// Bits stored per weight.
    pub weight_bits: usize,
    /// Bit-serial input/ADC precision in bits (default 4).
    pub adc_bits: usize,
}

impl ArrayAxis {
    /// Bit width every axis member defaults to.
    pub const DEFAULT_BITS: usize = 4;

    /// The classic square axis: `size`×`size` at default precisions —
    /// exactly what a bare integer in a spec's `"arrays"` member means.
    pub fn square(size: usize) -> Self {
        Self {
            rows: size,
            cols: size,
            weight_bits: Self::DEFAULT_BITS,
            adc_bits: Self::DEFAULT_BITS,
        }
    }

    /// Whether this axis is a default square one (encodable as a bare
    /// integer on the wire).
    pub fn is_square_default(&self) -> bool {
        self.cols == self.rows
            && self.weight_bits == Self::DEFAULT_BITS
            && self.adc_bits == Self::DEFAULT_BITS
    }

    /// Lowers the axis into the crossbar model's [`ArrayConfig`] (cells stay
    /// at the model's default 4 bits; `adc_bits` becomes the bit-serial
    /// `input_bits`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Array`](crate::Error::Array) when a member is zero.
    pub fn to_config(&self) -> Result<ArrayConfig> {
        Ok(ArrayConfig::new(
            self.rows,
            self.cols,
            Self::DEFAULT_BITS,
            self.weight_bits,
            self.adc_bits,
        )?)
    }

    /// The compact wire token: a bare integer for default square axes, the
    /// full object otherwise.
    pub fn spec_token(&self) -> String {
        if self.is_square_default() {
            self.rows.to_string()
        } else {
            format!(
                "{{\"rows\":{},\"cols\":{},\"weight_bits\":{},\"adc_bits\":{}}}",
                self.rows, self.cols, self.weight_bits, self.adc_bits
            )
        }
    }

    /// The pretty token used inside [`ExperimentSpec::to_json`] documents.
    fn pretty_token(&self) -> String {
        if self.is_square_default() {
            self.rows.to_string()
        } else {
            format!(
                "{{\"rows\": {}, \"cols\": {}, \"weight_bits\": {}, \"adc_bits\": {}}}",
                self.rows, self.cols, self.weight_bits, self.adc_bits
            )
        }
    }

    /// Parses one `"arrays"` entry (either wire encoding; unknown object
    /// members are rejected).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on a malformed entry.
    pub fn from_spec_value(value: &JsonValue) -> Result<Self> {
        if let Some(size) = value.as_usize() {
            return Ok(Self::square(size));
        }
        let members = value.as_object().ok_or_else(|| {
            spec_error(
                "member 'arrays' entries must be integers or \
                 {\"rows\": R, \"cols\": C, \"weight_bits\": W, \"adc_bits\": B} objects",
            )
        })?;
        const KNOWN: [&str; 4] = ["rows", "cols", "weight_bits", "adc_bits"];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(spec_error(format!(
                    "array axis: unknown member '{key}' (allowed: {})",
                    KNOWN.join(", ")
                )));
            }
        }
        let rows = value
            .get("rows")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| spec_error("array axis: missing integer member 'rows'"))?;
        let optional = |key: &str, default: usize| match value.get(key) {
            None => Ok(default),
            Some(v) => v.as_usize().ok_or_else(|| {
                spec_error(format!(
                    "array axis: member '{key}' must be a non-negative integer"
                ))
            }),
        };
        Ok(Self {
            rows,
            cols: optional("cols", rows)?,
            weight_bits: optional("weight_bits", Self::DEFAULT_BITS)?,
            adc_bits: optional("adc_bits", Self::DEFAULT_BITS)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The spec document.
// ---------------------------------------------------------------------------

/// A declarative, versioned experiment request: the wire-format twin of the
/// [`Experiment`](crate::experiment::Experiment) builder.
///
/// See the [module docs](self) for the JSON schema. Construct one with
/// [`Experiment::to_spec`](crate::experiment::Experiment::to_spec), by
/// filling the fields directly, or by parsing
/// ([`ExperimentSpec::from_json`]); turn it back into a runnable experiment
/// with [`ExperimentSpec::into_experiment`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment seed (every weight tensor derives from it).
    pub seed: u64,
    /// Width of the decomposition kernels (`f64` reference or `f32` fast
    /// path).
    pub precision: Precision,
    /// Worker count; `None` = one per available hardware thread. Never
    /// affects results.
    pub parallelism: Option<usize>,
    /// The `"cache"` member (default `true`). It selects nothing — every run
    /// evaluates through a decomposition cache, which never affects results
    /// — and is kept so stored documents that carry `"cache": false` still
    /// parse, run and round-trip unchanged.
    pub cache: bool,
    /// Restriction to a contiguous cell range of the grid (the sharding
    /// primitive); `None` = the full grid.
    pub cells: Option<Range<usize>>,
    /// Whether the run is a frontier run ([`Experiment::frontier`]) returning
    /// only the per-method-series Pareto front instead of the exhaustive grid
    /// (default `false`).
    pub frontier: bool,
    /// Inline synthetic-network generator documents ([`crate::synth`]);
    /// empty for every pre-PR-9 spec. Each document's `name` becomes
    /// resolvable from `networks` (taking precedence over the registry), so
    /// a novel conv topology rides along inside the spec itself.
    pub synthetic_networks: Vec<SyntheticNetSpec>,
    /// Network names, resolved against `synthetic_networks` first, then via
    /// [`Registry`](crate::registry::Registry).
    pub networks: Vec<String>,
    /// Array sweep axes (square sizes, rectangular geometries, ADC
    /// precisions — see [`ArrayAxis`]).
    pub arrays: Vec<ArrayAxis>,
    /// Strategy entries, resolved via [`Registry`](crate::registry::Registry).
    pub strategies: Vec<StrategySpec>,
}

impl ExperimentSpec {
    /// Serializes the spec as the canonical pretty-printed v1 document: the
    /// exact inverse of [`ExperimentSpec::from_json`] (parse → write is
    /// byte-identical for canonical documents).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {},\n", json_string(SPEC_FORMAT)));
        out.push_str(&format!("  \"version\": {SPEC_FORMAT_VERSION},\n"));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"precision\": {},\n",
            json_string(precision_name(self.precision))
        ));
        if let Some(workers) = self.parallelism {
            out.push_str(&format!("  \"parallelism\": {workers},\n"));
        }
        if !self.cache {
            out.push_str("  \"cache\": false,\n");
        }
        if let Some(cells) = &self.cells {
            out.push_str(&format!(
                "  \"cells\": {{\"start\": {}, \"end\": {}}},\n",
                cells.start, cells.end
            ));
        }
        if self.frontier {
            out.push_str("  \"frontier\": true,\n");
        }
        // Emitted only when used, so every pre-existing spec stays
        // byte-stable (the same pattern as "frontier" above).
        if !self.synthetic_networks.is_empty() {
            out.push_str("  \"synthetic_networks\": [\n");
            for (i, doc) in self.synthetic_networks.iter().enumerate() {
                out.push_str("    ");
                out.push_str(&doc.to_json());
                out.push_str(if i + 1 < self.synthetic_networks.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ],\n");
        }
        let networks: Vec<String> = self.networks.iter().map(|n| json_string(n)).collect();
        out.push_str(&format!("  \"networks\": [{}],\n", networks.join(", ")));
        let arrays: Vec<String> = self.arrays.iter().map(ArrayAxis::pretty_token).collect();
        out.push_str(&format!("  \"arrays\": [{}],\n", arrays.join(", ")));
        if self.strategies.is_empty() {
            out.push_str("  \"strategies\": []\n");
        } else {
            out.push_str("  \"strategies\": [\n");
            for (i, strategy) in self.strategies.iter().enumerate() {
                out.push_str("    ");
                out.push_str(&strategy.to_json());
                out.push_str(if i + 1 < self.strategies.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Parses a v1 spec document, validating the format tag, the version and
    /// every member (unknown members are rejected so typos fail loudly).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on malformed JSON, an unknown format or
    /// version, a missing required member, or an unknown member.
    pub fn from_json(input: &str) -> Result<Self> {
        let value = JsonValue::parse(input).map_err(as_spec_error)?;
        Self::from_value(&value)
    }

    fn from_value(value: &JsonValue) -> Result<Self> {
        let members = value
            .as_object()
            .ok_or_else(|| spec_error("spec document must be a JSON object"))?;

        // Gate on format and version *before* validating the member set: a
        // future-version document may legitimately carry members this
        // reader has never heard of, and "unsupported version 2" is the
        // actionable error — not a complaint about the first such member.
        let format = value
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| spec_error("missing string member 'format'"))?;
        if format != SPEC_FORMAT {
            return Err(spec_error(format!(
                "unknown format '{format}' (expected '{SPEC_FORMAT}')"
            )));
        }
        let version = match value.get("version") {
            None => return Err(spec_error("missing integer member 'version'")),
            Some(v) => v.as_u64().ok_or_else(|| {
                spec_error(format!(
                    "member 'version' must be a non-negative integer, got {}",
                    v.to_json()
                ))
            })?,
        };
        if version != SPEC_FORMAT_VERSION {
            return Err(spec_error(format!(
                "unsupported version {version} (this reader understands version {SPEC_FORMAT_VERSION})"
            )));
        }

        const KNOWN: [&str; 12] = [
            "format",
            "version",
            "seed",
            "precision",
            "parallelism",
            "cache",
            "cells",
            "frontier",
            "synthetic_networks",
            "networks",
            "arrays",
            "strategies",
        ];
        for (key, _) in members {
            if !KNOWN.contains(&key.as_str()) {
                return Err(spec_error(format!("unknown spec member '{key}'")));
            }
        }

        let seed = match value.get("seed") {
            None => DEFAULT_SEED,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| spec_error("member 'seed' must be a non-negative integer"))?,
        };
        let precision = match value.get("precision") {
            None => Precision::F64,
            Some(v) => {
                let name = v
                    .as_str()
                    .ok_or_else(|| spec_error("member 'precision' must be a string"))?;
                precision_from_name(name).ok_or_else(|| {
                    spec_error(format!("unknown precision '{name}' (use 'f64' or 'f32')"))
                })?
            }
        };
        let parallelism = match value.get("parallelism") {
            None | Some(JsonValue::Null) => None,
            Some(v) => {
                let workers = v.as_usize().ok_or_else(|| {
                    spec_error("member 'parallelism' must be a positive integer or null")
                })?;
                // The builder clamps worker counts to at least 1; accepting 0
                // here would silently rewrite the request (and its manifest).
                if workers == 0 {
                    return Err(spec_error(
                        "member 'parallelism' must be at least 1 (omit it for one \
                         worker per hardware thread)",
                    ));
                }
                Some(workers)
            }
        };
        let cache = match value.get("cache") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| spec_error("member 'cache' must be a boolean"))?,
        };
        let cells = match value.get("cells") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(parse_cells(v).map_err(spec_error)?),
        };
        let frontier = match value.get("frontier") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| spec_error("member 'frontier' must be a boolean"))?,
        };
        if frontier && cells.is_some() {
            return Err(spec_error(
                "a frontier spec filters the full grid and cannot carry a 'cells' \
                 restriction",
            ));
        }

        let synthetic_networks = match value.get("synthetic_networks") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| spec_error("member 'synthetic_networks' must be an array"))?
                .iter()
                .map(SyntheticNetSpec::from_value)
                .collect::<Result<Vec<_>>>()?,
        };
        for (index, doc) in synthetic_networks.iter().enumerate() {
            if synthetic_networks[..index]
                .iter()
                .any(|d| d.name == doc.name)
            {
                return Err(spec_error(format!(
                    "member 'synthetic_networks' names '{}' more than once",
                    doc.name
                )));
            }
        }
        let networks = value
            .get("networks")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| spec_error("missing array member 'networks'"))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| spec_error("member 'networks' must contain only strings"))
            })
            .collect::<Result<Vec<_>>>()?;
        let arrays = value
            .get("arrays")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| spec_error("missing array member 'arrays'"))?
            .iter()
            .map(ArrayAxis::from_spec_value)
            .collect::<Result<Vec<_>>>()?;
        let strategies = value
            .get("strategies")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| spec_error("missing array member 'strategies'"))?
            .iter()
            .map(|s| StrategySpec::from_value(s.clone()))
            .collect::<Result<Vec<_>>>()?;

        Ok(Self {
            seed,
            precision,
            parallelism,
            cache,
            cells,
            frontier,
            synthetic_networks,
            networks,
            arrays,
            strategies,
        })
    }

    /// Writes [`ExperimentSpec::to_json`] to a file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on I/O failure.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| Error::Spec {
            what: format!("could not write {}: {e}", path.display()),
        })
    }

    /// Reads a spec from a file written by [`ExperimentSpec::save_json`] (or
    /// by hand).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] on I/O failure or any
    /// [`ExperimentSpec::from_json`] error.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let input = std::fs::read_to_string(path).map_err(|e| Error::Spec {
            what: format!("could not read {}: {e}", path.display()),
        })?;
        Self::from_json(&input)
    }

    /// Resolves the spec into a runnable
    /// [`Experiment`](crate::experiment::Experiment), looking every network
    /// and strategy name up in `registry`.
    ///
    /// The resolved experiment keeps this spec as its provenance, so
    /// [`Experiment::to_spec`](crate::experiment::Experiment::to_spec) is
    /// lossless: `spec.into_experiment(r)?.to_spec()? == spec`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] for names the registry does not know (the
    /// message lists the registered names).
    pub fn into_experiment(&self, registry: &Registry) -> Result<Experiment> {
        let mut experiment = Experiment::new().seed(self.seed).precision(self.precision);
        if let Some(workers) = self.parallelism {
            experiment = experiment.parallelism(workers);
        }
        if let Some(cells) = &self.cells {
            experiment = experiment.cells(cells.clone());
        }
        experiment = experiment.frontier_mode(self.frontier);
        // Carry the generator documents wholesale (used or not), and the
        // `cache` member, so the round-trip back to a spec is lossless.
        experiment.synthetic_networks = self.synthetic_networks.clone();
        experiment.spec_cache = self.cache;
        for name in &self.networks {
            // Inline generator documents shadow the registry: a spec that
            // carries a synthetic network resolves it without any
            // registration step.
            let inline = self.synthetic_networks.iter().find(|d| &d.name == name);
            let network = match inline {
                Some(doc) => doc.build()?,
                None => registry.build_network(name)?,
            };
            experiment = experiment.network(network);
            // Keep the spec's name (possibly a registry alias) as the
            // provenance, so the round-trip back to a spec is lossless.
            if let Some(last) = experiment.network_names.last_mut() {
                name.clone_into(last);
            }
        }
        experiment = experiment.array_axes(self.arrays.iter().copied());
        for strategy in &self.strategies {
            experiment = experiment.boxed_strategy(registry.build_strategy(strategy)?);
            if let Some(last) = experiment.strategy_specs.last_mut() {
                *last = Some(strategy.clone());
            }
        }
        Ok(experiment)
    }

    /// The FNV-1a 64-bit hash of the spec's *identity*: format, version,
    /// seed, precision, networks, arrays and strategies — the members that
    /// determine every produced value. The execution knobs (`parallelism`,
    /// `cache`) and the shard restriction (`cells`) are excluded, so all
    /// shards of one grid (and reruns at any worker count) share the hash.
    /// `frontier` is likewise excluded: a frontier run produces a subset of
    /// the same grid's values, so it shares the exhaustive run's hash and is
    /// distinguished by the manifest's `frontier` flag instead.
    pub fn content_hash(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in self.identity_json().as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// The compact serialization [`ExperimentSpec::content_hash`] runs over.
    fn identity_json(&self) -> String {
        let networks: Vec<String> = self.networks.iter().map(|n| json_string(n)).collect();
        let arrays: Vec<String> = self.arrays.iter().map(ArrayAxis::spec_token).collect();
        let strategies: Vec<String> = self.strategies.iter().map(StrategySpec::to_json).collect();
        // Inline generator documents determine produced values, so they are
        // part of the identity — but the segment appears only when used, so
        // every pre-existing spec keeps its hash.
        let synthetic = if self.synthetic_networks.is_empty() {
            String::new()
        } else {
            let docs: Vec<String> = self
                .synthetic_networks
                .iter()
                .map(SyntheticNetSpec::to_json)
                .collect();
            format!("\"synthetic_networks\":[{}],", docs.join(","))
        };
        format!(
            "{{\"format\":{},\"version\":{},\"seed\":{},\"precision\":{},{}\"networks\":[{}],\"arrays\":[{}],\"strategies\":[{}]}}",
            json_string(SPEC_FORMAT),
            SPEC_FORMAT_VERSION,
            self.seed,
            json_string(precision_name(self.precision)),
            synthetic,
            networks.join(","),
            arrays.join(","),
            strategies.join(","),
        )
    }
}

/// Parses a `{"start": A, "end": B}` object; the caller wraps the message
/// in the error kind of its own format (spec vs record).
fn parse_cells(value: &JsonValue) -> core::result::Result<Range<usize>, String> {
    let member = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| "'cells' must be {\"start\": A, \"end\": B}".to_owned())
    };
    Ok(member("start")?..member("end")?)
}

// ---------------------------------------------------------------------------
// The reproducibility manifest embedded in run headers.
// ---------------------------------------------------------------------------

/// What produced a run: the reproducibility manifest embedded into the
/// header of every serialized [`ExperimentRun`](crate::experiment::ExperimentRun)
/// whose experiment was spec-serializable.
///
/// `seed`, `precision` and `spec_hash` identify the grid's values
/// completely; `cells` records which slice of the grid this run covers
/// (shards keep their subrange, and
/// [`ExperimentRun::merge`](crate::experiment::ExperimentRun::merge)
/// reassembles the covered span). `parallelism` records the requested worker
/// knob for the record — results never depend on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Experiment seed.
    pub seed: u64,
    /// Decomposition-kernel width.
    pub precision: Precision,
    /// Requested worker count (`None` = one per hardware thread). Recorded
    /// for provenance only; results are identical for every worker count.
    pub parallelism: Option<usize>,
    /// The (global) cell range this run covers; the full grid for unsharded
    /// runs.
    pub cells: Range<usize>,
    /// The experiment's array sweep axes, recorded only when at least one
    /// axis leaves the default square geometry (`None` otherwise, keeping
    /// pre-axis headers byte-identical). Lets a reader recover the full
    /// geometry/ADC layout of the grid from the header alone —
    /// [`RunRecord::array_size`](crate::experiment::RunRecord::array_size)
    /// only carries rows.
    pub arrays: Option<Vec<ArrayAxis>>,
    /// Whether the run is a frontier run ([`Experiment::frontier`]): its
    /// records are the per-method-series Pareto front of the grid, not an
    /// exhaustive slice. Frontier runs never merge with exhaustive shards.
    pub frontier: bool,
    /// [`SPEC_FORMAT_VERSION`] of the producing spec.
    pub spec_version: u64,
    /// [`ExperimentSpec::content_hash`] of the producing spec.
    pub spec_hash: u64,
}

impl RunManifest {
    /// The spec content hash as the 16-digit hex string used on the wire.
    pub fn spec_hash_hex(&self) -> String {
        format!("{:016x}", self.spec_hash)
    }

    /// Serializes as the compact header object.
    pub(crate) fn to_header_json(&self) -> String {
        format!(
            "{{\"spec_version\":{},\"spec_hash\":{},\"seed\":{},\"precision\":{},\"parallelism\":{},\"cells\":{{\"start\":{},\"end\":{}}}{}{}}}",
            self.spec_version,
            json_string(&self.spec_hash_hex()),
            self.seed,
            json_string(precision_name(self.precision)),
            match self.parallelism {
                Some(workers) => workers.to_string(),
                None => "null".to_owned(),
            },
            self.cells.start,
            self.cells.end,
            // Both trailing members are emitted only when set, so readers
            // predating them keep parsing default headers byte-identically.
            match &self.arrays {
                None => String::new(),
                Some(axes) => {
                    let tokens: Vec<String> = axes.iter().map(ArrayAxis::spec_token).collect();
                    format!(",\"arrays\":[{}]", tokens.join(","))
                }
            },
            if self.frontier { ",\"frontier\":true" } else { "" },
        )
    }

    /// Parses the header object written by
    /// [`RunManifest::to_header_json`]. Raised errors use [`Error::Record`]:
    /// a malformed manifest is a malformed record file.
    pub(crate) fn from_header_value(value: &JsonValue) -> Result<Self> {
        let record_error = |what: String| Error::Record { what };
        let spec_version = value
            .get("spec_version")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| record_error("manifest: missing integer 'spec_version'".into()))?;
        let hex = value
            .get("spec_hash")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| record_error("manifest: missing string 'spec_hash'".into()))?;
        let spec_hash = u64::from_str_radix(hex, 16)
            .map_err(|_| record_error(format!("manifest: invalid spec hash '{hex}'")))?;
        let seed = value
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| record_error("manifest: missing integer 'seed'".into()))?;
        let precision_token = value
            .get("precision")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| record_error("manifest: missing string 'precision'".into()))?;
        let precision = precision_from_name(precision_token).ok_or_else(|| {
            record_error(format!("manifest: unknown precision '{precision_token}'"))
        })?;
        let parallelism = match value.get("parallelism") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v.as_usize().ok_or_else(|| {
                record_error("manifest: 'parallelism' must be an integer or null".into())
            })?),
        };
        let cells = value
            .get("cells")
            .ok_or_else(|| record_error("manifest: missing 'cells'".into()))
            .and_then(|v| {
                parse_cells(v).map_err(|what| record_error(format!("manifest: {what}")))
            })?;
        let arrays = match value.get("arrays") {
            None => None,
            Some(v) => Some(
                v.as_array()
                    .ok_or_else(|| record_error("manifest: 'arrays' must be an array".into()))?
                    .iter()
                    .map(|axis| ArrayAxis::from_spec_value(axis).map_err(as_record_error))
                    .collect::<Result<Vec<_>>>()?,
            ),
        };
        let frontier = match value.get("frontier") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| record_error("manifest: 'frontier' must be a boolean".into()))?,
        };
        Ok(Self {
            seed,
            precision,
            parallelism,
            cells,
            arrays,
            frontier,
            spec_version,
            spec_hash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn fixture_spec() -> ExperimentSpec {
        ExperimentSpec {
            seed: DEFAULT_SEED,
            precision: Precision::F64,
            parallelism: None,
            cache: true,
            cells: None,
            frontier: false,
            synthetic_networks: vec![],
            networks: vec!["resnet20".to_owned()],
            arrays: vec![ArrayAxis::square(32), ArrayAxis::square(64)],
            strategies: vec![
                StrategySpec::new("im2col"),
                builtin_method_spec(&CompressionMethod::LowRank(
                    CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap(),
                )),
                StrategySpec::new("patdnn").with_usize("entries", 4),
            ],
        }
    }

    #[test]
    fn spec_json_round_trips_byte_identically() {
        let spec = fixture_spec();
        let text = spec.to_json();
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "canonical parse → write is stable");
    }

    #[test]
    fn optional_members_round_trip() {
        let mut spec = fixture_spec();
        spec.parallelism = Some(3);
        spec.cache = false;
        spec.cells = Some(2..5);
        spec.precision = Precision::F32;
        let text = spec.to_json();
        assert!(text.contains("\"parallelism\": 3"), "{text}");
        assert!(text.contains("\"cache\": false"), "{text}");
        assert!(
            text.contains("\"cells\": {\"start\": 2, \"end\": 5}"),
            "{text}"
        );
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn frontier_member_round_trips_and_rejects_cells() {
        let mut spec = fixture_spec();
        spec.frontier = true;
        let text = spec.to_json();
        assert!(text.contains("\"frontier\": true"), "{text}");
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "canonical parse → write is stable");

        // A frontier spec explores the whole grid; carrying a shard
        // restriction is contradictory and must fail at parse time.
        let conflicted = text.replacen(
            "\"frontier\": true,",
            "\"frontier\": true,\n  \"cells\": {\"start\": 0, \"end\": 2},",
            1,
        );
        let err = ExperimentSpec::from_json(&conflicted).unwrap_err();
        assert!(matches!(err, Error::Spec { .. }), "wrong error {err}");
        assert!(err.to_string().contains("cells"), "{err}");

        let mistyped = text.replacen("\"frontier\": true", "\"frontier\": 1", 1);
        assert!(matches!(
            ExperimentSpec::from_json(&mistyped),
            Err(Error::Spec { .. })
        ));
    }

    #[test]
    fn manifest_frontier_flag_round_trips_and_defaults_off() {
        let manifest = RunManifest {
            seed: DEFAULT_SEED,
            precision: Precision::F64,
            parallelism: None,
            cells: 0..33,
            arrays: None,
            frontier: true,
            spec_version: SPEC_FORMAT_VERSION,
            spec_hash: 0xfeed_beef,
        };
        let json = manifest.to_header_json();
        assert!(json.ends_with("\"frontier\":true}"), "{json}");
        let parsed = RunManifest::from_header_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, manifest);

        // Exhaustive manifests omit the member entirely (old headers stay
        // byte-identical) and absent parses as false.
        let exhaustive = RunManifest {
            frontier: false,
            ..manifest
        };
        let json = exhaustive.to_header_json();
        assert!(!json.contains("frontier"), "{json}");
        let parsed = RunManifest::from_header_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, exhaustive);
    }

    #[test]
    fn array_axes_round_trip_both_wire_encodings() {
        // Bare integers mean default square axes and re-emit as integers.
        let square = ArrayAxis::from_spec_value(&JsonValue::parse("64").unwrap()).unwrap();
        assert_eq!(square, ArrayAxis::square(64));
        assert!(square.is_square_default());
        assert_eq!(square.spec_token(), "64");

        // Objects open the rectangular/ADC axes; cols and bit widths
        // default.
        let wide = ArrayAxis::from_spec_value(
            &JsonValue::parse("{\"rows\":64,\"cols\":128,\"adc_bits\":6}").unwrap(),
        )
        .unwrap();
        assert_eq!(
            wide,
            ArrayAxis {
                rows: 64,
                cols: 128,
                weight_bits: 4,
                adc_bits: 6
            }
        );
        let token = wide.spec_token();
        assert_eq!(
            token,
            "{\"rows\":64,\"cols\":128,\"weight_bits\":4,\"adc_bits\":6}"
        );
        let back = ArrayAxis::from_spec_value(&JsonValue::parse(&token).unwrap()).unwrap();
        assert_eq!(back, wide);
        let config = wide.to_config().unwrap();
        assert_eq!((config.rows, config.cols), (64, 128));
        assert_eq!((config.weight_bits, config.input_bits), (4, 6));

        for bad in ["\"64\"", "{\"cols\":64}", "{\"rows\":64,\"nope\":1}"] {
            let err = ArrayAxis::from_spec_value(&JsonValue::parse(bad).unwrap()).unwrap_err();
            assert!(matches!(err, Error::Spec { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn synthetic_networks_member_round_trips_and_is_emitted_only_when_used() {
        let plain = fixture_spec();
        assert!(
            !plain.to_json().contains("synthetic_networks"),
            "unused member must stay off the wire"
        );

        let mut spec = fixture_spec();
        spec.synthetic_networks = vec![
            crate::synth::deep_thin(6, 4),
            crate::synth::SyntheticNetSpec::new("custom", vec![crate::synth::StageSpec::new(2, 8)]),
        ];
        spec.networks = vec!["custom".to_owned(), "resnet20".to_owned()];
        let text = spec.to_json();
        assert!(text.contains("\"synthetic_networks\": [\n"), "{text}");
        let back = ExperimentSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "canonical parse → write is stable");

        // Duplicate document names are ambiguous and rejected.
        let dup = text.replacen(
            "\"name\":\"custom\"",
            "\"name\":\"synthetic:deep-thin-d6-w4\"",
            1,
        );
        let err = ExperimentSpec::from_json(&dup).unwrap_err();
        assert!(matches!(err, Error::Spec { .. }), "{err}");
        assert!(err.to_string().contains("more than once"), "{err}");

        // Inline documents shadow the registry and resolve end-to-end.
        let experiment = spec.into_experiment(&Registry::new()).unwrap();
        assert_eq!(experiment.grid_cells(), 12, "2 networks x 2 arrays x 3");
        assert_eq!(experiment.to_spec().unwrap(), spec, "lossless round-trip");
    }

    #[test]
    fn manifest_arrays_member_round_trips_and_defaults_absent() {
        let base = RunManifest {
            seed: DEFAULT_SEED,
            precision: Precision::F64,
            parallelism: None,
            cells: 0..6,
            arrays: None,
            frontier: false,
            spec_version: SPEC_FORMAT_VERSION,
            spec_hash: 0xfeed_beef,
        };
        assert!(!base.to_header_json().contains("arrays"));

        let axes = vec![
            ArrayAxis::square(32),
            ArrayAxis {
                rows: 64,
                cols: 128,
                weight_bits: 4,
                adc_bits: 6,
            },
        ];
        let recorded = RunManifest {
            arrays: Some(axes),
            frontier: true,
            ..base.clone()
        };
        let json = recorded.to_header_json();
        // The axes sit between "cells" and the trailing "frontier" member.
        assert!(json.contains(",\"arrays\":[32,{\"rows\":64,"), "{json}");
        assert!(json.ends_with("\"frontier\":true}"), "{json}");
        let parsed = RunManifest::from_header_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, recorded);
    }

    #[test]
    fn malformed_documents_are_rejected_as_spec_errors() {
        let canonical = fixture_spec().to_json();
        for (label, doc) in [
            ("not json", "{".to_owned()),
            ("not an object", "[1,2]".to_owned()),
            (
                "foreign format",
                canonical.replacen(SPEC_FORMAT, "something.else", 1),
            ),
            (
                "future version",
                canonical.replacen("\"version\": 1", "\"version\": 2", 1),
            ),
            (
                "unknown member",
                canonical.replacen("\"seed\"", "\"sede\"", 1),
            ),
            ("bad precision", canonical.replacen("\"f64\"", "\"f16\"", 1)),
            (
                "zero parallelism",
                canonical.replacen(
                    "\"precision\": \"f64\",",
                    "\"precision\": \"f64\",\n  \"parallelism\": 0,",
                    1,
                ),
            ),
        ] {
            let err = ExperimentSpec::from_json(&doc).unwrap_err();
            assert!(
                matches!(err, Error::Spec { .. }),
                "{label}: wrong error {err}"
            );
        }
    }

    #[test]
    fn builtin_methods_round_trip_through_specs() {
        let cfg = CompressionConfig::new(RankSpec::Absolute(3), 2, false).unwrap();
        for method in [
            CompressionMethod::Uncompressed { sdk: false },
            CompressionMethod::Uncompressed { sdk: true },
            CompressionMethod::LowRank(cfg),
            CompressionMethod::LowRank(
                CompressionConfig::new(RankSpec::Divisor(8), 4, true).unwrap(),
            ),
            CompressionMethod::PatternPruning { entries: 4 },
            CompressionMethod::Pairs { entries: 6 },
            CompressionMethod::Quantized { bits: 2 },
        ] {
            let spec = builtin_method_spec(&method);
            assert_eq!(builtin_method_from_spec(&spec).unwrap(), method, "{spec:?}");
        }
        // Strict parameter validation.
        for bad in [
            StrategySpec::new("lowrank"),
            StrategySpec::new("patdnn"),
            StrategySpec::new("patdnn")
                .with_usize("entries", 4)
                .with_usize("extra", 1),
            StrategySpec::new("dorefa").with_bool("bits", true),
            StrategySpec::new("nope"),
        ] {
            assert!(
                matches!(builtin_method_from_spec(&bad), Err(Error::Spec { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn content_hash_tracks_identity_not_execution_knobs() {
        let base = fixture_spec();
        let hash = base.content_hash();

        let mut knobs = base.clone();
        knobs.parallelism = Some(7);
        knobs.cache = false;
        knobs.cells = Some(0..2);
        assert_eq!(knobs.content_hash(), hash, "execution knobs excluded");

        let mut reseeded = base.clone();
        reseeded.seed = 7;
        assert_ne!(reseeded.content_hash(), hash);

        let mut regridded = base.clone();
        regridded.arrays.push(ArrayAxis::square(128));
        assert_ne!(regridded.content_hash(), hash);

        // Leaving the default square axis changes produced values, so it
        // changes the hash; spelling the same default axis as an object
        // does not (the identity uses the canonical integer token).
        let mut widened = base.clone();
        widened.arrays[0].cols = 128;
        assert_ne!(widened.content_hash(), hash);

        let mut inline = base;
        inline.synthetic_networks = vec![crate::synth::deep_thin(6, 4)];
        assert_ne!(inline.content_hash(), hash, "inline docs are identity");
    }

    #[test]
    fn manifest_header_json_round_trips() {
        let manifest = RunManifest {
            seed: DEFAULT_SEED,
            precision: Precision::F32,
            parallelism: Some(4),
            cells: 3..9,
            arrays: None,
            frontier: false,
            spec_version: SPEC_FORMAT_VERSION,
            spec_hash: 0x0123_4567_89ab_cdef,
        };
        let json = manifest.to_header_json();
        let parsed = RunManifest::from_header_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.spec_hash_hex(), "0123456789abcdef");

        let auto = RunManifest {
            parallelism: None,
            ..manifest
        };
        let json = auto.to_header_json();
        assert!(json.contains("\"parallelism\":null"), "{json}");
        let parsed = RunManifest::from_header_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, auto);
    }

    #[test]
    fn spec_resolves_and_round_trips_through_the_registry() {
        let registry = Registry::new();
        let spec = fixture_spec();
        let mut uncached = fixture_spec();
        uncached.cache = false;
        let mut runs = Vec::new();
        for spec in [&spec, &uncached] {
            let experiment = spec.into_experiment(&registry).unwrap();
            assert_eq!(
                experiment.grid_cells(),
                6,
                "1 network x 2 arrays x 3 strategies"
            );
            assert_eq!(&experiment.to_spec().unwrap(), spec, "lossless round-trip");
            runs.push(experiment.run().unwrap().to_jsonl().unwrap());
        }
        // `"cache": false` selects nothing: same key, same bytes.
        assert_eq!(
            crate::serve::RunKey::of(&uncached),
            crate::serve::RunKey::of(&spec)
        );
        assert_eq!(runs[0], runs[1]);
    }
}
