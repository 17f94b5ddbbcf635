//! Serialized run records: a versioned JSON-lines format for
//! [`ExperimentRun`]s.
//!
//! The sharded-sweep workflow needs runs to cross process (and host)
//! boundaries: a driver splits an experiment grid into cell ranges
//! ([`Experiment::cells`](crate::experiment::Experiment::cells)), each worker
//! evaluates its shard and serializes the result, and the driver merges the
//! shards back into the canonical run
//! ([`ExperimentRun::merge`](ExperimentRun::merge)). No serde-style
//! dependency is available offline, so — like the bench harness's
//! `BENCH_results.json` sink this format is modeled on — both the writer and
//! the reader are hand-rolled.
//!
//! # Format (version 1)
//!
//! One header line followed by one line per record:
//!
//! ```json
//! {"format":"imc.experiment-run","version":1,"records":2,"manifest":{"spec_version":1,"spec_hash":"93f2a1c07be4d658","seed":2025,"precision":"f64","parallelism":null,"cells":{"start":0,"end":2}}}
//! {"cell":0,"network":0,"array":64,"strategy":0,"eval":{"network":"ResNet-20","method":"uncompressed (im2col)","array_size":64,"cycles":30154,"accuracy":91.6,"parameters":268346,"schedules":[{"active_rows":27,"active_cols":16,"cols_per_weight":1,"loads":1024,"peripheral":"none"}]}}
//! {"cell":1,"network":0,"array":64,"strategy":1,"eval":{"...":"..."}}
//! ```
//!
//! * The `format` and `version` fields gate compatibility: readers reject
//!   unknown formats and versions instead of guessing.
//! * `cell` is the record's global grid index
//!   ([`RunRecord::cell_index`]), which makes shard files self-describing
//!   for [`ExperimentRun::merge`].
//! * Floating-point fields are written with Rust's shortest round-trip
//!   `Display`, so **serialization is bit-exact**: reading a line back
//!   reconstructs every `f64` bit for bit. A shard/merge round-trip of a
//!   grid is therefore byte-identical to the unsharded in-memory run.
//! * When the producing [`Experiment`](crate::experiment::Experiment) is
//!   spec-serializable, the header carries its **reproducibility manifest**
//!   ([`RunManifest`](crate::spec::RunManifest)): seed, precision,
//!   parallelism, cell range, spec format version and the content hash of
//!   the producing [`ExperimentSpec`](crate::spec::ExperimentSpec) — so a
//!   merged run records exactly what produced it. Headers without a
//!   manifest (runs of opaque strategies, or files written before the spec
//!   layer existed) stay readable.
//!
//! The tolerant [`JsonValue`] model underneath lives in [`crate::json`] and
//! is shared with the experiment-spec format (and exposed for other
//! harness-adjacent tooling reading this crate's JSON-lines artifacts, e.g.
//! the bench-regression diff over `BENCH_results.json`).

use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

use imc_energy::{AccessSchedule, PeripheralKind};

use crate::experiment::{ExperimentRun, RunRecord};
use crate::json::{json_f64, json_string};
use crate::network::NetworkEvaluation;
use crate::spec::RunManifest;
use crate::{Error, Result};

pub use crate::json::JsonValue;

/// Format tag of the run-record JSON-lines header.
pub const RUN_FORMAT: &str = "imc.experiment-run";

/// Current version of the run-record format; readers reject other versions.
pub const RUN_FORMAT_VERSION: u64 = 1;

fn peripheral_tag(kind: PeripheralKind) -> &'static str {
    match kind {
        PeripheralKind::None => "none",
        PeripheralKind::ZeroSkip => "zero_skip",
        PeripheralKind::Mux => "mux",
    }
}

fn peripheral_from_tag(tag: &str) -> Result<PeripheralKind> {
    match tag {
        "none" => Ok(PeripheralKind::None),
        "zero_skip" => Ok(PeripheralKind::ZeroSkip),
        "mux" => Ok(PeripheralKind::Mux),
        other => Err(Error::Record {
            what: format!("unknown peripheral kind '{other}'"),
        }),
    }
}

fn schedule_to_json(schedule: &AccessSchedule) -> String {
    format!(
        "{{\"active_rows\":{},\"active_cols\":{},\"cols_per_weight\":{},\"loads\":{},\"peripheral\":{}}}",
        schedule.active_rows,
        schedule.active_cols,
        schedule.cols_per_weight,
        schedule.loads,
        json_string(peripheral_tag(schedule.peripheral)),
    )
}

fn eval_to_json(eval: &NetworkEvaluation) -> Result<String> {
    let schedules: Vec<String> = eval.schedules.iter().map(schedule_to_json).collect();
    Ok(format!(
        "{{\"network\":{},\"method\":{},\"array_size\":{},\"cycles\":{},\"accuracy\":{},\"parameters\":{},\"schedules\":[{}]}}",
        json_string(&eval.network),
        json_string(&eval.method),
        eval.array_size,
        json_f64(eval.cycles, "cycles")?,
        json_f64(eval.accuracy, "accuracy")?,
        eval.parameters,
        schedules.join(","),
    ))
}

/// Serializes the header line (no trailing newline): the one writer shared
/// by [`ExperimentRun::to_jsonl`], [`RunWriter`] and the streaming merge,
/// so every producer emits byte-identical headers.
pub(crate) fn run_header_json(records: usize, manifest: Option<&RunManifest>) -> String {
    let manifest = match manifest {
        Some(manifest) => format!(",\"manifest\":{}", manifest.to_header_json()),
        None => String::new(),
    };
    format!(
        "{{\"format\":{},\"version\":{},\"records\":{records}{manifest}}}",
        json_string(RUN_FORMAT),
        RUN_FORMAT_VERSION,
    )
}

/// The parsed header line of a run file: what it declares before any record
/// is read.
pub(crate) struct RunHeader {
    /// The record count the header promises.
    pub(crate) declared: usize,
    /// The reproducibility manifest, when the header carries one.
    pub(crate) manifest: Option<RunManifest>,
}

/// Parses and validates a header line: format tag, version, declared count,
/// optional manifest.
pub(crate) fn parse_run_header(line: &str) -> Result<RunHeader> {
    let header = JsonValue::parse(line)?;
    let format = str_member(&header, "format", "header")?;
    if format != RUN_FORMAT {
        return Err(Error::Record {
            what: format!("unknown format '{format}' (expected '{RUN_FORMAT}')"),
        });
    }
    let version = member(&header, "version", "header")?
        .as_u64()
        .ok_or_else(|| Error::Record {
            what: "header: field 'version' is not an integer".to_owned(),
        })?;
    if version != RUN_FORMAT_VERSION {
        return Err(Error::Record {
            what: format!(
                "unsupported version {version} (this reader understands version {RUN_FORMAT_VERSION})"
            ),
        });
    }
    let declared = usize_member(&header, "records", "header")?;
    let manifest = header
        .get("manifest")
        .map(RunManifest::from_header_value)
        .transpose()?;
    Ok(RunHeader { declared, manifest })
}

// ---------------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------------

/// Fetches `key` from `value`, or reports which record field is missing.
fn member<'a>(value: &'a JsonValue, key: &str, context: &str) -> Result<&'a JsonValue> {
    value.get(key).ok_or_else(|| Error::Record {
        what: format!("{context}: missing field '{key}'"),
    })
}

fn usize_member(value: &JsonValue, key: &str, context: &str) -> Result<usize> {
    member(value, key, context)?
        .as_usize()
        .ok_or_else(|| Error::Record {
            what: format!("{context}: field '{key}' is not a non-negative integer"),
        })
}

fn f64_member(value: &JsonValue, key: &str, context: &str) -> Result<f64> {
    member(value, key, context)?
        .as_f64()
        .ok_or_else(|| Error::Record {
            what: format!("{context}: field '{key}' is not a number"),
        })
}

fn str_member<'a>(value: &'a JsonValue, key: &str, context: &str) -> Result<&'a str> {
    member(value, key, context)?
        .as_str()
        .ok_or_else(|| Error::Record {
            what: format!("{context}: field '{key}' is not a string"),
        })
}

fn schedule_from_json(value: &JsonValue) -> Result<AccessSchedule> {
    let ctx = "schedule";
    Ok(AccessSchedule {
        active_rows: usize_member(value, "active_rows", ctx)?,
        active_cols: usize_member(value, "active_cols", ctx)?,
        cols_per_weight: usize_member(value, "cols_per_weight", ctx)?,
        loads: member(value, "loads", ctx)?
            .as_u64()
            .ok_or_else(|| Error::Record {
                what: "schedule: field 'loads' is not a non-negative integer".to_owned(),
            })?,
        peripheral: peripheral_from_tag(str_member(value, "peripheral", ctx)?)?,
    })
}

fn eval_from_json(value: &JsonValue) -> Result<NetworkEvaluation> {
    let ctx = "eval";
    let schedules = member(value, "schedules", ctx)?
        .as_array()
        .ok_or_else(|| Error::Record {
            what: "eval: field 'schedules' is not an array".to_owned(),
        })?
        .iter()
        .map(schedule_from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok(NetworkEvaluation {
        network: str_member(value, "network", ctx)?.to_owned(),
        method: str_member(value, "method", ctx)?.to_owned(),
        array_size: usize_member(value, "array_size", ctx)?,
        cycles: f64_member(value, "cycles", ctx)?,
        accuracy: f64_member(value, "accuracy", ctx)?,
        parameters: usize_member(value, "parameters", ctx)?,
        schedules,
    })
}

impl RunRecord {
    /// Serializes this record as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when a floating-point field is non-finite
    /// (JSON has no encoding for it; evaluations never produce one).
    pub fn to_json_line(&self) -> Result<String> {
        Ok(format!(
            "{{\"cell\":{},\"network\":{},\"array\":{},\"strategy\":{},\"eval\":{}}}",
            self.cell_index,
            self.network_index,
            self.array_size,
            self.strategy_index,
            eval_to_json(&self.eval)?,
        ))
    }

    /// Parses one record line written by [`RunRecord::to_json_line`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] on malformed JSON or missing fields.
    pub fn from_json_line(line: &str) -> Result<Self> {
        let value = JsonValue::parse(line)?;
        let ctx = "record";
        Ok(RunRecord {
            cell_index: usize_member(&value, "cell", ctx)?,
            network_index: usize_member(&value, "network", ctx)?,
            array_size: usize_member(&value, "array", ctx)?,
            strategy_index: usize_member(&value, "strategy", ctx)?,
            eval: eval_from_json(member(&value, "eval", ctx)?)?,
        })
    }
}

impl ExperimentRun {
    /// Serializes the run as versioned JSON lines: one header line, then one
    /// line per record in run order. The inverse of
    /// [`ExperimentRun::from_jsonl`], bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when a floating-point field is non-finite.
    pub fn to_jsonl(&self) -> Result<String> {
        let mut out = run_header_json(self.records().len(), self.manifest());
        out.push('\n');
        for record in self.records() {
            out.push_str(&record.to_json_line()?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a run serialized by [`ExperimentRun::to_jsonl`], validating the
    /// format tag, the version and the declared record count. Records keep
    /// their file order (shard files are reassembled with
    /// [`ExperimentRun::merge`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] on an unknown format or version, a record
    /// count mismatch, or any malformed line.
    pub fn from_jsonl(input: &str) -> Result<Self> {
        let mut lines = input.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or_else(|| Error::Record {
            what: "empty input: expected a header line".to_owned(),
        })?;
        let header = parse_run_header(header_line)?;
        let records = lines
            .map(RunRecord::from_json_line)
            .collect::<Result<Vec<_>>>()?;
        if records.len() != header.declared {
            return Err(Error::Record {
                what: format!(
                    "header declares {} records but {} lines follow (truncated shard file?)",
                    header.declared,
                    records.len()
                ),
            });
        }
        Ok(ExperimentRun::new(records, header.manifest))
    }

    /// Recovers the complete prefix of records from a partial or torn run
    /// file — the crash-tolerant counterpart of the strict
    /// [`ExperimentRun::from_jsonl`].
    ///
    /// A run killed mid-write leaves a file with a valid header, `n`
    /// complete record lines and possibly one torn final line. This loader
    /// accepts that shape: it parses record lines until the first damaged
    /// one, drops everything from the damage on (crash truncation only ever
    /// tears the tail; anything else is corruption this loader refuses to
    /// guess about), and reports what it kept and what it lost in a
    /// [`RecoveredRun`] — including the covered `cell_index` span, which is
    /// where a resumed run picks up ([`RunWriter::resume`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when the *header itself* is missing, torn
    /// or of an unknown format/version (nothing can be trusted then), or
    /// when more record lines parse than the header declared.
    pub fn from_jsonl_partial(input: &str) -> Result<RecoveredRun> {
        // Number lines *before* dropping blanks, so a damage report names
        // the real 1-based line of the file on disk — the number an operator
        // can jump to with `sed -n Np` — not an index into the blank-filtered
        // iterator (which drifts as soon as the file contains a blank line).
        let mut lines = input
            .lines()
            .enumerate()
            .map(|(index, line)| (index + 1, line))
            .filter(|(_, line)| !line.trim().is_empty());
        let (_, header_line) = lines.next().ok_or_else(|| Error::Record {
            what: "empty input: expected a header line".to_owned(),
        })?;
        let header = parse_run_header(header_line)?;
        let mut records = Vec::new();
        let mut dropped = None;
        for (file_line, line) in lines {
            match RunRecord::from_json_line(line) {
                Ok(record) => {
                    if records.len() == header.declared {
                        return Err(Error::Record {
                            what: format!(
                                "more record lines than the declared {} records",
                                header.declared
                            ),
                        });
                    }
                    records.push(record);
                }
                Err(e) => {
                    dropped = Some(format!("line {file_line}: {e}"));
                    break;
                }
            }
        }
        let covered = match records.as_slice() {
            [] => None,
            [first, rest @ ..] => {
                let mut end = first.cell_index + 1;
                let contiguous = rest.iter().all(|record| {
                    let matches = record.cell_index == end;
                    end += 1;
                    matches
                });
                contiguous.then_some(first.cell_index..end)
            }
        };
        Ok(RecoveredRun {
            declared: header.declared,
            run: ExperimentRun::new(records, header.manifest),
            dropped,
            covered,
        })
    }

    /// Writes [`ExperimentRun::to_jsonl`] to a file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] on serialization or I/O failure.
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_jsonl()?).map_err(|e| Error::Record {
            what: format!("could not write {}: {e}", path.display()),
        })
    }

    /// Reads a run from a file written by [`ExperimentRun::save_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] on I/O failure or any
    /// [`ExperimentRun::from_jsonl`] error.
    pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let input = std::fs::read_to_string(path).map_err(|e| Error::Record {
            what: format!("could not read {}: {e}", path.display()),
        })?;
        Self::from_jsonl(&input)
    }
}

/// The outcome of [`ExperimentRun::from_jsonl_partial`]: the recovered
/// complete-prefix run, plus a report of what the damage cost.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The run assembled from the complete prefix of record lines. Its
    /// manifest (when present) still describes the cell range the *writer
    /// intended*; [`RecoveredRun::covered`] is what actually survived.
    pub run: ExperimentRun,
    /// The record count the header declared.
    pub declared: usize,
    /// Describes the first damaged record line, when one cut recovery
    /// short — named by its real 1-based line number in the input (blank
    /// lines included in the count). Everything from that line on was
    /// dropped.
    pub dropped: Option<String>,
    /// The contiguous `cell_index` span the recovered records cover:
    /// `Some(start..end)` when the indices ascend without gaps (the shape
    /// `imc run --cells` writes), `None` for an empty or non-contiguous
    /// prefix.
    pub covered: Option<Range<usize>>,
}

impl RecoveredRun {
    /// The number of records that survived.
    pub fn recovered(&self) -> usize {
        self.run.records().len()
    }

    /// Whether the file was in fact undamaged: no line dropped and every
    /// declared record present.
    pub fn is_complete(&self) -> bool {
        self.dropped.is_none() && self.recovered() == self.declared
    }
}

/// Streams a run to a file record by record, flushing each line — so a
/// process killed at any moment leaves a header plus a complete prefix of
/// record lines (at worst one torn tail line), which [`RunWriter::resume`]
/// keeps and appends to.
///
/// The bytes produced by a completed writer are identical to
/// [`ExperimentRun::to_jsonl`] of the same run.
#[derive(Debug)]
pub struct RunWriter {
    file: std::fs::File,
    path: PathBuf,
    declared: usize,
    written: usize,
}

impl RunWriter {
    /// Creates (or truncates) `path` and writes the header line declaring
    /// `declared` records, flushed immediately.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on filesystem failure.
    pub fn create(
        path: impl AsRef<Path>,
        declared: usize,
        manifest: Option<&RunManifest>,
    ) -> Result<RunWriter> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path).map_err(|e| Error::Io {
            what: format!("could not create {}: {e}", path.display()),
        })?;
        let mut header = run_header_json(declared, manifest);
        header.push('\n');
        file.write_all(header.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| Error::Io {
                what: format!("could not write header to {}: {e}", path.display()),
            })?;
        Ok(RunWriter {
            file,
            path,
            declared,
            written: 0,
        })
    }

    /// Reopens a file that an earlier, killed writer of the same run left
    /// behind, keeping its complete records so only the rest needs
    /// writing. The arguments are the ones [`RunWriter::create`] takes.
    ///
    /// * A missing file, or one holding only a torn prefix of the header,
    ///   starts fresh, exactly like [`RunWriter::create`].
    /// * Otherwise the file's first line must be, byte for byte, the header
    ///   `create` writes. Its complete records (as
    ///   [`ExperimentRun::from_jsonl_partial`] reads them) must run
    ///   contiguously from `manifest.cells.start` and re-serialize to a
    ///   byte prefix of the file. The file is cut after them, which drops
    ///   at most a torn tail line, and [`RunWriter::written`] counts them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Spec`] when the file holds another run's header
    /// (the file is left untouched), [`Error::Record`] when its records are
    /// damaged in a way a crash cannot leave them, and [`Error::Io`] on
    /// filesystem failure.
    pub fn resume(
        path: impl AsRef<Path>,
        declared: usize,
        manifest: &RunManifest,
    ) -> Result<RunWriter> {
        let path = path.as_ref();
        let header = format!("{}\n", run_header_json(declared, Some(manifest)));
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Err(Error::Io {
                    what: format!("could not read {}: {e}", path.display()),
                })
            }
        };
        if bytes.len() < header.len() && header.as_bytes().starts_with(&bytes) {
            // Killed before its header landed: there is nothing to keep.
            return RunWriter::create(path, declared, Some(manifest));
        }
        if !bytes.starts_with(header.as_bytes()) {
            let first_line = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            let shown = &first_line[..first_line.len().min(2 * header.len())];
            return Err(Error::Spec {
                what: format!(
                    "{} holds another run and was left untouched\n  \
                     its header:      {}\n  expected header: {}",
                    path.display(),
                    String::from_utf8_lossy(shown),
                    header.trim_end()
                ),
            });
        }
        // Only newline-terminated lines are complete; whatever follows the
        // last newline is the torn line a crash left behind.
        let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let complete = &bytes[..end];
        let recovered = ExperimentRun::from_jsonl_partial(&String::from_utf8_lossy(complete))?;
        let first = manifest.cells.start;
        let planned = first..first + recovered.recovered();
        if recovered.recovered() > 0 && recovered.covered != Some(planned.clone()) {
            return Err(Error::Record {
                what: format!(
                    "{}: its records are not cells {}..{} in order",
                    path.display(),
                    planned.start,
                    planned.end
                ),
            });
        }
        let mut kept = header;
        for record in recovered.run.records() {
            kept.push_str(&record.to_json_line()?);
            kept.push('\n');
        }
        if !complete.starts_with(kept.as_bytes()) {
            return Err(Error::Record {
                what: format!(
                    "{}: its records do not re-serialize to the bytes on disk",
                    path.display()
                ),
            });
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|file| file.set_len(kept.len() as u64).map(|()| file))
            .map_err(|e| Error::Io {
                what: format!("could not reopen {}: {e}", path.display()),
            })?;
        Ok(RunWriter {
            file,
            path: path.to_path_buf(),
            declared,
            written: recovered.recovered(),
        })
    }

    /// The number of records in the file: those [`RunWriter::resume`] kept
    /// plus those written since.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Appends one record line and flushes it, so a crash after this call
    /// returns cannot lose the record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when the record does not serialize or the
    /// declared count is already reached, [`Error::Io`] on filesystem
    /// failure.
    pub fn write_record(&mut self, record: &RunRecord) -> Result<()> {
        if self.written == self.declared {
            return Err(Error::Record {
                what: format!(
                    "writer for {} declared {} records and cannot take more",
                    self.path.display(),
                    self.declared
                ),
            });
        }
        let mut line = record.to_json_line()?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| Error::Io {
                what: format!("could not append record to {}: {e}", self.path.display()),
            })?;
        self.written += 1;
        Ok(())
    }

    /// Writes a deliberately torn prefix of `record`'s line — half the
    /// bytes, no newline — and flushes. This is the crash point the
    /// `IMC_FAULT_EXIT_AFTER_CELLS` fault-injection hook uses: the file is
    /// left exactly as a process killed mid-write leaves it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when the record does not serialize,
    /// [`Error::Io`] on filesystem failure.
    pub fn write_torn_record(&mut self, record: &RunRecord) -> Result<()> {
        let line = record.to_json_line()?;
        let torn = &line.as_bytes()[..line.len() / 2];
        self.file
            .write_all(torn)
            .and_then(|()| self.file.flush())
            .map_err(|e| Error::Io {
                what: format!("could not append record to {}: {e}", self.path.display()),
            })
    }

    /// Finishes the file: checks every declared record was written and
    /// syncs the bytes to disk.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Record`] when fewer records were written than
    /// declared, [`Error::Io`] when the sync fails.
    pub fn finish(self) -> Result<()> {
        if self.written != self.declared {
            return Err(Error::Record {
                what: format!(
                    "writer for {} declared {} records but wrote {}",
                    self.path.display(),
                    self.declared,
                    self.written
                ),
            });
        }
        self.file.sync_all().map_err(|e| Error::Io {
            what: format!("could not sync {}: {e}", self.path.display()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::experiments::DEFAULT_SEED;
    use crate::network::CompressionMethod;
    use imc_nn::resnet20;

    fn small_run() -> ExperimentRun {
        Experiment::new()
            .network(resnet20())
            .arrays([32, 64])
            .seed(DEFAULT_SEED)
            .method(CompressionMethod::Uncompressed { sdk: false })
            .method(CompressionMethod::PatternPruning { entries: 4 })
            .run()
            .unwrap()
    }

    #[test]
    fn run_round_trips_byte_identically() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();
        let back = ExperimentRun::from_jsonl(&text).unwrap();
        // Serialized forms are byte-identical…
        assert_eq!(text, back.to_jsonl().unwrap());
        // …and so is the in-memory Debug rendering (covers every f64 bit).
        assert_eq!(
            format!("{:#?}", run.records()),
            format!("{:#?}", back.records())
        );
        // The manifest survives the round-trip too.
        assert_eq!(back.manifest(), run.manifest());
        assert!(run.manifest().is_some(), "built-in sweeps carry a manifest");
    }

    #[test]
    fn manifest_reflects_the_producing_experiment() {
        let run = small_run();
        let manifest = run.manifest().expect("spec-serializable experiment");
        assert_eq!(manifest.seed, DEFAULT_SEED);
        assert_eq!(manifest.cells, 0..4, "1 network × 2 arrays × 2 methods");
        assert_eq!(manifest.parallelism, None);
        let header = run.to_jsonl().unwrap().lines().next().unwrap().to_owned();
        assert!(header.contains("\"manifest\""), "{header}");
        assert!(header.contains(&manifest.spec_hash_hex()), "{header}");

        // Pre-manifest headers (and opaque-strategy runs) stay readable.
        let stripped = run.to_jsonl().unwrap().replacen(
            &format!(",\"manifest\":{}", manifest.to_header_json()),
            "",
            1,
        );
        let back = ExperimentRun::from_jsonl(&stripped).unwrap();
        assert!(back.manifest().is_none());
        assert_eq!(back.records().len(), run.records().len());
    }

    #[test]
    fn reader_rejects_foreign_and_truncated_inputs() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();

        // Unknown format tag.
        let foreign = text.replacen(RUN_FORMAT, "something.else", 1);
        assert!(ExperimentRun::from_jsonl(&foreign).is_err());

        // Future version.
        let future = text.replacen("\"version\":1", "\"version\":2", 1);
        let err = ExperimentRun::from_jsonl(&future).unwrap_err();
        assert!(format!("{err}").contains("version"), "{err}");

        // Truncated payload (header promises more records).
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        let err = ExperimentRun::from_jsonl(&truncated).unwrap_err();
        assert!(format!("{err}").contains("truncated"), "{err}");

        // Empty input.
        assert!(ExperimentRun::from_jsonl("").is_err());
    }

    #[test]
    fn merge_reassembles_shards_in_canonical_order() {
        let grid = || {
            Experiment::new()
                .network(resnet20())
                .arrays([32, 64])
                .seed(DEFAULT_SEED)
                .method(CompressionMethod::Uncompressed { sdk: false })
                .method(CompressionMethod::PatternPruning { entries: 4 })
        };
        let unsharded = grid().run().unwrap();
        let total = grid().grid_cells();
        assert_eq!(total, 4);

        // Run the shards out of order and round-trip each through JSON lines.
        let mut shards = Vec::new();
        for range in [2..total, 0..2] {
            let shard = grid().cells(range).run().unwrap();
            let text = shard.to_jsonl().unwrap();
            shards.push(ExperimentRun::from_jsonl(&text).unwrap());
        }
        let merged = ExperimentRun::merge(shards).unwrap();
        assert_eq!(
            merged.to_jsonl().unwrap(),
            unsharded.to_jsonl().unwrap(),
            "shard/merge round-trip must be byte-identical"
        );

        // Overlapping shards are rejected.
        let a = grid().cells(0..2).run().unwrap();
        let b = grid().cells(1..3).run().unwrap();
        let err = ExperimentRun::merge([a, b]).unwrap_err();
        assert!(format!("{err}").contains("duplicate cell index"), "{err}");
    }

    #[test]
    fn merge_tolerates_differing_parallelism_knobs() {
        // The worker count is an execution detail, not experiment identity:
        // shards produced with different pinned worker counts still merge,
        // and the combined manifest records no single count.
        let grid = |workers: Option<usize>| {
            let mut experiment = Experiment::new()
                .network(resnet20())
                .arrays([32, 64])
                .seed(DEFAULT_SEED)
                .method(CompressionMethod::Uncompressed { sdk: false })
                .method(CompressionMethod::PatternPruning { entries: 4 });
            if let Some(workers) = workers {
                experiment = experiment.parallelism(workers);
            }
            experiment
        };
        let a = grid(Some(1)).cells(0..2).run().unwrap();
        let b = grid(Some(2)).cells(2..4).run().unwrap();
        let merged = ExperimentRun::merge([a, b]).unwrap();
        let manifest = merged.manifest().expect("agreeing identities keep it");
        assert_eq!(manifest.parallelism, None, "no single request pinned one");
        assert_eq!(manifest.cells, 0..4);
        // Records are what an unpinned unsharded run produces.
        assert_eq!(
            merged.records().len(),
            grid(None).run().unwrap().records().len()
        );

        // Identity mismatches (different seed => different spec hash) are
        // still a driver bug and refuse to merge.
        let c = grid(None).cells(0..2).run().unwrap();
        let d = grid(None).seed(7).cells(2..4).run().unwrap();
        let err = ExperimentRun::merge([c, d]).unwrap_err();
        assert!(format!("{err}").contains("different experiments"), "{err}");

        // A manifest-less shard in the mix must not disable that check for
        // the shards that do carry manifests…
        let strip_manifest = |run: ExperimentRun| {
            let header_manifest =
                format!(",\"manifest\":{}", run.manifest().unwrap().to_header_json());
            let stripped = run.to_jsonl().unwrap().replacen(&header_manifest, "", 1);
            ExperimentRun::from_jsonl(&stripped).unwrap()
        };
        let manifest_less = strip_manifest(grid(None).cells(0..1).run().unwrap());
        assert!(manifest_less.manifest().is_none());
        let c = grid(None).cells(1..2).run().unwrap();
        let d = grid(None).seed(7).cells(2..4).run().unwrap();
        let err = ExperimentRun::merge([manifest_less, c, d]).unwrap_err();
        assert!(format!("{err}").contains("different experiments"), "{err}");

        // …and a merge containing one drops the merged manifest (it cannot
        // vouch for records it never covered).
        let c = grid(None).cells(0..2).run().unwrap();
        let tail = strip_manifest(grid(None).cells(2..4).run().unwrap());
        let merged = ExperimentRun::merge([c, tail]).unwrap();
        assert!(merged.manifest().is_none());
        assert_eq!(merged.records().len(), 4);
    }

    #[test]
    fn malformed_manifests_are_record_errors() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();
        let broken = text.replacen(
            "\"cells\":{\"start\":0,\"end\":4}",
            "\"cells\":{\"start\":0}",
            1,
        );
        assert_ne!(broken, text, "header must have been rewritten");
        let err = ExperimentRun::from_jsonl(&broken).unwrap_err();
        assert!(matches!(err, Error::Record { .. }), "{err}");
        assert!(format!("{err}").contains("cells"), "{err}");
    }

    /// Cuts `text` at the midpoint of its last record line — the shape a
    /// `kill -9` mid-write leaves behind.
    fn tear_last_line(text: &str) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let (head, last) = lines.split_at(lines.len() - 1);
        let mut torn: String = head.iter().map(|l| format!("{l}\n")).collect();
        torn.push_str(&last[0][..last[0].len() / 2]);
        torn
    }

    #[test]
    fn torn_final_line_is_a_resume_point_for_the_partial_loader() {
        let run = small_run();
        let torn = tear_last_line(&run.to_jsonl().unwrap());

        // The strict reader refuses the file outright…
        let err = ExperimentRun::from_jsonl(&torn).unwrap_err();
        assert!(matches!(err, Error::Record { .. }), "{err}");

        // …the partial loader recovers the complete prefix and reports the
        // damage.
        let recovered = ExperimentRun::from_jsonl_partial(&torn).unwrap();
        assert_eq!(recovered.declared, 4);
        assert_eq!(recovered.recovered(), 3);
        assert!(!recovered.is_complete());
        assert!(recovered.dropped.is_some(), "the torn line is reported");
        assert_eq!(recovered.covered, Some(0..3));
        // The recovered records are byte-identical to the originals.
        for (a, b) in recovered
            .run
            .records()
            .iter()
            .zip(run.records().iter().take(3))
        {
            assert_eq!(a.to_json_line().unwrap(), b.to_json_line().unwrap());
        }
        // The header survived intact, manifest included.
        assert_eq!(recovered.run.manifest(), run.manifest());
    }

    #[test]
    fn mid_record_truncation_drops_everything_from_the_damage_on() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Damage the second of four record lines, keep the rest verbatim.
        let mut doctored = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == 2 {
                doctored.push_str(&line[..line.len() / 3]);
            } else {
                doctored.push_str(line);
            }
            doctored.push('\n');
        }

        assert!(ExperimentRun::from_jsonl(&doctored).is_err());
        let recovered = ExperimentRun::from_jsonl_partial(&doctored).unwrap();
        assert_eq!(
            recovered.recovered(),
            1,
            "only the prefix before the damage is trusted"
        );
        assert_eq!(recovered.covered, Some(0..1));
        let dropped = recovered.dropped.expect("damage is reported");
        // The damaged line is the third line of the file (header, record,
        // damaged record) — reported by its real file position.
        assert!(dropped.contains("line 3"), "{dropped}");
    }

    #[test]
    fn dropped_line_numbers_count_blank_lines() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Interleave blank lines (a hand-edited or concatenated shard) and
        // damage the second record: the file now reads header / blank /
        // record 0 / blank / damaged record 1 — the damage sits on line 5.
        let doctored = format!(
            "{}\n\n{}\n\n{}\n{}\n{}\n",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() / 3],
            lines[3],
            lines[4],
        );
        let recovered = ExperimentRun::from_jsonl_partial(&doctored).unwrap();
        assert_eq!(recovered.recovered(), 1);
        let dropped = recovered.dropped.expect("damage is reported");
        assert!(
            dropped.contains("line 5"),
            "must name the real file line, not the blank-filtered index: {dropped}"
        );
    }

    #[test]
    fn duplicate_cell_indices_yield_no_covered_span() {
        let run = small_run();
        let text = run.to_jsonl().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Duplicate the first record line in place of the second: indices
        // 0,0,2,3 — parseable, but not a contiguous span.
        let mut doctored = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[1]);
        doctored.push_str(&format!("{}\n{}\n", lines[3], lines[4]));
        let recovered = ExperimentRun::from_jsonl_partial(&doctored).unwrap();
        assert_eq!(recovered.recovered(), 4);
        assert_eq!(
            recovered.covered, None,
            "a duplicated cell index must not masquerade as a clean span"
        );

        // Across shards, the strict merge still rejects the duplicate (the
        // `imc merge` guarantee).
        let a = ExperimentRun::from_jsonl(&text).unwrap();
        let b = ExperimentRun::from_jsonl(&text).unwrap();
        let err = ExperimentRun::merge([a, b]).unwrap_err();
        assert!(format!("{err}").contains("duplicate cell index"), "{err}");
    }

    #[test]
    fn empty_and_header_only_shards() {
        // Empty input: nothing to recover, both loaders refuse.
        assert!(ExperimentRun::from_jsonl("").is_err());
        assert!(ExperimentRun::from_jsonl_partial("").is_err());

        // A header-only file (worker died before its first record): the
        // strict loader calls it truncated, the partial loader reports an
        // intact-but-empty prefix.
        let run = small_run();
        let header = run.to_jsonl().unwrap().lines().next().unwrap().to_owned();
        let header_only = format!("{header}\n");
        let err = ExperimentRun::from_jsonl(&header_only).unwrap_err();
        assert!(format!("{err}").contains("truncated"), "{err}");
        let recovered = ExperimentRun::from_jsonl_partial(&header_only).unwrap();
        assert_eq!(recovered.recovered(), 0);
        assert_eq!(recovered.declared, 4);
        assert_eq!(recovered.covered, None);
        assert!(!recovered.is_complete());
        assert!(recovered.dropped.is_none());

        // A torn *header* is unrecoverable for both.
        let torn_header = header[..header.len() / 2].to_owned();
        assert!(ExperimentRun::from_jsonl(&torn_header).is_err());
        assert!(ExperimentRun::from_jsonl_partial(&torn_header).is_err());

        // Surplus record lines (more than declared) are rejected too.
        let surplus = format!(
            "{}{}\n",
            run.to_jsonl().unwrap(),
            run.to_jsonl().unwrap().lines().nth(1).unwrap()
        );
        assert!(ExperimentRun::from_jsonl(&surplus).is_err());
        assert!(ExperimentRun::from_jsonl_partial(&surplus).is_err());
    }

    #[test]
    fn run_writer_streams_byte_identical_files() {
        let run = small_run();
        let dir = std::env::temp_dir().join("imc_record_writer_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("streamed_{}.jsonl", std::process::id()));

        let mut writer = RunWriter::create(&path, run.records().len(), run.manifest()).unwrap();
        for record in run.records() {
            writer.write_record(record).unwrap();
        }
        writer.finish().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            streamed,
            run.to_jsonl().unwrap(),
            "streamed bytes must equal the in-memory serialization"
        );

        // Tear the tail the way the fault hook does: the partial loader
        // gets the prefix back.
        let mut writer = RunWriter::create(&path, run.records().len(), run.manifest()).unwrap();
        writer.write_record(&run.records()[0]).unwrap();
        writer.write_record(&run.records()[1]).unwrap();
        writer.write_torn_record(&run.records()[2]).unwrap();
        drop(writer); // a crashed worker never reaches finish()
        let recovered =
            ExperimentRun::from_jsonl_partial(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(recovered.recovered(), 2);
        assert_eq!(recovered.covered, Some(0..2));
        assert!(recovered.dropped.is_some());

        // finish() refuses an under-filled writer.
        let mut writer = RunWriter::create(&path, 2, None).unwrap();
        writer.write_record(&run.records()[0]).unwrap();
        assert!(matches!(writer.finish(), Err(Error::Record { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_keeps_the_complete_records_and_cuts_the_torn_tail() {
        let run = small_run();
        let manifest = run.manifest().expect("spec-serializable").clone();
        let declared = run.records().len();
        let golden = run.to_jsonl().unwrap();
        let header_len = golden.find('\n').unwrap() + 1;
        let dir = std::env::temp_dir().join("imc_record_writer_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resumed_{}.jsonl", std::process::id()));
        let on_disk = || std::fs::read_to_string(&path).unwrap();

        // A killed writer: two complete records and half of the third.
        let mut writer = RunWriter::create(&path, declared, Some(&manifest)).unwrap();
        writer.write_record(&run.records()[0]).unwrap();
        writer.write_record(&run.records()[1]).unwrap();
        writer.write_torn_record(&run.records()[2]).unwrap();
        drop(writer);
        let mut writer = RunWriter::resume(&path, declared, &manifest).unwrap();
        assert_eq!(writer.written(), 2, "the complete records are kept");
        let prefix: String = golden.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert_eq!(on_disk(), prefix, "the torn line is cut");
        for record in &run.records()[2..] {
            writer.write_record(record).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(on_disk(), golden);

        // Resuming a complete file keeps every record and changes no byte.
        let writer = RunWriter::resume(&path, declared, &manifest).unwrap();
        assert_eq!(writer.written(), declared);
        writer.finish().unwrap();
        assert_eq!(on_disk(), golden);

        // A record cut just before its newline is torn too.
        std::fs::write(&path, &golden[..golden.len() - 1]).unwrap();
        let writer = RunWriter::resume(&path, declared, &manifest).unwrap();
        assert_eq!(writer.written(), declared - 1);
        drop(writer);

        // A torn header, or no file at all, starts fresh.
        std::fs::write(&path, &golden[..header_len / 2]).unwrap();
        assert_eq!(
            RunWriter::resume(&path, declared, &manifest)
                .unwrap()
                .written(),
            0
        );
        assert_eq!(on_disk(), golden[..header_len]);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            RunWriter::resume(&path, declared, &manifest)
                .unwrap()
                .written(),
            0
        );
        assert_eq!(on_disk(), golden[..header_len]);

        // Another run's file (here: other cells) is refused, naming both
        // headers, and left untouched.
        let mut other = manifest.clone();
        other.cells = 0..2;
        let mut writer = RunWriter::create(&path, 2, Some(&other)).unwrap();
        writer.write_record(&run.records()[0]).unwrap();
        drop(writer);
        let before = on_disk();
        let err = RunWriter::resume(&path, declared, &manifest).unwrap_err();
        assert!(matches!(err, Error::Spec { .. }), "{err}");
        let message = err.to_string();
        assert!(
            message.contains(before.lines().next().unwrap()),
            "{message}"
        );
        assert!(message.contains(&golden[..header_len - 1]), "{message}");
        assert_eq!(on_disk(), before);

        // Records out of grid order are damage no crash leaves behind.
        let lines: Vec<&str> = golden.lines().collect();
        let shuffled = format!("{}\n{}\n", lines[0], lines[2]);
        std::fs::write(&path, &shuffled).unwrap();
        let err = RunWriter::resume(&path, declared, &manifest).unwrap_err();
        assert!(matches!(err, Error::Record { .. }), "{err}");
        assert_eq!(on_disk(), shuffled);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_cell_ranges_are_rejected() {
        let grid = Experiment::new()
            .network(resnet20())
            .array(32)
            .method(CompressionMethod::Uncompressed { sdk: false });
        assert_eq!(grid.grid_cells(), 1);
        assert!(matches!(grid.cells(0..2).run(), Err(Error::Builder { .. })));
        let empty = Experiment::new()
            .network(resnet20())
            .array(32)
            .method(CompressionMethod::Uncompressed { sdk: false })
            .cells(1..1);
        assert!(matches!(empty.run(), Err(Error::Builder { .. })));
    }
}
