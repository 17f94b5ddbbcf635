//! The workspace-level error type: one conversion surface over every
//! member crate's error ladder.
//!
//! Each crate in the workspace keeps its own focused error enum (so the
//! crates stay independently usable), but application code working through
//! the `imc` umbrella should not have to name eight different error types.
//! [`enum@Error`] converts from all of them, so a `?` anywhere in an
//! experiment pipeline lands here.

/// Any error produced by the workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// From the linear-algebra layer (`imc-linalg`).
    Linalg(imc_linalg::Error),
    /// From the tensor layer (`imc-tensor`).
    Tensor(imc_tensor::Error),
    /// From the array-mapping layer (`imc-array`).
    Array(imc_array::Error),
    /// From the low-rank compression layer (`imc-core`).
    Core(imc_core::Error),
    /// From the pruning baselines (`imc-pruning`).
    Pruning(imc_pruning::Error),
    /// From the quantization baselines (`imc-quant`).
    Quant(imc_quant::Error),
    /// From the neural-network layer (`imc-nn`).
    Nn(imc_nn::Error),
    /// From the experiment harness (`imc-sim`), including builder and
    /// external-strategy errors.
    Sim(imc_sim::Error),
}

impl Error {
    /// Classifies the error into the `imc` CLI's exit code, so process
    /// supervisors can tell failures that will repeat identically from ones
    /// worth retrying:
    ///
    /// | Code | Meaning | Retry? |
    /// |---|---|---|
    /// | `2` | spec/usage error — the request itself is invalid | never |
    /// | `3` | run-record format error — the data is malformed | never |
    /// | `4` | I/O or service failure — the environment hiccuped | yes |
    /// | `1` | any other failure | no |
    ///
    /// (`0` is success, and exit by signal — `kill -9`, fault injection —
    /// reaches the supervisor as no code at all; `imc sweep --resume`
    /// finishes such a run from the records it already wrote.)
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Sim(imc_sim::Error::Spec { .. } | imc_sim::Error::Builder { .. }) => 2,
            Error::Sim(imc_sim::Error::Record { .. }) => 3,
            Error::Sim(imc_sim::Error::Io { .. } | imc_sim::Error::Serve { .. }) => 4,
            _ => 1,
        }
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
            Error::Array(e) => write!(f, "array mapping error: {e}"),
            Error::Core(e) => write!(f, "compression error: {e}"),
            Error::Pruning(e) => write!(f, "pruning error: {e}"),
            Error::Quant(e) => write!(f, "quantization error: {e}"),
            Error::Nn(e) => write!(f, "neural network error: {e}"),
            Error::Sim(e) => write!(f, "experiment error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::Tensor(e) => Some(e),
            Error::Array(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Pruning(e) => Some(e),
            Error::Quant(e) => Some(e),
            Error::Nn(e) => Some(e),
            Error::Sim(e) => Some(e),
        }
    }
}

macro_rules! impl_from {
    ($($crate_error:ty => $variant:ident),+ $(,)?) => {
        $(impl From<$crate_error> for Error {
            fn from(e: $crate_error) -> Self {
                Error::$variant(e)
            }
        })+
    };
}

impl_from!(
    imc_linalg::Error => Linalg,
    imc_tensor::Error => Tensor,
    imc_array::Error => Array,
    imc_core::Error => Core,
    imc_pruning::Error => Pruning,
    imc_quant::Error => Quant,
    imc_nn::Error => Nn,
    imc_sim::Error => Sim,
);

/// Convenient result alias for application code using the umbrella crate.
pub type Result<T> = core::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    fn fails_with_question_mark() -> Result<imc_array::ArrayConfig> {
        // Invalid array: the `?` converts imc_array::Error into imc::Error.
        let array = imc_array::ArrayConfig::square(0)?;
        Ok(array)
    }

    #[test]
    fn question_mark_converts_crate_errors() {
        let err = fails_with_question_mark().unwrap_err();
        assert!(matches!(err, Error::Array(_)));
        assert!(err.to_string().contains("array"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn sim_errors_convert_too() {
        let sim = imc_sim::Error::strategy("external failure");
        let err: Error = sim.into();
        assert!(err.to_string().contains("external failure"));
    }

    #[test]
    fn exit_codes_separate_permanent_from_transient_failures() {
        let code = |e: imc_sim::Error| Error::Sim(e).exit_code();
        assert_eq!(code(imc_sim::Error::Spec { what: "bad".into() }), 2);
        assert_eq!(
            code(imc_sim::Error::Builder {
                what: "empty".into()
            }),
            2
        );
        assert_eq!(
            code(imc_sim::Error::Record {
                what: "torn".into()
            }),
            3
        );
        assert_eq!(
            code(imc_sim::Error::Io {
                what: "disk".into()
            }),
            4
        );
        assert_eq!(
            code(imc_sim::Error::Serve {
                what: "refused".into()
            }),
            4
        );
        assert_eq!(code(imc_sim::Error::strategy("external")), 1);
        let err: Error = imc_array::ArrayConfig::square(0).unwrap_err().into();
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn store_failures_classify_like_their_underlying_layer() {
        // The persistent store introduces no variant of its own: corruption
        // surfaced by `imc store verify` is a record-format failure (exit 3
        // — rerunning verify cannot heal the bytes), while an unreachable
        // or unwritable store directory is transient I/O (exit 4 — worth
        // retrying). The normal run/serve paths never surface either: a
        // damaged entry degrades to a miss there.
        let dir = std::env::temp_dir().join(format!("imc_store_exitcode_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // An I/O failure opening a store: the path is a regular file.
        std::fs::create_dir_all(&dir).unwrap();
        let blocking_file = dir.join("not-a-dir");
        std::fs::write(&blocking_file, "x").unwrap();
        let err: Error = imc_sim::RunStore::open(&blocking_file).unwrap_err().into();
        assert!(
            matches!(err, Error::Sim(imc_sim::Error::Io { .. })),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4, "{err}");

        // Verify-path corruption: a put of bytes that contradict the key is
        // the same Record classification `imc store verify` maps to exit 3.
        let store = imc_sim::RunStore::open(&dir).unwrap();
        let key = imc_sim::RunKey {
            spec_hash: 1,
            precision: imc_sim::Precision::F64,
            cells: None,
            parallelism: None,
            frontier: false,
        };
        let err: Error = store.put(&key, "not a run document").unwrap_err().into();
        assert!(
            matches!(err, Error::Sim(imc_sim::Error::Record { .. })),
            "{err}"
        );
        assert_eq!(err.exit_code(), 3, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
