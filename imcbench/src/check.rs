//! The correctness gate: every operation's output bytes are compared with
//! bytes computed another way (cold = warm = serial = served = store-read),
//! and run documents must survive a `from_jsonl` round-trip with the expected
//! record count. Output digests are printed for the record, but a digest
//! change alone is not a failure.

use imc_sim::ExperimentRun;

use crate::report::Report;

/// FNV-1a 64-bit digest of a document, printed next to every reference.
pub fn digest(bytes: &str) -> String {
    let hash = bytes.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Checks that `jsonl` parses back into a run of `records` records that
/// re-serializes to the same bytes.
pub fn round_trip(report: &mut Report, label: &str, jsonl: &str, records: usize) {
    match ExperimentRun::from_jsonl(jsonl).and_then(|run| Ok((run.records().len(), run.to_jsonl()?))) {
        Ok((count, again)) => report.check(count == records && again == jsonl, || {
            format!("{label}: from_jsonl round-trip gave {count} records (expected {records}) or different bytes")
        }),
        Err(e) => report.error(format!("{label}: from_jsonl failed: {e}")),
    }
}

/// Checks `got` against the reference bytes.
pub fn same_bytes(report: &mut Report, label: &str, got: &str, reference: &str) {
    report.check(got == reference, || {
        format!(
            "{label}: {} bytes (digest {}) differ from the reference's {} bytes (digest {})",
            got.len(),
            digest(got),
            reference.len(),
            digest(reference)
        )
    });
}
