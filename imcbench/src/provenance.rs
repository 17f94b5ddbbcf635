//! Provenance recorded with every report: core count, CPU model, the code
//! under test (git commit when the checkout has one, and a digest of the
//! library sources either way), compiler version and build profile.

use std::path::Path;

use crate::check::digest;

pub fn collect() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} cpu=\"{}\" commit={} sources={} rustc=\"{}\" profile={} rustflags=\"{}\"",
        cpu_model(),
        git_commit().unwrap_or_else(|| "none".to_owned()),
        source_digest(),
        env!("IMCBENCH_RUSTC"),
        env!("IMCBENCH_PROFILE"),
        env!("IMCBENCH_RUSTFLAGS"),
    )
}

/// The CPU brand string from `cpuid` leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .replace('"', "'")
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_owned()
}

/// The commit `.git/HEAD` names, when the working directory is a git
/// checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(commit) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(commit.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_owned)
}

/// A digest over the library sources (`Cargo.lock`, `Cargo.toml` and every
/// file under `crates/*/src`), which identifies the code under test even in
/// a checkout without git metadata.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.retain(|p| p.ends_with("Cargo.toml") || p.components().any(|c| c.as_os_str() == "src"));
    files.sort();
    files.splice(0..0, ["Cargo.toml".into(), "Cargo.lock".into()]);
    let mut all = String::new();
    for file in &files {
        if let Ok(text) = std::fs::read_to_string(file) {
            all.push_str(&file.to_string_lossy());
            all.push('\0');
            all.push_str(&text);
        }
    }
    digest(&all)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}
