//! Crash-resume tests for `imc sweep`: a sweep writes exactly the bytes of
//! `imc run`, and a sweep killed mid-write — by deterministic fault
//! injection or a real `kill -9` — finishes with `--resume` on those same
//! bytes.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn imc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_imc")
}

/// Runs `imc <args...>` with optional stdin and extra environment,
/// capturing stdout/stderr.
fn imc_with_env(args: &[&str], stdin: Option<&str>, env: &[(&str, &str)]) -> Output {
    let mut child = Command::new(imc_bin())
        .args(args)
        .envs(env.iter().copied())
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("imc binary spawns");
    if let Some(input) = stdin {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("stdin writes");
    }
    child.wait_with_output().expect("imc binary exits")
}

fn imc(args: &[&str], stdin: Option<&str>) -> Output {
    imc_with_env(args, stdin, &[])
}

fn stdout_of(args: &[&str], stdin: Option<&str>) -> String {
    let output = imc(args, stdin);
    assert!(
        output.status.success(),
        "imc {:?} failed: {}",
        args,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// A fresh per-test scratch directory (removed on drop).
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("imc_sweep_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the spec of `sweep` (`imc spec <sweep>`) into the scratch dir and
/// returns its path with the golden `imc run` bytes of it.
fn spec_and_golden(scratch: &Scratch, sweep: &str) -> (String, String) {
    let spec = stdout_of(&["spec", sweep], None);
    let spec_path = scratch.path(&format!("{sweep}.spec.json"));
    std::fs::write(&spec_path, &spec).expect("spec file writes");
    let golden = stdout_of(&["run", "-"], Some(&spec));
    (spec_path, golden)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).expect("run file exists")
}

#[test]
fn a_clean_sweep_is_byte_identical_to_the_unsharded_run() {
    let scratch = Scratch::new("clean");
    let (spec_path, golden) = spec_and_golden(&scratch, "fig8");
    let out = scratch.path("swept.jsonl");

    let summary = stdout_of(&["sweep", &spec_path, "--out", &out], None);
    assert_eq!(read(&out), golden, "a sweep writes the bytes of `imc run`");
    assert!(summary.contains("holds all 8 records"), "{summary}");
}

#[test]
fn an_injected_crash_fails_the_sweep_and_resume_completes_it_byte_identically() {
    let scratch = Scratch::new("resume");
    let (spec_path, golden) = spec_and_golden(&scratch, "fig8");
    let out = scratch.path("swept.jsonl");

    // The sweep writes one record plus half of the next, then aborts.
    let output = imc_with_env(
        &["sweep", &spec_path, "--out", &out],
        None,
        &[("IMC_FAULT_EXIT_AFTER_CELLS", "1")],
    );
    assert!(!output.status.success(), "the faulted sweep must die");
    assert_eq!(output.status.code(), None, "it dies by signal, not exit");
    let torn = read(&out);
    assert!(golden.starts_with(&torn), "the killed sweep left a prefix");
    assert_eq!(torn.matches('\n').count(), 2, "header and one record");
    assert!(!torn.ends_with('\n'), "plus a torn line");

    // Resume keeps the record, cuts the torn line and appends the rest.
    let summary = stdout_of(&["sweep", &spec_path, "--out", &out, "--resume"], None);
    assert!(summary.contains("1 kept"), "{summary}");
    assert_eq!(read(&out), golden, "crash + resume must not change a byte");
}

/// A real `kill -9` of a sweep mid-write: the file holds a strict prefix of
/// the run, and `--resume` completes it to the exact bytes.
#[cfg(unix)]
#[test]
fn a_kill_nine_mid_sweep_is_retried_to_byte_identical_output() {
    use std::os::unix::process::ExitStatusExt;

    let scratch = Scratch::new("kill9");
    let (spec_path, golden) = spec_and_golden(&scratch, "fig6");
    let out = scratch.path("swept.jsonl");

    let mut child = Command::new(imc_bin())
        .args(["sweep", &spec_path, "--out", &out, "--parallelism", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("imc binary spawns");
    // Kill as soon as the file holds its header and one complete record.
    let complete_lines =
        || std::fs::read_to_string(&out).map_or(0, |run| run.matches('\n').count());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while complete_lines() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no record appeared in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL is delivered");
    let status = child.wait().expect("the killed sweep is reaped");
    assert_eq!(status.signal(), Some(9), "died by SIGKILL: {status:?}");
    let partial = read(&out);
    assert!(
        partial.len() < golden.len() && golden.starts_with(&partial),
        "the killed sweep left a strict prefix ({} of {} bytes)",
        partial.len(),
        golden.len()
    );

    stdout_of(&["sweep", &spec_path, "--out", &out, "--resume"], None);
    assert_eq!(
        read(&out),
        golden,
        "kill -9 + resume must not change a byte"
    );
}

#[test]
fn resuming_a_complete_run_changes_no_byte() {
    let scratch = Scratch::new("complete");
    let (spec_path, golden) = spec_and_golden(&scratch, "fig8");
    let out = scratch.path("swept.jsonl");
    std::fs::write(&out, &golden).expect("run file writes");

    let summary = stdout_of(&["sweep", &spec_path, "--out", &out, "--resume"], None);
    assert!(
        summary.contains("8 kept"),
        "nothing is recomputed: {summary}"
    );
    assert_eq!(read(&out), golden);
}

#[test]
fn resuming_another_specs_run_is_refused_and_leaves_it_untouched() {
    let scratch = Scratch::new("foreign");
    let (spec_path, golden) = spec_and_golden(&scratch, "fig8");
    let out = scratch.path("swept.jsonl");
    let other_spec = stdout_of(&["spec", "fig8", "--seed", "7"], None);
    let other = stdout_of(&["run", "-"], Some(&other_spec));
    assert_ne!(other, golden);
    std::fs::write(&out, &other).expect("run file writes");

    let output = imc(&["sweep", &spec_path, "--out", &out, "--resume"], None);
    assert_eq!(output.status.code(), Some(2), "a usage error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let header = |run: &str| run.lines().next().expect("header line").to_owned();
    assert!(
        stderr.contains(&header(&other)),
        "names its header: {stderr}"
    );
    assert!(
        stderr.contains(&header(&golden)),
        "and this spec's: {stderr}"
    );
    assert_eq!(read(&out), other, "the file is left untouched");
}
