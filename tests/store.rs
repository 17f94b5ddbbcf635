//! End-to-end tests of the persistent result store: the restart story
//! (a fresh server on a warm `--store` directory serves byte-identical
//! responses from disk without recomputing), multi-process sharing of one
//! directory, budget-driven LRU eviction order, quarantine-and-recompute on
//! the normal paths, verify/repair exit codes, the `imc call run --store`
//! offline fallback, `imc sweep`'s write-through, the raw chunked framing
//! of every response source, and a store whose process died between hits.

use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::process::{Command, Output};

use imc::sim::store::entry_name;
use imc::sim::{ArrayAxis, StrategySpec};
use imc::{
    ExperimentSpec, Precision, Registry, RunKey, RunStore, ServeClient, ServeConfig, Server,
    DEFAULT_SEED,
};

/// A per-test scratch directory under the system temp dir, removed on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("imc_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creates");
        Scratch { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn imc_bin() -> &'static str {
    env!("CARGO_BIN_EXE_imc")
}

fn imc(args: &[&str]) -> Output {
    Command::new(imc_bin())
        .args(args)
        .output()
        .expect("imc invocation spawns")
}

/// A one-cell spec (resnet20 × one 32×32 array × im2col): the smallest
/// experiment the registry can resolve, so every test pays compute once.
fn tiny_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        seed,
        precision: Precision::F64,
        parallelism: None,
        cache: true,
        cells: None,
        frontier: false,
        synthetic_networks: vec![],
        networks: vec!["resnet20".to_owned()],
        arrays: vec![ArrayAxis::square(32)],
        strategies: vec![StrategySpec::new("im2col")],
    }
}

/// The golden bytes of a spec: the in-process run, serialized — what
/// `imc run` prints and what every store/serve path must reproduce exactly.
fn golden_bytes(spec: &ExperimentSpec) -> String {
    spec.clone()
        .into_experiment(&Registry::new())
        .expect("spec resolves")
        .run()
        .expect("run succeeds")
        .to_jsonl()
        .expect("run serializes")
}

/// POSTs a spec to `/v1/run` over raw TCP and returns (head, raw body):
/// the only way to observe the `x-imc-source` response header, which
/// [`ServeClient`] does not surface.
fn raw_post_run(addr: &str, spec_json: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("server accepts");
    let request = format!(
        "POST /v1/run HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{spec_json}",
        spec_json.len()
    );
    stream.write_all(request.as_bytes()).expect("request sends");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("response arrives whole (connection: close)");
    let text = String::from_utf8(response).expect("response is UTF-8");
    let split = text.find("\r\n\r\n").expect("response has a head");
    (text[..split].to_owned(), text[split + 4..].to_owned())
}

#[test]
fn a_restarted_server_serves_stored_bytes_without_recomputing() {
    let scratch = Scratch::new("restart");
    let store_dir = scratch.path("store");
    let spec = tiny_spec(DEFAULT_SEED);
    let spec_json = spec.to_json();
    let golden = golden_bytes(&spec);

    // Cold server: the first request computes and writes through to disk.
    let warm = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server binds");
    let first = ServeClient::new(warm.local_addr().to_string())
        .post_run(&spec_json)
        .expect("cold request succeeds");
    assert_eq!(first, golden, "cold compute serves the library bytes");
    let metrics = warm.metrics();
    assert_eq!(metrics.runs_computed, 1);
    assert_eq!(metrics.store_misses, 1, "the cold request probed the store");
    assert_eq!(metrics.store_hits, 0);
    warm.shutdown();
    warm.wait();

    // Restarted server, same directory, empty memory caches: the response
    // comes from the disk tier — sourced `store`, nothing recomputed.
    let restarted = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server rebinds");
    let addr = restarted.local_addr().to_string();
    let (head, _) = raw_post_run(&addr, &spec_json);
    assert!(
        head.contains("x-imc-source: store"),
        "the restart's first response must be sourced from the store: {head}"
    );
    // The store hit was promoted into the memory tier; a follow-up request
    // returns the same bytes (now a cache hit) — still byte-identical.
    let second = ServeClient::new(addr)
        .post_run(&spec_json)
        .expect("warm request succeeds");
    assert_eq!(second, golden, "store-served bytes equal fresh compute");
    let metrics = restarted.metrics();
    assert_eq!(metrics.runs_computed, 0, "the restart never recomputed");
    assert_eq!(metrics.store_hits, 1, "{metrics:?}");
    assert_eq!(metrics.response_cache_hits, 1, "{metrics:?}");
    restarted.shutdown();
    restarted.wait();
}

#[test]
fn two_servers_share_one_store_directory() {
    let scratch = Scratch::new("two_writers");
    let store_dir = scratch.path("store");
    let spec = tiny_spec(DEFAULT_SEED);
    let spec_json = spec.to_json();
    let golden = golden_bytes(&spec);

    // Both servers are up before any entry exists, so neither saw it at
    // open time — the hit below proves reads go to the shared directory,
    // not a private snapshot.
    let a = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server A binds");
    let b = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server B binds");

    let from_a = ServeClient::new(a.local_addr().to_string())
        .post_run(&spec_json)
        .expect("A computes");
    assert_eq!(from_a, golden);
    assert_eq!(a.metrics().runs_computed, 1);

    let from_b = ServeClient::new(b.local_addr().to_string())
        .post_run(&spec_json)
        .expect("B serves");
    assert_eq!(from_b, golden, "B serves A's bytes, byte-identically");
    let metrics = b.metrics();
    assert_eq!(metrics.runs_computed, 0, "B never recomputed: {metrics:?}");
    assert_eq!(metrics.store_hits, 1, "{metrics:?}");

    // The shared directory stayed clean: no temp debris, no quarantines.
    let debris: Vec<String> = std::fs::read_dir(&store_dir)
        .expect("store dir lists")
        .filter_map(|d| d.ok())
        .filter_map(|d| d.file_name().to_str().map(str::to_owned))
        .filter(|name| name.ends_with(".tmp") || name.ends_with(".corrupt"))
        .collect();
    assert!(debris.is_empty(), "{debris:?}");

    for server in [a, b] {
        server.shutdown();
        server.wait();
    }
}

#[test]
fn lru_gc_under_budget_evicts_the_coldest_entry_first() {
    let scratch = Scratch::new("lru");
    let store = RunStore::open(scratch.path("store")).expect("store opens");
    let specs = [tiny_spec(1), tiny_spec(2), tiny_spec(3)];
    let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
    let mut sizes = Vec::new();
    for (spec, key) in specs.iter().zip(&keys) {
        let bytes = golden_bytes(spec);
        store.put(key, &bytes).expect("put succeeds");
        sizes.push(bytes.len() as u64);
    }
    // Touch the oldest-written entry: recency, not write order, must decide.
    assert!(store.get(&keys[0]).is_some());

    let budget = sizes[0] + sizes[2];
    let report = store.gc(budget).expect("gc succeeds");
    assert_eq!(
        report.evicted,
        vec![entry_name(&keys[1])],
        "the untouched middle entry is the LRU victim"
    );
    assert!(store.get(&keys[1]).is_none(), "evicted entry is gone");
    assert!(store.get(&keys[0]).is_some(), "touched entry survives");
    assert!(store.get(&keys[2]).is_some(), "most recent write survives");
    assert_eq!(store.evictions(), 1);
}

#[test]
fn damaged_entries_degrade_to_recompute_on_the_run_path() {
    let scratch = Scratch::new("quarantine");
    let store_dir = scratch.path("store");
    std::fs::create_dir_all(&store_dir).unwrap();
    let spec = tiny_spec(DEFAULT_SEED);
    let spec_path = scratch.path("tiny.spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let golden = golden_bytes(&spec);

    // Plant garbage under the spec's own entry name: the run path must
    // quarantine it and recompute, never fail and never serve it.
    let entry = entry_name(&RunKey::of(&spec));
    std::fs::write(store_dir.join(&entry), "garbage\n").unwrap();

    let output = imc(&[
        "run",
        spec_path.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert!(
        output.status.success(),
        "a damaged store entry must not fail the run: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        golden,
        "the recomputed bytes are the library bytes"
    );
    assert!(
        store_dir.join(format!("{entry}.corrupt")).exists(),
        "the damaged entry was quarantined, not deleted"
    );
    // The recompute wrote through: a second run is a pure store hit, still
    // byte-identical.
    let again = imc(&[
        "run",
        spec_path.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert!(again.status.success());
    assert_eq!(String::from_utf8_lossy(&again.stdout), golden);
}

#[test]
fn store_verify_names_damaged_lines_and_repair_quarantines() {
    let scratch = Scratch::new("verify");
    let store_dir = scratch.path("store");
    let spec = tiny_spec(DEFAULT_SEED);
    let key = RunKey::of(&spec);
    let bytes = golden_bytes(&spec);
    let store = RunStore::open(&store_dir).expect("store opens");
    store.put(&key, &bytes).expect("put succeeds");

    // A clean store verifies with exit 0.
    let clean = imc(&["store", "verify", store_dir.to_str().unwrap()]);
    assert!(clean.status.success());

    // Damage the first record line but keep the line count intact: only the
    // strict verify parse can see it, and it must name the real file line.
    let mut lines: Vec<String> = bytes.lines().map(str::to_owned).collect();
    lines[1] = lines[1][..8].to_owned();
    std::fs::write(
        store_dir.join(entry_name(&key)),
        format!("{}\n", lines.join("\n")),
    )
    .unwrap();

    let found = imc(&["store", "verify", store_dir.to_str().unwrap()]);
    assert_eq!(
        found.status.code(),
        Some(3),
        "corruption on the explicit verify path is a record-format failure"
    );
    let stderr = String::from_utf8_lossy(&found.stderr);
    assert!(
        stderr.contains("line 2"),
        "the damage is named by its real 1-based line: {stderr}"
    );
    assert!(
        store_dir.join(entry_name(&key)).exists(),
        "without --repair nothing is moved"
    );

    let repaired = imc(&["store", "verify", store_dir.to_str().unwrap(), "--repair"]);
    assert!(repaired.status.success(), "--repair exits clean");
    assert!(!store_dir.join(entry_name(&key)).exists());
    assert!(
        store_dir
            .join(format!("{}.corrupt", entry_name(&key)))
            .exists(),
        "repair quarantines, never deletes"
    );
    let after = imc(&["store", "verify", store_dir.to_str().unwrap()]);
    assert!(
        after.status.success(),
        "the quarantined store verifies clean"
    );
}

#[test]
fn call_run_falls_back_to_the_store_when_the_server_is_unreachable() {
    let scratch = Scratch::new("offline");
    let store_dir = scratch.path("store");
    let spec = tiny_spec(DEFAULT_SEED);
    let spec_path = scratch.path("tiny.spec.json");
    std::fs::write(&spec_path, spec.to_json()).unwrap();
    let golden = golden_bytes(&spec);

    // Without a warm store the dead address is a hard failure (transient,
    // exit 4) — the fallback must not mask a miss.
    let cold = imc(&[
        "call",
        "run",
        spec_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:1",
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert_eq!(
        cold.status.code(),
        Some(4),
        "store miss surfaces the server error"
    );

    // Warm the store locally, then call the same dead address: offline mode
    // serves the stored bytes.
    let warm = imc(&[
        "run",
        spec_path.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
        "--out",
        scratch.path("warm.run.jsonl").to_str().unwrap(),
    ]);
    assert!(warm.status.success());
    let offline = imc(&[
        "call",
        "run",
        spec_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:1",
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert!(
        offline.status.success(),
        "offline fallback serves the stored run: {}",
        String::from_utf8_lossy(&offline.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&offline.stdout),
        golden,
        "offline bytes equal a server response"
    );
    assert!(
        String::from_utf8_lossy(&offline.stderr).contains("local store"),
        "the fallback is announced on stderr"
    );
}

#[test]
fn sweep_registers_the_merged_run_and_reuses_it() {
    let scratch = Scratch::new("sweep");
    let store_dir = scratch.path("store");
    let spec_path = scratch.path("fig8.spec.json");
    let first_out = scratch.path("first.run.jsonl");
    let second_out = scratch.path("second.run.jsonl");

    let spec_cmd = imc(&["spec", "fig8", "--out", spec_path.to_str().unwrap()]);
    assert!(spec_cmd.status.success());

    let sweep = imc(&[
        "sweep",
        spec_path.to_str().unwrap(),
        "--out",
        first_out.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert!(
        sweep.status.success(),
        "{}",
        String::from_utf8_lossy(&sweep.stderr)
    );
    let merged = std::fs::read_to_string(&first_out).expect("merged run exists");

    // The merged run was registered write-through under the spec's key.
    let spec = ExperimentSpec::load_json(&spec_path).expect("spec re-reads");
    let store = RunStore::open(&store_dir).expect("store opens");
    let stored = store.get(&RunKey::of(&spec)).expect("sweep wrote through");
    assert_eq!(stored.as_str(), merged, "stored bytes equal the merged run");

    // Re-sweeping the identical spec is a store hit: no worker processes,
    // no shard directory — just the persisted bytes.
    let resweep = imc(&[
        "sweep",
        spec_path.to_str().unwrap(),
        "--out",
        second_out.to_str().unwrap(),
        "--store",
        store_dir.to_str().unwrap(),
    ]);
    assert!(
        resweep.status.success(),
        "{}",
        String::from_utf8_lossy(&resweep.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resweep.stdout).contains("store hit"),
        "the short-circuit is announced"
    );
    assert_eq!(
        std::fs::read_to_string(&second_out).expect("second out exists"),
        merged,
        "the store-served sweep output is byte-identical"
    );
    assert!(
        !scratch.path("second.run.jsonl.sweep").exists(),
        "a store-served sweep spawns no shard directory"
    );
}

/// The chunked framing of a run, built independently of the server: one
/// `{len:x}\r\n{line}\r\n` chunk per JSON line, then the last chunk.
fn chunked(body: &str) -> String {
    let mut framed = String::new();
    for line in body.split_inclusive('\n') {
        framed.push_str(&format!("{:x}\r\n{line}\r\n", line.len()));
    }
    framed.push_str("0\r\n\r\n");
    framed
}

#[test]
fn raw_responses_from_every_source_carry_the_same_framed_bytes() {
    let scratch = Scratch::new("framing");
    let store_dir = scratch.path("store");
    // 40 cheap cells: a body larger than the server's 64 KiB write buffer.
    let mut spec = tiny_spec(DEFAULT_SEED);
    spec.arrays = [32, 64, 128, 256, 512].map(ArrayAxis::square).to_vec();
    spec.strategies = (1..=8)
        .map(|bits| StrategySpec::new("dorefa").with_usize("bits", bits))
        .collect();
    let spec_json = spec.to_json();
    let framed = chunked(&golden_bytes(&spec));
    assert!(framed.len() > 64 << 10, "{} bytes", framed.len());
    let head = |source: &str| {
        format!(
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
             transfer-encoding: chunked\r\nx-imc-source: {source}\r\nconnection: close"
        )
    };

    let server = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server binds");
    let addr = server.local_addr().to_string();
    for source in ["computed", "cache"] {
        let (got_head, got_body) = raw_post_run(&addr, &spec_json);
        assert_eq!(got_head, head(source));
        assert_eq!(got_body, framed, "{source} response");
    }
    server.shutdown();
    server.wait();

    let restarted = Server::bind(ServeConfig::new().store_dir(&store_dir)).expect("server binds");
    let (got_head, got_body) = raw_post_run(&restarted.local_addr().to_string(), &spec_json);
    assert_eq!(got_head, head("store"));
    assert_eq!(got_body, framed, "store response");
    restarted.shutdown();
    restarted.wait();
}

#[test]
fn a_crash_between_hits_leaves_a_store_that_opens_and_verifies() {
    let scratch = Scratch::new("crash");
    let store_dir = scratch.path("store");
    let specs = [tiny_spec(1), tiny_spec(2)];
    let keys: Vec<RunKey> = specs.iter().map(RunKey::of).collect();
    let store = RunStore::open(&store_dir).expect("store opens");
    for (spec, key) in specs.iter().zip(&keys) {
        store.put(key, &golden_bytes(spec)).expect("put succeeds");
    }
    assert!(store.get(&keys[0]).is_some());
    assert!(store.get(&keys[1]).is_some());
    // A process killed here never runs the handle's drop: the journal on
    // disk still holds the put ticks, not the hits.
    std::mem::forget(store);

    let reopened = RunStore::open(&store_dir).expect("a crashed store opens");
    let ticks: Vec<u64> = reopened.entries().iter().map(|e| e.last_access).collect();
    assert_eq!(ticks.len(), 2, "every entry is present");
    assert!(
        ticks.iter().all(|&tick| tick <= 2),
        "only the hits' recency was lost: {ticks:?}"
    );
    for (spec, key) in specs.iter().zip(&keys) {
        let bytes = reopened.get(key).expect("every entry still serves");
        assert_eq!(bytes.as_str(), golden_bytes(spec));
    }
    drop(reopened);

    let verify = imc(&["store", "verify", store_dir.to_str().unwrap()]);
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    assert!(
        String::from_utf8_lossy(&verify.stdout).contains("2 entries checked, 2 ok"),
        "{}",
        String::from_utf8_lossy(&verify.stdout)
    );
}
