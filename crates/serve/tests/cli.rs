//! `qce-serve serve` flag handling, driven through the real binary.
//!
//! The daemon is a child process here, so its telemetry counters (read
//! back over `GET /v1/stats`) belong to this test alone.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use qce::{BandRule, FlowConfig, Grouping, QuantConfig, QuantMethod};
use qce_harness::{DatasetKind, DatasetSpec, Scenario};
use qce_serve::http::http_request;
use qce_telemetry::json::{parse, JsonValue};

/// A child daemon that is killed if the test fails before shutting it
/// down.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open for the daemon's life: it keeps printing status lines,
    /// and a closed pipe would make those writes kill it.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_qce-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .args(extra)
            .env_remove("QCE_CACHE")
            .env_remove("QCE_CACHE_MAX_BYTES")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn qce-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read banner");
        let addr = line
            .trim()
            .strip_prefix("qce-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            _stdout: stdout,
        }
    }

    fn shutdown(mut self) {
        let _ = http_request(&self.addr, "POST", "/v1/shutdown", &[], None);
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.child.try_wait().expect("wait").is_none() {
            assert!(Instant::now() < deadline, "daemon did not exit");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scenario() -> Scenario {
    Scenario {
        name: "cli-cache".to_string(),
        dataset: DatasetSpec {
            kind: DatasetKind::Cifar,
            size: 8,
            classes: 4,
            count: 96,
            seed: 5,
            rgb: false,
        },
        flow: FlowConfig {
            seed: 4701,
            epochs: 1,
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: Some(QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
            verbose: false,
            ..FlowConfig::tiny()
        },
        fault: None,
        defenses: Vec::new(),
        tolerance_overrides: Vec::new(),
    }
}

fn get_json(addr: &str, path: &str) -> JsonValue {
    let (status, body) = http_request(addr, "GET", path, &[], None).expect("GET");
    assert_eq!(status, 200, "GET {path}: {body}");
    parse(&body).expect("JSON body")
}

/// Submits `scenario` and blocks until the job is terminal; returns its
/// final state.
fn run_job(addr: &str, scenario: &Scenario) -> String {
    let (status, body) =
        http_request(addr, "POST", "/v1/jobs", &[], Some(&scenario.to_json())).expect("submit");
    assert_eq!(status, 200, "submit: {body}");
    let doc = parse(&body).expect("submit JSON");
    let id = doc.get("id").and_then(JsonValue::as_str).expect("id");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let doc = get_json(addr, &format!("/v1/jobs/{id}"));
        let state = doc.get("state").and_then(JsonValue::as_str).expect("state");
        if matches!(state, "done" | "failed" | "cancelled") {
            return state.to_string();
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn store_counter(addr: &str, name: &str) -> u64 {
    get_json(addr, "/v1/stats")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

#[test]
fn cache_flag_alone_enables_the_stage_cache() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("qce-serve-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");

    // `--cache DIR` with no `--cache-max-bytes`: the cold job must write
    // its stages into DIR...
    let daemon = Daemon::start(&["--cache", dir_arg]);
    let target = scenario();
    assert_eq!(run_job(&daemon.addr, &target), "done");
    let cold_writes = store_counter(&daemon.addr, "store.write");
    assert!(cold_writes > 0, "cold job wrote nothing to --cache");
    assert!(
        std::fs::read_dir(&dir).map_or(0, Iterator::count) > 0,
        "--cache directory left empty"
    );

    // ...and a warm resubmit must replay every stage from it.
    let hits_before = store_counter(&daemon.addr, "store.hit");
    assert_eq!(run_job(&daemon.addr, &target), "done");
    let hit_delta = store_counter(&daemon.addr, "store.hit") - hits_before;
    assert!(hit_delta >= 4, "expected >=4 stage hits, got {hit_delta}");
    assert_eq!(
        store_counter(&daemon.addr, "store.write"),
        cold_writes,
        "warm resubmit recomputed a stage"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
