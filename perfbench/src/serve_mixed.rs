//! `serve_mixed`: an in-process `qce_serve::Server` with a fresh stage
//! cache, fed by an open-loop client. Jobs are due on a fixed schedule;
//! two in five resubmit an earlier scenario of the same run (cache
//! replay or dedup), the rest are new (training plus checkpoint writes).
//!
//! Each job is timed from its due time to the terminal line of
//! `GET /v1/jobs/{id}/stream`. The client runs at most `nproc` threads,
//! each holding at most one connection; a job whose client slot is still
//! busy at its due time waits, and that wait counts in its latency.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qce::{AttackFlow, BandRule, FlowConfig, FlowOutcome, Grouping, QuantConfig, QuantMethod};
use qce_harness::{DatasetKind, DatasetSpec, Scenario};
use qce_serve::http::http_request;
use qce_serve::{Server, ServerConfig};
use qce_store::StageCache;
use qce_telemetry::json::{parse, JsonValue};

use crate::layers::{self, Ledger, QCE_STEPS};
use crate::stats::{median, percentile, timed};
use crate::{trace, Args, RunOutcome};

/// Jobs due per second: about half of what two workers sustain on cold
/// jobs alone (a cold job takes 50–65 ms on an otherwise idle 2-vCPU
/// x86-64 VM).
const RATE_PER_S: f64 = 10.0;
/// Jobs a run submits at least, whatever `--seconds` says.
const MIN_JOBS: usize = 200;
/// Jobs in every five that resubmit an earlier scenario. Two in five,
/// not one in two: latency is bimodal (cold ~55 ms, warm ~5 ms on a
/// 2-vCPU VM), and with an even mix the median would flip between the
/// modes from seed to seed.
const RESUBMITS_PER_FIVE: usize = 2;
/// Latency limit of one job, from its due time, ms.
pub const JOB_SLO_MS: f64 = 250.0;
/// Server starts timed during set-up (the median is reported).
const SETUP_REPS: usize = 9;
/// Flow seed of the set-up job, outside every seed a schedule uses.
const WARMUP_SEED: u64 = 1 << 62;

/// splitmix64: the load plan's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `qce-serve load` job shape: a one-epoch tiny flow with 4-bit
/// target-correlated quantization over 96 8×8 images.
fn scenario(flow_seed: u64) -> Scenario {
    Scenario {
        name: format!("perfbench_{flow_seed}"),
        dataset: job_dataset(),
        flow: FlowConfig {
            seed: flow_seed,
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

/// The dataset every serve job synthesizes.
pub fn job_dataset() -> DatasetSpec {
    DatasetSpec {
        kind: DatasetKind::Cifar,
        size: 8,
        classes: 4,
        count: 96,
        seed: 5,
        rgb: false,
    }
}

/// One planned submission.
struct Planned {
    due_ms: f64,
    scenario: usize,
    resubmit: bool,
}

/// The open-loop schedule: `jobs` submissions `1 / RATE_PER_S` apart.
/// In every block of five, `RESUBMITS_PER_FIVE` seeded positions (never
/// the very first job) resubmit a seeded pick among the earlier new
/// scenarios; the rest are new.
fn plan(seed: u64, jobs: usize) -> (Vec<Scenario>, Vec<Planned>) {
    let mut rng = Rng(seed);
    let mut resubmit = vec![false; jobs];
    for block in (0..jobs).step_by(5) {
        let mut slots: Vec<usize> = (block.max(1)..(block + 5).min(jobs)).collect();
        for _ in 0..RESUBMITS_PER_FIVE.min(slots.len()) {
            let pick = (rng.next() % slots.len() as u64) as usize;
            resubmit[slots.swap_remove(pick)] = true;
        }
    }
    let mut scenarios = Vec::new();
    let mut planned = Vec::with_capacity(jobs);
    for (i, again) in resubmit.into_iter().enumerate() {
        let due_ms = i as f64 * 1e3 / RATE_PER_S;
        if again {
            let pick = (rng.next() % scenarios.len() as u64) as usize;
            planned.push(Planned {
                due_ms,
                scenario: pick,
                resubmit: true,
            });
        } else {
            scenarios.push(scenario(seed.wrapping_mul(100_000).wrapping_add(i as u64)));
            planned.push(Planned {
                due_ms,
                scenario: scenarios.len() - 1,
                resubmit: false,
            });
        }
    }
    (scenarios, planned)
}

/// What the client saw of one job.
struct JobRecord {
    scenario: usize,
    resubmit: bool,
    deduped: bool,
    /// Send time minus due time, ms.
    lag_ms: f64,
    /// Due time to terminal stream line, ms.
    latency_ms: f64,
    /// Submit to terminal stream line, ms.
    served_ms: f64,
    /// `(step, wall ms)` of every stage event on the stream.
    stages: Vec<(String, f64)>,
    state: String,
    result: Option<JsonValue>,
}

fn submit_and_stream(addr: &str, scenario: &Scenario) -> Result<(bool, String), String> {
    let (status, body) = {
        let _s = trace::span("serve.submit");
        http_request(
            addr,
            "POST",
            "/v1/jobs",
            &[
                ("X-Qce-Tenant", "perfbench"),
                ("Content-Type", "application/json"),
            ],
            Some(&scenario.to_json()),
        )
        .map_err(|e| format!("submit: {e}"))?
    };
    if status != 200 {
        return Err(format!("submit returned {status}: {body}"));
    }
    let doc = parse(&body).map_err(|e| format!("submit body: {e}"))?;
    let id = doc
        .get("id")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("submit body without id: {body}"))?
        .to_string();
    let deduped = matches!(doc.get("deduped"), Some(JsonValue::Bool(true)));
    let _s = trace::span("serve.stream");
    let (status, stream) = http_request(addr, "GET", &format!("/v1/jobs/{id}/stream"), &[], None)
        .map_err(|e| format!("stream: {e}"))?;
    if status != 200 {
        return Err(format!("stream returned {status}: {stream}"));
    }
    Ok((deduped, stream))
}

/// Runs the schedule against `addr` with `nproc` client threads.
fn drive(
    addr: &str,
    scenarios: &[Scenario],
    planned: &[Planned],
) -> (Vec<Result<JobRecord, String>>, f64) {
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..planned.len()).collect());
    let records: Mutex<Vec<(usize, Result<JobRecord, String>)>> = Mutex::new(Vec::new());
    let clients = qce_tensor::par::detected_cores().max(1);
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let Some(i) = queue.lock().expect("job queue").pop_front() else {
                    return;
                };
                let job = &planned[i];
                let due = t0 + Duration::from_secs_f64(job.due_ms / 1e3);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let span = trace::span("serve.job");
                let result = submit_and_stream(addr, &scenarios[job.scenario]);
                let done = Instant::now();
                drop(span);
                let record = result.and_then(|(deduped, stream)| {
                    let mut stages = Vec::new();
                    let mut terminal = None;
                    for line in stream.lines().filter(|l| !l.trim().is_empty()) {
                        let doc = parse(line).map_err(|e| format!("stream line: {e}"))?;
                        match doc.get("type").and_then(JsonValue::as_str) {
                            Some("stage") => stages.push((
                                doc.get("step")
                                    .and_then(JsonValue::as_str)
                                    .unwrap_or("")
                                    .to_string(),
                                doc.get("wall_ms")
                                    .and_then(JsonValue::as_f64)
                                    .unwrap_or(0.0),
                            )),
                            Some("state") => terminal = Some(doc),
                            _ => {}
                        }
                    }
                    let terminal = terminal.ok_or("stream ended without a terminal line")?;
                    Ok(JobRecord {
                        scenario: job.scenario,
                        resubmit: job.resubmit,
                        deduped,
                        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                        served_ms: (done - sent).as_secs_f64() * 1e3,
                        stages,
                        state: terminal
                            .get("state")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string(),
                        result: terminal.get("result").cloned(),
                    })
                });
                records.lock().expect("records").push((i, record));
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("records");
    records.sort_by_key(|(i, _)| *i);
    (records.into_iter().map(|(_, r)| r).collect(), wall_s)
}

/// The result document fields a served job must reproduce, from a
/// reference `AttackFlow::run` of the same scenario.
fn reference_fields(outcome: &FlowOutcome) -> Vec<(String, JsonValue)> {
    let report = outcome.final_report();
    let mut fields = vec![
        (
            "pre_quant_accuracy".to_string(),
            JsonValue::Num(f64::from(outcome.pre_quant.accuracy)),
        ),
        (
            "accuracy".to_string(),
            JsonValue::Num(f64::from(report.accuracy)),
        ),
        (
            "images".to_string(),
            JsonValue::Num(report.images.len() as f64),
        ),
        (
            "recognized".to_string(),
            JsonValue::Num(report.recognized_count() as f64),
        ),
        (
            "mean_mape".to_string(),
            JsonValue::Num(f64::from(report.mean_mape())),
        ),
        (
            "mean_ssim".to_string(),
            JsonValue::Num(f64::from(report.mean_ssim())),
        ),
        (
            "compression_ratio".to_string(),
            outcome
                .compression_ratio
                .map_or(JsonValue::Null, JsonValue::Num),
        ),
    ];
    for (name, digest) in outcome.artifact_digests() {
        fields.push((
            format!("digests.{name}"),
            JsonValue::Str(format!("{digest:016x}")),
        ));
    }
    fields
}

fn check_job(record: &JobRecord, reference: &[(String, JsonValue)]) -> Result<(), String> {
    if record.state != "done" {
        return Err(format!("job ended as {:?}", record.state));
    }
    let result = record.result.as_ref().ok_or("done job without a result")?;
    for (name, want) in reference {
        let got = match name.split_once('.') {
            Some((outer, inner)) => result.get(outer).and_then(|o| o.get(inner)),
            None => result.get(name),
        };
        if got != Some(want) {
            return Err(format!("{name}: served {got:?}, reference {want:?}"));
        }
    }
    Ok(())
}

/// One load phase: a server over a fresh cache, the schedule, then the
/// reference runs and every check.
struct Phase {
    records: Vec<Option<JobRecord>>,
    wall_s: f64,
    /// `store.{hit,miss,write}` deltas over the load window.
    store: [u64; 3],
    cache_files: (u64, u64),
    server: Server,
}

/// Set-up: a server over a fresh cache at `dir`, ready once it has
/// answered `/healthz` and completed one cold job end to end.
fn start_server(dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: qce_tensor::par::detected_cores(),
        tenant_quota: 0,
        cache: Some(StageCache::at(dir)),
    })
    .map_err(|e| format!("server start: {e}"))?;
    let (status, _) = http_request(&server.addr().to_string(), "GET", "/healthz", &[], None)
        .map_err(|e| format!("healthz: {e}"))?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }
    let (_, stream) = submit_and_stream(&server.addr().to_string(), &scenario(WARMUP_SEED))?;
    if !stream.contains("\"state\":\"done\"") {
        return Err(format!("set-up job did not finish: {stream}"));
    }
    Ok(server)
}

fn run_phase(
    server: Server,
    dir: &Path,
    seed: u64,
    jobs: usize,
    out: &mut RunOutcome,
) -> Result<Phase, String> {
    let (scenarios, planned) = plan(seed, jobs);
    let addr = server.addr().to_string();
    let (warm, _) = layers::cache_files(dir);
    let before = layers::store_counters();
    let (results, wall_s) = drive(&addr, &scenarios, &planned);
    let after = layers::store_counters();
    let store = [0, 1, 2].map(|i| after[i] - before[i]);
    let cache_files = {
        let ((files, bytes), _) = layers::cache_files(dir);
        (files - warm.0, bytes - warm.1)
    };

    // References: every scenario the run submitted, through
    // `AttackFlow::run` against a cache of their own.
    let ref_dir = dir.with_extension("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let ref_before = layers::store_counters();
    let mut references = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        let data = s.dataset.generate().map_err(|e| format!("dataset: {e}"))?;
        let outcome = AttackFlow::new(s.flow.clone())
            .with_cache(StageCache::at(&ref_dir))
            .run(&data)
            .map_err(|e| format!("reference run: {e}"))?;
        references.push(reference_fields(&outcome));
    }
    let ref_writes = layers::store_counters()[2] - ref_before[2];
    let _ = std::fs::remove_dir_all(&ref_dir);

    // Replays must read the cache and never write it: the run writes
    // exactly what one cold run of each scenario writes.
    let replays = results
        .iter()
        .flatten()
        .filter(|r| r.resubmit && !r.deduped)
        .count();
    let cache_check = if store[2] != ref_writes {
        Err(format!(
            "served jobs made {} store writes, one cold run of each scenario makes {ref_writes}",
            store[2]
        ))
    } else if replays > 0 && store[0] == 0 {
        Err(format!("{replays} replayed jobs, zero store.hit delta"))
    } else {
        Ok(())
    };

    let mut records = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(record) => {
                let mut check = check_job(&record, &references[record.scenario]);
                if record.resubmit && check.is_ok() {
                    check.clone_from(&cache_check);
                }
                let ok = check.is_ok();
                out.check("serve_mixed job", check);
                records.push(ok.then_some(record));
            }
            Err(e) => {
                out.check("serve_mixed job", Err(e));
                records.push(None);
            }
        }
    }
    out.notes.push(format!(
        "phase: {} jobs ({} scenarios) in {wall_s:.2} s; store hit/miss/write {store:?}, reference writes {ref_writes}",
        records.len(),
        scenarios.len()
    ));
    Ok(Phase {
        records,
        wall_s,
        store,
        cache_files,
        server,
    })
}

fn jobs_for(args: &Args) -> usize {
    MIN_JOBS.max((args.seconds * RATE_PER_S).ceil() as usize)
}

/// Latencies of jobs that completed correctly; failed jobs count
/// against the latency limit.
fn latencies(records: &[Option<JobRecord>]) -> Vec<f64> {
    records.iter().flatten().map(|r| r.latency_ms).collect()
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let mut out = RunOutcome::default();
    let dir = crate::work_dir().join("serve-cache");

    let mut setup_ms = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let (s, ms) = timed(|| start_server(&dir));
        setup_ms.push(ms);
        server = Some(s?);
    }
    let server = server.expect("at least one set-up repetition");

    if args.trace {
        return traced(args, server, &dir, out);
    }

    let phase = run_phase(server, &dir, args.seed, jobs_for(args), &mut out)?;
    phase.server.shutdown();
    let lags: Vec<f64> = phase.records.iter().flatten().map(|r| r.lag_ms).collect();
    out.notes.push(format!(
        "generator lag p95 = {:.4} ms (n={})",
        percentile(&lags, 95.0),
        lags.len()
    ));
    out.set_e2e(
        "job",
        &setup_ms,
        &latencies(&phase.records),
        phase.wall_s,
        JOB_SLO_MS,
    );
    Ok(out)
}

/// Jobs of the serve probe other workloads' traced runs make.
const PROBE_JOBS: usize = 30;

/// Serve-layer metrics from one load phase, measured while its server
/// still runs (`/healthz` round trips) and then shut down. Returns the
/// cold jobs, whose stage times the `serve_mixed` traced run reports.
fn serve_metrics(ledger: &mut Ledger, phase: Phase) -> Vec<JobRecord> {
    let addr = phase.server.addr().to_string();
    let rtt: Vec<f64> = (0..100)
        .filter_map(|_| {
            let _s = trace::span("serve.healthz");
            let (r, ms) = timed(|| http_request(&addr, "GET", "/healthz", &[], None));
            r.ok().map(|_| ms)
        })
        .collect();
    phase.server.shutdown();
    ledger.set("serve.http_rtt_p50_ms", median(&rtt));

    let records: Vec<JobRecord> = phase.records.into_iter().flatten().collect();
    let run_ms = |r: &JobRecord| r.stages.iter().map(|(_, ms)| ms).sum::<f64>();
    let served = |keep: &dyn Fn(&JobRecord) -> bool| {
        let ms: Vec<f64> = records
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.served_ms)
            .collect();
        median(&ms)
    };
    ledger.set("serve.cold_p50_ms", served(&|r| !r.resubmit && !r.deduped));
    ledger.set("serve.warm_p50_ms", served(&|r| r.resubmit && !r.deduped));
    let waits: Vec<f64> = records.iter().map(|r| r.served_ms - run_ms(r)).collect();
    ledger.set("serve.queue_wait_p50_ms", median(&waits));
    let runs: Vec<f64> = records.iter().map(run_ms).collect();
    ledger.set("serve.run_p50_ms", median(&runs));
    ledger.set(
        "serve.dedup_share",
        records.iter().filter(|r| r.deduped).count() as f64 / records.len().max(1) as f64,
    );
    let lags: Vec<f64> = records.iter().map(|r| r.lag_ms).collect();
    ledger.set("loadgen.lag_p95_ms", percentile(&lags, 95.0));
    records
        .into_iter()
        .filter(|r| !r.resubmit && !r.deduped)
        .collect()
}

/// The serve layer probed inside another workload's traced run: a short
/// schedule of `PROBE_JOBS` jobs against its own server, every job
/// checked like a `serve_mixed` job.
pub fn serve_probe(ledger: &mut Ledger, out: &mut RunOutcome, seed: u64) -> Result<(), String> {
    let dir = crate::work_dir().join("serve-probe");
    let phase = run_phase(start_server(&dir)?, &dir, seed, PROBE_JOBS, out)?;
    serve_metrics(ledger, phase);
    Ok(())
}

/// The traced run: the schedule untraced, then again (new scenarios,
/// new server) with tracing on; serve metrics, cold-job stage times and
/// store counters come from the traced phase, then the layer probes.
fn traced(
    args: &Args,
    server: Server,
    dir: &Path,
    mut out: RunOutcome,
) -> Result<RunOutcome, String> {
    let mut ledger = Ledger::new();
    let jobs = jobs_for(args);
    let plain = run_phase(server, dir, args.seed, jobs, &mut out)?;
    plain.server.shutdown();
    let plain_p50 = median(&latencies(&plain.records));

    trace::start();
    let phase = run_phase(
        start_server(dir)?,
        dir,
        args.seed.wrapping_add(1 << 32),
        jobs,
        &mut out,
    )?;
    let traced_p50 = median(&latencies(&phase.records));
    ledger.set(
        "telemetry.trace_overhead_share",
        traced_p50 / plain_p50 - 1.0,
    );
    layers::set_store(&mut ledger, phase.store, phase.cache_files);
    let cold = serve_metrics(&mut ledger, phase);
    let mut steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &cold {
        for (step, ms) in &r.stages {
            if let Some(known) = QCE_STEPS.iter().find(|s| **s == step.as_str()) {
                steps.entry(known).or_default().push(*ms);
            }
        }
    }
    for (step, ms) in steps {
        ledger.set(&format!("qce.{step}_ms"), median(&ms));
    }

    layers::layer_probes(&mut ledger, &mut out)?;
    let analysis = trace::finish(
        &crate::work_dir().join("serve_mixed.trace.jsonl"),
        &["serve.job", "serve.stream", "nn.epoch"],
    )?;
    layers::nn_from_trace(&mut ledger, &analysis);
    out.notes.push(format!(
        "trace: {} events, {} span names, validated; job p50 untraced {plain_p50:.2} ms, traced {traced_p50:.2} ms; {} cold jobs",
        analysis.events,
        analysis.spans,
        cold.len(),
    ));
    out.metrics = ledger.into_metrics();
    Ok(out)
}
