//! `perfbench` — the qce benchmark: end-to-end metrics with tracing off,
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_flow --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `paper_flow` — one quickstart-size attack flow driven step by step
//!   through `FlowMachine::advance`, no stage cache.
//! * `sweep_grid` — the committed grid (`perfbench/grid.json`) run cold
//!   through `qce_sweep::run_cells` at `nproc` workers.
//! * `serve_mixed` — an in-process `qce_serve::Server` fed by an
//!   open-loop client: half new jobs, half resubmits.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Every check failure
//! counts as a failed op and makes the exit code non-zero.

mod layers;
mod paper_flow;
mod serve_mixed;
mod stats;
mod sweep_grid;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use stats::{median, peak_rss_mb, Metrics, Timing};

/// Input seeds with committed expected outputs: `--seed n` selects input
/// set `n % INPUT_SETS`.
pub const INPUT_SETS: u64 = 16;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The input set this seed selects.
    pub fn input(&self) -> u64 {
        self.seed % INPUT_SETS
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Human-readable lines printed before the result (sample counts,
    /// workload-specific metric names, check results).
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// Fills the end-to-end metric set every workload reports, and notes
    /// each figure under the workload's own name (`op` = flow, cell or
    /// job) with its sample count. `ops_ms` holds the latencies of the
    /// measured ops whose checks passed; every failed op counts as
    /// missing `slo_ms`.
    pub fn set_e2e(
        &mut self,
        op: &str,
        setup_ms: &[f64],
        ops_ms: &[f64],
        wall_s: f64,
        slo_ms: f64,
    ) {
        let attempted = self.attempted.max(1) as f64;
        let timing = Timing::of(ops_ms);
        let slo_met = ops_ms.iter().filter(|&&ms| ms <= slo_ms).count() as f64
            / (ops_ms.len() as u64 + self.failed).max(1) as f64;
        let failed_share = self.failed as f64 / attempted;
        let rate = ops_ms.len() as f64 / wall_s;
        self.notes.push(format!(
            "{op}_p50_ms = {:.4} ms, {op}_p{}_ms = {:.4} ms (n={}); {op}s_per_s = {rate:.4} 1/s over {wall_s:.2} s",
            timing.p50, timing.tail_q, timing.tail, timing.n
        ));
        self.notes.push(format!(
            "failed_share = {failed_share:.4} ({} of {}); {op}_slo_miss_share = {:.4} (limit {slo_ms} ms); setup_s median of {}",
            self.failed,
            self.attempted,
            1.0 - slo_met,
            setup_ms.len()
        ));
        let m = &mut self.metrics;
        m.put("setup_s", median(setup_ms) / 1e3, "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("ok_share", 1.0 - failed_share, "share");
        m.put("op_p50_ms", timing.p50, "ms");
        m.put("op_tail_ms", timing.tail, "ms");
        m.put("ops_per_s", rate, "1/s");
        m.put("slo_met_share", slo_met, "share");
    }

    /// Records one op's check: `Err` counts it failed and notes why.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED {what}: {e}"));
        }
    }
}

/// Everything the benchmark writes lives here, inside its own directory
/// of the checkout, and is removed when the run ends.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// The benchmark's committed files (`grid.json`, `expected.json`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    let seed = value("--seed")
        .map_or(Ok(1), |s| s.parse::<u64>())
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")
        .map_or(Ok(20.0), |s| s.parse::<f64>())
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Host provenance printed with every result. The checkout the
/// benchmark runs in need not be a git repository, so the commit comes
/// from `QCE_COMMIT` when the caller knows it, and a digest of the
/// workspace sources identifies the code either way.
fn provenance(args: &Args) -> String {
    let commit = std::env::var("QCE_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "provenance: workload={} seed={} input={} trace={} nproc={} simd={} QCE_THREADS={} pool_threads={} commit={commit} sources={}",
        args.workload,
        args.seed,
        args.input(),
        u8::from(args.trace),
        qce_tensor::par::detected_cores(),
        qce_tensor::simd::active().name(),
        std::env::var("QCE_THREADS").unwrap_or_else(|_| "unset".to_string()),
        qce_tensor::par::Pool::global().threads(),
        source_digest(),
    )
}

/// FNV-1a digest of every `.rs` and `Cargo.toml` under `crates/`, in
/// path order.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let root = bench_dir().join("..").join("crates");
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    let mut digest = qce_store::Digester::new();
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        digest = digest
            .bytes(rel.to_string_lossy().as_bytes())
            .bytes(&std::fs::read(file).unwrap_or_default());
    }
    format!("{:016x}", digest.finish())
}

fn run(args: &Args) -> Result<RunOutcome, String> {
    match args.workload.as_str() {
        "paper_flow" => paper_flow::run(args),
        "sweep_grid" => sweep_grid::run(args),
        "serve_mixed" => serve_mixed::run(args),
        other => Err(format!(
            "unknown workload {other:?} (paper_flow, sweep_grid, serve_mixed)"
        )),
    }
}

fn main() -> ExitCode {
    // Inputs come from the arguments alone: environment knobs that would
    // attach a cache or a trace sink to the measured program are cleared
    // before anything reads them. QCE_THREADS and QCE_SIMD are kept (and
    // recorded in the provenance line).
    for var in ["QCE_CACHE", "QCE_CACHE_MAX_BYTES", "QCE_TRACE", "QCE_ALLOC"] {
        std::env::remove_var(var);
    }
    qce_telemetry::set_level(qce_telemetry::Level::Off);

    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(paper_flow::CHILD_FLAG) {
        return paper_flow::child_main(&argv[2..]);
    }
    if argv.get(1).map(String::as_str) == Some("--bless") {
        return bless(&argv[2..]);
    }
    if argv.get(1).map(String::as_str) == Some("--list-per-layer") {
        for (name, unit, better) in layers::per_layer_metrics() {
            println!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let _ = std::fs::remove_dir_all(work_dir());
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("perfbench: creating {}: {e}", work_dir().display());
        return ExitCode::from(2);
    }
    let result = run(&args);
    let _ = std::fs::remove_dir_all(work_dir());
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in outcome.metrics.iter() {
        println!("metric {name} = {value} {unit}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--bless <workload>`: recomputes the committed expected outputs of
/// every input set and prints them as `expected.json` entries. Used only
/// when a change is meant to alter the program's outputs.
fn bless(argv: &[String]) -> ExitCode {
    let result = match argv.first().map(String::as_str) {
        Some("paper_flow") => paper_flow::bless(),
        Some("sweep_grid") => sweep_grid::bless(),
        _ => Err("usage: perfbench --bless paper_flow|sweep_grid".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
