//! `sweep_grid`: the committed grid run cold, pass after pass, each pass
//! against a fresh stage-cache directory through `qce_sweep::run_cells`
//! at `nproc` workers.

use std::path::Path;
use std::time::Instant;

use qce_store::StageCache;
use qce_sweep::{merge_partials, parse_grid, partial_json, run_cells, CellRun, ExecOptions, Grid};

use crate::layers::{self, Ledger};
use crate::stats::{median, timed};
use crate::{trace, Args, RunOutcome};

/// Grid expansions timed during set-up (the median is reported).
const SETUP_REPS: usize = 11;
/// Cells a run measures at least, whatever `--seconds` says.
const MIN_CELLS: usize = 200;
/// Latency limit of one cell, ms.
const CELL_SLO_MS: f64 = 500.0;

/// The committed grid with input set `input`'s seeds filled in.
fn grid(input: u64) -> Result<Grid, String> {
    let path = crate::bench_dir().join("grid.json");
    let template =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let spec = template
        .replace("@DATA_SEED@", &(100 + input).to_string())
        .replace("@SEED_A@", &(2 * input + 1).to_string())
        .replace("@SEED_B@", &(2 * input + 2).to_string());
    parse_grid(&spec).map_err(|e| format!("grid: {e}"))
}

fn workers() -> usize {
    qce_tensor::par::detected_cores()
}

/// One cold pass: fresh cache directory, every cell, merged report
/// digest. Returns the runs, the digest and the pass wall time (ms).
fn pass(grid: &Grid, dir: &Path, workers: usize) -> Result<(Vec<CellRun>, String, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let opts = ExecOptions {
        workers,
        cache: Some(StageCache::at(dir)),
        limit: None,
    };
    let started = Instant::now();
    let runs = {
        let _span = trace::span("sweep.pass");
        run_cells(&grid.cells, &opts).map_err(|e| format!("run_cells: {e}"))?
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report =
        merge_partials(&[partial_json(grid, 0, 1, &runs)]).map_err(|e| format!("merge: {e}"))?;
    Ok((runs, report.digest_hex(), wall_ms))
}

/// The committed report digest of input set `input`.
fn expected(input: u64) -> Result<String, String> {
    layers::expected_doc()?
        .get("sweep_grid")
        .and_then(|w| w.get(&input.to_string()))
        .and_then(|d| d.as_str().map(String::from))
        .ok_or_else(|| format!("expected.json has no sweep_grid entry {input}"))
}

/// Prints the `sweep_grid` section of `expected.json`, after checking
/// that one worker and `nproc` workers give the same report.
pub fn bless() -> Result<(), String> {
    let mut entries = Vec::new();
    for input in 0..crate::INPUT_SETS {
        let grid = grid(input)?;
        let dir = crate::work_dir().join("bless");
        let (_, many, ms) = pass(&grid, &dir, workers())?;
        let (_, one, _) = pass(&grid, &dir, 1)?;
        let _ = std::fs::remove_dir_all(&dir);
        if many != one {
            return Err(format!(
                "input {input}: digest {many} at {} workers, {one} at 1",
                workers()
            ));
        }
        eprintln!(
            "sweep_grid input {input}: {} cells, {ms:.0} ms",
            grid.cells.len()
        );
        entries.push(format!("    \"{input}\": \"{many}\""));
    }
    println!("  \"sweep_grid\": {{\n{}\n  }}", entries.join(",\n"));
    Ok(())
}

/// A pass whose report digest is checked. Every cell counts as one op;
/// all of them fail when the pass errors or its digest is wrong.
fn checked_pass(
    grid: &Grid,
    dir: &Path,
    workers: usize,
    expected: &str,
    out: &mut RunOutcome,
) -> Result<(Vec<CellRun>, f64), String> {
    let cells = grid.cells.len() as u64;
    out.attempted += cells;
    let result = pass(grid, dir, workers).and_then(|(runs, digest, wall_ms)| {
        if digest == expected {
            Ok((runs, wall_ms))
        } else {
            Err(format!("report digest {digest}, expected {expected}"))
        }
    });
    if let Err(e) = &result {
        out.failed += cells;
        out.notes.push(format!("CHECK FAILED sweep_grid pass: {e}"));
    }
    result
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let input = args.input();
    let expected = expected(input)?;
    let mut out = RunOutcome::default();

    let mut setup_ms = Vec::new();
    let mut expanded = None;
    for _ in 0..SETUP_REPS {
        let (g, ms) = timed(|| grid(input));
        setup_ms.push(ms);
        expanded = Some(g?);
    }
    let grid = expanded.expect("at least one set-up repetition");
    let cells = grid.cells.len();
    let dir = crate::work_dir().join("sweep-cache");

    if args.trace {
        return traced(&grid, &dir, &expected, args.seed, out);
    }

    // One unmeasured (but checked) pass first: thread, allocator and
    // page-cache warm-up would otherwise land in the first pass's tail.
    let _ = checked_pass(&grid, &dir, workers(), &expected, &mut out);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut passes = 0usize;
    loop {
        if let Ok((runs, _)) = checked_pass(&grid, &dir, workers(), &expected, &mut out) {
            walls.extend(runs.iter().map(|r| r.wall_ms));
        }
        passes += 1;
        if started.elapsed().as_secs_f64() >= args.seconds && passes * cells >= MIN_CELLS {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    out.notes.push(format!(
        "{passes} cold passes x {cells} cells at {} workers",
        workers()
    ));
    out.set_e2e("cell", &setup_ms, &walls, wall_s, CELL_SLO_MS);
    Ok(out)
}

/// Passes of each kind the traced run times (the median is reported).
const TRACED_PASSES: usize = 3;

/// The traced run: a warm-up pass, untraced passes at `nproc` workers
/// (store and worker metrics from the first), one pass at a single
/// worker (speed-up), traced passes (overhead); then one defended cell
/// of the grid driven step by step (step times at grid shapes), the
/// layer probes and the serve probe. Every pass is checked.
fn traced(
    grid: &Grid,
    dir: &Path,
    expected: &str,
    seed: u64,
    mut out: RunOutcome,
) -> Result<RunOutcome, String> {
    let mut ledger = Ledger::new();
    let cells = grid.cells.len();
    checked_pass(grid, dir, workers(), expected, &mut out)?;

    let before = layers::store_counters();
    let (runs, first_ms) = checked_pass(grid, dir, workers(), expected, &mut out)?;
    let after = layers::store_counters();
    let delta = [0, 1, 2].map(|i| after[i] - before[i]);
    let ((files, bytes), trained) = layers::cache_files(dir);
    layers::set_store(&mut ledger, delta, (files, bytes));
    ledger.set("sweep.trained_cell_share", trained as f64 / cells as f64);
    let busy: f64 = runs.iter().map(|r| r.wall_ms).sum();
    ledger.set(
        "sweep.worker_busy_share",
        busy / (workers() as f64 * first_ms),
    );
    let mut plain = vec![first_ms];
    for _ in 1..TRACED_PASSES {
        plain.push(checked_pass(grid, dir, workers(), expected, &mut out)?.1);
    }
    let plain_ms = median(&plain);
    out.notes.push(format!(
        "passes at {} workers: {plain:.1?} ms; {files} cache files ({bytes} B), {trained} trainings, store hit/miss/write {delta:?}",
        workers()
    ));

    let (_, one_ms) = checked_pass(grid, dir, 1, expected, &mut out)?;
    ledger.set("sweep.worker_speedup", one_ms / plain_ms);
    out.notes.push(format!("pass at 1 worker: {one_ms:.1} ms"));

    trace::start();
    let mut traced = Vec::new();
    for _ in 0..TRACED_PASSES {
        traced.push(checked_pass(grid, dir, workers(), expected, &mut out)?.1);
    }
    ledger.set(
        "telemetry.trace_overhead_share",
        median(&traced) / plain_ms - 1.0,
    );
    let _ = std::fs::remove_dir_all(dir);

    let cell = grid
        .cells
        .iter()
        .find(|c| c.scenario.fault.is_none() && c.scenario.flow.defense.is_some())
        .ok_or("grid has no defended cell")?;
    let data = cell
        .scenario
        .dataset
        .generate()
        .map_err(|e| format!("dataset: {e}"))?;
    let cell_flow = crate::paper_flow::drive(&cell.scenario.flow, &data)?;
    layers::layer_probes(&mut ledger, &mut out)?;
    crate::serve_mixed::serve_probe(&mut ledger, &mut out, seed)?;

    let analysis = trace::finish(
        &crate::work_dir().join("sweep_grid.trace.jsonl"),
        &["sweep.pass", "qce.flow", "nn.epoch", "serve.job"],
    )?;
    layers::set_qce(&mut ledger, &cell_flow.steps, &analysis);
    layers::nn_from_trace(&mut ledger, &analysis);
    out.notes.push(format!(
        "trace: {} events, {} span names, validated; traced passes {traced:.1?} ms",
        analysis.events, analysis.spans
    ));
    out.metrics = ledger.into_metrics();
    Ok(out)
}
