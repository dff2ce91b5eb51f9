//! End-to-end sweep properties — the acceptance surface of the sweep
//! orchestrator:
//!
//! * a ≥64-cell sweep killed mid-run (via `limit`) and resumed merges
//!   to the byte-identical report of an uninterrupted run;
//! * `--shard 0/2` + `--shard 1/2` partials merge to the byte-identical
//!   single-process report, from a cold cache and at different worker
//!   counts;
//! * shard assignment partitions the grid exactly (proptest);
//! * every cell's content-addressed key is distinct — including cells
//!   that differ only in swept-axis state living *outside* `FlowConfig`
//!   (fault plans) or added to it this release (λ schedules), the
//!   regression surface of stage-cache key collisions.

use std::path::PathBuf;

use proptest::prelude::*;
use qce_store::StageCache;
use qce_sweep::{merge_partials, parse_grid, partial_json, run_cells, ExecOptions, Grid};

/// 64 cells over five axes; 2·2 = 4 distinct trainings (λ × schedule),
/// everything else reuses their checkpoints. The dataset is the
/// smallest geometry the flow accepts so the whole matrix stays fast.
const GRID_64: &str = r#"{
  "name": "resume-proof",
  "base": {
    "dataset": {"kind": "cifar", "size": 8, "classes": 2, "count": 32, "seed": 5},
    "flow": {"epochs": 1, "batch_size": 16,
             "grouping": {"kind": "uniform", "lambda": 5},
             "band": {"kind": "first_n"},
             "quant": {"method": "kmeans", "bits": 4, "finetune_epochs": 0}}
  },
  "axes": [
    {"axis": "lambda", "values": [3, 5]},
    {"axis": "lambda_schedule", "values": ["warmup", "constant"]},
    {"axis": "bits", "values": [2, 4]},
    {"axis": "quant_method", "values": ["kmeans", "linear"]},
    {"axis": "fault", "values": [null,
        {"seed": 3, "faults": [{"kind": "bit_flip", "rate": 0.002}]},
        {"seed": 3, "faults": [{"kind": "prune", "fraction": 0.25}]},
        {"seed": 4, "faults": [{"kind": "gaussian_noise", "fraction": 0.05}]}]}
  ]
}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qce-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn exec(cache: &StageCache, workers: usize, limit: Option<usize>) -> ExecOptions {
    ExecOptions {
        workers,
        cache: Some(cache.clone()),
        limit,
    }
}

/// Runs one shard and renders its partial document.
fn shard_partial(
    grid: &Grid,
    shard: u64,
    shards: u64,
    cache: &StageCache,
    workers: usize,
) -> String {
    let cells = grid.shard_cells(shard, shards);
    let runs = run_cells(&cells, &exec(cache, workers, None)).expect("shard run");
    partial_json(grid, shard, shards, &runs)
}

#[test]
fn grid_expands_to_64_distinct_cells() {
    let grid = parse_grid(GRID_64).expect("grid");
    assert_eq!(grid.cells.len(), 64);
    let mut keys: Vec<u64> = grid.cells.iter().map(|c| c.key).collect();
    keys.sort_unstable();
    keys.dedup();
    // Distinct keys even for cells that differ only in the λ schedule
    // (new FlowConfig field) or the fault plan (outside FlowConfig) —
    // the stage-cache collision regression this release fixes.
    assert_eq!(keys.len(), 64, "cell keys must be pairwise distinct");
}

#[test]
fn killed_and_resumed_sweep_merges_byte_identical_to_uninterrupted() {
    let grid = parse_grid(GRID_64).expect("grid");

    // Reference: uninterrupted single-process run, 4 workers.
    let cache_a = StageCache::at(tmp_dir("uninterrupted"));
    let reference = merge_partials(&[shard_partial(&grid, 0, 1, &cache_a, 4)])
        .expect("merge")
        .render_json();

    // Killed mid-run: only the first 13 cells complete, then the
    // process "dies". The resumed run (different worker count on
    // purpose) replays those 13 from the whole-cell cache and computes
    // the rest.
    let cache_b = StageCache::at(tmp_dir("resumed"));
    let first = run_cells(&grid.cells, &exec(&cache_b, 2, Some(13))).expect("limited run");
    assert_eq!(first.len(), 13);
    assert!(first.iter().all(|r| !r.cached), "cold cache must not hit");

    let resumed = run_cells(&grid.cells, &exec(&cache_b, 1, None)).expect("resumed run");
    assert_eq!(resumed.len(), 64);
    assert_eq!(
        resumed.iter().filter(|r| r.cached).count(),
        13,
        "exactly the killed run's finished cells replay from cache"
    );
    let report_b = merge_partials(&[partial_json(&grid, 0, 1, &resumed)])
        .expect("merge")
        .render_json();
    assert_eq!(reference, report_b, "resumed report must be byte-identical");

    // Warm re-run: everything answers from the whole-cell cache and the
    // report bytes still hold.
    let warm = run_cells(&grid.cells, &exec(&cache_b, 4, None)).expect("warm run");
    assert!(
        warm.iter().all(|r| r.cached),
        "warm re-run must be all hits"
    );
    let report_warm = merge_partials(&[partial_json(&grid, 0, 1, &warm)])
        .expect("merge")
        .render_json();
    assert_eq!(reference, report_warm);

    for dir in [cache_a.dir(), cache_b.dir()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sharded_runs_merge_byte_identical_to_single_process() {
    let grid = parse_grid(GRID_64).expect("grid");

    let cache_single = StageCache::at(tmp_dir("single"));
    let single = merge_partials(&[shard_partial(&grid, 0, 1, &cache_single, 2)])
        .expect("merge")
        .render_json();

    // Two shards, separate cold caches (nothing shared but the spec),
    // different worker counts, merged in reverse order.
    let cache_s0 = StageCache::at(tmp_dir("shard0"));
    let cache_s1 = StageCache::at(tmp_dir("shard1"));
    let p0 = shard_partial(&grid, 0, 2, &cache_s0, 1);
    let p1 = shard_partial(&grid, 1, 2, &cache_s1, 3);
    let merged = merge_partials(&[p1, p0]).expect("merge").render_json();

    assert_eq!(single, merged, "sharded merge must be byte-identical");
    assert!(merged.contains("\"digest\":\""));

    for dir in [cache_single.dir(), cache_s0.dir(), cache_s1.dir()] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

// Shard assignment is a pure function of cell content: for any shard
// count the shards are disjoint and their union is the whole grid, and
// membership never depends on expansion order.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shards_partition_the_grid_for_any_shard_count(shards in 1u64..9) {
        let grid = parse_grid(GRID_64).expect("grid");
        let mut union: Vec<usize> = Vec::new();
        for shard in 0..shards {
            let cells = grid.shard_cells(shard, shards);
            for cell in &cells {
                prop_assert_eq!(cell.key % shards, shard);
            }
            union.extend(cells.iter().map(|c| c.index));
        }
        let mut sorted = union.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), union.len(), "shards must not overlap");
        prop_assert_eq!(sorted, (0..grid.cells.len()).collect::<Vec<_>>());
    }
}

// Codec drift guard: the committed frontier grid must still expand to
// the cell keys of the committed golden report, and so to the same
// grid spec digest (`fnv1a` over the grid name and every cell key).
// Cell keys hash `Scenario::to_json`, so any change to the canonical
// scenario form — fault or defense plans included — fails here rather
// than only in the CI sweep job.
#[test]
fn frontier_grid_expands_to_the_golden_cell_keys_and_spec_digest() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../conformance/sweep");
    let spec = std::fs::read_to_string(root.join("frontier.json")).expect("frontier grid");
    let golden = std::fs::read_to_string(root.join("SweepReport.golden.json")).expect("golden");
    let grid = parse_grid(&spec).expect("grid");

    // The report is release-binary output; scan it for the cell keys
    // rather than parse it.
    let golden_keys: Vec<String> = golden
        .split("\"key\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("cell key").to_string())
        .collect();
    assert_eq!(golden_keys.len(), 24);
    let keys: Vec<String> = grid
        .cells
        .iter()
        .map(|c| format!("{:016x}", c.key))
        .collect();
    assert_eq!(keys, golden_keys);

    let mut digest_input = format!("qce-sweep-grid-v1\u{0}{}", grid.name);
    for key in &golden_keys {
        digest_input.push('\u{0}');
        digest_input.push_str(key);
    }
    assert_eq!(grid.spec_digest, qce_telemetry::fnv1a(&digest_input));
    assert_eq!(format!("{:016x}", grid.spec_digest), "1c0786ecc742cf64");
}

// Plans of both roles validate while the grid expands, naming the cell,
// so `sweep expand` rejects an out-of-range fault before any training.
#[test]
fn out_of_range_plans_fail_grid_expansion_naming_the_cell() {
    for (axis, bad, needle) in [
        (
            "fault",
            r#"{"seed": 3, "faults": [{"kind": "bit_flip", "rate": 1.5}]}"#,
            "bit-flip rate 1.5 exceeds 1",
        ),
        (
            "fault",
            r#"{"seed": 3, "faults": [{"kind": "prune", "fraction": -0.5}]}"#,
            "non-negative",
        ),
        (
            "defense",
            r#"{"seed": 1, "defenses": [{"kind": "prune_scrub", "fraction": 2.0}]}"#,
            "prune fraction 2 outside [0, 1)",
        ),
    ] {
        let spec = format!(
            r#"{{"name": "bad", "axes": [{{"axis": "bits", "values": [2, 4]}},
                                       {{"axis": "{axis}", "values": [null, {bad}]}}],
                 "base": {{"dataset": {{"kind": "cifar", "size": 8, "classes": 2,
                                        "count": 32, "seed": 5}},
                           "flow": {{"quant": {{"method": "kmeans", "bits": 4}}}}}}}}"#
        );
        let err = parse_grid(&spec).unwrap_err().to_string();
        assert!(
            err.contains("cell c0001") && err.contains(needle),
            "{axis}: {err}"
        );
    }
}
