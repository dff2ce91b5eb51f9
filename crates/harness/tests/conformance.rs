//! End-to-end conformance contract: bless → check is a fixed point,
//! every gate actually gates, and unusable goldens ask for a re-bless
//! instead of panicking.
//!
//! Flow runs share the process-global telemetry registry, so every run
//! goes through [`run_once`]/[`run_fresh`], which serialize on one mutex
//! and cache the expensive reports in `OnceLock`s.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use qce::FlowConfig;
use qce_defense::{DefenseKind, DefensePlan, FaultKind, FaultPlan, RotationMode};
use qce_harness::{
    diff_reports, golden_path, run_scenario, ConformanceReport, HarnessError, Scenario, Tolerances,
    REPORT_FORMAT_VERSION,
};
use qce_store::{section_kind, Artifact};

static FLOW_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scenario() -> Scenario {
    let mut scenario = Scenario::builtin()[0].clone();
    scenario.name = "tiny_check".to_string();
    scenario.dataset.count = 96;
    scenario.flow.epochs = 1;
    scenario
}

fn faulted_scenario() -> Scenario {
    let mut scenario = tiny_scenario();
    scenario.name = "tiny_faulted".to_string();
    scenario.fault = Some(
        FaultPlan::new(11)
            .with(FaultKind::BitFlip { rate: 0.002 })
            .with(FaultKind::GaussianNoise { fraction: 0.02 }),
    );
    scenario
}

fn run_fresh(scenario: &Scenario) -> ConformanceReport {
    let _guard = FLOW_LOCK.lock().unwrap();
    // A warm stage cache would skip stages and change the counters.
    std::env::remove_var(qce_store::CACHE_ENV);
    run_scenario(scenario).expect("scenario runs")
}

fn run_once(scenario: &Scenario, slot: &'static OnceLock<ConformanceReport>) -> ConformanceReport {
    slot.get_or_init(|| run_fresh(scenario)).clone()
}

fn tiny_report() -> ConformanceReport {
    static SLOT: OnceLock<ConformanceReport> = OnceLock::new();
    run_once(&tiny_scenario(), &SLOT)
}

fn faulted_report() -> ConformanceReport {
    static SLOT: OnceLock<ConformanceReport> = OnceLock::new();
    run_once(&faulted_scenario(), &SLOT)
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qce_conformance_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bless_then_check_is_a_fixed_point() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let dir = tempdir("fixed_point");
    golden.write_golden(&dir).unwrap();
    let reloaded = ConformanceReport::read_golden(&dir, &scenario.name).unwrap();
    assert_eq!(reloaded, golden, "golden round-trips bit-for-bit");

    let fresh = run_fresh(&scenario);
    let violations = diff_reports(&reloaded, &fresh, &Tolerances::for_scenario(&scenario));
    assert!(violations.is_empty(), "{violations:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repeated_runs_are_identical_including_digests_and_counters() {
    let golden = tiny_report();
    let fresh = run_fresh(&tiny_scenario());
    // Strip the one observational metric; everything else must be
    // bit-identical between back-to-back runs.
    let gated = |report: &ConformanceReport| {
        report
            .stages
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.metrics.retain(|(n, _)| n != "wall_ms");
                s
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(gated(&fresh), gated(&golden));
    assert_eq!(fresh.digests, golden.digests);
    assert_eq!(fresh.counters, golden.counters);
    assert!(!fresh.digests.is_empty(), "digests are present");
    assert!(!fresh.counters.is_empty(), "counters are present");
}

#[test]
fn report_has_the_expected_shape() {
    let report = tiny_report();
    assert_eq!(report.version, REPORT_FORMAT_VERSION);
    assert_eq!(report.scenario, "tiny_check");
    assert_eq!(report.stages.len(), 2, "uncompressed + quantized");
    let digest_names: Vec<&str> = report.digests.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        digest_names.contains(&"release.weights"),
        "{digest_names:?}"
    );
    assert!(digest_names.contains(&"select.indices"), "{digest_names:?}");
    let quant_stage = &report.stages[1];
    assert!(quant_stage.get("compression_ratio").is_some());
    assert!(quant_stage.get("images").unwrap() > 0.0);
}

#[test]
fn metric_flip_beyond_tolerance_fails_the_check() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let fresh = tiny_report();
    let tol = Tolerances::for_scenario(&scenario);

    let mut drifted = fresh.clone();
    for (name, value) in &mut drifted.stages[0].metrics {
        if name == "accuracy" {
            *value += 0.5;
        }
    }
    let violations = diff_reports(&golden, &drifted, &tol);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].to_string().contains("accuracy"));

    // A count flip of exactly 1 must also fail: counts gate exactly.
    let mut miscounted = fresh.clone();
    for (name, value) in &mut miscounted.stages[1].metrics {
        if name == "images" {
            *value += 1.0;
        }
    }
    assert!(!diff_reports(&golden, &miscounted, &tol).is_empty());
}

#[test]
fn drift_within_tolerance_passes() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let mut fresh = tiny_report();
    for (name, value) in &mut fresh.stages[0].metrics {
        if name == "accuracy" {
            *value += 0.01; // band is 0.02
        }
    }
    assert!(diff_reports(&golden, &fresh, &Tolerances::for_scenario(&scenario)).is_empty());
}

#[test]
fn digest_perturbation_fails_the_check() {
    let scenario = tiny_scenario();
    let golden = tiny_report();
    let mut fresh = tiny_report();
    fresh.digests[0].1 ^= 1;
    let violations = diff_reports(&golden, &fresh, &Tolerances::for_scenario(&scenario));
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].to_string().contains(&fresh.digests[0].0));
}

#[test]
fn faulted_scenario_reports_decode_statuses() {
    let report = faulted_report();
    assert_eq!(report.stages.len(), 3, "uncompressed + quantized + faulted");
    let faulted = &report.stages[2];
    assert_eq!(faulted.label, "faulted");
    let images = faulted.get("images").unwrap();
    let ok = faulted.get("ok").unwrap();
    let degraded = faulted.get("degraded").unwrap();
    let failed = faulted.get("failed").unwrap();
    assert_eq!(ok + degraded + failed, images, "statuses partition images");
    assert!(images > 0.0);
}

#[test]
fn faulted_golden_round_trips_and_checks_clean() {
    let scenario = faulted_scenario();
    let golden = faulted_report();
    let dir = tempdir("faulted_golden");
    golden.write_golden(&dir).unwrap();
    let reloaded = ConformanceReport::read_golden(&dir, &scenario.name).unwrap();
    let violations = diff_reports(&reloaded, &golden, &Tolerances::for_scenario(&scenario));
    assert!(violations.is_empty(), "{violations:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn newer_container_version_asks_for_rebless() {
    let golden = tiny_report();
    let dir = tempdir("newer_container");
    let path = golden.write_golden(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let newer = qce_store::FORMAT_VERSION + 1;
    bytes[4..6].copy_from_slice(&newer.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();

    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{msg}");
    assert!(msg.contains("newer"), "{msg}");
    assert!(msg.contains("bless"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn newer_payload_version_asks_for_rebless() {
    let golden = tiny_report();
    let dir = tempdir("newer_payload");
    let mut payload = golden.to_payload();
    payload[0..2].copy_from_slice(&(REPORT_FORMAT_VERSION + 1).to_le_bytes());
    let mut artifact = Artifact::new();
    artifact.push(section_kind::DOWNSTREAM_BASE + 0x10, payload);
    artifact
        .write_file(golden_path(&dir, &golden.scenario))
        .unwrap();

    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{msg}");
    assert!(msg.contains("version"), "{msg}");
    assert!(msg.contains("bless"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_golden_asks_for_rebless_instead_of_panicking() {
    let golden = tiny_report();
    let dir = tempdir("corrupt_golden");
    let path = golden.write_golden(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{err}");

    // Truncation (e.g. an interrupted download) is equally non-fatal.
    std::fs::write(&path, &bytes[..mid]).unwrap();
    let err = ConformanceReport::read_golden(&dir, &golden.scenario).unwrap_err();
    assert!(matches!(err, HarnessError::Rebless { .. }), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_scenario_specs_parse_and_match_builtins() {
    // The committed conformance/scenarios/*.json are generated by
    // `harness init`; they must stay in sync with `Scenario::builtin()`
    // so `check` in CI runs exactly what the goldens were blessed from.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../conformance/scenarios");
    let loaded = qce_harness::load_scenarios(&dir).expect("committed scenarios parse");
    let builtin = Scenario::builtin();
    assert_eq!(
        loaded.len(),
        builtin.len(),
        "conformance/scenarios is out of sync with Scenario::builtin()"
    );
    for scenario in &builtin {
        assert!(
            loaded.contains(scenario),
            "committed spec for {:?} drifted from the builtin definition; \
             re-run `harness init`",
            scenario.name
        );
    }
}

/// A scenario carrying every fault kind plus a release-time defense
/// with every defense kind (both rotation modes).
fn pin_faulted() -> Scenario {
    let base = Scenario::builtin().remove(3);
    Scenario {
        name: "pin_faulted".to_string(),
        flow: FlowConfig {
            defense: Some(
                DefensePlan::new(21)
                    .with(DefenseKind::Rotation {
                        mode: RotationMode::Permute,
                    })
                    .with(DefenseKind::Rotation {
                        mode: RotationMode::QrBlend { strength: 0.3 },
                    })
                    .with(DefenseKind::FinetuneScrub {
                        epochs: 2,
                        lr: 0.005,
                    })
                    .with(DefenseKind::PruneScrub { fraction: 0.15 })
                    .with(DefenseKind::Requantize { bits: 5 })
                    .with(DefenseKind::NoiseWeights { fraction: 0.07 }),
            ),
            ..base.flow.clone()
        },
        fault: Some(
            FaultPlan::new(9)
                .with(FaultKind::BitFlip { rate: 0.002 })
                .with(FaultKind::GaussianNoise { fraction: 0.02 })
                .with(FaultKind::UniformNoise { fraction: 0.04 })
                .with(FaultKind::Prune { fraction: 0.25 })
                .with(FaultKind::CentroidJitter { fraction: 0.1 })
                .with(FaultKind::FinetuneDrift { strength: 0.03 }),
        ),
        ..base
    }
}

/// The tournament roster plus a QR-blend + noise entry.
fn pin_roster() -> Scenario {
    let mut s = Scenario::tournament().remove(2);
    s.defenses.push((
        "blend-noise".to_string(),
        DefensePlan::new(23)
            .with(DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: 0.4 },
            })
            .with(DefenseKind::NoiseWeights { fraction: 0.1 }),
    ));
    s
}

const PINNED_FAULTED: &str = r#"{"name":"pin_faulted","dataset":{"kind":"cifar","size":8,"classes":4,"count":160,"seed":5,"rgb":false},"flow":{"seed":7,"arch":"resnet_lite","stage_channels":[8,16],"blocks_per_stage":1,"train_fraction":0.833299994468689,"epochs":2,"batch_size":32,"lr":0.05000000074505806,"lambda_scale":40,"lambda_schedule":"warmup","grouping":{"kind":"uniform","lambda":5},"band":{"kind":"first_n"},"sign":"positive","channel":{"kind":"correlation"},"defense":{"seed":21,"defenses":[{"kind":"rotation","mode":"permute"},{"kind":"rotation","mode":"qr_blend","strength":0.30000001192092896},{"kind":"finetune_scrub","epochs":2,"lr":0.004999999888241291},{"kind":"prune_scrub","fraction":0.15000000596046448},{"kind":"requantize","bits":5},{"kind":"noise_weights","fraction":0.07000000029802322}]},"quant":{"method":"target_correlated","bits":4,"finetune_epochs":1,"finetune_lr":0.009999999776482582,"regularize_finetune":true}},"fault":{"seed":9,"faults":[{"kind":"bit_flip","rate":0.002},{"kind":"gaussian_noise","fraction":0.019999999552965164},{"kind":"uniform_noise","fraction":0.03999999910593033},{"kind":"prune","fraction":0.25},{"kind":"centroid_jitter","fraction":0.10000000149011612},{"kind":"finetune_drift","strength":0.029999999329447746}]}}"#;

const PINNED_ROSTER: &str = r#"{"name":"tourney_statsign_2bit","dataset":{"kind":"cifar","size":8,"classes":4,"count":160,"seed":5,"rgb":false},"flow":{"seed":7,"arch":"resnet_lite","stage_channels":[12,24],"blocks_per_stage":1,"train_fraction":0.833299994468689,"epochs":4,"batch_size":32,"lr":0.05000000074505806,"lambda_scale":40,"lambda_schedule":"warmup","grouping":{"kind":"uniform","lambda":5},"band":{"kind":"first_n"},"sign":"positive","channel":{"kind":"statsign","lambda":30000},"quant":{"method":"kmeans","bits":2,"finetune_epochs":1,"finetune_lr":0.009999999776482582,"regularize_finetune":true}},"defenses":[{"name":"none","seed":0,"defenses":[]},{"name":"rotation","seed":11,"defenses":[{"kind":"rotation","mode":"permute"}]},{"name":"finetune-scrub","seed":13,"defenses":[{"kind":"finetune_scrub","epochs":1,"lr":0.009999999776482582}]},{"name":"prune-scrub","seed":17,"defenses":[{"kind":"prune_scrub","fraction":0.10000000149011612}]},{"name":"requantize","seed":19,"defenses":[{"kind":"requantize","bits":5}]},{"name":"blend-noise","seed":23,"defenses":[{"kind":"rotation","mode":"qr_blend","strength":0.4000000059604645},{"kind":"noise_weights","fraction":0.10000000149011612}]}]}"#;

// The canonical form is hashed into sweep cell keys, grid spec
// digests and the serve dedup key: these bytes must never drift.
#[test]
fn canonical_json_is_byte_pinned() {
    for (scenario, pinned) in [
        (pin_faulted(), PINNED_FAULTED),
        (pin_roster(), PINNED_ROSTER),
    ] {
        assert_eq!(scenario.to_json(), pinned);
        assert_eq!(Scenario::from_json(pinned).unwrap(), scenario);
    }
}
