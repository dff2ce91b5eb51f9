//! Robustness harness integration tests: fault plans on real networks,
//! resilient decoding on perturbed releases, the flow-level release
//! probe, and data-holder defenses against a trained attack.

use proptest::prelude::*;
use qce::{
    AttackFlow, BandRule, FlowConfig, FlowError, Grouping, QuantConfig, QuantMethod, TrainedAttack,
};
use qce_attack::correlation::SignConvention;
use qce_attack::{Decoder, EncodingLayout, GroupSpec};
use qce_data::{Image, SynthCifar};
use qce_defense::{
    DefenseContext, DefenseKind, DefensePlan, FaultKind, FaultPlan, Transform, TransformError,
};
use qce_nn::models::ResNetLite;
use qce_nn::Network;

/// A small net plus an encoding layout over synthetic images, with the
/// weights overwritten to a perfect affine encoding of the targets — the
/// "trained to convergence" limit, without the training cost.
fn encoded_setup() -> (Network, EncodingLayout, Vec<Image>) {
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[4, 8])
        .blocks_per_stage(1)
        .build(3)
        .unwrap();
    let specs = GroupSpec::uniform(net.weight_slots().len(), 5.0);
    let data = SynthCifar::new(8).classes(4).generate(64, 9).unwrap();
    let layout = EncodingLayout::plan(&net, &specs, data.images()).unwrap();
    let targets = data.images()[..layout.total_encoded_images()].to_vec();

    let mut flat = net.flat_weights();
    for g in layout.groups() {
        let mut values = g.extract(&flat);
        for (i, &p) in g.target().iter().enumerate() {
            values[i] = 0.002 * p - 0.2;
        }
        let mut acc = vec![0.0f32; flat.len()];
        g.scatter_add(&values, &mut acc);
        for &(off, len) in g.flat_ranges() {
            flat[off..off + len].copy_from_slice(&acc[off..off + len]);
        }
    }
    net.set_flat_weights(&flat).unwrap();
    (net, layout, targets)
}

fn mean_mape(decoder: &Decoder, net: &Network, targets: &[Image]) -> f32 {
    let resilient = decoder.decode_resilient(&net.flat_weights());
    assert!(!resilient.images.is_empty());
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for r in &resilient.images {
        if let Some(img) = &r.image {
            sum += qce_metrics::mape(&targets[r.target_index], img);
            n += 1;
        }
    }
    assert!(n > 0, "every rate in the ladder should decode something");
    sum / n as f32
}

#[test]
fn zero_severity_plan_preserves_decode_exactly() {
    let (mut net, layout, _targets) = encoded_setup();
    let before = net.flat_weights();
    let plan = FaultPlan::new(5)
        .with(FaultKind::BitFlip { rate: 0.01 })
        .with(FaultKind::GaussianNoise { fraction: 0.1 })
        .with(FaultKind::Prune { fraction: 0.2 })
        .scaled(0.0);
    plan.apply_to_network(&mut net).unwrap();
    // Bitwise identity, so decode ∘ encode is untouched.
    assert_eq!(net.flat_weights(), before);
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let plain = decoder.decode(&before).unwrap();
    let resilient = decoder.decode_resilient(&net.flat_weights());
    assert_eq!(resilient.images.len(), plain.len());
    assert_eq!(resilient.failed_count(), 0);
    assert_eq!(resilient.degraded_count(), 0);
    for (r, p) in resilient.images.iter().zip(&plain) {
        assert_eq!(r.image.as_ref().unwrap(), &p.image);
    }
}

#[test]
fn decode_quality_degrades_monotonically_with_bit_flip_rate() {
    let (mut net, layout, targets) = encoded_setup();
    let encoded = net.snapshot();
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let base = FaultPlan::new(41).with(FaultKind::BitFlip { rate: 0.0005 });
    let mut previous = f32::NEG_INFINITY;
    for severity in [0.0f32, 1.0, 4.0, 16.0, 64.0] {
        net.restore(&encoded).unwrap();
        base.scaled(severity).apply_to_network(&mut net).unwrap();
        let mape = mean_mape(&decoder, &net, &targets);
        // Nested flip sets make this monotone by construction; the
        // tolerance absorbs decoder-anchor quantization noise.
        assert!(
            mape >= previous - 2.0,
            "severity {severity}: mape {mape} dipped below {previous}"
        );
        previous = previous.max(mape);
    }
}

#[test]
fn fault_plans_are_deterministic_across_networks() {
    let (mut net, _layout, _targets) = encoded_setup();
    let encoded = net.snapshot();
    let plan = FaultPlan::new(77)
        .with(FaultKind::BitFlip { rate: 0.001 })
        .with(FaultKind::UniformNoise { fraction: 0.05 });
    plan.apply_to_network(&mut net).unwrap();
    let first = net.flat_weights();
    net.restore(&encoded).unwrap();
    plan.apply_to_network(&mut net).unwrap();
    assert_eq!(net.flat_weights(), first);
}

#[test]
fn flow_error_wraps_fault_error_with_source() {
    use std::error::Error;
    let fault = FaultKind::BitFlip { rate: 2.0 }.validate().unwrap_err();
    let flow: FlowError = fault.into();
    assert!(matches!(
        flow,
        FlowError::Transform(TransformError::Invalid { role: "fault", .. })
    ));
    assert!(flow.to_string().contains("invalid fault"));
    assert!(flow.source().unwrap().to_string().contains("rate 2"));
}

#[test]
fn faulted_flow_evaluation_returns_partial_results() {
    let dataset = SynthCifar::new(8).classes(4).generate(240, 21).unwrap();
    let cfg = FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        quant: None,
        ..FlowConfig::tiny()
    };
    let mut trained = AttackFlow::new(cfg).train(&dataset).unwrap();
    let clean = trained.float_report().unwrap();

    let plan = FaultPlan::new(97).with(FaultKind::BitFlip { rate: 0.001 });
    let qcfg = QuantConfig::new(QuantMethod::KMeans, 4);
    let faulted = trained
        .probe(Some(qcfg), &plan, "bitflip".to_string(), None)
        .unwrap();
    assert_eq!(faulted.images.len(), clean.images.len());
    assert!(faulted.ok_count() + faulted.degraded_count() > 0);
    // The probe restores the float state afterwards.
    let clean2 = trained.float_report().unwrap();
    assert_eq!(clean, clean2);

    let sweep = trained
        .robustness_sweep(Some(qcfg), &plan, &[0.0, 4.0, 16.0])
        .unwrap();
    assert_eq!(sweep.points.len(), 3);
    assert!(sweep.mape_monotone(5.0), "sweep:\n{}", sweep.summary());
    assert!(sweep.ssim_monotone(0.05), "sweep:\n{}", sweep.summary());
}

/// A correlation-channel attack trained to a float release, plus its
/// targets — the subject of the defense checks below.
fn attacked() -> (TrainedAttack, Vec<Image>) {
    let dataset = SynthCifar::new(8).classes(4).generate(160, 81).unwrap();
    let trained = AttackFlow::new(FlowConfig {
        grouping: Grouping::Uniform(8.0),
        band: BandRule::FirstN,
        quant: None,
        ..FlowConfig::tiny()
    })
    .train(&dataset)
    .unwrap();
    let targets = trained.targets().to_vec();
    (trained, targets)
}

fn decoded_mape(t: &TrainedAttack, targets: &[Image]) -> f32 {
    let decoded = t.decode_images().unwrap();
    decoded
        .iter()
        .map(|d| qce_metrics::mape(&targets[d.target_index], &d.image))
        .sum::<f32>()
        / decoded.len() as f32
}

/// Applies a one-step defense plan (seed 1) to the released weights.
fn defend(trained: &mut TrainedAttack, kind: DefenseKind) -> Result<(), TransformError> {
    DefensePlan::new(1)
        .with(kind)
        .apply(trained.network_mut(), &DefenseContext::empty())
}

#[test]
fn noise_degrades_decoding_monotonically() {
    let (mut trained, targets) = attacked();
    let clean = decoded_mape(&trained, &targets);
    defend(&mut trained, DefenseKind::NoiseWeights { fraction: 0.2 }).unwrap();
    let light = decoded_mape(&trained, &targets);
    trained.restore_float().unwrap();
    defend(&mut trained, DefenseKind::NoiseWeights { fraction: 1.0 }).unwrap();
    let heavy = decoded_mape(&trained, &targets);
    assert!(clean < light, "{clean} !< {light}");
    assert!(light < heavy, "{light} !< {heavy}");
}

#[test]
fn zero_noise_is_identity_and_negative_rejected() {
    let (mut trained, _) = attacked();
    let before = trained.network().flat_weights();
    defend(&mut trained, DefenseKind::NoiseWeights { fraction: 0.0 }).unwrap();
    assert_eq!(trained.network().flat_weights(), before);
    assert!(defend(&mut trained, DefenseKind::NoiseWeights { fraction: -0.5 }).is_err());
}

#[test]
fn requantize_produces_coarse_weights() {
    let (mut trained, targets) = attacked();
    let clean = decoded_mape(&trained, &targets);
    defend(&mut trained, DefenseKind::Requantize { bits: 3 }).unwrap();
    let net = trained.network();
    let flat = net.flat_weights();
    for slot in net.weight_slots() {
        let mut levels: Vec<u32> = flat[slot.offset..slot.offset + slot.len]
            .iter()
            .map(|w| w.to_bits())
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(
            levels.len() <= 8,
            "slot {} has {} levels",
            slot.ordinal,
            levels.len()
        );
    }
    let after = decoded_mape(&trained, &targets);
    // Defender quantization (ignorant of the pixel histogram) hurts
    // the decoding more than it would a benign deployment.
    assert!(after > clean, "{clean} !< {after}");
    assert!(defend(&mut trained, DefenseKind::Requantize { bits: 0 }).is_err());
    assert!(defend(&mut trained, DefenseKind::Requantize { bits: 17 }).is_err());
}

/// Applies a seeded bit-flip + noise plan at the given severity and
/// checks the resilient decoder stays coherent: one entry per planned
/// image, status agreeing with image presence, confidence in `[0, 1]`.
/// Returns a description of the first violated invariant.
fn check_resilient_decode_is_coherent(seed: u64, severity: f32) -> Result<(), String> {
    let (mut net, layout, _targets) = encoded_setup();
    let total = layout.total_encoded_images();
    FaultPlan::new(seed)
        .with(FaultKind::BitFlip { rate: 0.001 })
        .with(FaultKind::GaussianNoise { fraction: 0.01 })
        .scaled(severity)
        .apply_to_network(&mut net)
        .map_err(|e| e.to_string())?;
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let resilient = decoder.decode_resilient(&net.flat_weights());
    if resilient.images.len() != total {
        return Err(format!(
            "{} images, planned {total}",
            resilient.images.len()
        ));
    }
    for r in &resilient.images {
        if r.status.is_decoded() != r.image.is_some() {
            return Err(format!(
                "image {} status disagrees with payload",
                r.target_index
            ));
        }
    }
    let conf = resilient.mean_confidence();
    if !(0.0..=1.0).contains(&conf) {
        return Err(format!("confidence {conf} outside [0, 1]"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Whatever the seed and severity, resilient decoding of a faulted
    // release never panics and reports a coherent status for every
    // planned image.
    #[test]
    fn resilient_decode_never_panics_under_faults(seed in 0u64..1000, severity in 0.0f32..50.0) {
        let outcome = check_resilient_decode_is_coherent(seed, severity);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
