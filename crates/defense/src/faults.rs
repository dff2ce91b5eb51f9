//! Seeded fault injection for released models — the robustness
//! harness's half of the [`Plan`] type.
//!
//! A released model rarely reaches the adversary byte-identical to what
//! the malicious trainer produced: deployment toolchains re-pack weights,
//! storage and transmission flip bits, the data holder prunes, fine-tunes
//! or noises the model before publishing. A [`FaultPlan`] reproduces those
//! perturbations deterministically (every draw derives from the plan's
//! seed) so the attack's survival — and the resilient decoder's behaviour
//! — can be measured instead of guessed.
//!
//! Faults apply to both release formats:
//!
//! * [`FaultPlan::apply_to_network`] perturbs a float [`Network`] in
//!   place.
//! * [`FaultPlan::apply_to_quantized`] perturbs a
//!   [`QuantizedNetwork`]'s packed cluster indices and codebooks (bit
//!   flips go through the real [`qce_quant::pack`] bitstream — the format
//!   a deployed model actually ships) and then re-applies the handle to
//!   the network.
//!
//! Severity scaling is multiplicative and *nested*: because every fault
//! draws from a fresh seed-derived RNG, [`Plan::scaled`] at a higher
//! severity flips a superset of the bits (and adds a scaled-up version of
//! the *same* noise realization) of a lower severity — which is what makes
//! robustness sweeps monotone.

use rand::RngExt;

use qce_nn::{Network, ParamKind};
use qce_quant::{pack, QuantizedNetwork, QuantizedSlot};
use qce_telemetry::json::{JsonValue, ObjWriter};
use qce_tensor::init::standard_normal;
use qce_tensor::stats;

use crate::plan::{f32_field, invalid, req, FaultPlan, Plan, Transform};
use crate::{DefenseContext, Result};

/// One fault family, parameterized by its severity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Flips each bit of the release's packed cluster-index bitstream with
    /// probability `rate` (quantized releases). On a float network the
    /// same rate is applied per low-mantissa bit (the 16 LSBs), modelling
    /// storage bit rot that cannot produce NaN/Inf.
    BitFlip {
        /// Per-bit flip probability in `[0, 1]`.
        rate: f64,
    },
    /// Adds zero-mean Gaussian noise with standard deviation `fraction` of
    /// each tensor's own weight standard deviation.
    GaussianNoise {
        /// Noise σ as a fraction of the per-tensor weight σ.
        fraction: f32,
    },
    /// Adds uniform noise in `±fraction · σ_tensor`.
    UniformNoise {
        /// Noise amplitude as a fraction of the per-tensor weight σ.
        fraction: f32,
    },
    /// Magnitude pruning: zeroes the smallest-magnitude `fraction` of all
    /// weights (quantized releases remap those weights to the cluster
    /// whose representative is nearest zero).
    Prune {
        /// Fraction of weights to zero, in `[0, 1]`.
        fraction: f32,
    },
    /// Jitters codebook representatives with Gaussian noise of σ =
    /// `fraction` times the codebook's representative spread. A no-op on
    /// float networks, which have no codebook.
    CentroidJitter {
        /// Jitter σ as a fraction of the representative σ.
        fraction: f32,
    },
    /// First-order model of post-release fine-tuning: every weight moves
    /// by a zero-mean Gaussian step proportional to its own magnitude
    /// (`w += strength · |w| · g`). On a quantized release only the
    /// representatives drift — exactly how the codebase's real
    /// quantization-aware fine-tuning behaves.
    FinetuneDrift {
        /// Relative step size.
        strength: f32,
    },
}

impl Transform for FaultKind {
    const ROLE: &'static str = "fault";
    const STEPS_KEY: &'static str = "faults";

    fn severity(&self) -> f64 {
        match *self {
            FaultKind::BitFlip { rate } => rate,
            FaultKind::GaussianNoise { fraction }
            | FaultKind::UniformNoise { fraction }
            | FaultKind::Prune { fraction }
            | FaultKind::CentroidJitter { fraction } => f64::from(fraction),
            FaultKind::FinetuneDrift { strength } => f64::from(strength),
        }
    }

    /// Rates and prune fractions clamp at 1.
    fn scaled(&self, factor: f32) -> FaultKind {
        match *self {
            FaultKind::BitFlip { rate } => FaultKind::BitFlip {
                rate: (rate * f64::from(factor)).min(1.0),
            },
            FaultKind::GaussianNoise { fraction } => FaultKind::GaussianNoise {
                fraction: fraction * factor,
            },
            FaultKind::UniformNoise { fraction } => FaultKind::UniformNoise {
                fraction: fraction * factor,
            },
            FaultKind::Prune { fraction } => FaultKind::Prune {
                fraction: (fraction * factor).min(1.0),
            },
            FaultKind::CentroidJitter { fraction } => FaultKind::CentroidJitter {
                fraction: fraction * factor,
            },
            FaultKind::FinetuneDrift { strength } => FaultKind::FinetuneDrift {
                strength: strength * factor,
            },
        }
    }

    fn validate(&self) -> Result<()> {
        let s = self.severity();
        let reason = match *self {
            _ if !s.is_finite() || s < 0.0 => {
                format!("severity {s} must be finite and non-negative")
            }
            FaultKind::BitFlip { rate } if rate > 1.0 => format!("bit-flip rate {rate} exceeds 1"),
            FaultKind::Prune { fraction } if fraction > 1.0 => {
                format!("prune fraction {fraction} exceeds 1")
            }
            _ => return Ok(()),
        };
        Err(invalid::<Self>(reason))
    }

    fn write_json(&self, o: &mut ObjWriter) {
        let (kind, key, value) = match *self {
            FaultKind::BitFlip { rate } => ("bit_flip", "rate", rate),
            FaultKind::GaussianNoise { fraction } => {
                ("gaussian_noise", "fraction", f64::from(fraction))
            }
            FaultKind::UniformNoise { fraction } => {
                ("uniform_noise", "fraction", f64::from(fraction))
            }
            FaultKind::Prune { fraction } => ("prune", "fraction", f64::from(fraction)),
            FaultKind::CentroidJitter { fraction } => {
                ("centroid_jitter", "fraction", f64::from(fraction))
            }
            FaultKind::FinetuneDrift { strength } => {
                ("finetune_drift", "strength", f64::from(strength))
            }
        };
        o.str("kind", kind).num(key, value);
    }

    fn from_json(doc: &JsonValue) -> Result<Self> {
        let fraction = || f32_field::<Self>(doc, "fraction");
        Ok(
            match req::<Self, _>(doc, "kind", "a string", JsonValue::as_str)? {
                "bit_flip" => FaultKind::BitFlip {
                    rate: req::<Self, _>(doc, "rate", "a number", JsonValue::as_f64)?,
                },
                "gaussian_noise" => FaultKind::GaussianNoise {
                    fraction: fraction()?,
                },
                "uniform_noise" => FaultKind::UniformNoise {
                    fraction: fraction()?,
                },
                "prune" => FaultKind::Prune {
                    fraction: fraction()?,
                },
                "centroid_jitter" => FaultKind::CentroidJitter {
                    fraction: fraction()?,
                },
                "finetune_drift" => FaultKind::FinetuneDrift {
                    strength: f32_field::<Self>(doc, "strength")?,
                },
                other => return Err(invalid::<Self>(format!("unknown fault kind {other:?}"))),
            },
        )
    }

    /// Quantized releases are faulted through their packed handle, float
    /// releases through the raw weights.
    fn apply_release(
        plan: &Plan<Self>,
        net: &mut Network,
        quantized: Option<&mut QuantizedNetwork>,
        _ctx: &DefenseContext<'_>,
    ) -> Result<()> {
        match quantized {
            Some(qnet) => plan.apply_to_quantized(qnet, net),
            None => plan.apply_to_network(net),
        }
    }
}

impl FaultPlan {
    /// Applies the plan to a float network's `Weight`-kind tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Invalid`](crate::TransformError::Invalid)
    /// for out-of-range severities; other variants cannot occur through
    /// this path.
    pub fn apply_to_network(&self, net: &mut Network) -> Result<()> {
        self.validate()?;
        for (fault, mut rng) in self.active_steps() {
            match *fault {
                FaultKind::BitFlip { rate } => {
                    for_each_weight_tensor(net, |values| {
                        for w in values.iter_mut() {
                            let mut bits = w.to_bits();
                            for b in 0..16u32 {
                                if rng.random_range(0.0..1.0f64) < rate {
                                    bits ^= 1 << b;
                                }
                            }
                            *w = f32::from_bits(bits);
                        }
                    });
                }
                FaultKind::GaussianNoise { fraction } => {
                    for_each_weight_tensor(net, |values| {
                        let sigma = fraction * stats::std_dev(values);
                        for w in values.iter_mut() {
                            *w += sigma * standard_normal(&mut rng);
                        }
                    });
                }
                FaultKind::UniformNoise { fraction } => {
                    for_each_weight_tensor(net, |values| {
                        let amp = fraction * stats::std_dev(values);
                        for w in values.iter_mut() {
                            *w += amp * rng.random_range(-1.0..1.0f32);
                        }
                    });
                }
                FaultKind::Prune { fraction } => {
                    let flat = net.flat_weights();
                    let threshold = magnitude_threshold(&flat, fraction);
                    for_each_weight_tensor(net, |values| {
                        for w in values.iter_mut() {
                            if w.abs() < threshold {
                                *w = 0.0;
                            }
                        }
                    });
                }
                FaultKind::CentroidJitter { .. } => {
                    // Float releases have no codebook to jitter.
                }
                FaultKind::FinetuneDrift { strength } => {
                    for_each_weight_tensor(net, |values| {
                        for w in values.iter_mut() {
                            *w += strength * w.abs() * standard_normal(&mut rng);
                        }
                    });
                }
            }
        }
        Ok(())
    }

    /// Applies the plan to a quantized release: cluster indices are
    /// perturbed through the packed deployment bitstream, codebook
    /// representatives through [`qce_quant::Codebook::set_representatives`]
    /// — then the handle is re-applied so `net`'s weights reflect the
    /// faulted release.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::Invalid`](crate::TransformError::Invalid)
    /// for out-of-range severities or a wrapped
    /// [`QuantError`](qce_quant::QuantError) if the handle no longer
    /// matches `net`.
    pub fn apply_to_quantized(&self, qnet: &mut QuantizedNetwork, net: &mut Network) -> Result<()> {
        self.validate()?;
        for (fault, mut rng) in self.active_steps() {
            match *fault {
                FaultKind::BitFlip { rate } => {
                    for slot in qnet.slots_mut() {
                        if slot.is_empty() {
                            continue;
                        }
                        let bits = slot.codebook.bits();
                        let mut packed = pack::pack(&slot.assignment, bits)?;
                        for byte in packed.iter_mut() {
                            for b in 0..8u32 {
                                if rng.random_range(0.0..1.0f64) < rate {
                                    *byte ^= 1 << b;
                                }
                            }
                        }
                        let n = slot.assignment.len();
                        let max = slot.codebook.levels() as u32 - 1;
                        slot.assignment = pack::unpack(&packed, bits, n)?
                            .into_iter()
                            .map(|i| i.min(max))
                            .collect();
                    }
                }
                FaultKind::GaussianNoise { fraction } => shift_representatives(
                    qnet,
                    |slot| Ok(fraction * decoded_std(slot)?),
                    |r, sigma| r + sigma * standard_normal(&mut rng),
                )?,
                FaultKind::UniformNoise { fraction } => shift_representatives(
                    qnet,
                    |slot| Ok(fraction * decoded_std(slot)?),
                    |r, amp| r + amp * rng.random_range(-1.0..1.0f32),
                )?,
                FaultKind::Prune { fraction } => {
                    // Remap small-magnitude weights to the cluster nearest
                    // zero — pruning as a deployment toolchain would do it
                    // without leaving the codebook.
                    let mut all: Vec<f32> = Vec::new();
                    for slot in qnet.slots() {
                        all.extend(slot.codebook.decode(&slot.assignment)?);
                    }
                    let threshold = magnitude_threshold(&all, fraction);
                    for slot in qnet.slots_mut() {
                        let zero_cluster = slot
                            .codebook
                            .representatives()
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| a.abs().total_cmp(&b.abs()))
                            .map(|(i, _)| i as u32)
                            .unwrap_or(0);
                        let decoded = slot.codebook.decode(&slot.assignment)?;
                        for (idx, v) in slot.assignment.iter_mut().zip(decoded) {
                            if v.abs() < threshold {
                                *idx = zero_cluster;
                            }
                        }
                    }
                }
                FaultKind::CentroidJitter { fraction } => shift_representatives(
                    qnet,
                    |slot| Ok(fraction * stats::std_dev(slot.codebook.representatives())),
                    |r, sigma| r + sigma * standard_normal(&mut rng),
                )?,
                FaultKind::FinetuneDrift { strength } => shift_representatives(
                    qnet,
                    |_| Ok(strength),
                    |r, strength| r + strength * r.abs() * standard_normal(&mut rng),
                )?,
            }
        }
        qnet.reapply(net)?;
        Ok(())
    }
}

/// Moves every slot's codebook representatives to `step(r, scale)`,
/// with `scale` computed per slot by `scale_of` before any of the
/// slot's representatives move.
fn shift_representatives(
    qnet: &mut QuantizedNetwork,
    mut scale_of: impl FnMut(&QuantizedSlot) -> Result<f32>,
    mut step: impl FnMut(f32, f32) -> f32,
) -> Result<()> {
    for slot in qnet.slots_mut() {
        let scale = scale_of(slot)?;
        let reps: Vec<f32> = slot
            .codebook
            .representatives()
            .iter()
            .map(|&r| step(r, scale))
            .collect();
        slot.codebook.set_representatives(reps)?;
    }
    Ok(())
}

/// Standard deviation of a slot's decoded weights.
fn decoded_std(slot: &QuantizedSlot) -> Result<f32> {
    Ok(stats::std_dev(&slot.codebook.decode(&slot.assignment)?))
}

/// Runs `f` over every `Weight`-kind tensor's values, in forward order.
fn for_each_weight_tensor(net: &mut Network, mut f: impl FnMut(&mut [f32])) {
    for p in net.params_mut() {
        if p.kind() == ParamKind::Weight {
            f(p.value_mut().as_mut_slice());
        }
    }
}

/// Magnitude below which the smallest `fraction` of `values` falls.
fn magnitude_threshold(values: &[f32], fraction: f32) -> f32 {
    if values.is_empty() || fraction <= 0.0 {
        return 0.0;
    }
    let mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    stats::quantile(&mags, fraction.min(1.0)).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce_nn::models::ResNetLite;
    use qce_quant::{quantize_network, KMeansQuantizer};

    fn net() -> Network {
        ResNetLite::builder()
            .input(1, 8)
            .classes(3)
            .stage_channels(&[4, 8])
            .blocks_per_stage(1)
            .build(11)
            .unwrap()
    }

    #[test]
    fn zero_severity_plan_is_identity() {
        let mut n = net();
        let before = n.flat_weights();
        let plan = FaultPlan::new(1)
            .with(FaultKind::BitFlip { rate: 0.0 })
            .with(FaultKind::GaussianNoise { fraction: 0.0 })
            .with(FaultKind::Prune { fraction: 0.0 });
        assert!(plan.is_benign());
        plan.apply_to_network(&mut n).unwrap();
        assert_eq!(n.flat_weights(), before);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let plan = FaultPlan::new(42)
            .with(FaultKind::BitFlip { rate: 0.01 })
            .with(FaultKind::GaussianNoise { fraction: 0.1 });
        let mut a = net();
        let mut b = net();
        plan.apply_to_network(&mut a).unwrap();
        plan.apply_to_network(&mut b).unwrap();
        assert_eq!(a.flat_weights(), b.flat_weights());
        let mut c = net();
        FaultPlan::new(43)
            .with(FaultKind::BitFlip { rate: 0.01 })
            .with(FaultKind::GaussianNoise { fraction: 0.1 })
            .apply_to_network(&mut c)
            .unwrap();
        assert_ne!(a.flat_weights(), c.flat_weights());
    }

    #[test]
    fn float_bit_flips_stay_finite() {
        let mut n = net();
        FaultPlan::new(3)
            .with(FaultKind::BitFlip { rate: 0.5 })
            .apply_to_network(&mut n)
            .unwrap();
        assert!(n.flat_weights().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn prune_zeroes_the_requested_fraction() {
        let mut n = net();
        FaultPlan::new(4)
            .with(FaultKind::Prune { fraction: 0.3 })
            .apply_to_network(&mut n)
            .unwrap();
        let flat = n.flat_weights();
        let zeros = flat.iter().filter(|&&w| w == 0.0).count();
        let frac = zeros as f32 / flat.len() as f32;
        assert!((frac - 0.3).abs() < 0.05, "pruned fraction {frac}");
    }

    #[test]
    fn quantized_bit_flips_corrupt_assignments_not_codebooks() {
        let mut n = net();
        let mut q = quantize_network(&mut n, &KMeansQuantizer::new(8).unwrap()).unwrap();
        let before_assignments: Vec<Vec<u32>> =
            q.slots().iter().map(|s| s.assignment.clone()).collect();
        let before_reps: Vec<Vec<f32>> = q
            .slots()
            .iter()
            .map(|s| s.codebook.representatives().to_vec())
            .collect();
        FaultPlan::new(5)
            .with(FaultKind::BitFlip { rate: 0.05 })
            .apply_to_quantized(&mut q, &mut n)
            .unwrap();
        let changed = q
            .slots()
            .iter()
            .zip(&before_assignments)
            .any(|(s, b)| &s.assignment != b);
        assert!(changed, "5% bit flips must move some indices");
        for (s, b) in q.slots().iter().zip(&before_reps) {
            assert_eq!(s.codebook.representatives(), &b[..]);
        }
        // Every index is still decodable and the network was re-applied.
        for s in q.slots() {
            assert!(s.codebook.decode(&s.assignment).is_ok());
        }
        let reapplied = n.flat_weights();
        q.reapply(&mut n).unwrap();
        assert_eq!(n.flat_weights(), reapplied);
    }

    #[test]
    fn centroid_jitter_moves_quantized_weights_only() {
        let mut n = net();
        let mut q = quantize_network(&mut n, &KMeansQuantizer::new(8).unwrap()).unwrap();
        let before = n.flat_weights();
        FaultPlan::new(6)
            .with(FaultKind::CentroidJitter { fraction: 0.2 })
            .apply_to_quantized(&mut q, &mut n)
            .unwrap();
        assert_ne!(n.flat_weights(), before);
        // The same fault is a documented no-op on a float network.
        let mut f = net();
        let before = f.flat_weights();
        FaultPlan::new(6)
            .with(FaultKind::CentroidJitter { fraction: 0.2 })
            .apply_to_network(&mut f)
            .unwrap();
        assert_eq!(f.flat_weights(), before);
    }

    #[test]
    fn severity_scaling_is_nested_for_bit_flips() {
        // Flips at rate r1 < r2 (same seed) must be a subset: a weight
        // changed at r1 is changed identically or further at r2 — checked
        // here on the quantized index stream where flips are discrete.
        let mut n1 = net();
        let mut q1 = quantize_network(&mut n1, &KMeansQuantizer::new(8).unwrap()).unwrap();
        let mut n2 = net();
        let mut q2 = quantize_network(&mut n2, &KMeansQuantizer::new(8).unwrap()).unwrap();
        let base = FaultPlan::new(9).with(FaultKind::BitFlip { rate: 0.002 });
        base.apply_to_quantized(&mut q1, &mut n1).unwrap();
        base.scaled(10.0)
            .apply_to_quantized(&mut q2, &mut n2)
            .unwrap();
        let clean = {
            let mut n = net();
            quantize_network(&mut n, &KMeansQuantizer::new(8).unwrap()).unwrap()
        };
        for ((s1, s2), s0) in q1.slots().iter().zip(q2.slots()).zip(clean.slots()) {
            for ((&a1, &a2), &a0) in s1.assignment.iter().zip(&s2.assignment).zip(&s0.assignment) {
                if a1 != a0 {
                    // Bit positions flipped at the low rate are flipped at
                    // the high rate too (possibly plus more).
                    assert_ne!(a2, a0, "low-rate flip missing at high rate");
                }
            }
        }
    }

    #[test]
    fn invalid_severities_are_rejected() {
        let mut n = net();
        assert!(FaultPlan::new(0)
            .with(FaultKind::BitFlip { rate: 1.5 })
            .apply_to_network(&mut n)
            .is_err());
        assert!(FaultPlan::new(0)
            .with(FaultKind::GaussianNoise { fraction: -0.1 })
            .apply_to_network(&mut n)
            .is_err());
        assert!(FaultPlan::new(0)
            .with(FaultKind::Prune { fraction: 2.0 })
            .apply_to_network(&mut n)
            .is_err());
    }

    #[test]
    fn fault_error_display_and_source() {
        use crate::TransformError;
        use qce_quant::QuantError;
        use std::error::Error;
        let e = FaultPlan::new(0)
            .with(FaultKind::BitFlip { rate: 1.5 })
            .apply_to_network(&mut net())
            .unwrap_err();
        assert!(matches!(e, TransformError::Invalid { role: "fault", .. }));
        assert_eq!(e.to_string(), "invalid fault: bit-flip rate 1.5 exceeds 1");
        assert!(e.source().is_none());
        let e = TransformError::from(QuantError::EmptyWeights);
        assert!(e.source().is_some());
    }
}
