//! One seeded, ordered plan type for every release transform — the
//! adversary's bit rot ([`FaultKind`](crate::FaultKind)) and the data
//! holder's countermeasures ([`DefenseKind`]) — plus its canonical JSON
//! codec.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qce_nn::Network;
use qce_quant::QuantizedNetwork;
use qce_telemetry::json::{JsonValue, ObjWriter};

use crate::{DefenseContext, Result, TransformError};

/// One step kind of a [`Plan`]. The role (fault or defense) lives in
/// the type, so a plan never mixes roles and each role keeps its own
/// JSON form and its own place relative to the quantized handle.
pub trait Transform: Copy + std::fmt::Debug + PartialEq {
    /// Role noun used in errors and cache keys (`"fault"`, `"defense"`).
    const ROLE: &'static str;
    /// JSON key of a plan's step list (`"faults"`, `"defenses"`).
    const STEPS_KEY: &'static str;

    /// The severity parameter (0 means the step is a no-op).
    fn severity(&self) -> f64;

    /// The step with its severity multiplied by `factor`.
    fn scaled(&self, factor: f32) -> Self;

    /// Validates the step's parameters.
    ///
    /// # Errors
    ///
    /// [`TransformError::Invalid`] for out-of-range parameters.
    fn validate(&self) -> Result<()>;

    /// Writes the step's canonical JSON fields (`kind` first).
    fn write_json(&self, o: &mut ObjWriter);

    /// Parses one step written by [`Transform::write_json`].
    ///
    /// # Errors
    ///
    /// [`TransformError::Invalid`] naming the malformed field.
    fn from_json(doc: &JsonValue) -> Result<Self>;

    /// Applies `plan` to a release: `net` holds the released weights and
    /// `quantized` the handle they decode from (`None` for a float
    /// release).
    ///
    /// # Errors
    ///
    /// Invalid parameters, missing defense data or weight-surgery
    /// failures.
    fn apply_release(
        plan: &Plan<Self>,
        net: &mut Network,
        quantized: Option<&mut QuantizedNetwork>,
        ctx: &DefenseContext<'_>,
    ) -> Result<()>;
}

/// A seeded, ordered list of release transforms of one role.
///
/// Each step draws from its own seed-derived RNG, so plans compose
/// independently of each other's draw counts, reproduce exactly, and
/// severity scaling stays nested (a higher severity extends the draws of
/// a lower one).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan<K> {
    seed: u64,
    steps: Vec<K>,
}

/// Adversarial release perturbation: a plan of [`FaultKind`](crate::FaultKind)s.
///
/// # Examples
///
/// ```
/// use qce_defense::{FaultKind, FaultPlan};
/// use qce_nn::models::ResNetLite;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = ResNetLite::builder()
///     .input(1, 8).classes(2).stage_channels(&[4]).blocks_per_stage(1)
///     .build(1)?;
/// let before = net.flat_weights();
/// let plan = FaultPlan::new(7)
///     .with(FaultKind::BitFlip { rate: 0.001 })
///     .with(FaultKind::GaussianNoise { fraction: 0.05 });
/// plan.apply_to_network(&mut net)?;
/// assert_ne!(net.flat_weights(), before);
/// // Zero severity is exactly the identity.
/// let mut other = ResNetLite::builder()
///     .input(1, 8).classes(2).stage_channels(&[4]).blocks_per_stage(1)
///     .build(1)?;
/// let before = other.flat_weights();
/// plan.scaled(0.0).apply_to_network(&mut other)?;
/// assert_eq!(other.flat_weights(), before);
/// # Ok(())
/// # }
/// ```
pub type FaultPlan = Plan<crate::FaultKind>;

/// Data-holder countermeasures: a plan of [`DefenseKind`]s.
///
/// # Examples
///
/// ```
/// use qce_defense::{DefenseKind, DefensePlan};
///
/// let plan = DefensePlan::new(3)
///     .with(DefenseKind::PruneScrub { fraction: 0.2 })
///     .with(DefenseKind::NoiseWeights { fraction: 0.05 });
/// assert!(!plan.is_benign());
/// assert!(plan.scaled(0.0).is_benign());
/// assert_eq!(
///     plan.to_json(),
///     r#"{"seed":3,"defenses":[{"kind":"prune_scrub","fraction":0.20000000298023224},{"kind":"noise_weights","fraction":0.05000000074505806}]}"#
/// );
/// ```
pub type DefensePlan = Plan<DefenseKind>;

impl<K: Transform> Plan<K> {
    /// Creates an empty plan; all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            steps: Vec::new(),
        }
    }

    /// Appends a step (applied in insertion order).
    #[must_use]
    pub fn with(mut self, step: K) -> Self {
        self.steps.push(step);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The steps in application order.
    pub fn steps(&self) -> &[K] {
        &self.steps
    }

    /// The plan with every severity multiplied by `factor` (same seed).
    #[must_use]
    pub fn scaled(&self, factor: f32) -> Self {
        Plan {
            seed: self.seed,
            steps: self.steps.iter().map(|s| s.scaled(factor)).collect(),
        }
    }

    /// Whether every step is a no-op (empty plan or all severities zero).
    pub fn is_benign(&self) -> bool {
        self.steps.iter().all(|s| s.severity() == 0.0)
    }

    /// Validates every step.
    ///
    /// # Errors
    ///
    /// The first [`TransformError::Invalid`].
    pub fn validate(&self) -> Result<()> {
        self.steps.iter().try_for_each(Transform::validate)
    }

    /// The steps that do something, each with its own RNG, in order.
    pub(crate) fn active_steps(&self) -> impl Iterator<Item = (&K, StdRng)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.severity() != 0.0)
            .map(move |(i, s)| {
                let rng = StdRng::seed_from_u64(
                    self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                (s, rng)
            })
    }

    /// Writes the plan's canonical fields (`seed`, then the step list)
    /// into `o`.
    pub fn write_json(&self, o: &mut ObjWriter) {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                let mut step = ObjWriter::new();
                s.write_json(&mut step);
                step.finish()
            })
            .collect();
        o.uint("seed", self.seed)
            .raw(K::STEPS_KEY, &format!("[{}]", steps.join(",")));
    }

    /// The plan's canonical JSON object.
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        self.write_json(&mut o);
        o.finish()
    }

    /// Parses and validates a plan object written by
    /// [`Plan::write_json`]; other keys are ignored.
    ///
    /// # Errors
    ///
    /// [`TransformError::Invalid`] for a malformed document or an
    /// out-of-range step.
    pub fn from_json(doc: &JsonValue) -> Result<Self> {
        let seed = req::<K, _>(doc, "seed", "a non-negative integer", JsonValue::as_u64)?;
        let Some(JsonValue::Arr(items)) = doc.get(K::STEPS_KEY) else {
            return Err(invalid::<K>(format!(
                "plan needs a {:?} array (may be empty)",
                K::STEPS_KEY
            )));
        };
        let plan = Plan {
            seed,
            steps: items.iter().map(K::from_json).collect::<Result<_>>()?,
        };
        plan.validate()?;
        Ok(plan)
    }
}

impl DefensePlan {
    /// Applies the plan to a released float network in place.
    ///
    /// # Errors
    ///
    /// [`TransformError::Invalid`] for out-of-range parameters,
    /// [`TransformError::MissingData`] when a defense needs training data
    /// `ctx` does not carry, or propagated weight-surgery failures.
    pub fn apply(&self, net: &mut Network, ctx: &DefenseContext<'_>) -> Result<()> {
        self.validate()?;
        for (kind, mut rng) in self.active_steps() {
            let _span = qce_telemetry::span!("defense.apply", name = kind.name());
            kind.apply(net, ctx, &mut rng)?;
            qce_telemetry::counter("defense.applied").incr(1);
        }
        Ok(())
    }
}

/// A [`TransformError::Invalid`] for role `K`.
pub(crate) fn invalid<K: Transform>(reason: impl Into<String>) -> TransformError {
    TransformError::Invalid {
        role: K::ROLE,
        reason: reason.into(),
    }
}

/// Field `key` of a plan or step object, read by `get`; `what` names
/// the expected JSON type in the error.
pub(crate) fn req<'a, K: Transform, T>(
    doc: &'a JsonValue,
    key: &str,
    what: &str,
    get: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T> {
    let value = doc
        .get(key)
        .ok_or_else(|| invalid::<K>(format!("missing field {key:?}")))?;
    get(value).ok_or_else(|| invalid::<K>(format!("field {key:?} must be {what}")))
}

/// The numeric field `key` of a step object, narrowed to `f32`.
pub(crate) fn f32_field<K: Transform>(doc: &JsonValue, key: &str) -> Result<f32> {
    req::<K, _>(doc, key, "a number", JsonValue::as_f64).map(|v| v as f32)
}

/// How the [`DefenseKind::Rotation`] defense re-parameterizes hidden
/// channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RotationMode {
    /// Compensated random channel permutation — the network's *exact*
    /// ReLU symmetry. Function-preserving up to float summation order;
    /// all-or-nothing (no severity knob).
    Permute,
    /// Blend each hidden basis toward a random orthogonal rotation
    /// obtained by QR (Gram–Schmidt) of a Gaussian matrix:
    /// `M = (1-s)·I + s·Q`, compensated on the consuming convolution by
    /// `M⁻¹`. Exact for the linear path but *lossy* through batch-norm
    /// and ReLU — a measured trade-off, not a free action.
    QrBlend {
        /// Blend strength `s` in `[0, 1]` (0 is the identity).
        strength: f32,
    },
}

/// One countermeasure family, parameterized by its strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseKind {
    /// Hidden-channel re-parameterization (see [`RotationMode`]).
    Rotation {
        /// Permutation (exact symmetry) or QR blend (lossy rotation).
        mode: RotationMode,
    },
    /// Short defensive retraining on clean data from the
    /// [`DefenseContext`].
    FinetuneScrub {
        /// Retraining epochs (0 is a no-op).
        epochs: usize,
        /// Learning rate of the scrubbing pass.
        lr: f32,
    },
    /// Magnitude pruning: zero the smallest-|w| `fraction` per tensor.
    PruneScrub {
        /// Fraction of weights to zero, in `[0, 1)`.
        fraction: f32,
    },
    /// Defender-chosen k-means re-quantization at `bits`
    /// (levels = `2^bits`).
    Requantize {
        /// Codebook width in bits, `1..=16`.
        bits: u32,
    },
    /// Zero-mean Gaussian noise with σ = `fraction` of each tensor's own
    /// weight standard deviation.
    NoiseWeights {
        /// Noise σ as a fraction of the per-tensor weight σ.
        fraction: f32,
    },
}

impl DefenseKind {
    /// Short stable name (telemetry span label).
    pub fn name(&self) -> &'static str {
        match *self {
            DefenseKind::Rotation { .. } => "rotation",
            DefenseKind::FinetuneScrub { .. } => "finetune-scrub",
            DefenseKind::PruneScrub { .. } => "prune-scrub",
            DefenseKind::Requantize { .. } => "requantize",
            DefenseKind::NoiseWeights { .. } => "noise-weights",
        }
    }
}

impl Transform for DefenseKind {
    const ROLE: &'static str = "defense";
    const STEPS_KEY: &'static str = "defenses";

    /// All-or-nothing defenses ([`RotationMode::Permute`],
    /// [`DefenseKind::Requantize`]) report 1.
    fn severity(&self) -> f64 {
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            }
            | DefenseKind::Requantize { .. } => 1.0,
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => f64::from(strength),
            DefenseKind::FinetuneScrub { epochs, .. } => epochs as f64,
            DefenseKind::PruneScrub { fraction } | DefenseKind::NoiseWeights { fraction } => {
                f64::from(fraction)
            }
        }
    }

    /// Fractions clamp below their validity ceiling. All-or-nothing
    /// defenses — permutation rotation and re-quantization — are
    /// returned unchanged: there is no partial permutation.
    fn scaled(&self, factor: f32) -> DefenseKind {
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            }
            | DefenseKind::Requantize { .. } => *self,
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => DefenseKind::Rotation {
                mode: RotationMode::QrBlend {
                    strength: (strength * factor).min(1.0),
                },
            },
            DefenseKind::FinetuneScrub { epochs, lr } => DefenseKind::FinetuneScrub {
                epochs: ((epochs as f32) * factor).round() as usize,
                lr,
            },
            DefenseKind::PruneScrub { fraction } => DefenseKind::PruneScrub {
                fraction: (fraction * factor).min(0.99),
            },
            DefenseKind::NoiseWeights { fraction } => DefenseKind::NoiseWeights {
                fraction: fraction * factor,
            },
        }
    }

    fn validate(&self) -> Result<()> {
        let reason = match *self {
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } if !strength.is_finite() || !(0.0..=1.0).contains(&strength) => {
                format!("QR blend strength {strength} outside [0, 1]")
            }
            DefenseKind::FinetuneScrub { epochs, lr }
                if epochs > 0 && (!lr.is_finite() || lr <= 0.0) =>
            {
                format!("fine-tune scrub lr {lr} must be positive and finite")
            }
            DefenseKind::PruneScrub { fraction }
                if !fraction.is_finite() || !(0.0..1.0).contains(&fraction) =>
            {
                format!("prune fraction {fraction} outside [0, 1)")
            }
            DefenseKind::Requantize { bits } if bits == 0 || bits > 16 => {
                format!("requantize bits {bits} outside 1..=16")
            }
            DefenseKind::NoiseWeights { fraction } if !fraction.is_finite() || fraction < 0.0 => {
                format!("noise fraction {fraction} must be non-negative")
            }
            _ => return Ok(()),
        };
        Err(invalid::<Self>(reason))
    }

    fn write_json(&self, o: &mut ObjWriter) {
        match *self {
            DefenseKind::Rotation {
                mode: RotationMode::Permute,
            } => {
                o.str("kind", "rotation").str("mode", "permute");
            }
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength },
            } => {
                o.str("kind", "rotation")
                    .str("mode", "qr_blend")
                    .num("strength", f64::from(strength));
            }
            DefenseKind::FinetuneScrub { epochs, lr } => {
                o.str("kind", "finetune_scrub")
                    .uint("epochs", epochs as u64)
                    .num("lr", f64::from(lr));
            }
            DefenseKind::PruneScrub { fraction } => {
                o.str("kind", "prune_scrub")
                    .num("fraction", f64::from(fraction));
            }
            DefenseKind::Requantize { bits } => {
                o.str("kind", "requantize").uint("bits", u64::from(bits));
            }
            DefenseKind::NoiseWeights { fraction } => {
                o.str("kind", "noise_weights")
                    .num("fraction", f64::from(fraction));
            }
        }
    }

    fn from_json(doc: &JsonValue) -> Result<Self> {
        let f32_field = |key| f32_field::<Self>(doc, key);
        let uint_field =
            |key| req::<Self, _>(doc, key, "a non-negative integer", JsonValue::as_u64);
        Ok(
            match req::<Self, _>(doc, "kind", "a string", JsonValue::as_str)? {
                "rotation" => {
                    let mode = match req::<Self, _>(doc, "mode", "a string", JsonValue::as_str)? {
                        "permute" => RotationMode::Permute,
                        "qr_blend" => RotationMode::QrBlend {
                            strength: f32_field("strength")?,
                        },
                        other => {
                            return Err(invalid::<Self>(format!(
                                "unknown rotation mode {other:?} (permute | qr_blend)"
                            )))
                        }
                    };
                    DefenseKind::Rotation { mode }
                }
                "finetune_scrub" => DefenseKind::FinetuneScrub {
                    epochs: uint_field("epochs")? as usize,
                    lr: f32_field("lr")?,
                },
                "prune_scrub" => DefenseKind::PruneScrub {
                    fraction: f32_field("fraction")?,
                },
                "requantize" => DefenseKind::Requantize {
                    bits: u32::try_from(uint_field("bits")?)
                        .map_err(|_| invalid::<Self>("requantize \"bits\" out of range"))?,
                },
                "noise_weights" => DefenseKind::NoiseWeights {
                    fraction: f32_field("fraction")?,
                },
                other => return Err(invalid::<Self>(format!("unknown defense kind {other:?}"))),
            },
        )
    }

    /// Defenses act on the released weights; the quantized handle is
    /// not consulted.
    fn apply_release(
        plan: &Plan<Self>,
        net: &mut Network,
        _quantized: Option<&mut QuantizedNetwork>,
        ctx: &DefenseContext<'_>,
    ) -> Result<()> {
        plan.apply(net, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_multiplicative_and_clamped() {
        let k = DefenseKind::PruneScrub { fraction: 0.4 };
        assert_eq!(k.scaled(2.0), DefenseKind::PruneScrub { fraction: 0.8 });
        assert_eq!(k.scaled(10.0), DefenseKind::PruneScrub { fraction: 0.99 });
        let n = DefenseKind::NoiseWeights { fraction: 0.1 };
        assert!(matches!(
            n.scaled(3.0),
            DefenseKind::NoiseWeights { fraction } if (fraction - 0.3).abs() < 1e-6
        ));
        let f = DefenseKind::FinetuneScrub {
            epochs: 2,
            lr: 0.01,
        };
        assert_eq!(
            f.scaled(1.6),
            DefenseKind::FinetuneScrub {
                epochs: 3,
                lr: 0.01
            }
        );
    }

    #[test]
    fn all_or_nothing_defenses_ignore_scaling() {
        let r = DefenseKind::Rotation {
            mode: RotationMode::Permute,
        };
        assert_eq!(r.scaled(0.0), r);
        assert_eq!(r.severity(), 1.0);
        let q = DefenseKind::Requantize { bits: 4 };
        assert_eq!(q.scaled(0.5), q);
        assert_eq!(q.severity(), 1.0);
    }

    #[test]
    fn benignness_tracks_severity() {
        assert!(DefensePlan::new(1).is_benign());
        let plan = DefensePlan::new(1)
            .with(DefenseKind::NoiseWeights { fraction: 0.1 })
            .with(DefenseKind::PruneScrub { fraction: 0.2 });
        assert!(!plan.is_benign());
        assert!(plan.scaled(0.0).is_benign());
        // Permutation rotation cannot be scaled away.
        let rot = DefensePlan::new(1).with(DefenseKind::Rotation {
            mode: RotationMode::Permute,
        });
        assert!(!rot.scaled(0.0).is_benign());
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        for bad in [
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: 1.5 },
            },
            DefenseKind::Rotation {
                mode: RotationMode::QrBlend { strength: f32::NAN },
            },
            DefenseKind::FinetuneScrub { epochs: 1, lr: 0.0 },
            DefenseKind::PruneScrub { fraction: 1.0 },
            DefenseKind::Requantize { bits: 0 },
            DefenseKind::Requantize { bits: 17 },
            DefenseKind::NoiseWeights { fraction: -0.1 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
            assert!(DefensePlan::new(0).with(bad).validate().is_err());
        }
        // Epochs 0 tolerates any lr (the defense is a no-op).
        assert!(DefenseKind::FinetuneScrub { epochs: 0, lr: 0.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            DefenseKind::Rotation {
                mode: RotationMode::Permute
            }
            .name(),
            "rotation"
        );
        assert_eq!(DefenseKind::Requantize { bits: 2 }.name(), "requantize");
    }
}
