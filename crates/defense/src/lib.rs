//! Release transforms: the perturbations a released model meets
//! between the malicious trainer and the adversary who decodes it.
//!
//! The DAC'20 attack smuggles training images into a released model's
//! weights (sign, LSB or correlation encodings). Two parties perturb the
//! release before it is decoded, and this crate models both with one
//! seeded, ordered [`Plan`] type whose role lives in its step kind:
//!
//! * [`FaultPlan`] = `Plan<`[`FaultKind`]`>` — adversarial bit rot and
//!   tampering for robustness sweeps: bit flips in the packed index
//!   stream, Gaussian/uniform noise, global magnitude pruning, centroid
//!   jitter, fine-tune drift. Applied to the quantized handle of a
//!   quantized release, or to the raw weights of a float one.
//! * [`DefensePlan`] = `Plan<`[`DefenseKind`]`>` — the data holder's
//!   countermeasures, applied to the released weights:
//!   * [`DefenseKind::Rotation`] — re-parameterize every residual
//!     block's hidden channel space. In [`RotationMode::Permute`] mode
//!     this applies the network's *exact* ReLU symmetry (a compensated
//!     channel permutation): task function is preserved up to float
//!     summation order, but any position-addressed payload is
//!     scrambled. The [`RotationMode::QrBlend`] mode blends each hidden
//!     basis toward a random orthogonal (QR-derived) rotation; it is
//!     deliberately *lossy* (batch-norm and ReLU do not commute with
//!     general rotations) and exists to measure the
//!     accuracy/decorrelation trade-off of non-symmetry rotations.
//!   * [`DefenseKind::FinetuneScrub`] — a short defensive retraining
//!     pass on clean data, eroding gradients the attacker's regularizer
//!     planted.
//!   * [`DefenseKind::PruneScrub`] — per-tensor magnitude pruning via
//!     [`qce_quant::prune::magnitude_prune`].
//!   * [`DefenseKind::Requantize`] — defender-chosen k-means
//!     re-quantization, annihilating LSB payloads and re-drawing an
//!     attacker's target-correlated cluster boundaries.
//!   * [`DefenseKind::NoiseWeights`] — per-tensor σ-scaled Gaussian
//!     noise.
//!
//! Kinds that look alike across the roles are not duplicates: `Prune`
//! uses one global quantile threshold while `PruneScrub` prunes an exact
//! count per tensor, `FinetuneDrift` is a random step proportional to
//! |w| while `FinetuneScrub` really retrains, and `GaussianNoise` draws
//! from the RNG on zero-σ tensors while `NoiseWeights` skips them.
//!
//! Every draw derives from the plan seed (each step gets an independent
//! RNG), so a plan is reproducible and composes deterministically — the
//! property the conformance and tournament goldens rely on. Both roles
//! share one canonical JSON codec ([`Plan::to_json`] /
//! [`Plan::from_json`], validating at parse time) and one error type,
//! [`TransformError`].
//!
//! # Examples
//!
//! ```
//! use qce_defense::{DefenseContext, DefenseKind, DefensePlan, RotationMode};
//! use qce_nn::models::ResNetLite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = ResNetLite::builder()
//!     .input(1, 8).classes(2).stage_channels(&[4]).blocks_per_stage(1)
//!     .build(1)?;
//! let before = net.flat_weights();
//! let plan = DefensePlan::new(7)
//!     .with(DefenseKind::Rotation { mode: RotationMode::Permute })
//!     .with(DefenseKind::NoiseWeights { fraction: 0.05 });
//! plan.apply(&mut net, &DefenseContext::empty())?;
//! assert_ne!(net.flat_weights(), before);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qce_nn::NnError;
use qce_quant::QuantError;
use qce_tensor::Tensor;

mod countermeasures;
mod faults;
mod plan;

pub use faults::FaultKind;
pub use plan::{DefenseKind, DefensePlan, FaultPlan, Plan, RotationMode, Transform};

/// Error type of every release transform, fault or defense.
#[derive(Debug)]
#[non_exhaustive]
pub enum TransformError {
    /// A step's parameter is out of range, or a plan document is
    /// malformed.
    Invalid {
        /// Role of the rejected plan (`"fault"` or `"defense"`).
        role: &'static str,
        /// Why the step or document is rejected.
        reason: String,
    },
    /// A defense needs clean training data the [`DefenseContext`] does
    /// not carry.
    MissingData {
        /// Which defense demanded the data.
        defense: &'static str,
    },
    /// Defensive retraining or weight surgery failed inside `qce-nn`.
    Nn(NnError),
    /// Re-packing, re-quantization or pruning failed inside `qce-quant`.
    Quant(QuantError),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::Invalid { role, reason } => write!(f, "invalid {role}: {reason}"),
            TransformError::MissingData { defense } => {
                write!(
                    f,
                    "defense `{defense}` needs clean training data in the DefenseContext"
                )
            }
            TransformError::Nn(e) => write!(f, "release transform (network): {e}"),
            TransformError::Quant(e) => write!(f, "release transform (quantization): {e}"),
        }
    }
}

impl std::error::Error for TransformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransformError::Nn(e) => Some(e),
            TransformError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for TransformError {
    fn from(e: NnError) -> Self {
        TransformError::Nn(e)
    }
}

impl From<QuantError> for TransformError {
    fn from(e: QuantError) -> Self {
        TransformError::Quant(e)
    }
}

/// Convenience alias for release-transform results.
pub type Result<T> = std::result::Result<T, TransformError>;

/// Resources a defender has on hand while scrubbing a model.
///
/// Only [`DefenseKind::FinetuneScrub`] consumes the training data; every other
/// defense works from the weights alone, so [`DefenseContext::empty`]
/// suffices for them.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefenseContext<'a> {
    /// Clean images `[N, C, H, W]` the defender trusts.
    pub train_x: Option<&'a Tensor>,
    /// Class labels aligned with `train_x`.
    pub train_labels: Option<&'a [usize]>,
    /// Mini-batch size for defensive retraining (0 falls back to 32).
    pub batch_size: usize,
}

impl<'a> DefenseContext<'a> {
    /// A context with no training data (weight-only defenses).
    pub fn empty() -> Self {
        DefenseContext::default()
    }

    /// A context carrying clean training data for
    /// [`DefenseKind::FinetuneScrub`].
    pub fn with_data(x: &'a Tensor, labels: &'a [usize], batch_size: usize) -> Self {
        DefenseContext {
            train_x: Some(x),
            train_labels: Some(labels),
            batch_size,
        }
    }

    /// Effective mini-batch size (0 falls back to 32).
    pub fn effective_batch_size(&self) -> usize {
        if self.batch_size == 0 {
            32
        } else {
            self.batch_size
        }
    }
}
