use qce_tensor::Tensor;

use crate::{Layer, Mode, NnError, Result};

/// Rectified linear unit, applied elementwise to any tensor shape.
///
/// # Examples
///
/// ```
/// use qce_nn::layers::ReLU;
/// use qce_nn::{Layer, Mode};
/// use qce_tensor::Tensor;
///
/// # fn main() -> Result<(), qce_nn::NnError> {
/// let mut relu = ReLU::new();
/// let y = relu.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Eval)?;
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Layer for ReLU {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = input.map(|x| x.max(0.0));
        if mode == Mode::Train {
            self.mask = Some(input.as_slice().iter().map(|&x| x > 0.0).collect());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::tensor(
                "relu",
                qce_tensor::TensorError::LengthMismatch {
                    expected: mask.len(),
                    actual: grad_out.len(),
                },
            ));
        }
        // One pass, no data-dependent branch: the mask widens to an
        // all-ones/all-zeros bit pattern, so a masked-off element becomes
        // exactly `+0.0` and a kept one keeps every bit of `g`.
        let grad_in: Vec<f32> = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| f32::from_bits(g.to_bits() & u32::from(m).wrapping_neg()))
            .collect();
        Tensor::from_vec(grad_in, grad_out.dims()).map_err(|e| NnError::tensor("relu", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = ReLU::new();
        let y = relu
            .forward(&Tensor::from_slice(&[-2.0, 0.0, 3.0]), Mode::Eval)
            .unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_slice(&[-1.0, 2.0, 0.0]), Mode::Train)
            .unwrap();
        let g = relu
            .backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]))
            .unwrap();
        // Gradient passes only where input was strictly positive.
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn backward_is_bitwise_select() {
        let mut relu = ReLU::new();
        let x = [-1.0, 2.0, 0.0, -0.0, 3.0, 1e-30, f32::NAN, 4.0];
        relu.forward(&Tensor::from_slice(&x), Mode::Train).unwrap();
        let g = [5.0, -0.0, -7.0, 1.0, f32::NAN, -2.5, 9.0, -0.0];
        let got = relu.backward(&Tensor::from_slice(&g)).unwrap();
        for ((&xi, &gi), &out) in x.iter().zip(&g).zip(got.as_slice()) {
            // Kept elements keep every bit (NaN payloads and -0.0 too);
            // masked ones are exactly +0.0.
            let want = if xi > 0.0 { gi.to_bits() } else { 0 };
            assert_eq!(out.to_bits(), want, "x={xi} g={gi}");
        }
    }

    #[test]
    fn backward_without_forward_fails() {
        let mut relu = ReLU::new();
        assert!(matches!(
            relu.backward(&Tensor::from_slice(&[1.0])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn backward_rejects_length_mismatch() {
        let mut relu = ReLU::new();
        relu.forward(&Tensor::from_slice(&[1.0, 1.0]), Mode::Train)
            .unwrap();
        assert!(relu.backward(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn no_params() {
        let relu = ReLU::new();
        assert!(relu.params().is_empty());
    }
}
