use std::fmt;

use qce_attack::AttackError;
use qce_data::DataError;
use qce_defense::TransformError;
use qce_nn::NnError;
use qce_quant::QuantError;

/// Error type for the end-to-end attack flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Dataset generation/selection failed.
    Data(DataError),
    /// Model construction or training failed.
    Nn(NnError),
    /// Attack planning, regularization or decoding failed.
    Attack(AttackError),
    /// Quantization or fine-tuning failed.
    Quant(QuantError),
    /// A release transform (fault or defense plan) failed.
    Transform(TransformError),
    /// The flow configuration is inconsistent.
    InvalidConfig {
        /// Why the configuration is rejected.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Data(e) => write!(f, "data stage failed: {e}"),
            FlowError::Nn(e) => write!(f, "training stage failed: {e}"),
            FlowError::Attack(e) => write!(f, "attack stage failed: {e}"),
            FlowError::Quant(e) => write!(f, "quantization stage failed: {e}"),
            FlowError::Transform(e) => write!(f, "release transform failed: {e}"),
            FlowError::InvalidConfig { reason } => write!(f, "invalid flow config: {reason}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Data(e) => Some(e),
            FlowError::Nn(e) => Some(e),
            FlowError::Attack(e) => Some(e),
            FlowError::Quant(e) => Some(e),
            FlowError::Transform(e) => Some(e),
            FlowError::InvalidConfig { .. } => None,
        }
    }
}

impl From<DataError> for FlowError {
    fn from(e: DataError) -> Self {
        FlowError::Data(e)
    }
}

impl From<NnError> for FlowError {
    fn from(e: NnError) -> Self {
        FlowError::Nn(e)
    }
}

impl From<AttackError> for FlowError {
    fn from(e: AttackError) -> Self {
        FlowError::Attack(e)
    }
}

impl From<QuantError> for FlowError {
    fn from(e: QuantError) -> Self {
        FlowError::Quant(e)
    }
}

impl From<TransformError> for FlowError {
    fn from(e: TransformError) -> Self {
        FlowError::Transform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_source() {
        use std::error::Error;
        let e: FlowError = DataError::EmptySelection { stage: "x" }.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("data stage"));
        let e: FlowError = NnError::InvalidConfig {
            reason: "y".to_string(),
        }
        .into();
        assert!(matches!(e, FlowError::Nn(_)));
        let e: FlowError = TransformError::Invalid {
            role: "fault",
            reason: "z".to_string(),
        }
        .into();
        assert!(matches!(e, FlowError::Transform(_)));
        assert!(e.source().is_some());
        assert_eq!(e.to_string(), "release transform failed: invalid fault: z");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlowError>();
    }
}
