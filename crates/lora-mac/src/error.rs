//! Error type for MAC-layer operations.

use std::error::Error;
use std::fmt;

/// Errors returned by MAC-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MacError {
    /// Class-A receive windows that are not ordered `0 < RX1 < RX2`, or
    /// whose window length or receiver power is not positive.
    InvalidReceiveWindows,
}

impl fmt::Display for MacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacError::InvalidReceiveWindows => write!(
                f,
                "class-A receive windows need 0 < RX1 < RX2 delays and a positive \
                 window length and receiver power"
            ),
        }
    }
}

impl Error for MacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MacError>();
    }

    #[test]
    fn display_states_the_window_condition() {
        let s = MacError::InvalidReceiveWindows.to_string();
        assert!(s.contains("0 < RX1 < RX2"), "{s}");
    }
}
