//! LoRaWAN MAC-layer model.
//!
//! The MAC substrate of the EF-LoRa reproduction:
//!
//! * [`frame`] — LoRaWAN uplink frame layout (the paper's 8-byte application
//!   payload → 21-byte PHY payload), with a real AES-128-CMAC message
//!   integrity code ([`crypto`]),
//! * [`aloha`] — unslotted-ALOHA transmission schedules and duty cycle
//!   (paper Eq. 15 and the ETSI 1 % cap),
//! * [`collision`] — the paper's collision rule (same SF, same channel, any
//!   overlap) plus the optional inter-SF interference matrix extension,
//! * [`gateway`] — the SX1301 demodulator bank that caps a gateway at eight
//!   concurrent packets (paper Eq. 6).
//!
//! # Example
//!
//! ```
//! use lora_mac::frame::UplinkFrame;
//!
//! let frame = UplinkFrame::new(0x2601_4aF3, 17, 1, vec![0u8; 8]);
//! // 13 bytes of LoRaWAN overhead around an 8-byte application payload.
//! assert_eq!(frame.phy_payload_len(), 21);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod class_a;
pub mod collision;
pub mod crypto;
pub mod error;
pub mod frame;
pub mod gateway;

pub use aloha::AlohaSchedule;
pub use class_a::ClassAParams;
pub use collision::InterSfPolicy;
pub use error::MacError;
pub use frame::UplinkFrame;
pub use gateway::DemodulatorBank;

/// The SX1301 concentrator decodes at most this many packets concurrently,
/// regardless of their SFs and channels (paper Section III-B, Eq. 6).
pub const GATEWAY_MAX_CONCURRENT: usize = 8;
