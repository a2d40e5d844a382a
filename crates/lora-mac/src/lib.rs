//! LoRaWAN MAC-layer model.
//!
//! The MAC substrate of the EF-LoRa reproduction:
//!
//! * [`frame`] — the 13 bytes of LoRaWAN overhead that turn the paper's
//!   8-byte application payload into a 21-byte PHY payload, and the
//!   largest application payload that still fits a LoRa frame,
//! * [`aloha`] — the unslotted-ALOHA duty cycle (paper Eq. 15) and the
//!   ETSI 1 % cap,
//! * [`collision`] — the interaction of transmissions on different
//!   spreading factors: the paper's orthogonal rule (only same SF, same
//!   channel interferes) and the optional imperfect-orthogonality
//!   extension,
//! * [`class_a`] — the class-A receive windows and their listening energy,
//! * [`gateway`] — the SX1301 demodulator bank that caps a gateway at eight
//!   concurrent packets (paper Eq. 6).
//!
//! # Example
//!
//! The paper's 8-byte reading, framed and sent at SF12 every 600 s, stays
//! under the ETSI 1 % duty-cycle cap:
//!
//! ```
//! use lora_mac::aloha::respects_duty_cycle_cap;
//! use lora_mac::frame::MAC_OVERHEAD;
//! use lora_phy::toa::ToaParams;
//! use lora_phy::{Bandwidth, CodingRate, SpreadingFactor};
//!
//! let toa_s = ToaParams::new(SpreadingFactor::Sf12, Bandwidth::Bw125, CodingRate::Cr4_7)
//!     .time_on_air_s(8 + MAC_OVERHEAD)?;
//! assert!(respects_duty_cycle_cap(toa_s, 600.0, 0.01));
//! # Ok::<(), lora_phy::PhyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod class_a;
pub mod collision;
pub mod error;
pub mod frame;
pub mod gateway;

pub use class_a::ClassAParams;
pub use collision::InterSfPolicy;
pub use error::MacError;
pub use gateway::DemodulatorBank;

/// The SX1301 concentrator decodes at most this many packets concurrently,
/// regardless of their SFs and channels (paper Section III-B, Eq. 6).
pub const GATEWAY_MAX_CONCURRENT: usize = 8;
