//! lora-spatial: the cell-sharded spatial substrate for million-device
//! scale-out.
//!
//! The dense pipeline (`lora-sim` attenuation matrix → `lora-model`
//! interference sums → `ef-lora` greedy scan) is O(N²) in devices. This
//! crate supplies the pieces that let the allocator, model, and simulator
//! touch only *local* structure:
//!
//! * [`grid::CellGrid`] — a uniform cell index over device sites with
//!   CSR membership, neighborhood (boundary-ring) iteration, and a
//!   cell-indexed [`grid::neighbor_counts`] that is byte-identical to the
//!   dense O(N²) scan;
//! * [`horizon`] — the attenuation horizon (the distance past which a
//!   max-power transmitter falls below a fraction of the noise floor)
//!   and the occupancy-clamped cell-sizing rule derived from it;
//! * [`tiled::TiledAttenuation`] — per-cell attenuation row blocks
//!   against per-cell gateway subsets, built by the same kernel as the
//!   dense matrix so entries are bitwise identical, with memory scaling
//!   in occupancy instead of population²;
//! * [`farfield::FarFieldPricer`] — the paper's Eq. 17–20 PPP machinery
//!   in truncated form, pricing everything beyond a cell's boundary ring
//!   as an analytic annulus integral (mean interference, occupancy, and
//!   the literal truncated Laplace transform). A pricer is built for one
//!   annulus and evaluates the path loss at its integration nodes once,
//!   so the planner prices its annulus once and each kernel runs only
//!   its own integrand.
//!
//! Consumers: `ef-lora` (`ef_lora::spatial`) shards the allocation over
//! cells, `lora-model` accepts the priced far field as ambient offsets,
//! and `lora-sim` exposes the tiled build as the escape hatch when the
//! dense matrix exceeds its byte budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod farfield;
pub mod grid;
pub mod horizon;
pub mod tiled;

pub use farfield::FarFieldPricer;
pub use grid::CellGrid;
pub use horizon::{attenuation_horizon_m, cell_size_m, DEFAULT_HORIZON_EPSILON};
pub use tiled::TiledAttenuation;
