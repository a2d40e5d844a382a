//! Blocked/streamed attenuation: per-cell row tiles instead of the dense
//! `[device][gateway]` matrix.
//!
//! The dense [`lora_sim::AttenuationMatrix`] is O(devices × gateways) —
//! fine at 10k devices, ruinous at 1M × many gateways. A
//! [`TiledAttenuation`] materializes rows *per cell* and only against the
//! gateways that matter for that cell (those within the attenuation
//! horizon of it, as chosen by the caller), so memory scales with
//! occupancy × local gateway count rather than population².
//!
//! Every stored entry is produced by the same
//! [`lora_sim::attenuation_row`] kernel as the dense build, so a tile
//! entry is bitwise identical to the corresponding dense matrix entry.

use crate::grid::CellGrid;
use lora_parallel::par_map_indexed;
use lora_sim::{SimConfig, Topology};

/// Per-cell attenuation tiles over a [`CellGrid`].
///
/// Tile `c` holds a row-major block `[member][local gateway]` for the
/// devices of cell `c` (in [`CellGrid::members`] order) against the
/// cell's gateway subset (global gateway ids, ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct TiledAttenuation {
    gateways: Vec<Vec<u32>>,
    blocks: Vec<Vec<f64>>,
}

impl TiledAttenuation {
    /// Builds the tiles for `grid` over `topology`, one tile per cell,
    /// against `gateway_sets[cell]` (global gateway indices). Cells build
    /// in parallel across `threads` workers; each tile is a pure function
    /// of its cell, so the result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `gateway_sets` is not `grid.cell_count()` long, when
    /// the grid does not index `topology`, or when a gateway id is out of
    /// range.
    pub fn build(
        config: &SimConfig,
        topology: &Topology,
        grid: &CellGrid,
        gateway_sets: &[Vec<u32>],
        threads: usize,
    ) -> Self {
        assert_eq!(
            gateway_sets.len(),
            grid.cell_count(),
            "one gateway set per cell"
        );
        assert_eq!(
            grid.device_count(),
            topology.devices().len(),
            "grid must index this topology"
        );
        let n_gw = topology.gateways().len();
        let tiles = par_map_indexed(grid.cell_count(), threads.max(1), |cell| {
            let gws = &gateway_sets[cell];
            let members = grid.members(cell);
            if gws.is_empty() || members.is_empty() {
                return Vec::new();
            }
            let positions: Vec<_> = gws
                .iter()
                .map(|&g| {
                    assert!((g as usize) < n_gw, "gateway id {g} out of range");
                    topology.gateways()[g as usize]
                })
                .collect();
            let mut block = Vec::with_capacity(members.len() * gws.len());
            for &dev in members {
                lora_sim::attenuation_row(
                    config,
                    &topology.devices()[dev as usize],
                    &positions,
                    &mut block,
                );
            }
            block
        });
        TiledAttenuation {
            gateways: gateway_sets.to_vec(),
            blocks: tiles,
        }
    }

    /// The gateway subset (global ids) tile `cell` was built against.
    pub fn gateways(&self, cell: usize) -> &[u32] {
        &self.gateways[cell]
    }

    /// The row-major `[member][local gateway]` block for `cell`, in
    /// [`CellGrid::members`] order.
    pub fn block(&self, cell: usize) -> &[f64] {
        &self.blocks[cell]
    }

    /// The attenuation row of one member of `cell` (by position within
    /// [`CellGrid::members`], see [`CellGrid::slot_of`]) against the
    /// cell's gateway subset.
    pub fn row(&self, cell: usize, member: usize) -> &[f64] {
        let width = self.gateways[cell].len();
        &self.blocks[cell][member * width..(member + 1) * width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_sim::attenuation_matrix;

    fn setup(n: usize, seed: u64) -> (SimConfig, Topology) {
        let config = SimConfig::default();
        let topology = Topology::disc(n, 3, 4_000.0, &config, seed);
        (config, topology)
    }

    #[test]
    fn tiles_match_dense_entries_bitwise() {
        let (config, topology) = setup(200, 7);
        let grid = CellGrid::build(&topology, 1_500.0);
        let all: Vec<u32> = (0..topology.gateways().len() as u32).collect();
        let sets = vec![all; grid.cell_count()];
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 3);
        let dense = attenuation_matrix(&config, &topology);
        for id in 0..topology.devices().len() {
            let row = tiled.row(grid.cell_of(id), grid.slot_of(id));
            assert_eq!(row.len(), topology.gateways().len());
            for (g, t) in row.iter().enumerate() {
                assert_eq!(t.to_bits(), dense.at(id, g).to_bits(), "dev {id} gw {g}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_tiles() {
        let (config, topology) = setup(150, 11);
        let grid = CellGrid::build(&topology, 1_000.0);
        let all: Vec<u32> = (0..topology.gateways().len() as u32).collect();
        let sets = vec![all; grid.cell_count()];
        let one = TiledAttenuation::build(&config, &topology, &grid, &sets, 1);
        let four = TiledAttenuation::build(&config, &topology, &grid, &sets, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn subset_tiles_report_missing_gateways_as_far_field() {
        let (config, topology) = setup(100, 3);
        let grid = CellGrid::build(&topology, 2_000.0);
        // Only gateway 0 everywhere.
        let sets = vec![vec![0u32]; grid.cell_count()];
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 2);
        let dense = attenuation_matrix(&config, &topology);
        for id in 0..topology.devices().len() {
            let cell = grid.cell_of(id);
            assert_eq!(tiled.gateways(cell), &[0]);
            let row = tiled.row(cell, grid.slot_of(id));
            assert_eq!(row.len(), 1);
            assert_eq!(row[0].to_bits(), dense.at(id, 0).to_bits());
        }
    }

    #[test]
    fn footprint_tracks_occupancy_not_population_squared() {
        let (config, topology) = setup(400, 5);
        let grid = CellGrid::build(&topology, 800.0);
        let sets = vec![vec![0u32]; grid.cell_count()];
        let tiled = TiledAttenuation::build(&config, &topology, &grid, &sets, 2);
        // 400 devices × 1 gateway: one entry per device, far below
        // dense × all gateways.
        let data: usize = (0..grid.cell_count()).map(|c| tiled.block(c).len()).sum();
        assert_eq!(data, 400);
    }
}
