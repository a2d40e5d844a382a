//! A uniform cell index over device sites.
//!
//! [`CellGrid`] buckets every device of a [`Topology`] into square cells
//! of a fixed edge length, stored in CSR form: `members(cell)` yields the
//! device ids of one cell in ascending id order, and
//! [`CellGrid::neighborhood`] walks a cell plus its boundary ring. Both
//! iterations are pure functions of the topology and the cell size, so
//! everything built on top of the grid — contention-group counting,
//! per-cell allocation partitions — is deterministic.
//!
//! The grid also hosts the cell-indexed replacement for the allocator's
//! dense `O(N²)` neighbor counting: with a cell edge at least as large as
//! the neighborhood radius, every neighbor of a device lies in its 3×3
//! cell block, so scanning that block reproduces the dense counts
//! *exactly* (the same distance predicate over the same pairs).

use lora_sim::Topology;

/// A uniform grid over the bounding box of a topology's device sites.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    min_x: f64,
    min_y: f64,
    cell_size_m: f64,
    nx: usize,
    ny: usize,
    /// CSR starts, length `nx·ny + 1`.
    starts: Vec<u32>,
    /// Device ids grouped by cell, ascending id within each cell.
    order: Vec<u32>,
    /// Cell index per device.
    cell_of: Vec<u32>,
    /// Position of each device within its cell's [`CellGrid::members`].
    slot_of: Vec<u32>,
}

impl CellGrid {
    /// Buckets every device of `topology` into square cells of edge
    /// `cell_size_m`.
    ///
    /// # Panics
    ///
    /// Panics when `cell_size_m` is not a positive finite number, when a
    /// device position is not finite, or when the population exceeds
    /// `u32::MAX` devices.
    pub fn build(topology: &Topology, cell_size_m: f64) -> Self {
        assert!(
            cell_size_m.is_finite() && cell_size_m > 0.0,
            "cell size must be positive and finite, got {cell_size_m}"
        );
        let sites = topology.devices();
        assert!(
            u32::try_from(sites.len()).is_ok(),
            "cell grid addresses devices as u32"
        );
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for site in sites {
            let (x, y) = (site.position.x, site.position.y);
            assert!(x.is_finite() && y.is_finite(), "non-finite device position");
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        if sites.is_empty() {
            return CellGrid {
                min_x: 0.0,
                min_y: 0.0,
                cell_size_m,
                nx: 1,
                ny: 1,
                starts: vec![0, 0],
                order: Vec::new(),
                cell_of: Vec::new(),
                slot_of: Vec::new(),
            };
        }
        let axis_cells = |min: f64, max: f64| -> usize {
            // Devices sitting exactly on the max edge fold into the last
            // cell (see `clamp` in `cell_coords`).
            (((max - min) / cell_size_m).floor() as usize + 1).max(1)
        };
        let nx = axis_cells(min_x, max_x);
        let ny = axis_cells(min_y, max_y);
        let mut grid = CellGrid {
            min_x,
            min_y,
            cell_size_m,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            order: Vec::with_capacity(sites.len()),
            cell_of: Vec::with_capacity(sites.len()),
            slot_of: vec![0; sites.len()],
        };
        // Counting sort by cell keeps ids ascending within each cell.
        for site in sites {
            let c = grid.cell_at(site.position.x, site.position.y);
            grid.cell_of.push(c as u32);
            grid.starts[c + 1] += 1;
        }
        for c in 0..nx * ny {
            grid.starts[c + 1] += grid.starts[c];
        }
        let mut cursor: Vec<u32> = grid.starts[..nx * ny].to_vec();
        grid.order.resize(sites.len(), 0);
        for (id, &c) in grid.cell_of.iter().enumerate() {
            let slot = cursor[c as usize];
            grid.order[slot as usize] = id as u32;
            grid.slot_of[id] = slot - grid.starts[c as usize];
            cursor[c as usize] += 1;
        }
        grid
    }

    /// The cell edge length, metres.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_size_m
    }

    /// Grid shape `(nx, ny)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Total number of cells (occupied or not).
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of indexed devices.
    pub fn device_count(&self) -> usize {
        self.cell_of.len()
    }

    /// The cell index of a coordinate (clamped to the grid).
    pub fn cell_at(&self, x: f64, y: f64) -> usize {
        let cx = (((x - self.min_x) / self.cell_size_m).floor() as usize).min(self.nx - 1);
        let cy = (((y - self.min_y) / self.cell_size_m).floor() as usize).min(self.ny - 1);
        cy * self.nx + cx
    }

    /// The cell holding device `id`.
    pub fn cell_of(&self, id: usize) -> usize {
        self.cell_of[id] as usize
    }

    /// The position of device `id` within the members of its own cell:
    /// `members(cell_of(id))[slot_of(id)] == id`.
    pub fn slot_of(&self, id: usize) -> usize {
        self.slot_of[id] as usize
    }

    /// Device ids of one cell, ascending.
    pub fn members(&self, cell: usize) -> &[u32] {
        let lo = self.starts[cell] as usize;
        let hi = self.starts[cell + 1] as usize;
        &self.order[lo..hi]
    }

    /// Centre coordinate of a cell.
    pub fn cell_center(&self, cell: usize) -> (f64, f64) {
        let cx = cell % self.nx;
        let cy = cell / self.nx;
        (
            self.min_x + (cx as f64 + 0.5) * self.cell_size_m,
            self.min_y + (cy as f64 + 0.5) * self.cell_size_m,
        )
    }

    /// Cells with at least one member, ascending cell index.
    pub fn occupied_cells(&self) -> Vec<usize> {
        (0..self.cell_count())
            .filter(|&c| self.starts[c + 1] > self.starts[c])
            .collect()
    }

    /// The cells of the `(2·ring+1)²` block centred on `cell`, clipped to
    /// the grid, in ascending cell index (row-major) order. `ring = 0`
    /// yields just the cell itself; `ring = 1` adds the boundary ring.
    pub fn neighborhood(&self, cell: usize, ring: usize) -> Vec<usize> {
        let cx = (cell % self.nx) as isize;
        let cy = (cell / self.nx) as isize;
        let r = ring as isize;
        let mut cells = Vec::with_capacity((2 * ring + 1) * (2 * ring + 1));
        for dy in -r..=r {
            let y = cy + dy;
            if y < 0 || y >= self.ny as isize {
                continue;
            }
            for dx in -r..=r {
                let x = cx + dx;
                if x < 0 || x >= self.nx as isize {
                    continue;
                }
                cells.push(y as usize * self.nx + x as usize);
            }
        }
        cells
    }

    /// Device ids in the boundary ring of `cell` (the `ring`-neighborhood
    /// *excluding* the cell itself), ascending id.
    pub fn ring_members(&self, cell: usize, ring: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .neighborhood(cell, ring)
            .into_iter()
            .filter(|&c| c != cell)
            .flat_map(|c| self.members(c).iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// Cell-indexed neighbor counting, byte-identical to the dense scan.
///
/// Counts, for every device, how many other devices lie within
/// `radius_m`, by scanning the 3×3 cell block around each device on a
/// grid whose cell edge is `max(radius_m, ε)`. Every pair within the
/// radius shares a block, and the distance predicate is evaluated with
/// the same expression as the dense double loop, so the counts are
/// *identical* — not approximately, exactly.
pub fn neighbor_counts(topology: &Topology, radius_m: f64) -> Vec<usize> {
    let sites = topology.devices();
    let n = sites.len();
    let mut counts = vec![0usize; n];
    if n == 0 {
        return counts;
    }
    let cell = if radius_m.is_finite() && radius_m > 0.0 {
        radius_m
    } else {
        // Degenerate radius: nothing is within a non-positive radius
        // except exact co-location, which any grid handles.
        1.0
    };
    let grid = CellGrid::build(topology, cell);
    for i in 0..n {
        let home = grid.cell_of(i);
        for c in grid.neighborhood(home, 1) {
            for &j in grid.members(c) {
                let j = j as usize;
                if j == i {
                    continue;
                }
                if sites[i].position.distance_to(&sites[j].position) <= radius_m {
                    counts[i] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::path_loss::LinkEnvironment;
    use lora_sim::{DeviceSite, Position, SimConfig};

    fn site(x: f64, y: f64) -> DeviceSite {
        DeviceSite {
            position: Position::new(x, y),
            environment: LinkEnvironment::LineOfSight,
        }
    }

    fn dense_counts(topology: &Topology, radius_m: f64) -> Vec<usize> {
        let sites = topology.devices();
        let n = sites.len();
        let mut counts = vec![0usize; n];
        for i in 0..n {
            for j in i + 1..n {
                if sites[i].position.distance_to(&sites[j].position) <= radius_m {
                    counts[i] += 1;
                    counts[j] += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn members_partition_the_population() {
        let config = SimConfig::default();
        let topo = Topology::disc(200, 1, 4_000.0, &config, 9);
        let grid = CellGrid::build(&topo, 700.0);
        let mut seen: Vec<u32> = (0..grid.cell_count())
            .flat_map(|c| grid.members(c).iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<u32>>());
        for c in 0..grid.cell_count() {
            let m = grid.members(c);
            assert!(m.windows(2).all(|w| w[0] < w[1]), "ascending ids per cell");
            for (slot, &id) in m.iter().enumerate() {
                assert_eq!(grid.cell_of(id as usize), c);
                assert_eq!(grid.slot_of(id as usize), slot);
            }
        }
    }

    #[test]
    fn neighborhood_is_clipped_and_sorted() {
        let sites: Vec<DeviceSite> = (0..9)
            .map(|i| site((i % 3) as f64 * 100.0, (i / 3) as f64 * 100.0))
            .collect();
        let topo = Topology::from_sites(sites, vec![Position::new(0.0, 0.0)], 1_000.0);
        let grid = CellGrid::build(&topo, 100.0);
        assert_eq!(grid.shape(), (3, 3));
        // Corner cell: 2×2 block.
        assert_eq!(grid.neighborhood(0, 1), vec![0, 1, 3, 4]);
        // Centre cell: all nine.
        assert_eq!(grid.neighborhood(4, 1), (0..9).collect::<Vec<usize>>());
        // Ring excludes the cell itself.
        assert_eq!(grid.ring_members(4, 1).len(), 8);
    }

    #[test]
    fn empty_topology_yields_empty_grid() {
        let topo = Topology::from_sites(Vec::new(), vec![Position::new(0.0, 0.0)], 1_000.0);
        let grid = CellGrid::build(&topo, 100.0);
        assert_eq!(grid.device_count(), 0);
        assert!(grid.occupied_cells().is_empty());
        assert!(neighbor_counts(&topo, 100.0).is_empty());
    }

    #[test]
    fn gridded_counts_match_dense_exactly() {
        let config = SimConfig::default();
        for seed in [1u64, 7, 23] {
            let topo = Topology::disc(300, 1, 5_000.0, &config, seed);
            for radius in [120.0, 500.0, 2_000.0, 20_000.0] {
                assert_eq!(
                    neighbor_counts(&topo, radius),
                    dense_counts(&topo, radius),
                    "seed {seed} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn colocated_devices_are_counted() {
        let sites = vec![site(10.0, 10.0), site(10.0, 10.0), site(10.0, 10.0)];
        let topo = Topology::from_sites(sites, vec![Position::new(0.0, 0.0)], 100.0);
        assert_eq!(neighbor_counts(&topo, 5.0), vec![2, 2, 2]);
    }

    #[test]
    fn max_edge_devices_fold_into_last_cell() {
        let sites = vec![site(0.0, 0.0), site(300.0, 300.0)];
        let topo = Topology::from_sites(sites, vec![Position::new(0.0, 0.0)], 1_000.0);
        let grid = CellGrid::build(&topo, 100.0);
        assert_eq!(grid.cell_of(1), grid.cell_count() - 1);
        let (cx, cy) = grid.cell_center(grid.cell_of(1));
        assert!(cx > 200.0 && cy > 200.0);
    }
}
