//! The SF blocks of the canonical candidate grid, walked by both
//! candidate scans ([`crate::greedy`]'s dense pass and
//! [`crate::incremental`]'s repair).
//!
//! The grid is ordered SF → channel → TP level, so each SF is one
//! contiguous block of `channels × n_tp` candidates, and position `p` of a
//! block is channel `p / n_tp` at TP level `p % n_tp` (a fixed-TP grid
//! has `n_tp = 1`). Two inputs of the scans' skip rules are constant over
//! parts of a block:
//!
//! * the untouched-groups cap ([`ModelState::untouched_groups_min`])
//!   depends on the candidate's group, not on its TP level, so
//!   [`SfBlocks::enter`] computes it once per channel of the block;
//! * the energy ceiling and the easiest-channel bound of the own-EE test
//!   depend on the SF and TP level, not on the channel, so
//!   [`ColumnVerdicts`] decides once per TP column whether both clear a
//!   scan's own-EE bar ([`ModelState::own_ee_may_clear`]).
//!
//! The acceptance rules stay in each scan's own loop.

use std::ops::Range;

use lora_model::{ModelState, ScanCache};
use lora_phy::{SpreadingFactor, TxConfig};

/// One device's walk over the SF blocks of a canonical candidate grid:
/// the bounds of each block, the untouched-groups cap of each channel of
/// the block entered last, each candidate's TP column, and the count of
/// the candidates a scan skips in bulk.
#[derive(Debug)]
pub(crate) struct SfBlocks<'g> {
    grid: &'g [TxConfig],
    /// TP levels per channel.
    n_tp: usize,
    /// Grid index of the scanned device's configuration, which scans skip
    /// without counting; `None` when it is not on the grid.
    current: Option<usize>,
    /// Grid index of the entered block's first candidate.
    start: usize,
    /// The untouched-groups cap of each channel of the entered block.
    caps: Vec<f64>,
}

impl<'g> SfBlocks<'g> {
    /// A walk over `grid`, canonical over `channels` channels, for the
    /// scan of a device configured as `current`.
    pub(crate) fn new(grid: &'g [TxConfig], channels: usize, current: TxConfig) -> Self {
        let block_len = grid.len() / SpreadingFactor::ALL.len();
        let n_tp = block_len / channels;
        debug_assert!(
            grid.len() == SpreadingFactor::ALL.len() * channels * n_tp
                && grid.iter().enumerate().all(|(idx, cfg)| {
                    cfg.sf.index() == idx / block_len && cfg.channel == idx % block_len / n_tp
                }),
            "the candidate grid is not in canonical order"
        );
        let column = current.sf.index() * block_len + current.channel * n_tp;
        let current = grid
            .get(column..column + n_tp)
            .and_then(|levels| levels.iter().position(|&cfg| cfg == current))
            .map(|level| column + level);
        SfBlocks {
            grid,
            n_tp,
            current,
            start: 0,
            caps: vec![f64::NAN; channels],
        }
    }

    /// TP levels per channel: the number of TP columns of a block.
    pub(crate) fn tp_levels(&self) -> usize {
        self.n_tp
    }

    /// Enters the SF block holding grid index `idx` and computes the cap
    /// of each of its channels from `cache`. Returns the block's
    /// candidates from `idx` on, clipped to `..end`, and the largest cap
    /// over the whole block.
    pub(crate) fn enter(
        &mut self,
        state: &ModelState<'_>,
        cache: &ScanCache,
        idx: usize,
        end: usize,
    ) -> (Range<usize>, f64) {
        let block_len = self.caps.len() * self.n_tp;
        self.start = idx - idx % block_len;
        let mut max_cap = f64::NEG_INFINITY;
        for (channel, cap) in self.caps.iter_mut().enumerate() {
            *cap = state.untouched_groups_min(cache, self.grid[self.start + channel * self.n_tp]);
            max_cap = max_cap.max(*cap);
        }
        (idx..end.min(self.start + block_len), max_cap)
    }

    /// The entered block's candidate on channel 0 at TP column `column`,
    /// which stands for the column's SF and TP level.
    pub(crate) fn column(&self, column: usize) -> TxConfig {
        self.grid[self.start + column]
    }

    /// The candidates of `range`, a part of the entered block, that a scan
    /// counts (all but the device's own configuration), each as its grid
    /// index, its channel's cap and its TP column.
    pub(crate) fn candidates(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, f64, usize)> + '_ {
        let pos = range.start - self.start;
        let (mut channel, mut column) = (pos / self.n_tp, pos % self.n_tp);
        range.filter_map(move |idx| {
            let candidate = (idx, self.caps[channel], column);
            column += 1;
            if column == self.n_tp {
                column = 0;
                channel += 1;
            }
            (Some(idx) != self.current).then_some(candidate)
        })
    }

    /// How many candidates of `range` a scan counts: all but the device's
    /// own configuration.
    pub(crate) fn count(&self, range: Range<usize>) -> u64 {
        let own = self.current.is_some_and(|idx| range.contains(&idx));
        (range.len() - usize::from(own)) as u64
    }
}

/// Per TP column of the entered SF block, whether the column's energy
/// ceiling and easiest-channel bound both clear a scan's own-EE bar,
/// decided on first ask. A verdict holds only for the block and the bar
/// it was decided at, so scans forget every verdict on entering a block
/// and whenever their bar moves.
#[derive(Debug)]
pub(crate) struct ColumnVerdicts(Vec<Option<bool>>);

impl ColumnVerdicts {
    /// No verdict yet for any of `columns` TP columns.
    pub(crate) fn new(columns: usize) -> Self {
        ColumnVerdicts(vec![None; columns])
    }

    /// Forgets every verdict.
    pub(crate) fn forget(&mut self) {
        self.0.fill(None);
    }

    /// Column `column`'s verdict, decided by `decide` on first ask.
    pub(crate) fn clears(&mut self, column: usize, decide: impl FnOnce() -> bool) -> bool {
        *self.0[column].get_or_insert_with(decide)
    }

    /// Whether every column fails, deciding the undecided ones with
    /// `decide` in column order until one clears.
    pub(crate) fn all_fail(&mut self, mut decide: impl FnMut(usize) -> bool) -> bool {
        (0..self.0.len()).all(|column| !self.clears(column, || decide(column)))
    }
}
