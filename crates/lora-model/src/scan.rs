//! The per-device candidate scan of Algorithm 1 (paper Section III-C):
//! one walk over a canonical candidate grid that applies the scan's exact
//! skip rules, shared by every allocator. An allocator supplies only its
//! acceptance rule, as a [`Rule`].
//!
//! ## The walk
//!
//! [`ModelState::prepare_scan`] computes the candidate-independent parts
//! of one device's scan once and returns a [`Scan`] that borrows the
//! state, so the state cannot change while the scan is in use.
//! [`Scan::walk`] then visits a range of the grid. Each candidate that
//! survives the skip rules is scored by its predicted network minimum
//! `min` and the mover's own EE `own`, bit for bit what
//! [`ModelState::min_ee_if`] and [`ModelState::ee_if`] return, and
//! offered to the rule ([`Rule::offer`]).
//!
//! The exact evaluation runs behind the rule's floor ([`Rule::floor`]): it
//! abandons a candidate as soon as one component EE falls to it. Most
//! candidates never reach it, because upper bounds that never fall below
//! the exact values prove they cannot change the rule's result:
//!
//! * the **untouched-groups cap** `cap`, the smallest cached group minimum
//!   over the groups the move leaves untouched, is one of the min
//!   components of the exact evaluation, so `min ≤ cap`. The rule triages
//!   each candidate by its cap ([`Rule::triage`]);
//! * an [`Triage::OwnBar`] candidate counts only if its `own` passes the
//!   rule's bar ([`Rule::clears`]), which three values test, cheapest
//!   first: the **energy ceiling** (the delivery ratio never exceeds 1, so
//!   the delivered bits over the cycle energy cap the EE); the **own EE at
//!   the easiest contention** any channel of the candidate's SF offers,
//!   which caps `own` on every channel of that SF because the delivery
//!   ratio never rises with the contention (Eq. 10, both `PdrForm`s); and
//!   only then the exact `own`. A per-walk table computes each bound, with
//!   the power and cycle energy the bounds and the exact value share, at
//!   most once per (SF, TP level).
//!
//! Skipped candidates still count as examined. The scanned device's own
//! configuration is neither counted nor scored.
//!
//! ## Blocks and columns
//!
//! The grid is ordered SF → channel → TP level, so each SF is one
//! contiguous block of `channels × n_tp` candidates, and position `p` of a
//! block is channel `p / n_tp` at TP level `p % n_tp` (a fixed-TP grid has
//! `n_tp = 1`). The skip rules are decided per block and per (SF, TP)
//! column rather than per candidate:
//!
//! * the cap depends on the candidate's group, not on its TP level, so it
//!   is computed once per channel on entering a block;
//! * the energy ceiling and the easiest-contention bound depend on the SF
//!   and TP level, not on the channel, so whether both fail the rule's bar
//!   is one verdict per TP column, decided the first time a candidate of
//!   the column needs it. A candidate whose column fails is skipped
//!   without computing its exact `own`.
//!
//! A verdict holds only for the block and the bar it was decided at, so
//! the walk forgets every verdict on entering a block and whenever the
//! rule takes an offer. A whole block is counted and skipped when the
//! triage of its largest cap is [`Triage::Skip`], or [`Triage::OwnBar`]
//! with every column failing: by the [`Rule`] contract, the per-candidate
//! rules would then skip every candidate of the block.
//!
//! A walk over a range that starts or ends inside a block decides the
//! block rules on the whole block, every channel's cap and every column's
//! verdict, but counts and scans only its own share. The whole block's
//! caps and verdicts are a stricter condition than its share's, so when
//! they skip the block, the per-candidate rules would skip every candidate
//! of the share too, and where a range's boundaries fall changes no rule's
//! result.

use std::borrow::Borrow;
use std::ops::Range;

use lora_phy::{SpreadingFactor, TxConfig};

use crate::model::{Bound, ModelState, NetworkModel, OwnEeBounds, ScanCache};

/// What a [`Rule`] needs of a candidate whose untouched-groups cap it has
/// seen, in increasing order of the work the walk then does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Triage {
    /// Nothing: no candidate whose network minimum is at most the cap can
    /// be taken. The walk counts it and moves on.
    Skip,
    /// Only a candidate whose own EE passes [`Rule::clears`] can be taken.
    OwnBar,
    /// The exact evaluation, whatever the candidate's own EE.
    Exact,
}

/// A scored candidate: its predicted network minimum, the mover's own EE,
/// its index in the grid, and the configuration itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The network minimum EE after the move, bits/mJ.
    pub min: f64,
    /// The moved device's own EE after the move, bits/mJ.
    pub own: f64,
    /// The candidate's index in the walked grid.
    pub idx: usize,
    /// The candidate configuration.
    pub cfg: TxConfig,
}

/// An acceptance rule, which [`Scan::walk`] offers every candidate it
/// cannot prove the rule would refuse.
///
/// The walk's block and column skips are exact only under this contract:
///
/// * [`Rule::triage`] never falls as `cap` rises, in the order
///   [`Triage::Skip`] `<` [`Triage::OwnBar`] `<` [`Triage::Exact`];
/// * [`Rule::clears`] can only turn true as its argument rises;
/// * [`Rule::floor`], [`Rule::triage`] and [`Rule::clears`] change only
///   when [`Rule::offer`] returns true.
///
/// The first two let a block's largest cap and a column's upper bounds
/// stand for every candidate under them; the third lets a verdict stand
/// until the walk forgets it.
pub trait Rule {
    /// The pruning floor: the walk scores only candidates whose network
    /// minimum exceeds it, so the rule must refuse every other one.
    fn floor(&self) -> f64;

    /// What the rule needs of a candidate whose network minimum cannot
    /// exceed `cap`.
    fn triage(&self, cap: f64) -> Triage;

    /// Whether an [`Triage::OwnBar`] candidate with own EE `own` can be
    /// taken.
    fn clears(&self, own: f64) -> bool;

    /// Offers a scored candidate; returns whether the rule took it.
    fn offer(&mut self, candidate: Candidate) -> bool;
}

/// One device's candidate scan, prepared by [`ModelState::prepare_scan`].
///
/// A scan borrows the state it was prepared from, so the state cannot
/// move or refresh while the scan is alive:
///
/// ```compile_fail
/// # use lora_model::NetworkModel;
/// # use lora_phy::TxConfig;
/// # use lora_sim::{SimConfig, Topology};
/// # let config = SimConfig::default();
/// # let topology = Topology::disc(10, 1, 3_000.0, &config, 1);
/// # let model = NetworkModel::new(&config, &topology);
/// let mut state = model.state(vec![TxConfig::default(); 10]).unwrap();
/// let scan = state.prepare_scan(3);
/// state.apply(5, TxConfig::default()); // `state` is borrowed by `scan`
/// drop(scan);
/// ```
///
/// A scan is `Sync`: workers may walk disjoint ranges of one grid at once.
#[derive(Debug)]
pub struct Scan<'s> {
    model: &'s NetworkModel,
    state: &'s Bound,
    cache: ScanCache,
}

impl<M: Borrow<NetworkModel>> ModelState<M> {
    /// Prepares the candidate scan of device `i` against the current
    /// allocation: the minimum EE of `i`'s old group after it leaves, the
    /// two smallest cached group minima, and per SF the easiest contention
    /// any channel offers.
    pub fn prepare_scan(&self, i: usize) -> Scan<'_> {
        let model = self.model();
        Scan {
            model,
            state: &self.bound,
            cache: self.bound.scan_cache(model, i),
        }
    }
}

impl Scan<'_> {
    /// Walks `grid[range]` (see the module docs), offering `rule` every
    /// candidate the skip rules cannot rule out, and returns how many
    /// candidates of the range it examined: all but the scanned device's
    /// own configuration. `grid` must be in canonical order (SF, then
    /// channel, then TP level) over the model's channels, with the same
    /// TP levels on every channel.
    pub fn walk<R: Rule>(&self, grid: &[TxConfig], range: Range<usize>, rule: &mut R) -> u64 {
        let (model, state) = (self.model, self.state);
        let cache = &self.cache;
        let current = state.alloc()[cache.device];
        let mut own_bounds = OwnEeBounds::new(cache);
        let mut blocks = SfBlocks::new(grid, model.channel_count(), current);
        let mut verdicts = ColumnVerdicts::new(blocks.tp_levels());
        let mut examined = 0;
        let mut next = range.start;
        while next < range.end {
            let (block, max_cap) = blocks.enter(model, state, cache, next, range.end);
            next = block.end;
            verdicts.forget();
            let skip_block = match rule.triage(max_cap) {
                Triage::Skip => true,
                Triage::OwnBar => verdicts.all_fail(|column| {
                    state.own_ee_may_clear(model, &mut own_bounds, blocks.column(column), |own| {
                        rule.clears(own)
                    })
                }),
                Triage::Exact => false,
            };
            if skip_block {
                examined += blocks.count(block);
                continue;
            }
            for (idx, cap, column) in blocks.candidates(block) {
                examined += 1;
                let cfg = grid[idx];
                let own = match rule.triage(cap) {
                    Triage::Skip => continue,
                    Triage::OwnBar => {
                        let clears = |own| rule.clears(own);
                        if !verdicts.clears(column, || {
                            state.own_ee_may_clear(model, &mut own_bounds, cfg, clears)
                        }) {
                            continue;
                        }
                        let Some(own) = state.own_ee_clearing(model, &mut own_bounds, cfg, clears)
                        else {
                            continue;
                        };
                        own
                    }
                    Triage::Exact => state.own_ee(model, &mut own_bounds, cfg),
                };
                let Some(min) = state.min_ee_if_scanned(model, cache, cfg, own, rule.floor())
                else {
                    continue;
                };
                if rule.offer(Candidate {
                    min,
                    own: own.ee,
                    idx,
                    cfg,
                }) {
                    verdicts.forget();
                }
            }
        }
        examined
    }
}

/// One device's walk over the SF blocks of a canonical candidate grid:
/// the bounds of each block, the untouched-groups cap of each channel of
/// the block entered last, each candidate's TP column, and the count of
/// the candidates a walk skips in bulk.
#[derive(Debug)]
struct SfBlocks<'g> {
    grid: &'g [TxConfig],
    /// TP levels per channel.
    n_tp: usize,
    /// Grid index of the scanned device's configuration, which walks skip
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
    fn new(grid: &'g [TxConfig], channels: usize, current: TxConfig) -> Self {
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
    fn tp_levels(&self) -> usize {
        self.n_tp
    }

    /// Enters the SF block holding grid index `idx` and computes the cap
    /// of each of its channels from `cache`. Returns the block's
    /// candidates from `idx` on, clipped to `..end`, and the largest cap
    /// over the whole block.
    fn enter(
        &mut self,
        model: &NetworkModel,
        state: &Bound,
        cache: &ScanCache,
        idx: usize,
        end: usize,
    ) -> (Range<usize>, f64) {
        let block_len = self.caps.len() * self.n_tp;
        self.start = idx - idx % block_len;
        let mut max_cap = f64::NEG_INFINITY;
        for (channel, cap) in self.caps.iter_mut().enumerate() {
            *cap = state.untouched_groups_min(
                model,
                cache,
                self.grid[self.start + channel * self.n_tp],
            );
            max_cap = max_cap.max(*cap);
        }
        (idx..end.min(self.start + block_len), max_cap)
    }

    /// The entered block's candidate on channel 0 at TP column `column`,
    /// which stands for the column's SF and TP level.
    fn column(&self, column: usize) -> TxConfig {
        self.grid[self.start + column]
    }

    /// The candidates of `range`, a part of the entered block, that a walk
    /// counts (all but the device's own configuration), each as its grid
    /// index, its channel's cap and its TP column.
    fn candidates(&self, range: Range<usize>) -> impl Iterator<Item = (usize, f64, usize)> + '_ {
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

    /// How many candidates of `range` a walk counts: all but the device's
    /// own configuration.
    fn count(&self, range: Range<usize>) -> u64 {
        let own = self.current.is_some_and(|idx| range.contains(&idx));
        (range.len() - usize::from(own)) as u64
    }
}

/// Per TP column of the entered SF block, whether the column's energy
/// ceiling and easiest-contention bound both clear a rule's own-EE bar,
/// decided on first ask. A verdict holds only for the block and the bar
/// it was decided at, so walks forget every verdict on entering a block
/// and whenever the bar may move.
#[derive(Debug)]
struct ColumnVerdicts(Vec<Option<bool>>);

impl ColumnVerdicts {
    /// No verdict yet for any of `columns` TP columns.
    fn new(columns: usize) -> Self {
        ColumnVerdicts(vec![None; columns])
    }

    /// Forgets every verdict.
    fn forget(&mut self) {
        self.0.fill(None);
    }

    /// Column `column`'s verdict, decided by `decide` on first ask.
    fn clears(&mut self, column: usize, decide: impl FnOnce() -> bool) -> bool {
        *self.0[column].get_or_insert_with(decide)
    }

    /// Whether every column fails, deciding the undecided ones with
    /// `decide` in column order until one clears.
    fn all_fail(&mut self, mut decide: impl FnMut(usize) -> bool) -> bool {
        (0..self.0.len()).all(|column| !self.clears(column, || decide(column)))
    }
}
