//! Exhaustive (optimal) allocation for tiny instances.
//!
//! The paper proves the allocation problem NP-complete (Section III-C) and
//! never reports how far its greedy lands from the optimum. For networks
//! small enough to enumerate, this module computes the *exact* max-min
//! optimum over a restricted candidate set, giving the test suite a ground
//! truth to measure [`crate::EfLora`] against: on the enumerable instances
//! we exercise, the greedy reaches ≥ 95 % of the optimal minimum EE.
//!
//! The search space is `(|SF|·|TP|·|CH|)^N` over a fixed 12-candidate
//! set, bounded by the hard cap [`ExhaustiveSearch::max_configurations`].

use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};

use crate::allocation::Allocation;
use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::strategy::Strategy;

/// Brute-force optimal allocator over a restricted candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveSearch {
    candidates: Vec<TxConfig>,
    max_configurations: u64,
}

impl ExhaustiveSearch {
    /// A default candidate set small enough for ~6 devices: SF ∈ {7, 9,
    /// 12}, TP ∈ {2, 14} dBm, channels {0, 1} — 12 candidates per device.
    pub fn new() -> Self {
        let mut candidates = Vec::new();
        for sf in [
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf9,
            SpreadingFactor::Sf12,
        ] {
            for tp in [2.0, 14.0] {
                for ch in 0..2 {
                    candidates.push(TxConfig::new(sf, TxPowerDbm::new(tp), ch));
                }
            }
        }
        ExhaustiveSearch {
            candidates,
            max_configurations: 20_000_000,
        }
    }

    /// The enumeration budget.
    pub fn max_configurations(&self) -> u64 {
        self.max_configurations
    }

    /// Number of configurations the deployment in `ctx` would require.
    pub fn configurations_for(&self, ctx: &AllocationContext<'_>) -> Option<u64> {
        let per_device = self.candidates.len() as u64;
        let mut total: u64 = 1;
        for _ in 0..ctx.device_count() {
            total = total.checked_mul(per_device)?;
        }
        Some(total)
    }
}

impl Default for ExhaustiveSearch {
    fn default() -> Self {
        ExhaustiveSearch::new()
    }
}

impl Strategy for ExhaustiveSearch {
    fn name(&self) -> &str {
        "Exhaustive-optimal"
    }

    /// Enumerates every allocation over the candidate set and returns the
    /// max-min-EE optimum.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidParameter`] if the space exceeds the budget
    /// (or overflows), plus the usual empty-deployment errors.
    fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError> {
        ctx.check_nonempty()?;
        let total = self
            .configurations_for(ctx)
            .ok_or(AllocError::InvalidParameter {
                reason: "search space overflows u64; restrict candidates or devices",
            })?;
        if total > self.max_configurations {
            return Err(AllocError::InvalidParameter {
                reason: "search space exceeds the enumeration budget",
            });
        }

        let n = ctx.device_count();
        let k = self.candidates.len();
        let mut indices = vec![0usize; n];
        let mut best_min = f64::NEG_INFINITY;
        let mut best: Vec<TxConfig> = indices.iter().map(|&i| self.candidates[i]).collect();
        let mut current: Vec<TxConfig> = best.clone();

        loop {
            let ee = ctx.model().evaluate(&current);
            let min = ee.iter().copied().fold(f64::INFINITY, f64::min);
            if min > best_min {
                best_min = min;
                best.copy_from_slice(&current);
            }
            // Odometer increment.
            let mut pos = 0;
            loop {
                if pos == n {
                    return Ok(Allocation::new(best));
                }
                indices[pos] += 1;
                if indices[pos] < k {
                    current[pos] = self.candidates[indices[pos]];
                    break;
                }
                indices[pos] = 0;
                current[pos] = self.candidates[0];
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::EfLora;
    use lora_model::NetworkModel;
    use lora_sim::{SimConfig, Topology};

    fn tiny(n: usize, seed: u64) -> (SimConfig, Topology) {
        let config = SimConfig::default();
        let topo = Topology::disc(n, 1, 3_000.0, &config, seed);
        (config, topo)
    }

    #[test]
    fn exhaustive_is_at_least_as_good_as_greedy() {
        for seed in [1, 5, 9] {
            let (config, topo) = tiny(4, seed);
            let model = NetworkModel::new(&config, &topo);
            let ctx = AllocationContext::new(&config, &topo, &model);
            let optimal = ExhaustiveSearch::new().allocate(&ctx).unwrap();
            let greedy = EfLora::default().allocate(&ctx).unwrap();
            let opt_min = ef_min(&model, &optimal);
            let greedy_min = ef_min(&model, &greedy);
            assert!(
                opt_min >= greedy_min - 1e-9,
                "seed {seed}: optimum {opt_min} below greedy {greedy_min}?"
            );
        }
    }

    #[test]
    fn greedy_reaches_most_of_the_optimum() {
        // The quality claim the paper leaves unquantified: across seeds,
        // the greedy lands within a few percent of the enumerated optimum.
        let mut worst_ratio: f64 = 1.0;
        for seed in [2, 3, 7, 11] {
            let (config, topo) = tiny(5, seed);
            let model = NetworkModel::new(&config, &topo);
            let ctx = AllocationContext::new(&config, &topo, &model);
            let optimal = ExhaustiveSearch::new().allocate(&ctx).unwrap();
            let greedy = EfLora::default().allocate(&ctx).unwrap();
            let opt_min = ef_min(&model, &optimal);
            // The greedy searches the *full* configuration space, so it may
            // legitimately exceed the restricted optimum; ratio > 1 is fine.
            let ratio = ef_min(&model, &greedy) / opt_min.max(1e-12);
            worst_ratio = worst_ratio.min(ratio);
        }
        assert!(
            worst_ratio >= 0.95,
            "greedy fell to {worst_ratio} of the enumerated optimum"
        );
    }

    fn ef_min(model: &NetworkModel, alloc: &Allocation) -> f64 {
        model
            .evaluate(alloc.as_slice())
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn budget_is_enforced() {
        let (config, topo) = tiny(12, 1);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        // 12^12 ≈ 8.9e12 ≫ the default budget.
        let err = ExhaustiveSearch::new().allocate(&ctx).unwrap_err();
        assert!(matches!(err, AllocError::InvalidParameter { .. }));
    }

    #[test]
    fn configuration_count() {
        let (config, topo) = tiny(3, 1);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        assert_eq!(
            ExhaustiveSearch::new().configurations_for(&ctx),
            Some(12u64.pow(3))
        );
    }
}
