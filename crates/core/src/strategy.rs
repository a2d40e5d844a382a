//! The allocation-strategy abstraction.

use crate::allocation::Allocation;
use crate::baselines::{AdrLora, EfLoraFixedTp, LegacyLora, RsLora};
use crate::context::AllocationContext;
use crate::error::AllocError;
use crate::greedy::EfLora;
use crate::spatial::SpatialEfLora;

/// An algorithm that assigns every device a (SF, TP, channel) triple.
///
/// The trait is object-safe so experiment harnesses can iterate over
/// `&[&dyn Strategy]` (C-OBJECT).
///
/// ```
/// use ef_lora::{AllocationContext, LegacyLora, RsLora, Strategy};
/// # use lora_model::NetworkModel;
/// # use lora_sim::{SimConfig, Topology};
/// # let config = SimConfig::default();
/// # let topo = Topology::disc(10, 1, 2_000.0, &config, 0);
/// # let model = NetworkModel::new(&config, &topo);
/// let ctx = AllocationContext::new(&config, &topo, &model);
/// let legacy = LegacyLora::default();
/// let rs = RsLora::default();
/// let strategies: [&dyn Strategy; 2] = [&legacy, &rs];
/// for s in strategies {
///     let alloc = s.allocate(&ctx).unwrap();
///     assert_eq!(alloc.len(), 10);
/// }
/// ```
pub trait Strategy {
    /// A short human-readable name (used in experiment output).
    fn name(&self) -> &str;

    /// Computes an allocation for the deployment in `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] for unallocatable deployments (no devices, no
    /// gateways) or invalid strategy parameters.
    fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError>;
}

/// Resolves an allocation strategy by its command-line name, as the
/// planner CLI and the daemon spell it.
///
/// # Errors
///
/// A message listing the valid names.
pub fn strategy_by_name(name: &str) -> Result<Box<dyn Strategy>, String> {
    match name {
        "ef-lora" => Ok(Box::new(EfLora::default())),
        "legacy" => Ok(Box::new(LegacyLora::default())),
        "rs-lora" => Ok(Box::new(RsLora::default())),
        "ef-lora-14dbm" => Ok(Box::new(EfLoraFixedTp::default())),
        "adr" => Ok(Box::new(AdrLora::default())),
        "ef-lora-spatial" => Ok(Box::new(SpatialEfLora::default().with_threads(0))),
        other => Err(format!(
            "unknown strategy `{other}` (expected ef-lora, legacy, rs-lora, ef-lora-14dbm, adr \
             or ef-lora-spatial)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;

    impl Strategy for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }

        fn allocate(&self, ctx: &AllocationContext<'_>) -> Result<Allocation, AllocError> {
            ctx.check_nonempty()?;
            Ok(Allocation::new(vec![
                Default::default();
                ctx.device_count()
            ]))
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let s: &dyn Strategy = &Fixed;
        assert_eq!(s.name(), "fixed");
    }

    #[test]
    fn strategies_resolve() {
        for name in [
            "ef-lora",
            "legacy",
            "rs-lora",
            "ef-lora-14dbm",
            "adr",
            "ef-lora-spatial",
        ] {
            assert!(strategy_by_name(name).is_ok(), "{name}");
        }
        assert!(strategy_by_name("explora").is_err());
    }
}
