//! Shared input to allocation strategies.

use lora_model::NetworkModel;
use lora_phy::{SpreadingFactor, TxConfig, TxPowerDbm};
use lora_sim::{SimConfig, Topology};

use crate::error::AllocError;

/// Everything an allocation strategy may consult: the deployment, the
/// physical configuration and the analytical model built from them.
///
/// Bundling the three keeps strategies from being called with a model that
/// does not match the topology (see [`AllocationContext::new`]).
#[derive(Debug)]
pub struct AllocationContext<'a> {
    config: &'a SimConfig,
    topology: &'a Topology,
    model: &'a NetworkModel,
    tp_levels: Vec<TxPowerDbm>,
    /// The canonical candidate grid — every (SF, channel, TP) in scan
    /// order (SF ascending, then channel, then TP ascending). Built once
    /// per context: the grid depends only on the region's channel plan
    /// and power levels, yet was previously re-materialised per device
    /// scan on the churn hot path.
    candidates: Vec<TxConfig>,
}

impl<'a> AllocationContext<'a> {
    /// Creates a context.
    ///
    /// # Panics
    ///
    /// Panics if `model` was not built for `topology` (device/gateway
    /// counts differ) — that is a programming error, not an input error.
    pub fn new(config: &'a SimConfig, topology: &'a Topology, model: &'a NetworkModel) -> Self {
        assert_eq!(
            model.device_count(),
            topology.device_count(),
            "model/topology device counts differ"
        );
        assert_eq!(
            model.gateway_count(),
            topology.gateway_count(),
            "model/topology gateway counts differ"
        );
        let tp_levels = config.region.tx_power_levels();
        let candidates = candidate_grid(model.channel_count(), &tp_levels);
        AllocationContext {
            config,
            topology,
            model,
            tp_levels,
            candidates,
        }
    }

    /// The physical configuration.
    pub fn config(&self) -> &SimConfig {
        self.config
    }

    /// The deployment.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The analytical model.
    pub fn model(&self) -> &NetworkModel {
        self.model
    }

    /// The allocatable transmission-power levels, lowest first.
    pub fn tp_levels(&self) -> &[TxPowerDbm] {
        &self.tp_levels
    }

    /// The maximum allocatable transmission power.
    pub fn max_tp(&self) -> TxPowerDbm {
        *self
            .tp_levels
            .last()
            .expect("regions define at least one TP level")
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.topology.device_count()
    }

    /// Number of uplink channels.
    pub fn channel_count(&self) -> usize {
        self.model.channel_count()
    }

    /// Size of one device's candidate grid: every (SF, channel, TP)
    /// combination a scan pass evaluates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// The cached candidate grid in canonical scan order (SF ascending,
    /// then channel, then TP ascending). Scans filter out the device's
    /// current configuration themselves.
    pub fn candidates(&self) -> &[TxConfig] {
        &self.candidates
    }

    /// Validates that the deployment is allocatable at all.
    ///
    /// # Errors
    ///
    /// [`AllocError::EmptyDeployment`] without devices,
    /// [`AllocError::NoGateways`] without gateways.
    pub fn check_nonempty(&self) -> Result<(), AllocError> {
        check_nonempty(self.model)
    }
}

/// [`AllocationContext::check_nonempty`] for the deployment `model`
/// describes.
pub(crate) fn check_nonempty(model: &NetworkModel) -> Result<(), AllocError> {
    if model.device_count() == 0 {
        return Err(AllocError::EmptyDeployment);
    }
    if model.gateway_count() == 0 {
        return Err(AllocError::NoGateways);
    }
    Ok(())
}

/// The canonical candidate grid over `channels` channels and `tp_levels`:
/// SF ascending, then channel, then TP in `tp_levels`' order.
/// Tie-breaking is defined over this order; scans skip the device's
/// current configuration themselves. A caller that keeps a model state
/// alive without a context (the serve daemon) builds its grid here once.
pub fn candidate_grid(channels: usize, tp_levels: &[TxPowerDbm]) -> Vec<TxConfig> {
    let mut grid = Vec::with_capacity(SpreadingFactor::ALL.len() * channels * tp_levels.len());
    for sf in SpreadingFactor::ALL {
        for channel in 0..channels {
            for &tp in tp_levels {
                grid.push(TxConfig::new(sf, tp, channel));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_exposes_levels() {
        let config = SimConfig::default();
        let topo = Topology::disc(5, 1, 1_000.0, &config, 0);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        assert_eq!(ctx.tp_levels().len(), 7);
        assert_eq!(ctx.max_tp().dbm(), 14.0);
        assert_eq!(ctx.device_count(), 5);
        assert_eq!(ctx.channel_count(), 8);
        assert_eq!(ctx.candidate_count(), 6 * 8 * 7);
        assert!(ctx.check_nonempty().is_ok());
    }

    #[test]
    fn empty_deployment_is_rejected() {
        let config = SimConfig::default();
        let topo = Topology::disc(0, 1, 1_000.0, &config, 0);
        let model = NetworkModel::new(&config, &topo);
        let ctx = AllocationContext::new(&config, &topo, &model);
        assert_eq!(ctx.check_nonempty(), Err(AllocError::EmptyDeployment));
    }

    #[test]
    #[should_panic(expected = "device counts differ")]
    fn mismatched_model_panics() {
        let config = SimConfig::default();
        let topo_a = Topology::disc(5, 1, 1_000.0, &config, 0);
        let topo_b = Topology::disc(6, 1, 1_000.0, &config, 0);
        let model = NetworkModel::new(&config, &topo_a);
        let _ = AllocationContext::new(&config, &topo_b, &model);
    }
}
