//! The simulation orchestrator.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use lora_mac::DemodulatorBank;
use lora_phy::link::noise_floor_dbm;
use lora_phy::toa::ToaParams;
use lora_phy::{dbm_to_mw, Bandwidth, TxConfig};

use crate::config::{GatewayOutage, SimConfig};
use crate::error::SimError;
use crate::event::{Event, EventQueue};
use crate::faults::{self, JamBurst};
use crate::medium::{ActiveTx, Medium};
use crate::report::{DeviceStats, GatewayStats, SimReport};
use crate::topology::{AttenuationMatrix, Topology};
use crate::trace::{NullSink, ReceptionOutcome, TraceEvent, TraceSink};

/// A fully specified simulation: configuration, deployment and the
/// per-device resource allocation under test.
///
/// Construction validates the inputs; [`Simulation::run`] then executes the
/// discrete-event loop and returns a [`SimReport`]. Running the same
/// simulation twice produces identical reports.
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    topology: Topology,
    alloc: Vec<TxConfig>,
    /// Time-on-air per device, seconds.
    toa_s: Vec<f64>,
    /// Effective reporting interval per device, seconds (resolves the
    /// traffic model and any per-device overrides).
    intervals_s: Vec<f64>,
    /// Linear path-loss attenuation `[device][gateway]` (mean channel).
    attenuation: AttenuationMatrix,
    /// Sensitivity per device in mW (depends on its SF).
    sensitivity_mw: Vec<f64>,
    /// SNR demodulation threshold per device, dB.
    snr_threshold_db: Vec<f64>,
    /// Receiver noise floor, mW.
    noise_mw: f64,
    /// Time-on-air of a downlink acknowledgement at each device's SF
    /// (confirmed traffic; an empty data-down frame of 12 bytes).
    ack_toa_s: Vec<f64>,
    /// All outage windows in effect: the hand-placed ones from the config
    /// plus the windows compiled from churn processes.
    outage_windows: Vec<GatewayOutage>,
    /// All jammer bursts in effect: hand-placed plus compiled.
    jam_bursts: Vec<JamBurst>,
    /// Backhaul drop probability per gateway (`0.0` = lossless).
    backhaul_drop_prob: Vec<f64>,
    /// Backhaul forwarding latency per gateway, seconds.
    backhaul_latency_s: Vec<f64>,
}

impl Simulation {
    /// Builds a simulation.
    ///
    /// # Errors
    ///
    /// * [`SimError::AllocationLengthMismatch`] if `alloc` does not have one
    ///   entry per device;
    /// * [`SimError::ChannelOutOfRange`] if an entry names a channel outside
    ///   the regional plan;
    /// * [`SimError::InvalidConfig`] for non-positive durations/intervals, a
    ///   gateway without demodulator paths or an over-size payload.
    pub fn new(
        config: SimConfig,
        topology: Topology,
        alloc: Vec<TxConfig>,
    ) -> Result<Self, SimError> {
        let attenuation = crate::topology::attenuation_matrix(&config, &topology);
        Self::with_attenuation(config, topology, alloc, attenuation)
    }

    /// [`Simulation::new`] with a precomputed attenuation matrix.
    ///
    /// [`attenuation_matrix`](crate::topology::attenuation_matrix) is a
    /// pure function of `(config, topology)`, so a caller that already
    /// built it — the analytical model, or a replication harness running
    /// many repetitions over one deployment — can hand it over and skip
    /// the O(devices × gateways) `powf` rebuild. Passing the matrix the
    /// model computed for the same deployment yields a byte-identical
    /// simulation.
    ///
    /// # Errors
    ///
    /// Everything [`Simulation::new`] rejects, plus
    /// [`SimError::InvalidConfig`] when the matrix shape does not match
    /// the deployment.
    pub fn with_attenuation(
        config: SimConfig,
        topology: Topology,
        alloc: Vec<TxConfig>,
        attenuation: AttenuationMatrix,
    ) -> Result<Self, SimError> {
        if attenuation.device_count() != topology.device_count()
            || attenuation.gateway_count() != topology.gateway_count()
        {
            return Err(SimError::InvalidConfig {
                reason: "attenuation matrix shape does not match the deployment",
            });
        }
        if alloc.len() != topology.device_count() {
            return Err(SimError::AllocationLengthMismatch {
                devices: topology.device_count(),
                allocation: alloc.len(),
            });
        }
        if !(config.duration_s.is_finite() && config.duration_s > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: "duration must be positive",
            });
        }
        if !(config.report_interval_s.is_finite() && config.report_interval_s > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: "report interval must be positive",
            });
        }
        if config.demod_capacity == 0 {
            return Err(SimError::InvalidConfig {
                reason: "a gateway needs at least one demodulator path",
            });
        }
        if let Some(intervals) = &config.per_device_intervals_s {
            if intervals.len() != topology.device_count() {
                return Err(SimError::InvalidConfig {
                    reason: "per-device intervals must have one entry per device",
                });
            }
            if intervals.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                return Err(SimError::InvalidConfig {
                    reason: "per-device intervals must be positive",
                });
            }
        }
        let plan_len = config.region.uplink_channel_count();
        for (device, cfg) in alloc.iter().enumerate() {
            if cfg.channel >= plan_len {
                return Err(SimError::ChannelOutOfRange {
                    device,
                    channel: cfg.channel,
                    plan_len,
                });
            }
        }

        if let crate::config::Traffic::DutyCycleTarget { duty } = config.traffic {
            if !(duty.is_finite() && duty > 0.0 && duty <= 1.0) {
                return Err(SimError::InvalidConfig {
                    reason: "duty-cycle target must be in (0, 1]",
                });
            }
        }
        if let Some(conf) = &config.confirmed {
            if conf.class_a.validate().is_err() || conf.max_attempts == 0 {
                return Err(SimError::InvalidConfig {
                    reason: "confirmed-traffic parameters are invalid",
                });
            }
        }

        // Fault injection: validate against the actual deployment shape
        // (the builder cannot know gateway/channel counts), then compile
        // every stochastic process into static windows. The compilation
        // RNG streams are derived from `seed ^ salt`, so the traffic RNG
        // stream is untouched and a fault-free config behaves exactly as
        // if the fault engine did not exist.
        let n_gateways = topology.gateway_count();
        for (i, o) in config.outages.iter().enumerate() {
            faults::validate_window(o.from_s, o.to_s, &format!("outages[{i}]"))?;
            if o.gateway >= n_gateways {
                return Err(SimError::InvalidFault {
                    reason: format!(
                        "outages[{i}]: gateway {} out of range (deployment has {n_gateways})",
                        o.gateway
                    ),
                });
            }
        }
        let mut outage_windows = config.outages.clone();
        let mut jam_bursts = Vec::new();
        let mut backhaul_drop_prob = vec![0.0; n_gateways];
        let mut backhaul_latency_s = vec![0.0; n_gateways];
        if let Some(fault_cfg) = &config.faults {
            fault_cfg.validate(n_gateways, plan_len)?;
            let (churn_windows, bursts) = fault_cfg.compile(config.seed, config.duration_s);
            outage_windows.extend(churn_windows);
            jam_bursts = bursts;
            for link in &fault_cfg.backhaul {
                backhaul_drop_prob[link.gateway] = link.drop_prob;
                backhaul_latency_s[link.gateway] = link.latency_s;
            }
        }

        let bw = Bandwidth::Bw125;
        let payload = config.phy_payload_len();
        // Time-on-air is a pure function of (SF, BW, CR, payload): compute
        // each of the six SF values once — for the uplink payload and the
        // fixed 12-byte ack — and index per device, instead of re-running
        // the Eq. 4 arithmetic 2·N times. Bit-identical to the uncached
        // path (each entry *is* its result).
        let mut toa_by_sf = [0.0f64; 6];
        let mut ack_by_sf = [0.0f64; 6];
        for sf in lora_phy::SpreadingFactor::ALL {
            let params = ToaParams::new(sf, bw, config.coding_rate);
            toa_by_sf[sf.index()] =
                params
                    .time_on_air_s(payload)
                    .map_err(|_| SimError::InvalidConfig {
                        reason: "payload exceeds LoRa maximum",
                    })?;
            ack_by_sf[sf.index()] = params
                .time_on_air_s(12)
                .expect("fixed 12-byte ack payload is valid");
        }
        let toa_s: Vec<f64> = alloc.iter().map(|cfg| toa_by_sf[cfg.sf.index()]).collect();
        let ack_toa_s: Vec<f64> = alloc.iter().map(|cfg| ack_by_sf[cfg.sf.index()]).collect();
        let intervals_s: Vec<f64> = match config.traffic {
            crate::config::Traffic::Periodic => {
                (0..alloc.len()).map(|i| config.interval_of(i)).collect()
            }
            crate::config::Traffic::DutyCycleTarget { duty } => {
                toa_s.iter().map(|t| t / duty).collect()
            }
        };

        let sensitivity_mw = alloc
            .iter()
            .map(|cfg| dbm_to_mw(cfg.sf.sensitivity_dbm(bw, config.noise_figure_db)))
            .collect();
        let snr_threshold_db = alloc.iter().map(|cfg| cfg.sf.snr_threshold_db()).collect();
        let noise_mw = dbm_to_mw(noise_floor_dbm(bw, config.noise_figure_db));

        Ok(Simulation {
            config,
            topology,
            alloc,
            toa_s,
            intervals_s,
            attenuation,
            sensitivity_mw,
            snr_threshold_db,
            noise_mw,
            ack_toa_s,
            outage_windows,
            jam_bursts,
            backhaul_drop_prob,
            backhaul_latency_s,
        })
    }

    /// Every outage window in effect: hand-placed plus compiled from
    /// churn processes. Sorted by process, not by time.
    pub fn outage_windows(&self) -> &[GatewayOutage] {
        &self.outage_windows
    }

    /// Every jammer burst in effect: hand-placed plus compiled.
    pub fn jam_bursts(&self) -> &[JamBurst] {
        &self.jam_bursts
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The deployment under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The allocation under simulation.
    pub fn allocation(&self) -> &[TxConfig] {
        &self.alloc
    }

    /// Time-on-air of device `i`'s frames, seconds.
    pub fn time_on_air_s(&self, device: usize) -> f64 {
        self.toa_s[device]
    }

    /// Effective reporting interval of device `i`, seconds.
    pub fn interval_s(&self, device: usize) -> f64 {
        self.intervals_s[device]
    }

    /// Runs the discrete-event loop to completion.
    pub fn run(&self) -> SimReport {
        self.run_with_trace(&mut NullSink)
    }

    /// Runs the discrete-event loop, feeding every transmission and
    /// reception decision to `sink` (see [`crate::trace`]). The default
    /// [`Simulation::run`] uses a [`NullSink`], which compiles away.
    pub fn run_with_trace<S: TraceSink>(&self, sink: &mut S) -> SimReport {
        let n_dev = self.topology.device_count();
        let n_gw = self.topology.gateway_count();
        let duration = self.config.duration_s;

        let mut rng = ChaCha12Rng::seed_from_u64(self.config.seed);
        let mut queue = EventQueue::new();
        let mut medium = Medium::new(self.config.inter_sf, n_gw);
        let mut banks: Vec<DemodulatorBank> = (0..n_gw)
            .map(|_| DemodulatorBank::with_capacity(self.config.demod_capacity))
            .collect();
        let mut gw_stats = vec![GatewayStats::default(); n_gw];
        // Network-server de-duplication: the last frame counter delivered
        // per device (`u32::MAX` before the first) and two network totals.
        let mut last_delivered = vec![u32::MAX; n_dev];
        let mut frames_delivered = 0u64;
        let mut duplicate_copies = 0u64;

        let mut attempts = vec![0u32; n_dev];
        let mut delivered = vec![0u32; n_dev];
        let mut energy_j = vec![0.0f64; n_dev];
        let mut airtime_s = vec![0.0f64; n_dev];
        // Confirmed-traffic retransmission state: the cycle currently in
        // flight, how many attempts it has consumed, and when the next
        // cycle begins (retries must finish inside their own cycle).
        let mut current_seq = vec![u32::MAX; n_dev];
        let mut cycle_attempts = vec![0u8; n_dev];
        let mut next_cycle_start = vec![f64::INFINITY; n_dev];
        // Half-duplex gateways: windows during which each gateway is
        // transmitting a downlink acknowledgement and cannot receive.
        let mut ack_windows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_gw];
        // Each in-flight transmission carries three per-gateway buffers;
        // recycling them through this free list (plus one shared
        // `decoded_by` scratch row) keeps the steady-state event loop
        // allocation-free. Pool depth is bounded by the peak number of
        // concurrent transmissions.
        let mut buffer_pool: Vec<(Vec<f64>, Vec<f64>, Vec<bool>)> = Vec::new();
        let mut decoded_by = vec![false; n_gw];

        // Random per-device phase in [0, T_g,i): unslotted ALOHA.
        for device in 0..n_dev {
            let phase = rng.gen::<f64>() * self.intervals_s[device];
            if phase < duration {
                queue.push(phase, Event::TxStart { device, seq: 0 });
            }
        }

        while let Some((now, event)) = queue.pop() {
            match event {
                Event::TxStart { device, seq } => {
                    let cfg = &self.alloc[device];
                    let toa = self.toa_s[device];
                    let t_g = self.intervals_s[device];
                    let new_cycle = current_seq[device] != seq;
                    if new_cycle {
                        current_seq[device] = seq;
                        cycle_attempts[device] = 0;
                    }
                    cycle_attempts[device] = cycle_attempts[device].saturating_add(1);
                    attempts[device] += 1;
                    airtime_s[device] += toa;
                    // Active energy only; sleep is charged once at the end
                    // of the run over the device's total idle time.
                    energy_j[device] += self.config.energy.overhead_energy_j()
                        + self.config.energy.tx_energy_j(cfg.tp, toa);
                    if let Some(conf) = self.config.confirmed {
                        // Class-A devices open RX1/RX2 after every uplink.
                        energy_j[device] += conf.class_a.listening_energy_j();
                    }

                    sink.record(TraceEvent::TxStart {
                        t: now,
                        device,
                        seq,
                        sf: cfg.sf,
                        channel: cfg.channel,
                    });
                    let tp_mw = cfg.tp.milliwatts();
                    let (mut rx_power_mw, mut interference_mw, mut demod_locked) =
                        buffer_pool.pop().unwrap_or_default();
                    rx_power_mw.clear();
                    rx_power_mw.reserve(n_gw);
                    demod_locked.clear();
                    demod_locked.reserve(n_gw);
                    interference_mw.clear();
                    interference_mw.resize(n_gw, 0.0);
                    for gw in 0..n_gw {
                        let gain = self.config.fading.sample_power_gain(&mut rng);
                        let rx_mw = tp_mw * self.attenuation.at(device, gw) * gain;
                        rx_power_mw.push(rx_mw);

                        let in_outage = self.outage_windows.iter().any(|o| o.covers(gw, now));
                        // Prune expired ack windows, then check overlap
                        // with this reception interval.
                        ack_windows[gw].retain(|&(_, end)| end > now);
                        let transmitting = self.config.confirmed.is_some()
                            && ack_windows[gw]
                                .iter()
                                .any(|&(start, end)| start < now + toa && now < end);
                        let locked = if transmitting {
                            gw_stats[gw].half_duplex_drops += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::GatewayTransmitting,
                            });
                            false
                        } else if in_outage {
                            gw_stats[gw].outage_drops += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::Outage,
                            });
                            false
                        } else if rx_mw < self.sensitivity_mw[device] {
                            gw_stats[gw].below_sensitivity += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::BelowSensitivity,
                            });
                            false
                        } else if banks[gw].try_acquire(now, now + toa) {
                            true
                        } else {
                            gw_stats[gw].demod_refused += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::DemodBusy,
                            });
                            false
                        };
                        demod_locked.push(locked);
                    }

                    medium.start(ActiveTx {
                        device,
                        seq,
                        start_s: now,
                        end_s: now + toa,
                        sf: cfg.sf,
                        channel: cfg.channel,
                        rx_power_mw,
                        interference_mw,
                        demod_locked,
                    });
                    queue.push(now + toa, Event::TxEnd { device, seq });

                    if new_cycle {
                        let next = now + t_g;
                        next_cycle_start[device] = next;
                        if next < duration {
                            queue.push(
                                next,
                                Event::TxStart {
                                    device,
                                    seq: seq + 1,
                                },
                            );
                        }
                    }
                }
                Event::TxEnd { device, seq } => {
                    let tx = medium.end(device, seq);
                    let mut any_copy = false;
                    decoded_by.fill(false);
                    // Jammer bursts overlapping this reception raise the
                    // noise floor for every gateway (wideband front-end
                    // noise on the transmission's channel); 0.0 when no
                    // burst overlaps, leaving the SINR bit-identical.
                    let jam_mw = tx.jam_noise_mw(&self.jam_bursts);
                    #[allow(clippy::needless_range_loop)] // parallel arrays indexed by gateway
                    for gw in 0..n_gw {
                        if !tx.demod_locked[gw] {
                            continue;
                        }
                        // Two conditions (paper Eq. 7 plus the capture
                        // effect of the NS-3 module): SINR over noise and
                        // interference clears the SF demodulation
                        // threshold, and — when interferers overlapped —
                        // the signal captures over them by the co-SF
                        // capture margin.
                        let interference = tx.interference_mw[gw];
                        let captured = interference == 0.0
                            || 10.0 * (tx.rx_power_mw[gw] / interference).log10()
                                >= self.config.capture_threshold_db;
                        let sinr_ok = captured
                            && tx.sinr_db(gw, self.noise_mw + jam_mw)
                                >= self.snr_threshold_db[device];
                        if sinr_ok {
                            // PHY-decoded; the lossy backhaul may still
                            // drop the copy before de-duplication. The
                            // verdict is a pure hash of (gateway, device,
                            // seq), so it cannot depend on event
                            // interleaving or worker count.
                            if faults::backhaul_drops(
                                self.config.seed,
                                gw,
                                device,
                                seq,
                                self.backhaul_drop_prob[gw],
                            ) {
                                gw_stats[gw].backhaul_drops += 1;
                                sink.record(TraceEvent::Reception {
                                    t: now,
                                    device,
                                    seq,
                                    gateway: gw,
                                    outcome: ReceptionOutcome::BackhaulLoss,
                                });
                            } else {
                                gw_stats[gw].decoded += 1;
                                decoded_by[gw] = true;
                                sink.record(TraceEvent::Reception {
                                    t: now,
                                    device,
                                    seq,
                                    gateway: gw,
                                    outcome: ReceptionOutcome::Decoded,
                                });
                                // One counter per device is exact because a
                                // device's `TxEnd`s pop in non-decreasing
                                // `seq` order. First attempts start one
                                // interval apart and last one ToA each, so
                                // they end in order (equal times pop in push
                                // order); a retry of frame `seq` is scheduled
                                // only if it ends before `next_cycle_start`,
                                // where frame `seq + 1` starts. So a copy
                                // repeats a delivered frame exactly when
                                // `seq` is the last counter delivered.
                                if last_delivered[device] == seq {
                                    duplicate_copies += 1;
                                } else {
                                    last_delivered[device] = seq;
                                    frames_delivered += 1;
                                    any_copy = true;
                                }
                            }
                        } else if jam_mw > 0.0
                            && captured
                            && tx.sinr_db(gw, self.noise_mw) >= self.snr_threshold_db[device]
                        {
                            // The copy fails only with the jam power in
                            // the denominator: the loss is the jammer's.
                            gw_stats[gw].jammed_drops += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::Jammed,
                            });
                        } else {
                            gw_stats[gw].sinr_failures += 1;
                            sink.record(TraceEvent::Reception {
                                t: now,
                                device,
                                seq,
                                gateway: gw,
                                outcome: ReceptionOutcome::SinrFailure,
                            });
                        }
                    }
                    if any_copy {
                        delivered[device] += 1;
                        sink.record(TraceEvent::Delivered {
                            t: now,
                            device,
                            seq,
                        });
                        if let Some(conf) = self.config.confirmed {
                            // The gateway whose copy reaches the network
                            // server first (lowest backhaul latency, ties
                            // by index) serves the acknowledgement in RX1
                            // and is deaf for its duration (half-duplex
                            // SX1301 front end). With no backhaul model
                            // every latency is 0.0 and the first decoding
                            // gateway wins, as before.
                            let serving = decoded_by
                                .iter()
                                .enumerate()
                                .filter(|&(_, decoded)| *decoded)
                                .map(|(gw, _)| gw)
                                .min_by(|&a, &b| {
                                    self.backhaul_latency_s[a]
                                        .total_cmp(&self.backhaul_latency_s[b])
                                });
                            if let Some(serving) = serving {
                                let ack_start = now + conf.class_a.receive_delay1_s;
                                ack_windows[serving]
                                    .push((ack_start, ack_start + self.ack_toa_s[device]));
                            }
                        }
                    } else if let Some(conf) = self.config.confirmed {
                        // Retransmit the lost frame unless the budget is
                        // spent or the retry would spill into the next
                        // reporting cycle (a late retry re-entering as a
                        // "new cycle" would otherwise double the schedule).
                        if cycle_attempts[device] < conf.max_attempts && current_seq[device] == seq
                        {
                            let backoff = conf.backoff_min_s
                                + rng.gen::<f64>() * (conf.backoff_max_s - conf.backoff_min_s);
                            let retry_at = now + backoff;
                            let toa = self.toa_s[device];
                            if retry_at < duration && retry_at + toa < next_cycle_start[device] {
                                queue.push(retry_at, Event::TxStart { device, seq });
                            }
                        }
                    }
                    buffer_pool.push((tx.rx_power_mw, tx.interference_mw, tx.demod_locked));
                }
            }
        }

        let payload_bits = self.config.payload_bits();
        let sleep_power_w = self.config.energy.sleep_power_w();
        let devices = (0..n_dev)
            .map(|i| {
                // Charge sleep over the device's entire idle time.
                energy_j[i] += sleep_power_w * (duration - airtime_s[i]).max(0.0);
                let bits = f64::from(delivered[i]) * payload_bits;
                let ee = if energy_j[i] > 0.0 {
                    bits / (energy_j[i] * 1_000.0)
                } else {
                    0.0
                };
                let lifetime_s = if attempts[i] > 0 {
                    self.config.battery.lifetime_s(energy_j[i] / duration)
                } else {
                    None
                };
                DeviceStats {
                    attempts: attempts[i],
                    delivered: delivered[i],
                    energy_j: energy_j[i],
                    ee_bits_per_mj: ee,
                    lifetime_s,
                }
            })
            .collect();

        SimReport {
            devices,
            gateways: gw_stats,
            frames_delivered,
            duplicate_copies,
            duration_s: duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatewayOutage;
    use crate::topology::{DeviceSite, Position};
    use lora_phy::path_loss::LinkEnvironment;
    use lora_phy::{Fading, SpreadingFactor, TxPowerDbm};

    fn near_topology(n: usize) -> Topology {
        let devices = (0..n)
            .map(|i| DeviceSite {
                position: Position::new(100.0 + i as f64, 0.0),
                environment: LinkEnvironment::LineOfSight,
            })
            .collect();
        Topology::from_sites(devices, vec![Position::new(0.0, 0.0)], 1_000.0)
    }

    fn quiet_config() -> SimConfig {
        let mut c = SimConfig::builder()
            .seed(1)
            .duration_s(3_000.0)
            .report_interval_s(600.0)
            .build();
        c.fading = Fading::None;
        c
    }

    fn sf7_alloc(n: usize) -> Vec<TxConfig> {
        (0..n)
            .map(|i| TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), i % 8))
            .collect()
    }

    #[test]
    fn lone_device_delivers_everything() {
        let sim = Simulation::new(quiet_config(), near_topology(1), sf7_alloc(1)).unwrap();
        let report = sim.run();
        assert_eq!(report.devices[0].attempts, 5);
        assert_eq!(report.devices[0].delivered, 5);
        assert_eq!(report.devices[0].prr(), 1.0);
        assert!(report.devices[0].ee_bits_per_mj > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = Simulation::new(quiet_config(), near_topology(20), sf7_alloc(20)).unwrap();
        assert_eq!(sim.run(), sim.run());
    }

    #[test]
    fn different_seed_changes_outcome() {
        // Marginal links (≈1.5 dB below SF7 sensitivity at the mean) so the
        // Rayleigh draws decide delivery.
        let devices = (0..20)
            .map(|i| DeviceSite {
                position: Position::new(3_000.0 + i as f64, 0.0),
                environment: LinkEnvironment::NonLineOfSight,
            })
            .collect();
        let topo = Topology::from_sites(devices, vec![Position::new(0.0, 0.0)], 5_000.0);
        let mut c = quiet_config();
        c.fading = Fading::Rayleigh;
        let a = Simulation::new(c.clone(), topo.clone(), sf7_alloc(20))
            .unwrap()
            .run();
        c.seed = 2;
        let b = Simulation::new(c, topo, sf7_alloc(20)).unwrap().run();
        assert_ne!(a, b);
    }

    #[test]
    fn allocation_length_is_validated() {
        let err = Simulation::new(quiet_config(), near_topology(3), sf7_alloc(2)).unwrap_err();
        assert_eq!(
            err,
            SimError::AllocationLengthMismatch {
                devices: 3,
                allocation: 2
            }
        );
    }

    #[test]
    fn zero_demod_capacity_is_validated() {
        let mut c = quiet_config();
        c.demod_capacity = 0;
        let err = Simulation::new(c, near_topology(1), sf7_alloc(1)).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidConfig {
                reason: "a gateway needs at least one demodulator path"
            }
        );
    }

    #[test]
    fn channel_range_is_validated() {
        let mut alloc = sf7_alloc(1);
        alloc[0].channel = 8;
        let err = Simulation::new(quiet_config(), near_topology(1), alloc).unwrap_err();
        assert!(matches!(
            err,
            SimError::ChannelOutOfRange { channel: 8, .. }
        ));
    }

    #[test]
    fn out_of_range_device_delivers_nothing() {
        let devices = vec![DeviceSite {
            position: Position::new(50_000.0, 0.0), // 50 km away
            environment: LinkEnvironment::NonLineOfSight,
        }];
        let topo = Topology::from_sites(devices, vec![Position::new(0.0, 0.0)], 1_000.0);
        let sim = Simulation::new(quiet_config(), topo, sf7_alloc(1)).unwrap();
        let report = sim.run();
        assert_eq!(report.devices[0].delivered, 0);
        assert!(report.devices[0].attempts > 0);
        assert_eq!(report.devices[0].ee_bits_per_mj, 0.0);
        assert_eq!(
            report.gateways[0].below_sensitivity as u32,
            report.devices[0].attempts
        );
    }

    #[test]
    fn full_outage_blocks_all_receptions() {
        let mut c = quiet_config();
        c.outages.push(GatewayOutage {
            gateway: 0,
            from_s: 0.0,
            to_s: 1e9,
        });
        let sim = Simulation::new(c, near_topology(2), sf7_alloc(2)).unwrap();
        let report = sim.run();
        assert!(report.devices.iter().all(|d| d.delivered == 0));
        assert!(report.gateways[0].outage_drops > 0);
    }

    #[test]
    fn partial_outage_loses_only_window() {
        let mut c = quiet_config();
        // Outage covering the first reporting cycle only.
        c.outages.push(GatewayOutage {
            gateway: 0,
            from_s: 0.0,
            to_s: 600.0,
        });
        let sim = Simulation::new(c, near_topology(1), sf7_alloc(1)).unwrap();
        let report = sim.run();
        assert_eq!(report.devices[0].attempts, 5);
        assert_eq!(report.devices[0].delivered, 4);
    }

    #[test]
    fn second_gateway_improves_reachability() {
        // One device far from gw0 but near gw1.
        let devices = vec![DeviceSite {
            position: Position::new(9_900.0, 0.0),
            environment: LinkEnvironment::NonLineOfSight,
        }];
        let gw_far = Topology::from_sites(devices.clone(), vec![Position::new(0.0, 0.0)], 10_000.0);
        let gw_near = Topology::from_sites(
            devices,
            vec![Position::new(0.0, 0.0), Position::new(10_000.0, 0.0)],
            10_000.0,
        );
        let sim_far = Simulation::new(quiet_config(), gw_far, sf7_alloc(1)).unwrap();
        let sim_near = Simulation::new(quiet_config(), gw_near, sf7_alloc(1)).unwrap();
        assert_eq!(sim_far.run().devices[0].delivered, 0);
        assert_eq!(sim_near.run().devices[0].delivered, 5);
    }

    #[test]
    fn co_sf_saturation_causes_losses() {
        // 60 devices, same SF and channel, short interval: heavy collisions.
        let n = 60;
        let mut c = quiet_config();
        c.report_interval_s = 30.0;
        c.duration_s = 600.0;
        let alloc: Vec<TxConfig> = (0..n)
            .map(|_| TxConfig::new(SpreadingFactor::Sf9, TxPowerDbm::new(14.0), 0))
            .collect();
        let sim = Simulation::new(c, near_topology(n), alloc).unwrap();
        let report = sim.run();
        let total_sinr_failures: u64 = report.gateways.iter().map(|g| g.sinr_failures).sum();
        assert!(total_sinr_failures > 0, "expected collisions");
        assert!(report.mean_prr() < 1.0);
    }

    #[test]
    fn channel_separation_removes_collisions() {
        // Two devices transmitting simultaneously on different channels
        // both deliver.
        let mut c = quiet_config();
        c.seed = 3;
        let alloc = vec![
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), 0),
            TxConfig::new(SpreadingFactor::Sf7, TxPowerDbm::new(14.0), 1),
        ];
        let sim = Simulation::new(c, near_topology(2), alloc).unwrap();
        let report = sim.run();
        assert_eq!(report.devices[0].prr(), 1.0);
        assert_eq!(report.devices[1].prr(), 1.0);
    }

    #[test]
    fn demod_capacity_binds_under_many_channels() {
        // 24 devices spread over 8 channels and 3 SFs would be decodable in
        // the 48-signal sense, but a 2-path bank drops most of them when
        // they all transmit at once.
        let n = 24;
        let mut c = quiet_config();
        c.demod_capacity = 2;
        // One transmission per device, phases packed into one second so
        // the ~0.1 s frames pile up on the two demodulator paths.
        c.report_interval_s = 1.0;
        c.duration_s = 1.0;
        let sfs = [
            SpreadingFactor::Sf7,
            SpreadingFactor::Sf8,
            SpreadingFactor::Sf9,
        ];
        let alloc: Vec<TxConfig> = (0..n)
            .map(|i| TxConfig::new(sfs[i % 3], TxPowerDbm::new(14.0), i % 8))
            .collect();
        let sim = Simulation::new(c, near_topology(n), alloc).unwrap();
        let report = sim.run();
        let refused: u64 = report.gateways.iter().map(|g| g.demod_refused).sum();
        assert!(refused > 0, "expected the 2-path bank to refuse receptions");
        assert!(
            report.frames_delivered < n as u64,
            "capacity must cost deliveries"
        );
    }

    #[test]
    fn energy_accounting_is_additive() {
        let sim = Simulation::new(quiet_config(), near_topology(1), sf7_alloc(1)).unwrap();
        let report = sim.run();
        let per_cycle = self_energy(&sim);
        assert!((report.devices[0].energy_j - 5.0 * per_cycle).abs() < 1e-9);
    }

    fn self_energy(sim: &Simulation) -> f64 {
        sim.config().energy.cycle_energy_j(
            sim.allocation()[0].tp,
            sim.time_on_air_s(0),
            sim.config().report_interval_s,
        )
    }

    #[test]
    fn lifetime_reflects_consumption() {
        let sim = Simulation::new(quiet_config(), near_topology(1), sf7_alloc(1)).unwrap();
        let report = sim.run();
        let lifetime = report.devices[0].lifetime_s.unwrap();
        let avg_power = self_energy(&sim) / 600.0;
        let expected = sim.config().battery.capacity_j() / avg_power;
        assert!((lifetime - expected).abs() / expected < 1e-9);
        // Years, not hours: a sane LoRa node outlives 1 year at SF7/600 s.
        assert!(lifetime > 365.0 * 24.0 * 3_600.0);
    }
}
