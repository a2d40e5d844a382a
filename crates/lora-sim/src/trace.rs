//! Event tracing: observe every transmission and reception decision.
//!
//! [`Simulation::run_with_trace`](crate::Simulation::run_with_trace) feeds
//! each decision the simulator takes to a [`TraceSink`] — the packet-level
//! visibility one normally gets from NS-3 logs, here with zero cost when
//! not requested (the default run path uses [`NullSink`] and the calls
//! monomorphise away).

use serde::Serialize;

use lora_phy::SpreadingFactor;

/// Why a gateway did not (or did) accept a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ReceptionOutcome {
    /// Decoded and forwarded to the network server.
    Decoded,
    /// A demodulator path was locked but the SINR/capture check failed at
    /// the end of reception (collision).
    SinrFailure,
    /// Received power below the SF's sensitivity (out of range or deep
    /// fade) — no demodulator was committed.
    BelowSensitivity,
    /// All demodulator paths were busy (the SX1301 capacity limit).
    DemodBusy,
    /// The gateway was in an injected outage window.
    Outage,
    /// The gateway was transmitting a downlink acknowledgement and, being
    /// half-duplex, could not receive.
    GatewayTransmitting,
    /// The SINR check failed only because a jammer burst raised the noise
    /// floor — without the jam power the copy would have decoded.
    Jammed,
    /// Decoded at the PHY but dropped on the lossy gateway→network-server
    /// backhaul before de-duplication.
    BackhaulLoss,
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A device keyed up.
    TxStart {
        /// Simulation time, seconds.
        t: f64,
        /// Device index.
        device: usize,
        /// Frame sequence number (retransmissions repeat it).
        seq: u32,
        /// Spreading factor in use.
        sf: SpreadingFactor,
        /// Channel index in use.
        channel: usize,
    },
    /// A gateway's verdict on one transmission.
    Reception {
        /// Simulation time of the verdict, seconds.
        t: f64,
        /// Device index.
        device: usize,
        /// Frame sequence number.
        seq: u32,
        /// Gateway index.
        gateway: usize,
        /// The verdict.
        outcome: ReceptionOutcome,
    },
    /// The network server delivered a unique frame (first copy).
    Delivered {
        /// Simulation time, seconds.
        t: f64,
        /// Device index.
        device: usize,
        /// Frame sequence number.
        seq: u32,
    },
}

/// A consumer of trace events.
pub trait TraceSink {
    /// Receives one event; called in simulation-time order.
    fn record(&mut self, event: TraceEvent);
}

/// Discards everything (the default run path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _event: TraceEvent) {}
}

/// Buffers every event in memory. Fine for unit-test-sized runs; prefer a
/// streaming sink for large simulations.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The recorded events, in time order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Counts events by kind without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CountingSink {
    /// `TxStart` events seen.
    pub tx_starts: u64,
    /// `Reception` events seen, by outcome: decoded, SINR failure, below
    /// sensitivity, demod busy, outage.
    pub decoded: u64,
    /// SINR/capture failures.
    pub sinr_failures: u64,
    /// Below-sensitivity receptions.
    pub below_sensitivity: u64,
    /// Capacity refusals.
    pub demod_busy: u64,
    /// Outage drops.
    pub outage: u64,
    /// Half-duplex (gateway transmitting) drops.
    pub gateway_transmitting: u64,
    /// Jammer-attributed SINR failures.
    pub jammed: u64,
    /// Backhaul losses of PHY-decoded copies.
    pub backhaul_loss: u64,
    /// Unique frames delivered.
    pub delivered: u64,
}

impl TraceSink for CountingSink {
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::TxStart { .. } => self.tx_starts += 1,
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::Reception { outcome, .. } => match outcome {
                ReceptionOutcome::Decoded => self.decoded += 1,
                ReceptionOutcome::SinrFailure => self.sinr_failures += 1,
                ReceptionOutcome::BelowSensitivity => self.below_sensitivity += 1,
                ReceptionOutcome::DemodBusy => self.demod_busy += 1,
                ReceptionOutcome::Outage => self.outage += 1,
                ReceptionOutcome::GatewayTransmitting => self.gateway_transmitting += 1,
                ReceptionOutcome::Jammed => self.jammed += 1,
                ReceptionOutcome::BackhaulLoss => self.backhaul_loss += 1,
            },
        }
    }
}

/// Writes each event as one JSON line (JSONL) to any writer.
#[derive(Debug)]
pub struct JsonLinesSink<W: std::io::Write> {
    writer: W,
}

impl<W: std::io::Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer }
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: std::io::Write> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, event: TraceEvent) {
        // Serialisation of these simple enums cannot fail; IO errors are
        // reported once via a best-effort eprintln rather than panicking
        // mid-simulation.
        if let Ok(line) = serde_json::to_string(&event) {
            let _ = writeln!(self.writer, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_tallies() {
        let mut sink = CountingSink::default();
        sink.record(TraceEvent::TxStart {
            t: 0.0,
            device: 0,
            seq: 0,
            sf: SpreadingFactor::Sf7,
            channel: 0,
        });
        sink.record(TraceEvent::Reception {
            t: 0.1,
            device: 0,
            seq: 0,
            gateway: 0,
            outcome: ReceptionOutcome::Decoded,
        });
        sink.record(TraceEvent::Delivered {
            t: 0.1,
            device: 0,
            seq: 0,
        });
        assert_eq!(sink.tx_starts, 1);
        assert_eq!(sink.decoded, 1);
        assert_eq!(sink.delivered, 1);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.record(TraceEvent::Delivered {
            t: 1.5,
            device: 3,
            seq: 7,
        });
        let body = String::from_utf8(sink.into_inner()).unwrap();
        assert!(body.contains("Delivered"), "{body}");
        assert!(body.ends_with('\n'));
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut sink = NullSink;
        sink.record(TraceEvent::Delivered {
            t: 0.0,
            device: 0,
            seq: 0,
        });
    }
}
