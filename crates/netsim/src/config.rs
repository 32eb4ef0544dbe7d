//! Network and NI configuration (paper Table III).

use multitree::AlgorithmError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Flow-control mode (paper §IV-B, Fig. 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowControlMode {
    /// Conventional packet-based switching: gradients are segmented into
    /// fixed-payload packets, each paying one head flit (Fig. 7a).
    #[default]
    PacketBased,
    /// Co-designed message-based switching: the whole gradient chunk is
    /// one message framed into sub-packets; only a single head flit is
    /// paid per message (Fig. 7b) — `MULTITREEMSG` in the evaluation.
    MessageBased,
}

/// Network parameters, defaulting to the paper's Table III configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Link bandwidth in bytes per nanosecond (16.0 = 16 GB/s).
    pub link_bandwidth: f64,
    /// Link traversal latency in nanoseconds (150 ns).
    pub link_latency_ns: f64,
    /// Router clock in GHz (1.0 ⇒ one flit per ns per link).
    pub router_clock_ghz: f64,
    /// Flit size in bytes (16 B ⇒ one flit per cycle saturates 16 GB/s).
    pub flit_bytes: u32,
    /// Data-packet payload for packet-based flow control (256 B).
    pub payload_bytes: u32,
    /// Number of virtual channels (4).
    pub num_vcs: u32,
    /// Per-VC input buffer depth in flits (318: covers the credit
    /// round-trip loop of a 150 ns link).
    pub vc_buffer_flits: u32,
    /// Router pipeline delay in cycles applied per hop.
    pub router_pipeline_cycles: u32,
    /// Flow-control mode.
    pub flow_control: FlowControlMode,
    /// Enable the co-designed NI lockstep injection regulation (§IV-A).
    /// The paper applies its hardware scheduling to all baselines for
    /// fairness, so this defaults to on.
    pub lockstep: bool,
    /// Overrides the lockstep step duration with a fixed injection
    /// interval in ns (`None` = the paper's footnote-4 serialization
    /// estimate). Used for open-loop load sweeps: a schedule whose steps
    /// are injection rounds then offers `bytes_per_round / interval` of
    /// load regardless of message size.
    pub lockstep_interval_ns: Option<f64>,
    /// Per-message software launch/scheduling overhead in ns, serialized
    /// at the sending node. `0.0` models the paper's hardware-offloaded
    /// NI; positive values model a software implementation, whose
    /// "scheduling and synchronization can offset the benefit" of
    /// MultiTree (§VII-B) because tree schedules issue several concurrent
    /// messages per node per step while a ring issues one.
    pub sw_launch_overhead_ns: f64,
}

/// Why a [`NetworkConfig`] cannot be simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `num_vcs` lies outside `2..=`[`NetworkConfig::MAX_VCS`]: a
    /// dateline crossing escapes to the odd VC of the packet's pair, and
    /// the cycle engine's per-link eject-ready masks hold one bit per VC.
    VirtualChannels {
        /// The configured count.
        num_vcs: u32,
    },
    /// `flit_bytes` is zero.
    ZeroFlitBytes,
    /// `payload_bytes < flit_bytes`: a packet must carry at least one
    /// data flit.
    PayloadBelowFlit {
        /// The configured packet payload.
        payload_bytes: u32,
        /// The configured flit size.
        flit_bytes: u32,
    },
    /// `vc_buffer_flits` is zero: no flit could ever take a credit.
    ZeroBufferDepth,
    /// A rate that must be finite and positive is not.
    NonPositiveRate {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::VirtualChannels { num_vcs } => write!(
                f,
                "num_vcs must be in 2..={}, got {num_vcs}",
                NetworkConfig::MAX_VCS
            ),
            ConfigError::ZeroFlitBytes => write!(f, "flit_bytes must be at least 1"),
            ConfigError::PayloadBelowFlit {
                payload_bytes,
                flit_bytes,
            } => write!(
                f,
                "payload_bytes ({payload_bytes}) must be at least flit_bytes ({flit_bytes})"
            ),
            ConfigError::ZeroBufferDepth => write!(f, "vc_buffer_flits must be at least 1"),
            ConfigError::NonPositiveRate { field, value } => {
                write!(f, "{field} must be finite and positive, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for AlgorithmError {
    fn from(e: ConfigError) -> Self {
        AlgorithmError::InvalidConfig {
            detail: e.to_string(),
        }
    }
}

impl NetworkConfig {
    /// Most virtual channels per link the cycle engine supports (one bit
    /// each in its per-link eject-ready masks).
    pub const MAX_VCS: u32 = 64;

    /// Checks that both engines can simulate this configuration; every
    /// engine entry point calls it before building any state.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(2..=Self::MAX_VCS).contains(&self.num_vcs) {
            return Err(ConfigError::VirtualChannels {
                num_vcs: self.num_vcs,
            });
        }
        if self.flit_bytes == 0 {
            return Err(ConfigError::ZeroFlitBytes);
        }
        if self.payload_bytes < self.flit_bytes {
            return Err(ConfigError::PayloadBelowFlit {
                payload_bytes: self.payload_bytes,
                flit_bytes: self.flit_bytes,
            });
        }
        if self.vc_buffer_flits == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        for (field, value) in [
            ("link_bandwidth", self.link_bandwidth),
            ("router_clock_ghz", self.router_clock_ghz),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ConfigError::NonPositiveRate { field, value });
            }
        }
        Ok(())
    }

    /// The paper's Table III configuration with packet-based flow control.
    pub fn paper_default() -> Self {
        NetworkConfig {
            link_bandwidth: 16.0,
            link_latency_ns: 150.0,
            router_clock_ghz: 1.0,
            flit_bytes: 16,
            payload_bytes: 256,
            num_vcs: 4,
            vc_buffer_flits: 318,
            router_pipeline_cycles: 2,
            flow_control: FlowControlMode::PacketBased,
            lockstep: true,
            lockstep_interval_ns: None,
            sw_launch_overhead_ns: 0.0,
        }
    }

    /// The paper's configuration with the co-designed message-based flow
    /// control (the `MULTITREEMSG` variant).
    pub fn paper_message_based() -> Self {
        NetworkConfig {
            flow_control: FlowControlMode::MessageBased,
            ..Self::paper_default()
        }
    }

    /// Nanoseconds per flit on one link.
    pub fn flit_time_ns(&self) -> f64 {
        f64::from(self.flit_bytes) / self.link_bandwidth
    }

    /// Cycle period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.router_clock_ghz
    }

    /// Link latency in whole router cycles.
    pub fn link_latency_cycles(&self) -> u64 {
        (self.link_latency_ns * self.router_clock_ghz).round() as u64
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_iii() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.link_bandwidth, 16.0);
        assert_eq!(c.link_latency_ns, 150.0);
        assert_eq!(c.num_vcs, 4);
        assert_eq!(c.vc_buffer_flits, 318);
        assert_eq!(c.payload_bytes, 256);
        assert_eq!(c.flow_control, FlowControlMode::PacketBased);
    }

    #[test]
    fn derived_quantities() {
        let c = NetworkConfig::paper_default();
        assert_eq!(c.flit_time_ns(), 1.0); // 16 B at 16 B/ns
        assert_eq!(c.cycle_ns(), 1.0);
        assert_eq!(c.link_latency_cycles(), 150);
    }

    #[test]
    fn message_based_variant() {
        let c = NetworkConfig::paper_message_based();
        assert_eq!(c.flow_control, FlowControlMode::MessageBased);
        assert_eq!(c.link_bandwidth, 16.0);
    }
}
