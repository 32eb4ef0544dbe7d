//! Error type shared by schedule construction and verification.

use std::error::Error;
use std::fmt;

/// Errors from building or checking collective schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlgorithmError {
    /// The algorithm cannot run on the given topology (e.g. 2D-Ring on a
    /// Fat-Tree, halving-doubling on a non-power-of-two node count).
    UnsupportedTopology {
        /// Algorithm name.
        algorithm: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// Schedule construction failed part-way (e.g. the link allocator ran
    /// out of connectivity on a disconnected graph).
    ConstructionFailed {
        /// Algorithm name.
        algorithm: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A structurally invalid schedule was produced or supplied.
    MalformedSchedule {
        /// What is wrong.
        detail: String,
    },
    /// Semantic verification failed: some node did not end with the full
    /// reduction.
    VerificationFailed {
        /// What is wrong.
        detail: String,
    },
    /// A fault-injection plan references nonexistent links/nodes or
    /// carries out-of-range parameters.
    InvalidFaultPlan {
        /// What is wrong.
        detail: String,
    },
    /// A simulator's network configuration cannot be simulated (e.g. a
    /// single virtual channel, or a packet payload below one flit).
    InvalidConfig {
        /// What is wrong.
        detail: String,
    },
    /// A run's payload is so large that a byte or flit count of the run
    /// overflows `u64`.
    PayloadTooLarge {
        /// The requested payload, in bytes.
        total_bytes: u64,
    },
    /// Checking a schedule needs more memory than the address space holds
    /// or the allocator grants; the schedule itself may be correct.
    ResourceExhausted {
        /// Which buffer, and how large.
        detail: String,
    },
}

impl fmt::Display for AlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmError::UnsupportedTopology { algorithm, reason } => {
                write!(f, "{algorithm} does not support this topology: {reason}")
            }
            AlgorithmError::ConstructionFailed { algorithm, reason } => {
                write!(f, "{algorithm} schedule construction failed: {reason}")
            }
            AlgorithmError::MalformedSchedule { detail } => {
                write!(f, "malformed schedule: {detail}")
            }
            AlgorithmError::VerificationFailed { detail } => {
                write!(f, "all-reduce verification failed: {detail}")
            }
            AlgorithmError::InvalidFaultPlan { detail } => {
                write!(f, "invalid fault plan: {detail}")
            }
            AlgorithmError::InvalidConfig { detail } => {
                write!(f, "invalid network configuration: {detail}")
            }
            AlgorithmError::ResourceExhausted { detail } => {
                write!(f, "resource exhausted: {detail}")
            }
            AlgorithmError::PayloadTooLarge { total_bytes } => {
                write!(f, "payload of {total_bytes} bytes overflows the run's 64-bit byte or flit counters")
            }
        }
    }
}

impl Error for AlgorithmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = AlgorithmError::UnsupportedTopology {
            algorithm: "ring2d",
            reason: "requires a grid".into(),
        };
        assert_eq!(
            e.to_string(),
            "ring2d does not support this topology: requires a grid"
        );
    }
}
