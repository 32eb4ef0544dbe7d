//! Interconnection-network simulation for the MultiTree co-design
//! (Huang et al., ISCA 2021), replacing the paper's BookSim substrate.
//!
//! Two engines execute a [`multitree::CommSchedule`] on a
//! [`mt_topology::Topology`]:
//!
//! * [`cycle`] — a flit-granularity, cycle-driven simulator with
//!   virtual-channel routers, credit-based virtual cut-through (packets)
//!   or wormhole (big gradient messages), dateline VCs for torus
//!   deadlock freedom, source routing, and the co-designed NI with
//!   schedule-table-driven injection and the lockstep estimator of §IV-A;
//! * [`flow`] — a fast event-driven engine that models each transfer as
//!   pipelined cut-through serialization over its link path with FIFO
//!   link contention; used for the paper's multi-MiB sweeps where
//!   flit-level simulation adds nothing but time.
//!
//! [`flowctrl`] implements the §IV-B flit framing for both the
//! conventional packet-based flow control and the co-designed
//! message-based flow control (one head flit per gradient message), and
//! reproduces the head-flit overhead of Fig. 2.
//!
//! Both engines execute through one generic entry point,
//! `run_prepared_with`, parameterized by a zero-cost [`SimObserver`]
//! ([`observer`]): pass [`NoopObserver`] for the bare hot loop, or a
//! telemetry observer ([`telemetry::LinkTimeline`],
//! [`telemetry::PhaseProfile`], or a tuple of both) for time-resolved
//! per-link utilization and per-step phase accounting. Results come back
//! as one [`EngineReport`] (shared [`SimReport`] core + engine detail)
//! for both engines.
//!
//! # Example
//!
//! ```
//! use mt_topology::Topology;
//! use multitree::algorithms::{AllReduce, MultiTree};
//! use mt_netsim::{flow::FlowEngine, Engine, NetworkConfig, SimReport};
//!
//! let topo = Topology::torus(4, 4);
//! let schedule = MultiTree::default().build(&topo)?;
//! let cfg = NetworkConfig::paper_default();
//! let report = FlowEngine::new(cfg).run(&topo, &schedule, 1 << 20)?;
//! assert!(report.completion_ns > 0.0);
//! // algorithmic bandwidth = payload / completion time
//! assert!(report.algbw_gbps() > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod cycle;
pub mod energy;
pub mod fault;
pub mod flow;
pub mod flowctrl;
pub mod nic;
pub mod observer;
mod report;
mod scratch;
pub mod synthetic;
pub mod telemetry;

pub use config::{ConfigError, FlowControlMode, NetworkConfig};
pub use energy::EnergyModel;
pub use fault::{CompiledFaults, FaultEvent, FaultPlan, FaultReport, FaultedRun};
pub use observer::{NoopObserver, ObservedEngine, RunInfo, SimObserver};
pub use report::{EngineDetail, EngineReport, SimReport};
pub use scratch::SimScratch;

use multitree::{AlgorithmError, CommSchedule};
use mt_topology::Topology;

/// A network engine that can execute a collective schedule.
///
/// [`Engine::run`] is the convenient one-shot entry point: it prepares
/// the schedule ([`multitree::PreparedSchedule`]) and executes it once
/// with a [`NoopObserver`]. Sweeps that run the same
/// `(schedule, topology)` pair at many payload sizes should prepare once
/// and call the engines' generic `run_prepared_with` entry points
/// ([`flow::FlowEngine::run_prepared_with`],
/// [`cycle::CycleEngine::run_prepared_with`]) with a reused
/// [`SimScratch`] and any [`SimObserver`]; the results are
/// bit-identical. (`run` stays on this trait — rather than deprecated
/// like the other legacy entry points — because it is object-safe and
/// used through `&dyn Engine`.)
pub trait Engine {
    /// Simulates the schedule moving `total_bytes` of gradient data and
    /// reports timing.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::MalformedSchedule`] if the schedule fails
    /// structural validation or deadlocks in simulation.
    fn run(
        &self,
        topo: &Topology,
        schedule: &CommSchedule,
        total_bytes: u64,
    ) -> Result<SimReport, AlgorithmError>;
}
