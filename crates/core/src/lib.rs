//! **MultiTree** — topology-aware all-reduce schedule construction and
//! network-interface co-design, reproducing Huang et al., *"Communication
//! Algorithm-Architecture Co-Design for Distributed Deep Learning"*
//! (ISCA 2021).
//!
//! # What this crate provides
//!
//! * A single intermediate representation for collective communication:
//!   [`CommSchedule`] — a dependency DAG of [`CommEvent`]s carrying
//!   reduce/gather semantics over data [`ChunkRange`]s, annotated with
//!   lockstep time steps and (optionally) explicit link paths.
//! * The paper's primary contribution: the **MultiTree** construction
//!   ([`algorithms::MultiTree`]) for direct networks (Torus/Mesh) and its
//!   extension to switch-based indirect networks (Fat-Tree, BiGraph),
//!   building |V| balanced spanning trees top-down with global
//!   link-allocation awareness (Algorithm 1 of the paper).
//! * All four baselines the paper compares against: ring all-reduce
//!   ([`algorithms::Ring`]), the double binary tree ([`algorithms::DbTree`]),
//!   2D-Ring ([`algorithms::Ring2D`]) and halving-doubling with EFLOPS rank
//!   mapping ([`algorithms::Hdrm`]).
//! * The co-designed NI **all-reduce schedule tables** (paper Fig. 5):
//!   [`table::ScheduleTable`], generated from any schedule.
//! * A semantic [`verify`]-er that executes a schedule over symbolic data
//!   and proves every node ends with the full sum, and a [`cost`] analyzer
//!   for steps, volume and per-step link contention (Table I).
//!
//! # Quick start
//!
//! ```
//! use mt_topology::Topology;
//! use multitree::algorithms::{AllReduce, MultiTree};
//! use multitree::verify::verify_schedule;
//!
//! let topo = Topology::torus(4, 4);
//! let schedule = MultiTree::default().build(&topo)?;
//! // one spanning tree per node
//! assert_eq!(schedule.num_flows(), 16);
//! // the schedule provably all-reduces
//! verify_schedule(&schedule)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
mod chunk;
pub mod collective;
pub mod cost;
mod error;
mod event;
pub mod prepared;
mod schedule;
pub mod table;
pub mod util;
pub mod verify;
pub mod viz;

pub use chunk::ChunkRange;
pub use error::AlgorithmError;
pub use event::{CollectiveOp, CommEvent, EventId, FlowId};
pub use prepared::{ExecEvent, PreparedData, PreparedSchedule};
pub use schedule::CommSchedule;
