//! All-reduce schedule-construction algorithms.
//!
//! The paper's primary contribution, [`MultiTree`], plus the four baselines
//! it is evaluated against ([`Ring`], [`DbTree`], [`Ring2D`], [`Hdrm`]) and
//! plain [`HalvingDoubling`]. Every algorithm lowers to the common
//! [`CommSchedule`] IR, so downstream consumers (verifier, cost model,
//! network simulators, NI schedule tables) treat them identically.

mod blink;
mod dbtree;
mod fewtrees;
mod halving_doubling;
mod hdrm;
mod hierarchical;
mod multitree;
mod multitree_indirect;
mod multitree_subset;
mod pipelined;
mod rebalance;
pub mod repair;
mod ring;
mod ring2d;

pub use blink::Blink;
pub use dbtree::DbTree;
pub use halving_doubling::HalvingDoubling;
pub use hdrm::Hdrm;
pub use hierarchical::{HierarchicalMultiTree, InterPodMode};
pub(crate) use multitree::TreeLowering;
pub use multitree::{Forest, ForestEdge, ForestScratch, MultiTree, Tree, TreeOrder};
pub use repair::{repair_multitree, RepairReport, RepairStrategy, RepairedSchedule};
pub use ring::Ring;
pub use ring2d::Ring2D;

use crate::error::AlgorithmError;
use crate::schedule::CommSchedule;
use mt_topology::Topology;

/// A collective-communication algorithm that can lower itself to a
/// [`CommSchedule`] for a given physical topology.
pub trait AllReduce {
    /// Short stable name, e.g. `"ring"` or `"multitree"`.
    fn name(&self) -> &'static str;

    /// Builds the all-reduce schedule for `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::UnsupportedTopology`] when the algorithm
    /// is restricted to specific networks (2D-Ring needs a grid, HDRM a
    /// BiGraph, halving-doubling a power-of-two node count), or
    /// [`AlgorithmError::ConstructionFailed`] if construction cannot
    /// complete (e.g. disconnected graph).
    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError>;
}

/// Dynamic algorithm selection, used by the benchmark harnesses.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// Ring all-reduce (Baidu), applicable everywhere.
    Ring(Ring),
    /// Double binary tree (Sanders / NCCL), topology-oblivious.
    DbTree(DbTree),
    /// 2D-Ring (Ying et al.), Torus/Mesh only.
    Ring2D(Ring2D),
    /// Plain halving-doubling (MPICH), power-of-two node counts.
    HalvingDoubling(HalvingDoubling),
    /// Halving-doubling with EFLOPS rank mapping, BiGraph only.
    Hdrm(Hdrm),
    /// The paper's MultiTree, applicable everywhere.
    MultiTree(MultiTree),
    /// Blink-style single-root packed trees (§VIII related work; not part
    /// of the paper's evaluation legend, so [`Algorithm::applicable_to`]
    /// does not list it).
    Blink(Blink),
}

impl Algorithm {
    /// All algorithms that can run on `topo`, in the paper's presentation
    /// order (baselines first, MultiTree last).
    pub fn applicable_to(topo: &Topology) -> Vec<Algorithm> {
        let mut out = vec![
            Algorithm::Ring(Ring),
            Algorithm::DbTree(DbTree::default()),
        ];
        if Ring2D::supports(topo) {
            out.push(Algorithm::Ring2D(Ring2D));
        }
        if Hdrm::supports(topo) {
            out.push(Algorithm::Hdrm(Hdrm));
        }
        out.push(Algorithm::MultiTree(MultiTree::default()));
        out
    }
}

impl AllReduce for Algorithm {
    fn name(&self) -> &'static str {
        match self {
            Algorithm::Ring(a) => a.name(),
            Algorithm::DbTree(a) => a.name(),
            Algorithm::Ring2D(a) => a.name(),
            Algorithm::HalvingDoubling(a) => a.name(),
            Algorithm::Hdrm(a) => a.name(),
            Algorithm::MultiTree(a) => a.name(),
            Algorithm::Blink(a) => a.name(),
        }
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        match self {
            Algorithm::Ring(a) => a.build(topo),
            Algorithm::DbTree(a) => a.build(topo),
            Algorithm::Ring2D(a) => a.build(topo),
            Algorithm::HalvingDoubling(a) => a.build(topo),
            Algorithm::Hdrm(a) => a.build(topo),
            Algorithm::MultiTree(a) => a.build(topo),
            Algorithm::Blink(a) => a.build(topo),
        }
    }
}
