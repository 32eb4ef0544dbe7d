//! A Blink-style baseline: multiple edge-disjoint spanning trees packed
//! from a **single root** (Wang et al., MLSys 2020 — the closest related
//! work the paper discusses in §VIII).
//!
//! Blink packs directed spanning trees stemming from the same root and
//! splits the data across them. The paper's critique, which this
//! implementation lets you measure: "since multiple trees spawn from the
//! same root, only one way of the bidirectional links attached to the
//! root are used for receiving or sending data in the distinct reduction
//! and broadcast phases, leaving the link bandwidth under-utilized" —
//! whereas MultiTree roots a tree at *every* node and keeps both
//! directions of every link busy.
//!
//! Packing here grows the trees simultaneously in round-robin turns over
//! one global link pool (Blink uses approximate packing plus an ILP
//! minimization; simultaneous greedy growth reproduces the structural
//! property that matters — edge-disjoint, same-root trees — and finds the
//! full root-degree-many trees on the paper's regular topologies).

use crate::algorithms::multitree::TreeBuild;
use crate::algorithms::multitree_subset::bfs_to_participant;
use crate::algorithms::pipelined::lower_pipelined;
use crate::algorithms::AllReduce;
use crate::error::AlgorithmError;
use crate::schedule::CommSchedule;
use mt_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Single-root packed-spanning-tree all-reduce (Blink-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blink {
    /// The common root of all packed trees.
    pub root: NodeId,
    /// Pipeline sub-chunks per tree (Blink streams data through its
    /// trees; without pipelining, depth multiplies serialization).
    pub pipeline_chunks: usize,
}

impl Default for Blink {
    fn default() -> Self {
        Blink {
            root: NodeId::new(0),
            pipeline_chunks: 8,
        }
    }
}

impl Blink {
    /// Packs edge-disjoint spanning trees rooted at `root`, growing `k`
    /// trees simultaneously over one global link pool and retrying with
    /// smaller `k` (from the root's degree downward) until all span.
    ///
    /// Edge `step` records the child's tree depth.
    fn pack_trees(&self, topo: &Topology) -> Vec<TreeBuild> {
        let n = topo.num_nodes();
        let max_k = topo.out_links(self.root.into()).len().max(1);
        let all = vec![true; n];
        'attempt: for k in (1..=max_k).rev() {
            let mut trees: Vec<TreeBuild> =
                (0..k).map(|_| TreeBuild::new(self.root, n)).collect();
            let mut depth: Vec<HashMap<NodeId, u32>> = (0..k)
                .map(|_| std::iter::once((self.root, 0)).collect())
                .collect();
            let mut pool: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
            while trees.iter().any(|t| !t.complete(n)) {
                let mut progress = false;
                for ti in 0..k {
                    if trees[ti].complete(n) {
                        continue;
                    }
                    let mut found = None;
                    for mi in 0..trees[ti].members.len() {
                        let p = trees[ti].members[mi].0;
                        if let Some((child, path)) =
                            bfs_to_participant(topo, &trees[ti], &all, p, &pool)
                        {
                            found = Some((p, child, path));
                            break;
                        }
                    }
                    if let Some((p, child, path)) = found {
                        for &l in &path {
                            pool[l.index()] -= 1;
                        }
                        let d = depth[ti][&p] + 1;
                        depth[ti].insert(child, d);
                        trees[ti].add(p, child, d, path);
                        progress = true;
                    }
                }
                if !progress {
                    continue 'attempt; // k infeasible, try fewer trees
                }
            }
            return trees;
        }
        Vec::new()
    }
}

impl AllReduce for Blink {
    fn name(&self) -> &'static str {
        "blink"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        if self.root.index() >= topo.num_nodes() {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: self.name(),
                reason: format!("root {} is not a node", self.root),
            });
        }
        let n = topo.num_nodes();
        if n < 2 {
            return Ok(CommSchedule::new(self.name(), n, 1));
        }
        let trees = self.pack_trees(topo);
        if trees.is_empty() {
            return Err(AlgorithmError::ConstructionFailed {
                algorithm: self.name(),
                reason: "could not pack any spanning tree (disconnected?)".into(),
            });
        }
        let k = trees.len();
        let pc = self.pipeline_chunks.max(1) as u32;
        let mut s = CommSchedule::new(self.name(), n, k as u32 * pc);
        lower_pipelined(topo, &trees, pc, &mut s)?;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CollectiveOp;
    use crate::verify::verify_schedule;

    #[test]
    fn blink_verifies_on_paper_topologies() {
        for topo in [
            Topology::torus(4, 4),
            Topology::mesh(4, 4),
            Topology::torus(8, 8),
            Topology::dgx2_like_16(),
        ] {
            let s = Blink::default().build(&topo).unwrap();
            verify_schedule(&s)
                .unwrap_or_else(|e| panic!("blink on {:?}: {e}", topo.kind()));
        }
    }

    #[test]
    fn packs_multiple_trees_on_regular_topologies() {
        // the root's degree caps the number of edge-disjoint trees; on a
        // 4-regular torus, simultaneous packing should find several
        let topo = Topology::torus(4, 4);
        let s = Blink::default().build(&topo).unwrap();
        let k = s.num_flows();
        assert!((2..=4).contains(&k), "packed {k} trees");
    }

    #[test]
    fn root_links_idle_during_reduce() {
        // §VIII's critique quantified: during the reduce phase the root
        // only receives — its outgoing links move no reduce traffic.
        let topo = Topology::torus(4, 4);
        let s = Blink::default().build(&topo).unwrap();
        let out_during_reduce = s
            .events()
            .filter(|e| e.op == CollectiveOp::Reduce && e.src == NodeId::new(0))
            .count();
        assert_eq!(out_during_reduce, 0);
    }

    #[test]
    fn alternative_roots_work() {
        let topo = Topology::torus(4, 4);
        for root in [5usize, 15] {
            let s = Blink {
                root: NodeId::new(root),
                ..Blink::default()
            }
            .build(&topo)
            .unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn bad_root_rejected() {
        let topo = Topology::torus(2, 2);
        let blink = Blink {
            root: NodeId::new(99),
            ..Blink::default()
        };
        assert!(blink.build(&topo).is_err());
    }

    #[test]
    fn single_node_empty() {
        let topo = Topology::mesh(1, 1);
        let s = Blink::default().build(&topo).unwrap();
        assert_eq!(s.num_events(), 0);
    }
}
