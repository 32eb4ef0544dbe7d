//! Double binary tree all-reduce (Sanders et al., implemented in NCCL).

use crate::algorithms::AllReduce;
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Topology-oblivious double binary tree all-reduce (paper §II-C, Fig. 4b).
///
/// Two logical binary trees are built over the ranks such that the leaves
/// of one tree are interior nodes of the other; each tree reduces and then
/// broadcasts half of the data, pipelined over
/// [`DbTree::pipeline_chunks`] chunks. Following the paper's observation,
/// the trees schedule their communication on alternating even/odd time
/// steps so a node never sends in both trees simultaneously.
///
/// Because the trees ignore the physical topology, logical edges can span
/// multiple physical hops (events carry no explicit path — the simulator
/// routes them), which is exactly the source of the congestion the paper
/// measures on Torus/Mesh networks.
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, DbTree};
///
/// let schedule = DbTree::with_pipeline(4).build(&Topology::torus(4, 4))?;
/// assert_eq!(schedule.num_flows(), 2); // two complementary trees
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbTree {
    /// Number of pipeline chunks per tree half (≥ 1). More chunks
    /// approach bandwidth optimality at the cost of more steps.
    pub pipeline_chunks: usize,
}

impl Default for DbTree {
    fn default() -> Self {
        DbTree { pipeline_chunks: 8 }
    }
}

impl DbTree {
    /// DBTree with an explicit pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `pipeline_chunks == 0`.
    pub fn with_pipeline(pipeline_chunks: usize) -> Self {
        assert!(pipeline_chunks >= 1, "pipeline needs at least one chunk");
        DbTree { pipeline_chunks }
    }

    /// Builds the two trees over `n` ranks: `(parent_of_tree0,
    /// parent_of_tree1)`, each a vector where entry `r` is rank `r`'s
    /// parent (`None` for the root).
    ///
    /// Tree 0 is the classic "maximum trailing zeros" recursive tree over
    /// labels `1..=n` (odd labels are leaves); tree 1 is the same tree
    /// under a cyclic rank shift by one, so every even-rank leaf of tree 0
    /// is interior in tree 1 and vice versa (exact complement for even
    /// `n`, near-complement for odd `n`).
    pub fn build_trees(n: usize) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let mut parent1 = vec![None; n];
        build_interval(1, n, &mut |child_label, parent_label| {
            parent1[child_label - 1] = Some(parent_label - 1);
        });
        let mut parent2 = vec![None; n];
        for r in 0..n {
            if let Some(p) = parent1[r] {
                parent2[(r + 1) % n] = Some((p + 1) % n);
            }
        }
        (parent1, parent2)
    }
}

/// Recursively builds the max-trailing-zeros tree over labels `lo..=hi`,
/// reporting `(child, parent)` label pairs; returns the interval's root.
fn build_interval(lo: usize, hi: usize, emit: &mut impl FnMut(usize, usize)) -> Option<usize> {
    if lo > hi {
        return None;
    }
    // The unique element with maximum trailing zeros in [lo, hi].
    let root = (lo..=hi)
        .max_by_key(|v| v.trailing_zeros())
        .expect("non-empty interval");
    if let Some(l) = build_interval(lo, root - 1, emit) {
        emit(l, root);
    }
    if let Some(r) = build_interval(root + 1, hi, emit) {
        emit(r, root);
    }
    Some(root)
}

impl AllReduce for DbTree {
    fn name(&self) -> &'static str {
        "dbtree"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let k = self.pipeline_chunks as u32;
        let mut s = CommSchedule::new(self.name(), n, (2 * k).max(1));
        if n < 2 {
            return Ok(s);
        }
        let (p1, p2) = DbTree::build_trees(n);

        for (ti, parent) in [p1, p2].into_iter().enumerate() {
            let flow = FlowId(ti);
            let parity = ti as u32; // tree 0 on odd steps, tree 1 on even
            let children: Vec<Vec<usize>> = children_of(&parent);
            let ecc = downward_ecc(&parent, &children);
            let root = parent
                .iter()
                .position(|p| p.is_none())
                .expect("tree must have a root");
            let height = ecc[root];
            // rounds 1..=K+H-1 for reduce, then broadcast
            let r0 = k + height.saturating_sub(1);

            // last reduce event per (node, chunk): node's send of that chunk
            let mut reduce_of: HashMap<(usize, u32), EventId> = HashMap::new();
            // --- Reduce phase: node v sends chunk c at round c + ecc(v),
            // processed in round order so dependencies already exist.
            let mut reduce_sends: Vec<(u32, usize, u32)> = Vec::new(); // (round, node, chunk)
            for (v, &e) in ecc.iter().enumerate() {
                if v == root {
                    continue;
                }
                for c in 1..=k {
                    reduce_sends.push((c + e, v, c));
                }
            }
            reduce_sends.sort_unstable();
            for (round, v, c) in reduce_sends {
                let deps = children[v].iter().map(|&ch| reduce_of[&(ch, c)]);
                let seg = ti as u32 * k + (c - 1);
                let id = s.push_event(
                    NodeId::new(v),
                    NodeId::new(parent[v].expect("non-root has parent")),
                    flow,
                    CollectiveOp::Reduce,
                    ChunkRange::single(seg),
                    2 * round - 1 + parity,
                    deps,
                    None,
                );
                reduce_of.insert((v, c), id);
            }

            // --- Broadcast phase: node v (depth d) sends chunk c to each
            // child at round r0 + c + d.
            let depth = depths(&parent);
            let mut gather_of: HashMap<(usize, u32), EventId> = HashMap::new();
            let mut bcast_sends: Vec<(u32, usize, u32)> = Vec::new();
            for v in 0..n {
                if children[v].is_empty() {
                    continue;
                }
                for c in 1..=k {
                    bcast_sends.push((r0 + c + depth[v], v, c));
                }
            }
            bcast_sends.sort_unstable();
            let mut deps: Vec<EventId> = Vec::new();
            for (round, v, c) in bcast_sends {
                deps.clear();
                if v == root {
                    deps.extend(children[v].iter().map(|&ch| reduce_of[&(ch, c)]));
                } else {
                    deps.push(gather_of[&(v, c)]);
                }
                let seg = ti as u32 * k + (c - 1);
                for &ch in &children[v] {
                    let id = s.push_event(
                        NodeId::new(v),
                        NodeId::new(ch),
                        flow,
                        CollectiveOp::Gather,
                        ChunkRange::single(seg),
                        2 * round - 1 + parity,
                        deps.iter().copied(),
                        None,
                    );
                    gather_of.insert((ch, c), id);
                }
            }
        }
        Ok(s)
    }
}

/// Children lists from a parent vector.
fn children_of(parent: &[Option<usize>]) -> Vec<Vec<usize>> {
    let mut ch = vec![Vec::new(); parent.len()];
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            ch[*p].push(v);
        }
    }
    ch
}

/// Longest downward path (to a leaf) from every node.
fn downward_ecc(parent: &[Option<usize>], children: &[Vec<usize>]) -> Vec<u32> {
    let n = parent.len();
    let mut ecc = vec![0u32; n];
    // process nodes in decreasing subtree order via simple fixpoint
    // (trees are shallow: O(H) passes)
    let mut changed = true;
    while changed {
        changed = false;
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let want = children[v].iter().map(|&c| ecc[c] + 1).max().unwrap_or(0);
            if ecc[v] != want {
                ecc[v] = want;
                changed = true;
            }
        }
    }
    ecc
}

/// Depth of every node below the tree root.
fn depths(parent: &[Option<usize>]) -> Vec<u32> {
    let n = parent.len();
    let mut d = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        let mut cur = v;
        let mut depth = 0;
        while let Some(p) = parent[cur] {
            depth += 1;
            cur = p;
            assert!(depth as usize <= n, "cycle in tree parent vector");
        }
        d[v] = depth;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;

    #[test]
    fn trees_are_complementary_for_even_n() {
        for n in [2usize, 4, 8, 16, 64] {
            let (p1, p2) = DbTree::build_trees(n);
            let ch1 = children_of(&p1);
            let ch2 = children_of(&p2);
            for v in 0..n {
                let leaf1 = ch1[v].is_empty();
                let leaf2 = ch2[v].is_empty();
                assert!(
                    !(leaf1 && leaf2),
                    "rank {v} is a leaf in both trees (n={n})"
                );
            }
        }
    }

    #[test]
    fn trees_are_binary() {
        for n in [4usize, 16, 64, 256] {
            let (p1, p2) = DbTree::build_trees(n);
            for p in [p1, p2] {
                for ch in children_of(&p) {
                    assert!(ch.len() <= 2, "more than two children");
                }
                assert_eq!(p.iter().filter(|x| x.is_none()).count(), 1, "one root");
            }
        }
    }

    #[test]
    fn tree_height_is_logarithmic() {
        for n in [16usize, 64, 256] {
            let (p1, _) = DbTree::build_trees(n);
            let ch = children_of(&p1);
            let root = p1.iter().position(|p| p.is_none()).unwrap();
            let h = downward_ecc(&p1, &ch)[root];
            assert!(
                h as usize <= usize::BITS as usize - (n.leading_zeros() as usize) + 1,
                "height {h} too large for n={n}"
            );
        }
    }

    #[test]
    fn dbtree_verifies_everywhere() {
        for topo in [
            Topology::torus(4, 4),
            Topology::mesh(4, 4),
            Topology::dgx2_like_16(),
            Topology::bigraph_32(),
        ] {
            let s = DbTree::default().build(&topo).unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn dbtree_verifies_with_one_chunk() {
        let topo = Topology::torus(4, 4);
        let s = DbTree::with_pipeline(1).build(&topo).unwrap();
        verify_schedule(&s).unwrap();
    }

    #[test]
    fn odd_node_count_still_verifies() {
        let topo = Topology::mesh(3, 3);
        let s = DbTree::default().build(&topo).unwrap();
        verify_schedule(&s).unwrap();
    }

    #[test]
    fn even_odd_step_split() {
        // tree 0 events on odd steps, tree 1 on even steps
        let topo = Topology::torus(4, 4);
        let s = DbTree::default().build(&topo).unwrap();
        for e in s.events() {
            if e.flow.0 == 0 {
                assert_eq!(e.step % 2, 1, "tree 0 must use odd steps");
            } else {
                assert_eq!(e.step % 2, 0, "tree 1 must use even steps");
            }
        }
    }

    #[test]
    fn each_tree_carries_half_the_data() {
        let topo = Topology::torus(4, 4);
        let s = DbTree::with_pipeline(4).build(&topo).unwrap();
        assert_eq!(s.total_segments(), 8);
        let half: Vec<_> = s.events().filter(|e| e.flow.0 == 0).collect();
        assert!(half.iter().all(|e| e.chunk.start < 4));
    }

    #[test]
    fn logical_edges_may_span_hops() {
        // The topology-obliviousness: some tree edge is multi-hop on a
        // torus — the root cause of DBTree congestion in the paper.
        let topo = Topology::torus(4, 4);
        let s = DbTree::default().build(&topo).unwrap();
        let multi_hop = s
            .events()
            .any(|e| topo.distance(e.src.into(), e.dst.into()).unwrap() > 1);
        assert!(multi_hop);
    }
}
