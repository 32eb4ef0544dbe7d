//! Collectives beyond all-reduce (paper §VII-B, "Broader Applications").
//!
//! The paper notes that MultiTree's machinery "naturally supports"
//! reduce-scatter and all-gather for hybrid-parallel training, and that
//! "the all-gather trees can also easily support all-to-all collective in
//! recent DNN workloads such as DLRM". This module builds those
//! collectives from the same [`Forest`](crate::algorithms::Forest) the
//! all-reduce uses, plus kind-aware semantic verification.
//!
//! * [`MultiTree::build_reduce_scatter`] — the reduction half only:
//!   segment `i` ends fully reduced at node `i`;
//! * [`MultiTree::build_all_gather`] — the broadcast half only: node `i`
//!   starts owning segment `i`, everyone ends with all segments;
//! * [`MultiTree::build_broadcast`] — one root's tree distributes the
//!   whole payload;
//! * [`MultiTree::build_all_to_all`] — personalized exchange: node `i`
//!   holds a distinct chunk for every peer; tree `i` routes them, with
//!   per-subtree chunks shrinking toward the leaves (segments are
//!   relabeled in per-tree DFS order so every subtree is a contiguous
//!   [`ChunkRange`]).

use crate::algorithms::{ForestEdge, MultiTree, Tree, TreeLowering};
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use crate::verify::{is_subset, node_mask, run_dataflow};
use mt_topology::{NodeId, Topology};
use std::collections::HashMap;

/// An all-to-all plan: the schedule plus the segment→(source, destination)
/// mapping needed to verify delivery.
#[derive(Debug, Clone)]
pub struct AllToAllPlan {
    /// The communication schedule.
    pub schedule: CommSchedule,
    /// For each segment, the node whose buffer it originates from.
    pub src_of: Vec<NodeId>,
    /// For each segment, the node that must end up holding it.
    pub dst_of: Vec<NodeId>,
}

impl MultiTree {
    /// Builds a reduce-scatter schedule: after execution, node `i` holds
    /// the fully reduced segment `i` (and only that obligation).
    ///
    /// # Errors
    ///
    /// Propagates forest-construction failures.
    pub fn build_reduce_scatter(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let mut s = CommSchedule::new("multitree-reduce-scatter", n, n.max(1) as u32);
        if n < 2 {
            return Ok(s);
        }
        let forest = self.construct_forest(topo)?;
        let tot = forest.total_steps;
        let mut rev = Vec::new();
        for tree in &forest.trees {
            let flow = FlowId(tree.root.index());
            let chunk = ChunkRange::single(tree.root.index() as u32);
            let mut edges: Vec<_> = tree.edges.iter().collect();
            edges.sort_by_key(|e| std::cmp::Reverse(e.step));
            let mut reduces_into: HashMap<NodeId, Vec<EventId>> = HashMap::new();
            for e in edges {
                let deps = reduces_into.get(&e.child).map_or(&[][..], Vec::as_slice);
                rev.clear();
                rev.extend(e.path.iter().rev().map(|&l| reverse_of(topo, l)));
                let id = s.push_event(
                    e.child,
                    e.parent,
                    flow,
                    CollectiveOp::Reduce,
                    chunk,
                    tot - e.step + 1,
                    deps.iter().copied(),
                    Some(&rev),
                );
                reduces_into.entry(e.parent).or_default().push(id);
            }
        }
        Ok(s)
    }

    /// Builds an all-gather schedule: node `i` starts with segment `i`
    /// already complete and broadcasts it down its tree.
    ///
    /// # Errors
    ///
    /// Propagates forest-construction failures.
    pub fn build_all_gather(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let mut s = CommSchedule::new("multitree-all-gather", n, n.max(1) as u32);
        if n < 2 {
            return Ok(s);
        }
        let forest = self.construct_forest(topo)?;
        let mut low = TreeLowering::new(n);
        for tree in &forest.trees {
            let flow = FlowId(tree.root.index());
            let chunk = ChunkRange::single(tree.root.index() as u32);
            low.clear();
            low.gather(&mut s, tree, flow, |_| chunk, 0, &[]);
        }
        Ok(s)
    }

    /// Builds a broadcast of the whole payload from `root` along its
    /// schedule tree.
    ///
    /// # Errors
    ///
    /// Propagates forest-construction failures.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a node of the topology.
    pub fn build_broadcast(
        &self,
        topo: &Topology,
        root: NodeId,
    ) -> Result<CommSchedule, AlgorithmError> {
        assert!(root.index() < topo.num_nodes(), "root out of range");
        let n = topo.num_nodes();
        let mut s = CommSchedule::new("multitree-broadcast", n, 1);
        if n < 2 {
            return Ok(s);
        }
        let forest = self.construct_forest(topo)?;
        let tree = &forest.trees[root.index()];
        let whole = ChunkRange::new(0, 1);
        TreeLowering::new(n).gather(&mut s, tree, FlowId(root.index()), |_| whole, 0, &[]);
        Ok(s)
    }

    /// Builds a personalized all-to-all: node `i`'s buffer holds one
    /// distinct chunk per peer; tree `i` delivers them, intermediate
    /// nodes forwarding their subtrees' chunks.
    ///
    /// ```
    /// use mt_topology::Topology;
    /// use multitree::algorithms::MultiTree;
    /// use multitree::collective::verify_all_to_all;
    ///
    /// let plan = MultiTree::default().build_all_to_all(&Topology::torus(4, 4))?;
    /// verify_all_to_all(&plan)?; // every (src, dst) chunk provably delivered
    /// # Ok::<(), multitree::AlgorithmError>(())
    /// ```
    ///
    /// Segment numbering: block `i` (`i·n .. (i+1)·n`) carries node `i`'s
    /// outgoing data, ordered by the DFS position of the receiving node
    /// in tree `i` (position 0 = `i` itself, i.e. data kept locally and
    /// never sent).
    ///
    /// # Errors
    ///
    /// Propagates forest-construction failures.
    pub fn build_all_to_all(&self, topo: &Topology) -> Result<AllToAllPlan, AlgorithmError> {
        let n = topo.num_nodes();
        let mut s = CommSchedule::new("multitree-all-to-all", n, (n * n).max(1) as u32);
        let mut src_of = vec![NodeId::new(0); n * n];
        let mut dst_of = vec![NodeId::new(0); n * n];
        if n < 2 {
            return Ok(AllToAllPlan {
                schedule: s,
                src_of,
                dst_of,
            });
        }
        let forest = self.construct_forest(topo)?;
        let mut low = TreeLowering::new(n);
        for tree in &forest.trees {
            let i = tree.root.index();
            // DFS positions make every subtree a contiguous segment range.
            let (pos, subtree_size) = dfs_layout(tree);
            for (node_idx, &p) in pos.iter().enumerate() {
                let seg = i * n + p;
                src_of[seg] = tree.root;
                dst_of[seg] = NodeId::new(node_idx);
            }
            // Every tree edge forwards the chunks destined to the child's
            // subtree: segments [i*n + pos(child), i*n + pos(child) + size).
            let subtree = |e: &ForestEdge| {
                let lo = (i * n + pos[e.child.index()]) as u32;
                ChunkRange::new(lo, lo + subtree_size[e.child.index()] as u32)
            };
            low.clear();
            low.gather(&mut s, tree, FlowId(i), subtree, 0, &[]);
        }
        Ok(AllToAllPlan {
            schedule: s,
            src_of,
            dst_of,
        })
    }
}

/// The reverse link of `l` (first match; parallel links are not needed
/// here because reduce-scatter uses each reverse at most as often as the
/// forward allocation used the forward link).
fn reverse_of(topo: &Topology, l: mt_topology::LinkId) -> mt_topology::LinkId {
    let link = topo.link(l);
    topo.find_link(link.dst, link.src)
        .expect("paper topologies are bidirectional")
}

/// DFS positions and subtree sizes for a tree (children in edge order).
fn dfs_layout(tree: &Tree) -> (Vec<usize>, Vec<usize>) {
    let max_node = tree
        .edges
        .iter()
        .flat_map(|e| [e.parent.index(), e.child.index()])
        .chain([tree.root.index()])
        .max()
        .unwrap_or(0);
    let mut pos = vec![0usize; max_node + 1];
    let mut size = vec![0usize; max_node + 1];
    let mut counter = 0usize;
    fn dfs(
        node: NodeId,
        tree: &Tree,
        counter: &mut usize,
        pos: &mut [usize],
        size: &mut [usize],
    ) -> usize {
        pos[node.index()] = *counter;
        *counter += 1;
        let mut total = 1;
        for child in tree.children(node) {
            total += dfs(child, tree, counter, pos, size);
        }
        size[node.index()] = total;
        total
    }
    dfs(tree.root, tree, &mut counter, &mut pos, &mut size);
    (pos, size)
}

/// Verifies a reduce-scatter schedule: under dependency-strict dataflow,
/// for every flow the tree root ends with all `n` contributions for its
/// segment.
///
/// # Errors
///
/// Returns [`AlgorithmError::VerificationFailed`] naming the first
/// segment that is not fully reduced anywhere.
pub fn verify_reduce_scatter(schedule: &CommSchedule) -> Result<(), AlgorithmError> {
    let flow = run_dataflow(schedule, |i| match schedule.ops()[i] {
        CollectiveOp::Reduce => Ok(()),
        CollectiveOp::Gather => Err(AlgorithmError::MalformedSchedule {
            detail: format!(
                "reduce-scatter schedule contains a gather: {}",
                schedule.event(EventId::new(i))
            ),
        }),
    })?;
    let n = schedule.num_nodes();
    let everyone = node_mask(n, 0..n);
    for seg in 0..schedule.total_segments() as usize {
        let owner_has_all = (0..n).any(|node| is_subset(&everyone, flow.set(node, seg)));
        if !owner_has_all {
            return Err(AlgorithmError::VerificationFailed {
                detail: format!("segment {seg} is not fully reduced at any node"),
            });
        }
    }
    Ok(())
}

/// Verifies a distribution schedule (all-gather / broadcast /
/// all-to-all): data moves by copying, and every `(segment, required
/// destination)` pair must be reachable through declared dependencies
/// from the segment's owner.
///
/// `owner_of(seg)` is the node whose buffer the segment starts in;
/// `must_receive(seg)` lists the nodes that must hold it afterwards.
///
/// # Errors
///
/// Returns [`AlgorithmError::VerificationFailed`] for undeclared data
/// movement or missing deliveries.
pub fn verify_distribution(
    schedule: &CommSchedule,
    owner_of: impl Fn(u32) -> NodeId,
    must_receive: impl Fn(u32) -> Vec<NodeId>,
) -> Result<(), AlgorithmError> {
    schedule.validate()?;
    let n = schedule.num_nodes();
    let segs = schedule.total_segments();
    let mut has = vec![vec![false; segs as usize]; n];
    for seg in 0..segs {
        has[owner_of(seg).index()][seg as usize] = true;
    }
    // events are checked in topological order and the first undeclared
    // forward fails, so every earlier delivery carries real data
    for e in schedule.events() {
        for seg in e.chunk.segments() {
            let via_dep = e.deps().iter().any(|d| {
                let dep = schedule.event(*d);
                dep.dst == e.src && dep.chunk.contains(seg)
            });
            if owner_of(seg) != e.src && !via_dep {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!("{e} forwards segment {seg} it never validly received"),
                });
            }
            has[e.dst.index()][seg as usize] = true;
        }
    }
    for seg in 0..segs {
        for node in must_receive(seg) {
            if !has[node.index()][seg as usize] {
                return Err(AlgorithmError::VerificationFailed {
                    detail: format!("node {node} never receives segment {seg}"),
                });
            }
        }
    }
    Ok(())
}

/// Verifies an [`AllToAllPlan`]: every personalized chunk reaches exactly
/// its destination through declared dependencies.
///
/// # Errors
///
/// See [`verify_distribution`].
pub fn verify_all_to_all(plan: &AllToAllPlan) -> Result<(), AlgorithmError> {
    verify_distribution(
        &plan.schedule,
        |seg| plan.src_of[seg as usize],
        |seg| {
            let dst = plan.dst_of[seg as usize];
            if dst == plan.src_of[seg as usize] {
                vec![]
            } else {
                vec![dst]
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::analyze;

    fn topologies() -> Vec<Topology> {
        vec![
            Topology::torus(4, 4),
            Topology::mesh(3, 3),
            Topology::dgx2_like_16(),
            Topology::bigraph_32(),
        ]
    }

    #[test]
    fn reduce_scatter_verifies() {
        for topo in topologies() {
            let s = MultiTree::default().build_reduce_scatter(&topo).unwrap();
            verify_reduce_scatter(&s).unwrap();
            assert_eq!(s.num_flows(), topo.num_nodes());
        }
    }

    #[test]
    fn reduce_scatter_is_half_the_allreduce() {
        use crate::algorithms::AllReduce;
        let topo = Topology::torus(4, 4);
        let rs = MultiTree::default().build_reduce_scatter(&topo).unwrap();
        let ar = MultiTree::default().build(&topo).unwrap();
        assert_eq!(rs.events().len() * 2, ar.events().len());
        assert_eq!(rs.num_steps() * 2, ar.num_steps());
    }

    #[test]
    fn all_gather_verifies() {
        for topo in topologies() {
            let s = MultiTree::default().build_all_gather(&topo).unwrap();
            let n = topo.num_nodes();
            verify_distribution(
                &s,
                |seg| NodeId::new(seg as usize),
                |seg| {
                    (0..n)
                        .filter(|&i| i != seg as usize)
                        .map(NodeId::new)
                        .collect()
                },
            )
            .unwrap();
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for topo in topologies() {
            for root in [0usize, topo.num_nodes() - 1] {
                let s = MultiTree::default()
                    .build_broadcast(&topo, NodeId::new(root))
                    .unwrap();
                let n = topo.num_nodes();
                verify_distribution(
                    &s,
                    |_| NodeId::new(root),
                    |_| (0..n).filter(|&i| i != root).map(NodeId::new).collect(),
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn all_to_all_delivers_every_pair() {
        for topo in topologies() {
            let plan = MultiTree::default().build_all_to_all(&topo).unwrap();
            verify_all_to_all(&plan).unwrap();
            let n = topo.num_nodes();
            assert_eq!(plan.schedule.total_segments() as usize, n * n);
        }
    }

    #[test]
    fn all_to_all_volume_shrinks_toward_leaves() {
        // a root's first sends carry whole subtrees; leaf edges carry one
        // segment
        let topo = Topology::torus(4, 4);
        let plan = MultiTree::default().build_all_to_all(&topo).unwrap();
        let max = plan.schedule.events().map(|e| e.chunk.len()).max().unwrap();
        let min = plan.schedule.events().map(|e| e.chunk.len()).min().unwrap();
        assert!(max > min);
        assert_eq!(min, 1);
    }

    #[test]
    fn collectives_remain_contention_free_per_step() {
        let topo = Topology::torus(4, 4);
        for s in [
            MultiTree::default().build_reduce_scatter(&topo).unwrap(),
            MultiTree::default().build_all_gather(&topo).unwrap(),
        ] {
            let stats = analyze(&s, &topo, 1 << 20);
            assert!(stats.is_contention_free(), "{}: {stats:?}", s.algorithm());
        }
    }

    #[test]
    fn distribution_catches_undeclared_forwarding() {
        // node 1 forwards segment 0 without a dependency on receiving it
        let mut s = CommSchedule::new("bad", 3, 1);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Gather,
            ChunkRange::single(0),
            1,
            vec![],
            None,
        );
        s.push_event(
            NodeId::new(1),
            NodeId::new(2),
            FlowId(0),
            CollectiveOp::Gather,
            ChunkRange::single(0),
            2,
            vec![],
            None,
        );
        let err = verify_distribution(
            &s,
            |_| NodeId::new(0),
            |_| vec![NodeId::new(1), NodeId::new(2)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("never validly received"));
    }

    #[test]
    fn reduce_scatter_then_all_gather_is_an_all_reduce() {
        // compositionality: RS ∘ AG == all-reduce, end to end
        use crate::verify::verify_schedule;
        for topo in [Topology::torus(4, 4), Topology::dgx2_like_16()] {
            let rs = MultiTree::default().build_reduce_scatter(&topo).unwrap();
            let ag = MultiTree::default().build_all_gather(&topo).unwrap();
            let composed = rs.then(&ag);
            verify_schedule(&composed)
                .unwrap_or_else(|e| panic!("{:?}: {e}", topo.kind()));
            assert_eq!(
                composed.num_steps(),
                rs.num_steps() + ag.num_steps()
            );
        }
    }

    #[test]
    fn single_node_collectives_are_empty() {
        let topo = Topology::mesh(1, 1);
        assert!(
            MultiTree::default()
                .build_reduce_scatter(&topo)
                .unwrap()
                .num_events()
                == 0
        );
        assert!(
            MultiTree::default()
                .build_all_to_all(&topo)
                .unwrap()
                .schedule
                .num_events()
                == 0
        );
    }
}
