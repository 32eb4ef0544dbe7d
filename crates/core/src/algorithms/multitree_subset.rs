//! MultiTree over a subset of the nodes — hybrid-parallel training
//! support (paper §VII-B: "When the parallelism strategy and DNN workload
//! are determined, MULTITREE runs for the nodes that involve all-reduce
//! communication").
//!
//! Construction generalizes the indirect-network extension: a parent
//! looks for the nearest not-yet-added *participant* by breadth-first
//! search over **all** vertices through links still free in the current
//! time step — non-participant nodes and switches act as relays, and the
//! whole relay path is allocated, preserving per-step contention freedom.

use crate::algorithms::multitree::{
    lower_forest, Cursor, Forest, ForestScratch, MultiTree, Tree, TreeBuild,
};
use crate::error::AlgorithmError;
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, NodeId, Topology, Vertex};
use std::collections::VecDeque;

impl MultiTree {
    /// Builds an all-reduce schedule among `participants` only; the rest
    /// of the machine (other tenants' nodes, switches) is used purely as
    /// relay capacity.
    ///
    /// Data is split into one segment per participant; flow `r` is the
    /// tree rooted at the participant with rank `r` (ascending node id).
    ///
    /// ```
    /// use mt_topology::{NodeId, Topology};
    /// use multitree::algorithms::MultiTree;
    /// use multitree::verify::verify_allreduce_among;
    ///
    /// let topo = Topology::torus(4, 4);
    /// let half: Vec<NodeId> = (0..16).step_by(2).map(NodeId::new).collect();
    /// let schedule = MultiTree::default().build_among(&topo, &half)?;
    /// verify_allreduce_among(&schedule, &half)?;
    /// # Ok::<(), multitree::AlgorithmError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::ConstructionFailed`] if the participants
    /// are not mutually reachable, or [`AlgorithmError::UnsupportedTopology`]
    /// for an empty or duplicate participant list.
    pub fn build_among(
        &self,
        topo: &Topology,
        participants: &[NodeId],
    ) -> Result<CommSchedule, AlgorithmError> {
        let mut sorted: Vec<NodeId> = participants.to_vec();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        if sorted.is_empty() || sorted.len() != before {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: "multitree",
                reason: "participant list must be non-empty and duplicate-free".into(),
            });
        }
        if let Some(bad) = sorted.iter().find(|p| p.index() >= topo.num_nodes()) {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: "multitree",
                reason: format!("participant {bad} is not a node of the topology"),
            });
        }
        let k = sorted.len();
        let mut s = CommSchedule::new("multitree-subset", topo.num_nodes(), k.max(1) as u32);
        if k < 2 {
            return Ok(s);
        }
        let forest = self.construct_forest_among(topo, &sorted)?;
        let rank_of = |n: NodeId| -> u32 {
            sorted
                .binary_search(&n)
                .expect("tree roots are participants") as u32
        };
        lower_forest(topo, &forest, &mut s, &rank_of)?;
        Ok(s)
    }

    /// The forest construction behind [`MultiTree::build_among`]: one
    /// spanning tree (over the participants) per participant.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::ConstructionFailed`] if participants
    /// cannot all be connected.
    pub fn construct_forest_among(
        &self,
        topo: &Topology,
        participants: &[NodeId],
    ) -> Result<Forest, AlgorithmError> {
        self.construct_forest_among_with(topo, participants, &mut ForestScratch::new())
    }

    /// Scratch-reusing form of [`MultiTree::construct_forest_among`]:
    /// repeated subset constructions through the same [`ForestScratch`]
    /// (hierarchical composition, sweeps) reuse the link pool, cursors
    /// and relay-BFS buffers.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::ConstructionFailed`] if participants
    /// cannot all be connected.
    pub fn construct_forest_among_with(
        &self,
        topo: &Topology,
        participants: &[NodeId],
        s: &mut ForestScratch,
    ) -> Result<Forest, AlgorithmError> {
        let n = topo.num_nodes();
        let mut is_participant = vec![false; n];
        for p in participants {
            is_participant[p.index()] = true;
        }
        let mut trees: Vec<TreeBuild> = participants
            .iter()
            .map(|&r| TreeBuild::new(r, n))
            .collect();
        // non-participants can never "join", so completion = k members
        let k = participants.len();

        s.reset(topo, k);
        if self.bandwidth_aware {
            s.enable_rate_accrual(topo);
        }
        if k > 1 {
            s.active.extend(0..k);
        }

        let stall_limit = s.stall_allowance();
        let mut stalled: u32 = 0;
        let mut t: u32 = 0;
        while !s.active.is_empty() {
            t += 1;
            s.reset_pool(t);
            let mut added_this_step = false;
            let mut progress = true;
            while progress {
                progress = false;
                let mut completed = false;
                for idx in 0..s.active.len() {
                    let ti = s.active[idx];
                    if trees[ti].members.len() >= k {
                        continue;
                    }
                    if try_add_relayed_fast(
                        topo,
                        &mut trees[ti],
                        &is_participant,
                        t,
                        &mut s.pool,
                        &mut s.cursor[ti],
                        &mut s.relay_bfs,
                    ) {
                        progress = true;
                        added_this_step = true;
                        if trees[ti].members.len() >= k {
                            completed = true;
                        }
                    }
                }
                if completed {
                    s.active.retain(|&i| trees[i].members.len() < k);
                }
            }
            if added_this_step {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= stall_limit {
                    return Err(AlgorithmError::ConstructionFailed {
                        algorithm: "multitree",
                        reason: "participants are not mutually reachable".into(),
                    });
                }
            }
        }

        Ok(Forest {
            trees: trees
                .into_iter()
                .map(|tb| Tree {
                    root: tb.root,
                    edges: tb.edges,
                })
                .collect(),
            total_steps: t,
        })
    }

    /// The pre-optimization subset builder, kept verbatim as the
    /// differential oracle for the fast path above. Not public API.
    #[doc(hidden)]
    pub fn construct_forest_among_reference(
        &self,
        topo: &Topology,
        participants: &[NodeId],
    ) -> Result<Forest, AlgorithmError> {
        let n = topo.num_nodes();
        let mut is_participant = vec![false; n];
        for p in participants {
            is_participant[p.index()] = true;
        }
        let mut trees: Vec<TreeBuild> = participants
            .iter()
            .map(|&r| TreeBuild::new(r, n))
            .collect();
        let k = participants.len();

        let mut t: u32 = 0;
        while trees.iter().any(|tr| tr.members.len() < k) {
            t += 1;
            let mut pool: Vec<u32> = topo.links().iter().map(|l| l.capacity).collect();
            let mut added_this_step = false;
            let mut progress = true;
            while progress {
                progress = false;
                for tree in trees.iter_mut().filter(|tr| tr.members.len() < k) {
                    if try_add_relayed(topo, tree, &is_participant, t, &mut pool) {
                        progress = true;
                        added_this_step = true;
                    }
                }
            }
            if !added_this_step {
                return Err(AlgorithmError::ConstructionFailed {
                    algorithm: "multitree",
                    reason: "participants are not mutually reachable".into(),
                });
            }
        }

        Ok(Forest {
            trees: trees
                .into_iter()
                .map(|tb| Tree {
                    root: tb.root,
                    edges: tb.edges,
                })
                .collect(),
            total_steps: t,
        })
    }
}

/// Connects one new participant to `tree` at step `t` through the
/// nearest free relay path.
fn try_add_relayed(
    topo: &Topology,
    tree: &mut TreeBuild,
    is_participant: &[bool],
    t: u32,
    pool: &mut [u32],
) -> bool {
    for mi in 0..tree.members.len() {
        let (p, joined) = tree.members[mi];
        if joined >= t {
            continue;
        }
        if let Some((child, path)) = bfs_to_participant(topo, tree, is_participant, p, pool) {
            for &l in &path {
                pool[l.index()] -= 1;
            }
            tree.add(p, child, t, path);
            return true;
        }
    }
    false
}

/// Reusable relay-BFS buffers for the fast subset walker.
///
/// Visited flags are epoch-stamped (`mark[v] == epoch`), so starting a
/// new search is O(1) instead of the O(|V|) clear the old `Vec<bool>`
/// needed — at 16k vertices that clear dominated hierarchical
/// construction, which runs hundreds of thousands of these searches.
#[derive(Default)]
pub(crate) struct RelayBfs {
    prev: Vec<Option<LinkId>>,
    mark: Vec<u32>,
    epoch: u32,
    queue: VecDeque<Vertex>,
}

impl RelayBfs {
    fn reset(&mut self, num_vertices: usize) {
        if self.mark.len() != num_vertices {
            self.mark.clear();
            self.mark.resize(num_vertices, 0);
            self.prev.clear();
            self.prev.resize(num_vertices, None);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Floods pod `pod` from `from` through links with free capacity in
    /// `pool`, never leaving the pod. Afterwards [`RelayBfs::reached`]
    /// answers reachability and [`RelayBfs::path_to`] reconstructs the
    /// shortest free relay path from `from`. Used by the quotient
    /// inter-pod walker to realize quotient edges on concrete links.
    pub(crate) fn pod_flood(
        &mut self,
        topo: &Topology,
        part: &mt_topology::Partition,
        pod: usize,
        from: Vertex,
        pool: &[u32],
    ) {
        self.reset(topo.num_vertices());
        self.mark[topo.vertex_index(from)] = self.epoch;
        self.queue.push_back(from);
        while let Some(v) = self.queue.pop_front() {
            for (next, link) in topo.neighbors(v) {
                if pool[link.index()] == 0 {
                    continue;
                }
                let ni = topo.vertex_index(next);
                if self.mark[ni] == self.epoch || part.pod_of_vertex(next) != pod {
                    continue;
                }
                self.mark[ni] = self.epoch;
                self.prev[ni] = Some(link);
                self.queue.push_back(next);
            }
        }
    }

    /// True if the last [`RelayBfs::pod_flood`] reached `v`.
    pub(crate) fn reached(&self, topo: &Topology, v: Vertex) -> bool {
        self.mark[topo.vertex_index(v)] == self.epoch
    }

    /// The flood path `from -> to` recorded by the last
    /// [`RelayBfs::pod_flood`]; `to` must have been reached.
    pub(crate) fn path_to(&self, topo: &Topology, from: Vertex, to: Vertex) -> Vec<LinkId> {
        let start = topo.vertex_index(from);
        let mut path = Vec::new();
        let mut cur = topo.vertex_index(to);
        while cur != start {
            let l = self.prev[cur].expect("flood chain");
            path.push(l);
            cur = topo.vertex_index(topo.link(l).src);
        }
        path.reverse();
        path
    }

    /// Targeted BFS `from -> to` inside pod `pod` over links free in
    /// `pool`; returns the relay path (empty when `from == to`) or
    /// `None` if `to` is unreachable through free same-pod links.
    pub(crate) fn pod_route(
        &mut self,
        topo: &Topology,
        part: &mt_topology::Partition,
        pod: usize,
        from: Vertex,
        to: Vertex,
        pool: &[u32],
    ) -> Option<Vec<LinkId>> {
        if from == to {
            return Some(Vec::new());
        }
        self.reset(topo.num_vertices());
        let start = topo.vertex_index(from);
        self.mark[start] = self.epoch;
        self.queue.push_back(from);
        while let Some(v) = self.queue.pop_front() {
            for (next, link) in topo.neighbors(v) {
                if pool[link.index()] == 0 {
                    continue;
                }
                let ni = topo.vertex_index(next);
                if self.mark[ni] == self.epoch || part.pod_of_vertex(next) != pod {
                    continue;
                }
                self.mark[ni] = self.epoch;
                self.prev[ni] = Some(link);
                if next == to {
                    let mut path = Vec::new();
                    let mut cur = ni;
                    while cur != start {
                        let l = self.prev[cur].expect("bfs chain");
                        path.push(l);
                        cur = topo.vertex_index(topo.link(l).src);
                    }
                    path.reverse();
                    return Some(path);
                }
                self.queue.push_back(next);
            }
        }
        None
    }

    pub(crate) fn capacity_elements(&self) -> usize {
        self.prev.capacity() + self.mark.capacity() + self.queue.capacity()
    }
}

/// Cursor-driven variant of [`try_add_relayed`]: the same child and
/// relay path the reference picks, skipping members that already failed
/// this step (free links only drain and the membership only grows, so a
/// failed relay search stays failed until the next step).
#[allow(clippy::too_many_arguments)]
fn try_add_relayed_fast(
    topo: &Topology,
    tree: &mut TreeBuild,
    is_participant: &[bool],
    t: u32,
    pool: &mut [u32],
    cur: &mut Cursor,
    bfs: &mut RelayBfs,
) -> bool {
    if cur.step != t {
        cur.step = t;
        cur.scan_from = 0;
    }
    let mut mi = cur.scan_from;
    while mi < tree.members.len() {
        let (p, joined) = tree.members[mi];
        if joined >= t {
            // join order: everything from here on joined this step
            break;
        }
        if let Some((child, path)) =
            bfs_to_participant_with(topo, tree, is_participant, p, pool, bfs, None)
        {
            for &l in &path {
                pool[l.index()] -= 1;
            }
            tree.add(p, child, t, path);
            cur.scan_from = mi;
            return true;
        }
        mi += 1;
    }
    cur.scan_from = mi;
    false
}

/// [`try_add_relayed_fast`] with the relay search confined to a vertex
/// subset: only vertices with `allowed[vertex_index]` may relay or join.
/// The hierarchical composition uses this to keep every pod's tree (and
/// all of its relay paths) inside the pod's own links, which is what
/// makes the per-step capacity pools of different pods independent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_add_restricted(
    topo: &Topology,
    tree: &mut TreeBuild,
    is_participant: &[bool],
    allowed: &[bool],
    t: u32,
    pool: &mut [u32],
    cur: &mut Cursor,
    bfs: &mut RelayBfs,
) -> bool {
    if cur.step != t {
        cur.step = t;
        cur.scan_from = 0;
    }
    let mut mi = cur.scan_from;
    while mi < tree.members.len() {
        let (p, joined) = tree.members[mi];
        if joined >= t {
            break;
        }
        if let Some((child, path)) =
            bfs_to_participant_with(topo, tree, is_participant, p, pool, bfs, Some(allowed))
        {
            for &l in &path {
                pool[l.index()] -= 1;
            }
            tree.add(p, child, t, path);
            cur.scan_from = mi;
            return true;
        }
        mi += 1;
    }
    cur.scan_from = mi;
    false
}

/// Buffer-reusing twin of [`bfs_to_participant`] used by the fast path;
/// the allocating original stays behind as the oracle's walker (and for
/// the Blink baseline). With `allowed` set, the search never leaves the
/// given vertex subset.
fn bfs_to_participant_with(
    topo: &Topology,
    tree: &TreeBuild,
    is_participant: &[bool],
    p: NodeId,
    pool: &[u32],
    bfs: &mut RelayBfs,
    allowed: Option<&[bool]>,
) -> Option<(NodeId, Vec<LinkId>)> {
    let start = topo.vertex_index(p.into());
    bfs.reset(topo.num_vertices());
    bfs.mark[start] = bfs.epoch;
    bfs.queue.push_back(Vertex::from(p));
    while let Some(v) = bfs.queue.pop_front() {
        for (next, link) in topo.neighbors(v) {
            if pool[link.index()] == 0 {
                continue;
            }
            let ni = topo.vertex_index(next);
            if bfs.mark[ni] == bfs.epoch {
                continue;
            }
            if let Some(a) = allowed {
                if !a[ni] {
                    continue;
                }
            }
            bfs.mark[ni] = bfs.epoch;
            bfs.prev[ni] = Some(link);
            if let Some(c) = next.as_node() {
                if is_participant[c.index()] && !tree.in_tree[c.index()] {
                    // reconstruct p -> c path
                    let mut path = Vec::new();
                    let mut cur = ni;
                    while cur != start {
                        let l = bfs.prev[cur].expect("bfs chain");
                        path.push(l);
                        cur = topo.vertex_index(topo.link(l).src);
                    }
                    path.reverse();
                    return Some((c, path));
                }
            }
            bfs.queue.push_back(next);
        }
    }
    None
}

/// BFS from `p` over all vertices through free links; the first
/// not-yet-added participant reached becomes the child. Returns the full
/// relay link path without consuming capacity. (Also used by the Blink
/// baseline's tree packing.)
pub(crate) fn bfs_to_participant(
    topo: &Topology,
    tree: &TreeBuild,
    is_participant: &[bool],
    p: NodeId,
    pool: &[u32],
) -> Option<(NodeId, Vec<LinkId>)> {
    let nv = topo.num_vertices();
    let start = topo.vertex_index(p.into());
    let mut prev: Vec<Option<LinkId>> = vec![None; nv];
    let mut seen = vec![false; nv];
    seen[start] = true;
    let mut q = VecDeque::new();
    q.push_back(Vertex::from(p));
    while let Some(v) = q.pop_front() {
        for (next, link) in topo.neighbors(v) {
            if pool[link.index()] == 0 {
                continue;
            }
            let ni = topo.vertex_index(next);
            if seen[ni] {
                continue;
            }
            seen[ni] = true;
            prev[ni] = Some(link);
            if let Some(c) = next.as_node() {
                if is_participant[c.index()] && !tree.in_tree[c.index()] {
                    // reconstruct p -> c path
                    let mut path = Vec::new();
                    let mut cur = ni;
                    while cur != start {
                        let l = prev[cur].expect("bfs chain");
                        path.push(l);
                        cur = topo.vertex_index(topo.link(l).src);
                    }
                    path.reverse();
                    return Some((c, path));
                }
            }
            q.push_back(next);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::analyze;
    use crate::verify::verify_allreduce_among;
    use std::collections::HashMap;

    fn participants(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn subset_allreduce_verifies_on_torus() {
        let topo = Topology::torus(4, 4);
        // a scattered half of the machine
        let subset = participants(&[0, 2, 5, 7, 8, 10, 13, 15]);
        let s = MultiTree::default().build_among(&topo, &subset).unwrap();
        verify_allreduce_among(&s, &subset).unwrap();
        assert_eq!(s.num_flows(), 8);
    }

    #[test]
    fn subset_allreduce_verifies_on_fattree() {
        let topo = Topology::fat_tree_64();
        let subset: Vec<NodeId> = (0..64).step_by(3).map(NodeId::new).collect();
        let s = MultiTree::default().build_among(&topo, &subset).unwrap();
        verify_allreduce_among(&s, &subset).unwrap();
    }

    #[test]
    fn relay_paths_stay_within_step_capacity() {
        let topo = Topology::torus(4, 4);
        let subset = participants(&[0, 3, 12, 15]); // the four corners
        let forest = MultiTree::default()
            .construct_forest_among(&topo, &subset)
            .unwrap();
        let mut usage: HashMap<(u32, usize), u32> = HashMap::new();
        for tree in &forest.trees {
            assert_eq!(tree.len(), 4);
            for e in &tree.edges {
                assert!(!e.path.is_empty(), "corner-to-corner edges are relayed");
                for &l in &e.path {
                    *usage.entry((e.step, l.index())).or_insert(0) += 1;
                }
            }
        }
        for ((step, l), count) in usage {
            assert!(
                count <= topo.links()[l].capacity,
                "link {l} over-allocated at step {step}"
            );
        }
        // and lowered schedule is contention-free + correct
        let s = MultiTree::default().build_among(&topo, &subset).unwrap();
        verify_allreduce_among(&s, &subset).unwrap();
        let stats = analyze(&s, &topo, 1 << 20);
        assert!(stats.is_contention_free());
    }

    #[test]
    fn full_set_matches_regular_construction_semantics() {
        use crate::algorithms::AllReduce;
        let topo = Topology::torus(4, 4);
        let everyone: Vec<NodeId> = topo.node_ids().collect();
        let sub = MultiTree::default().build_among(&topo, &everyone).unwrap();
        let full = MultiTree::default().build(&topo).unwrap();
        verify_allreduce_among(&sub, &everyone).unwrap();
        assert_eq!(sub.num_flows(), full.num_flows());
        assert_eq!(sub.events().len(), full.events().len());
    }

    #[test]
    fn rejects_bad_participant_lists() {
        let topo = Topology::torus(2, 2);
        assert!(MultiTree::default().build_among(&topo, &[]).is_err());
        assert!(MultiTree::default()
            .build_among(&topo, &participants(&[0, 0]))
            .is_err());
        assert!(MultiTree::default()
            .build_among(&topo, &participants(&[0, 99]))
            .is_err());
    }

    #[test]
    fn single_participant_is_trivial() {
        let topo = Topology::torus(2, 2);
        let s = MultiTree::default()
            .build_among(&topo, &participants(&[1]))
            .unwrap();
        assert_eq!(s.num_events(), 0);
    }

    #[test]
    fn two_distant_participants_exchange_via_relays() {
        let topo = Topology::mesh(4, 4);
        let subset = participants(&[0, 15]);
        let s = MultiTree::default().build_among(&topo, &subset).unwrap();
        verify_allreduce_among(&s, &subset).unwrap();
        // the events cross 6 physical links each (mesh corner to corner)
        for e in s.events() {
            assert_eq!(e.path.as_ref().unwrap().len(), 6);
        }
    }
}
