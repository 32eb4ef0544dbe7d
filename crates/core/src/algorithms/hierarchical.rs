//! Hierarchical MultiTree composition for datacenter-scale machines.
//!
//! Flat MultiTree builds |V| spanning trees and lowers them to
//! O(|V|²) events — tractable to ~1k nodes, hopeless at 16k (half a
//! billion events). This module composes MultiTree per tier instead, the
//! way 2D-RING composes row and column rings (paper §II-C) and the way
//! ForestColl argues multi-level fabrics want per-tier collectives:
//!
//! 1. the topology is split into *pods* by [`Partition`] (fat-tree
//!    leaves, dragonfly groups, or balanced BFS regions for grids);
//! 2. each pod reduces onto its *representative* along one pod-local
//!    tree built with the restricted fast walker — pods are
//!    vertex-disjoint, so all pods share each time step's link capacity
//!    pool trivially;
//! 3. the representatives run a full MultiTree all-reduce among
//!    themselves (the subset walker, relays allowed anywhere), with the
//!    payload split into one segment per pod;
//! 4. each pod broadcasts the finished sum back down its tree.
//!
//! The three phases occupy disjoint step ranges, so the spliced schedule
//! stays per-step contention-free and passes the full set-dataflow and
//! numeric verifier. Event count drops from O(|V|²) to
//! O(|V| + P²) for P pods — about 40k events at 16384 nodes with
//! P = 128 instead of 536 million.
//!
//! The bandwidth trade-off is explicit: consolidating a pod onto one
//! representative serializes the pod's whole vector through the
//! representative's links, so the schedule is constructible and verified
//! at scales flat MultiTree cannot reach, but it is not
//! bandwidth-optimal the way the flat forest is. EXPERIMENTS.md
//! quantifies both sides.

use crate::algorithms::multitree::{
    Cursor, Forest, ForestScratch, MultiTree, ReverseSlots, Tree, TreeBuild, TreeLowering,
};
use crate::algorithms::multitree_subset::{try_add_restricted, RelayBfs};
use crate::algorithms::AllReduce;
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{NodeId, Partition, PodQuotient, Topology};

/// Hierarchical (pod-composed) MultiTree all-reduce.
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, HierarchicalMultiTree};
/// use multitree::verify::verify_schedule;
///
/// let topo = Topology::torus(8, 8);
/// let s = HierarchicalMultiTree::default().build(&topo)?;
/// verify_schedule(&s)?;
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalMultiTree {
    /// Requested pod count; `None` means [`Partition::auto`] (the
    /// family's natural grouping, or ~√|V| balanced BFS regions).
    pub pods: Option<usize>,
    /// Worker threads for the per-pod tree builds. Pods are dealt to
    /// workers in fixed order and merged back by pod id, so the result
    /// is byte-identical for any thread count; `0` and `1` both mean
    /// serial (inline, reusing the caller's scratch).
    pub build_threads: usize,
    /// How the inter-pod representative forest is constructed.
    pub inter_pod: InterPodMode,
    /// Rate-aware composition for heterogeneous fabrics: pod trees and
    /// the inter-pod forest allocate per-step slots in proportion to link
    /// rates, each pod's representative is the member with the fastest
    /// aggregate out-links (instead of the lowest node id), and the
    /// quotient walker prefers full-rate inter-pod cables. Byte-identical
    /// to the default on uniform topologies.
    pub bandwidth_aware: bool,
}

/// Inter-pod forest construction strategy for [`HierarchicalMultiTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum InterPodMode {
    /// Walk the MultiTree on the p-vertex [`Partition::quotient`] graph
    /// and realize each quotient edge on concrete links
    /// (representative → pod border → cable → border → representative),
    /// charging the concrete per-step capacity pool during the walk so
    /// the expanded schedule stays contention-free by construction.
    /// This removes the O(n)-per-BFS floods that dominated 16k builds.
    #[default]
    Quotient,
    /// The PR-6 strategy: a full-graph subset MultiTree among
    /// representatives, with relays allowed anywhere. Kept as the
    /// differential baseline; inter-pod BFS floods cost O(n) each.
    FullGraph,
}

impl Default for HierarchicalMultiTree {
    fn default() -> Self {
        HierarchicalMultiTree {
            pods: None,
            build_threads: 1,
            inter_pod: InterPodMode::Quotient,
            bandwidth_aware: false,
        }
    }
}

impl HierarchicalMultiTree {
    /// Hierarchical MultiTree over a fixed number of balanced pods.
    pub fn with_pods(pods: usize) -> Self {
        HierarchicalMultiTree {
            pods: Some(pods),
            ..Self::default()
        }
    }

    /// Returns `self` with the per-pod builds fanned across `threads`
    /// workers (byte-identical output for any value).
    pub fn build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads;
        self
    }

    /// Returns `self` with the given inter-pod construction strategy.
    pub fn inter_pod(mut self, mode: InterPodMode) -> Self {
        self.inter_pod = mode;
        self
    }

    /// Rate-aware composition (see
    /// [`HierarchicalMultiTree::bandwidth_aware`]).
    pub fn bandwidth_aware() -> Self {
        HierarchicalMultiTree {
            bandwidth_aware: true,
            ..Self::default()
        }
    }

    /// The partition this instance would compose over on `topo`. In
    /// bandwidth-aware mode each pod's representative is re-picked as the
    /// member with the largest aggregate out-link rate (ROADMAP item 4).
    pub fn partition(&self, topo: &Topology) -> Partition {
        let part = match self.pods {
            Some(k) => Partition::balanced(topo, k),
            None => Partition::auto(topo),
        };
        if self.bandwidth_aware && !topo.is_uniform() {
            part.with_rate_aware_representatives(topo)
        } else {
            part
        }
    }

    /// Scratch-reusing form of [`AllReduce::build`]: every pod tree and
    /// the inter-pod forest are constructed through the same
    /// [`ForestScratch`], so repeated builds only allocate the schedule
    /// they return.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::ConstructionFailed`] if a pod is not
    /// internally connected or the representatives are not mutually
    /// reachable.
    pub fn build_with(
        &self,
        topo: &Topology,
        scratch: &mut ForestScratch,
    ) -> Result<CommSchedule, AlgorithmError> {
        let part = self.partition(topo);
        self.build_partitioned(topo, &part, scratch)
    }

    /// [`HierarchicalMultiTree::build_with`] over a caller-supplied
    /// partition.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::ConstructionFailed`] if a pod is not
    /// internally connected or the representatives are not mutually
    /// reachable.
    pub fn build_partitioned(
        &self,
        topo: &Topology,
        part: &Partition,
        scratch: &mut ForestScratch,
    ) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let p_count = part.num_pods();
        let mut s = CommSchedule::new("multitree-hier", n, p_count.max(1) as u32);
        if n < 2 {
            return Ok(s);
        }

        // ---- pod trees: one representative-rooted tree per pod, built
        // with the relay walker restricted to the pod's own vertices.
        let (pod_trees, t1) =
            build_pod_trees(topo, part, self.build_threads, self.bandwidth_aware, scratch)?;

        // ---- inter-pod forest: a MultiTree among representatives,
        // walked on the pod-quotient graph (default) or the full graph.
        let inter = if p_count > 1 {
            Some(match self.inter_pod {
                InterPodMode::Quotient => {
                    construct_interpod_quotient(topo, part, self.bandwidth_aware, scratch)?
                }
                InterPodMode::FullGraph => MultiTree {
                    bandwidth_aware: self.bandwidth_aware,
                    ..MultiTree::default()
                }
                .construct_forest_among_with(topo, part.representatives(), scratch)?,
            })
        } else {
            None
        };
        let t2 = inter.as_ref().map(|f| f.total_steps).unwrap_or(0);

        splice(topo, part, &pod_trees, inter.as_ref(), t1, t2, &mut s)?;
        Ok(s)
    }

    /// The PR-6 builder — serial pod builds plus a full-graph subset
    /// MultiTree among representatives — kept verbatim as the
    /// differential oracle for the quotient/parallel fast path above.
    /// Ignores [`HierarchicalMultiTree::build_threads`] and
    /// [`HierarchicalMultiTree::inter_pod`]. Not public API.
    #[doc(hidden)]
    pub fn build_partitioned_reference(
        &self,
        topo: &Topology,
        part: &Partition,
        scratch: &mut ForestScratch,
    ) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let p_count = part.num_pods();
        let mut s = CommSchedule::new("multitree-hier", n, p_count.max(1) as u32);
        if n < 2 {
            return Ok(s);
        }

        let (pod_trees, t1) = build_pod_trees_reference(topo, part, scratch)?;

        let inter = if p_count > 1 {
            Some(MultiTree::default().construct_forest_among_with(
                topo,
                part.representatives(),
                scratch,
            )?)
        } else {
            None
        };
        let t2 = inter.as_ref().map(|f| f.total_steps).unwrap_or(0);

        splice(topo, part, &pod_trees, inter.as_ref(), t1, t2, &mut s)?;
        Ok(s)
    }
}

/// The PR-6 serial pod-tree loop, retained verbatim for
/// [`HierarchicalMultiTree::build_partitioned_reference`].
fn build_pod_trees_reference(
    topo: &Topology,
    part: &Partition,
    scratch: &mut ForestScratch,
) -> Result<(Vec<Tree>, u32), AlgorithmError> {
    let n = topo.num_nodes();
    let nv = topo.num_vertices();
    let mut is_member = vec![false; n];
    let mut allowed = vec![false; nv];
    let mut trees = Vec::with_capacity(part.num_pods());
    let mut t1 = 0u32;
    for p in 0..part.num_pods() {
        let members = part.pod_nodes(p);
        let mut tree = TreeBuild::new(part.representative(p), n);
        let m = members.len();
        if m > 1 {
            for &mb in members {
                is_member[mb.index()] = true;
            }
            for (vi, a) in allowed.iter_mut().enumerate() {
                *a = part.pod_of_vertex(topo.vertex_at(vi)) == p;
            }
            scratch.reset(topo, 1);
            let mut t = 0u32;
            while tree.members.len() < m {
                t += 1;
                scratch.reset_pool(t);
                let mut added = false;
                while tree.members.len() < m
                    && try_add_restricted(
                        topo,
                        &mut tree,
                        &is_member,
                        &allowed,
                        t,
                        &mut scratch.pool,
                        &mut scratch.cursor[0],
                        &mut scratch.relay_bfs,
                    )
                {
                    added = true;
                }
                if !added {
                    return Err(AlgorithmError::ConstructionFailed {
                        algorithm: "multitree-hier",
                        reason: format!("pod {p} is not internally connected"),
                    });
                }
            }
            t1 = t1.max(t);
            for &mb in members {
                is_member[mb.index()] = false;
            }
        }
        trees.push(tree.finish());
    }
    Ok((trees, t1))
}

impl AllReduce for HierarchicalMultiTree {
    fn name(&self) -> &'static str {
        "multitree-hier"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        self.build_with(topo, &mut ForestScratch::new())
    }
}

/// Builds the tree of one pod with the restricted relay walker; returns
/// the tree and its construction height. Pods are vertex-disjoint and
/// the walker is deterministic, so per-pod results are independent of
/// build order — the foundation of the parallel fan-out below.
fn build_one_pod_tree(
    topo: &Topology,
    part: &Partition,
    p: usize,
    is_member: &mut [bool],
    allowed: &mut [bool],
    bandwidth_aware: bool,
    scratch: &mut ForestScratch,
) -> Result<(Tree, u32), AlgorithmError> {
    let members = part.pod_nodes(p);
    let mut tree = TreeBuild::new(part.representative(p), topo.num_nodes());
    let m = members.len();
    let mut t = 0u32;
    if m > 1 {
        for &mb in members {
            is_member[mb.index()] = true;
        }
        for (vi, a) in allowed.iter_mut().enumerate() {
            *a = part.pod_of_vertex(topo.vertex_at(vi)) == p;
        }
        scratch.reset(topo, 1);
        if bandwidth_aware {
            scratch.enable_rate_accrual(topo);
        }
        let stall_limit = scratch.stall_allowance();
        let mut stalled = 0u32;
        while tree.members.len() < m {
            t += 1;
            scratch.reset_pool(t);
            let mut added = false;
            while tree.members.len() < m
                && try_add_restricted(
                    topo,
                    &mut tree,
                    is_member,
                    allowed,
                    t,
                    &mut scratch.pool,
                    &mut scratch.cursor[0],
                    &mut scratch.relay_bfs,
                )
            {
                added = true;
            }
            if added {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= stall_limit {
                    return Err(AlgorithmError::ConstructionFailed {
                        algorithm: "multitree-hier",
                        reason: format!("pod {p} is not internally connected"),
                    });
                }
            }
        }
        for &mb in members {
            is_member[mb.index()] = false;
        }
    }
    Ok((tree.finish(), t))
}

/// Builds one representative-rooted tree per pod; returns the trees and
/// the maximum construction height T1 across pods. All pods share the
/// same global step axis: an edge added at pod-local step `t` is
/// scheduled at global reduce step `T1 - t + 1` and gather step
/// `T1 + 2·T2 + t`, and because pods are vertex-disjoint their per-step
/// link allocations never collide.
///
/// With `threads > 1` the pods are self-scheduled across a scoped
/// worker pool (one [`ForestScratch`] per worker) and merged back into
/// pod-id order, so the result is byte-identical to the serial build
/// for any thread count. Errors are reported for the lowest failing
/// pod id, also independent of scheduling.
fn build_pod_trees(
    topo: &Topology,
    part: &Partition,
    threads: usize,
    bandwidth_aware: bool,
    scratch: &mut ForestScratch,
) -> Result<(Vec<Tree>, u32), AlgorithmError> {
    let n = topo.num_nodes();
    let nv = topo.num_vertices();
    let p_count = part.num_pods();
    if threads <= 1 || p_count < 2 {
        let mut is_member = vec![false; n];
        let mut allowed = vec![false; nv];
        let mut trees = Vec::with_capacity(p_count);
        let mut t1 = 0u32;
        for p in 0..p_count {
            let (tree, t) = build_one_pod_tree(
                topo,
                part,
                p,
                &mut is_member,
                &mut allowed,
                bandwidth_aware,
                scratch,
            )?;
            t1 = t1.max(t);
            trees.push(tree);
        }
        return Ok((trees, t1));
    }

    let workers = threads.min(p_count);
    let mut slots: Vec<Option<Result<(Tree, u32), AlgorithmError>>> = Vec::new();
    slots.resize_with(p_count, || None);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|sc| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            sc.spawn(move || {
                let mut scratch = ForestScratch::new();
                let mut is_member = vec![false; n];
                let mut allowed = vec![false; nv];
                loop {
                    let p = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if p >= p_count {
                        break;
                    }
                    let r = build_one_pod_tree(
                        topo,
                        part,
                        p,
                        &mut is_member,
                        &mut allowed,
                        bandwidth_aware,
                        &mut scratch,
                    );
                    if tx.send((p, r)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (p, r) in rx {
            slots[p] = Some(r);
        }
    });

    let mut trees = Vec::with_capacity(p_count);
    let mut t1 = 0u32;
    for slot in slots {
        let (tree, t) = slot.expect("every pod was dealt to a worker")?;
        t1 = t1.max(t);
        trees.push(tree);
    }
    Ok((trees, t1))
}

/// Constructs the inter-pod forest on the pod-quotient graph: the
/// MultiTree turn/step structure runs over the p quotient vertices, and
/// every quotient edge chosen is immediately *realized* on concrete
/// links — representative → pod border (flood inside the source pod),
/// one inter-pod cable, border → representative (targeted BFS inside
/// the target pod) — charging the concrete per-step pool so the
/// expanded forest is contention-free by construction. Non-adjacent
/// pods exchange across tree levels through intermediate pods'
/// representatives (the rep-funnel caveat, see EXPERIMENTS.md).
fn construct_interpod_quotient(
    topo: &Topology,
    part: &Partition,
    bandwidth_aware: bool,
    scratch: &mut ForestScratch,
) -> Result<Forest, AlgorithmError> {
    let q = part.quotient(topo);
    let p_count = part.num_pods();
    let n = topo.num_nodes();
    let mut trees: Vec<TreeBuild> = (0..p_count)
        .map(|p| TreeBuild::new(part.representative(p), n))
        .collect();

    // the pool is the *concrete* link pool; only cursors are per-tree
    scratch.reset(topo, p_count);
    if bandwidth_aware {
        scratch.enable_rate_accrual(topo);
    }
    let prefer_fast_cables = bandwidth_aware && !topo.is_uniform();
    if p_count > 1 {
        scratch.active.extend(0..p_count);
    }

    let stall_limit = scratch.stall_allowance();
    let mut stalled = 0u32;
    let mut t: u32 = 0;
    while !scratch.active.is_empty() {
        t += 1;
        scratch.reset_pool(t);
        let mut added_this_step = false;
        let mut progress = true;
        while progress {
            progress = false;
            let mut completed = false;
            for idx in 0..scratch.active.len() {
                let ti = scratch.active[idx];
                if trees[ti].members.len() >= p_count {
                    continue;
                }
                if try_add_quotient(
                    topo,
                    part,
                    &q,
                    &mut trees[ti],
                    t,
                    &mut scratch.pool,
                    &mut scratch.cursor[ti],
                    &mut scratch.relay_bfs,
                    &mut scratch.relay_bfs2,
                    prefer_fast_cables,
                ) {
                    progress = true;
                    added_this_step = true;
                    if trees[ti].members.len() >= p_count {
                        completed = true;
                    }
                }
            }
            if completed {
                scratch
                    .active
                    .retain(|&i| trees[i].members.len() < p_count);
            }
        }
        if added_this_step {
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= stall_limit {
                return Err(AlgorithmError::ConstructionFailed {
                    algorithm: "multitree-hier",
                    reason: "pod representatives are not mutually reachable \
                             through the pod-quotient graph"
                        .into(),
                });
            }
        }
    }

    Ok(Forest {
        trees: trees.into_iter().map(TreeBuild::finish).collect(),
        total_steps: t,
    })
}

/// One growth attempt of a quotient-walked inter-pod tree at step `t`:
/// scans joined representatives in join order (cursor-skipping members
/// that already failed this step — the pool only drains and membership
/// only grows, so a failed member stays failed until the next step),
/// and for the first member whose pod has a realizable quotient edge to
/// an unjoined pod, allocates the concrete relay path and adds the
/// target pod's representative as a child.
#[allow(clippy::too_many_arguments)]
fn try_add_quotient(
    topo: &Topology,
    part: &Partition,
    q: &PodQuotient,
    tree: &mut TreeBuild,
    t: u32,
    pool: &mut [u32],
    cur: &mut Cursor,
    flood: &mut RelayBfs,
    route: &mut RelayBfs,
    prefer_fast_cables: bool,
) -> bool {
    if cur.step != t {
        cur.step = t;
        cur.scan_from = 0;
    }
    let qt = q.topology();
    let mut mi = cur.scan_from;
    while mi < tree.members.len() {
        let (rep_a, joined) = tree.members[mi];
        if joined >= t {
            // join order: everything from here on joined this step
            break;
        }
        let a = part.pod_of_node(rep_a);
        flood.pod_flood(topo, part, a, rep_a.into(), pool);
        for &ql in qt.out_links(qt.vertex_at(a)) {
            let b = qt.vertex_index(qt.link(ql).dst);
            let rep_b = part.representative(b);
            if tree.in_tree[rep_b.index()] {
                continue;
            }
            // In bandwidth-aware mode try full-rate cables of the bundle
            // first, then any; otherwise one pass in bundle order.
            let passes: &[u8] = if prefer_fast_cables { &[0, 1] } else { &[1] };
            for &pass in passes {
                for &cable in q.cables(ql) {
                    if pass == 0 && !topo.link(cable).is_full_rate() {
                        continue;
                    }
                    if pool[cable.index()] == 0 {
                        continue;
                    }
                    let clink = topo.link(cable);
                    if !flood.reached(topo, clink.src) {
                        continue;
                    }
                    let Some(route2) =
                        route.pod_route(topo, part, b, clink.dst, rep_b.into(), pool)
                    else {
                        continue;
                    };
                    let mut path = flood.path_to(topo, rep_a.into(), clink.src);
                    path.push(cable);
                    path.extend_from_slice(&route2);
                    for &l in &path {
                        pool[l.index()] -= 1;
                    }
                    tree.add(rep_a, rep_b, t, path);
                    cur.scan_from = mi;
                    return true;
                }
            }
        }
        mi += 1;
    }
    cur.scan_from = mi;
    false
}

/// Splices the pod trees and the inter-pod forest into one verified
/// schedule. Steps: pod reduce `1..=T1`, inter-pod reduce
/// `T1+1..=T1+T2`, inter-pod gather `T1+T2+1..=T1+2·T2`, pod broadcast
/// `T1+2·T2+1..=T1+2·T2+T1`. Dependency edges are chosen so the
/// set-dataflow verifier sees every contribution travel along declared
/// deps: inter-pod events sent by a representative additionally depend
/// on the pod reduces delivered into it, which is what carries the pod
/// members' contributions across the representative boundary.
fn splice(
    topo: &Topology,
    part: &Partition,
    pod_trees: &[Tree],
    inter: Option<&Forest>,
    t1: u32,
    t2: u32,
    s: &mut CommSchedule,
) -> Result<(), AlgorithmError> {
    let n = s.num_nodes();
    let p_count = part.num_pods();
    let full = ChunkRange::new(0, p_count as u32);
    let mut low = TreeLowering::new(n);

    // ---- phase 1: intra-pod reduce, leaves first (chunk = whole vector)
    if t1 > 0 {
        let mut slots = ReverseSlots::new(t1, topo.num_links());
        for (p, tree) in pod_trees.iter().enumerate() {
            low.reduce(
                s,
                topo,
                tree,
                FlowId(p),
                full,
                t1,
                0,
                &mut slots,
                |_| &[][..],
            )?;
        }
    }
    // pod reduces delivered into each representative
    let rep_in: Vec<Vec<EventId>> = (0..p_count)
        .map(|p| low.reduces_into[part.representative(p).index()].clone())
        .collect();

    // ---- phase 2: inter-pod all-reduce among representatives,
    // segment k travels tree k (rooted at pod k's representative); a
    // representative's sends also depend on its pod's reduces
    let mut rep2_in: Vec<Vec<EventId>> = vec![Vec::new(); p_count];
    if let Some(forest) = inter {
        let mut slots = ReverseSlots::new(t2, topo.num_links());
        let first = s.num_events();
        for (k, tree) in forest.trees.iter().enumerate() {
            let (flow, chunk) = (FlowId(k), ChunkRange::single(k as u32));
            low.clear();
            let pod_in = |v: NodeId| &rep_in[part.pod_of_node(v)][..];
            low.reduce(s, topo, tree, flow, chunk, t2, t1, &mut slots, pod_in)?;
            low.gather(s, tree, flow, |_| chunk, t1 + t2, &rep_in[k]);
        }
        // everything each representative received in phase 2
        for i in first..s.num_events() {
            rep2_in[part.pod_of_node(NodeId::new(s.dsts()[i] as usize))].push(EventId::new(i));
        }
    }

    // ---- phase 3: intra-pod broadcast down the pod trees
    if t1 > 0 {
        low.clear();
        for (p, tree) in pod_trees.iter().enumerate() {
            // everything the representative received: inter-pod gathers
            // cover foreign segments, inter-pod reduces + pod reduces
            // cover the pod's own segment
            let received: Vec<EventId> = rep2_in[p].iter().chain(&rep_in[p]).copied().collect();
            low.gather(s, tree, FlowId(p), |_| full, t1 + 2 * t2, &received);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::analyze;
    use crate::verify::verify_schedule;

    fn check(topo: &Topology, algo: HierarchicalMultiTree) -> CommSchedule {
        let s = algo.build(topo).unwrap();
        verify_schedule(&s).unwrap();
        let stats = analyze(&s, topo, 1 << 20);
        assert!(
            stats.is_contention_free(),
            "hierarchical schedule must stay per-step contention-free on {topo}"
        );
        s
    }

    #[test]
    fn verifies_on_torus_with_balanced_pods() {
        for pods in [2, 3, 4, 8] {
            let topo = Topology::torus(8, 8);
            let s = check(&topo, HierarchicalMultiTree::with_pods(pods));
            assert_eq!(s.total_segments(), pods as u32);
        }
    }

    #[test]
    fn verifies_on_all_families_with_auto_partition() {
        for topo in [
            Topology::torus(4, 8),
            Topology::mesh(6, 6),
            Topology::dgx2_like_16(),
            Topology::fat_tree_64(),
            Topology::bigraph_32(),
            Topology::torus3d(3, 3, 3),
            Topology::hypercube(5),
            Topology::dragonfly(3, 2),
        ] {
            check(&topo, HierarchicalMultiTree::default());
        }
    }

    #[test]
    fn single_pod_degenerates_to_reduce_broadcast() {
        let topo = Topology::torus(4, 4);
        let s = check(&topo, HierarchicalMultiTree::with_pods(1));
        assert_eq!(s.total_segments(), 1);
        // reduce up + broadcast down: 2 * (n - 1) events
        assert_eq!(s.events().len(), 2 * 15);
    }

    #[test]
    fn one_pod_per_node_degenerates_to_flat_subset_multitree() {
        let topo = Topology::torus(4, 4);
        let s = check(&topo, HierarchicalMultiTree::with_pods(16));
        // no intra-pod events at all: 16 trees x 15 edges x 2 halves
        assert_eq!(s.events().len(), 2 * 16 * 15);
    }

    #[test]
    fn event_count_is_near_linear() {
        let topo = Topology::torus(16, 16);
        let s = check(&topo, HierarchicalMultiTree::default());
        let n = 256;
        let p = HierarchicalMultiTree::default().partition(&topo).num_pods();
        // 2(n - p) intra-pod events + 2p(p-1) inter-pod events
        assert_eq!(s.events().len(), 2 * (n - p) + 2 * p * (p - 1));
        // versus ~2n^2 = 131k for flat multitree
        assert!(s.events().len() < 4_000);
    }

    #[test]
    fn scratch_reuse_is_allocation_free_and_deterministic() {
        let topo = Topology::torus(8, 8);
        let algo = HierarchicalMultiTree::default();
        let mut scratch = ForestScratch::new();
        let first = algo.build_with(&topo, &mut scratch).unwrap();
        let warm = scratch.capacity_elements();
        let second = algo.build_with(&topo, &mut scratch).unwrap();
        assert_eq!(first, second, "rebuilds must be deterministic");
        assert_eq!(
            scratch.capacity_elements(),
            warm,
            "warm rebuild must not grow the scratch"
        );
    }

    #[test]
    fn respects_caller_partition() {
        let topo = Topology::torus(8, 8);
        let part = Partition::balanced(&topo, 4);
        let mut scratch = ForestScratch::new();
        let s = HierarchicalMultiTree::default()
            .build_partitioned(&topo, &part, &mut scratch)
            .unwrap();
        verify_schedule(&s).unwrap();
        assert_eq!(s.total_segments(), 4);
    }
}
