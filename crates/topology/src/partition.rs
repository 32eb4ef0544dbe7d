//! Pod partitioning for hierarchical collectives.
//!
//! A [`Partition`] splits a topology's vertices (nodes **and** switches)
//! into `P` disjoint *pods*. Two construction modes exist:
//!
//! * [`Partition::natural`] reuses the structure a family already has —
//!   fat-tree leaves, BiGraph lower switches, dragonfly groups;
//! * [`Partition::balanced`] grows `P` connected regions by deterministic
//!   multi-source BFS from evenly spaced seed nodes, which is the fallback
//!   for direct networks (torus, mesh, hypercube) and custom graphs.
//!
//! Both are fully deterministic: the same topology and pod count always
//! produce the same assignment, which is what makes hierarchical schedule
//! construction reproducible.
//!
//! Every pod designates a *representative* (its lowest node id); the
//! hierarchical MultiTree composition reduces each pod onto its
//! representative and runs the inter-pod collective over representatives
//! only.

use crate::graph::{Topology, TopologyKind};
use crate::ids::{LinkId, NodeId, Vertex};
use crate::link::Link;
use std::collections::BTreeMap;

/// A disjoint cover of a topology's vertices by pods.
///
/// Construct with [`Partition::natural`] (a family's own group
/// structure), [`Partition::balanced`] (deterministic multi-source
/// BFS regions), or [`Partition::auto`] (natural, else √n balanced).
/// Fully deterministic: the same topology and pod count always produce
/// the same assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    num_nodes: usize,
    /// Pod of each vertex, indexed by [`Topology::vertex_index`].
    vertex_pod: Vec<u32>,
    /// Member nodes of each pod, ascending by id. Every pod is non-empty.
    pods: Vec<Vec<NodeId>>,
    /// Lowest node id of each pod.
    reps: Vec<NodeId>,
}

impl Partition {
    /// Partitions by the family's own group structure, when it has one:
    /// fat-tree pods are leaf switches (spines spread round-robin),
    /// BiGraph pods are lower switches (uppers spread round-robin),
    /// dragonfly pods are groups. Returns `None` for families without a
    /// natural grouping (grids, hypercubes, custom graphs) and for
    /// degenerate single-group instances.
    pub fn natural(topo: &Topology) -> Option<Partition> {
        let n = topo.num_nodes();
        type PodOf = fn(usize, usize) -> usize;
        let (pods, node_pod, switch_pod): (usize, PodOf, PodOf);
        let per_node: usize;
        let per_switch: usize;
        match topo.kind() {
            TopologyKind::FatTree {
                leaves,
                nodes_per_leaf,
                ..
            } => {
                pods = leaves;
                per_node = nodes_per_leaf;
                per_switch = 1;
                node_pod = |i, per| i / per;
                // leaves own themselves; spines are spread round-robin
                switch_pod = |s, _| s;
            }
            TopologyKind::BiGraph {
                lower,
                nodes_per_lower,
                ..
            } => {
                pods = lower;
                per_node = nodes_per_lower;
                per_switch = 1;
                node_pod = |i, per| i / per;
                switch_pod = |s, _| s;
            }
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                nodes_per_router,
            } => {
                pods = groups;
                per_node = routers_per_group * nodes_per_router;
                per_switch = routers_per_group;
                node_pod = |i, per| i / per;
                switch_pod = |s, per| s / per;
            }
            _ => return None,
        }
        if pods < 2 {
            return None;
        }
        let mut vertex_pod = vec![0u32; topo.num_vertices()];
        for (i, vp) in vertex_pod.iter_mut().enumerate().take(n) {
            *vp = node_pod(i, per_node) as u32;
        }
        for s in 0..topo.num_switches() {
            let p = switch_pod(s, per_switch);
            // switches beyond the pod range (spines, uppers) round-robin
            vertex_pod[n + s] = (p % pods) as u32;
        }
        Some(Self::from_vertex_pods(topo, pods, vertex_pod))
    }

    /// Partitions into `pods` connected regions by deterministic
    /// multi-source BFS. Seeds are the evenly spaced node ids
    /// `floor(i * n / pods)`; vertices join the pod that reaches them
    /// first, ties resolved by BFS queue order (lower seed index wins).
    /// `pods` is clamped to `1..=num_nodes`. On disconnected topologies,
    /// unreached vertices fall back to `vertex_index % pods`.
    pub fn balanced(topo: &Topology, pods: usize) -> Partition {
        let n = topo.num_nodes();
        assert!(n > 0, "cannot partition an empty topology");
        let pods = pods.clamp(1, n);
        let nv = topo.num_vertices();
        const UNASSIGNED: u32 = u32::MAX;
        let mut vertex_pod = vec![UNASSIGNED; nv];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for p in 0..pods {
            let seed = p * n / pods;
            debug_assert_eq!(vertex_pod[seed], UNASSIGNED);
            vertex_pod[seed] = p as u32;
            queue.push_back(seed);
        }
        while let Some(vi) = queue.pop_front() {
            let pod = vertex_pod[vi];
            for (nb, _) in topo.neighbors(topo.vertex_at(vi)) {
                let ni = topo.vertex_index(nb);
                if vertex_pod[ni] == UNASSIGNED {
                    vertex_pod[ni] = pod;
                    queue.push_back(ni);
                }
            }
        }
        for (vi, p) in vertex_pod.iter_mut().enumerate() {
            if *p == UNASSIGNED {
                *p = (vi % pods) as u32;
            }
        }
        Self::from_vertex_pods(topo, pods, vertex_pod)
    }

    /// The default partition for hierarchical construction: the family's
    /// natural grouping when it has one, otherwise a balanced partition
    /// into roughly `sqrt(num_nodes)` pods.
    pub fn auto(topo: &Topology) -> Partition {
        if let Some(p) = Self::natural(topo) {
            return p;
        }
        let n = topo.num_nodes();
        let target = (n as f64).sqrt().round() as usize;
        Self::balanced(topo, target.max(1))
    }

    fn from_vertex_pods(topo: &Topology, num_pods: usize, vertex_pod: Vec<u32>) -> Partition {
        let n = topo.num_nodes();
        let mut pods = vec![Vec::new(); num_pods];
        for i in 0..n {
            pods[vertex_pod[i] as usize].push(NodeId::new(i));
        }
        assert!(
            pods.iter().all(|p| !p.is_empty()),
            "partition produced an empty pod"
        );
        // node ids were visited ascending, so each pod is already sorted
        let reps = pods.iter().map(|p| p[0]).collect();
        Partition {
            num_nodes: n,
            vertex_pod,
            pods,
            reps,
        }
    }

    /// Number of pods. Always at least 1.
    pub fn num_pods(&self) -> usize {
        self.pods.len()
    }

    /// Member nodes of pod `p`, ascending by id. Never empty.
    pub fn pod_nodes(&self, p: usize) -> &[NodeId] {
        &self.pods[p]
    }

    /// The representative (lowest node id) of pod `p`.
    pub fn representative(&self, p: usize) -> NodeId {
        self.reps[p]
    }

    /// Returns `self` with each pod's representative re-picked as the
    /// member with the largest aggregate out-link effective rate (ties
    /// broken by lowest node id, so the choice is deterministic and
    /// reduces to the default lowest-id rule on uniform topologies).
    /// Bandwidth-aware hierarchical composition funnels every pod's
    /// traffic through its representative, so on heterogeneous fabrics
    /// the best-connected member should carry that load.
    pub fn with_rate_aware_representatives(mut self, topo: &Topology) -> Partition {
        for (p, members) in self.pods.iter().enumerate() {
            let mut best = self.reps[p];
            let mut best_rate = f64::MIN;
            for &m in members {
                let agg: f64 = topo
                    .out_links(m.into())
                    .iter()
                    .map(|&l| topo.link_rate(l))
                    .sum();
                if agg > best_rate {
                    best_rate = agg;
                    best = m;
                }
            }
            self.reps[p] = best;
        }
        self
    }

    /// Representatives of all pods, indexed by pod.
    pub fn representatives(&self) -> &[NodeId] {
        &self.reps
    }

    /// Pod of a compute node.
    pub fn pod_of_node(&self, n: NodeId) -> usize {
        self.vertex_pod[n.index()] as usize
    }

    /// Pod of any vertex (node or switch).
    pub fn pod_of_vertex(&self, v: Vertex) -> usize {
        let idx = match v {
            Vertex::Node(n) => n.index(),
            Vertex::Switch(s) => self.num_nodes + s.index(),
        };
        self.vertex_pod[idx] as usize
    }

    /// Contracts each pod of `topo` to a single vertex and returns the
    /// resulting *pod-quotient graph*: one compute node per pod, one
    /// unidirectional quotient link per ordered pod pair that has at
    /// least one enabled inter-pod cable, with capacity equal to the
    /// summed capacity of those cables and a back-mapping from every
    /// quotient link to its concrete cables.
    ///
    /// The quotient is fully deterministic (quotient links sorted by
    /// `(src_pod, dst_pod)`, cables ascending by [`LinkId`]) and skips
    /// disabled links of degraded views, so it tracks fault state.
    /// Hierarchical construction walks the inter-pod forest on this
    /// p-vertex graph instead of the n-vertex topology — the scale win
    /// behind 16k-in-seconds builds.
    pub fn quotient(&self, topo: &Topology) -> PodQuotient {
        let mut cables: BTreeMap<(u32, u32), Vec<LinkId>> = BTreeMap::new();
        for (i, l) in topo.links().iter().enumerate() {
            let id = LinkId::new(i);
            if topo.is_link_disabled(id) {
                continue;
            }
            let sp = self.pod_of_vertex(l.src) as u32;
            let dp = self.pod_of_vertex(l.dst) as u32;
            if sp != dp {
                // links() iterates ascending ids, so each cable list
                // comes out sorted without an extra pass
                cables.entry((sp, dp)).or_default().push(id);
            }
        }
        let mut links = Vec::with_capacity(cables.len());
        let mut back = Vec::with_capacity(cables.len());
        let mut rates = Vec::with_capacity(cables.len());
        for ((sp, dp), concrete) in cables {
            let capacity: u32 = concrete
                .iter()
                .map(|&c| topo.link(c).capacity)
                .sum::<u32>()
                .max(1);
            // exact rational aggregate bandwidth of the cable bundle:
            // sum of capacity * rate over the concrete cables
            let mut agg_num: u128 = 0;
            let mut agg_den: u128 = 1;
            let mut full_rate_bundle = true;
            let mut bundle_rates: Vec<(u32, u32)> = Vec::new();
            for &c in &concrete {
                let l = topo.link(c);
                if !l.is_full_rate() {
                    full_rate_bundle = false;
                }
                let g = gcd(u128::from(l.rate_num), u128::from(l.rate_den));
                bundle_rates.push((
                    (u128::from(l.rate_num) / g) as u32,
                    (u128::from(l.rate_den) / g) as u32,
                ));
                agg_num = agg_num * u128::from(l.rate_den)
                    + u128::from(l.capacity) * u128::from(l.rate_num) * agg_den;
                agg_den *= u128::from(l.rate_den);
                let g = gcd(agg_num, agg_den);
                agg_num /= g;
                agg_den /= g;
            }
            bundle_rates.sort_unstable();
            bundle_rates.dedup();
            let src = Vertex::Node(NodeId::new(sp as usize));
            let dst = Vertex::Node(NodeId::new(dp as usize));
            let link = if full_rate_bundle {
                Link::with_capacity(src, dst, capacity)
            } else {
                // pick the rate so that capacity * rate reproduces the
                // bundle's exact aggregate bandwidth
                let mut num = agg_num;
                let mut den = agg_den * u128::from(capacity);
                let g = gcd(num, den);
                num /= g;
                den /= g;
                assert!(
                    num <= u128::from(u32::MAX) && den <= u128::from(u32::MAX),
                    "quotient link rate does not fit u32"
                );
                Link::with_capacity(src, dst, capacity).rerated(num as u32, den as u32)
            };
            links.push(link);
            back.push(concrete);
            rates.push(bundle_rates);
        }
        PodQuotient {
            topo: Topology::from_parts(TopologyKind::Custom, self.num_pods(), 0, links),
            cables: back,
            rates,
        }
    }
}

/// Greatest common divisor (euclid); `gcd(0, b) == b`.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

/// The contraction of a topology by a [`Partition`]: pod `p` becomes
/// compute node `p`, and every ordered pod pair with at least one
/// enabled inter-pod cable becomes one quotient link. Built by
/// [`Partition::quotient`].
#[derive(Debug, Clone)]
pub struct PodQuotient {
    topo: Topology,
    /// Concrete cables behind each quotient link, ascending by id,
    /// indexed by quotient [`LinkId`].
    cables: Vec<Vec<LinkId>>,
    /// Deduplicated, reduced `(rate_num, rate_den)` pairs of the concrete
    /// cables behind each quotient link, ascending; `[(1, 1)]` for a
    /// full-rate bundle. Indexed by quotient [`LinkId`].
    rates: Vec<Vec<(u32, u32)>>,
}

impl PodQuotient {
    /// The p-vertex quotient graph (a [`TopologyKind::Custom`] topology
    /// whose node `p` stands for pod `p`).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of pods (= nodes of the quotient graph).
    pub fn num_pods(&self) -> usize {
        self.topo.num_nodes()
    }

    /// The concrete inter-pod cables a quotient link stands for,
    /// ascending by [`LinkId`]. Never empty.
    pub fn cables(&self, q: LinkId) -> &[LinkId] {
        &self.cables[q.index()]
    }

    /// The distinct static rates among the cables behind a quotient
    /// link: deduplicated, reduced `(rate_num, rate_den)` pairs,
    /// ascending. `[(1, 1)]` for a full-rate bundle. The quotient link's
    /// own rate is chosen so `capacity * rate` equals the exact summed
    /// `capacity * rate` of the concrete cables.
    pub fn cable_rates(&self, q: LinkId) -> &[(u32, u32)] {
        &self.rates[q.index()]
    }
}

impl PartialEq for PodQuotient {
    fn eq(&self, other: &Self) -> bool {
        self.topo.num_nodes() == other.topo.num_nodes()
            && self.topo.links() == other.topo.links()
            && self.cables == other.cables
            && self.rates == other.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(topo: &Topology, part: &Partition) {
        // every node appears in exactly one pod
        let mut seen = vec![0u32; topo.num_nodes()];
        for p in 0..part.num_pods() {
            for &n in part.pod_nodes(p) {
                seen[n.index()] += 1;
                assert_eq!(part.pod_of_node(n), p);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // every vertex has a pod in range
        for vi in 0..topo.num_vertices() {
            assert!(part.pod_of_vertex(topo.vertex_at(vi)) < part.num_pods());
        }
    }

    #[test]
    fn natural_fat_tree_groups_by_leaf() {
        let topo = Topology::dgx2_like_16();
        let part = Partition::natural(&topo).unwrap();
        assert_eq!(part.num_pods(), 4);
        check_cover(&topo, &part);
        for p in 0..4 {
            assert_eq!(part.pod_nodes(p).len(), 4);
            assert_eq!(part.representative(p).index(), p * 4);
        }
    }

    #[test]
    fn natural_dragonfly_groups() {
        let topo = Topology::dragonfly(4, 2);
        let part = Partition::natural(&topo).unwrap();
        assert_eq!(part.num_pods(), 5);
        check_cover(&topo, &part);
        // routers stay with their group
        for s in topo.switch_ids() {
            assert_eq!(part.pod_of_vertex(s.into()), s.index() / 4);
        }
    }

    #[test]
    fn balanced_torus_regions_are_connected() {
        let topo = Topology::torus(8, 8);
        let part = Partition::balanced(&topo, 4);
        assert_eq!(part.num_pods(), 4);
        check_cover(&topo, &part);
        // each pod's induced node set is connected through same-pod vertices
        for p in 0..4 {
            let members = part.pod_nodes(p);
            let mut reach = std::collections::HashSet::new();
            let mut stack = vec![Vertex::from(members[0])];
            reach.insert(topo.vertex_index(members[0].into()));
            while let Some(v) = stack.pop() {
                for (nb, _) in topo.neighbors(v) {
                    let ni = topo.vertex_index(nb);
                    if part.pod_of_vertex(nb) == p && reach.insert(ni) {
                        stack.push(nb);
                    }
                }
            }
            for &m in members {
                assert!(reach.contains(&topo.vertex_index(m.into())), "pod {p} disconnected");
            }
        }
    }

    #[test]
    fn balanced_clamps_pod_count() {
        let topo = Topology::torus(2, 2);
        assert_eq!(Partition::balanced(&topo, 0).num_pods(), 1);
        assert_eq!(Partition::balanced(&topo, 100).num_pods(), 4);
    }

    #[test]
    fn auto_is_deterministic() {
        let topo = Topology::torus(8, 8);
        assert_eq!(Partition::auto(&topo), Partition::auto(&topo));
        assert_eq!(Partition::auto(&topo).num_pods(), 8);
    }
}
