//! Deterministic routing.
//!
//! Routing matches what the paper's BookSim configuration would do:
//!
//! * **Torus/Mesh**: dimension-order routing (X then Y), taking the shorter
//!   wraparound direction on a torus;
//! * **Fat-Tree/BiGraph**: up-down routing; the up-switch is chosen
//!   deterministically as the source node's index within its edge switch,
//!   which spreads traffic and gives the contention-free property the
//!   EFLOPS rank mapping relies on;
//! * **Custom**: breadth-first shortest path, following the graph's
//!   deterministic neighbor order.

use crate::error::TopologyError;
use crate::graph::{Topology, TopologyKind};
use crate::ids::{LinkId, NodeId, SwitchId, Vertex};

impl Topology {
    /// Computes the deterministic route from `src` to `dst` as a sequence
    /// of link ids.
    ///
    /// An empty path means `src == dst`.
    ///
    /// ```
    /// use mt_topology::Topology;
    /// let torus = Topology::torus(4, 4);
    /// // wraparound makes the far column one hop away
    /// assert_eq!(torus.route(0.into(), 3.into()).len(), 1);
    /// assert_eq!(torus.route(0.into(), 10.into()).len(), 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable; use [`Topology::try_route`] for
    /// fallible routing.
    pub fn route(&self, src: Vertex, dst: Vertex) -> Vec<LinkId> {
        self.try_route(src, dst)
            .unwrap_or_else(|e| panic!("routing failed: {e}"))
    }

    /// Fallible version of [`Topology::route`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Unreachable`] if no path exists.
    pub fn try_route(&self, src: Vertex, dst: Vertex) -> Result<Vec<LinkId>, TopologyError> {
        let mut path = Vec::new();
        self.route_into(src, dst, &mut path)?;
        Ok(path)
    }

    /// Appends the route from `src` to `dst` to `out`, so callers that
    /// resolve many routes reuse one buffer instead of allocating a
    /// path each. The one routing implementation behind
    /// [`Topology::route`] and [`Topology::try_route`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Unreachable`] if no path exists; `out` is
    /// then left as it was.
    pub fn route_into(
        &self,
        src: Vertex,
        dst: Vertex,
        out: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        if src == dst {
            return Ok(());
        }
        let start = out.len();
        // Degraded views invalidate the closed-form routes below (they
        // assume every grid/tree link exists and would panic or return a
        // path through a dead link); BFS follows the adjacency lists, which
        // already exclude disabled links.
        if self.has_disabled_links() {
            return self.route_bfs(src, dst, out);
        }
        let routed = match (self.kind(), src, dst) {
            (TopologyKind::Torus { rows, cols }, Vertex::Node(s), Vertex::Node(d)) => {
                self.route_grid(s, d, rows, cols, true, out);
                Ok(())
            }
            (TopologyKind::Mesh { rows, cols }, Vertex::Node(s), Vertex::Node(d)) => {
                self.route_grid(s, d, rows, cols, false, out);
                Ok(())
            }
            (TopologyKind::FatTree { leaves, .. }, Vertex::Node(s), Vertex::Node(d)) => {
                self.route_up_down(s, d, leaves, out)
            }
            (TopologyKind::BiGraph { lower, .. }, Vertex::Node(s), Vertex::Node(d)) => {
                self.route_up_down(s, d, lower, out)
            }
            (
                TopologyKind::Torus3D {
                    x_dim,
                    y_dim,
                    z_dim,
                },
                Vertex::Node(s),
                Vertex::Node(d),
            ) => {
                self.route_grid3(s, d, x_dim, y_dim, z_dim, out);
                Ok(())
            }
            (TopologyKind::Hypercube { dim }, Vertex::Node(s), Vertex::Node(d)) => {
                self.route_ecube(s, d, dim, out);
                Ok(())
            }
            _ => self.route_bfs(src, dst, out),
        };
        if routed.is_err() {
            out.truncate(start);
        }
        routed
    }

    /// Dimension-order routing: X first, then Y (each dimension takes the
    /// shorter wrap direction on a torus).
    fn route_grid(
        &self,
        src: NodeId,
        dst: NodeId,
        rows: usize,
        cols: usize,
        wrap: bool,
        path: &mut Vec<LinkId>,
    ) {
        let (sr, sc) = (src.index() / cols, src.index() % cols);
        let (dr, dc) = (dst.index() / cols, dst.index() % cols);
        let mut r = sr;
        let mut c = sc;
        let hop_to = |topo: &Topology, from: (usize, usize), to: (usize, usize)| {
            let a: Vertex = NodeId::new(from.0 * cols + from.1).into();
            let b: Vertex = NodeId::new(to.0 * cols + to.1).into();
            topo.find_link(a, b).expect("grid neighbors must be linked")
        };
        // X dimension
        while c != dc {
            let next = Self::grid_step(c, dc, cols, wrap);
            path.push(hop_to(self, (r, c), (r, next)));
            c = next;
        }
        // Y dimension
        while r != dr {
            let next = Self::grid_step(r, dr, rows, wrap);
            path.push(hop_to(self, (r, c), (next, c)));
            r = next;
        }
    }

    /// One step from `cur` toward `dst` along a dimension of extent `n`.
    fn grid_step(cur: usize, dst: usize, n: usize, wrap: bool) -> usize {
        if !wrap {
            return if dst > cur { cur + 1 } else { cur - 1 };
        }
        let fwd = (dst + n - cur) % n; // hops going +1
        let bwd = (cur + n - dst) % n; // hops going -1
        if fwd <= bwd {
            (cur + 1) % n
        } else {
            (cur + n - 1) % n
        }
    }

    /// Dimension-order routing on a 3D torus: X, then Y, then Z, each
    /// taking the shorter wrap direction.
    fn route_grid3(
        &self,
        src: NodeId,
        dst: NodeId,
        x_dim: usize,
        y_dim: usize,
        z_dim: usize,
        path: &mut Vec<LinkId>,
    ) {
        let coord = |n: NodeId| {
            (
                n.index() % x_dim,
                (n.index() / x_dim) % y_dim,
                n.index() / (x_dim * y_dim),
            )
        };
        let id = |x: usize, y: usize, z: usize| NodeId::new((z * y_dim + y) * x_dim + x);
        let (mut x, mut y, mut z) = coord(src);
        let (dx, dy, dz) = coord(dst);
        let hop = |topo: &Topology, from: NodeId, to: NodeId| {
            topo.find_link(from.into(), to.into())
                .expect("3D torus neighbors must be linked")
        };
        while x != dx {
            let next = Self::grid_step(x, dx, x_dim, true);
            path.push(hop(self, id(x, y, z), id(next, y, z)));
            x = next;
        }
        while y != dy {
            let next = Self::grid_step(y, dy, y_dim, true);
            path.push(hop(self, id(x, y, z), id(x, next, z)));
            y = next;
        }
        while z != dz {
            let next = Self::grid_step(z, dz, z_dim, true);
            path.push(hop(self, id(x, y, z), id(x, y, next)));
            z = next;
        }
    }

    /// E-cube routing on a hypercube: correct differing bits from the
    /// lowest upward.
    fn route_ecube(&self, src: NodeId, dst: NodeId, dim: u32, path: &mut Vec<LinkId>) {
        let mut cur = src.index();
        for bit in 0..dim {
            if (cur ^ dst.index()) & (1 << bit) != 0 {
                let next = cur ^ (1 << bit);
                path.push(
                    self.find_link(NodeId::new(cur).into(), NodeId::new(next).into())
                        .expect("hypercube neighbors must be linked"),
                );
                cur = next;
            }
        }
    }

    /// Up-down routing for two-level indirect networks. `edge_switches` is
    /// the count of switches that host nodes (leaf/lower switches, ids
    /// `0..edge_switches`); up-switches have ids `edge_switches..`.
    fn route_up_down(
        &self,
        src: NodeId,
        dst: NodeId,
        edge_switches: usize,
        path: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        let unreachable = || TopologyError::Unreachable {
            src: src.into(),
            dst: dst.into(),
        };
        let s_edge = self.attached_switch(src).ok_or_else(unreachable)?;
        let d_edge = self.attached_switch(dst).ok_or_else(unreachable)?;
        path.push(
            self.find_link(src.into(), s_edge.into())
                .ok_or_else(unreachable)?,
        );
        if s_edge != d_edge {
            // Deterministic up-switch choice: the source's index within its
            // edge switch (its rank among the switch's node neighbors).
            // With #up-switches == #nodes-per-edge-switch this gives every
            // node a private uplink.
            let idx_in_edge = self
                .neighbors(s_edge.into())
                .filter_map(|(v, _)| v.as_node())
                .filter(|&n| n < src)
                .count();
            let ups = || {
                self.neighbors(s_edge.into())
                    .filter_map(|(v, _)| v.as_switch())
                    .filter(|s| s.index() >= edge_switches)
            };
            let num_ups = ups().count();
            if num_ups == 0 {
                return Err(unreachable());
            }
            let up: SwitchId = ups().nth(idx_in_edge % num_ups).expect("index below count");
            path.push(
                self.find_link(s_edge.into(), up.into())
                    .ok_or_else(unreachable)?,
            );
            path.push(
                self.find_link(up.into(), d_edge.into())
                    .ok_or_else(unreachable)?,
            );
        }
        path.push(
            self.find_link(d_edge.into(), dst.into())
                .ok_or_else(unreachable)?,
        );
        Ok(())
    }

    /// BFS shortest path following deterministic neighbor order.
    fn route_bfs(
        &self,
        src: Vertex,
        dst: Vertex,
        path: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        let nv = self.num_vertices();
        let mut prev: Vec<Option<LinkId>> = vec![None; nv];
        let mut seen = vec![false; nv];
        let mut q = std::collections::VecDeque::new();
        seen[self.vertex_index(src)] = true;
        q.push_back(src);
        'bfs: while let Some(v) = q.pop_front() {
            for (n, l) in self.neighbors(v) {
                let ni = self.vertex_index(n);
                if !seen[ni] {
                    seen[ni] = true;
                    prev[ni] = Some(l);
                    if n == dst {
                        break 'bfs;
                    }
                    q.push_back(n);
                }
            }
        }
        if !seen[self.vertex_index(dst)] {
            return Err(TopologyError::Unreachable { src, dst });
        }
        let start = path.len();
        let mut cur = dst;
        while cur != src {
            let l = prev[self.vertex_index(cur)].expect("bfs chain must be complete");
            path.push(l);
            cur = self.link(l).src;
        }
        path[start..].reverse();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;

    fn check_path(t: &Topology, src: Vertex, dst: Vertex) {
        let path = t.route(src, dst);
        let mut cur = src;
        for l in &path {
            let link = t.link(*l);
            assert_eq!(link.src, cur, "path must be contiguous");
            cur = link.dst;
        }
        assert_eq!(cur, dst, "path must end at destination");
    }

    #[test]
    fn torus_dor_takes_shortest_wrap() {
        let t = Topology::torus(4, 4);
        // (0,0) -> (0,3): wraparound is 1 hop vs 3 hops forward
        let p = t.route(0.into(), 3.into());
        assert_eq!(p.len(), 1);
        // (0,0) -> (2,2): 2 + 2 hops either way
        let p = t.route(0.into(), 10.into());
        assert_eq!(p.len(), 4);
        for a in 0..16usize {
            for b in 0..16usize {
                check_path(&t, a.into(), b.into());
            }
        }
    }

    #[test]
    fn mesh_dor_no_wrap() {
        let m = Topology::mesh(4, 4);
        let p = m.route(0.into(), 3.into());
        assert_eq!(p.len(), 3);
        let p = m.route(0.into(), 15.into());
        assert_eq!(p.len(), 6);
        for a in 0..16usize {
            for b in 0..16usize {
                check_path(&m, a.into(), b.into());
            }
        }
    }

    #[test]
    fn mesh_route_is_x_then_y() {
        let m = Topology::mesh(4, 4);
        // 0 -> 5 must go 0 -> 1 (X) then 1 -> 5 (Y)
        let p = m.route(0.into(), 5.into());
        assert_eq!(m.link(p[0]).dst, Vertex::Node(NodeId::new(1)));
        assert_eq!(m.link(p[1]).dst, Vertex::Node(NodeId::new(5)));
    }

    #[test]
    fn fattree_same_leaf_two_hops() {
        let ft = Topology::dgx2_like_16();
        let p = ft.route(0.into(), 1.into());
        assert_eq!(p.len(), 2);
        let p = ft.route(0.into(), 15.into());
        assert_eq!(p.len(), 4);
        for a in 0..16usize {
            for b in 0..16usize {
                check_path(&ft, a.into(), b.into());
            }
        }
    }

    #[test]
    fn fattree_private_uplinks() {
        // With spines == nodes_per_leaf, nodes of one leaf use distinct
        // spines for their up-route.
        let ft = Topology::fat_tree_two_level(4, 4, 4);
        let mut spines_used = std::collections::HashSet::new();
        for n in 0..4usize {
            let p = ft.route(n.into(), 15.into());
            // second link is leaf -> spine
            let spine = ft.link(p[1]).dst;
            spines_used.insert(spine);
        }
        assert_eq!(spines_used.len(), 4);
    }

    #[test]
    fn bigraph_routes() {
        let bg = Topology::bigraph_32();
        assert_eq!(bg.route(0.into(), 1.into()).len(), 2);
        assert_eq!(bg.route(0.into(), 31.into()).len(), 4);
        for a in 0..32usize {
            for b in 0..32usize {
                check_path(&bg, a.into(), b.into());
            }
        }
    }

    #[test]
    fn custom_bfs_route() {
        let mut b = TopologyBuilder::new();
        let ns = b.add_nodes(4);
        // a path graph 0-1-2-3
        b.add_bidi(ns[0].into(), ns[1].into());
        b.add_bidi(ns[1].into(), ns[2].into());
        b.add_bidi(ns[2].into(), ns[3].into());
        let t = b.build().unwrap();
        assert_eq!(t.route(0.into(), 3.into()).len(), 3);
        check_path(&t, 0.into(), 3.into());
    }

    #[test]
    fn routes_rebuild_after_link_removal() {
        // the regression this guards: DOR caches nothing, but it *assumes*
        // the full grid — after removing a link the route must re-derive
        // from the degraded adjacency, never traversing the removed edge
        // and never panicking
        for t in [Topology::torus(4, 4), Topology::mesh(4, 4)] {
            let dead = t.find_link(0.into(), 1.into()).unwrap();
            let d = t.without_links(&[dead]);
            let p = d.route(0.into(), 1.into());
            assert!(!p.is_empty());
            assert!(!p.contains(&dead), "route must avoid the removed edge");
            check_path(&d, 0.into(), 1.into());
            // all pairs still route, and never over the dead link
            for a in 0..16usize {
                for b in 0..16usize {
                    let p = d.try_route(a.into(), b.into()).unwrap();
                    assert!(!p.contains(&dead), "{a}->{b} used removed edge");
                    check_path(&d, a.into(), b.into());
                }
            }
        }
    }

    #[test]
    fn fat_tree_routes_around_removed_uplink() {
        let ft = Topology::dgx2_like_16();
        // kill node 0's deterministic up-down path: the leaf->spine hop
        let p = ft.route(0.into(), 15.into());
        let dead = p[1];
        let d = ft.without_links(&[dead]);
        let rerouted = d.try_route(0.into(), 15.into()).unwrap();
        assert!(!rerouted.contains(&dead));
        check_path(&d, 0.into(), 15.into());
    }

    #[test]
    fn unreachable_is_error() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        let t = b.build().unwrap();
        assert!(matches!(
            t.try_route(0.into(), 1.into()),
            Err(TopologyError::Unreachable { .. })
        ));
    }

    #[test]
    fn route_into_appends_what_route_returns() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        let disconnected = b.build().unwrap();
        for t in [
            Topology::torus(4, 4),
            Topology::mesh(3, 5),
            Topology::fat_tree_64(),
            Topology::bigraph_32(),
            Topology::hypercube(4),
        ] {
            let mut out = vec![LinkId::new(99)];
            for a in 0..t.num_nodes().min(12) {
                for z in 0..t.num_nodes().min(12) {
                    let before = out.len();
                    t.route_into(a.into(), z.into(), &mut out).unwrap();
                    assert_eq!(out[before..], t.route(a.into(), z.into())[..]);
                }
            }
            assert_eq!(out[0], LinkId::new(99));
        }
        let mut out = vec![LinkId::new(7)];
        assert!(disconnected
            .route_into(0.into(), 1.into(), &mut out)
            .is_err());
        assert_eq!(out, [LinkId::new(7)], "a failed route leaves the buffer as it was");
    }

    #[test]
    fn empty_route_to_self() {
        let t = Topology::torus(2, 2);
        assert!(t.route(1.into(), 1.into()).is_empty());
    }
}
