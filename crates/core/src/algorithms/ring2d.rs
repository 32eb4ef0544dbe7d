//! 2D-Ring all-reduce (Ying et al., TPU supercomputer scale).

use crate::algorithms::AllReduce;
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{DimRing, NodeId, RingEmbedding, Topology, TopologyKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Two-dimensional ring all-reduce for Torus/Mesh grids (paper §II-C).
///
/// The gradient is split into two halves that move through the two grid
/// dimensions in opposite orders, and each half is further split across
/// **both directions** of its rings, keeping *all* row and column links
/// busy simultaneously (the full link utilization Ying et al. report):
///
/// * half **A**: bidirectional ring all-reduce within each **row**, then
///   within each **column**;
/// * half **B**: columns first, then rows.
///
/// This cuts the step count from ring's `2(n-1)` to
/// `2(cols-1) + 2(rows-1)`-ish, but each half crosses the full data twice,
/// so the per-node volume is `2·D·[(C-1)/C + (R-1)/R]` — asymptotically
/// **twice** the bandwidth-optimal volume (the paper's `2N(N-1)` vs
/// `N²-1` data units on an `N x N` torus).
///
/// Intermediate all-gathers broadcast *row/column-partial* sums as
/// `Gather` (overwrite) events — numerically exact, as the verifier's
/// numeric execution confirms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring2D;

impl Ring2D {
    /// True for grids with at least two rows and two columns.
    pub fn supports(topo: &Topology) -> bool {
        matches!(
            topo.kind(),
            TopologyKind::Torus { rows, cols } | TopologyKind::Mesh { rows, cols }
                if rows >= 2 && cols >= 2
        )
    }
}

impl AllReduce for Ring2D {
    fn name(&self) -> &'static str {
        "ring2d"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let (rows, cols) = match topo.kind() {
            TopologyKind::Torus { rows, cols } | TopologyKind::Mesh { rows, cols } => (rows, cols),
            _ => {
                return Err(AlgorithmError::UnsupportedTopology {
                    algorithm: self.name(),
                    reason: "2D-Ring is dedicated to 2D Torus/Mesh networks".into(),
                })
            }
        };
        if rows < 2 || cols < 2 {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: self.name(),
                reason: format!("needs a 2D grid, got {rows}x{cols}"),
            });
        }
        let rc = (rows * cols) as u32;
        // quarters: half A split over both ring directions, same for B
        let mut s = CommSchedule::new(self.name(), rows * cols, 4 * rc);
        let dims = DimRing::for_grid(topo);
        let a_fwd = ChunkRange::new(0, rc);
        let a_rev = ChunkRange::new(rc, 2 * rc);
        let b_fwd = ChunkRange::new(2 * rc, 3 * rc);
        let b_rev = ChunkRange::new(3 * rc, 4 * rc);

        // Phase 1: half A through rows, half B through columns,
        // concurrently, each quarter on one ring direction.
        let mut recv_a: HashMap<NodeId, Vec<EventId>> = HashMap::new();
        let mut recv_b: HashMap<NodeId, Vec<EventId>> = HashMap::new();
        let empty = HashMap::new();
        let mut p1_end = 0;
        for ring in &dims.rows {
            p1_end = p1_end.max(ring_allreduce(
                &mut s, ring, a_fwd, 0, &empty, &mut recv_a,
            ));
            ring_allreduce(&mut s, &ring.reversed(), a_rev, 0, &empty, &mut recv_a);
        }
        for ring in &dims.cols {
            p1_end = p1_end.max(ring_allreduce(
                &mut s, ring, b_fwd, 0, &empty, &mut recv_b,
            ));
            ring_allreduce(&mut s, &ring.reversed(), b_rev, 0, &empty, &mut recv_b);
        }

        // Phase 2: half A through columns, half B through rows.
        let mut recv_a2 = HashMap::new();
        let mut recv_b2 = HashMap::new();
        for ring in &dims.cols {
            ring_allreduce(&mut s, ring, a_fwd, p1_end, &recv_a, &mut recv_a2);
            ring_allreduce(&mut s, &ring.reversed(), a_rev, p1_end, &recv_a, &mut recv_a2);
        }
        for ring in &dims.rows {
            ring_allreduce(&mut s, ring, b_fwd, p1_end, &recv_b, &mut recv_b2);
            ring_allreduce(&mut s, &ring.reversed(), b_rev, p1_end, &recv_b, &mut recv_b2);
        }
        Ok(s)
    }
}

/// Emits a ring all-reduce (reduce-scatter + all-gather) of `segs` among
/// the members of `ring`, with steps starting after `base_step`.
///
/// `carry_in[node]` lists events whose deliveries a node's payload
/// depends on from the previous phase; deliveries made here are appended
/// to `received`.
///
/// Returns the last step used.
fn ring_allreduce(
    s: &mut CommSchedule,
    ring: &RingEmbedding,
    segs: ChunkRange,
    base_step: u32,
    carry_in: &HashMap<NodeId, Vec<EventId>>,
    received: &mut HashMap<NodeId, Vec<EventId>>,
) -> u32 {
    let m = ring.len();
    if m < 2 {
        return base_step;
    }
    assert_eq!(
        segs.len() % m as u32,
        0,
        "segment count must divide evenly among ring members"
    );
    let per = segs.len() / m as u32;
    let chunk = |j: usize| {
        ChunkRange::new(
            segs.start + j as u32 * per,
            segs.start + (j as u32 + 1) * per,
        )
    };
    let mut last: Vec<Option<EventId>> = vec![None; m];

    // Reduce-scatter.
    for step in 1..m {
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            let src = ring.at(j + step);
            let dst = ring.at(j + step + 1);
            let deps = carry_in.get(&src).into_iter().flatten().copied().chain(last[j]);
            let id = s.push_event(
                src,
                dst,
                FlowId(segs.start as usize + j),
                CollectiveOp::Reduce,
                chunk(j),
                base_step + step as u32,
                deps,
                None,
            );
            last[j] = Some(id);
            received.entry(dst).or_default().push(id);
        }
    }
    // All-gather (overwrite semantics).
    let op = CollectiveOp::Gather;
    for step in 1..m {
        #[allow(clippy::needless_range_loop)]
        for j in 0..m {
            let src = ring.at(j + step - 1);
            let dst = ring.at(j + step);
            // carry_in matters for the owner starting the broadcast: its
            // buffer's prior-phase contributions arrived via those events
            let deps = carry_in.get(&src).into_iter().flatten().copied().chain(last[j]);
            let id = s.push_event(
                src,
                dst,
                FlowId(segs.start as usize + j),
                op,
                chunk(j),
                base_step + (m - 1 + step) as u32,
                deps,
                None,
            );
            last[j] = Some(id);
            received.entry(dst).or_default().push(id);
        }
    }
    base_step + 2 * (m as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;

    #[test]
    fn ring2d_verifies_on_tori_and_meshes() {
        for topo in [
            Topology::torus(4, 4),
            Topology::torus(4, 8),
            Topology::mesh(4, 4),
            Topology::torus(2, 2),
            Topology::mesh(2, 3),
        ] {
            let s = Ring2D.build(&topo).unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn ring2d_rejects_non_grid() {
        assert!(Ring2D.build(&Topology::dgx2_like_16()).is_err());
        assert!(Ring2D.build(&Topology::torus(1, 8)).is_err());
        assert!(!Ring2D::supports(&Topology::bigraph_32()));
    }

    #[test]
    fn far_fewer_steps_than_ring() {
        let topo = Topology::torus(8, 8);
        let s = Ring2D.build(&topo).unwrap();
        // 2(C-1) + 2(R-1) = 28 vs ring's 126
        assert_eq!(s.num_steps(), 28);
    }

    #[test]
    fn volume_is_about_twice_optimal() {
        let topo = Topology::torus(8, 8);
        let s = Ring2D.build(&topo).unwrap();
        let total = (128 * 64) as u64; // divisible by 2*RC
        let sent = s.sent_bytes_per_node(total);
        // per node: 2 * D/2 * (7/8) per dimension pass * 2 passes per half
        let expected = 2 * (total / 2) * 7 / 8 * 2 / 2 + 2 * (total / 2) * 7 / 8;
        // simpler bound check: between 1.5x and 2x of ring's 2*63/64*D
        let ring_vol = 2 * total * 63 / 64;
        for v in sent {
            assert!(
                v > ring_vol * 14 / 10 && v < ring_vol * 2,
                "volume {v} not in (1.4x, 2x) of ring volume {ring_vol}"
            );
        }
        let _ = expected;
    }

    #[test]
    fn phase1_uses_both_dimensions_concurrently() {
        let topo = Topology::torus(4, 4);
        let s = Ring2D.build(&topo).unwrap();
        let step1: Vec<_> = s.events_by_step()[0].clone();
        // each node sends four messages at step 1: both row directions
        // and both column directions — full link utilization
        let mut per_node = std::collections::HashMap::new();
        for e in &step1 {
            *per_node.entry(e.src).or_insert(0) += 1;
        }
        assert!(per_node.values().all(|&c| c == 4));
    }

    #[test]
    fn rectangular_grid_segments_divide() {
        let topo = Topology::torus(2, 8);
        let s = Ring2D.build(&topo).unwrap();
        verify_schedule(&s).unwrap();
        assert_eq!(s.total_segments(), 64);
    }
}
