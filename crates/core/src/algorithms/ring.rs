//! Ring all-reduce (Baidu / NCCL default for large messages).

use crate::algorithms::AllReduce;
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{RingEmbedding, Topology};

/// Bandwidth-optimal ring all-reduce: a reduce-scatter pass followed by an
/// all-gather pass over a logical ring (paper §II-B, Fig. 1).
///
/// The ring is embedded with [`RingEmbedding::hamiltonian`], so consecutive
/// ring neighbors are physically adjacent on a torus while a mesh pays a
/// multi-hop closing edge — reproducing the topology sensitivity the paper
/// discusses. Data is split into `n` chunks; chunk `j` is reduced to the
/// node at ring position `j` and then broadcast from it.
///
/// `2(n-1)` steps; each node sends `2 (n-1)/n · D` bytes (bandwidth
/// optimal), but latency grows linearly with `n`.
///
/// ```
/// use mt_topology::Topology;
/// use multitree::algorithms::{AllReduce, Ring};
///
/// let schedule = Ring.build(&Topology::torus(4, 4))?;
/// assert_eq!(schedule.num_steps(), 30); // 2(n-1)
/// # Ok::<(), multitree::AlgorithmError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ring;

impl AllReduce for Ring {
    fn name(&self) -> &'static str {
        "ring"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let ring = RingEmbedding::hamiltonian(topo);
        let mut s = CommSchedule::new(self.name(), n, n.max(1) as u32);
        if n < 2 {
            return Ok(s);
        }
        // 2(n-1) steps of n events; all but each chunk's first send
        // depend on the chunk's previous delivery
        let events = 2 * n * (n - 1);
        s.reserve(events, events - n, 0);
        // last event that delivered chunk j (indexed by chunk)
        let mut last: Vec<Option<EventId>> = vec![None; n];

        // Reduce-scatter: chunk j moves from ring position (j+s) to
        // (j+s+1) at step s; after n-1 steps it is fully reduced at
        // position j.
        for step in 1..n {
            #[allow(clippy::needless_range_loop)]
            for j in 0..n {
                let src = ring.at(j + step);
                let dst = ring.at(j + step + 1);
                let id = s.push_event(
                    src,
                    dst,
                    FlowId(j),
                    CollectiveOp::Reduce,
                    ChunkRange::single(j as u32),
                    step as u32,
                    last[j],
                    None,
                );
                last[j] = Some(id);
            }
        }
        // All-gather: chunk j moves from position (j+s-1) to (j+s).
        for step in 1..n {
            #[allow(clippy::needless_range_loop)]
            for j in 0..n {
                let src = ring.at(j + step - 1);
                let dst = ring.at(j + step);
                let id = s.push_event(
                    src,
                    dst,
                    FlowId(j),
                    CollectiveOp::Gather,
                    ChunkRange::single(j as u32),
                    (n - 1 + step) as u32,
                    last[j],
                    None,
                );
                last[j] = Some(id);
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;

    #[test]
    fn ring_verifies_on_torus() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        assert_eq!(s.num_steps(), 30); // 2(n-1)
        assert_eq!(s.events().len(), 2 * 16 * 15);
        verify_schedule(&s).unwrap();
    }

    #[test]
    fn ring_verifies_on_mesh_and_fattree_and_bigraph() {
        for topo in [
            Topology::mesh(4, 4),
            Topology::dgx2_like_16(),
            Topology::bigraph_32(),
        ] {
            let s = Ring.build(&topo).unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn ring_is_bandwidth_optimal() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        let total = 16 * 1024;
        for sent in s.sent_bytes_per_node(total) {
            // each node sends 2(n-1)/n * D
            assert_eq!(sent, 2 * 15 * (total / 16));
        }
    }

    #[test]
    fn every_step_each_node_sends_once() {
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        for step_events in s.events_by_step() {
            let mut senders: Vec<_> = step_events.iter().map(|e| e.src).collect();
            senders.sort();
            senders.dedup();
            assert_eq!(senders.len(), 16, "every node sends exactly once per step");
        }
    }

    #[test]
    fn two_node_ring() {
        let topo = Topology::torus(1, 2);
        let s = Ring.build(&topo).unwrap();
        assert_eq!(s.num_steps(), 2);
        verify_schedule(&s).unwrap();
    }

    #[test]
    fn single_node_is_empty() {
        let topo = Topology::mesh(1, 1);
        let s = Ring.build(&topo).unwrap();
        assert_eq!(s.num_events(), 0);
        verify_schedule(&s).unwrap();
    }

    #[test]
    fn ring_hops_are_single_on_torus() {
        // every transfer is between physically adjacent nodes on a torus
        let topo = Topology::torus(4, 4);
        let s = Ring.build(&topo).unwrap();
        for e in s.events() {
            assert_eq!(topo.distance(e.src.into(), e.dst.into()), Some(1));
        }
    }
}
