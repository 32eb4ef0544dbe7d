//! Recursive halving-doubling all-reduce (MPICH / Rabenseifner).

use crate::algorithms::AllReduce;
use crate::chunk::ChunkRange;
use crate::error::AlgorithmError;
use crate::event::{CollectiveOp, EventId, FlowId};
use crate::schedule::CommSchedule;
use mt_topology::{LinkId, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Plain halving-doubling: `log2(n)` reduce-scatter steps with recursive
/// vector halving and distance doubling, then `log2(n)` all-gather steps
/// in reverse (paper §I / Thakur et al.).
///
/// Requires a power-of-two node count. Every step exchanges with partner
/// `rank XOR 2^i`, halving the active data range; low latency for small
/// messages but topology-oblivious (the HDRM variant adds the EFLOPS rank
/// mapping for BiGraph networks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HalvingDoubling;

impl AllReduce for HalvingDoubling {
    fn name(&self) -> &'static str {
        "halving-doubling"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let n = topo.num_nodes();
        let identity: Vec<NodeId> = topo.node_ids().collect();
        build_with_mapping(self.name(), n, &identity, |_, _, _| None)
    }
}

/// Builds a halving-doubling schedule with an explicit rank→node mapping
/// and a per-transfer path assigner (both used by HDRM).
///
/// `path_of(step, src, dst)` may return an explicit link path for the
/// transfer; `None` falls back to topology routing in the simulator.
///
/// # Errors
///
/// Returns [`AlgorithmError::UnsupportedTopology`] unless `n` is a power
/// of two (and ≥ 1).
pub(crate) fn build_with_mapping<'p>(
    name: &'static str,
    n: usize,
    rank_to_node: &[NodeId],
    mut path_of: impl FnMut(u32, NodeId, NodeId) -> Option<&'p [LinkId]>,
) -> Result<CommSchedule, AlgorithmError> {
    if n == 0 || !n.is_power_of_two() {
        return Err(AlgorithmError::UnsupportedTopology {
            algorithm: name,
            reason: format!("halving-doubling requires a power-of-two node count, got {n}"),
        });
    }
    assert_eq!(rank_to_node.len(), n, "mapping must cover all ranks");
    let mut s = CommSchedule::new(name, n, n as u32);
    if n == 1 {
        return Ok(s);
    }
    let levels = n.trailing_zeros();

    // Every rank's current data range, and every delivery it has received
    // so far (a send's payload legally derives from all prior receives).
    let mut range: Vec<ChunkRange> = vec![ChunkRange::new(0, n as u32); n];
    let mut received: Vec<Vec<EventId>> = vec![Vec::new(); n];

    // Steps 1..=levels reduce-scatter: step i + 1 exchanges with rank
    // XOR 2^i, giving away one half of the current range and keeping the
    // other. Steps levels+1..=2·levels all-gather in reverse order,
    // doubling the owned range each step.
    for step in 1..=2 * levels {
        let reduce = step <= levels;
        let i = if reduce { step - 1 } else { 2 * levels - step };
        let op = if reduce { CollectiveOp::Reduce } else { CollectiveOp::Gather };
        // first create all events of this step (both directions per pair)
        let mut deliveries: Vec<(usize, EventId)> = Vec::new();
        for r in 0..n {
            let p = r ^ (1 << i);
            let chunk = if reduce {
                // r keeps lower half iff bit i is 0; sends the other half
                let (lower, upper) = (range[r].lower_half(), range[r].upper_half());
                let (keep, give) = if r & (1 << i) == 0 { (lower, upper) } else { (upper, lower) };
                range[r] = keep;
                give
            } else {
                range[r]
            };
            let (src, dst) = (rank_to_node[r], rank_to_node[p]);
            let deps = received[r].iter().copied();
            let id = s.push_event(src, dst, FlowId(0), op, chunk, step, deps, path_of(step, src, dst));
            deliveries.push((p, id));
        }
        for (p, id) in deliveries {
            received[p].push(id);
        }
        if reduce {
            continue;
        }
        // ranges merge: partner pairs now share the doubled range
        for r in 0..n {
            let p = r ^ (1 << i);
            if r < p {
                let merged = ChunkRange::new(
                    range[r].start.min(range[p].start),
                    range[r].end.max(range[p].end),
                );
                range[r] = merged;
                range[p] = merged;
            }
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;

    #[test]
    fn hd_verifies_on_power_of_two() {
        for topo in [
            Topology::torus(4, 4),
            Topology::torus(8, 8),
            Topology::dgx2_like_16(),
            Topology::torus(1, 2),
        ] {
            let s = HalvingDoubling.build(&topo).unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn hd_rejects_non_power_of_two() {
        let topo = Topology::mesh(3, 3);
        assert!(matches!(
            HalvingDoubling.build(&topo),
            Err(AlgorithmError::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn hd_step_count_is_2logn() {
        let topo = Topology::torus(4, 4);
        let s = HalvingDoubling.build(&topo).unwrap();
        assert_eq!(s.num_steps(), 8); // 2 * log2(16)
    }

    #[test]
    fn hd_is_bandwidth_optimal() {
        let topo = Topology::torus(4, 4);
        let s = HalvingDoubling.build(&topo).unwrap();
        let total = 16 * 1024u64;
        for sent in s.sent_bytes_per_node(total) {
            // RS sends D/2 + D/4 + ... + D/16 = D*(n-1)/n, AG the same
            assert_eq!(sent, 2 * 15 * (total / 16));
        }
    }

    #[test]
    fn hd_exchange_sizes_halve() {
        let topo = Topology::torus(4, 4);
        let s = HalvingDoubling.build(&topo).unwrap();
        let by_step = s.events_by_step();
        // step 1 carries 8 segments per event, step 2 carries 4, ...
        assert!(by_step[0].iter().all(|e| e.chunk.len() == 8));
        assert!(by_step[1].iter().all(|e| e.chunk.len() == 4));
        assert!(by_step[3].iter().all(|e| e.chunk.len() == 1));
        // all-gather mirrors
        assert!(by_step[4].iter().all(|e| e.chunk.len() == 1));
        assert!(by_step[7].iter().all(|e| e.chunk.len() == 8));
    }

    #[test]
    fn partner_distance_doubles() {
        let topo = Topology::torus(4, 4);
        let s = HalvingDoubling.build(&topo).unwrap();
        for e in s.events_by_step()[0].iter() {
            assert_eq!(e.src.index() ^ e.dst.index(), 1);
        }
        for e in s.events_by_step()[2].iter() {
            assert_eq!(e.src.index() ^ e.dst.index(), 4);
        }
    }
}
