//! Halving-doubling with rank mapping (HDRM) — the EFLOPS co-design.

use crate::algorithms::halving_doubling::build_with_mapping;
use crate::algorithms::AllReduce;
use crate::error::AlgorithmError;
use crate::schedule::CommSchedule;
use crate::util::color_bipartite_multigraph;
use mt_topology::{LinkId, NodeId, SwitchId, Topology, TopologyKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Halving-doubling with the EFLOPS rank mapping on a BiGraph network
/// (paper §II-C / Fig. 9d baseline).
///
/// Ranks are mapped onto nodes such that **every** exchange pair of every
/// halving-doubling step lands on two *different* lower switches: even-
/// popcount ranks fill the first half of the switches, odd-popcount ranks
/// the second half, exploiting the bipartiteness of the hypercube exchange
/// graph. Each step's transfers are then assigned to upper switches by a
/// proper bipartite edge coloring, which guarantees no link carries two
/// concurrent transfers — the EFLOPS contention-freedom property.
///
/// The price, which the paper measures: every pair is 4 links apart, so
/// HDRM "never exploits the one-hop distance between nodes connected to
/// the same switch" and loses to MultiTree for latency-bound sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hdrm;

impl Hdrm {
    /// True if `topo` is a BiGraph with a power-of-two node count and an
    /// even number of lower switches (needed to split the parity classes).
    pub fn supports(topo: &Topology) -> bool {
        matches!(topo.kind(), TopologyKind::BiGraph { lower, .. } if lower % 2 == 0)
            && topo.num_nodes().is_power_of_two()
    }

    /// The EFLOPS-style rank→node mapping: rank `r` goes to the first
    /// half of the lower switches if `popcount(r)` is even, else the
    /// second half (dense within each class, ascending).
    pub fn rank_mapping(topo: &Topology) -> Vec<NodeId> {
        let n = topo.num_nodes();
        let mut even_slot = 0usize;
        let mut odd_slot = n / 2;
        (0..n)
            .map(|r| {
                if (r as u32).count_ones().is_multiple_of(2) {
                    let node = NodeId::new(even_slot);
                    even_slot += 1;
                    node
                } else {
                    let node = NodeId::new(odd_slot);
                    odd_slot += 1;
                    node
                }
            })
            .collect()
    }
}

impl AllReduce for Hdrm {
    fn name(&self) -> &'static str {
        "hdrm"
    }

    fn build(&self, topo: &Topology) -> Result<CommSchedule, AlgorithmError> {
        let TopologyKind::BiGraph { upper, lower, .. } = topo.kind() else {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: self.name(),
                reason: "HDRM is co-designed with the BiGraph topology".into(),
            });
        };
        if !Hdrm::supports(topo) {
            return Err(AlgorithmError::UnsupportedTopology {
                algorithm: self.name(),
                reason: format!(
                    "needs power-of-two nodes and even lower-switch count, got {} nodes / {} lower",
                    topo.num_nodes(),
                    lower
                ),
            });
        }
        let mapping = Hdrm::rank_mapping(topo);
        let n = topo.num_nodes();
        let levels = n.trailing_zeros();

        // Precompute contention-free paths for every step: each step's
        // transfers form a bipartite multigraph over (source lower switch,
        // destination lower switch); a proper edge coloring with the upper
        // switches as colors yields disjoint 4-link paths.
        let mut paths: HashMap<(u32, NodeId, NodeId), Vec<LinkId>> = HashMap::new();
        for step in 1..=(2 * levels) {
            // bit index of this step's exchange (RS doubles, AG halves)
            let i = if step <= levels {
                step - 1
            } else {
                2 * levels - step
            };
            let transfers: Vec<(NodeId, NodeId)> = (0..n)
                .map(|r| (mapping[r], mapping[r ^ (1usize << i)]))
                .collect();
            let edges: Vec<(usize, usize)> = transfers
                .iter()
                .map(|&(s, d)| {
                    let ss = topo.attached_switch(s).expect("node has switch");
                    let ds = topo.attached_switch(d).expect("node has switch");
                    (ss.index(), ds.index())
                })
                .collect();
            let colors = color_bipartite_multigraph(lower, lower, &edges);
            for (ti, &(src, dst)) in transfers.iter().enumerate() {
                let up = SwitchId::new(lower + colors[ti] % upper);
                let ss = topo.attached_switch(src).expect("node has switch");
                let ds = topo.attached_switch(dst).expect("node has switch");
                let path = vec![
                    topo.find_link(src.into(), ss.into()).expect("uplink"),
                    topo.find_link(ss.into(), up.into()).expect("lower->upper"),
                    topo.find_link(up.into(), ds.into()).expect("upper->lower"),
                    topo.find_link(ds.into(), dst.into()).expect("downlink"),
                ];
                paths.insert((step, src, dst), path);
            }
        }

        build_with_mapping(self.name(), n, &mapping, |step, src, dst| {
            paths.get(&(step, src, dst)).map(Vec::as_slice)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_schedule;
    use std::collections::HashSet;

    #[test]
    fn hdrm_verifies_on_bigraphs() {
        for topo in [Topology::bigraph_32(), Topology::bigraph_64()] {
            let s = Hdrm.build(&topo).unwrap();
            verify_schedule(&s).unwrap();
        }
    }

    #[test]
    fn hdrm_rejects_non_bigraph() {
        let topo = Topology::torus(4, 4);
        assert!(matches!(
            Hdrm.build(&topo),
            Err(AlgorithmError::UnsupportedTopology { .. })
        ));
    }

    #[test]
    fn every_pair_crosses_switches() {
        // The paper's observation: HDRM never pairs same-switch nodes.
        let topo = Topology::bigraph_32();
        let s = Hdrm.build(&topo).unwrap();
        for e in s.events() {
            let ss = topo.attached_switch(e.src).unwrap();
            let ds = topo.attached_switch(e.dst).unwrap();
            assert_ne!(ss, ds, "{e} pairs two nodes on switch {ss}");
        }
    }

    #[test]
    fn per_step_paths_are_contention_free() {
        let topo = Topology::bigraph_64();
        let s = Hdrm.build(&topo).unwrap();
        for (si, step_events) in s.events_by_step().iter().enumerate() {
            let mut used: HashSet<usize> = HashSet::new();
            for e in step_events {
                for l in e.path().expect("hdrm events carry paths") {
                    assert!(
                        used.insert(l.index()),
                        "step {}: link {} used twice",
                        si + 1,
                        l
                    );
                }
            }
        }
    }

    #[test]
    fn paths_are_contiguous_and_four_links() {
        let topo = Topology::bigraph_32();
        let s = Hdrm.build(&topo).unwrap();
        for e in s.events() {
            let p = e.path.as_ref().unwrap();
            assert_eq!(p.len(), 4);
            assert_eq!(topo.link(p[0]).src, e.src.into());
            assert_eq!(topo.link(p[3]).dst, e.dst.into());
            for w in p.windows(2) {
                assert_eq!(topo.link(w[0]).dst, topo.link(w[1]).src);
            }
        }
    }

    #[test]
    fn mapping_is_a_permutation() {
        let topo = Topology::bigraph_32();
        let m = Hdrm::rank_mapping(&topo);
        let set: HashSet<_> = m.iter().collect();
        assert_eq!(set.len(), 32);
    }

    #[test]
    fn step_count_matches_hd() {
        let topo = Topology::bigraph_32();
        let s = Hdrm.build(&topo).unwrap();
        assert_eq!(s.num_steps(), 10); // 2 * log2(32)
    }
}
