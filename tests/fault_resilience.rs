//! Link-failure and reallocation resilience — the paper's dynamic-system
//! story (§III-C1: "In dynamic and shared systems, [the algorithm] runs
//! every time a new set of nodes is allocated"): when the machine
//! degrades (a cable dies) or the allocation changes, re-running the
//! construction must yield a correct, contention-free schedule on
//! whatever connectivity remains.

use multitree::algorithms::{AllReduce, MultiTree, Ring};
use multitree::cost::analyze;
use multitree::verify::{verify_allreduce_among, verify_schedule};
use mt_netsim::{flow::FlowEngine, Engine, NetworkConfig};
use mt_topology::{NodeId, Topology, TopologyBuilder, Vertex};

/// Rebuilds `topo` with the bidirectional cable between `a` and `b`
/// removed (both unidirectional links).
fn without_cable(topo: &Topology, a: usize, b: usize) -> Topology {
    let mut builder = TopologyBuilder::new();
    builder.add_nodes(topo.num_nodes());
    for _ in 0..topo.num_switches() {
        builder.add_switch();
    }
    for l in topo.links() {
        let is_dead = matches!(
            (l.src, l.dst),
            (Vertex::Node(x), Vertex::Node(y))
                if (x.index() == a && y.index() == b) || (x.index() == b && y.index() == a)
        );
        if !is_dead {
            builder.add_link(l.src, l.dst);
        }
    }
    builder.build().unwrap()
}

#[test]
fn multitree_survives_any_single_cable_failure() {
    let topo = Topology::torus(4, 4);
    // kill each distinct cable once (sample every third to bound runtime)
    let mut cables: Vec<(usize, usize)> = topo
        .links()
        .iter()
        .filter_map(|l| match (l.src, l.dst) {
            (Vertex::Node(a), Vertex::Node(b)) if a.index() < b.index() => {
                Some((a.index(), b.index()))
            }
            _ => None,
        })
        .collect();
    cables.sort_unstable();
    cables.dedup();
    for (a, b) in cables.into_iter().step_by(3) {
        let degraded = without_cable(&topo, a, b);
        assert!(degraded.is_connected());
        let s = MultiTree::default().build(&degraded).unwrap();
        verify_schedule(&s)
            .unwrap_or_else(|e| panic!("cable {a}-{b} removed: {e}"));
        let stats = analyze(&s, &degraded, 1 << 20);
        assert!(
            stats.is_contention_free(),
            "cable {a}-{b} removed: {stats:?}"
        );
    }
}

#[test]
fn degradation_costs_bandwidth_but_not_correctness() {
    let topo = Topology::torus(4, 4);
    let degraded = without_cable(&topo, 5, 6);
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let healthy = engine
        .run(&topo, &MultiTree::default().build(&topo).unwrap(), 8 << 20)
        .unwrap();
    let broken = engine
        .run(
            &degraded,
            &MultiTree::default().build(&degraded).unwrap(),
            8 << 20,
        )
        .unwrap();
    assert!(
        broken.completion_ns >= healthy.completion_ns,
        "losing a cable cannot speed things up"
    );
    assert!(
        broken.completion_ns < healthy.completion_ns * 2.0,
        "a single cable should not halve the machine: {} vs {}",
        broken.completion_ns,
        healthy.completion_ns
    );
}

#[test]
fn node_failure_handled_by_reallocation() {
    // a dead node is excluded via the subset construction; the machine's
    // links around it still relay
    let topo = Topology::torus(4, 4);
    let survivors: Vec<NodeId> = (0..16).filter(|&i| i != 5).map(NodeId::new).collect();
    let s = MultiTree::default().build_among(&topo, &survivors).unwrap();
    verify_allreduce_among(&s, &survivors).unwrap();
    // node 5 relays but never owns data
    assert!(s.events().all(|e| e.src.index() != 5 && e.dst.index() != 5));
}

#[test]
fn ring_adapts_to_cable_failures() {
    // on the degraded (now irregular) machine the ring embedding falls
    // back to id order with some multi-hop pairs; it must stay correct
    // and within the same performance ballpark
    let topo = Topology::torus(4, 4);
    let degraded = without_cable(&topo, 1, 13);
    let s = Ring.build(&degraded).unwrap();
    verify_schedule(&s).unwrap();
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let healthy = engine
        .run(&topo, &Ring.build(&topo).unwrap(), 1 << 20)
        .unwrap();
    let broken = engine.run(&degraded, &s, 1 << 20).unwrap();
    let ratio = broken.completion_ns / healthy.completion_ns;
    assert!((0.95..1.3).contains(&ratio), "degraded/healthy ratio {ratio}");
}
