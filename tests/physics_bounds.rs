//! Physics sanity: no simulated completion time may beat the information-
//! theoretic lower bounds of the hardware — aggregate link bandwidth,
//! per-node injection bandwidth, and propagation latency. Guards both
//! engines against optimistic-modeling bugs.

use multitree::algorithms::{Algorithm, AllReduce};
use multitree::cost::event_path;
use mt_netsim::{cycle::CycleEngine, flow::FlowEngine, Engine, NetworkConfig};
use mt_topology::Topology;
use proptest::prelude::*;

/// Lower bound on completion: max of
///  * total wire occupancy / aggregate link bandwidth,
///  * per-node sent bytes / per-node injection bandwidth,
///  * one hop of latency (if anything moves at all).
fn lower_bound_ns(
    topo: &Topology,
    schedule: &multitree::CommSchedule,
    bytes: u64,
    cfg: &NetworkConfig,
) -> f64 {
    if schedule.num_events() == 0 {
        return 0.0;
    }
    let total_capacity: f64 = topo
        .links()
        .iter()
        .map(|l| f64::from(l.capacity))
        .sum::<f64>()
        * cfg.link_bandwidth;
    // wire occupancy counts every link a payload crosses
    let mut wire_bytes = 0f64;
    let mut per_node = vec![0f64; topo.num_nodes()];
    for e in schedule.events() {
        let b = e.bytes(bytes, schedule.total_segments()) as f64;
        wire_bytes += b * event_path(e, topo).len() as f64;
        per_node[e.src.index()] += b;
    }
    let node_bw: Vec<f64> = (0..topo.num_nodes())
        .map(|n| {
            topo.out_links(mt_topology::NodeId::new(n).into())
                .iter()
                .map(|&l| f64::from(topo.link(l).capacity))
                .sum::<f64>()
                * cfg.link_bandwidth
        })
        .collect();
    let node_bound = per_node
        .iter()
        .zip(&node_bw)
        .map(|(b, bw)| b / bw)
        .fold(0.0f64, f64::max);
    (wire_bytes / total_capacity)
        .max(node_bound)
        .max(cfg.link_latency_ns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flow_engine_respects_lower_bounds(
        rows in 2usize..5,
        cols in 2usize..5,
        wrap: bool,
        size_kib in 8u64..2048,
        algo_idx in 0usize..4,
    ) {
        let topo = if wrap { Topology::torus(rows, cols) } else { Topology::mesh(rows, cols) };
        let algos = Algorithm::applicable_to(&topo);
        let algo = &algos[algo_idx % algos.len()];
        let schedule = algo.build(&topo).unwrap();
        let cfg = NetworkConfig::paper_default();
        let bytes = size_kib * 1024;
        let r = FlowEngine::new(cfg).run(&topo, &schedule, bytes).unwrap();
        let bound = lower_bound_ns(&topo, &schedule, bytes, &cfg);
        prop_assert!(
            r.completion_ns >= bound * 0.999,
            "{} on {:?}: completion {} beats bound {}",
            schedule.algorithm(), topo.kind(), r.completion_ns, bound
        );
    }

    #[test]
    fn cycle_engine_respects_lower_bounds(
        side in 2usize..4,
        size_kib in 8u64..128,
    ) {
        let topo = Topology::torus(side, side);
        for algo in Algorithm::applicable_to(&topo) {
            let schedule = algo.build(&topo).unwrap();
            let cfg = NetworkConfig::paper_default();
            let bytes = size_kib * 1024;
            let r = CycleEngine::new(cfg).run(&topo, &schedule, bytes).unwrap();
            let bound = lower_bound_ns(&topo, &schedule, bytes, &cfg);
            prop_assert!(
                r.completion_ns >= bound * 0.999,
                "{}: completion {} beats bound {}",
                schedule.algorithm(), r.completion_ns, bound
            );
        }
    }

    #[test]
    fn flits_never_beat_payload(
        rows in 2usize..5,
        cols in 2usize..5,
        size_kib in 8u64..512,
    ) {
        // framing can only add flits beyond the raw payload
        let topo = Topology::torus(rows, cols);
        let schedule = Algorithm::applicable_to(&topo)[0].build(&topo).unwrap();
        let cfg = NetworkConfig::paper_default();
        let bytes = size_kib * 1024;
        let r = FlowEngine::new(cfg).run(&topo, &schedule, bytes).unwrap();
        let sent: u64 = schedule.sent_bytes_per_node(bytes).iter().sum();
        prop_assert!(r.flits_sent * u64::from(cfg.flit_bytes) >= sent);
    }
}
