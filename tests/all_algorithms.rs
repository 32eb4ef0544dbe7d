//! Cross-crate integration: every algorithm on every supported topology
//! builds, verifies semantically, and exhibits the Table I properties.

use multitree::algorithms::{Algorithm, AllReduce, DbTree, HalvingDoubling, Hdrm, MultiTree, Ring, Ring2D};
use multitree::cost::analyze;
use multitree::verify::verify_schedule;
use mt_topology::Topology;

fn paper_topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("4x4 torus", Topology::torus(4, 4)),
        ("8x8 torus", Topology::torus(8, 8)),
        ("4x8 torus", Topology::torus(4, 8)),
        ("4x4 mesh", Topology::mesh(4, 4)),
        ("8x8 mesh", Topology::mesh(8, 8)),
        ("dgx2 fattree", Topology::dgx2_like_16()),
        ("64 fattree", Topology::fat_tree_64()),
        ("32 bigraph", Topology::bigraph_32()),
        ("64 bigraph", Topology::bigraph_64()),
    ]
}

#[test]
fn every_applicable_algorithm_verifies_everywhere() {
    for (name, topo) in paper_topologies() {
        for algo in Algorithm::applicable_to(&topo) {
            let schedule = algo
                .build(&topo)
                .unwrap_or_else(|e| panic!("{} on {name}: {e}", algo.name()));
            verify_schedule(&schedule)
                .unwrap_or_else(|e| panic!("{} on {name}: {e}", algo.name()));
        }
    }
}

#[test]
fn multitree_is_contention_free_on_all_paper_topologies() {
    for (name, topo) in paper_topologies() {
        let schedule = MultiTree::default().build(&topo).unwrap();
        let stats = analyze(&schedule, &topo, 16 << 20);
        assert!(
            stats.is_contention_free(),
            "multitree contends on {name}: {stats:?}"
        );
    }
}

#[test]
fn bandwidth_optimal_algorithms_stay_optimal() {
    for (name, topo) in paper_topologies() {
        for (algo, label) in [
            (Algorithm::Ring(Ring), "ring"),
            (Algorithm::MultiTree(MultiTree::default()), "multitree"),
            (Algorithm::DbTree(DbTree::with_pipeline(16)), "dbtree"),
        ] {
            let schedule = algo.build(&topo).unwrap();
            let stats = analyze(&schedule, &topo, 64 << 20);
            assert!(
                stats.volume_ratio < 1.1,
                "{label} on {name}: volume ratio {}",
                stats.volume_ratio
            );
        }
    }
}

#[test]
fn ring2d_moves_about_twice_the_data() {
    for topo in [Topology::torus(8, 8), Topology::torus(16, 16)] {
        let schedule = Ring2D.build(&topo).unwrap();
        let stats = analyze(&schedule, &topo, 64 << 20);
        assert!(
            stats.volume_ratio > 1.7 && stats.volume_ratio < 2.05,
            "ratio {}",
            stats.volume_ratio
        );
    }
}

#[test]
fn step_counts_match_theory() {
    let torus = Topology::torus(8, 8);
    // ring: 2(n-1)
    assert_eq!(Ring.build(&torus).unwrap().num_steps(), 126);
    // 2D-ring: 2(C-1) + 2(R-1)
    assert_eq!(Ring2D.build(&torus).unwrap().num_steps(), 28);
    // halving-doubling: 2 log2 n
    assert_eq!(HalvingDoubling.build(&torus).unwrap().num_steps(), 12);
    // hdrm mirrors hd on the bigraph
    assert_eq!(
        Hdrm.build(&Topology::bigraph_64()).unwrap().num_steps(),
        12
    );
    // multitree on fat-tree/bigraph needs n-1 construction steps (single
    // NIC uplink per node — the paper notes ring and multitree take the
    // same number of steps there)
    assert_eq!(
        MultiTree::default()
            .build(&Topology::fat_tree_64())
            .unwrap()
            .num_steps(),
        126
    );
}

#[test]
fn multitree_events_are_all_single_hop_on_direct_networks() {
    for topo in [Topology::torus(8, 8), Topology::mesh(8, 8)] {
        let schedule = MultiTree::default().build(&topo).unwrap();
        for e in schedule.events() {
            let path = e.path().expect("multitree allocates paths");
            assert_eq!(path.len(), 1, "direct-network event {e} must be one hop");
        }
    }
}

#[test]
fn hdrm_and_multitree_agree_on_volume() {
    let topo = Topology::bigraph_64();
    let bytes = 64 << 20;
    let hdrm = analyze(&Hdrm.build(&topo).unwrap(), &topo, bytes);
    let mt = analyze(
        &MultiTree::default().build(&topo).unwrap(),
        &topo,
        bytes,
    );
    assert!((hdrm.volume_ratio - mt.volume_ratio).abs() < 0.1);
}

#[test]
fn schedules_are_reusable_across_data_sizes() {
    // §III-C1: "the algorithm only needs to run once and can be used for
    // any DNN workloads" — one schedule, many sizes.
    let topo = Topology::torus(4, 4);
    let schedule = MultiTree::default().build(&topo).unwrap();
    for bytes in [32 << 10, 1 << 20, 64 << 20u64] {
        let sent = schedule.sent_bytes_per_node(bytes);
        let total: u64 = sent.iter().sum();
        // total volume = 2(n-1) x D (within per-segment rounding)
        let expect = 2 * 15 * bytes;
        let rel_err = (total as f64 - expect as f64).abs() / (expect as f64);
        assert!(
            rel_err < 0.01,
            "size {bytes}: total {total} vs expected {expect}"
        );
    }
}
