//! End-to-end repair guarantees: `algorithms::repair` on a degraded
//! machine always yields a schedule that passes `core::verify` or a
//! clean infeasibility error — never a panic, never an unverified
//! schedule — and the ISSUE acceptance scenario (a 4x4 torus losing one
//! cable) completes the all-reduce on both engines via the repaired
//! schedule.

use multitree::algorithms::{repair_multitree, AllReduce, MultiTree, RepairStrategy};
use multitree::PreparedSchedule;
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{NetworkConfig, NoopObserver, SimScratch};
use mt_topology::{LinkId, NodeId, Topology};
use proptest::prelude::*;

/// The full cable containing `link`: the link plus every reverse link
/// between the same endpoints.
fn cable_of(topo: &Topology, link: LinkId) -> Vec<LinkId> {
    let l = topo.link(link);
    let mut cable = vec![link];
    for &r in topo.out_links(l.dst) {
        if topo.link(r).dst == l.src {
            cable.push(r);
        }
    }
    cable
}

#[test]
fn torus_with_one_failed_cable_completes_on_both_engines() {
    // the ISSUE acceptance scenario: 4x4 torus, one cable dies, the
    // repaired MultiTree schedule verifies and finishes the all-reduce
    let topo = Topology::torus(4, 4);
    let mt = MultiTree::default();
    let forest = mt.construct_forest(&topo).unwrap();
    let healthy = mt.build(&topo).unwrap();
    // fail a cable the healthy schedule actually uses
    let used = healthy.events().next().unwrap().path().unwrap()[0];
    let dead = cable_of(&topo, used);

    let repaired = repair_multitree(&mt, &topo, &forest, &dead, &[]).unwrap();
    assert_eq!(repaired.report.strategy, RepairStrategy::Incremental);
    assert!(repaired.report.verified, "repair must re-verify");
    assert!(
        repaired.report.affected_trees < repaired.report.total_trees,
        "a single cable must not invalidate the whole forest"
    );
    for e in repaired.schedule.events() {
        for l in e.path().unwrap_or_default() {
            assert!(
                !repaired.topology.is_link_disabled(*l),
                "repaired schedule routes over dead link {l:?}"
            );
        }
    }

    // the repaired schedule actually runs — on both engines
    let prep = PreparedSchedule::new(&repaired.schedule, &repaired.topology).unwrap();
    let mut scratch = SimScratch::new();
    let flow = FlowEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, 256 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(flow.sim.completion_ns > 0.0);
    let cycle = CycleEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, 64 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(cycle.sim.completion_ns > 0.0);
}

#[test]
fn dead_host_repair_runs_among_survivors() {
    let topo = Topology::torus(4, 4);
    let mt = MultiTree::default();
    let forest = mt.construct_forest(&topo).unwrap();
    let repaired =
        repair_multitree(&mt, &topo, &forest, &[], &[NodeId::new(5)]).unwrap();
    assert_eq!(repaired.report.strategy, RepairStrategy::SurvivorSubset);
    assert!(repaired.report.verified);
    let prep = PreparedSchedule::new(&repaired.schedule, &repaired.topology).unwrap();
    let mut scratch = SimScratch::new();
    let report = FlowEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, 256 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(report.sim.completion_ns > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Repair on a seeded random graph with k random link failures
    // always yields a verified schedule or a clean error — never a
    // panic, never an unverified schedule.
    #[test]
    fn repair_on_random_graphs_verifies_or_fails_cleanly(
        n in 4usize..12,
        extra in 0usize..8,
        seed in 0u64..1_000,
        k in 1usize..4,
    ) {
        let topo = Topology::random_connected(n, extra, seed);
        let mt = MultiTree::default();
        let forest = mt.construct_forest(&topo).unwrap();
        // k pseudo-random cables, derived from the same seed
        let mut dead = Vec::new();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k as u64);
        for _ in 0..k {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = LinkId::new((state >> 33) as usize % topo.num_links());
            dead.extend(cable_of(&topo, pick));
        }
        dead.sort_unstable_by_key(|l| l.index());
        dead.dedup();

        match repair_multitree(&mt, &topo, &forest, &dead, &[]) {
            Ok(repaired) => {
                prop_assert!(repaired.report.verified);
                // no event of the repaired schedule crosses a dead link
                for e in repaired.schedule.events() {
                    for l in e.path().unwrap_or_default() {
                        prop_assert!(
                            !repaired.topology.is_link_disabled(*l),
                            "repaired schedule routes over dead link {:?}", l
                        );
                    }
                }
            }
            // a clean infeasibility (e.g. the graph got disconnected)
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}
