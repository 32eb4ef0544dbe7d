//! Heterogeneous-fabric semantics of the per-link rate API (§VII-B):
//! uniform topologies are bit-identical to the historical integer-capacity
//! paths, static link rates compose multiplicatively (and
//! order-independently) with fault degrades on both engines, and the
//! bandwidth-aware MultiTree builder beats the uniform builder on an
//! oversubscribed 2-tier fabric.

use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{FaultPlan, NetworkConfig, NoopObserver, SimScratch};
use multitree::algorithms::{AllReduce, HierarchicalMultiTree, MultiTree};
use multitree::PreparedSchedule;
use mt_topology::{LinkId, Topology};

/// On a full-rate topology the bandwidth-aware builder must take the
/// historical fast path untouched: identical schedules, event for event.
#[test]
fn bandwidth_aware_is_identical_to_default_on_uniform_topologies() {
    let cases = vec![
        Topology::torus(4, 4),
        Topology::dgx2_like_16(),
        Topology::fattree_oversubscribed(4, 1), // ratio 1 == uniform
        Topology::dragonfly(3, 2),
    ];
    for topo in &cases {
        let plain = MultiTree::default().build(topo).unwrap();
        let aware = MultiTree::bandwidth_aware().build(topo).unwrap();
        assert_eq!(plain, aware, "uniform {:?} must be bit-identical", topo.kind());
    }
}

/// Both engines: a static 1/2-rate link degraded ×3.0 behaves exactly
/// like a 1/6-rate link with no fault, and like a 1/3-rate link degraded
/// ×2.0 — the two slowdown sources compose multiplicatively and
/// order-independently.
#[test]
fn rate_and_degrade_compose_multiplicatively_on_both_engines() {
    let uniform = Topology::torus(4, 4);
    let s = MultiTree::default().build(&uniform).unwrap();
    let prep_uni = PreparedSchedule::new(&s, &uniform).unwrap();
    let l = prep_uni.first_link(0); // a link on the schedule's path
    drop(prep_uni);

    // lockstep disabled to isolate pure serialization composition (the
    // lockstep-on twin below covers the gate estimator's side)
    let mut cfg = NetworkConfig::paper_default();
    cfg.lockstep = false;
    let bytes = 256u64 << 10;

    // (rate, degrade factor) pairs with the same combined 6x slowdown
    let variants: Vec<(u32, u32, f64)> = vec![(1, 2, 3.0), (1, 6, 1.0), (1, 3, 2.0)];
    let mut flow_times = Vec::new();
    let mut cycle_times = Vec::new();
    for &(num, den, k) in &variants {
        let topo = uniform.with_link_rates(&[(l, num, den)]).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut plan = FaultPlan::new();
        if k > 1.0 {
            plan = plan.degrade(l, 0.0, k);
        }
        let f = FlowEngine::new(cfg)
            .run_prepared_faulted_with(&prep, bytes, &mut scratch, &plan, &mut NoopObserver)
            .unwrap();
        assert!(f.faults.completed());
        flow_times.push(f.report.sim.completion_ns);
        let c = CycleEngine::new(cfg)
            .run_prepared_faulted_with(&prep, bytes, &mut scratch, &plan, &mut NoopObserver)
            .unwrap();
        assert!(c.faults.completed());
        cycle_times.push(c.report.sim.completion_ns);
    }

    // the cycle engine paces with an exact integer gap: ceil(2*3) =
    // ceil(6*1) = ceil(3*2) = 6 cycles per flit, so all three runs are
    // bit-identical
    assert_eq!(cycle_times[0], cycle_times[1], "cycle: rate x degrade != pure rate");
    assert_eq!(cycle_times[0], cycle_times[2], "cycle: composition is order-dependent");

    // the flow engine multiplies f64 serialization terms; equal up to
    // rounding of 1/6
    for (i, &t) in flow_times.iter().enumerate().skip(1) {
        let rel = (t - flow_times[0]).abs() / flow_times[0];
        assert!(
            rel < 1e-9,
            "flow variant {i}: {} vs {} (rel {rel})",
            t,
            flow_times[0]
        );
    }

    // sanity: the combined slowdown actually costs time vs healthy
    let prep = PreparedSchedule::new(&s, &uniform).unwrap();
    let mut scratch = SimScratch::new();
    let healthy = FlowEngine::new(cfg)
        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(flow_times[0] > healthy.sim.completion_ns);
}

/// The lockstep-on twin of the composition test: the flow engine's gate
/// estimator folds each link's *final* degrade factor into its rate
/// (mirroring the `ser *= degrade` the execution loop applies), so a
/// 1/2-rate link degraded ×3.0 budgets the same gates as a 1/6-rate
/// link with no fault; the cycle engine's estimate is flits-based
/// (rate-blind) and its pacing gap is the exact integer
/// `ceil(slowdown × degrade)`, so its runs stay bit-identical.
#[test]
fn rate_and_degrade_compose_with_lockstep_gates_on() {
    let uniform = Topology::torus(4, 4);
    let s = MultiTree::default().build(&uniform).unwrap();
    let prep_uni = PreparedSchedule::new(&s, &uniform).unwrap();
    let l = prep_uni.first_link(0);
    drop(prep_uni);

    let cfg = NetworkConfig::paper_default();
    assert!(cfg.lockstep, "paper default must gate injections");
    let bytes = 256u64 << 10;

    let variants: Vec<(u32, u32, f64)> = vec![(1, 2, 3.0), (1, 6, 1.0), (1, 3, 2.0)];
    let mut flow_times = Vec::new();
    let mut cycle_times = Vec::new();
    for &(num, den, k) in &variants {
        let topo = uniform.with_link_rates(&[(l, num, den)]).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut plan = FaultPlan::new();
        if k > 1.0 {
            plan = plan.degrade(l, 0.0, k);
        }
        let f = FlowEngine::new(cfg)
            .run_prepared_faulted_with(&prep, bytes, &mut scratch, &plan, &mut NoopObserver)
            .unwrap();
        assert!(f.faults.completed());
        flow_times.push(f.report.sim.completion_ns);
        let c = CycleEngine::new(cfg)
            .run_prepared_faulted_with(&prep, bytes, &mut scratch, &plan, &mut NoopObserver)
            .unwrap();
        assert!(c.faults.completed());
        cycle_times.push(c.report.sim.completion_ns);
    }

    assert_eq!(cycle_times[0], cycle_times[1], "cycle: rate x degrade != pure rate");
    assert_eq!(cycle_times[0], cycle_times[2], "cycle: composition is order-dependent");
    for (i, &t) in flow_times.iter().enumerate().skip(1) {
        let rel = (t - flow_times[0]).abs() / flow_times[0];
        assert!(
            rel < 1e-9,
            "flow variant {i}: {} vs {} (rel {rel})",
            t,
            flow_times[0]
        );
    }

    // an empty plan through the faulted entry point must reproduce the
    // healthy lockstep run bit-for-bit (gates included)
    let prep = PreparedSchedule::new(&s, &uniform).unwrap();
    let mut scratch = SimScratch::new();
    let healthy = FlowEngine::new(cfg)
        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    let empty = FlowEngine::new(cfg)
        .run_prepared_faulted_with(&prep, bytes, &mut scratch, &FaultPlan::new(), &mut NoopObserver)
        .unwrap();
    assert_eq!(healthy.sim.completion_ns, empty.report.sim.completion_ns);
    // and the degraded run is gated wider, not just serialized slower
    assert!(flow_times[0] > healthy.sim.completion_ns);
}

/// The acceptance experiment: on a 4x-oversubscribed 2-tier fabric the
/// bandwidth-aware builder crosses the scarce leaf<->spine uplinks less
/// and finishes no later than the uniform builder on both engines.
#[test]
fn bandwidth_aware_builder_beats_uniform_on_oversubscribed_fattree() {
    let topo = Topology::fattree_oversubscribed(4, 4);
    let uni = MultiTree::default().build(&topo).unwrap();
    let aware = MultiTree::bandwidth_aware().build(&topo).unwrap();

    // construction-level: fewer slow-link crossings
    let slow_crossings = |s: &multitree::CommSchedule| {
        let mut n = 0usize;
        for e in s.events() {
            for l in e.path().unwrap_or_default() {
                if !topo.link(*l).is_full_rate() {
                    n += 1;
                }
            }
        }
        n
    };
    let (cu, ca) = (slow_crossings(&uni), slow_crossings(&aware));
    assert!(
        ca < cu,
        "bandwidth-aware schedule must cross slow uplinks less: {ca} !< {cu}"
    );

    let prep_uni = PreparedSchedule::new(&uni, &topo).unwrap();
    let prep_aware = PreparedSchedule::new(&aware, &topo).unwrap();
    let bytes = 1u64 << 20;
    let mut scratch = SimScratch::new();

    let flow = FlowEngine::new(NetworkConfig::paper_default());
    let fu = flow
        .run_prepared_with(&prep_uni, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    let fa = flow
        .run_prepared_with(&prep_aware, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(
        fa.sim.completion_ns < fu.sim.completion_ns,
        "flow: bandwidth-aware {} !< uniform {}",
        fa.sim.completion_ns,
        fu.sim.completion_ns
    );

    let cyc = CycleEngine::new(NetworkConfig::paper_default());
    let cu = cyc
        .run_prepared_with(&prep_uni, 256 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    let ca = cyc
        .run_prepared_with(&prep_aware, 256 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(
        ca.sim.completion_ns < cu.sim.completion_ns,
        "cycle: bandwidth-aware {} !< uniform {}",
        ca.sim.completion_ns,
        cu.sim.completion_ns
    );
}

/// The hierarchical builder accepts the flag end to end (representative
/// choice, pod trees, inter-pod phase) and still produces a valid,
/// runnable schedule on a heterogeneous dragonfly.
#[test]
fn hierarchical_bandwidth_aware_runs_on_slow_global_dragonfly() {
    let topo = Topology::dragonfly_slow_global(3, 2, 4);
    assert!(!topo.is_uniform());
    let s = HierarchicalMultiTree::bandwidth_aware().build(&topo).unwrap();
    let prep = PreparedSchedule::new(&s, &topo).unwrap();
    let mut scratch = SimScratch::new();
    let r = FlowEngine::new(NetworkConfig::paper_default())
        .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert!(r.sim.completion_ns > 0.0);

    // and on the uniform dragonfly the flag is a no-op
    let uniform = Topology::dragonfly(3, 2);
    let plain = HierarchicalMultiTree::default().build(&uniform).unwrap();
    let aware = HierarchicalMultiTree::bandwidth_aware().build(&uniform).unwrap();
    assert_eq!(plain, aware);
}

/// Re-rating links never changes ids, endpoints or adjacency, so a
/// schedule built on the uniform fabric stays valid on any re-rated
/// sibling — and the slow run is never faster than the uniform one.
#[test]
fn rerated_topologies_keep_schedules_valid_and_slower() {
    let uniform = Topology::fat_tree_two_level(4, 4, 4);
    let s = MultiTree::default().build(&uniform).unwrap();
    let slow = Topology::fattree_oversubscribed(4, 4);
    let mut scratch = SimScratch::new();
    let flow = FlowEngine::new(NetworkConfig::paper_default());

    let pu = PreparedSchedule::new(&s, &uniform).unwrap();
    let ps = PreparedSchedule::new(&s, &slow).unwrap();
    let ru = flow
        .run_prepared_with(&pu, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    let rs = flow
        .run_prepared_with(&ps, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(ru.sim.messages, rs.sim.messages);
    assert!(
        rs.sim.completion_ns > ru.sim.completion_ns,
        "oversubscribed uplinks must cost time: {} !> {}",
        rs.sim.completion_ns,
        ru.sim.completion_ns
    );
}

/// `with_link_rates` rejects out-of-range ids and zero rates.
#[test]
fn with_link_rates_validates_inputs() {
    let topo = Topology::torus(2, 2);
    assert!(topo.with_link_rates(&[(LinkId::new(10_000), 1, 2)]).is_err());
    assert!(topo.with_link_rates(&[(LinkId::new(0), 0, 2)]).is_err());
    assert!(topo.with_link_rates(&[(LinkId::new(0), 1, 0)]).is_err());
    let ok = topo.with_link_rates(&[(LinkId::new(0), 1, 2)]).unwrap();
    assert_eq!(ok.link_rate(LinkId::new(0)), 0.5);
    assert!(!ok.is_uniform());
}
