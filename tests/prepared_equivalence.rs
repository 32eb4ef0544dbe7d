//! The prepare/execute split must not change a single bit of any
//! result: `Engine::run` (prepare + fresh scratch each call) and the
//! unified observer entry point `run_prepared_with` (one
//! `PreparedSchedule`, one `SimScratch` reused across payload sizes)
//! are the same simulation. Everything here runs on the unified entry
//! point; the only deprecated API still exercised is the dense
//! reference implementation `run_reference_detailed`, kept as the
//! differential oracle (deprecated for users, not for its tests) under
//! statement-level `#[allow(deprecated)]`.
//!
//! The second half of this suite is the cycle engine's differential
//! harness: the event-driven engine (`run_prepared_with` +
//! `NoopObserver`) against the dense reference, which must agree on
//! the full `SimReport` plus the cycle/buffer detail scalars —
//! idle-cycle skipping, active lists, calendar queues and compiled-out
//! observer hooks are pure reorganizations, not approximations. The
//! NoopObserver path must also stay allocation-free in steady state.
//! The healthy cells of the golden corpus (`crates/netsim/tests/corpus`)
//! meet the same oracle.

use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring};
use multitree::PreparedSchedule;
use mt_netsim::{
    cycle::CycleEngine, flow::FlowEngine, Engine, NetworkConfig, NoopObserver, SimObserver,
    SimScratch,
};
use mt_topology::Topology;
use proptest::prelude::*;

/// The cycle engine's golden corpus, shared with the golden pins.
#[path = "../crates/netsim/tests/corpus/mod.rs"]
mod corpus;

fn algos() -> Vec<(&'static str, Box<dyn AllReduce>)> {
    vec![
        ("ring", Box::new(Ring)),
        ("dbtree", Box::new(DbTree::default())),
        ("multitree", Box::new(MultiTree::default())),
    ]
}

fn topos() -> Vec<(&'static str, Topology)> {
    vec![
        ("4x4 torus", Topology::torus(4, 4)),
        ("16-node fat-tree", Topology::dgx2_like_16()),
    ]
}

#[test]
fn flow_prepared_equals_one_shot() {
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    for (topo_name, topo) in topos() {
        for (algo_name, algo) in algos() {
            let s = algo.build(&topo).unwrap();
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            let mut scratch = SimScratch::new();
            for bytes in [4 << 10, 1 << 20, 16 << 20u64] {
                let plain = engine.run(&topo, &s, bytes).unwrap();
                let prepared = engine
                    .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
                    .unwrap();
                assert_eq!(plain, prepared.sim, "{algo_name} on {topo_name} at {bytes}B");
            }
        }
    }
}

/// Collects the flow engine's per-event start/finish hooks.
#[derive(Default)]
struct Timeline {
    starts: Vec<(u32, f64)>,
    finishes: Vec<(u32, f64)>,
}

impl SimObserver for Timeline {
    fn on_flow_event_start(&mut self, start_ns: f64, event: u32, _step: u32) {
        self.starts.push((event, start_ns));
    }
    fn on_flow_event_finish(&mut self, delivery_ns: f64, event: u32, _step: u32) {
        self.finishes.push((event, delivery_ns));
    }
}

#[test]
fn flow_observer_timeline_is_consistent_with_report() {
    // the observer hooks carry the whole per-message timeline: one
    // start/finish pair per scheduled event, finishes bounded by the
    // reported completion and attaining it
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let topo = Topology::torus(4, 4);
    let s = MultiTree::default().build(&topo).unwrap();
    let prep = PreparedSchedule::new(&s, &topo).unwrap();
    let mut scratch = SimScratch::new();
    let mut tl = Timeline::default();
    let report = engine
        .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut tl)
        .unwrap();
    assert_eq!(tl.starts.len(), report.sim.messages);
    assert_eq!(tl.finishes.len(), report.sim.messages);
    let max_finish = tl.finishes.iter().map(|&(_, t)| t).fold(0.0f64, f64::max);
    assert_eq!(max_finish, report.sim.completion_ns);
    for (&(e_s, start), &(e_f, finish)) in tl.starts.iter().zip(&tl.finishes) {
        assert_eq!(e_s, e_f, "start/finish hooks pair up per event");
        assert!(start <= finish);
    }
    // telemetry must not perturb the simulation
    let noop = engine
        .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(noop, report);
}

#[test]
fn cycle_prepared_equals_one_shot() {
    let engine = CycleEngine::new(NetworkConfig::paper_default());
    for (topo_name, topo) in topos() {
        for (algo_name, algo) in algos() {
            let s = algo.build(&topo).unwrap();
            let prep = PreparedSchedule::new(&s, &topo).unwrap();
            let mut scratch = SimScratch::new();
            for bytes in [4 << 10, 64 << 10u64] {
                let plain = engine.run(&topo, &s, bytes).unwrap();
                let prepared = engine
                    .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
                    .unwrap();
                assert_eq!(plain, prepared.sim, "{algo_name} on {topo_name} at {bytes}B");
            }
        }
    }
}

#[test]
fn cycle_prepared_detail_scalars_match_reference() {
    let engine = CycleEngine::new(NetworkConfig::paper_default());
    let topo = Topology::torus(4, 4);
    let s = MultiTree::default().build(&topo).unwrap();
    // the reference oracle is deprecated for users, not for its tests
    #[allow(deprecated)]
    let (ref_report, ref_stats) = engine.run_reference_detailed(&topo, &s, 64 << 10).unwrap();
    let prep = PreparedSchedule::new(&s, &topo).unwrap();
    let mut scratch = SimScratch::new();
    let prepared = engine
        .run_prepared_with(&prep, 64 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(prepared.sim, ref_report);
    assert_eq!(prepared.cycles(), Some(ref_stats.cycles));
    assert_eq!(
        prepared.max_buffer_occupancy(),
        Some(ref_stats.max_buffer_occupancy)
    );
}

#[test]
fn scratch_reuse_carries_no_state() {
    // running a big payload, then a small one, must give the same small
    // result as a fresh scratch would
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let topo = Topology::torus(8, 8);
    let s = DbTree::default().build(&topo).unwrap();
    let prep = PreparedSchedule::new(&s, &topo).unwrap();
    let mut reused = SimScratch::new();
    let _ = engine
        .run_prepared_with(&prep, 64 << 20, &mut reused, &mut NoopObserver)
        .unwrap();
    let after_big = engine
        .run_prepared_with(&prep, 4 << 10, &mut reused, &mut NoopObserver)
        .unwrap();
    let fresh = engine
        .run_prepared_with(&prep, 4 << 10, &mut SimScratch::new(), &mut NoopObserver)
        .unwrap();
    assert_eq!(after_big, fresh);
}

#[test]
fn one_scratch_serves_both_engines_and_many_schedules() {
    let flow = FlowEngine::new(NetworkConfig::paper_default());
    let cycle = CycleEngine::new(NetworkConfig::paper_default());
    let torus = Topology::torus(4, 4);
    let ft = Topology::dgx2_like_16();
    let s1 = MultiTree::default().build(&torus).unwrap();
    let s2 = Ring.build(&ft).unwrap();
    let p1 = PreparedSchedule::new(&s1, &torus).unwrap();
    let p2 = PreparedSchedule::new(&s2, &ft).unwrap();
    let mut scratch = SimScratch::new();
    let a = flow
        .run_prepared_with(&p1, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    let b = cycle
        .run_prepared_with(&p2, 16 << 10, &mut scratch, &mut NoopObserver)
        .unwrap();
    let c = flow
        .run_prepared_with(&p1, 1 << 20, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(a, c, "interleaving engines/schedules must not leak state");
    assert_eq!(b.sim, cycle.run(&ft, &s2, 16 << 10).unwrap());
}

// --- event-driven vs dense reference ---------------------------------

fn equivalence_topos() -> Vec<(&'static str, Topology)> {
    vec![
        ("4x4 torus", Topology::torus(4, 4)),
        ("4x4 mesh", Topology::mesh(4, 4)),
        ("16-node fat-tree", Topology::dgx2_like_16()),
    ]
}

/// Asserts the event-driven engine and the dense reference produce
/// bit-identical reports AND detail scalars for one configuration.
fn assert_engines_identical(
    cfg: NetworkConfig,
    topo: &Topology,
    algo: &dyn AllReduce,
    bytes: u64,
    label: &str,
) {
    let engine = CycleEngine::new(cfg);
    let s = algo.build(topo).unwrap();
    // the reference oracle is deprecated for users, not for its tests
    #[allow(deprecated)]
    let (ref_report, ref_stats) = engine.run_reference_detailed(topo, &s, bytes).unwrap();
    let prep = PreparedSchedule::new(&s, topo).unwrap();
    // the unified observer entry point is the same simulation: with a
    // NoopObserver it must match the oracle bit for bit, and its steady
    // state must not allocate (disabled hooks compile out entirely)
    let mut scratch = SimScratch::new();
    let noop = engine
        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(noop.sim, ref_report, "observer-path report diverged: {label}");
    assert_eq!(noop.cycles(), Some(ref_stats.cycles), "cycles diverged: {label}");
    assert_eq!(
        noop.max_buffer_occupancy(),
        Some(ref_stats.max_buffer_occupancy),
        "buffer high-water diverged: {label}"
    );
    let warm = scratch.capacity_elements();
    let again = engine
        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
        .unwrap();
    assert_eq!(again, noop, "repeat run diverged: {label}");
    assert_eq!(
        scratch.capacity_elements(),
        warm,
        "NoopObserver steady state allocated: {label}"
    );
}

#[test]
fn event_driven_cycle_engine_matches_dense_reference() {
    // 3 algorithms x 3 topologies x {packet, message} flow control
    // x {lockstep on, off}: every combination must agree bit for bit.
    for (topo_name, topo) in equivalence_topos() {
        for (algo_name, algo) in algos() {
            for (fc_name, base) in [
                ("packet", NetworkConfig::paper_default()),
                ("message", NetworkConfig::paper_message_based()),
            ] {
                for lockstep in [true, false] {
                    let mut cfg = base;
                    cfg.lockstep = lockstep;
                    let label = format!(
                        "{algo_name} on {topo_name}, {fc_name}-based, lockstep={lockstep}"
                    );
                    assert_engines_identical(cfg, &topo, algo.as_ref(), 48 << 10, &label);
                }
            }
        }
    }
}

#[test]
fn event_driven_engine_matches_reference_across_sizes() {
    // payload sweep on the paper's primary cell, including sizes around
    // packet/buffer boundaries
    let topo = Topology::torus(4, 4);
    let algo = MultiTree::default();
    for bytes in [1u64, 255, 256, 4 << 10, 100_000, 256 << 10] {
        assert_engines_identical(
            NetworkConfig::paper_default(),
            &topo,
            &algo,
            bytes,
            &format!("multitree at {bytes}B"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_payloads_never_diverge(
        bytes in 1u64..200_000,
        algo_idx in 0usize..3,
        message_based: bool,
    ) {
        let topo = Topology::torus(4, 4);
        let algos = algos();
        let (name, algo) = &algos[algo_idx];
        let cfg = if message_based {
            NetworkConfig::paper_message_based()
        } else {
            NetworkConfig::paper_default()
        };
        let engine = CycleEngine::new(cfg);
        let s = algo.build(&topo).unwrap();
        // the reference oracle is deprecated for users, not for its tests
        #[allow(deprecated)]
        let (ref_report, ref_stats) =
            engine.run_reference_detailed(&topo, &s, bytes).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let prepared = engine
            .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
            .unwrap();
        prop_assert_eq!(&ref_report, &prepared.sim, "report diverged: {} at {}B", name, bytes);
        prop_assert_eq!(
            prepared.cycles(),
            Some(ref_stats.cycles),
            "cycles diverged: {} at {}B", name, bytes
        );
        prop_assert_eq!(
            prepared.max_buffer_occupancy(),
            Some(ref_stats.max_buffer_occupancy),
            "buffer high-water diverged: {} at {}B", name, bytes
        );
    }
}

// --- the golden corpus against the dense reference -------------------

#[test]
fn golden_corpus_healthy_cases_match_dense_reference() {
    // every healthy corpus cell the oracle models (it predates per-link
    // rates, so the re-rated torus is pinned by the golden table alone)
    let mut scratch = SimScratch::new();
    let mut compared = 0;
    for case in corpus::cases().iter().filter(|c| c.topo.is_uniform()) {
        // the reference oracle is deprecated for users, not for its tests
        #[allow(deprecated)]
        let (ref_report, ref_stats) = CycleEngine::new(case.cfg)
            .run_reference_detailed(&case.topo, &case.schedule, case.bytes)
            .unwrap();
        let reference = corpus::fingerprint(
            &mt_netsim::EngineReport {
                sim: ref_report,
                detail: mt_netsim::EngineDetail::Cycle {
                    cycles: ref_stats.cycles,
                    max_buffer_occupancy: ref_stats.max_buffer_occupancy,
                },
            },
            None,
        );
        let (event_driven, _) = corpus::run_case(case, None, &mut scratch, &mut NoopObserver);
        assert_eq!(
            event_driven, reference,
            "diverged from the dense reference: {}",
            case.name
        );
        compared += 1;
    }
    assert!(compared >= 10, "too few corpus cells reached the oracle");
}
