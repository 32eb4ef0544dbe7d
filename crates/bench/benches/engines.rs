//! Criterion micro-benchmarks for the two network engines, quantifying
//! the flow-engine speedup that makes the paper-scale sweeps tractable,
//! and the per-key costs of the keys the `mtbench` workloads serve
//! (`cycle_keys`, `flow_keys`).

use criterion::{criterion_group, criterion_main, Criterion};
use multitree::algorithms::{
    AllReduce, DbTree, HierarchicalMultiTree, MultiTree, Ring, Ring2D,
};
use multitree::PreparedSchedule;
use mt_netsim::telemetry::LinkTimeline;
use mt_netsim::{
    cycle::CycleEngine, flow::FlowEngine, Engine, FaultPlan, NetworkConfig, NoopObserver,
    SimObserver, SimScratch,
};
use mt_topology::{LinkId, Topology};
use std::collections::HashSet;

fn flow_engine(c: &mut Criterion) {
    let topo = Topology::torus(8, 8);
    let cfg = NetworkConfig::paper_default();
    let mt = MultiTree::default().build(&topo).unwrap();
    let ring = Ring.build(&topo).unwrap();
    let mut g = c.benchmark_group("flow_engine_64node_16MiB");
    g.bench_function("multitree", |b| {
        b.iter(|| FlowEngine::new(cfg).run(&topo, &mt, 16 << 20).unwrap())
    });
    g.bench_function("ring", |b| {
        b.iter(|| FlowEngine::new(cfg).run(&topo, &ring, 16 << 20).unwrap())
    });
    g.finish();
}

/// The sweep-shaped workload the harness binaries actually run: one
/// schedule simulated at every Fig. 9 payload size. `unprepared` pays
/// validation, routing, and allocation once per size (the old
/// `Engine::run` path); `prepared` pays them once per schedule and
/// reuses one scratch across sizes.
fn prepared_sweep(c: &mut Criterion) {
    let topo = Topology::torus(8, 8);
    let cfg = NetworkConfig::paper_default();
    let mt = MultiTree::default().build(&topo).unwrap();
    let sizes: Vec<u64> = (2..=26).step_by(2).map(|p| 1u64 << p).collect();
    let engine = FlowEngine::new(cfg);
    let mut g = c.benchmark_group("flow_sweep_64node_13sizes");
    g.bench_function("unprepared", |b| {
        b.iter(|| {
            sizes
                .iter()
                .map(|&bytes| engine.run(&topo, &mt, bytes).unwrap().completion_ns)
                .sum::<f64>()
        })
    });
    g.bench_function("prepared", |b| {
        b.iter(|| {
            let prep = PreparedSchedule::new(&mt, &topo).unwrap();
            let mut scratch = SimScratch::new();
            sizes
                .iter()
                .map(|&bytes| {
                    engine
                        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
                        .unwrap()
                        .completion_ns
                })
                .sum::<f64>()
        })
    });
    // steady-state per-run cost once the schedule is prepared, the number
    // that bounds a long sweep
    let prep = PreparedSchedule::new(&mt, &topo).unwrap();
    let mut scratch = SimScratch::new();
    g.bench_function("prepared_single_16MiB", |b| {
        b.iter(|| {
            engine
                .run_prepared_with(&prep, 16 << 20, &mut scratch, &mut NoopObserver)
                .unwrap()
                .completion_ns
        })
    });
    g.bench_function("unprepared_single_16MiB", |b| {
        b.iter(|| engine.run(&topo, &mt, 16 << 20).unwrap().completion_ns)
    });
    g.finish();
}

fn cycle_engine(c: &mut Criterion) {
    let topo = Topology::torus(4, 4);
    let cfg = NetworkConfig::paper_default();
    let mt = MultiTree::default().build(&topo).unwrap();
    let mut g = c.benchmark_group("cycle_engine_16node");
    g.sample_size(10);
    g.bench_function("multitree_64KiB", |b| {
        b.iter(|| CycleEngine::new(cfg).run(&topo, &mt, 64 << 10).unwrap())
    });
    g.finish();
}

/// The event-driven cycle engine against the dense reference it
/// replaced: a MultiTree payload sweep on the paper's 4x4 torus, and a
/// single 16 MiB cycle-accurate run (previously impractical — the dense
/// engine spins through every cycle of every ~152-cycle link latency).
/// `event_driven_sweep` runs through the observer entry point with a
/// `NoopObserver` — its medians are the evidence that the disabled hooks
/// cost nothing — and `event_driven_sweep_timeline` prices an *enabled*
/// `LinkTimeline` on the same workload.
fn cycle_sweep_16node(c: &mut Criterion) {
    let topo = Topology::torus(4, 4);
    let cfg = NetworkConfig::paper_default();
    let mt = MultiTree::default().build(&topo).unwrap();
    let engine = CycleEngine::new(cfg);
    let sizes: Vec<u64> = [16u64 << 10, 64 << 10, 256 << 10, 1 << 20].to_vec();
    let mut g = c.benchmark_group("cycle_sweep_16node");
    g.sample_size(10);
    g.bench_function("dense_reference_sweep", |b| {
        b.iter(|| {
            sizes
                .iter()
                .map(|&bytes| {
                    #[allow(deprecated)] // the oracle stays the baseline
                    let (r, _) = engine.run_reference_detailed(&topo, &mt, bytes).unwrap();
                    r.completion_ns
                })
                .sum::<f64>()
        })
    });
    let prep = PreparedSchedule::new(&mt, &topo).unwrap();
    let mut scratch = SimScratch::new();
    g.bench_function("event_driven_sweep", |b| {
        b.iter(|| {
            sizes
                .iter()
                .map(|&bytes| {
                    engine
                        .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
                        .unwrap()
                        .completion_ns
                })
                .sum::<f64>()
        })
    });
    g.bench_function("event_driven_sweep_timeline", |b| {
        b.iter(|| {
            let mut tl = LinkTimeline::new(1_000.0);
            sizes
                .iter()
                .map(|&bytes| {
                    engine
                        .run_prepared_with(&prep, bytes, &mut scratch, &mut tl)
                        .unwrap()
                        .completion_ns
                })
                .sum::<f64>()
        })
    });
    g.bench_function("dense_reference_single_16MiB", |b| {
        b.iter(|| {
            #[allow(deprecated)] // the oracle stays the baseline
            let (r, _) = engine.run_reference_detailed(&topo, &mt, 16 << 20).unwrap();
            r.completion_ns
        })
    });
    g.bench_function("event_driven_single_16MiB", |b| {
        b.iter(|| {
            engine
                .run_prepared_with(&prep, 16 << 20, &mut scratch, &mut NoopObserver)
                .unwrap()
                .completion_ns
        })
    });
    g.finish();
}

/// The cycle-engine keys the `mtbench` workloads serve (`engine-sweep`
/// and `faulty-mixed`), on the daemon's configuration: MULTITREE on the
/// 4x4 torus at 32-128 KiB, 2D-RING on the 8x8 torus at 64-128 KiB and
/// DBTREE on the 4x4 mesh at 32-64 KiB, each one prepared run with a
/// warm scratch. Every id ends in the run's flit-hops, so a median
/// divides into ns per flit-hop.
fn cycle_keys(c: &mut Criterion) {
    let engine = CycleEngine::new(NetworkConfig::paper_default());
    let torus = Topology::torus(4, 4);
    let torus8 = Topology::torus(8, 8);
    let mesh = Topology::mesh(4, 4);
    #[rustfmt::skip]
    let keys: [(&str, &Topology, &dyn AllReduce, &[u64]); 3] = [
        ("torus4x4_multitree", &torus, &MultiTree::default(), &[32, 64, 128]),
        ("torus8x8_2dring", &torus8, &Ring2D, &[64, 128]),
        ("mesh4x4_dbtree", &mesh, &DbTree::default(), &[32, 64]),
    ];
    let mut g = c.benchmark_group("cycle_keys");
    g.sample_size(10);
    for (name, topo, algo, sizes) in keys {
        let s = algo.build(topo).unwrap();
        let prep = PreparedSchedule::new(&s, topo).unwrap();
        let mut scratch = SimScratch::new();
        for &kib in sizes {
            let mut run = || {
                engine
                    .run_prepared_with(&prep, kib << 10, &mut scratch, &mut NoopObserver)
                    .unwrap()
                    .sim
            };
            let flit_hops = run().flit_hops;
            g.bench_function(format!("{name}_{kib}KiB/{flit_hops}_flit_hops"), |b| {
                b.iter(&mut run)
            });
        }
    }
    g.finish();
}

/// Collects the distinct start times of a flow run.
#[derive(Default)]
struct StartTimes(HashSet<u64>);

impl SimObserver for StartTimes {
    fn on_flow_event_start(&mut self, start_ns: f64, _event: u32, _step: u32) {
        self.0.insert(start_ns.to_bits());
    }
}

/// `topo` with every link re-rated to a fraction in 500/997–996/997 of
/// the base bandwidth, drawn from a fixed hash of the link index: start
/// times then almost never tie.
fn ragged(topo: &Topology) -> Topology {
    let rates: Vec<(LinkId, u32, u32)> = (0..topo.num_links())
        .map(|l| {
            let h = (l as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (LinkId::new(l), 500 + ((h >> 33) % 497) as u32, 997)
        })
        .collect();
    topo.with_link_rates(&rates).expect("valid re-rating")
}

/// A `flow_keys` row: name, topology the schedule is built on, topology
/// it runs on, algorithm, payload in KiB and an optional fault plan.
type FlowKey<'a> = (&'a str, &'a Topology, &'a Topology, &'a dyn AllReduce, u64, Option<&'a FaultPlan>);

/// The flow-engine keys, on the daemon's configuration: the three
/// `engine-sweep` keys at 1 MiB (MULTITREE and 2D-RING on the 16x16
/// torus, MULTITREE-HIER on the 32x32 torus), `dispatch-small`'s 4x4
/// MULTITREE at 64 KiB, the 8x8 MULTITREE at 1 MiB under a degrade plan
/// (the faulted loop), and RING at 1 MiB on a ragged-rate 16x16 torus,
/// whose start times almost never tie. Each key is one prepared run with
/// a warm scratch; its id ends in the event count and the number of
/// distinct start times, so a median divides into ns per event. The
/// `prepare` ids time `PreparedSchedule::new` and end in the prepared
/// arrays' `heap_bytes`.
fn flow_keys(c: &mut Criterion) {
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let t4 = Topology::torus(4, 4);
    let t8 = Topology::torus(8, 8);
    let t16 = Topology::torus(16, 16);
    let t32 = Topology::torus(32, 32);
    let ragged16 = ragged(&t16);
    let degrade = FaultPlan::new().degrade(LinkId::new(0), 20_000.0, 3.0);
    #[rustfmt::skip]
    let keys: [FlowKey<'_>; 6] = [
        ("torus16x16_multitree", &t16, &t16, &MultiTree::default(), 1024, None),
        ("torus16x16_2dring", &t16, &t16, &Ring2D, 1024, None),
        ("torus32x32_multitree_hier", &t32, &t32, &HierarchicalMultiTree::default(), 1024, None),
        ("torus4x4_multitree", &t4, &t4, &MultiTree::default(), 64, None),
        ("torus8x8_multitree_degrade", &t8, &t8, &MultiTree::default(), 1024, Some(&degrade)),
        ("ragged16x16_ring", &t16, &ragged16, &Ring, 1024, None),
    ];
    let mut g = c.benchmark_group("flow_keys");
    g.sample_size(10);
    for (name, build_on, topo, algo, kib, plan) in keys {
        let s = algo.build(build_on).unwrap();
        let heap = PreparedSchedule::new(&s, topo).unwrap().data().heap_bytes();
        g.bench_function(format!("{name}/prepare/{heap}_heap_bytes"), |b| {
            b.iter(|| PreparedSchedule::new(&s, topo).unwrap())
        });
        let prep = PreparedSchedule::new(&s, topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut starts = StartTimes::default();
        engine
            .run_prepared_with(&prep, kib << 10, &mut scratch, &mut starts)
            .unwrap();
        let mut run = || match plan {
            None => engine
                .run_prepared_with(&prep, kib << 10, &mut scratch, &mut NoopObserver)
                .unwrap()
                .sim,
            Some(plan) => {
                engine
                    .run_prepared_faulted_with(&prep, kib << 10, &mut scratch, plan, &mut NoopObserver)
                    .unwrap()
                    .report
                    .sim
            }
        };
        let events = run().messages;
        let times = starts.0.len();
        g.bench_function(format!("{name}_{kib}KiB/{events}_events_{times}_start_times"), |b| {
            b.iter(&mut run)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = flow_engine, prepared_sweep, cycle_engine, cycle_sweep_16node, cycle_keys, flow_keys
}
criterion_main!(benches);
