//! Criterion benchmarks for the kilonode scale-out fast path: MultiTree
//! construction at 256 and 1024 nodes (fast walker vs. the retained
//! reference oracle) and a full 1024-node flow-model run. The recorded
//! before/after numbers live in `BENCH_scale.json` at the repo root.
//!
//! The reference builder is the pre-optimization O(V²·E)-ish scan kept
//! as the bit-identity oracle; at 1024 nodes one build takes seconds, so
//! those groups run with small sample counts.

use criterion::{criterion_group, criterion_main, Criterion};
use multitree::algorithms::{
    AllReduce, ForestScratch, HierarchicalMultiTree, InterPodMode, MultiTree,
};
use multitree::PreparedSchedule;
use mt_netsim::{flow::FlowEngine, NetworkConfig, NoopObserver, SimScratch};
use mt_topology::Topology;

fn construction_256(c: &mut Criterion) {
    let topo = Topology::torus(16, 16);
    let ar = MultiTree::default();
    let rh = MultiTree::with_remaining_height();
    let mut scratch = ForestScratch::new();
    let mut g = c.benchmark_group("scale_construct_256");
    g.sample_size(10);
    g.bench_function("fast/ascending_root", |b| {
        b.iter(|| ar.construct_forest_with(&topo, &mut scratch).unwrap())
    });
    g.bench_function("reference/ascending_root", |b| {
        b.iter(|| ar.construct_forest_reference(&topo).unwrap())
    });
    g.bench_function("fast/remaining_height", |b| {
        b.iter(|| rh.construct_forest_with(&topo, &mut scratch).unwrap())
    });
    g.bench_function("reference/remaining_height", |b| {
        b.iter(|| rh.construct_forest_reference(&topo).unwrap())
    });
    g.finish();
}

fn construction_1024(c: &mut Criterion) {
    let topo = Topology::torus(32, 32);
    let ar = MultiTree::default();
    let mut scratch = ForestScratch::new();
    let mut g = c.benchmark_group("scale_construct_1024");
    // one reference build takes seconds — keep the sample count small
    g.sample_size(3);
    g.bench_function("fast/ascending_root", |b| {
        b.iter(|| ar.construct_forest_with(&topo, &mut scratch).unwrap())
    });
    g.bench_function("reference/ascending_root", |b| {
        b.iter(|| ar.construct_forest_reference(&topo).unwrap())
    });
    g.finish();
}

fn hierarchical_4096(c: &mut Criterion) {
    let topo = Topology::torus(64, 64);
    let hier = HierarchicalMultiTree::default();
    let part = hier.partition(&topo);
    let mut scratch = ForestScratch::new();
    let mut g = c.benchmark_group("scale_hier_construct_4096");
    // the reference inter-pod walker floods the full graph per edge —
    // seconds per build, so keep the sample count small
    g.sample_size(3);
    g.bench_function("quotient", |b| {
        b.iter(|| hier.build_partitioned(&topo, &part, &mut scratch).unwrap())
    });
    g.bench_function("fullgraph", |b| {
        b.iter(|| {
            hier.inter_pod(InterPodMode::FullGraph)
                .build_partitioned(&topo, &part, &mut scratch)
                .unwrap()
        })
    });
    g.bench_function("reference", |b| {
        b.iter(|| {
            hier.build_partitioned_reference(&topo, &part, &mut scratch)
                .unwrap()
        })
    });
    g.finish();
}

fn hierarchical_16384(c: &mut Criterion) {
    let topo = Topology::torus(128, 128);
    let hier = HierarchicalMultiTree::default();
    let part = hier.partition(&topo);
    let mut scratch = ForestScratch::new();
    let mut g = c.benchmark_group("scale_hier_construct_16384");
    g.sample_size(3);
    g.bench_function("quotient", |b| {
        b.iter(|| hier.build_partitioned(&topo, &part, &mut scratch).unwrap())
    });
    g.finish();
}

fn flow_run_1024(c: &mut Criterion) {
    let topo = Topology::torus(32, 32);
    let schedule = MultiTree::default().build(&topo).unwrap();
    let prep = PreparedSchedule::new(&schedule, &topo).unwrap();
    let engine = FlowEngine::new(NetworkConfig::paper_default());
    let mut scratch = SimScratch::new();
    let bytes = 375 * 1024 * 1024u64; // the weak-scaling payload at N=1024
    let mut g = c.benchmark_group("scale_flow_1024");
    g.sample_size(5);
    g.bench_function("multitree/fifo", |b| {
        b.iter(|| {
            engine
                .run_prepared_with(&prep, bytes, &mut scratch, &mut NoopObserver)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = construction_256, construction_1024, hierarchical_4096, hierarchical_16384, flow_run_1024
}
criterion_main!(benches);
