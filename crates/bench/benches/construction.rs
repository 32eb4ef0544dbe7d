//! Criterion micro-benchmarks for schedule construction — backing the
//! paper's §III-C2 complexity claim (O(|V|²|E|)) with measurements, and
//! quantifying the "runs once at initialization" cost (§III-C1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use multitree::algorithms::{
    AllReduce, DbTree, Hdrm, HierarchicalMultiTree, MultiTree, Ring, Ring2D,
};
use mt_topology::Topology;
use multitree::verify::{certify_tree, verify_allreduce_among};

fn multitree_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("multitree_construction");
    for side in [4usize, 8, 12, 16] {
        let topo = Topology::torus(side, side);
        g.bench_with_input(
            BenchmarkId::new("torus", side * side),
            &topo,
            |b, topo| b.iter(|| MultiTree::default().build(topo).unwrap()),
        );
    }
    for (label, topo) in [
        ("fattree64", Topology::fat_tree_64()),
        ("bigraph64", Topology::bigraph_64()),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| MultiTree::default().build(&topo).unwrap())
        });
    }
    g.finish();
}

fn baseline_construction(c: &mut Criterion) {
    let topo = Topology::torus(8, 8);
    let bg = Topology::bigraph_64();
    let mut g = c.benchmark_group("baseline_construction_64");
    g.bench_function("ring", |b| b.iter(|| Ring.build(&topo).unwrap()));
    g.bench_function("dbtree", |b| b.iter(|| DbTree::default().build(&topo).unwrap()));
    g.bench_function("ring2d", |b| b.iter(|| Ring2D.build(&topo).unwrap()));
    g.bench_function("hdrm", |b| b.iter(|| Hdrm.build(&bg).unwrap()));
    g.finish();
}

/// `verify_*` prices the symbolic tier (`verify_allreduce_among` over
/// every node: set dataflow plus numeric pass), which is what
/// `verify_schedule` falls back to; `certify_*` prices the tree
/// certificate `verify_schedule` tries first — a `Certified` on the tree
/// keys and a refusal on the 2D-RING ones.
fn verification(c: &mut Criterion) {
    let topo = Topology::torus(8, 8);
    // the verifies a served compile runs on mtbench's largest keys
    let t16 = Topology::torus(16, 16);
    let t32 = Topology::torus(32, 32);
    for (key, schedule) in [
        ("multitree_64", MultiTree::default().build(&topo).unwrap()),
        ("2dring_64", Ring2D.build(&topo).unwrap()),
        ("2dring_256", Ring2D.build(&t16).unwrap()),
        ("ring_256", Ring.build(&t16).unwrap()),
        ("multitree_256", MultiTree::default().build(&t16).unwrap()),
        (
            "multitree_hier_1024",
            HierarchicalMultiTree::default().build(&t32).unwrap(),
        ),
    ] {
        let all: Vec<mt_topology::NodeId> = (0..schedule.num_nodes())
            .map(mt_topology::NodeId::new)
            .collect();
        c.bench_function(&format!("verify_{key}"), |b| {
            b.iter(|| verify_allreduce_among(&schedule, &all).unwrap())
        });
        c.bench_function(&format!("certify_{key}"), |b| {
            b.iter(|| certify_tree(&schedule))
        });
    }
}

/// `PreparedData::compute` on mtbench's largest cold-compile keys: RING
/// routes every event, the MultiTree keys carry explicit paths. (The
/// construction benches above include dropping each built schedule.)
fn preparation(c: &mut Criterion) {
    let t16 = Topology::torus(16, 16);
    let t32 = Topology::torus(32, 32);
    for (label, topo, schedule) in [
        ("prepare_ring_256", &t16, Ring.build(&t16).unwrap()),
        (
            "prepare_multitree_256",
            &t16,
            MultiTree::default().build(&t16).unwrap(),
        ),
        (
            "prepare_multitree_hier_1024",
            &t32,
            HierarchicalMultiTree::default().build(&t32).unwrap(),
        ),
    ] {
        c.bench_function(label, |b| {
            b.iter(|| multitree::PreparedData::compute(&schedule, topo).unwrap())
        });
    }
}

fn collectives_and_subsets(c: &mut Criterion) {
    let topo = Topology::torus(8, 8);
    let mut g = c.benchmark_group("extensions_64");
    g.bench_function("reduce_scatter", |b| {
        b.iter(|| MultiTree::default().build_reduce_scatter(&topo).unwrap())
    });
    g.bench_function("all_to_all", |b| {
        b.iter(|| MultiTree::default().build_all_to_all(&topo).unwrap())
    });
    let half: Vec<mt_topology::NodeId> =
        (0..64).step_by(2).map(mt_topology::NodeId::new).collect();
    g.bench_function("subset_32_of_64", |b| {
        b.iter(|| MultiTree::default().build_among(&topo, &half).unwrap())
    });
    g.bench_function("schedule_tables", |b| {
        let s = MultiTree::default().build(&topo).unwrap();
        b.iter(|| multitree::table::build_tables(&s, 64 << 20))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = multitree_construction, baseline_construction, verification, preparation, collectives_and_subsets
}
criterion_main!(benches);
