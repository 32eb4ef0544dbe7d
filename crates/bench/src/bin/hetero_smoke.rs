//! Heterogeneous-fabric smoke check: on an oversubscribed two-tier
//! fat-tree (`Topology::fattree_oversubscribed`, uplinks at 1/ratio of
//! the edge rate) build the uniform and the bandwidth-aware MultiTree,
//! run both schedules through **both** engines, and fail unless the
//! bandwidth-aware builder finishes no later than the uniform one on
//! each engine — the ROADMAP acceptance experiment for per-link rates,
//! asserted on every CI run.
//!
//! Two rate-API invariants ride along:
//!
//! * **uniform bit-identity** — at `--ratio 1` the fabric is full-rate
//!   and the bandwidth-aware builder must emit the uniform builder's
//!   schedule event for event (the historical fast path);
//! * **fewer slow crossings** — the bandwidth-aware schedule must route
//!   strictly fewer event-hops over the scarce leaf<->spine uplinks.
//!
//! ```text
//! cargo run --release -p mt-bench --bin hetero_smoke [-- --k 8] [--ratio 4] [--bytes-mib 4] [--json out.json]
//! ```
//!
//! Exits non-zero (with a diagnostic) when any assertion fails; `--json`
//! dumps the measured completions and speedups (the
//! `heterogeneous_fabrics` evidence block of BENCH_scale.json).

use multitree::algorithms::{AllReduce, MultiTree};
use multitree::{CommSchedule, PreparedSchedule};
use mt_bench::args::Args;
use mt_bench::dump_json;
use mt_bench::suites::{run_engine_prepared, EngineKind};
use mt_netsim::{NetworkConfig, SimScratch};
use mt_topology::Topology;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Summary {
    nodes: usize,
    oversubscription: u32,
    slow_crossings_uniform: usize,
    slow_crossings_aware: usize,
    flow_uniform_ns: f64,
    flow_aware_ns: f64,
    flow_speedup: f64,
    cycle_uniform_ns: f64,
    cycle_aware_ns: f64,
    cycle_speedup: f64,
}

/// Event-hops over links below full rate.
fn slow_crossings(topo: &Topology, s: &CommSchedule) -> usize {
    let mut n = 0usize;
    for e in s.events() {
        for l in e.path().unwrap_or_default() {
            if !topo.link(*l).is_full_rate() {
                n += 1;
            }
        }
    }
    n
}

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", 8);
    let ratio: u32 = args.get_or("ratio", 4);
    let bytes_mib: u64 = args.get_or("bytes-mib", 4);
    let bytes = bytes_mib << 20;
    let wall = Instant::now();

    // uniform bit-identity: ratio 1 is a full-rate fabric and the flag
    // must be a no-op there
    let full = Topology::fattree_oversubscribed(k, 1);
    assert!(full.is_uniform());
    assert_eq!(
        MultiTree::default().build(&full).expect("fat-tree supported"),
        MultiTree::bandwidth_aware().build(&full).expect("fat-tree supported"),
        "bandwidth-aware diverged from uniform on a full-rate fabric"
    );

    let topo = Topology::fattree_oversubscribed(k, ratio);
    let n = topo.num_nodes();
    let uni = MultiTree::default().build(&topo).expect("fat-tree supported");
    let aware = MultiTree::bandwidth_aware()
        .build(&topo)
        .expect("fat-tree supported");
    let (cross_uni, cross_aware) = (slow_crossings(&topo, &uni), slow_crossings(&topo, &aware));

    let prep_uni = PreparedSchedule::new(&uni, &topo).expect("schedule validates");
    let prep_aware = PreparedSchedule::new(&aware, &topo).expect("schedule validates");
    let cfg = NetworkConfig::paper_default();
    let mut scratch = SimScratch::new();

    let t0 = Instant::now();
    let fu = run_engine_prepared(EngineKind::Flow, cfg, &prep_uni, bytes, &mut scratch);
    let fa = run_engine_prepared(EngineKind::Flow, cfg, &prep_aware, bytes, &mut scratch);
    let flow_wall = t0.elapsed();
    let t0 = Instant::now();
    let cu = run_engine_prepared(EngineKind::Cycle, cfg, &prep_uni, bytes, &mut scratch);
    let ca = run_engine_prepared(EngineKind::Cycle, cfg, &prep_aware, bytes, &mut scratch);
    let cycle_wall = t0.elapsed();

    let summary = Summary {
        nodes: n,
        oversubscription: ratio,
        slow_crossings_uniform: cross_uni,
        slow_crossings_aware: cross_aware,
        flow_uniform_ns: fu.completion_ns,
        flow_aware_ns: fa.completion_ns,
        flow_speedup: fu.completion_ns / fa.completion_ns,
        cycle_uniform_ns: cu.completion_ns,
        cycle_aware_ns: ca.completion_ns,
        cycle_speedup: cu.completion_ns / ca.completion_ns,
    };

    println!(
        "hetero smoke: {n} nodes (k={k} two-tier fat-tree, {ratio}x oversubscribed uplinks), {} MiB all-reduce",
        bytes_mib
    );
    println!(
        "  slow-uplink crossings:  uniform {cross_uni}, bandwidth-aware {cross_aware}"
    );
    println!(
        "  flow engine:  uniform {:.3} ms, bandwidth-aware {:.3} ms ({:.2}x) [{flow_wall:?}]",
        fu.completion_ns / 1e6,
        fa.completion_ns / 1e6,
        summary.flow_speedup
    );
    println!(
        "  cycle engine: uniform {:.3} ms, bandwidth-aware {:.3} ms ({:.2}x) [{cycle_wall:?}]",
        cu.completion_ns / 1e6,
        ca.completion_ns / 1e6,
        summary.cycle_speedup
    );
    println!("  total: {:?}", wall.elapsed());

    if let Some(path) = args.json_path() {
        dump_json(&path, &summary);
    }

    let mut failed = false;
    if ratio > 1 && cross_aware >= cross_uni {
        eprintln!("FAIL: bandwidth-aware schedule does not cross slow uplinks less ({cross_aware} >= {cross_uni})");
        failed = true;
    }
    if fa.completion_ns > fu.completion_ns {
        eprintln!(
            "FAIL: flow engine — bandwidth-aware {} ns > uniform {} ns",
            fa.completion_ns, fu.completion_ns
        );
        failed = true;
    }
    if ca.completion_ns > cu.completion_ns {
        eprintln!(
            "FAIL: cycle engine — bandwidth-aware {} ns > uniform {} ns",
            ca.completion_ns, cu.completion_ns
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: bandwidth-aware <= uniform on both engines, uniform path bit-identical");
}
