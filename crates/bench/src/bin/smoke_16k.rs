//! 16k-node smoke check: hierarchically constructs the MultiTree
//! all-reduce on a 128×128 torus (16384 nodes, auto pod partition) and
//! executes it with the flow engine, failing if the whole thing blows a
//! wall-clock budget. The flat construction path is quadratic territory
//! at this scale (a flat RING schedule would be half a billion events;
//! the hierarchical one is ~65 k), so this binary is the CI tripwire for
//! the hierarchical composition and the flow engine at scale: a
//! regression in either shows up as an order-of-magnitude wall-clock
//! jump.
//!
//! Build-thread determinism is asserted at full scale on every CI run:
//! the schedule is rebuilt with the per-pod tree builds fanned across 2
//! workers and compared byte-for-byte against the serial build (the
//! parallel pod-build promise).
//!
//! The partition, schedule and prepared schedule are constructed
//! **once**, so the timed engine section measures the engine, not
//! redundant construction.
//!
//! ```text
//! cargo run --release -p mt-bench --bin smoke_16k [-- --side 128] [--budget-s 120] [--bytes-mib 6000]
//! ```
//!
//! Exits non-zero (with a diagnostic) when the budget is exceeded, the
//! build threads disagree, or the run produces an implausible result.

use multitree::algorithms::{AllReduce, HierarchicalMultiTree};
use multitree::PreparedSchedule;
use mt_bench::args::Args;
use mt_netsim::{flow::FlowEngine, NetworkConfig, NoopObserver, SimScratch};
use mt_topology::Topology;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let side: usize = args.get_or("side", 128);
    let budget_s: f64 = args.get_or("budget-s", 120.0);
    // 375 KiB x 16384 nodes rounded up, the weak-scaling payload
    let bytes_mib: u64 = args.get_or("bytes-mib", 6000);
    let topo = Topology::torus(side, side);
    let n = topo.num_nodes();

    let wall = Instant::now();

    // ---- construction: partition once, build once, prepare once.
    let t0 = Instant::now();
    let hier = HierarchicalMultiTree::default();
    let part = hier.partition(&topo);
    let schedule = hier.build(&topo).expect("torus construction succeeds");
    let construct = t0.elapsed();

    // build-thread determinism, asserted at full scale
    let t0 = Instant::now();
    let parallel = hier
        .build_threads(2)
        .build(&topo)
        .expect("torus construction succeeds");
    let construct_mt = t0.elapsed();
    assert_eq!(
        schedule, parallel,
        "parallel pod builds diverged from the serial build"
    );
    drop(parallel);

    let t0 = Instant::now();
    let prep = PreparedSchedule::new(&schedule, &topo).expect("schedule validates");
    let prepare = t0.elapsed();

    // ---- engine: the timed section measures only the flow run.
    let engine = FlowEngine::new(NetworkConfig::paper_message_based());
    let t0 = Instant::now();
    let report = engine
        .run_prepared_with(
            &prep,
            bytes_mib << 20,
            &mut SimScratch::new(),
            &mut NoopObserver,
        )
        .expect("flow run completes");
    let flow = t0.elapsed();
    let total = wall.elapsed();

    println!(
        "16k smoke: {n} nodes ({side}x{side} torus), {} pods, {} events, {} steps",
        part.num_pods(),
        schedule.events().len(),
        schedule.num_steps()
    );
    println!("  hierarchical construct: {construct:?} (2 build threads: {construct_mt:?})");
    println!("  prepare:                {prepare:?}");
    println!(
        "  flow run:               {flow:?} (completion {:.3} ms)",
        report.sim.completion_ns / 1e6
    );
    println!("  total:                  {total:?} (budget {budget_s}s)");

    assert!(report.sim.messages > 0, "no messages simulated");
    assert!(
        report.sim.completion_ns > 0.0,
        "implausible zero completion time"
    );
    if total.as_secs_f64() > budget_s {
        eprintln!(
            "FAIL: 16k smoke took {:.1}s, budget {budget_s}s",
            total.as_secs_f64()
        );
        std::process::exit(1);
    }
    println!("OK: within budget, byte-identical across build threads");
}
