//! 64k-node construction smoke: hierarchically constructs the MultiTree
//! all-reduce on a 256×256 torus (65536 nodes, 256 auto pods), prepares
//! it, certifies it with the tree certificate and verifies it with the
//! memory-scalable numeric verifier — construction-only, no engine run,
//! failing on a wall-clock budget.
//!
//! This is the CI tripwire for the pod-quotient inter-pod walker: at
//! this scale the PR-6 full-graph inter-pod construction (O(n) BFS
//! floods per edge) is minutes of wall clock, and the full symbolic
//! set-dataflow verifier would need ~128 GiB of origin bitsets — the
//! quotient walker builds in tens of seconds, `certify_tree` proves the
//! dependency-strict all-reduce property in O(n·segments) memory, and
//! `verify_allreduce_numeric` checks exact-sum delivery for every node
//! and segment, also in O(n·segments) memory.
//!
//! ```text
//! cargo run --release -p mt-bench --bin smoke_64k [-- --side 256] [--budget-s 300] [--build-threads 1]
//! ```
//!
//! Exits non-zero (with a diagnostic) when the budget is exceeded, the
//! schedule does not certify, or verification fails.

use multitree::algorithms::{AllReduce, HierarchicalMultiTree};
use multitree::verify::{certificate_bytes, certify_tree, verify_allreduce_numeric, Certificate};
use multitree::PreparedSchedule;
use mt_bench::args::Args;
use mt_topology::Topology;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let side: usize = args.get_or("side", 256);
    let budget_s: f64 = args.get_or("budget-s", 300.0);
    let build_threads: usize = args.get_or("build-threads", 1);
    let topo = Topology::torus(side, side);
    let n = topo.num_nodes();

    let wall = Instant::now();

    let t0 = Instant::now();
    let hier = HierarchicalMultiTree::default().build_threads(build_threads);
    let part = hier.partition(&topo);
    let schedule = hier.build(&topo).expect("torus construction succeeds");
    let construct = t0.elapsed();

    let t0 = Instant::now();
    let prep = PreparedSchedule::new(&schedule, &topo).expect("schedule validates");
    let prepare = t0.elapsed();
    drop(prep);

    let t0 = Instant::now();
    let certificate = certify_tree(&schedule);
    let certify = t0.elapsed();

    let t0 = Instant::now();
    let report = verify_allreduce_numeric(&schedule).expect("64k schedule verifies");
    let verify = t0.elapsed();
    let total = wall.elapsed();

    println!(
        "64k smoke: {n} nodes ({side}x{side} torus), {} pods, {} events, {} steps",
        part.num_pods(),
        schedule.events().len(),
        schedule.num_steps()
    );
    println!("  hierarchical construct: {construct:?} ({build_threads} build threads)");
    println!("  prepare:                {prepare:?}");
    println!(
        "  tree certificate:       {certify:?} ({:.1} MiB peak, {certificate:?})",
        certificate_bytes(&schedule) as f64 / (1 << 20) as f64
    );
    println!(
        "  numeric verify:         {verify:?} ({} reduces, {} gathers)",
        report.reduces, report.gathers
    );
    println!("  total:                  {total:?} (budget {budget_s}s)");

    assert_eq!(
        report.events,
        schedule.events().len(),
        "verifier event census mismatch"
    );
    if certificate != Certificate::Certified {
        eprintln!("FAIL: the 64k schedule is not a certified tree all-reduce");
        std::process::exit(1);
    }
    if total.as_secs_f64() > budget_s {
        eprintln!(
            "FAIL: 64k smoke took {:.1}s, budget {budget_s}s",
            total.as_secs_f64()
        );
        std::process::exit(1);
    }
    println!("OK: within budget, certified and verifier-passing 65536-node schedule");
}
