//! Reproduces **Fig. 10**: weak scalability on Torus networks from 16 to
//! 256 nodes with an all-reduce size of `375 x N` KiB, communication
//! time normalized to RING's 16-node performance. `--strong` switches to
//! the paper's strong-scalability variant (§VI-B): a fixed 96 MiB
//! problem regardless of node count, where "there is only small
//! variation for each algorithm since they are all contention-free and
//! serialization latency is more dominant".
//!
//! ```text
//! cargo run --release -p mt-bench --bin fig10_scalability [-- --strong] [--max-nodes n] [--threads n] [--json out.json]
//! ```
//!
//! `--max-nodes` (default 256, the paper's ceiling) extends the torus
//! ladder past the figure: 512 adds a 16×32 torus and 1024 a 32×32 one,
//! exercising the kilonode construction fast path. Past 1024 the ladder
//! enters the hierarchical composition's territory: 4096 (64×64) and
//! 16384 (128×128) add a MULTITREE-HIER column — the pod-hierarchical
//! MultiTree executed by the flow engine — and the flat algorithms stop
//! at 1024 (a flat RING at 16k is half a billion events; the
//! hierarchical schedule is ~65 k). `--threads` parallelizes over (torus
//! size, algorithm) units; the output is byte-identical to a
//! single-threaded run.
//!
//! Hierarchical construction is tunable: `--pods N` overrides the pod
//! count (0 = `Partition::auto`) and `--build-threads N` fans the
//! per-pod tree builds across workers (byte-identical output for any
//! value). `--ndjson out.ndjson` writes one JSON object per row
//! *including wall-clock construct/prepare columns*; those timings are
//! intentionally kept out of the default `--json` output so CI can
//! byte-diff it across thread counts.
//!
//! `--oversub R` (R > 1) adds a MULTITREE-BW column: at each rung the
//! bandwidth-aware MultiTree is built and run on a two-tier fat-tree of
//! the same node count whose leaf<->spine uplinks run at 1/R of the
//! edge rate — the heterogeneous-fabric scalability story next to the
//! uniform-torus baselines. The flag defaults to off, and when unset
//! the `--json` output is byte-identical to builds without the flag.

use multitree::algorithms::{
    Algorithm, AllReduce, HierarchicalMultiTree, MultiTree, Ring, Ring2D,
};
use multitree::PreparedSchedule;
use mt_bench::args::Args;
use mt_bench::dump_json;
use mt_bench::parallel::run_indexed;
use mt_bench::suites::{run_engine_prepared, scalability_tori_to, EngineKind};
use mt_netsim::{flow::FlowEngine, NetworkConfig, NoopObserver, SimScratch};
use mt_topology::{LinkId, Topology};
use serde::Serialize;

/// Flat algorithms stop here; larger rungs run only MULTITREE-HIER.
const FLAT_CEILING: usize = 1024;

/// What a column runs at each rung.
#[derive(Debug, Clone)]
enum Col {
    /// A flat algorithm on the rung's torus.
    Flat(Algorithm),
    /// The pod-hierarchical MultiTree through the flow engine.
    Hier,
    /// The bandwidth-aware MultiTree on an oversubscribed two-tier
    /// fat-tree of the same node count (`--oversub` ratio).
    OversubBw(u32),
}

/// A two-tier fat-tree with `n` nodes (8 per leaf, square spine block)
/// whose leaf<->spine uplinks run at `1/ratio` of the edge rate.
fn oversub_fattree(n: usize, ratio: u32) -> Topology {
    let per_leaf = n.min(8);
    let leaves = n / per_leaf;
    let uniform = Topology::fat_tree_two_level(leaves, leaves, per_leaf);
    // uplinks follow the node<->leaf block (2 links per node)
    let slow: Vec<(LinkId, u32, u32)> = (2 * n..uniform.num_links())
        .map(|i| (LinkId::new(i), 1, ratio))
        .collect();
    uniform
        .with_link_rates(&slow)
        .expect("uplink ids are in range and the ratio is positive")
}

#[derive(Debug, Serialize)]
struct Row {
    nodes: usize,
    algorithm: String,
    bytes: u64,
    completion_ns: f64,
    normalized_to_ring16: f64,
}

/// The NDJSON row shape: everything in [`Row`] plus the wall-clock
/// construct/prepare columns (excluded from `--json` so that output
/// stays byte-diffable across runs and thread counts).
#[derive(Debug, Serialize)]
struct NdRow {
    nodes: usize,
    algorithm: String,
    bytes: u64,
    completion_ns: f64,
    construct_ms: f64,
    prepare_ms: f64,
}

fn main() {
    let args = Args::parse();
    let engine: EngineKind = args.get_or("engine", EngineKind::Flow);
    let strong = args.flag("strong");
    let max_nodes: usize = args.get_or("max-nodes", 256);
    // 0 = Partition::auto, the historical default
    let pods: usize = args.get_or("pods", 0);
    let build_threads: usize = args.get_or("build-threads", 1);
    let ladder = scalability_tori_to(max_nodes);
    let top = ladder.last().expect("ladder is never empty").0;
    let pkt = NetworkConfig::paper_default();
    let msg = NetworkConfig::paper_message_based();

    let oversub: u32 = args.get_or("oversub", 1);
    let mut algos: Vec<(&str, Col, NetworkConfig)> = vec![
        ("RING", Col::Flat(Algorithm::Ring(Ring)), pkt),
        ("2D-RING", Col::Flat(Algorithm::Ring2D(Ring2D)), pkt),
        (
            "MULTITREEMSG",
            Col::Flat(Algorithm::MultiTree(MultiTree::default())),
            msg,
        ),
    ];
    if oversub > 1 {
        algos.push(("MULTITREE-BW", Col::OversubBw(oversub), msg));
    }
    if max_nodes > FLAT_CEILING {
        algos.push(("MULTITREE-HIER", Col::Hier, msg));
    }
    let labels: Vec<&str> = algos.iter().map(|(l, _, _)| *l).collect();

    let units: Vec<_> = ladder
        .clone()
        .into_iter()
        .flat_map(|(n, topo)| {
            let bytes = if strong {
                96 << 20 // fixed large problem
            } else {
                375 * 1024 * n as u64 // 375 x N KiB
            };
            algos
                .iter()
                .filter(|(_, col, _)| matches!(col, Col::Hier) || n <= FLAT_CEILING)
                .map(|(label, col, net)| (n, topo.clone(), bytes, *label, col.clone(), *net))
                .collect::<Vec<_>>()
        })
        .collect();
    let timed: Vec<(Row, f64, f64)> =
        run_indexed(units, args.threads(), |(n, topo, bytes, label, col, net)| {
            let (completion_ns, construct_ms, prepare_ms) = match col {
                Col::Flat(algo) => {
                    let t0 = std::time::Instant::now();
                    let schedule = algo.build(topo).expect("torus supported");
                    let construct = t0.elapsed().as_secs_f64() * 1e3;
                    let t0 = std::time::Instant::now();
                    let prep =
                        PreparedSchedule::new(&schedule, topo).expect("schedules validate");
                    let prepare = t0.elapsed().as_secs_f64() * 1e3;
                    let c = run_engine_prepared(engine, *net, &prep, *bytes, &mut SimScratch::new())
                        .completion_ns;
                    (c, construct, prepare)
                }
                Col::OversubBw(ratio) => {
                    let fabric = oversub_fattree(*n, *ratio);
                    let t0 = std::time::Instant::now();
                    let schedule = MultiTree::bandwidth_aware()
                        .build(&fabric)
                        .expect("fat-tree supported");
                    let construct = t0.elapsed().as_secs_f64() * 1e3;
                    let t0 = std::time::Instant::now();
                    let prep =
                        PreparedSchedule::new(&schedule, &fabric).expect("schedules validate");
                    let prepare = t0.elapsed().as_secs_f64() * 1e3;
                    let c = run_engine_prepared(engine, *net, &prep, *bytes, &mut SimScratch::new())
                        .completion_ns;
                    (c, construct, prepare)
                }
                Col::Hier => {
                    let mut hier = HierarchicalMultiTree::default().build_threads(build_threads);
                    if pods > 0 {
                        hier.pods = Some(pods);
                    }
                    let t0 = std::time::Instant::now();
                    let schedule = hier.build(topo).expect("torus supported");
                    let construct = t0.elapsed().as_secs_f64() * 1e3;
                    let t0 = std::time::Instant::now();
                    let prep =
                        PreparedSchedule::new(&schedule, topo).expect("schedules validate");
                    let prepare = t0.elapsed().as_secs_f64() * 1e3;
                    let c = FlowEngine::new(*net)
                        .run_prepared_with(&prep, *bytes, &mut SimScratch::new(), &mut NoopObserver)
                        .expect("flow run completes")
                        .sim
                        .completion_ns;
                    (c, construct, prepare)
                }
            };
            (
                Row {
                    nodes: *n,
                    algorithm: label.to_string(),
                    bytes: *bytes,
                    completion_ns,
                    normalized_to_ring16: f64::NAN, // filled below
                },
                construct_ms,
                prepare_ms,
            )
        });
    if let Some(path) = args.get("ndjson") {
        let mut out = String::new();
        for (r, construct_ms, prepare_ms) in &timed {
            let nd = NdRow {
                nodes: r.nodes,
                algorithm: r.algorithm.clone(),
                bytes: r.bytes,
                completion_ns: r.completion_ns,
                construct_ms: *construct_ms,
                prepare_ms: *prepare_ms,
            };
            out.push_str(&serde_json::to_string(&nd).expect("rows are serializable"));
            out.push('\n');
        }
        std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    let mut rows: Vec<Row> = timed.into_iter().map(|(r, _, _)| r).collect();
    let ring16 = rows
        .iter()
        .find(|r| r.nodes == 16 && r.algorithm == "RING")
        .map_or(f64::NAN, |r| r.completion_ns);
    for r in &mut rows {
        r.normalized_to_ring16 = r.completion_ns / ring16;
    }

    if strong {
        println!("=== Fig. 10 variant — strong scalability, fixed 96 MiB all-reduce on Torus ===");
    } else {
        println!("=== Fig. 10 — weak scalability, 375*N KiB all-reduce on Torus ===");
    }
    println!("(communication time normalized to 16-node RING; lower is better)");
    let col = |label: &str| if label.len() > 10 { 16 } else { 14 };
    print!("{:<8}", "nodes");
    for label in &labels {
        print!("{:>width$}", label, width = col(label));
    }
    println!();
    for &(n, _) in &ladder {
        print!("{n:<8}");
        for label in &labels {
            let width = col(label);
            match rows.iter().find(|r| r.nodes == n && r.algorithm == *label) {
                Some(r) => print!("{:>width$.3}", r.normalized_to_ring16, width = width),
                None => print!("{:>width$}", "-", width = width),
            }
        }
        println!();
    }
    // summary speedups at the top rung (the paper quotes 3x / 1.4x at 256)
    let at = |label: &str| {
        rows.iter()
            .find(|r| r.nodes == top && r.algorithm == label)
            .map(|r| r.completion_ns)
    };
    match (at("RING"), at("2D-RING"), at("MULTITREEMSG")) {
        (Some(ring), Some(ring2d), Some(mt)) => println!(
            "\nAt {top} nodes: MULTITREEMSG is {:.2}x faster than RING, {:.2}x faster than 2D-RING",
            ring / mt,
            ring2d / mt,
        ),
        _ => {
            // the flat algorithms stopped at FLAT_CEILING; report the
            // hierarchical schedule on its own
            if let Some(h) = at("MULTITREE-HIER") {
                println!(
                    "\nAt {top} nodes: MULTITREE-HIER completes in {:.3} ms (flat baselines capped at {FLAT_CEILING} nodes)",
                    h / 1e6
                );
            }
        }
    }

    if let Some(path) = args.json_path() {
        dump_json(&path, &rows);
    }
}
