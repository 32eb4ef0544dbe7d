//! The cycle engine's golden corpus, shared by the golden pins
//! (`crates/netsim/tests/golden_reports.rs`) and the dense-reference
//! differential (`tests/prepared_equivalence.rs`, which includes this
//! file by path).
//!
//! Every case is one (topology, schedule, configuration, payload) cell;
//! every cell runs healthy and under four fault plans. A run is reduced
//! to a one-line fingerprint holding every `SimReport` field, the cycle
//! detail and the `FaultReport`, with each `f64` written as its raw bits,
//! so two fingerprints are equal exactly when the runs are bit-identical.

#![allow(dead_code)] // each including test crate uses a different subset

use mt_netsim::{
    cycle::CycleEngine, EngineDetail, EngineReport, FaultPlan, FaultReport, NetworkConfig,
    SimObserver, SimReport, SimScratch,
};
use mt_topology::{LinkId, NodeId, Topology};
use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring2D};
use multitree::{CommSchedule, PreparedSchedule};

/// One corpus cell.
pub struct Case {
    pub name: String,
    pub topo: Topology,
    pub schedule: CommSchedule,
    pub cfg: NetworkConfig,
    pub bytes: u64,
}

fn lockstep_off() -> NetworkConfig {
    NetworkConfig {
        lockstep: false,
        ..NetworkConfig::paper_default()
    }
}

fn vcs(num_vcs: u32) -> NetworkConfig {
    NetworkConfig {
        num_vcs,
        ..NetworkConfig::paper_default()
    }
}

/// Every cell of the corpus, in a fixed order.
pub fn cases() -> Vec<Case> {
    let torus = Topology::torus(4, 4);
    // a re-rated torus: three links paced at 1/2, 1/3 and 2/3 rate, run
    // with the schedule built on the uniform fabric
    let paced = torus
        .with_link_rates(&[
            (LinkId::new(0), 1, 2),
            (LinkId::new(7), 1, 3),
            (LinkId::new(20), 2, 3),
        ])
        .expect("valid re-rating");
    let torus_mt = MultiTree::default().build(&torus).unwrap();
    let torus_db = DbTree::default().build(&torus).unwrap();
    let torus8 = Topology::torus(8, 8);
    let ring2d = Ring2D.build(&torus8).unwrap();
    let mesh = Topology::mesh(4, 4);
    let mesh_db = DbTree::default().build(&mesh).unwrap();
    let fat = Topology::dgx2_like_16();
    let fat_mt = MultiTree::default().build(&fat).unwrap();

    let packet = NetworkConfig::paper_default;
    let message = NetworkConfig::paper_message_based;
    #[rustfmt::skip]
    let cells: Vec<(&str, &Topology, &CommSchedule, &str, NetworkConfig, u64)> = vec![
        ("torus4x4/multitree", &torus, &torus_mt, "packet", packet(), 32 << 10),
        ("torus4x4/multitree", &torus, &torus_mt, "message", message(), 32 << 10),
        ("torus4x4/multitree", &torus, &torus_mt, "lockstep-off", lockstep_off(), 32 << 10),
        ("torus4x4/multitree", &torus, &torus_mt, "vcs2", vcs(2), 32 << 10),
        ("torus4x4/multitree", &torus, &torus_mt, "vcs8", vcs(8), 32 << 10),
        ("torus4x4/dbtree", &torus, &torus_db, "packet", packet(), 16 << 10),
        ("torus4x4/dbtree", &torus, &torus_db, "message", message(), 16 << 10),
        ("torus4x4/dbtree", &torus, &torus_db, "vcs2", vcs(2), 16 << 10),
        ("torus4x4/dbtree", &torus, &torus_db, "vcs8", vcs(8), 16 << 10),
        ("torus8x8/2dring", &torus8, &ring2d, "packet", packet(), 16 << 10),
        ("mesh4x4/dbtree", &mesh, &mesh_db, "packet", packet(), 16 << 10),
        ("mesh4x4/dbtree", &mesh, &mesh_db, "lockstep-off", lockstep_off(), 16 << 10),
        ("fattree16/multitree", &fat, &fat_mt, "packet", packet(), 16 << 10),
        ("fattree16/multitree", &fat, &fat_mt, "message", message(), 16 << 10),
        ("paced-torus4x4/multitree", &paced, &torus_mt, "packet", packet(), 16 << 10),
        ("paced-torus4x4/multitree", &paced, &torus_mt, "message", message(), 16 << 10),
    ];
    cells
        .into_iter()
        .map(|(cell, topo, schedule, cfg_name, cfg, bytes)| Case {
            name: format!("{cell}/{cfg_name}/{}KiB", bytes >> 10),
            topo: topo.clone(),
            schedule: schedule.clone(),
            cfg,
            bytes,
        })
        .collect()
}

/// The four fault plans a case runs under, named. Fault times are
/// fractions of the healthy completion time `healthy_ns` (itself pinned),
/// and the link is the one the most events cross (the lowest such id),
/// so the link plans bite mid-run. The wedging plans use a short
/// watchdog window to keep the stalled runs quick.
pub fn fault_plans(case: &Case, healthy_ns: f64) -> Vec<(&'static str, FaultPlan)> {
    let prep = PreparedSchedule::new(&case.schedule, &case.topo).unwrap();
    let mut crossings = vec![0u32; case.topo.num_links()];
    for i in 0..prep.num_events() {
        for l in prep.path(i) {
            crossings[l.index()] += 1;
        }
    }
    let busiest = (0..crossings.len())
        .max_by_key(|&l| (crossings[l], std::cmp::Reverse(l)))
        .expect("topologies have links");
    let link = LinkId::new(busiest);
    let node = NodeId::new(case.topo.num_nodes() / 2 + 1);
    let at = |frac: f64| (healthy_ns * frac).round();
    vec![
        ("flap", FaultPlan::new().link_flap(link, at(0.2), at(0.5))),
        ("degrade", FaultPlan::new().degrade(link, at(0.1), 3.0)),
        (
            "dead-link",
            FaultPlan::new()
                .link_down(link, at(0.3))
                .with_detect_window(5_000.0),
        ),
        (
            "node-crash",
            FaultPlan::new()
                .node_down(node, at(0.3))
                .with_detect_window(5_000.0),
        ),
    ]
}

/// A run reduced to one line: every report field, each `f64` as bits.
pub fn fingerprint(report: &EngineReport, faults: Option<&FaultReport>) -> String {
    let SimReport {
        total_bytes,
        completion_ns,
        flits_sent,
        head_flits,
        messages,
        flit_hops,
        head_flit_hops,
        links_used,
        total_links,
        busy_ns,
    } = report.sim;
    let EngineDetail::Cycle {
        cycles,
        max_buffer_occupancy,
    } = report.detail
    else {
        panic!("cycle engine must report the cycle detail");
    };
    let mut line = format!(
        "bytes={total_bytes} completion={:#018x} flits={flits_sent} heads={head_flits} \
         msgs={messages} flit_hops={flit_hops} head_hops={head_flit_hops} \
         links={links_used}/{total_links} busy={:#018x} cycles={cycles} maxbuf={max_buffer_occupancy}",
        completion_ns.to_bits(),
        busy_ns.to_bits(),
    );
    if let Some(f) = faults {
        let FaultReport {
            delivered,
            total,
            lost_events,
            first_undelivered_step,
            last_progress_ns,
            stalled,
            detect_window_ns,
        } = f;
        line += &format!(
            " | delivered={delivered}/{total} lost={lost_events:?} \
             first_undelivered={first_undelivered_step:?} last_progress={:#018x} \
             stalled={stalled} window={:#018x}",
            last_progress_ns.to_bits(),
            detect_window_ns.to_bits(),
        );
    }
    line
}

/// Runs `case` healthy (`plan == None`) or under `plan` through the
/// prepared entry points with observer `obs`; returns the run's
/// fingerprint and completion time.
pub fn run_case<O: SimObserver>(
    case: &Case,
    plan: Option<&FaultPlan>,
    scratch: &mut SimScratch,
    obs: &mut O,
) -> (String, f64) {
    let engine = CycleEngine::new(case.cfg);
    let prep = PreparedSchedule::new(&case.schedule, &case.topo).unwrap();
    let (report, faults) = match plan {
        None => (
            engine
                .run_prepared_with(&prep, case.bytes, scratch, obs)
                .unwrap(),
            None,
        ),
        Some(plan) => {
            let r = engine
                .run_prepared_faulted_with(&prep, case.bytes, scratch, plan, obs)
                .unwrap();
            (r.report, Some(r.faults))
        }
    };
    (
        fingerprint(&report, faults.as_ref()),
        report.sim.completion_ns,
    )
}

/// Every run of the corpus as `(label, fingerprint)` pairs: each case
/// healthy, then under each of its fault plans, all observed by a fresh
/// `obs()`.
pub fn run_corpus<O: SimObserver>(mut obs: impl FnMut() -> O) -> Vec<(String, String)> {
    let mut scratch = SimScratch::new();
    let mut out = Vec::new();
    for case in cases() {
        let (healthy, healthy_ns) = run_case(&case, None, &mut scratch, &mut obs());
        out.push((format!("{}/healthy", case.name), healthy));
        for (plan_name, plan) in fault_plans(&case, healthy_ns) {
            let (fp, _) = run_case(&case, Some(&plan), &mut scratch, &mut obs());
            out.push((format!("{}/{plan_name}", case.name), fp));
        }
    }
    out
}
