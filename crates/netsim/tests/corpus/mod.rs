//! The engines' golden corpus, shared by the golden pins
//! (`crates/netsim/tests/golden_reports.rs` for the cycle engine,
//! `crates/netsim/tests/flow_golden_reports.rs` for the flow engine) and
//! the dense-reference differential (`tests/prepared_equivalence.rs`,
//! which includes this file by path).
//!
//! Every case is one (topology, schedule, configuration, payload) cell;
//! every cell runs healthy and under four fault plans. A run is reduced
//! to a one-line fingerprint holding every `SimReport` field, the cycle
//! detail and the `FaultReport`, with each `f64` written as its raw bits,
//! so two fingerprints are equal exactly when the runs are bit-identical.
//! A flow-engine fingerprint also carries an FNV-1a hash of the observer
//! stream the run emitted.

#![allow(dead_code)] // each including test crate uses a different subset

use mt_netsim::{
    cycle::CycleEngine, flow::FlowEngine, EngineDetail, EngineReport, FaultPlan, FaultReport,
    NetworkConfig, SimObserver, SimReport, SimScratch,
};
use mt_topology::{LinkId, NodeId, Topology};
use multitree::algorithms::{AllReduce, DbTree, HierarchicalMultiTree, MultiTree, Ring, Ring2D};
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
    to_cases(cells)
}

/// Names each `(cell, topology, schedule, configuration name,
/// configuration, payload)` row and turns it into a [`Case`].
fn to_cases(cells: Vec<(&str, &Topology, &CommSchedule, &str, NetworkConfig, u64)>) -> Vec<Case> {
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
    let mut line = format!(
        "bytes={total_bytes} completion={:#018x} flits={flits_sent} heads={head_flits} \
         msgs={messages} flit_hops={flit_hops} head_hops={head_flit_hops} \
         links={links_used}/{total_links} busy={:#018x}",
        completion_ns.to_bits(),
        busy_ns.to_bits(),
    );
    if let EngineDetail::Cycle {
        cycles,
        max_buffer_occupancy,
    } = report.detail
    {
        line += &format!(" cycles={cycles} maxbuf={max_buffer_occupancy}");
    }
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

/// A torus whose every link runs at a rate drawn from 500/997–996/997 of
/// the base bandwidth (a fixed hash of the link index), so almost no two
/// transfers finish at the same time: the tie-poor case for the flow
/// engine's ready queue.
pub fn ragged(topo: &Topology) -> Topology {
    let rates: Vec<(LinkId, u32, u32)> = (0..topo.num_links())
        .map(|l| {
            let h = (l as u64 ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (LinkId::new(l), 500 + ((h >> 33) % 497) as u32, 997)
        })
        .collect();
    topo.with_link_rates(&rates).expect("valid re-rating")
}

/// The flow engine's corpus: every cell of [`cases`], then cells for the
/// configuration knobs only the flow engine models differently (a fixed
/// lockstep interval, software launch overhead) and a ragged-rate torus.
pub fn flow_cases() -> Vec<Case> {
    let torus = Topology::torus(4, 4);
    let torus_mt = MultiTree::default().build(&torus).unwrap();
    let torus8 = Topology::torus(8, 8);
    let ring2d = Ring2D.build(&torus8).unwrap();
    let ragged8 = ragged(&torus8);
    let ring8 = Ring.build(&torus8).unwrap();
    let mt8 = MultiTree::default().build(&torus8).unwrap();
    let interval = NetworkConfig {
        lockstep_interval_ns: Some(1500.0),
        ..NetworkConfig::paper_default()
    };
    let sw = NetworkConfig {
        sw_launch_overhead_ns: 250.0,
        ..NetworkConfig::paper_default()
    };
    let packet = NetworkConfig::paper_default;
    #[rustfmt::skip]
    let cells: Vec<(&str, &Topology, &CommSchedule, &str, NetworkConfig, u64)> = vec![
        ("torus4x4/multitree", &torus, &torus_mt, "lockstep-interval", interval, 32 << 10),
        ("torus4x4/multitree", &torus, &torus_mt, "sw-launch", sw, 32 << 10),
        ("torus8x8/2dring", &torus8, &ring2d, "lockstep-off", lockstep_off(), 16 << 10),
        ("torus8x8/2dring", &torus8, &ring2d, "sw-launch", sw, 16 << 10),
        ("ragged-torus8x8/ring", &ragged8, &ring8, "packet", packet(), 64 << 10),
        ("ragged-torus8x8/2dring", &ragged8, &ring2d, "packet", packet(), 64 << 10),
        ("ragged-torus8x8/multitree", &ragged8, &mt8, "message", NetworkConfig::paper_message_based(), 64 << 10),
    ];
    let mut out = cases();
    out.extend(to_cases(cells));
    out
}

/// The flow keys the `mtbench` `engine-sweep` workload serves, at 1 MiB on
/// the daemon's configuration: MULTITREE and 2D-RING on the 16x16 torus
/// and MULTITREE-HIER on the 32x32 torus; then RING on a ragged-rate
/// 16x16 torus, whose start times almost never tie. Run healthy only.
pub fn flow_sweep_keys() -> Vec<Case> {
    let t16 = Topology::torus(16, 16);
    let t32 = Topology::torus(32, 32);
    let ragged16 = ragged(&t16);
    let cells: [(&str, &Topology, CommSchedule); 4] = [
        (
            "torus16x16/multitree",
            &t16,
            MultiTree::default().build(&t16).unwrap(),
        ),
        ("torus16x16/2dring", &t16, Ring2D.build(&t16).unwrap()),
        (
            "torus32x32/multitree-hier",
            &t32,
            HierarchicalMultiTree::default().build(&t32).unwrap(),
        ),
        (
            "ragged-torus16x16/ring",
            &ragged16,
            Ring.build(&t16).unwrap(),
        ),
    ];
    cells
        .into_iter()
        .map(|(cell, topo, schedule)| Case {
            name: format!("{cell}/packet/1024KiB"),
            topo: topo.clone(),
            schedule,
            cfg: NetworkConfig::paper_default(),
            bytes: 1 << 20,
        })
        .collect()
}

/// An observer folding every flow-engine and fault hook, arguments and
/// all, into one FNV-1a hash: two runs hash equal exactly when they emit
/// the same stream (up to hash collisions).
pub struct FlowStream {
    pub hash: u64,
}

impl Default for FlowStream {
    fn default() -> Self {
        FlowStream {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl FlowStream {
    fn mix(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

impl SimObserver for FlowStream {
    fn on_flow_event_start(&mut self, start_ns: f64, event: u32, step: u32) {
        self.mix(&[1, start_ns.to_bits(), u64::from(event), u64::from(step)]);
    }
    fn on_flow_event_finish(&mut self, delivery_ns: f64, event: u32, step: u32) {
        self.mix(&[2, delivery_ns.to_bits(), u64::from(event), u64::from(step)]);
    }
    fn on_flow_link_busy(&mut self, link: u32, start_ns: f64, busy_ns: f64) {
        self.mix(&[3, u64::from(link), start_ns.to_bits(), busy_ns.to_bits()]);
    }
    fn on_fault_injected(&mut self, at_ns: f64, fault: u32) {
        self.mix(&[4, at_ns.to_bits(), u64::from(fault)]);
    }
    fn on_timeout_fired(&mut self, at_ns: f64, node: u32, step: u32) {
        self.mix(&[5, at_ns.to_bits(), u64::from(node), u64::from(step)]);
    }
}

/// Runs `case` on the flow engine, healthy (`plan == None`) or under
/// `plan`; returns the run's fingerprint, with the observer stream's hash
/// appended, and its completion time.
pub fn run_flow_case(
    case: &Case,
    plan: Option<&FaultPlan>,
    scratch: &mut SimScratch,
) -> (String, f64) {
    let engine = FlowEngine::new(case.cfg);
    let prep = PreparedSchedule::new(&case.schedule, &case.topo).unwrap();
    let mut obs = FlowStream::default();
    let (report, faults) = match plan {
        None => (
            engine
                .run_prepared_with(&prep, case.bytes, scratch, &mut obs)
                .unwrap(),
            None,
        ),
        Some(plan) => {
            let r = engine
                .run_prepared_faulted_with(&prep, case.bytes, scratch, plan, &mut obs)
                .unwrap();
            (r.report, Some(r.faults))
        }
    };
    (
        format!(
            "{} | stream={:#018x}",
            fingerprint(&report, faults.as_ref()),
            obs.hash
        ),
        report.sim.completion_ns,
    )
}

/// Every flow run as `(label, fingerprint)` pairs: each [`flow_cases`]
/// cell healthy, then under each of its fault plans, then each
/// [`flow_sweep_keys`] key healthy.
pub fn run_flow_corpus() -> Vec<(String, String)> {
    let mut scratch = SimScratch::new();
    let mut out = Vec::new();
    for case in flow_cases() {
        let (healthy, healthy_ns) = run_flow_case(&case, None, &mut scratch);
        out.push((format!("{}/healthy", case.name), healthy));
        for (plan_name, plan) in fault_plans(&case, healthy_ns) {
            let (fp, _) = run_flow_case(&case, Some(&plan), &mut scratch);
            out.push((format!("{}/{plan_name}", case.name), fp));
        }
    }
    for case in flow_sweep_keys() {
        let (fp, _) = run_flow_case(&case, None, &mut scratch);
        out.push((format!("{}/healthy", case.name), fp));
    }
    out
}
