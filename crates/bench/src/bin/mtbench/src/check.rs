//! The correctness gate: every reply must be a verified run that
//! delivered its whole schedule, and a fixed verification set replayed
//! through the daemon must match, field for field, the same requests run
//! through the library directly.

use crate::load::Conn;
use crate::stats::Fnv;
use crate::workload::encode;
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{
    EngineReport, FaultEvent, FaultPlan, FaultedRun, NetworkConfig, NoopObserver, SimScratch,
};
use mt_serve::{EngineSpec, FaultKey, Response, RunRequest, RunResponse, ScheduleKey};
use mt_topology::{LinkId, NodeId, Topology};
use multitree::algorithms::repair_multitree;
use multitree::{CommSchedule, PreparedData, PreparedSchedule};
use std::collections::HashMap;

/// Requests in the verification set replayed after each window.
pub const VERIFY_REQUESTS: u64 = 32;

/// Accepts a reply only if it is a run on a verified schedule that
/// delivered every message without stalling.
pub fn reply(resp: &Response) -> Result<&RunResponse, String> {
    let Response::Run(run) = resp else {
        return Err(format!("not a run: {resp:?}"));
    };
    if !run.verified {
        return Err(format!("unverified schedule {}", run.key));
    }
    if run.stalled || run.delivered != run.messages {
        return Err(format!(
            "key {} delivered {}/{} (stalled: {})",
            run.key, run.delivered, run.messages, run.stalled
        ));
    }
    Ok(run)
}

/// The simulated fields of a run: identical however the run was served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub completion_ns: f64,
    pub messages: u64,
    pub flits_sent: u64,
    pub delivered: u64,
    pub stalled: bool,
}

impl Sim {
    pub fn of(run: &RunResponse) -> Sim {
        Sim {
            completion_ns: run.completion_ns,
            messages: run.messages,
            flits_sent: run.flits_sent,
            delivered: run.delivered,
            stalled: run.stalled,
        }
    }

    /// A healthy engine run delivers every message it simulates.
    pub fn healthy(r: &EngineReport) -> Sim {
        let m = r.sim.messages as u64;
        Sim {
            completion_ns: r.sim.completion_ns,
            messages: m,
            flits_sent: r.sim.flits_sent,
            delivered: m,
            stalled: false,
        }
    }

    pub fn faulted(r: &FaultedRun) -> Sim {
        Sim {
            completion_ns: r.report.sim.completion_ns,
            messages: r.faults.total as u64,
            flits_sent: r.report.sim.flits_sent,
            delivered: r.faults.delivered as u64,
            stalled: r.faults.stalled,
        }
    }

    pub fn digest_into(&self, h: &mut Fnv) {
        h.word(self.completion_ns.to_bits());
        h.word(self.messages);
        h.word(self.flits_sent);
        h.word(self.delivered);
        h.word(u64::from(self.stalled));
    }
}

/// The flaps and degrades of a request's plan: what the engines see at
/// run time (permanent deaths are baked into the compiled schedule).
pub fn runtime_plan(req: &RunRequest) -> Option<FaultPlan> {
    let plan = req.faults.as_ref()?;
    let events: Vec<FaultEvent> = plan
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FaultEvent::LinkFlap { .. } | FaultEvent::LinkDegrade { .. }
            )
        })
        .cloned()
        .collect();
    (!events.is_empty()).then_some(FaultPlan {
        events,
        detect_window_ns: plan.detect_window_ns,
    })
}

/// Runs `req` through the library alone: build the topology, build the
/// algorithm (or, for a fault delta, construct the forest and repair
/// it), prepare, and call the engine.
pub struct Reference {
    net: NetworkConfig,
    compiled: HashMap<ScheduleKey, (Topology, CommSchedule, PreparedData)>,
    scratch: SimScratch,
}

impl Reference {
    pub fn new(net: NetworkConfig) -> Reference {
        Reference {
            net,
            compiled: HashMap::new(),
            scratch: SimScratch::new(),
        }
    }

    pub fn run(&mut self, req: &RunRequest) -> Result<Sim, String> {
        let key = ScheduleKey::new(&req.topology, req.algorithm, req.faults.as_ref());
        if !self.compiled.contains_key(&key) {
            let (topo, schedule) = compile(req)?;
            let data = PreparedData::compute(&schedule, &topo).map_err(|e| e.to_string())?;
            self.compiled.insert(key.clone(), (topo, schedule, data));
        }
        let (topo, schedule, data) = &self.compiled[&key];
        let prep = PreparedSchedule::from_parts(schedule, topo, data);
        let (payload, obs) = (req.payload_bytes, &mut NoopObserver);
        let scratch = &mut self.scratch;
        let sim =
            match runtime_plan(req) {
                Some(plan) => Sim::faulted(
                    &match req.engine {
                        EngineSpec::Flow => FlowEngine::new(self.net)
                            .run_prepared_faulted_with(&prep, payload, scratch, &plan, obs),
                        EngineSpec::Cycle => CycleEngine::new(self.net)
                            .run_prepared_faulted_with(&prep, payload, scratch, &plan, obs),
                    }
                    .map_err(|e| e.to_string())?,
                ),
                None => Sim::healthy(
                    &match req.engine {
                        EngineSpec::Flow => FlowEngine::new(self.net)
                            .run_prepared_with(&prep, payload, scratch, obs),
                        EngineSpec::Cycle => CycleEngine::new(self.net)
                            .run_prepared_with(&prep, payload, scratch, obs),
                    }
                    .map_err(|e| e.to_string())?,
                ),
            };
        Ok(sim)
    }
}

fn compile(req: &RunRequest) -> Result<(Topology, CommSchedule), String> {
    let topo = req.topology.build().map_err(|e| e.to_string())?;
    let faults = req.faults.as_ref().map(FaultKey::of).unwrap_or_default();
    if faults.is_healthy() {
        let schedule = req.algorithm.build(&topo).map_err(|e| e.to_string())?;
        return Ok((topo, schedule));
    }
    let mt = req
        .algorithm
        .multitree()
        .ok_or_else(|| format!("{} deltas are not generated", req.algorithm.name()))?;
    let forest = mt.construct_forest(&topo).map_err(|e| e.to_string())?;
    let dead_links: Vec<LinkId> = faults.dead_links.iter().map(|&l| LinkId::new(l)).collect();
    let dead_nodes: Vec<NodeId> = faults.dead_nodes.iter().map(|&n| NodeId::new(n)).collect();
    let r = repair_multitree(&mt, &topo, &forest, &dead_links, &dead_nodes)
        .map_err(|e| e.to_string())?;
    Ok((r.topology, r.schedule))
}

/// Replays `set` one request at a time through `conn` and through the
/// library, and returns the FNV digest of the daemon's simulated fields
/// (a function of the seed alone), or the first mismatch.
pub fn gate(conn: &mut Conn, set: &[RunRequest], net: NetworkConfig) -> Result<String, String> {
    let mut reference = Reference::new(net);
    let mut digest = Fnv::new();
    for (i, req) in set.iter().enumerate() {
        let resp = conn.round_trip(&encode(req))?;
        let served = Sim::of(reply(&resp).map_err(|e| format!("verification request {i}: {e}"))?);
        let want = reference.run(req)?;
        if served != want {
            return Err(format!(
                "verification request {i} ({} {:?}): daemon {served:?} != library {want:?}",
                req.algorithm.name(),
                req.topology
            ));
        }
        served.digest_into(&mut digest);
    }
    Ok(digest.hex())
}
