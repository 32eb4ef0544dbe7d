//! The traced run: where a request's time goes, layer by layer.
//!
//! Spans are recorded only around calls this benchmark makes into each
//! layer's public functions; nothing inside the daemon is instrumented,
//! and no end-to-end number comes from a traced run. Three passes replay
//! the same requests (the warm set, then the first N stream requests)
//! one at a time, taking turns request by request so drift in the
//! machine's background load reaches all three alike, each on a cache
//! large enough never to evict:
//!
//! 1. `ServeState::handle` on a fresh in-process state: the busy time
//!    the layer self times must add back up to.
//! 2. The traced pass, on pass 1's cache so its resolves are hits: parse,
//!    key, on a key's first use the compile steps the cache runs
//!    (topology build, construction or repair, verify, prepare), the
//!    cache resolve, the engine run on the resolved view, the response
//!    and its encoding.
//! 3. Synchronous round trips through a fresh daemon, for the transport
//!    and queueing overhead around `handle`.
//!
//! All three must produce the same simulated fields.

use crate::check::{self, Sim};
use crate::load::{self, Conn};
use crate::stats::median;
use crate::workload::{encode, Stream, Workload};
use mt_netsim::cycle::CycleEngine;
use mt_netsim::flow::FlowEngine;
use mt_netsim::{NetworkConfig, NoopObserver, SimScratch};
use mt_serve::{
    Daemon, EngineSpec, FaultKey, Request, Response, RunRequest, RunResponse, ScheduleKey,
    ServeConfig, ServeState,
};
use mt_topology::{LinkId, NodeId};
use multitree::algorithms::{repair_multitree, RepairStrategy};
use multitree::verify::verify_schedule;
use multitree::PreparedData;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Serialize)]
pub struct Span {
    pub workload: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The layers spans are attributed to, named after the modules they
/// call into. A span belongs to the layer its name starts with.
const LAYERS: [&str; 12] = [
    "serve.protocol",
    "serve.key",
    "serve.cache",
    "serve.pool",
    "topology",
    "core.construct",
    "core.verify",
    "core.prepared",
    "core.repair",
    "netsim.flow",
    "netsim.cycle",
    "netsim.fault",
];

/// Algorithms whose construction time is reported on its own.
const ALGORITHMS: [&str; 8] = [
    "MULTITREE",
    "MULTITREE-BW",
    "MULTITREE-HIER",
    "2DRING",
    "RING",
    "HD",
    "HDRM",
    "DBTREE",
];

fn layer_of(name: &str) -> Option<&'static str> {
    LAYERS.into_iter().find(|l| {
        name.strip_prefix(l)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
    })
}

struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Span ids are indices into `spans`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            workload: self.workload,
            id: idx as u64,
            parent: self.open.last().map(|&p| p as u64),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }
}

/// Work counts gathered next to the spans.
#[derive(Default)]
struct Work {
    flow_events: u64,
    cycles: u64,
    repairs: BTreeMap<&'static str, u64>,
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The compile the cache performs on a miss, one span per step.
fn compile(
    tr: &mut Tracer,
    state: &ServeState,
    run: &RunRequest,
    faults: &FaultKey,
    work: &mut Work,
) -> Result<(), String> {
    if faults.is_healthy() {
        let topo = tr
            .span("topology.build", |_| run.topology.build())
            .map_err(text)?;
        let (topo, schedule) = match run.algorithm.multitree() {
            // the cache keeps the forest and lowers it through an empty
            // repair, the path later fault deltas re-enter
            Some(mt) => {
                let r = tr
                    .span("core.construct", |_| {
                        let forest = mt.construct_forest(&topo)?;
                        repair_multitree(&mt, &topo, &forest, &[], &[])
                    })
                    .map_err(text)?;
                (r.topology, r.schedule)
            }
            None => {
                let s = tr
                    .span("core.construct", |_| run.algorithm.build(&topo))
                    .map_err(text)?;
                tr.span("core.verify", |_| verify_schedule(&s))
                    .map_err(text)?;
                (topo, s)
            }
        };
        tr.span("core.prepared", |_| PreparedData::compute(&schedule, &topo))
            .map_err(text)?;
        return Ok(());
    }
    let mt = run
        .algorithm
        .multitree()
        .ok_or_else(|| format!("{} deltas are not generated", run.algorithm.name()))?;
    let (base, _) = tr.span("serve.cache.resolve", |_| {
        state.cache.resolve(
            &run.topology.canonicalized(),
            run.algorithm,
            FaultKey::default(),
        )
    })?;
    let forest = base
        .forest
        .as_ref()
        .ok_or("healthy base entry has no forest")?;
    let dead_links: Vec<LinkId> = faults.dead_links.iter().map(|&l| LinkId::new(l)).collect();
    let dead_nodes: Vec<NodeId> = faults.dead_nodes.iter().map(|&n| NodeId::new(n)).collect();
    let r = tr
        .span("core.repair", |_| {
            repair_multitree(&mt, &base.topology, forest, &dead_links, &dead_nodes)
        })
        .map_err(text)?;
    let strategy = match r.report.strategy {
        RepairStrategy::Incremental => "incremental",
        RepairStrategy::FullRebuild => "full_rebuild",
        RepairStrategy::SurvivorSubset => "survivor_subset",
    };
    *work.repairs.entry(strategy).or_default() += 1;
    tr.span("core.prepared", |_| {
        PreparedData::compute(&r.schedule, &r.topology)
    })
    .map_err(text)?;
    Ok(())
}

/// Pass 2: one request, every layer call wrapped in a span.
#[allow(clippy::too_many_arguments)]
fn traced_request(
    tr: &mut Tracer,
    state: &ServeState,
    seen: &mut HashSet<ScheduleKey>,
    line: &str,
    net: NetworkConfig,
    scratch: &mut SimScratch,
    work: &mut Work,
) -> Result<Sim, String> {
    tr.span("request", |tr| {
        let request = tr
            .span("serve.protocol.parse", |_| {
                serde_json::from_str::<Request>(line)
            })
            .map_err(text)?;
        let Request::Run(run) = request else {
            return Err("the trace replays only runs".into());
        };
        let key = tr.span("serve.key.build", |_| {
            ScheduleKey::new(&run.topology, run.algorithm, run.faults.as_ref())
        });
        let faults = run.faults.as_ref().map(FaultKey::of).unwrap_or_default();
        if seen.insert(key.clone()) {
            compile(tr, state, &run, &faults, work)?;
        }
        let (entry, _) = tr.span("serve.cache.resolve", |_| {
            state
                .cache
                .resolve(&run.topology.canonicalized(), run.algorithm, faults)
        })?;
        let prep = entry.prepared();
        let (payload, obs) = (run.payload_bytes, &mut NoopObserver);
        let sim = match (run.engine, check::runtime_plan(&run)) {
            (EngineSpec::Flow, None) => {
                let r = tr
                    .span("netsim.flow", |_| {
                        FlowEngine::new(net).run_prepared_with(&prep, payload, scratch, obs)
                    })
                    .map_err(text)?;
                work.flow_events += prep.num_events() as u64;
                Sim::healthy(&r)
            }
            (EngineSpec::Cycle, None) => {
                let r = tr
                    .span("netsim.cycle", |_| {
                        CycleEngine::new(net).run_prepared_with(&prep, payload, scratch, obs)
                    })
                    .map_err(text)?;
                work.cycles += r.cycles().unwrap_or(0);
                Sim::healthy(&r)
            }
            (engine, Some(plan)) => {
                let r = tr
                    .span("netsim.fault", |_| match engine {
                        EngineSpec::Flow => FlowEngine::new(net)
                            .run_prepared_faulted_with(&prep, payload, scratch, &plan, obs),
                        EngineSpec::Cycle => CycleEngine::new(net)
                            .run_prepared_faulted_with(&prep, payload, scratch, &plan, obs),
                    })
                    .map_err(text)?;
                Sim::faulted(&r)
            }
        };
        let response = tr.span("serve.pool.respond", |_| {
            Response::Run(RunResponse {
                key: key.digest(),
                provenance: format!("{:?}", entry.provenance),
                verified: entry.verified,
                completion_ns: sim.completion_ns,
                delivered: sim.delivered,
                messages: sim.messages,
                flits_sent: sim.flits_sent,
                stalled: sim.stalled,
                batch: 1,
            })
        });
        tr.span("serve.protocol.encode", |_| {
            serde_json::to_string(&response)
        })
        .map_err(text)?;
        Ok(sim)
    })
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays the warm set and the first `w.trace_requests()` stream
/// requests through the three passes. Returns the per-layer metrics by
/// name (the caller adds the daemon-counter ones) and the spans.
pub fn run(
    w: Workload,
    stream: &Stream,
    net: NetworkConfig,
) -> Result<(BTreeMap<String, f64>, Vec<Span>), String> {
    let requests: Vec<RunRequest> = stream
        .warm()
        .into_iter()
        .chain((0..w.trace_requests() as u64).map(|i| stream.request(i)))
        .collect();
    let lines: Vec<Vec<u8>> = requests.iter().map(encode).collect();
    let config = ServeConfig {
        cache_bytes: usize::MAX,
        ..load::config(w)
    };
    let mismatch = |pass: &str, i: usize, got: Sim, want: Sim| {
        format!("trace request {i}: {pass} gave {got:?}, handle gave {want:?}")
    };

    let state = ServeState::new(config);
    let daemon = Daemon::spawn("127.0.0.1:0", config).map_err(|e| format!("spawn daemon: {e}"))?;
    let mut conn = Conn::connect(daemon.addr())?;
    let mut tr = Tracer {
        workload: w.name(),
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    };
    let (mut work, mut seen, mut scratch) = (Work::default(), HashSet::new(), SimScratch::new());
    let mut handle_us = Vec::with_capacity(requests.len());
    let mut rtt_us = Vec::with_capacity(requests.len());
    for (i, (req, line)) in requests.iter().zip(&lines).enumerate() {
        let request = Request::Run(req.clone());
        let t = Instant::now();
        let resp = state.handle(&request, &mut scratch);
        handle_us.push(us(t));
        let want = Sim::of(check::reply(&resp)?);

        tr.request = i as u64;
        let text = std::str::from_utf8(line)
            .expect("encoded lines are UTF-8")
            .trim_end();
        let sim = traced_request(
            &mut tr,
            &state,
            &mut seen,
            text,
            net,
            &mut scratch,
            &mut work,
        )?;
        if sim != want {
            return Err(mismatch("the traced library path", i, sim, want));
        }

        let t = Instant::now();
        let resp = conn.round_trip(line)?;
        rtt_us.push(us(t));
        let sim = Sim::of(check::reply(&resp)?);
        if sim != want {
            return Err(mismatch("the daemon", i, sim, want));
        }
    }
    drop(conn);
    drop(daemon);

    let algo_of: Vec<&str> = requests.iter().map(|r| r.algorithm.name()).collect();
    Ok((
        metrics(&tr.spans, &work, &algo_of, &handle_us, &rtt_us),
        tr.spans,
    ))
}

fn metrics(
    spans: &[Span],
    work: &Work,
    algo_of: &[&str],
    handle_us: &[f64],
    rtt_us: &[f64],
) -> BTreeMap<String, f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut self_ns: BTreeMap<&str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    let mut ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut construct_by_algo: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&covered) {
        let d = s.end_ns - s.start_ns;
        ms.entry(s.name).or_default().push(d as f64 / 1e6);
        if s.name == "core.construct" {
            construct_by_algo
                .entry(algo_of[s.request as usize])
                .or_default()
                .push(d as f64 / 1e6);
        }
        if let Some(layer) = layer_of(s.name) {
            *self_ns.get_mut(layer).expect("every layer is listed") += d - covered;
        }
    }
    let durations = |name: &str| ms.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let p50_ms = |name: &str| median(durations(name));
    let busy_ms = |layer: &str| self_ns[layer] as f64 / 1e6;
    let handle_ns: f64 = handle_us.iter().sum::<f64>() * 1e3;
    let rtt_ns: f64 = rtt_us.iter().sum::<f64>() * 1e3;
    // everything except parse and encode happens inside `handle`
    let in_handle: u64 = self_ns
        .iter()
        .filter(|(l, _)| **l != "serve.protocol")
        .map(|(_, &ns)| ns)
        .sum();
    let overhead: Vec<f64> = rtt_us.iter().zip(handle_us).map(|(r, h)| r - h).collect();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("serve.daemon.rtt_us_p50", median(rtt_us));
    put("serve.daemon.overhead_us_p50", median(&overhead));
    put(
        "serve.protocol.parse_us_p50",
        p50_ms("serve.protocol.parse") * 1e3,
    );
    put(
        "serve.protocol.encode_us_p50",
        p50_ms("serve.protocol.encode") * 1e3,
    );
    put("serve.key.build_us_p50", p50_ms("serve.key.build") * 1e3);
    put(
        "serve.cache.hit_us_p50",
        p50_ms("serve.cache.resolve") * 1e3,
    );
    put("topology.build_ms_p50", p50_ms("topology.build"));
    put("topology.busy_ms", busy_ms("topology"));
    for layer in [
        "core.construct",
        "core.verify",
        "core.prepared",
        "core.repair",
    ] {
        put(&format!("{layer}.ms_p50"), p50_ms(layer));
        put(&format!("{layer}.busy_ms"), busy_ms(layer));
    }
    for algo in ALGORITHMS {
        let v = construct_by_algo
            .get(algo)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        put(&format!("core.construct.{algo}.ms_p50"), median(v));
    }
    for strategy in ["incremental", "full_rebuild", "survivor_subset"] {
        put(
            &format!("core.repair.{strategy}"),
            work.repairs.get(strategy).copied().unwrap_or(0) as f64,
        );
    }
    let flow_ns = self_ns["netsim.flow"];
    let cycle_ns = self_ns["netsim.cycle"];
    put("netsim.flow.runs", durations("netsim.flow").len() as f64);
    put("netsim.flow.busy_ms", busy_ms("netsim.flow"));
    put(
        "netsim.flow.ns_per_event",
        per(flow_ns as f64, work.flow_events),
    );
    put("netsim.cycle.runs", durations("netsim.cycle").len() as f64);
    put("netsim.cycle.busy_ms", busy_ms("netsim.cycle"));
    put(
        "netsim.cycle.ns_per_cycle",
        per(cycle_ns as f64, work.cycles),
    );
    put("netsim.fault.runs", durations("netsim.fault").len() as f64);
    put("netsim.fault.ms_p50", p50_ms("netsim.fault"));
    for layer in LAYERS {
        put(&format!("share.{layer}"), self_ns[layer] as f64 / handle_ns);
    }
    put("share.handle_of_rtt", handle_ns / rtt_ns);
    put(
        "trace.reconcile_error",
        (in_handle as f64 - handle_ns).abs() / handle_ns,
    );
    m
}

/// Appends `spans` to `path` as NDJSON, one span per line.
pub fn write_spans(path: &str, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let line = serde_json::to_string(s).map_err(text)?;
        writeln!(out, "{line}").map_err(|e| format!("write {path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_map_to_their_layers() {
        assert_eq!(layer_of("serve.protocol.parse"), Some("serve.protocol"));
        assert_eq!(layer_of("serve.cache.resolve"), Some("serve.cache"));
        assert_eq!(layer_of("core.construct"), Some("core.construct"));
        assert_eq!(layer_of("request"), None);
        assert_eq!(layer_of("core.constructs"), None);
    }
}
