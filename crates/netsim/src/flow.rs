//! Fast flow-level network engine.
//!
//! Models every scheduled transfer as a pipelined cut-through
//! serialization over its physical link path: the head flit advances one
//! link latency per hop while the body streams behind at link bandwidth;
//! a link serves transfers in the order they become ready (FIFO
//! contention, the behaviour of a congested router output). This captures
//! exactly the effects the paper's conclusions rest on — per-step
//! serialization, hop latency and link contention — at a tiny fraction of
//! the flit-level cost, and is cross-validated against the [`crate::cycle`]
//! engine in the integration tests.
//!
//! One approximation: a transfer's upstream links are released after
//! their own serialization even when a downstream link stalls; the 318
//! flit VC buffers of the paper's configuration absorb precisely this
//! kind of skid, so the approximation is faithful for schedules without
//! pathological multi-hop pile-ups and slightly optimistic for heavily
//! contended ones (it *under*-penalizes DBTree, the paper's congested
//! baseline, making our comparisons conservative).

use crate::config::NetworkConfig;
use crate::fault::{CompiledFaults, FaultEvent, FaultPlan, FaultReport, FaultedRun, NO_FAULTS};
use crate::flowctrl::{frame_message, Framing};
use crate::observer::{NoopObserver, ObservedEngine, RunInfo, SimObserver};
use crate::report::{EngineDetail, EngineReport, SimReport};
use crate::scratch::{reset_to, FlowState, Key, SimScratch};
use crate::Engine;
use multitree::{AlgorithmError, CommSchedule, PreparedSchedule};
use mt_topology::Topology;

/// The flow-level engine. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FlowEngine {
    cfg: NetworkConfig,
}

impl FlowEngine {
    /// Creates an engine with the given network configuration.
    pub fn new(cfg: NetworkConfig) -> Self {
        FlowEngine { cfg }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The unified entry point: executes an already-prepared schedule,
    /// reusing `scratch`'s buffers and streaming telemetry into `obs`.
    ///
    /// The fast path for sweeps: validation, routing and
    /// dependency-graph construction happened once in
    /// [`PreparedSchedule::new`], and with [`NoopObserver`] a run
    /// allocates nothing beyond what `scratch` doesn't already hold and
    /// produces bit-identical results to [`Engine::run`].
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if the simulation
    /// deadlocks (a dependency cycle hidden from static validation), and
    /// [`AlgorithmError::PayloadTooLarge`] if a byte or flit count of the
    /// run overflows `u64`.
    pub fn run_prepared_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<EngineReport, AlgorithmError> {
        let (sim, _) = self.run_prepared_impl::<O, false>(
            prep,
            total_bytes,
            scratch,
            obs,
            &NO_FAULTS,
            &[],
        )?;
        Ok(EngineReport {
            sim,
            detail: EngineDetail::Flow,
        })
    }

    /// Executes an already-prepared schedule once per payload size in
    /// `payloads` — the serving daemon's coalesced-batch hot path, and
    /// the in-process shape of a fig9/fig10-style payload ladder.
    ///
    /// Everything payload-independent is paid once for the whole sweep:
    /// the prepared execution-order arrays are indexed from one borrow
    /// and `scratch` stays warm between runs; each run pays only its
    /// fill pass and its event loop. Per-payload reports are
    /// byte-identical to N independent [`FlowEngine::run_prepared_with`]
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if a run deadlocks
    /// and [`AlgorithmError::PayloadTooLarge`] if a payload overflows a
    /// byte or flit count; payloads after the failing one are not
    /// attempted.
    pub fn run_prepared_batch_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        payloads: &[u64],
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<Vec<EngineReport>, AlgorithmError> {
        payloads
            .iter()
            .map(|&total_bytes| self.run_prepared_with(prep, total_bytes, scratch, obs))
            .collect()
    }

    /// Executes a prepared schedule under a [`FaultPlan`]: links die,
    /// flap or degrade and hosts crash at the planned times while the
    /// schedule runs. Unlike the healthy entry points, an incomplete run
    /// is not an error — the NI watchdog converts the would-be hang into
    /// a stalled [`FaultReport`] (timing out `detect_window_ns` after the
    /// last delivery progress), so callers can measure *how far* a
    /// schedule gets and hand the dead-link set to
    /// `algorithms::repair`.
    ///
    /// An empty plan reproduces [`FlowEngine::run_prepared_with`]
    /// bit-for-bit. Fault queries are monomorphized in (the healthy
    /// entry points compile them out entirely).
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::InvalidFaultPlan`] if the plan
    /// references links/nodes outside the topology, and
    /// [`AlgorithmError::MalformedSchedule`] for schedules that are
    /// structurally broken independent of the faults.
    /// Returns [`AlgorithmError::PayloadTooLarge`] if a byte or flit
    /// count of the run overflows `u64`.
    pub fn run_prepared_faulted_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        plan: &FaultPlan,
        obs: &mut O,
    ) -> Result<FaultedRun, AlgorithmError> {
        let topo = prep.topology();
        let faults = plan.compile(topo.num_links(), topo.num_nodes())?;
        let fault_times: Vec<f64> = plan.events.iter().map(FaultEvent::time_ns).collect();
        let (sim, fr) = self.run_prepared_impl::<O, true>(
            prep,
            total_bytes,
            scratch,
            obs,
            &faults,
            &fault_times,
        )?;
        Ok(FaultedRun {
            report: EngineReport {
                sim,
                detail: EngineDetail::Flow,
            },
            faults: fr.expect("faulted runs always produce a fault report"),
        })
    }
}

impl Engine for FlowEngine {
    fn run(
        &self,
        topo: &Topology,
        schedule: &CommSchedule,
        total_bytes: u64,
    ) -> Result<SimReport, AlgorithmError> {
        let prep = PreparedSchedule::new(schedule, topo)?;
        let mut scratch = SimScratch::new();
        self.run_prepared_impl::<_, false>(&prep, total_bytes, &mut scratch, &mut NoopObserver, &NO_FAULTS, &[])
            .map(|(sim, _)| sim)
    }
}

/// The run's flit totals, summed over every event with overflow checks.
#[derive(Debug, Default, Clone, Copy)]
struct FlitTotals {
    flits: u64,
    heads: u64,
    flit_hops: u64,
    head_hops: u64,
}

impl FlitTotals {
    /// Adds one event's flits, or returns `None` when a total overflows
    /// `u64`.
    fn add(&mut self, framing: Framing, hops: usize) -> Option<()> {
        let hops = hops as u64;
        let flits = framing.head_flits.checked_add(framing.data_flits)?;
        self.flits = self.flits.checked_add(flits)?;
        self.heads = self.heads.checked_add(framing.head_flits)?;
        self.flit_hops = self.flit_hops.checked_add(flits.checked_mul(hops)?)?;
        self.head_hops = self
            .head_hops
            .checked_add(framing.head_flits.checked_mul(hops)?)?;
        Some(())
    }

    /// Removes one event's flits, already added by [`FlitTotals::add`].
    fn remove(&mut self, framing: Framing, hops: usize) {
        let hops = hops as u64;
        let flits = framing.total_flits();
        self.flits -= flits;
        self.heads -= framing.head_flits;
        self.flit_hops -= flits * hops;
        self.head_hops -= framing.head_flits * hops;
    }
}

/// The ready-queue tag of the event at execution position `pos`: its
/// original id first, so equal times pop in id order.
#[inline]
fn tag(id: u32, pos: usize) -> u64 {
    (u64::from(id) << 32) | pos as u64
}

/// Fault-run progress of one event, by execution position.
const NOT_SENT: u8 = 0;
const SENT: u8 = 1;
const DELIVERED: u8 = 2;

impl FlowEngine {
    /// Event `id`'s wire framing at `total_bytes`, or `None` when its
    /// byte count overflows `u64`.
    fn frame(&self, prep: &PreparedSchedule<'_>, id: u32, total_bytes: u64) -> Option<Framing> {
        let segs = prep.schedule().total_segments();
        let bytes = prep.chunk(id as usize).checked_bytes(total_bytes, segs)?;
        Some(frame_message(bytes, &self.cfg))
    }

    /// The per-run fill pass: one sweep over the events in execution
    /// order frames each at this payload, resets its per-run state
    /// (`scratch.flow_events`), sums the run's flit totals with overflow
    /// checks, and gathers the lockstep gates; then the events with no
    /// dependencies are queued at their step's gate.
    ///
    /// Lockstep gates (§IV-A): each step's injection waits for the
    /// previous steps' estimated serialization times (the flits of the
    /// step's largest chunk). The paper's footnote 4 lets hardware
    /// shorten the estimate by the NI buffer size because buffered
    /// flits queue FIFO behind the previous step; this engine models
    /// links as whole-message FIFO servers, where an early-released
    /// message would *overtake* rather than queue behind, so it uses
    /// the full serialization estimate (the cycle engine, which models
    /// the buffering physically, applies the footnote-4 subtraction).
    ///
    /// With faults compiled in (`F = true`) the estimate folds each
    /// path link's *final* degrade factor into its rate, mirroring the
    /// `ser *= degrade_factor` the execution loop applies: the gate
    /// planner budgets for every announced degradation, the same
    /// static-plan view the NI schedule table would be regenerated
    /// with. (The final — fully compounded — factor is used rather
    /// than a per-time one because gates are computed before any event
    /// time is known; for the common one-shot degrade plans the two
    /// coincide.) With an empty plan every factor is 1.0 and the fold
    /// reproduces the healthy bottleneck rate bit-for-bit, so healthy
    /// runs and empty-plan faulted runs stay byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::PayloadTooLarge`] when an event's byte
    /// count or one of the run's flit totals overflows `u64`.
    fn fill<const F: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        faults: &CompiledFaults,
    ) -> Result<FlitTotals, AlgorithmError> {
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let num_steps = prep.schedule().num_steps() as usize;
        let rates = prep.link_rates();
        let estimate = cfg.lockstep && cfg.lockstep_interval_ns.is_none();
        let too_large = || AlgorithmError::PayloadTooLarge { total_bytes };

        let gates = &mut scratch.gates;
        reset_to(gates, num_steps + 2, 0.0f64);
        let state = &mut scratch.flow_events;
        state.clear();
        let mut totals = FlitTotals::default();
        // framing depends only on the chunk's length: reframe only when
        // it changes from the previous event's
        let mut framed: Option<(u32, Framing)> = None;
        for (p, e) in prep.exec_events().iter().enumerate() {
            let path = prep.exec_path(p);
            let len = prep.chunk(e.id as usize).len();
            let framing = match framed {
                Some((l, framing)) if l == len => framing,
                _ => {
                    let framing = self.frame(prep, e.id, total_bytes).ok_or_else(too_large)?;
                    framed = Some((len, framing));
                    framing
                }
            };
            totals.add(framing, path.len()).ok_or_else(too_large)?;
            let flits = framing.total_flits();
            state.push(FlowState {
                ready: 0.0,
                flits,
                deps: prep.indegree(e.id as usize),
            });
            if estimate {
                // serialization at the event's bottleneck link: the
                // effective rate folds multigraph capacities (§VII-B
                // heterogeneous bandwidth) and per-link rates together,
                // so slow links widen the gate and fast ones shrink it
                let rate = path
                    .iter()
                    .map(|&l| {
                        if F {
                            rates[l as usize] / faults.final_degrade_factor(l)
                        } else {
                            rates[l as usize]
                        }
                    })
                    .fold(f64::INFINITY, f64::min);
                let rate = if rate.is_finite() { rate } else { 1.0 };
                let t = flits as f64 * flit_ns / rate;
                // est[s] accumulates into gates[s + 1] in place
                let g = &mut gates[e.step as usize + 1];
                if t > *g {
                    *g = t;
                }
            }
        }
        if cfg.lockstep {
            if let Some(interval) = cfg.lockstep_interval_ns {
                // open-loop injection: fixed interval per step
                gates.iter_mut().skip(2).for_each(|g| *g = interval);
            }
            for s in 1..=num_steps {
                gates[s + 1] += gates[s];
            }
        }

        let queue = &mut scratch.queue;
        queue.clear();
        for (p, (e, s)) in prep.exec_events().iter().zip(state.iter()).enumerate() {
            if s.deps == 0 {
                queue.push(Key(gates[e.step as usize], tag(e.id, p)));
            }
        }
        Ok(totals)
    }

    /// The one simulation loop behind every entry point. `F` selects the
    /// fault-injection variant at compile time: with `F = false` the
    /// `faults` tables are never read and every fault branch folds away,
    /// so the healthy paths cost exactly what they did before faults
    /// existed.
    ///
    /// The loop runs in execution order: it pops events from the ready
    /// queue in `(time, original id)` order, and each pop reads one
    /// [`multitree::ExecEvent`] record, its hops and its dependents from
    /// the prepared arrays and one [`FlowState`] from the scratch, all
    /// indexed by execution position. Observer hooks, `lost_events` and
    /// the [`FaultReport`] name events by their original ids.
    fn run_prepared_impl<O: SimObserver, const F: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
        faults: &CompiledFaults,
        fault_times: &[f64],
    ) -> Result<(SimReport, Option<FaultReport>), AlgorithmError> {
        self.cfg.validate()?;
        let topo = prep.topology();
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let events = prep.exec_events();
        let rates = prep.link_rates();
        let num_events = events.len();

        let mut totals = self.fill::<F>(prep, total_bytes, scratch, faults)?;

        if O::ENABLED {
            obs.on_run_start(&RunInfo {
                engine: ObservedEngine::Flow,
                cfg,
                prep,
                total_bytes,
            });
        }
        if F && O::ENABLED {
            for (idx, &at_ns) in fault_times.iter().enumerate() {
                obs.on_fault_injected(at_ns, idx as u32);
            }
        }

        // --- Event-driven execution.
        reset_to(&mut scratch.link_free, topo.num_links(), 0.0f64);
        // per-node software launch serialization (§VII-B; 0 = HW offload)
        reset_to(&mut scratch.node_free, topo.num_nodes(), 0.0f64);
        reset_to(&mut scratch.used, topo.num_links(), false);
        let link_free = &mut scratch.link_free;
        let node_free = &mut scratch.node_free;
        let used = &mut scratch.used;
        let state = &mut scratch.flow_events;
        let gates = &scratch.gates;
        let queue = &mut scratch.queue;

        let mut done = 0usize;
        let mut completion: f64 = 0.0;
        let mut busy_ns = 0.0f64;
        let hop_ns = cfg.link_latency_ns + f64::from(cfg.router_pipeline_cycles) * cfg.cycle_ns();

        // fault-run bookkeeping; F = false leaves these empty and unread
        let mut lost_events: Vec<u32> = Vec::new();
        let mut progress: Vec<u8> = if F { vec![NOT_SENT; num_events] } else { Vec::new() };
        let mut last_progress = 0.0f64;

        while let Some(Key(t0, tag_bits)) = queue.pop() {
            let p = tag_bits as u32 as usize;
            let e = &events[p];
            let src = e.src as usize;
            // software scheduling: message launches serialize per node
            let t = t0.max(node_free[src]) + cfg.sw_launch_overhead_ns;
            if F && faults.node_dead(e.src, t) {
                // the source host crashed before launching: the message
                // is gone and everything depending on it starves
                lost_events.push(e.id);
                continue;
            }
            if cfg.sw_launch_overhead_ns > 0.0 {
                node_free[src] = t;
            }
            if O::ENABLED {
                obs.on_flow_event_start(t, e.id, e.step);
            }
            if F {
                progress[p] = SENT;
            }
            let flits = state[p].flits;
            let path = prep.exec_path(p);

            let mut head_arrival = t; // when the head flit is available at the hop
            let mut last_start = t;
            let mut last_ser = 0.0;
            let mut lost = false;
            for &l in path {
                let li = l as usize;
                let mut ser = flits as f64 * flit_ns / rates[li];
                let mut start = head_arrival.max(link_free[li]);
                if F {
                    // flaps are waited out; a permanently dead link
                    // black-holes the message
                    match faults.available_from(l, start) {
                        Some(available) => start = available,
                        None => {
                            lost = true;
                            break;
                        }
                    }
                    ser *= faults.degrade_factor(l, start);
                }
                link_free[li] = start + ser;
                head_arrival = start + hop_ns;
                last_start = start;
                last_ser = ser;
                busy_ns += ser;
                used[li] = true;
                if O::ENABLED {
                    obs.on_flow_link_busy(l, start, ser);
                }
            }
            if F && lost {
                lost_events.push(e.id);
                continue;
            }
            // Delivery: head reaches dst one hop after the last link
            // starts, and the body streams for the serialization time.
            let delivery = if path.is_empty() {
                t
            } else {
                last_start + hop_ns + last_ser
            };
            if O::ENABLED {
                obs.on_flow_event_finish(delivery, e.id, e.step);
            }
            completion = completion.max(delivery);
            done += 1;
            if F {
                progress[p] = DELIVERED;
                last_progress = last_progress.max(delivery);
            }

            for &dp in prep.exec_dependents(p) {
                let dp = dp as usize;
                let d = &mut state[dp];
                d.deps -= 1;
                d.ready = d.ready.max(delivery);
                if d.deps == 0 {
                    let de = &events[dp];
                    let start = d.ready.max(gates[de.step as usize]);
                    queue.push(Key(start, tag(de.id, dp)));
                }
            }
        }

        let fault_report = if F {
            // the totals count only the events that went on the wire
            for (p, (e, &pr)) in events.iter().zip(&progress).enumerate() {
                if pr == NOT_SENT {
                    let framing = self.frame(prep, e.id, total_bytes).expect("framed by the fill pass");
                    totals.remove(framing, prep.exec_path(p).len());
                }
            }
            let stalled = done != num_events;
            // execution order is (step, id) order: the first undelivered
            // position is the lowest-id event of the earliest such step
            let first = progress.iter().position(|&pr| pr != DELIVERED).map(|p| &events[p]);
            if stalled {
                // the watchdog fires one detection window after progress
                // last advanced; that firing time is the run's end
                let fired_at = last_progress + faults.detect_window_ns();
                completion = completion.max(fired_at);
                if O::ENABLED {
                    let e = first.expect("a stalled run has an undelivered event");
                    obs.on_timeout_fired(fired_at, e.src, e.step);
                }
            }
            Some(FaultReport {
                delivered: done,
                total: num_events,
                lost_events,
                first_undelivered_step: first.map(|e| e.step),
                last_progress_ns: last_progress,
                stalled,
                detect_window_ns: faults.detect_window_ns(),
            })
        } else {
            None
        };

        if !F && done != num_events {
            return Err(AlgorithmError::MalformedSchedule {
                detail: format!(
                    "simulation deadlocked: {} of {} events never became ready",
                    num_events - done,
                    num_events
                ),
            });
        }

        if O::ENABLED {
            obs.on_run_end(completion);
        }
        Ok((
            SimReport {
                total_bytes,
                completion_ns: completion,
                flits_sent: totals.flits,
                head_flits: totals.heads,
                messages: num_events,
                flit_hops: totals.flit_hops,
                head_flit_hops: totals.head_hops,
                links_used: used.iter().filter(|&&u| u).count(),
                total_links: topo.num_links(),
                busy_ns,
            },
            fault_report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multitree::algorithms::{AllReduce, DbTree, HalvingDoubling, Hdrm, MultiTree, Ring, Ring2D};

    fn run(topo: &Topology, algo: &dyn AllReduce, bytes: u64, cfg: NetworkConfig) -> SimReport {
        let s = algo.build(topo).unwrap();
        FlowEngine::new(cfg).run(topo, &s, bytes).unwrap()
    }

    #[test]
    fn ring_completion_matches_closed_form_without_lockstep() {
        // Contention-free one-hop ring on a torus: completion time =
        // 2(n-1) steps, each = chunk serialization + one hop latency,
        // perfectly pipelined per chunk chain.
        let topo = Topology::torus(4, 4);
        let mut cfg = NetworkConfig::paper_default();
        cfg.lockstep = false;
        let n = 16u64;
        let bytes = n << 20; // 16 MiB, exact n-division
        let r = run(&topo, &Ring, bytes, cfg);
        let chunk = bytes / n;
        let framing = frame_message(chunk, &cfg);
        let per_step_ser = framing.total_flits() as f64 * cfg.flit_time_ns();
        let hop = cfg.link_latency_ns + 2.0;
        let expected = (2.0 * (16.0 - 1.0)) * (per_step_ser + hop);
        let got = r.completion_ns;
        assert!(
            (got - expected).abs() / expected < 0.01,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn multitree_beats_ring_for_small_and_large_on_torus() {
        let topo = Topology::torus(8, 8);
        let cfg = NetworkConfig::paper_default();
        for bytes in [64 * 1024u64, 16 << 20] {
            let ring = run(&topo, &Ring, bytes, cfg);
            let mt = run(&topo, &MultiTree::default(), bytes, cfg);
            assert!(
                mt.completion_ns < ring.completion_ns,
                "bytes={bytes}: multitree {} !< ring {}",
                mt.completion_ns,
                ring.completion_ns
            );
        }
    }

    #[test]
    fn dbtree_suffers_on_torus_for_large_data() {
        let topo = Topology::torus(8, 8);
        let cfg = NetworkConfig::paper_default();
        let bytes = 16 << 20;
        let db = run(&topo, &DbTree::default(), bytes, cfg);
        let mt = run(&topo, &MultiTree::default(), bytes, cfg);
        let ring = run(&topo, &Ring, bytes, cfg);
        assert!(db.completion_ns > mt.completion_ns * 1.5);
        assert!(db.completion_ns > ring.completion_ns);
    }

    #[test]
    fn ring2d_between_ring_and_multitree_for_large_data() {
        let topo = Topology::torus(8, 8);
        let cfg = NetworkConfig::paper_default();
        let bytes = 32 << 20;
        let ring = run(&topo, &Ring, bytes, cfg);
        let r2d = run(&topo, &Ring2D, bytes, cfg);
        let mt = run(&topo, &MultiTree::default(), bytes, cfg);
        assert!(mt.completion_ns < r2d.completion_ns);
        assert!(r2d.completion_ns < ring.completion_ns);
    }

    #[test]
    fn message_based_improves_bandwidth_about_six_percent() {
        let topo = Topology::torus(8, 8);
        let bytes = 16 << 20;
        let pkt = run(&topo, &MultiTree::default(), bytes, NetworkConfig::paper_default());
        let msg = run(
            &topo,
            &MultiTree::default(),
            bytes,
            NetworkConfig::paper_message_based(),
        );
        let speedup = pkt.completion_ns / msg.completion_ns;
        assert!(
            speedup > 1.03 && speedup < 1.09,
            "message-based speedup {speedup} should be ~1.06"
        );
    }

    #[test]
    fn hdrm_loses_to_multitree_for_small_data_on_bigraph() {
        let topo = Topology::bigraph_32();
        let cfg = NetworkConfig::paper_default();
        let small = 32 * 1024;
        let hdrm = run(&topo, &Hdrm, small, cfg);
        let mt = run(&topo, &MultiTree::default(), small, cfg);
        assert!(
            mt.completion_ns < hdrm.completion_ns,
            "multitree {} !< hdrm {}",
            mt.completion_ns,
            hdrm.completion_ns
        );
    }

    #[test]
    fn large_data_converges_on_bigraph() {
        // Fig. 9d: for large data HDRM and MultiTree both saturate
        // bandwidth and perform almost the same.
        let topo = Topology::bigraph_32();
        let cfg = NetworkConfig::paper_default();
        let big = 32 << 20;
        let hdrm = run(&topo, &Hdrm, big, cfg);
        let mt = run(&topo, &MultiTree::default(), big, cfg);
        let ratio = hdrm.completion_ns / mt.completion_ns;
        assert!(
            (0.8..1.25).contains(&ratio),
            "large-data HDRM/MT ratio {ratio} should be ~1"
        );
    }

    #[test]
    fn lockstep_changes_timing_only_mildly_when_contention_free() {
        // Lockstep regulates injection; on an already contention-free
        // multitree schedule it may shift work slightly either way (it
        // exists to *prevent* early injections from destroying the
        // schedule), but the completion time stays in the same ballpark.
        let topo = Topology::torus(4, 4);
        let bytes = 4 << 20;
        let mut unlocked = NetworkConfig::paper_default();
        unlocked.lockstep = false;
        let with = run(&topo, &MultiTree::default(), bytes, NetworkConfig::paper_default());
        let without = run(&topo, &MultiTree::default(), bytes, unlocked);
        let ratio = with.completion_ns / without.completion_ns;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic_runs() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let e = FlowEngine::new(NetworkConfig::paper_default());
        let a = e.run(&topo, &s, 1 << 20).unwrap();
        let b = e.run(&topo, &s, 1 << 20).unwrap();
        assert_eq!(a, b);
    }

    /// Every flit total of a run at `total_bytes`, summed in `u128`.
    fn wide_totals(prep: &PreparedSchedule<'_>, total_bytes: u64, cfg: &NetworkConfig) -> [u128; 4] {
        let segs = u128::from(prep.schedule().total_segments());
        let per_seg = u128::from(total_bytes).div_ceil(segs);
        let (flit, payload) = (u128::from(cfg.flit_bytes), u128::from(cfg.payload_bytes));
        let mut t = [0u128; 4];
        for i in 0..prep.num_events() {
            let bytes = u128::from(prep.chunk(i).len()) * per_seg;
            let heads = bytes.div_ceil(payload); // packet-based framing
            let flits = heads + bytes.div_ceil(flit);
            let hops = prep.hops(i) as u128;
            t[0] += flits;
            t[1] += heads;
            t[2] += flits * hops;
            t[3] += heads * hops;
        }
        t
    }

    #[test]
    fn huge_payloads_are_a_typed_error_not_a_wrapped_count() {
        let topo = Topology::hypercube(4);
        let s = HalvingDoubling.build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let cfg = NetworkConfig::paper_default();
        let engine = FlowEngine::new(cfg);
        let mut scratch = SimScratch::new();
        // (payloads that fit, payloads whose flit totals overflow)
        let mut seen = [0; 2];
        for total_bytes in [u64::MAX, u64::MAX / 2, 1 << 62, 1 << 58, 1 << 54, 1 << 40] {
            let wide = wide_totals(&prep, total_bytes, &cfg);
            let fits = wide.iter().all(|&t| t <= u128::from(u64::MAX));
            seen[usize::from(!fits)] += 1;
            let healthy = engine.run_prepared_with(&prep, total_bytes, &mut scratch, &mut NoopObserver);
            let faulted = engine.run_prepared_faulted_with(
                &prep,
                total_bytes,
                &mut scratch,
                &FaultPlan::new(),
                &mut NoopObserver,
            );
            let batch = engine.run_prepared_batch_with(&prep, &[1 << 20, total_bytes], &mut scratch, &mut NoopObserver);
            if fits {
                let r = healthy.unwrap().sim;
                let got = [r.flits_sent, r.head_flits, r.flit_hops, r.head_flit_hops];
                assert_eq!(got.map(u128::from), wide, "{total_bytes}");
                assert_eq!(faulted.unwrap().report.sim, r);
                assert_eq!(batch.unwrap()[1].sim, r);
            } else {
                let too_large = AlgorithmError::PayloadTooLarge { total_bytes };
                assert_eq!(healthy.unwrap_err(), too_large, "{total_bytes}");
                assert_eq!(faulted.unwrap_err(), too_large);
                assert_eq!(batch.unwrap_err(), too_large);
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "both sides of the boundary: {seen:?}");
        // the engine stays usable after a rejected run
        let fresh = engine.run(&topo, &s, 1 << 20).unwrap();
        let reused = engine
            .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        assert_eq!(reused.sim, fresh);
    }

    #[test]
    fn chunk_byte_overflow_is_a_typed_error() {
        use multitree::{ChunkRange, CollectiveOp, FlowId};
        use mt_topology::NodeId;
        // one message carrying all sixteen segments: its byte count
        // rounds a payload of u64::MAX up to 2^64
        let topo = Topology::mesh(1, 2);
        let mut s = CommSchedule::new("whole", 2, 16);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let whole = ChunkRange::new(0, 16);
        s.push_event(a, b, FlowId(0), CollectiveOp::Reduce, whole, 1, vec![], None);
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let engine = FlowEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        let total_bytes = u64::MAX;
        let too_large = AlgorithmError::PayloadTooLarge { total_bytes };
        let healthy = engine.run_prepared_with(&prep, total_bytes, &mut scratch, &mut NoopObserver);
        assert_eq!(healthy.unwrap_err(), too_large);
        let faulted = engine.run_prepared_faulted_with(
            &prep,
            total_bytes,
            &mut scratch,
            &FaultPlan::new(),
            &mut NoopObserver,
        );
        assert_eq!(faulted.unwrap_err(), too_large);
        // sixteen whole segments below 2^64 fit
        let r = engine.run(&topo, &s, u64::MAX - 15).unwrap();
        assert_eq!(r.total_bytes, u64::MAX - 15);
    }

    #[test]
    fn identical_runs_do_not_grow_the_scratch() {
        // a tie-rich schedule and a tie-poor one: every link of the torus
        // re-rated to its own odd fraction
        let uniform = Topology::torus(6, 6);
        let rates: Vec<_> = (0..uniform.num_links())
            .map(|l| (mt_topology::LinkId::new(l), 500 + (l as u32 * 37) % 497, 997))
            .collect();
        let ragged = uniform.with_link_rates(&rates).unwrap();
        let cfg = NetworkConfig::paper_default();
        for (topo, s) in [
            (&uniform, MultiTree::default().build(&uniform).unwrap()),
            (&ragged, Ring.build(&uniform).unwrap()),
        ] {
            let prep = PreparedSchedule::new(&s, topo).unwrap();
            let mut scratch = SimScratch::new();
            let engine = FlowEngine::new(cfg);
            let first = engine
                .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
                .unwrap();
            let cap = scratch.capacity_elements();
            for _ in 0..3 {
                let again = engine
                    .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
                    .unwrap();
                assert_eq!(again, first);
                assert_eq!(scratch.capacity_elements(), cap);
            }
        }
    }

    #[test]
    fn empty_schedule_is_instant() {
        let topo = Topology::mesh(1, 1);
        let s = Ring.build(&topo).unwrap();
        let r = FlowEngine::new(NetworkConfig::paper_default())
            .run(&topo, &s, 1024)
            .unwrap();
        assert_eq!(r.completion_ns, 0.0);
        assert_eq!(r.messages, 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use multitree::algorithms::{AllReduce, MultiTree};
    use mt_topology::Topology;

    /// (event, step, start_ns, delivery_ns) collected from the observer
    /// hooks; an event's start hook always immediately precedes its
    /// finish hook, so pairing them is exact.
    struct Traces {
        rows: Vec<(usize, u32, f64, f64)>,
        last_start: f64,
    }

    impl SimObserver for Traces {
        fn on_flow_event_start(&mut self, start_ns: f64, _event: u32, _step: u32) {
            self.last_start = start_ns;
        }

        fn on_flow_event_finish(&mut self, delivery_ns: f64, event: u32, step: u32) {
            self.rows.push((event as usize, step, self.last_start, delivery_ns));
        }
    }

    #[test]
    fn traces_cover_every_event_and_respect_steps() {
        let topo = Topology::torus(4, 4);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let mut scratch = SimScratch::new();
        let mut traces = Traces { rows: Vec::new(), last_start: 0.0 };
        let report = FlowEngine::new(NetworkConfig::paper_default())
            .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut traces)
            .unwrap();
        let traces = traces.rows;
        assert_eq!(traces.len(), s.events().len());
        let last = traces.iter().map(|t| t.3).fold(0.0f64, f64::max);
        assert_eq!(last, report.sim.completion_ns);
        for t in &traces {
            assert!(t.3 > t.2);
        }
        // with lockstep on, a later step's earliest start is never before
        // an earlier step's earliest start
        let earliest = |step: u32| {
            traces
                .iter()
                .filter(|t| t.1 == step)
                .map(|t| t.2)
                .fold(f64::INFINITY, f64::min)
        };
        for step in 1..s.num_steps() {
            assert!(earliest(step) <= earliest(step + 1) + 1e-9);
        }
    }
}
