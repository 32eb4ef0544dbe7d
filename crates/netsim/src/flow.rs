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
use crate::flowctrl::frame_message;
use crate::observer::{NoopObserver, ObservedEngine, RunInfo, SimObserver};
use crate::report::{EngineDetail, EngineReport, SimReport};
use crate::scratch::{pack_key, reset_to, Key, MinQueue, SimScratch};
use crate::shard::ShardPlan;
use crate::Engine;
use multitree::{AlgorithmError, CommSchedule, PreparedSchedule};
use mt_topology::{LinkId, Topology};


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
    /// deadlocks (a dependency cycle hidden from static validation).
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
            false,
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
    /// the prepared CSR/bottleneck tables are indexed from one borrow,
    /// `scratch` stays warm between runs, and when a payload repeats its
    /// predecessor the wire framings and lockstep gates — a pure
    /// function of `(prep, payload)` — are kept instead of refilled.
    /// Per-payload reports are byte-identical to N independent
    /// [`FlowEngine::run_prepared_with`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if a run deadlocks;
    /// payloads after the failing one are not attempted.
    pub fn run_prepared_batch_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        payloads: &[u64],
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<Vec<EngineReport>, AlgorithmError> {
        let mut reports = Vec::with_capacity(payloads.len());
        let mut framed: Option<u64> = None;
        for &total_bytes in payloads {
            let reuse = framed == Some(total_bytes);
            let (sim, _) = self.run_prepared_impl::<O, false>(
                prep,
                total_bytes,
                scratch,
                obs,
                &NO_FAULTS,
                &[],
                reuse,
            )?;
            framed = Some(total_bytes);
            reports.push(EngineReport {
                sim,
                detail: EngineDetail::Flow,
            });
        }
        Ok(reports)
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
            false,
        )?;
        Ok(FaultedRun {
            report: EngineReport {
                sim,
                detail: EngineDetail::Flow,
            },
            faults: fr.expect("faulted runs always produce a fault report"),
        })
    }

    /// Executes a prepared schedule under **max-min fair bandwidth
    /// sharing** instead of FIFO whole-message serialization: every
    /// in-flight transfer streams simultaneously, each link divides its
    /// bandwidth max-min fairly among the transfers crossing it, and
    /// rates are re-water-filled whenever a transfer starts or finishes.
    ///
    /// This is the classic flow-level model of a network with per-flow
    /// fair queueing (the paper's baseline routers are FIFO, which is
    /// what [`FlowEngine::run_prepared_with`] models — this entry exists
    /// to bound how much of a schedule's congestion is a FIFO artifact).
    ///
    /// The recompute is *incremental*: a rate change can only propagate
    /// through links whose active-transfer set is connected (via shared
    /// transfers) to a link that actually changed, so each water-filling
    /// pass runs on that dirty component only, not the whole network.
    /// On a contention-free schedule every component is a single
    /// transfer and a run costs the same as the FIFO pass; results are
    /// deterministic and allocation-free at steady state either way.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if the simulation
    /// deadlocks (a dependency cycle hidden from static validation).
    pub fn run_prepared_fair_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<EngineReport, AlgorithmError> {
        let sim = self.run_prepared_fair_impl::<O, false>(prep, total_bytes, scratch, obs)?;
        Ok(EngineReport {
            sim,
            detail: EngineDetail::Flow,
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
        self.run_prepared_impl::<_, false>(&prep, total_bytes, &mut scratch, &mut NoopObserver, &NO_FAULTS, &[], false)
            .map(|(sim, _)| sim)
    }
}

impl FlowEngine {
    /// Wire framings and lockstep gates, shared by the FIFO and fair-share
    /// execution loops.
    ///
    /// Wire framing depends only on (event, payload size): compute it
    /// once per run.
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
    /// reproduces `min_rate` bit-for-bit, so healthy runs and
    /// empty-plan faulted runs stay byte-identical.
    fn fill_framings_and_gates<const F: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        faults: &CompiledFaults,
    ) {
        let schedule = prep.schedule();
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let segs = schedule.total_segments();

        scratch.framings.clear();
        let frame = |i| frame_message(prep.chunk(i).bytes(total_bytes, segs), cfg);
        scratch.framings.extend((0..prep.num_events()).map(frame));

        let framings = &scratch.framings;
        let gates = &mut scratch.gates;
        reset_to(gates, schedule.num_steps() as usize + 2, 0.0f64);
        if cfg.lockstep {
            // est[s] accumulates into gates[s + 1] in place
            if let Some(interval) = cfg.lockstep_interval_ns {
                // open-loop injection: fixed interval per step
                gates.iter_mut().skip(2).for_each(|e| *e = interval);
            } else {
                for (i, framing) in framings.iter().enumerate() {
                    let flits = framing.total_flits();
                    // serialization at the event's bottleneck link: the
                    // effective rate folds multigraph capacities (§VII-B
                    // heterogeneous bandwidth) and per-link rates together,
                    // so slow links widen the gate and fast ones shrink it
                    let rate = if F {
                        // same values and fold order as the min_rate
                        // precompute, with each link slowed by its final
                        // degrade factor
                        let mr = prep
                            .path(i)
                            .iter()
                            .zip(prep.path_capacities(i))
                            .map(|(l, &r)| r / faults.final_degrade_factor(l.index() as u32))
                            .fold(f64::INFINITY, f64::min);
                        if mr.is_finite() {
                            mr
                        } else {
                            1.0
                        }
                    } else {
                        prep.min_rate(i)
                    };
                    let t = flits as f64 * flit_ns / rate;
                    let s = prep.step(i) as usize;
                    if t > gates[s + 1] {
                        gates[s + 1] = t;
                    }
                }
            }
            for s in 1..=schedule.num_steps() as usize {
                gates[s + 1] += gates[s];
            }
        }
    }

    /// The one simulation loop behind every entry point. `F` selects the
    /// fault-injection variant at compile time: with `F = false` the
    /// `faults` tables are never read and every fault branch folds away,
    /// so the healthy paths cost exactly what they did before faults
    /// existed.
    ///
    /// `reuse_framings` skips the framing/gate fill: only the batch
    /// entry sets it, and only when `scratch` provably holds the tables
    /// for exactly this `(prep, total_bytes, F)` — the immediately
    /// preceding run of the same sweep.
    #[allow(clippy::too_many_arguments)]
    fn run_prepared_impl<O: SimObserver, const F: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
        faults: &CompiledFaults,
        fault_times: &[f64],
        reuse_framings: bool,
    ) -> Result<(SimReport, Option<FaultReport>), AlgorithmError> {
        self.cfg.validate()?;
        let topo = prep.topology();
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let num_events = prep.num_events();

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

        if !reuse_framings {
            self.fill_framings_and_gates::<F>(prep, total_bytes, scratch, faults);
        }
        let framings = &scratch.framings;
        let gates = &scratch.gates;

        // --- Event-driven execution.
        reset_to(&mut scratch.link_free, topo.num_links(), 0.0f64);
        // per-node software launch serialization (§VII-B; 0 = HW offload)
        reset_to(&mut scratch.node_free, topo.num_nodes(), 0.0f64);
        scratch.remaining_deps.clear();
        scratch
            .remaining_deps
            .extend((0..num_events).map(|i| prep.indegree(i)));
        let link_free = &mut scratch.link_free;
        let node_free = &mut scratch.node_free;
        let remaining_deps = &mut scratch.remaining_deps;
        reset_to(&mut scratch.ready_at, num_events, 0.0f64);
        let ready_at = &mut scratch.ready_at;
        let heap = &mut scratch.heap;
        heap.clear();
        for i in 0..num_events {
            if remaining_deps[i] == 0 {
                let t = gates[prep.step(i) as usize];
                ready_at[i] = t;
                heap.push(Key(t, i));
            }
        }

        reset_to(&mut scratch.used, topo.num_links(), false);
        let used = &mut scratch.used;

        let mut done = 0usize;
        let mut completion: f64 = 0.0;
        let mut flits_sent = 0u64;
        let mut head_flits = 0u64;
        let mut flit_hops = 0u64;
        let mut head_flit_hops = 0u64;
        let mut busy_ns = 0.0f64;
        let hop_ns = cfg.link_latency_ns + f64::from(cfg.router_pipeline_cycles) * cfg.cycle_ns();

        // fault-run bookkeeping; F = false leaves these empty and unread
        let mut lost_events: Vec<u32> = Vec::new();
        let mut delivered_mask: Vec<bool> = if F { vec![false; num_events] } else { Vec::new() };
        let mut last_progress = 0.0f64;

        while let Some(Key(t0, i)) = heap.pop() {
            let src = prep.src_index(i);
            // software scheduling: message launches serialize per node
            let t = t0.max(node_free[src]) + cfg.sw_launch_overhead_ns;
            if F && faults.node_dead(src as u32, t) {
                // the source host crashed before launching: the message
                // is gone and everything depending on it starves
                lost_events.push(i as u32);
                continue;
            }
            if cfg.sw_launch_overhead_ns > 0.0 {
                node_free[src] = t;
            }
            if O::ENABLED {
                obs.on_flow_event_start(t, i as u32, prep.step(i));
            }
            let framing = framings[i];
            let flits = framing.total_flits();
            flits_sent += flits;
            head_flits += framing.head_flits;
            let path = prep.path(i);
            flit_hops += flits * path.len() as u64;
            head_flit_hops += framing.head_flits * path.len() as u64;

            let mut head_arrival = t; // when the head flit is available at the hop
            let mut last_start = t;
            let mut last_ser = 0.0;
            let mut lost = false;
            for (l, &cap) in path.iter().zip(prep.path_capacities(i)) {
                let mut ser = flits as f64 * flit_ns / cap;
                let mut start = head_arrival.max(link_free[l.index()]);
                if F {
                    // flaps are waited out; a permanently dead link
                    // black-holes the message
                    match faults.available_from(l.index() as u32, start) {
                        Some(available) => start = available,
                        None => {
                            lost = true;
                            break;
                        }
                    }
                    ser *= faults.degrade_factor(l.index() as u32, start);
                }
                link_free[l.index()] = start + ser;
                head_arrival = start + hop_ns;
                last_start = start;
                last_ser = ser;
                busy_ns += ser;
                used[l.index()] = true;
                if O::ENABLED {
                    obs.on_flow_link_busy(l.index() as u32, start, ser);
                }
            }
            if F && lost {
                lost_events.push(i as u32);
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
                obs.on_flow_event_finish(delivery, i as u32, prep.step(i));
            }
            completion = completion.max(delivery);
            done += 1;
            if F {
                delivered_mask[i] = true;
                last_progress = last_progress.max(delivery);
            }

            for &dep_idx in prep.dependents(i) {
                let dep_idx = dep_idx as usize;
                remaining_deps[dep_idx] -= 1;
                ready_at[dep_idx] = ready_at[dep_idx].max(delivery);
                if remaining_deps[dep_idx] == 0 {
                    let start = ready_at[dep_idx].max(gates[prep.step(dep_idx) as usize]);
                    heap.push(Key(start, dep_idx));
                }
            }
        }

        let fault_report = if F {
            let total = num_events;
            let stalled = done != total;
            let mut first: Option<(u32, usize)> = None; // (step, event)
            if stalled {
                for (i, delivered) in delivered_mask.iter().enumerate().take(total) {
                    if !delivered {
                        let s = prep.step(i);
                        let better = match first {
                            None => true,
                            Some((fs, _)) => s < fs,
                        };
                        if better {
                            first = Some((s, i));
                        }
                    }
                }
                // the watchdog fires one detection window after progress
                // last advanced; that firing time is the run's end
                let fired_at = last_progress + faults.detect_window_ns();
                completion = completion.max(fired_at);
                if O::ENABLED {
                    let (step, event) = first.expect("a stalled run has an undelivered event");
                    obs.on_timeout_fired(fired_at, prep.src_index(event) as u32, step);
                }
            }
            Some(FaultReport {
                delivered: done,
                total,
                lost_events,
                first_undelivered_step: first.map(|(s, _)| s),
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
                flits_sent,
                head_flits,
                messages: num_events,
                flit_hops,
                head_flit_hops,
                links_used: used.iter().filter(|&&u| u).count(),
                total_links: topo.num_links(),
                busy_ns,
            },
            fault_report,
        ))
    }

    /// Executes a prepared schedule through **per-shard event queues**
    /// instead of one global ready heap: events live in the queue of
    /// their source node's shard (per `plan`), and the scheduler drains
    /// the current shard in bursts, re-synchronizing across shards only
    /// when another shard could hold an earlier event.
    ///
    /// Results are **bit-identical** to
    /// [`FlowEngine::run_prepared_with`] for *any* shard count,
    /// including the observer callback order: the burst bound is
    /// maintained so that every popped event is still the global
    /// `(time, id)` minimum, so the execution order — and therefore
    /// every float in the report — is exactly the single-queue order.
    /// What sharding buys is structural: each heap is a fraction of the
    /// global size (cheaper sift operations, better locality), and
    /// within a burst the scheduler touches only one shard's queue — on
    /// pod-local schedules like the hierarchical MultiTree's intra-pod
    /// phases, bursts span whole subtrees. `ShardPlan::new(topo, 1)`
    /// degenerates to the single-queue engine.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different number of nodes than
    /// `prep`'s topology.
    ///
    /// # Errors
    ///
    /// Returns [`AlgorithmError::InvalidConfig`] if the engine's
    /// configuration fails [`NetworkConfig::validate`].
    /// Returns [`AlgorithmError::MalformedSchedule`] if the simulation
    /// deadlocks (a dependency cycle hidden from static validation).
    pub fn run_prepared_sharded_with<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        plan: &ShardPlan,
        obs: &mut O,
    ) -> Result<EngineReport, AlgorithmError> {
        let sim = self.run_prepared_sharded_impl(prep, total_bytes, scratch, plan, obs)?;
        Ok(EngineReport {
            sim,
            detail: EngineDetail::Flow,
        })
    }

    /// The sharded twin of the healthy `run_prepared_impl` loop. Kept as
    /// a separate copy — like the reference/fast pairs elsewhere in this
    /// workspace — so the flat hot loop stays untouched and the
    /// differential tests can pit the two against each other.
    fn run_prepared_sharded_impl<O: SimObserver>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        plan: &ShardPlan,
        obs: &mut O,
    ) -> Result<SimReport, AlgorithmError> {
        self.cfg.validate()?;
        let topo = prep.topology();
        assert_eq!(
            plan.num_nodes(),
            topo.num_nodes(),
            "ShardPlan was built for a different topology"
        );
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let num_events = prep.num_events();

        if O::ENABLED {
            obs.on_run_start(&RunInfo {
                engine: ObservedEngine::Flow,
                cfg,
                prep,
                total_bytes,
            });
        }

        self.fill_framings_and_gates::<false>(prep, total_bytes, scratch, &NO_FAULTS);

        // Home shard of each event = shard of its source node.
        scratch.shard_home.clear();
        scratch.shard_home.extend(
            (0..num_events)
                .map(|i| plan.shard_of_node(mt_topology::NodeId::new(prep.src_index(i))) as u32),
        );
        if scratch.shard_heaps.len() != plan.num_shards() {
            scratch.shard_heaps.resize_with(plan.num_shards(), MinQueue::default);
        }
        for h in &mut scratch.shard_heaps {
            h.clear();
        }

        let framings = &scratch.framings;
        let gates = &scratch.gates;

        reset_to(&mut scratch.link_free, topo.num_links(), 0.0f64);
        reset_to(&mut scratch.node_free, topo.num_nodes(), 0.0f64);
        scratch.remaining_deps.clear();
        scratch
            .remaining_deps
            .extend((0..num_events).map(|i| prep.indegree(i)));
        let link_free = &mut scratch.link_free;
        let node_free = &mut scratch.node_free;
        let remaining_deps = &mut scratch.remaining_deps;
        reset_to(&mut scratch.ready_at, num_events, 0.0f64);
        let ready_at = &mut scratch.ready_at;
        let mut ready = ShardedReady {
            heaps: &mut scratch.shard_heaps,
            home: &scratch.shard_home,
            cur: 0,
            bound: 0, // below any real key: the first pop rescans
        };
        for i in 0..num_events {
            if remaining_deps[i] == 0 {
                let t = gates[prep.step(i) as usize];
                ready_at[i] = t;
                ready.push(Key(t, i));
            }
        }

        reset_to(&mut scratch.used, topo.num_links(), false);
        let used = &mut scratch.used;

        let mut done = 0usize;
        let mut completion: f64 = 0.0;
        let mut flits_sent = 0u64;
        let mut head_flits = 0u64;
        let mut flit_hops = 0u64;
        let mut head_flit_hops = 0u64;
        let mut busy_ns = 0.0f64;
        let hop_ns = cfg.link_latency_ns + f64::from(cfg.router_pipeline_cycles) * cfg.cycle_ns();

        while let Some(Key(t0, i)) = ready.pop() {
            let src = prep.src_index(i);
            let t = t0.max(node_free[src]) + cfg.sw_launch_overhead_ns;
            if cfg.sw_launch_overhead_ns > 0.0 {
                node_free[src] = t;
            }
            if O::ENABLED {
                obs.on_flow_event_start(t, i as u32, prep.step(i));
            }
            let framing = framings[i];
            let flits = framing.total_flits();
            flits_sent += flits;
            head_flits += framing.head_flits;
            let path = prep.path(i);
            flit_hops += flits * path.len() as u64;
            head_flit_hops += framing.head_flits * path.len() as u64;

            let mut head_arrival = t;
            let mut last_start = t;
            let mut last_ser = 0.0;
            for (l, &cap) in path.iter().zip(prep.path_capacities(i)) {
                let ser = flits as f64 * flit_ns / cap;
                let start = head_arrival.max(link_free[l.index()]);
                link_free[l.index()] = start + ser;
                head_arrival = start + hop_ns;
                last_start = start;
                last_ser = ser;
                busy_ns += ser;
                used[l.index()] = true;
                if O::ENABLED {
                    obs.on_flow_link_busy(l.index() as u32, start, ser);
                }
            }
            let delivery = if path.is_empty() {
                t
            } else {
                last_start + hop_ns + last_ser
            };
            if O::ENABLED {
                obs.on_flow_event_finish(delivery, i as u32, prep.step(i));
            }
            completion = completion.max(delivery);
            done += 1;

            for &dep_idx in prep.dependents(i) {
                let dep_idx = dep_idx as usize;
                remaining_deps[dep_idx] -= 1;
                ready_at[dep_idx] = ready_at[dep_idx].max(delivery);
                if remaining_deps[dep_idx] == 0 {
                    let start = ready_at[dep_idx].max(gates[prep.step(dep_idx) as usize]);
                    ready.push(Key(start, dep_idx));
                }
            }
        }

        if done != num_events {
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
        Ok(SimReport {
            total_bytes,
            completion_ns: completion,
            flits_sent,
            head_flits,
            messages: num_events,
            flit_hops,
            head_flit_hops,
            links_used: used.iter().filter(|&&u| u).count(),
            total_links: topo.num_links(),
            busy_ns,
        })
    }
}

/// Per-shard ready queues that pop in exact global `(time, id)` order.
///
/// `cur` is the shard being drained; `bound` is a lower bound on every
/// key held by *other* shards (seeded by a full rescan, then tightened
/// on each push that lands off-shard). While the current shard's top is
/// strictly below `bound`, it is strictly below every other shard's
/// minimum and can be popped without looking at them — that's the
/// burst. When the top reaches `bound`, one rescan over the shard tops
/// re-elects the minimum shard and the runner-up becomes the new bound.
/// Pushed keys never sort before the key being processed (simulation
/// time is monotone), so the invariant survives pushes into `cur`, and
/// keys are unique (event id in the low bits), so strict `<` never
/// skips a tie. Net effect: identical pop sequence to one global heap,
/// with rescans only at genuine cross-shard hand-offs.
struct ShardedReady<'a> {
    heaps: &'a mut [MinQueue],
    home: &'a [u32],
    cur: usize,
    bound: u128,
}

impl ShardedReady<'_> {
    fn push(&mut self, k: Key) {
        let h = self.home[k.1] as usize;
        self.heaps[h].push(k);
        if h != self.cur {
            self.bound = self.bound.min(pack_key(k));
        }
    }

    fn pop(&mut self) -> Option<Key> {
        if let Some(top) = self.heaps[self.cur].peek_packed() {
            if top < self.bound {
                return self.heaps[self.cur].pop();
            }
        }
        // Burst over: re-elect the minimum shard; the runner-up top
        // bounds how long the next burst may run.
        let mut best: Option<(u128, usize)> = None;
        let mut second = u128::MAX;
        for (s, h) in self.heaps.iter().enumerate() {
            let Some(p) = h.peek_packed() else { continue };
            match best {
                None => best = Some((p, s)),
                Some((bp, _)) if p < bp => {
                    second = bp;
                    best = Some((p, s));
                }
                Some(_) => second = second.min(p),
            }
        }
        let (_, s) = best?;
        self.cur = s;
        self.bound = second;
        self.heaps[s].pop()
    }
}

// --- max-min fair-share variant --------------------------------------

/// Per-flow / per-link state for [`FlowEngine::run_prepared_fair_with`].
/// Lives inside [`SimScratch`] so sweeps reuse it across runs.
#[derive(Default)]
pub(crate) struct FairScratch {
    /// Launch queue: (time, event) of transfers whose dependencies and
    /// lockstep gate are met.
    arrive: MinQueue,
    /// Predicted completions: `(time, event << 32 | version)`. An entry
    /// whose version no longer matches the flow's is stale and skipped
    /// on pop (lazy invalidation — no decrease-key needed).
    finish: MinQueue,
    /// Software launch serialization already applied.
    launched: Vec<bool>,
    /// Current fair rate, flits/ns.
    rate: Vec<f64>,
    /// Unsent flits as of `last_upd`.
    remaining: Vec<f64>,
    /// Simulation time `remaining` was last settled at.
    last_upd: Vec<f64>,
    /// Bumped whenever a flow's rate is reassigned.
    version: Vec<u32>,
    /// Water-filling: flow already frozen at its final rate this pass.
    frozen: Vec<bool>,
    /// Component-closure membership flags (cleared after every pass).
    seen_flow: Vec<bool>,
    seen_link: Vec<bool>,
    /// Active transfers per link.
    link_flows: Vec<Vec<u32>>,
    /// Water-filling per-link unfrozen-flow count / residual bandwidth.
    link_n: Vec<u32>,
    link_res: Vec<f64>,
    /// Links whose active-transfer set changed since the last pass.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
    /// Closure traversal stack and the component it produces.
    stack: Vec<u32>,
    comp_links: Vec<u32>,
    comp_flows: Vec<u32>,
}

impl FairScratch {
    fn reset(&mut self, num_events: usize, num_links: usize) {
        self.arrive.clear();
        self.finish.clear();
        reset_to(&mut self.launched, num_events, false);
        reset_to(&mut self.rate, num_events, 0.0);
        reset_to(&mut self.remaining, num_events, 0.0);
        reset_to(&mut self.last_upd, num_events, 0.0);
        reset_to(&mut self.version, num_events, 0);
        reset_to(&mut self.frozen, num_events, false);
        reset_to(&mut self.seen_flow, num_events, false);
        for v in &mut self.link_flows {
            v.clear();
        }
        if self.link_flows.len() < num_links {
            self.link_flows.resize_with(num_links, Vec::new);
        } else {
            self.link_flows.truncate(num_links);
        }
        reset_to(&mut self.link_n, num_links, 0);
        reset_to(&mut self.link_res, num_links, 0.0);
        reset_to(&mut self.seen_link, num_links, false);
        reset_to(&mut self.dirty_flag, num_links, false);
        self.dirty.clear();
        self.stack.clear();
        self.comp_links.clear();
        self.comp_flows.clear();
    }

    fn mark_dirty(&mut self, l: usize) {
        if !self.dirty_flag[l] {
            self.dirty_flag[l] = true;
            self.dirty.push(l as u32);
        }
    }

    pub(crate) fn capacity_elements(&self) -> usize {
        self.arrive.capacity()
            + self.finish.capacity()
            + self.launched.capacity()
            + self.rate.capacity()
            + self.remaining.capacity()
            + self.last_upd.capacity()
            + self.version.capacity()
            + self.frozen.capacity()
            + self.seen_flow.capacity()
            + self.seen_link.capacity()
            + self.link_flows.capacity()
            + self.link_flows.iter().map(Vec::capacity).sum::<usize>()
            + self.link_n.capacity()
            + self.link_res.capacity()
            + self.dirty.capacity()
            + self.dirty_flag.capacity()
            + self.stack.capacity()
            + self.comp_links.capacity()
            + self.comp_flows.capacity()
    }
}

#[inline]
fn pack_finish(flow: usize, version: u32) -> usize {
    debug_assert!(flow < (1 << 32), "event index must fit in 32 bits");
    (flow << 32) | version as usize
}

#[inline]
fn unpack_finish(packed: usize) -> (usize, u32) {
    (packed >> 32, packed as u32)
}

/// One max-min water-filling pass over the component of links reachable
/// from the dirty set through shared active transfers. Rates outside
/// that component cannot have changed: a transfer whose rate depended on
/// any dirty link would be pulled into the component by the closure, so
/// restricting the recompute is exact, not an approximation.
fn refill_component(f: &mut FairScratch, prep: &PreparedSchedule<'_>, flit_ns: f64, t: f64) {
    let topo = prep.topology();
    f.comp_links.clear();
    f.comp_flows.clear();

    // seed with the dirty links, then close over flows <-> links
    while let Some(li) = f.dirty.pop() {
        let li = li as usize;
        f.dirty_flag[li] = false;
        if !f.seen_link[li] {
            f.seen_link[li] = true;
            f.stack.push(li as u32);
        }
    }
    while let Some(li) = f.stack.pop() {
        let li = li as usize;
        f.comp_links.push(li as u32);
        for k in 0..f.link_flows[li].len() {
            let fl = f.link_flows[li][k] as usize;
            if f.seen_flow[fl] {
                continue;
            }
            f.seen_flow[fl] = true;
            f.comp_flows.push(fl as u32);
            for m in prep.path(fl) {
                let mi = m.index();
                if !f.seen_link[mi] {
                    f.seen_link[mi] = true;
                    f.stack.push(mi as u32);
                }
            }
        }
    }

    // settle progress at the old rates up to `t`
    for k in 0..f.comp_flows.len() {
        let fl = f.comp_flows[k] as usize;
        f.remaining[fl] = (f.remaining[fl] - f.rate[fl] * (t - f.last_upd[fl])).max(0.0);
        f.last_upd[fl] = t;
    }

    // water-fill: repeatedly find the tightest link and freeze its flows
    for k in 0..f.comp_links.len() {
        let li = f.comp_links[k] as usize;
        f.link_n[li] = f.link_flows[li].len() as u32;
        f.link_res[li] = topo.link_rate(LinkId::new(li)) / flit_ns;
    }
    let mut unfrozen = f.comp_flows.len();
    while unfrozen > 0 {
        let mut r = f64::INFINITY;
        for &li in &f.comp_links {
            let li = li as usize;
            if f.link_n[li] > 0 {
                let q = f.link_res[li] / f64::from(f.link_n[li]);
                if q < r {
                    r = q;
                }
            }
        }
        for k in 0..f.comp_links.len() {
            let li = f.comp_links[k] as usize;
            if f.link_n[li] == 0 || f.link_res[li] / f64::from(f.link_n[li]) > r {
                continue;
            }
            for j in 0..f.link_flows[li].len() {
                let fl = f.link_flows[li][j] as usize;
                if f.frozen[fl] {
                    continue;
                }
                f.frozen[fl] = true;
                f.rate[fl] = r;
                unfrozen -= 1;
                for m in prep.path(fl) {
                    let mi = m.index();
                    f.link_n[mi] -= 1;
                    f.link_res[mi] = (f.link_res[mi] - r).max(0.0);
                }
            }
        }
    }

    // fresh completion predictions; clear the per-pass flags
    for k in 0..f.comp_flows.len() {
        let fl = f.comp_flows[k] as usize;
        f.frozen[fl] = false;
        f.seen_flow[fl] = false;
        f.version[fl] = f.version[fl].wrapping_add(1);
        let eta = if f.remaining[fl] <= 0.0 {
            t
        } else {
            t + f.remaining[fl] / f.rate[fl]
        };
        f.finish.push(Key(eta, pack_finish(fl, f.version[fl])));
    }
    for k in 0..f.comp_links.len() {
        f.seen_link[f.comp_links[k] as usize] = false;
    }
}

impl FlowEngine {
    /// The fair-share execution loop behind
    /// [`FlowEngine::run_prepared_fair_with`]. `FULL` (tests only)
    /// re-seeds every active link before each water-filling pass,
    /// turning the incremental recompute into a global one — the
    /// dirty-component logic is validated by comparing the two.
    fn run_prepared_fair_impl<O: SimObserver, const FULL: bool>(
        &self,
        prep: &PreparedSchedule<'_>,
        total_bytes: u64,
        scratch: &mut SimScratch,
        obs: &mut O,
    ) -> Result<SimReport, AlgorithmError> {
        self.cfg.validate()?;
        let topo = prep.topology();
        let cfg = &self.cfg;
        let flit_ns = cfg.flit_time_ns();
        let num_events = prep.num_events();
        let hop_ns = cfg.link_latency_ns + f64::from(cfg.router_pipeline_cycles) * cfg.cycle_ns();

        if O::ENABLED {
            obs.on_run_start(&RunInfo {
                engine: ObservedEngine::Flow,
                cfg,
                prep,
                total_bytes,
            });
        }

        self.fill_framings_and_gates::<false>(prep, total_bytes, scratch, &NO_FAULTS);

        reset_to(&mut scratch.node_free, topo.num_nodes(), 0.0f64);
        scratch.remaining_deps.clear();
        scratch
            .remaining_deps
            .extend((0..num_events).map(|i| prep.indegree(i)));
        reset_to(&mut scratch.ready_at, num_events, 0.0f64);
        reset_to(&mut scratch.used, topo.num_links(), false);
        scratch.fair.reset(num_events, topo.num_links());

        let framings = &scratch.framings;
        let gates = &scratch.gates;
        let node_free = &mut scratch.node_free;
        let remaining_deps = &mut scratch.remaining_deps;
        let ready_at = &mut scratch.ready_at;
        let used = &mut scratch.used;
        let f = &mut scratch.fair;

        for i in 0..num_events {
            if remaining_deps[i] == 0 {
                f.arrive.push(Key(gates[prep.step(i) as usize], i));
            }
        }

        let mut done = 0usize;
        let mut completion: f64 = 0.0;
        let mut flits_sent = 0u64;
        let mut head_flits = 0u64;
        let mut flit_hops = 0u64;
        let mut head_flit_hops = 0u64;
        let mut busy_ns = 0.0f64;

        loop {
            // drop stale completion predictions, then pick the next time
            while let Some(Key(_, packed)) = f.finish.peek() {
                let (fi, ver) = unpack_finish(packed);
                if f.version[fi] == ver {
                    break;
                }
                f.finish.pop();
            }
            let t = match (f.finish.peek(), f.arrive.peek()) {
                (None, None) => break,
                (Some(Key(tf, _)), None) => tf,
                (None, Some(Key(ta, _))) => ta,
                (Some(Key(tf, _)), Some(Key(ta, _))) => tf.min(ta),
            };

            // 1) completions at exactly `t`, so bandwidth they free is
            //    visible to transfers arriving at the same instant
            while let Some(Key(tf, packed)) = f.finish.peek() {
                let (i, ver) = unpack_finish(packed);
                if f.version[i] != ver {
                    f.finish.pop();
                    continue;
                }
                if tf > t {
                    break;
                }
                f.finish.pop();
                let path = prep.path(i);
                for l in path {
                    let li = l.index();
                    let pos = f.link_flows[li]
                        .iter()
                        .position(|&x| x as usize == i)
                        .expect("completed flow must be on its links");
                    f.link_flows[li].swap_remove(pos);
                    f.mark_dirty(li);
                }
                // the head crossed the path while the body streamed
                let delivery = tf + hop_ns * path.len() as f64;
                if O::ENABLED {
                    obs.on_flow_event_finish(delivery, i as u32, prep.step(i));
                }
                completion = completion.max(delivery);
                done += 1;
                for &dep_idx in prep.dependents(i) {
                    let dep_idx = dep_idx as usize;
                    remaining_deps[dep_idx] -= 1;
                    ready_at[dep_idx] = ready_at[dep_idx].max(delivery);
                    if remaining_deps[dep_idx] == 0 {
                        let start = ready_at[dep_idx].max(gates[prep.step(dep_idx) as usize]);
                        f.arrive.push(Key(start, dep_idx));
                    }
                }
            }

            // 2) arrivals at exactly `t`
            while let Some(Key(ta, i)) = f.arrive.peek() {
                if ta > t {
                    break;
                }
                f.arrive.pop();
                if !f.launched[i] {
                    f.launched[i] = true;
                    // software scheduling: launches serialize per node
                    let src = prep.src_index(i);
                    let tl = ta.max(node_free[src]) + cfg.sw_launch_overhead_ns;
                    if cfg.sw_launch_overhead_ns > 0.0 {
                        node_free[src] = tl;
                        if tl > t {
                            f.arrive.push(Key(tl, i));
                            continue;
                        }
                    }
                }
                let step = prep.step(i);
                if O::ENABLED {
                    obs.on_flow_event_start(t, i as u32, step);
                }
                let framing = framings[i];
                let flits = framing.total_flits();
                flits_sent += flits;
                head_flits += framing.head_flits;
                let path = prep.path(i);
                flit_hops += flits * path.len() as u64;
                head_flit_hops += framing.head_flits * path.len() as u64;
                if path.is_empty() {
                    if O::ENABLED {
                        obs.on_flow_event_finish(t, i as u32, step);
                    }
                    completion = completion.max(t);
                    done += 1;
                    for &dep_idx in prep.dependents(i) {
                        let dep_idx = dep_idx as usize;
                        remaining_deps[dep_idx] -= 1;
                        ready_at[dep_idx] = ready_at[dep_idx].max(t);
                        if remaining_deps[dep_idx] == 0 {
                            let start = ready_at[dep_idx].max(gates[prep.step(dep_idx) as usize]);
                            f.arrive.push(Key(start, dep_idx));
                        }
                    }
                    continue;
                }
                for (l, &cap) in path.iter().zip(prep.path_capacities(i)) {
                    let li = l.index();
                    // each link still carries the whole message once:
                    // identical busy accounting to the FIFO pass
                    let ser = flits as f64 * flit_ns / cap;
                    busy_ns += ser;
                    used[li] = true;
                    if O::ENABLED {
                        obs.on_flow_link_busy(li as u32, t, ser);
                    }
                    f.link_flows[li].push(i as u32);
                    f.mark_dirty(li);
                }
                f.rate[i] = 0.0;
                f.remaining[i] = flits as f64;
                f.last_upd[i] = t;
            }

            // 3) re-water-fill where the active sets changed
            if FULL {
                for li in 0..f.link_flows.len() {
                    if !f.link_flows[li].is_empty() {
                        f.mark_dirty(li);
                    }
                }
            }
            if !f.dirty.is_empty() {
                refill_component(f, prep, flit_ns, t);
            }
        }

        if done != num_events {
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
        Ok(SimReport {
            total_bytes,
            completion_ns: completion,
            flits_sent,
            head_flits,
            messages: num_events,
            flit_hops,
            head_flit_hops,
            links_used: used.iter().filter(|&&u| u).count(),
            total_links: topo.num_links(),
            busy_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multitree::algorithms::{AllReduce, DbTree, Hdrm, MultiTree, Ring, Ring2D};

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
mod fair_tests {
    use super::*;
    use multitree::algorithms::{AllReduce, DbTree, MultiTree, Ring};
    use multitree::{ChunkRange, CollectiveOp, FlowId};
    use mt_topology::NodeId;

    fn link_between(topo: &Topology, a: usize, b: usize) -> LinkId {
        (0..topo.num_links())
            .map(LinkId::new)
            .find(|&l| {
                let lk = topo.link(l);
                lk.src.as_node().is_some_and(|n| n.index() == a)
                    && lk.dst.as_node().is_some_and(|n| n.index() == b)
            })
            .expect("no direct link between the nodes")
    }

    #[test]
    fn fair_single_transfer_matches_fifo_closed_form() {
        // one uncontended transfer: the fair model degenerates to full
        // bandwidth and must time exactly like the FIFO model
        let topo = Topology::mesh(1, 2);
        let mut s = CommSchedule::new("test", 2, 1);
        let l = link_between(&topo, 0, 1);
        s.push_event(
            NodeId::new(0),
            NodeId::new(1),
            FlowId(0),
            CollectiveOp::Gather,
            ChunkRange::single(0),
            1,
            vec![],
            Some(&[l]),
        );
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let eng = FlowEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        let fair = eng
            .run_prepared_fair_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let fifo = eng
            .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let rel = (fair.sim.completion_ns - fifo.sim.completion_ns).abs()
            / fifo.sim.completion_ns;
        assert!(
            rel < 1e-12,
            "fair {} vs fifo {}",
            fair.sim.completion_ns,
            fifo.sim.completion_ns
        );
        assert_eq!(fair.sim.messages, 1);
        assert_eq!(fair.sim.flits_sent, fifo.sim.flits_sent);
    }

    struct Finishes(Vec<f64>);
    impl SimObserver for Finishes {
        fn on_flow_event_finish(&mut self, delivery_ns: f64, _event: u32, _step: u32) {
            self.0.push(delivery_ns);
        }
    }

    #[test]
    fn fair_splits_a_contended_link_instead_of_queueing() {
        // two simultaneous transfers over the same link: FIFO staggers
        // them (ser, then 2·ser), fair streams both at half rate so they
        // finish together at 2·ser — same total, different shape
        let topo = Topology::mesh(1, 2);
        let mut s = CommSchedule::new("test", 2, 2);
        let l = link_between(&topo, 0, 1);
        for seg in 0..2 {
            s.push_event(
                NodeId::new(0),
                NodeId::new(1),
                FlowId(seg as usize),
                CollectiveOp::Gather,
                ChunkRange::single(seg),
                1,
                vec![],
                Some(&[l]),
            );
        }
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let eng = FlowEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        let mut fin = Finishes(Vec::new());
        let fair = eng
            .run_prepared_fair_with(&prep, 1 << 20, &mut scratch, &mut fin)
            .unwrap();
        assert_eq!(fin.0.len(), 2);
        assert!(
            (fin.0[0] - fin.0[1]).abs() < 1e-9,
            "fair sharing must finish both transfers together: {:?}",
            fin.0
        );
        let fifo = eng
            .run_prepared_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let rel = (fair.sim.completion_ns - fifo.sim.completion_ns).abs()
            / fifo.sim.completion_ns;
        assert!(
            rel < 1e-9,
            "last delivery carries the same total serialization: fair {} vs fifo {}",
            fair.sim.completion_ns,
            fifo.sim.completion_ns
        );
    }

    #[test]
    fn incremental_recompute_matches_full_water_filling() {
        // the dirty-component pass must be a pure optimization: re-seeding
        // every active link (FULL) yields the same simulation
        let cases: Vec<(Topology, CommSchedule)> = vec![
            {
                let t = Topology::torus(4, 4);
                let s = DbTree::default().build(&t).unwrap(); // congested
                (t, s)
            },
            {
                let t = Topology::torus(8, 8);
                let s = MultiTree::default().build(&t).unwrap();
                (t, s)
            },
            {
                let t = Topology::torus(4, 4);
                let s = Ring.build(&t).unwrap();
                (t, s)
            },
        ];
        let eng = FlowEngine::new(NetworkConfig::paper_default());
        for (topo, s) in &cases {
            let prep = PreparedSchedule::new(s, topo).unwrap();
            let mut scratch = SimScratch::new();
            let inc = eng
                .run_prepared_fair_impl::<_, false>(&prep, 4 << 20, &mut scratch, &mut NoopObserver)
                .unwrap();
            let full = eng
                .run_prepared_fair_impl::<_, true>(&prep, 4 << 20, &mut scratch, &mut NoopObserver)
                .unwrap();
            assert_eq!(inc.messages, full.messages);
            assert_eq!(inc.flits_sent, full.flits_sent);
            assert_eq!(inc.links_used, full.links_used);
            let rel =
                (inc.completion_ns - full.completion_ns).abs() / full.completion_ns.max(1.0);
            assert!(
                rel < 1e-9,
                "incremental {} vs full {}",
                inc.completion_ns,
                full.completion_ns
            );
        }
    }

    #[test]
    fn fair_runs_are_deterministic_and_allocation_free_at_steady_state() {
        let topo = Topology::torus(8, 8);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let eng = FlowEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        let a = eng
            .run_prepared_fair_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let warm = scratch.capacity_elements();
        let b = eng
            .run_prepared_fair_with(&prep, 1 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        assert_eq!(a.sim, b.sim);
        assert_eq!(
            scratch.capacity_elements(),
            warm,
            "fair runs must not allocate at steady state"
        );
    }

    #[test]
    fn fair_completes_multitree_and_lands_near_fifo() {
        // multitree schedules are near contention-free by construction,
        // so the two queueing disciplines should land close together
        let topo = Topology::torus(8, 8);
        let s = MultiTree::default().build(&topo).unwrap();
        let prep = PreparedSchedule::new(&s, &topo).unwrap();
        let eng = FlowEngine::new(NetworkConfig::paper_default());
        let mut scratch = SimScratch::new();
        let fair = eng
            .run_prepared_fair_with(&prep, 4 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let fifo = eng
            .run_prepared_with(&prep, 4 << 20, &mut scratch, &mut NoopObserver)
            .unwrap();
        let ratio = fair.sim.completion_ns / fifo.sim.completion_ns;
        assert!(
            (0.5..2.0).contains(&ratio),
            "fair/fifo completion ratio {ratio} out of range"
        );
        assert_eq!(fair.sim.messages, fifo.sim.messages);
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
