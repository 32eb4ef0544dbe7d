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
use crate::scratch::{reset_to, Key, SimScratch};
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
    /// Wire framings and lockstep gates for the execution loop.
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
